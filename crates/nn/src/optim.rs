//! The optimizer every training loop uses.

use crate::{Gradients, NnError, ParamStore, Result};
use snappix_tensor::Tensor;

/// Decay rate of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Decay rate of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Added to the second-moment root so the update never divides by zero.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with the standard `(0.9, 0.999)` betas and
/// epsilon `1e-8`, no weight decay. Where a [`crate::LrSchedule`]
/// applies, the training loop feeds it through
/// [`Adam::set_learning_rate`].
///
/// Parameters without a gradient in the supplied [`Gradients`] (e.g. a
/// frozen encoder during fine-tuning, or layers unused by the current
/// loss) are skipped and keep their moments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    step: u64,
    moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Adam with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            step: 0,
            moments: Vec::new(),
        }
    }

    /// Applies one update step.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parameter`] when a gradient's shape disagrees
    /// with its parameter.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) -> Result<()> {
        self.moments.resize(store.len(), None);
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - BETA1.powf(t);
        let bc2 = 1.0 - BETA2.powf(t);
        for id in store.ids() {
            let Some(grad) = grads.get(id) else { continue };
            if grad.shape() != store.value(id).shape() {
                return Err(NnError::Parameter {
                    context: format!(
                        "gradient shape {:?} != parameter {:?} for {}",
                        grad.shape(),
                        store.value(id).shape(),
                        store.name(id)
                    ),
                });
            }
            let (m_prev, v_prev) = match &self.moments[id.0] {
                Some((m, v)) => (m.clone(), v.clone()),
                None => (Tensor::zeros(grad.shape()), Tensor::zeros(grad.shape())),
            };
            let m = m_prev.scale(BETA1).add(&grad.scale(1.0 - BETA1))?;
            let g2 = grad.mul(grad)?;
            let v = v_prev.scale(BETA2).add(&g2.scale(1.0 - BETA2))?;
            self.moments[id.0] = Some((m.clone(), v.clone()));
            let m_hat = m.scale(1.0 / bc1);
            let v_hat = v.scale(1.0 / bc2);
            let denom = v_hat.sqrt().add_scalar(EPS);
            let update = m_hat.div(&denom)?.scale(self.lr);
            let new_value = store.value(id).sub(&update)?;
            *store.value_mut(id) = new_value;
        }
        Ok(())
    }

    /// Replaces the learning rate (used by [`crate::LrSchedule`]).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    /// Minimizes `(w - 3)^2` with `opt` and returns the final parameter
    /// value.
    fn minimize(opt: &mut Adam, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::scalar(0.0));
        for _ in 0..steps {
            let mut sess = Session::new(&store);
            let w = sess.param(id);
            let c = sess.input(Tensor::scalar(3.0));
            let diff = sess.graph.sub(w, c).unwrap();
            let loss = sess.graph.mul(diff, diff).unwrap();
            let grads = sess.backward(loss).unwrap();
            opt.step(&mut store, &grads).unwrap();
        }
        store.value(id).item().unwrap()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let w = minimize(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn skips_parameters_without_gradients() {
        let mut store = ParamStore::new();
        let used = store.register("used", Tensor::scalar(1.0));
        let frozen = store.register("frozen", Tensor::scalar(7.0));
        let mut sess = Session::new(&store);
        let w = sess.param(used);
        let loss = sess.graph.mul(w, w).unwrap();
        let grads = sess.backward(loss).unwrap();
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &grads).unwrap();
        assert!(store.value(used).item().unwrap() < 1.0);
        assert_eq!(store.value(frozen).item().unwrap(), 7.0);
    }
}
