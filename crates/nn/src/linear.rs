//! Fully connected layer.

use crate::{xavier_uniform, ParamId, ParamStore, Result, Session};
use rand::Rng;
use snappix_autograd::Var;
use snappix_tensor::Tensor;

/// A dense affine layer: `y = x W + b`.
///
/// Accepts inputs of shape `[batch, in]` or `[batch, seq, in]` (the weight
/// is shared across the sequence axis, as in transformer token mixing).
///
/// # Examples
///
/// ```
/// use snappix_nn::{Linear, ParamStore, Session};
/// use snappix_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut store = ParamStore::new();
/// let fc = Linear::new(&mut store, "head", 8, 3, &mut rng);
/// let mut sess = Session::inference(&store);
/// let x = sess.input(Tensor::zeros(&[4, 8]));
/// let y = fc.forward(&mut sess, x)?;
/// assert_eq!(sess.graph.value(y).shape(), &[4, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
}

impl Linear {
    /// Registers a new layer's weights under `name` in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            xavier_uniform(rng, &[in_features, out_features], in_features, out_features),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_features]));
        Linear { weight, bias }
    }

    /// Applies the layer inside `sess`.
    ///
    /// # Errors
    ///
    /// Fails when the trailing input dimension differs from the layer's
    /// input feature count.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let w = sess.param(self.weight);
        let b = sess.param(self.bias);
        Ok(sess.graph.linear(x, w, b)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let fc = Linear::new(&mut store, "fc", 4, 2, &mut rng);
        let mut sess = Session::inference(&store);
        let x2 = sess.input(Tensor::zeros(&[3, 4]));
        let y2 = fc.forward(&mut sess, x2).unwrap();
        assert_eq!(sess.graph.value(y2).shape(), &[3, 2]);
        let x3 = sess.input(Tensor::zeros(&[2, 5, 4]));
        let y3 = fc.forward(&mut sess, x3).unwrap();
        assert_eq!(sess.graph.value(y3).shape(), &[2, 5, 2]);
    }

    #[test]
    fn forward_rejects_bad_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let fc = Linear::new(&mut store, "fc", 4, 2, &mut rng);
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[3, 5]));
        assert!(fc.forward(&mut sess, x).is_err());
    }

    #[test]
    fn can_fit_a_linear_map() {
        // Teach y = 2x - 1 to a 1 -> 1 layer.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let fc = Linear::new(&mut store, "fc", 1, 1, &mut rng);
        let mut opt = Adam::new(0.1);
        let xs = Tensor::from_vec(vec![-1.0, 0.0, 1.0, 2.0], &[4, 1]).unwrap();
        let ys = Tensor::from_vec(vec![-3.0, -1.0, 1.0, 3.0], &[4, 1]).unwrap();
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut sess = Session::new(&store);
            let x = sess.input(xs.clone());
            let pred = fc.forward(&mut sess, x).unwrap();
            let loss = sess.graph.mse_loss(pred, &ys).unwrap();
            last = sess.graph.value(loss).item().unwrap();
            let grads = sess.backward(loss).unwrap();
            opt.step(&mut store, &grads).unwrap();
        }
        assert!(last < 1e-3, "final loss {last}");
    }
}
