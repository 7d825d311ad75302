//! Layer normalization.

use crate::{ParamId, ParamStore, Result, Session};
use snappix_autograd::Var;
use snappix_tensor::Tensor;

/// Layer normalization over the trailing feature axis, with learnable scale
/// (`gamma`, initialized to 1) and shift (`beta`, initialized to 0).
///
/// # Examples
///
/// ```
/// use snappix_nn::{LayerNorm, ParamStore, Session};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ParamStore::new();
/// let ln = LayerNorm::new(&mut store, "ln", 8);
/// let mut sess = Session::inference(&store);
/// let x = sess.input(Tensor::rand_uniform(
///     &mut rand::rngs::StdRng::seed_from_u64(0), &[2, 8], -5.0, 5.0));
/// let y = ln.forward(&mut sess, x)?;
/// assert_eq!(sess.graph.value(y).shape(), &[2, 8]);
/// # use rand::SeedableRng;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers normalization parameters for a feature width of `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Tensor::ones(&[dim]));
        let beta = store.register(format!("{name}.beta"), Tensor::zeros(&[dim]));
        LayerNorm {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Applies layer normalization inside `sess`.
    ///
    /// # Errors
    ///
    /// Fails when the trailing input dimension differs from the `dim`
    /// the layer was built with.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let gamma = sess.param(self.gamma);
        let beta = sess.param(self.beta);
        Ok(sess.graph.layer_norm(x, gamma, beta, self.eps)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn output_rows_are_normalized() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 16);
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::rand_uniform(&mut rng, &[4, 16], -10.0, 10.0));
        let y = ln.forward(&mut sess, x).unwrap();
        let yv = sess.graph.value(y);
        for r in 0..4 {
            let row = yv.slice_axis(0, r, r + 1).unwrap();
            assert!(row.mean().abs() < 1e-4, "row {r} mean {}", row.mean());
            assert!((row.variance() - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        // Set gamma = 2, beta = 1 manually.
        let ids = store.ids();
        *store.value_mut(ids[0]) = Tensor::full(&[4], 2.0);
        *store.value_mut(ids[1]) = Tensor::ones(&[4]);
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::rand_uniform(&mut rng, &[1, 4], -1.0, 1.0));
        let y = ln.forward(&mut sess, x).unwrap();
        let yv = sess.graph.value(y);
        // mean = beta, std = 2 * gamma-free std (1) => variance ~4.
        assert!((yv.mean() - 1.0).abs() < 1e-4);
        assert!((yv.variance() - 4.0).abs() < 0.1);
    }
}
