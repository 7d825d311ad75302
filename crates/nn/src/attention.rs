//! Multi-head self-attention.

use crate::{Linear, NnError, ParamStore, Result, Session};
use rand::Rng;
use snappix_autograd::Var;

/// Multi-head self-attention over `[batch, seq, dim]` token sequences.
///
/// This is the cross-tile information-sharing half of the CE-optimized ViT
/// (paper Sec. IV): patch-wise embeddings and MLPs handle within-tile pixel
/// variation, while attention lets tiles exchange scene context.
///
/// A forward records five tape nodes: the `q`, `k` and `v` projections
/// (one [`Linear`] node each), one [`Graph::attention`] node that runs
/// every head over strided columns of those projections, and the output
/// projection. With `dh = dim / heads`, head `h` owns columns
/// `h·dh..(h+1)·dh` of each token row, so no tensor is split into heads or
/// merged back.
///
/// [`Graph::attention`]: snappix_autograd::Graph::attention
///
/// # Examples
///
/// ```
/// use snappix_nn::{MultiHeadAttention, ParamStore, Session};
/// use snappix_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut store = ParamStore::new();
/// let mha = MultiHeadAttention::new(&mut store, "attn", 16, 4, &mut rng)?;
/// let mut sess = Session::inference(&store);
/// let x = sess.input(Tensor::zeros(&[2, 5, 16]));
/// let y = mha.forward(&mut sess, x)?;
/// assert_eq!(sess.graph.value(y).shape(), &[2, 5, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    proj: Linear,
    dim: usize,
    heads: usize,
}

impl MultiHeadAttention {
    /// Registers attention weights under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] when `dim` is not divisible by `heads`
    /// or either is zero.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if heads == 0 || dim == 0 || !dim.is_multiple_of(heads) {
            return Err(NnError::Config {
                context: format!("dim {dim} not divisible by heads {heads}"),
            });
        }
        Ok(MultiHeadAttention {
            q: Linear::new(store, &format!("{name}.q"), dim, dim, rng),
            k: Linear::new(store, &format!("{name}.k"), dim, dim, rng),
            v: Linear::new(store, &format!("{name}.v"), dim, dim, rng),
            proj: Linear::new(store, &format!("{name}.proj"), dim, dim, rng),
            dim,
            heads,
        })
    }

    /// Applies scaled dot-product self-attention:
    /// `proj(attention(q(x), k(x), v(x)))`, with the heads fused into one
    /// tape node.
    ///
    /// # Errors
    ///
    /// Fails when the input is not `[batch, seq, dim]` with the
    /// construction-time `dim`.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let shape = sess.graph.value(x).shape().to_vec();
        if shape.len() != 3 || shape[2] != self.dim {
            return Err(NnError::Config {
                context: format!(
                    "attention expects [batch, seq, {}], got {shape:?}",
                    self.dim
                ),
            });
        }
        let q = self.q.forward(sess, x)?;
        let k = self.k.forward(sess, x)?;
        let v = self.v.forward(sess, x)?;
        let ctx = sess.graph.attention(q, k, v, self.heads)?;
        self.proj.forward(sess, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use snappix_tensor::Tensor;

    #[test]
    fn construction_validates_heads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        assert!(MultiHeadAttention::new(&mut store, "a", 16, 3, &mut rng).is_err());
        assert!(MultiHeadAttention::new(&mut store, "a", 16, 0, &mut rng).is_err());
        assert!(MultiHeadAttention::new(&mut store, "a", 16, 4, &mut rng).is_ok());
    }

    #[test]
    fn forward_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 12, 3, &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::rand_uniform(&mut rng, &[2, 7, 12], -1.0, 1.0));
        let y = mha.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[2, 7, 12]);
        assert!(sess.graph.value(y).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 12, 3, &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[2, 7, 8]));
        assert!(mha.forward(&mut sess, x).is_err());
        let x2 = sess.input(Tensor::zeros(&[2, 12]));
        assert!(mha.forward(&mut sess, x2).is_err());
    }

    #[test]
    fn attention_is_permutation_equivariant_without_positions() {
        // Self-attention with no positional encoding commutes with token
        // permutation; verify on a 2-token swap.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng).unwrap();
        let tok = Tensor::rand_uniform(&mut rng, &[1, 2, 8], -1.0, 1.0);
        let swapped = {
            let t0 = tok.slice_axis(1, 0, 1).unwrap();
            let t1 = tok.slice_axis(1, 1, 2).unwrap();
            Tensor::concat(&[&t1, &t0], 1).unwrap()
        };
        let run = |input: Tensor| {
            let mut sess = Session::inference(&store);
            let x = sess.input(input);
            let y = mha.forward(&mut sess, x).unwrap();
            sess.graph.value(y).clone()
        };
        let a = run(tok);
        let b = run(swapped);
        let b_unswapped = {
            let t0 = b.slice_axis(1, 0, 1).unwrap();
            let t1 = b.slice_axis(1, 1, 2).unwrap();
            Tensor::concat(&[&t1, &t0], 1).unwrap()
        };
        assert!(a.approx_eq(&b_unswapped, 1e-4));
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng).unwrap();
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::rand_uniform(&mut rng, &[1, 3, 8], -1.0, 1.0));
        let y = mha.forward(&mut sess, x).unwrap();
        let loss = sess.graph.mean(y).unwrap();
        let grads = sess.backward(loss).unwrap();
        for id in store.ids() {
            assert!(
                grads.get(id).is_some(),
                "missing grad for {}",
                store.name(id)
            );
        }
    }
}
