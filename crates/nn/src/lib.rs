//! Neural-network building blocks for the SnapPix reproduction.
//!
//! Provides the layers the paper's vision models are assembled from
//! (Sec. IV): linear projections, layer normalization, multi-head
//! attention, transformer blocks, 2-D/3-D convolutions (for the C3D and
//! SVC2D baselines) and the shift-variant convolution of Okawara et al.,
//! plus the Adam optimizer, its warmup-cosine schedule and the sealed
//! `.spx` weight artifact ([`write_artifact`] / [`ArtifactReader`]).
//!
//! The crate follows a define-by-run discipline: layers own their weights
//! inside a [`ParamStore`]; each training step opens a [`Session`] that
//! leafs parameters into a fresh autograd [`Graph`](snappix_autograd::Graph),
//! builds the loss, backpropagates, and hands per-parameter gradients to
//! [`Adam`].
//!
//! # Examples
//!
//! ```
//! use snappix_nn::{Adam, Linear, ParamStore, Session};
//! use snappix_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "fc", 4, 2, &mut rng);
//! let mut opt = Adam::new(0.1);
//!
//! let mut sess = Session::new(&store);
//! let x = sess.input(Tensor::ones(&[3, 4]));
//! let y = layer.forward(&mut sess, x)?;
//! let loss = sess.graph.mean(y)?;
//! let grads = sess.backward(loss)?;
//! opt.step(&mut store, &grads)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod attention;
mod conv;
mod error;
mod init;
mod linear;
mod mlp;
mod norm;
mod optim;
mod param;
mod pool;
mod schedule;
mod serialize;
mod svc;
mod transformer;

pub use artifact::{
    convert_params_to_artifact, fnv1a64, write_artifact, ArtifactReader, SPX_ALIGN,
    SPX_HEADER_BYTES, SPX_MAGIC, SPX_VERSION,
};
pub use attention::MultiHeadAttention;
pub use conv::{Conv2d, Conv3d};
pub use error::NnError;
pub use init::{kaiming_uniform, xavier_uniform};
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;
pub use optim::Adam;
pub use param::{resident_weight_bytes, Gradients, ParamId, ParamStore, Session, SessionPool};
pub use pool::max_pool3d;
pub use schedule::LrSchedule;
pub use svc::ShiftVariantConv2d;
pub use transformer::TransformerBlock;

/// Convenient result alias used across this crate.
pub type Result<T> = std::result::Result<T, NnError>;
