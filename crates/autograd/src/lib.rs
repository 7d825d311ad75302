//! Tape-based reverse-mode automatic differentiation over
//! [`snappix_tensor::Tensor`].
//!
//! The SnapPix reproduction needs gradients in two places: learning the
//! coded-exposure mask by minimizing the decorrelation loss (paper Sec. III,
//! via a straight-through estimator), and training the downstream vision
//! models (paper Sec. IV). Both are served by this crate's [`Graph`]: a
//! define-by-run tape where every operation eagerly computes its value and
//! records a backward closure.
//!
//! # Examples
//!
//! ```
//! use snappix_autograd::Graph;
//! use snappix_tensor::Tensor;
//!
//! # fn main() -> Result<(), snappix_autograd::AutogradError> {
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![2.0, 3.0], &[2])?, true);
//! let y = g.mul(x, x)?;          // y = x^2
//! let loss = g.sum(y)?;          // loss = sum(x^2)
//! g.backward(loss)?;
//! // d(sum x^2)/dx = 2x
//! assert_eq!(g.grad(x).unwrap().as_slice(), &[4.0, 6.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod free_list;
mod gradcheck;
mod graph;
mod ops_linalg;
mod ops_pointwise;
mod ops_structural;

pub use error::AutogradError;
pub use gradcheck::check_gradients;
pub use graph::{Graph, Var};

/// Convenient result alias used across this crate.
pub type Result<T> = std::result::Result<T, AutogradError>;
