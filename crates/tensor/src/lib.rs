//! Dense `f32` n-dimensional tensors for the SnapPix reproduction.
//!
//! This crate is the lowest substrate of the workspace: every other crate
//! (autograd, neural networks, the coded-exposure codec, the sensor
//! simulator) stores its numeric data in a [`Tensor`].
//!
//! The design goal is a small, predictable, row-major contiguous tensor with
//! the operations the SnapPix pipeline actually needs — elementwise
//! arithmetic with NumPy-style broadcasting, (batched) matrix multiplication,
//! axis reductions, shape manipulation, and seeded random fills — rather than
//! a general array-programming framework.
//!
//! # Examples
//!
//! ```
//! use snappix_tensor::Tensor;
//!
//! # fn main() -> Result<(), snappix_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 10.0);
//! let c = a.add(&b)?;
//! assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
//!
//! let d = a.matmul(&a)?;
//! assert_eq!(d.shape(), &[2, 2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod math;
mod ops;
pub mod parallel;
mod random;
mod shape;
mod storage;
mod tensor;

pub use error::TensorError;
pub use ops::argmax_coords;
pub use shape::{broadcast_shapes, strides_for, Shape, MAX_RANK};
pub(crate) use storage::Heap;
pub use storage::{BufferSource, DType, SharedBuffer};
pub use tensor::Tensor;

/// Convenient result alias used across this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
