//! Coded-exposure (CE) compression and decorrelation-based mask learning —
//! the primary contribution of the SnapPix paper (Secs. II-B and III).
//!
//! Coded exposure compresses a `T`-frame video into a *single* coded image
//! by selectively exposing each pixel in a subset of the `T` exposure
//! slots and integrating (Eqn. 1):
//!
//! ```text
//! X(i, j) = sum_t M(i, j, t) * Y(i, j, t)
//! ```
//!
//! SnapPix's innovations, all implemented here:
//!
//! * **Tile-repetitive masks** ([`ExposureMask`]): the binary pattern `M`
//!   repeats across `th x tw` tiles, bounding the pixel non-uniformity the
//!   downstream model must absorb (Sec. IV).
//! * **Task-agnostic pattern learning by decorrelation**
//!   ([`DecorrelationTrainer`]): the mask is trained to minimize the mean
//!   squared Pearson correlation between coded pixels within a tile
//!   (Eqn. 2), with zero-mean contrast encoding and a straight-through
//!   estimator through the binarization — no downstream task in the loop.
//! * **Baseline patterns** ([`patterns`]): long, short, random and
//!   sparse-random exposure, reproduced from the paper's Fig. 6
//!   comparison.
//!
//! Capture backends implement [`Sense`], writing only its batched
//! [`Sense::sense_batch`]; one clip is a batch of one through the
//! provided [`Sense::sense`]. Exposure-count normalization has one
//! implementation, [`normalize_coded`], which every path runs after
//! [`encode_batch`] or a hardware capture.
//!
//! # Examples
//!
//! ```
//! use snappix_ce::{patterns, encode};
//! use snappix_video::{ssv2_like, Dataset};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), snappix_ce::CeError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mask = patterns::random(16, (8, 8), 0.5, &mut rng)?;
//! let data = Dataset::new(ssv2_like(16, 32, 32), 1);
//! let coded = encode(data.sample(0).video.frames(), &mask)?;
//! assert_eq!(coded.shape(), &[32, 32]); // 16 frames -> 1 image
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod error;
mod learner;
mod mask;
pub mod patterns;
mod sense;
mod stats;

pub use encode::{encode, encode_batch, normalize_coded};
pub use error::CeError;
pub use learner::{
    measure_pattern_correlation, DecorrelationConfig, DecorrelationTrainer, TrainedMask,
};
pub use mask::ExposureMask;
pub use patterns::PatternKind;
pub use sense::{AlgorithmicEncoder, Sense};
pub use stats::{coded_tile_samples, mean_offdiag_abs, pearson_matrix, zero_mean_contrast};

/// Convenient result alias used across this crate.
pub type Result<T> = std::result::Result<T, CeError>;
