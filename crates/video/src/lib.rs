//! Procedural grayscale video datasets for the SnapPix reproduction.
//!
//! The paper evaluates on SSV2, Kinetics-400 and UCF-101, none of which can
//! ship with a reproduction. This crate substitutes procedurally generated
//! grayscale videos whose statistics exercise the same code paths:
//!
//! * **spatially correlated backgrounds** (low-frequency random fields), so
//!   the decorrelation objective of Sec. III has real redundancy to remove;
//! * **temporally coherent motion** with ground-truth *action classes*
//!   (translation direction, orbital rotation, oscillation, scaling,
//!   flicker, bounce), so action-recognition accuracy is well defined;
//! * **deterministic indexing** — sample `i` of a dataset is a pure
//!   function of `(seed, i)`, so experiments are reproducible without
//!   storing a single frame on disk.
//!
//! Three presets mirror the paper's datasets in role: [`ssv2_like`]
//! (motion-centric, the pre-training and main evaluation set),
//! [`k400_like`] (more classes, busier scenes) and [`ucf101_like`]
//! (smaller, easier).
//!
//! # Examples
//!
//! ```
//! use snappix_video::{ssv2_like, Dataset};
//!
//! let config = ssv2_like(16, 32, 32);
//! let data = Dataset::new(config, 100);
//! let sample = data.sample(0);
//! assert_eq!(sample.video.frames().shape(), &[16, 32, 32]);
//! assert!(sample.label < data.num_classes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod dataset;
mod metrics;
mod scene;
mod video;

pub use action::ActionClass;
pub use dataset::{k400_like, ssv2_like, ucf101_like, Batch, Dataset, DatasetConfig, Sample};
pub use metrics::psnr;
pub use scene::{render_scene, SceneParams};
pub use video::{Video, Windows};
