//! Behavioral simulation and area model of the stacked coded-exposure
//! image sensor (SnapPix paper, Sec. V).
//!
//! The paper augments a stacked CMOS image sensor so coded exposure runs
//! *inside* the pixel array: the top die keeps a (modified) 4T active
//! pixel, the bottom die adds one D-flip-flop per pixel wired as a
//! per-tile shift register, and two extra transistors (`M6` pattern-reset,
//! `M7` pattern-transfer) let the buffered CE bit gate the photodiode
//! reset and the charge transfer. This crate reproduces that design at the
//! behavioral level:
//!
//! * [`CePixel`] — charge-domain state machine of one pixel (PD, FD, DFF,
//!   switches `M1`–`M7`), the reference model of the array;
//! * [`CeSensor`] — a full array with per-tile shift-register pattern
//!   streaming, the slot protocol of Sec. V, and cycle accounting. It
//!   keeps every pixel's state packed: PD and FD charge as plain `f32`
//!   arrays, and the DFF bits and their power gates as each tile's
//!   shift-register words, which a stream clocks in place;
//! * [`Readout`] — shot noise, read noise and ADC quantization;
//! * [`HardwareSensor`] — the deployment-path [`snappix_ce::Sense`]
//!   backend: capture + readout + normalization behind the same trait as
//!   the algorithmic encoder, so inference pipelines swap paths via
//!   generics;
//! * [`area`] — the area model: per-pixel logic (30 µm² at 65 nm, 3.2 µm²
//!   scaled to 22 nm) and the wire-area comparison against the broadcast
//!   alternative (2N wires/pixel), regenerating the Sec. V numbers.
//!
//! The central correctness claim — the hardware computes exactly Eqn. 1 —
//! is property-tested against [`snappix_ce::encode`], and the packed
//! array against a per-[`CePixel`] run of the same protocol.
//!
//! # Examples
//!
//! ```
//! use snappix_sensor::HardwareSensor;
//! use snappix_ce::{patterns, Sense};
//! use snappix_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mask = patterns::long_exposure(4, (4, 4))?;
//! let mut sensor = HardwareSensor::new(8, 8, mask)?.with_normalization(false);
//! let video = Tensor::full(&[4, 8, 8], 0.1);
//! let analog = sensor.sense(&video)?;
//! assert_eq!(analog.shape(), &[8, 8]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod array;
mod error;
mod hardware;
mod pixel;
mod readout;

pub use array::{CaptureStats, CeSensor};
pub use error::SensorError;
pub use hardware::HardwareSensor;
pub use pixel::CePixel;
pub use readout::{Readout, ReadoutConfig};

/// Convenient result alias used across this crate.
pub type Result<T> = std::result::Result<T, SensorError>;
