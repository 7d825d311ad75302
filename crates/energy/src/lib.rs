//! CamJ-style edge-sensing energy model (SnapPix paper, Sec. VI-D).
//!
//! The paper's energy evaluation is an analytical model over published
//! per-component constants; this crate reimplements that model so the
//! Sec. VI-D numbers can be regenerated and stress-tested under parameter
//! sweeps.
//!
//! Constants, all from the paper:
//!
//! * total sensing energy **220 pJ/pixel** (8-bit), of which **95.6%** is
//!   ADC + MIPI read-out (CamJ, calibrated against silicon);
//! * CE support overhead **9 pJ/pixel** per exposure slot at a 20 MHz
//!   pattern clock (the paper's synthesis result);
//! * short-range wireless (passive WiFi, ~10 m): **43.04 pJ/pixel**;
//! * long-range wireless (LoRa backscatter, >100 m): **7.4 µJ/pixel**;
//! * MIPI CSI-2 transfer of one byte costs ~**300x** a one-byte MAC.
//!
//! With `T = 16`, SnapPix reads out and transmits one coded image instead
//! of 16 frames, cutting ADC/MIPI and wireless energy by 16x; the model
//! reproduces the paper's **7.6x** (short-range) and **~15-16x**
//! (long-range) edge energy savings, and the edge-GPU scenario's **1.4x**
//! / **4.5x** savings against VideoMAEv2-ST and C3D.
//!
//! # Examples
//!
//! ```
//! use snappix_energy::{EnergyModel, Scenario, Wireless};
//!
//! let model = EnergyModel::paper();
//! let scenario = Scenario {
//!     frame_pixels: 112 * 112,
//!     slots: 16,
//!     wireless: Wireless::PassiveWifi,
//! };
//! let saving = model.edge_energy_saving(&scenario);
//! assert!(saving > 7.0 && saving < 8.0); // the paper reports 7.6x
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod gpu;
mod model;

pub use budget::EnergyBudget;
pub use gpu::{EdgeGpuScenario, GpuModelClass, JetsonXavierModel};
pub use model::{EnergyBreakdown, EnergyModel, Scenario, Wireless};
