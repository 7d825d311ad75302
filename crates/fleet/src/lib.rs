//! `snappix-fleet`: energy-aware fleet-scale simulation over the
//! SnapPix serving layer.
//!
//! The streaming layer (`snappix-stream`) dedicates one thread to each
//! live stream — the right shape for a handful of cameras, the wrong one
//! for a *fleet*: hundreds to thousands of battery-and-harvest sensor
//! nodes sharing one inference server. This crate multiplexes all of
//! them over a small pool of driver threads with a virtual-time event
//! loop, and closes the loop with `snappix-energy` so each node's
//! behaviour degrades — deterministically — as its budget drains:
//!
//! * **Nodes** — a [`NodeConfig`] pairs the streaming machinery
//!   (window assembly, smoothing, hysteresis, overload policy, all
//!   reused from `snappix-stream`) with an energy side: an
//!   [`EnergyBudget`](snappix_energy::EnergyBudget), the paper's
//!   [`EnergyModel`](snappix_energy::EnergyModel) pricing each window,
//!   a wireless class, and a duty-cycle ladder.
//! * **The ladder** — [`DutyCycle`] steps a node one [`DutyRung`] at a
//!   time as its budget fraction crosses thresholds: full inference →
//!   reduced window rate → raw labels → shed-before-readout → sleep,
//!   and back up with hysteresis as harvest refills the budget.
//! * **The simulator** — [`FleetSim`] keeps every node's next event on
//!   one binary heap ordered by virtual time and drives them with N
//!   threads; same-instant submissions from different nodes land in the
//!   server queue together, so the dynamic batcher coalesces windows
//!   *across the fleet* exactly as the thread-per-stream runner would.
//! * **Accounting** — [`FleetReport`] carries per-node and aggregate
//!   [`NodeStats`]/[`FleetStats`] with conserved ledgers (every window
//!   is exactly one of inferred / shed / expired / slept; energy level
//!   equals initial + harvested − spent), energy-per-inference, budget
//!   survival curves, and a merged [`TraceEvent`] log.
//!
//! # Determinism
//!
//! With default-shaped configs
//! ([`OverloadPolicy::Block`](snappix_stream::OverloadPolicy::Block), no
//! deadline)
//! a seeded fleet run is **bit-for-bit replayable**: per-node stats, the
//! merged trace, and the aggregate compare equal with `==` across runs,
//! driver-pool sizes, server worker counts, and `SNAPPIX_THREADS`
//! settings. This holds because a node has at most one event in flight
//! (its state advances strictly sequentially), predictions are pure
//! functions of window tensors, the ladder is a pure function of the
//! budget fraction, and wall-clock time never enters the compared data.
//! [`OverloadPolicy::SkipWindow`](snappix_stream::OverloadPolicy::SkipWindow)
//! and deadlines trade that away: they
//! react to real-time queue state. Pinned by `tests/fleet.rs`.
//!
//! # Quickstart
//!
//! ```no_run
//! use snappix_fleet::prelude::*;
//!
//! # fn main() -> Result<(), snappix::Error> {
//! let mask = patterns::long_exposure(8, (8, 8))?;
//! let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
//! let server = Server::builder(Pipeline::builder(model))
//!     .with_workers(2)
//!     .build()?;
//!
//! // A small fleet: finite budgets with solar-ish harvest.
//! let mut sim = FleetSim::new(&server).with_drivers(4);
//! for i in 0..16 {
//!     sim.add_node(
//!         SyntheticSource::new(ssv2_like(64, 16, 16), 2 + i % 3),
//!         NodeConfig::new(8, 4)
//!             .with_fps(15.0)
//!             .with_budget(EnergyBudget::new(2.0e9).with_harvest(5.0e7)),
//!     )?;
//! }
//! let report = sim.run()?;
//! println!("{}", report.stats);
//! for (t, alive) in report.survival_curve(4) {
//!     println!("t={t} us: {:.0}% of nodes awake", alive * 100.0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod ladder;
mod node;
mod sim;
mod stats;
mod trace;

pub use config::NodeConfig;
pub use error::FleetError;
pub use ladder::{DutyCycle, DutyRung};
pub use sim::{FleetReport, FleetSim, NodeReport};
pub use stats::{FleetStats, NodeStats};
pub use trace::{TraceEvent, TraceKind};

/// One-stop imports for fleet callers: everything from
/// [`snappix_stream::prelude`] (which pulls in the serving and core
/// preludes) plus the fleet layer's types and the energy types a
/// [`NodeConfig`] is built from.
pub mod prelude {
    pub use crate::{
        DutyCycle, DutyRung, FleetError, FleetReport, FleetSim, FleetStats, NodeConfig, NodeReport,
        NodeStats, TraceEvent, TraceKind,
    };
    pub use snappix_energy::{EnergyBudget, EnergyModel, Scenario, Wireless};
    pub use snappix_stream::prelude::*;
}
