//! `snappix-serve`: the multi-client serving layer over the SnapPix
//! [`Pipeline`](snappix::Pipeline).
//!
//! The umbrella crate's pipeline is a *single-caller* engine: one owner,
//! one `&mut` call at a time. A deployed node serves many concurrent
//! clients, and the throughput machinery the lower layers provide —
//! batched forward passes (PR 2), data-parallel kernels (PR 3) — only
//! pays off when somebody aggregates those clients into batches. This
//! crate is that somebody:
//!
//! * **Worker replicas** — a [`Server`] owns N worker threads, each with
//!   a private [`Pipeline`](snappix::Pipeline) replica stamped from one
//!   [`PipelineBuilder`](snappix::PipelineBuilder) recipe
//!   ([`build_replicas`](snappix::PipelineBuilder::build_replicas)): same
//!   weights everywhere, no shared mutable state, no locks on the hot
//!   path. Each replica's data-parallel budget is scoped with the
//!   workspace's `with_threads` machinery so N replicas never
//!   oversubscribe the machine.
//! * **Dynamic batching** — a central batcher coalesces concurrent
//!   requests into one `[batch, t, h, w]` forward pass per worker wake,
//!   under a [`BatchPolicy`] (`max_batch` clips, at most `max_delay` of
//!   added latency). Batching changes the schedule, never the numbers:
//!   with a deterministic backend (algorithmic encoder, noiseless
//!   readout) results are bit-for-bit identical to a serial per-clip
//!   loop; a noisy readout draws per-replica noise streams, so its
//!   realizations are schedule-dependent, as across physical sensors.
//! * **Backpressure** — the admission queue is bounded.
//!   [`Server::try_submit`] sheds load explicitly with
//!   [`ServeError::Overloaded`], [`Server::submit`] blocks the client
//!   instead, and per-request deadlines
//!   ([`Server::submit_within`] with `Some(d)`) expire queued work
//!   rather than serving it late.
//! * **Telemetry** — every counter and latency sample lands in a
//!   [`snappix_metrics::Registry`] (attach a shared one via
//!   [`ServerBuilder::with_metrics`]) and nowhere else: request
//!   counters, mergeable log-linear queue/compute latency histograms
//!   covering *every* sample since start (no sliding window, bounded
//!   relative error, trace-id exemplars), a batch-size histogram, and
//!   per-stage latency histograms, all as `snappix_server_*`
//!   Prometheus families. [`Server::stats`] derives [`ServerStats`] —
//!   throughput, p50/p95/p99 latency, queue depth, the batch-size
//!   snapshot, a per-stage
//!   [`PipelineProfile`](snappix::PipelineProfile) — from those cells
//!   alone, so the struct and the rendered `/metrics` page always
//!   agree.
//! * **Tracing** — attach a [`Tracer`](snappix_trace::Tracer) via
//!   [`ServerBuilder::with_tracer`] and every request is stamped with a
//!   trace id (on its [`Ticket`]), `queue_wait`/`batch`/`compute` spans
//!   are recorded around the pipeline's own stage spans, and
//!   `server.tracer().snapshot().to_chrome_json()` exports the lot for
//!   Perfetto / `chrome://tracing`. Defaults to disabled with near-zero
//!   cost and bit-for-bit identical results.
//!
//! # Quickstart
//!
//! ```no_run
//! use snappix_serve::prelude::*;
//!
//! # fn main() -> Result<(), snappix::Error> {
//! let mask = patterns::long_exposure(8, (8, 8))?;
//! let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
//! let server = Server::builder(Pipeline::builder(model))
//!     .with_workers(4)
//!     .with_queue_depth(128)
//!     .with_batch_policy(BatchPolicy::new(16, std::time::Duration::from_millis(2)))
//!     .build()?;
//!
//! // Clients submit from any number of threads; each gets a Ticket.
//! std::thread::scope(|scope| {
//!     for _ in 0..8 {
//!         scope.spawn(|| {
//!             let clip = Tensor::zeros(&[8, 16, 16]);
//!             match server.try_submit(&clip) {
//!                 Ok(ticket) => println!("class {:?}", ticket.wait().map(|p| p.label)),
//!                 Err(ServeError::Overloaded { .. }) => println!("shed: retry later"),
//!                 Err(e) => println!("rejected: {e}"),
//!             }
//!         });
//!     }
//! });
//! println!("{}", server.stats());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod queue;
mod server;
mod stats;
mod ticket;

pub use batch::BatchPolicy;
pub use error::ServeError;
pub use server::{Server, ServerBuilder};
pub use stats::{LatencySummary, ServerStats};
pub use ticket::Ticket;

/// One-stop imports for serving callers: everything from
/// [`snappix::prelude`] plus the serving layer's types.
pub mod prelude {
    pub use crate::{
        BatchPolicy, LatencySummary, ServeError, Server, ServerBuilder, ServerStats, Ticket,
    };
    pub use snappix::prelude::*;
    pub use snappix_metrics::{HistogramOpts, HistogramSnapshot, Registry};
    pub use snappix_trace::Tracer;
}
