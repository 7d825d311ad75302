//! `snappix-metrics`: the unified metrics core of the SnapPix stack.
//!
//! PR 9's `snappix-trace` gave the stack traces; this crate is the
//! metrics half. Before it, telemetry was fragmented and lossy: the
//! serving layer ranked percentiles over a sliding 4096-sample window
//! (tail latencies silently under-counted under sustained load), the
//! gateway hand-formatted its own Prometheus page, and the stream and
//! fleet layers kept private stat structs that never reached
//! `/metrics`. This crate replaces all three with one subsystem:
//!
//! * **[`Registry`]** — named [`Counter`]/[`Gauge`]/[`Histogram`]
//!   families with label sets. Registration is
//!   idempotent (same name + labels → same cell), handles are cheap
//!   clones, and the whole registry renders itself as classic
//!   Prometheus text ([`Registry::render`]) or OpenMetrics
//!   ([`Registry::render_openmetrics`]). Like the tracer, a registry
//!   is either enabled or [`disabled`](Registry::disabled) — disabled
//!   handles no-op, and serving results are bit-for-bit identical
//!   either way.
//! * **Log-linear histograms** — HDR-style buckets: exact singleton
//!   buckets below `2^b`, then `2^b` equal-width buckets per power of
//!   two, bounding relative error at `2^-b` (see [`HistogramOpts`]).
//!   Recording is lock-free (atomic adds), *every* sample since
//!   process start is counted — no window, no lost samples — and
//!   histograms [`merge`](HistogramSnapshot::merge) loss-free, so
//!   per-worker or per-replica recordings fold into one export.
//! * **Trace exemplars** — a histogram built
//!   [`with_exemplars`](HistogramOpts::with_exemplars) remembers the
//!   most recent nonzero trace id per bucket and exports it in
//!   OpenMetrics exemplar syntax, so a latency spike on a dashboard
//!   points straight at a `snappix-trace` trace id (and therefore at
//!   the gateway's `/debug/trace` page).
//!
//! # Quickstart
//!
//! ```
//! use snappix_metrics::{HistogramOpts, Registry};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("app_requests_total", "Requests served.");
//! let latency = registry.histogram(
//!     "app_latency_seconds",
//!     "Request latency.",
//!     HistogramOpts::nanos().with_exemplars(),
//! );
//!
//! requests.inc();
//! latency.record_with_trace(1_500_000, 0xabcd); // 1.5 ms, trace 0xabcd
//!
//! let snap = latency.snapshot();
//! assert_eq!(snap.count, 1);
//! let p99 = snap.quantile(0.99); // within 2^-6 of the true order statistic
//! assert!(p99 >= 1_500_000);
//! println!("{}", registry.render_openmetrics());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod render;

pub use hist::{BucketCount, HistogramOpts, HistogramSnapshot};
pub use registry::{Counter, Gauge, Histogram, Kind, Registry};

/// One-stop imports for metrics producers and exporters.
pub mod prelude {
    pub use crate::{
        BucketCount, Counter, Gauge, Histogram, HistogramOpts, HistogramSnapshot, Kind, Registry,
    };
}
