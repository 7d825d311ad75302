//! `snappix-gateway`: a std-only HTTP/1.1 network front-end over the
//! SnapPix serving layer ([`snappix_serve::Server`]).
//!
//! Everything below this crate is in-process: the serving layer batches
//! and the streaming layer windows, but a client still has to be Rust
//! code linking the workspace. A deployed inference node needs a wire —
//! and an operator needs to see what the node is doing without writing
//! Rust. This crate is both, with no dependencies beyond `std`
//! (mirroring the workspace's vendored-only policy — the HTTP subset,
//! the metrics exposition, and the rate limiter are all small enough to
//! own):
//!
//! * **`POST /v1/classify`** — the clip goes on the wire as its raw
//!   little-endian `f32` samples (`Content-Length`-framed, exactly
//!   `t*h*w*4` bytes), the prediction comes back as JSON
//!   (`{"label":...,"logits":[...]}`) with shortest-round-trip float
//!   formatting, so the numbers parse back bit-for-bit.
//! * **Admission in layers** — an optional per-client token bucket
//!   ([`RateLimit`]) answers `429` with `Retry-After`; the serving
//!   layer's bounded queue ([`Server::try_submit`]) answers `503` with
//!   `Retry-After` when it sheds; an `X-Snappix-Deadline-Ms` header
//!   becomes the `Some(d)` of [`Server::try_submit_within`] (no header,
//!   `None`) so stale work expires in the queue and answers `504`. A saturated node never hangs a client.
//! * **Observability** — `GET /health` (liveness), `GET /stats` (the
//!   human-readable [`ServerStats`]/[`GatewayStats`] dump, conservation
//!   checked by [`ServerStats::debug_assert_conserved`]) and
//!   `GET /metrics`: both layers register into one shared
//!   [`snappix_metrics::Registry`] (the gateway joins
//!   [`Server::metrics`] at bind time), so the page is rendered
//!   generically from the registry — counters, gauges, and mergeable
//!   log-linear latency *histograms* covering every request since
//!   start. An `Accept: application/openmetrics-text` header selects
//!   the OpenMetrics rendering, with trace-id exemplars on latency
//!   buckets and the `# EOF` trailer; see `docs/METRICS.md` for the
//!   full reference, kept honest by a live-scrape diff test.
//! * **Tracing** — when the fronted server carries a
//!   [`Tracer`](snappix_trace::Tracer), every classify request is
//!   traced end to end (`accept`/`parse` → `queue_wait` → `batch` →
//!   `compute` → `respond`), an optional `X-Snappix-Trace` request
//!   header lets callers pick the trace id (echoed back either way),
//!   and `GET /debug/trace` serves the most recent traces as Chrome
//!   trace-event JSON — see `docs/TRACING.md`.
//!
//! The protocol subset is deliberately small: HTTP/1.1 keep-alive,
//! `Content-Length` framing only, bounded head/body sizes, no TLS, no
//! HTTP/2 — a front-end for trusted edges and load balancers, not the
//! open internet.
//!
//! # Quickstart
//!
//! ```no_run
//! use snappix_gateway::prelude::*;
//!
//! # fn main() -> Result<(), snappix::Error> {
//! let mask = patterns::long_exposure(8, (8, 8))?;
//! let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
//! let server = Server::builder(Pipeline::builder(model))
//!     .with_workers(2)
//!     .build()?;
//!
//! let gateway = Gateway::builder(server)
//!     .with_rate_limit(RateLimit::new(50.0, 10).map_err(snappix::Error::from)?)
//!     .bind()
//!     .map_err(snappix::Error::from)?;
//! println!("POST clips to http://{}/v1/classify", gateway.local_addr());
//! println!("scrape     http://{}/metrics", gateway.local_addr());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gateway;
mod handler;
mod http;
pub mod metrics;
mod ratelimit;
mod stats;

pub use error::GatewayError;
pub use gateway::{Gateway, GatewayBuilder};
pub use ratelimit::RateLimit;
pub use stats::{Endpoint, EndpointLatency, GatewayStats, RequestCount};

// Re-exported so gateway callers can name the serving types the docs
// reference without importing snappix-serve themselves.
pub use snappix_serve::{Server, ServerStats};

/// One-stop imports for gateway callers: everything from
/// [`snappix_serve::prelude`] (which includes [`snappix::prelude`])
/// plus the gateway layer's types.
pub mod prelude {
    pub use crate::{
        Endpoint, EndpointLatency, Gateway, GatewayBuilder, GatewayError, GatewayStats, RateLimit,
        RequestCount,
    };
    pub use snappix_serve::prelude::*;
}
