//! `snappix-trace`: cross-layer request tracing for the SnapPix stack.
//!
//! The serving stack spans five runtime layers (gateway → serve →
//! pipeline → stream → fleet), and before this crate its observability
//! was counters-only: Prometheus families answer "how many" and "how
//! slow on average", but not *where one request's 40 ms went* — queue
//! wait, batch assembly, sense, or model forward. This crate answers
//! that question with a low-overhead span recorder every layer shares:
//!
//! * **[`Tracer`]** — a cheap clonable handle. A *disabled* tracer
//!   ([`Tracer::disabled`]) is a `None` inside; every call on it is a
//!   branch on an `Option` and returns inert guards, so the hot path
//!   pays one branch per call when tracing is off (perfbench's
//!   `trace.overhead_share` measures what an enabled tracer costs).
//! * **[`SpanGuard`]** — RAII: [`Tracer::span`] opens a span and the
//!   guard's `Drop` closes it, recording
//!   `(trace_id, span_id, parent, name, t_start, t_end, lane)` into a
//!   per-thread bounded ring buffer. Spans auto-parent: a guard opened
//!   while another is live on the same thread becomes its child, which
//!   is how pipeline stage spans nest under the serving layer's batch
//!   span without any signature changes between the crates.
//! * **[`DetachedSpan`]** — a `Send` span for intervals that start on
//!   one thread and end on another (a request's queue wait starts on
//!   the client thread and ends when a worker claims the batch).
//! * **[`TraceSnapshot`]** — [`Tracer::snapshot`] merges every
//!   thread's ring into one deterministically ordered record list,
//!   exportable as Chrome trace-event JSON
//!   ([`TraceSnapshot::to_chrome_json`]) that loads directly into
//!   Perfetto or `chrome://tracing`.
//!
//! Time comes from a monotonic clock by default, but tests (and the
//! virtual-time fleet simulator) inject their own microsecond clock via
//! [`TracerBuilder::with_clock`], so traces are deterministic where
//! they need to be.
//!
//! See `docs/TRACING.md` for the span taxonomy the stack emits and how
//! to read a trace in Perfetto.

#![warn(missing_docs)]

mod chrome;
mod record;
mod snapshot;
mod tracer;

pub use record::{ArgValue, SpanRecord};
pub use snapshot::{LaneInfo, TraceSnapshot};
pub use tracer::{DetachedSpan, SpanCtx, SpanGuard, Tracer, TracerBuilder};

/// Convenience re-exports for `use snappix_trace::prelude::*`.
pub mod prelude {
    pub use crate::{ArgValue, SpanCtx, SpanRecord, TraceSnapshot, Tracer};
}
