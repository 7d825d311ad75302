//! `snappix-stream`: real-time multi-stream video inference over the
//! SnapPix serving layer.
//!
//! The serving layer (`snappix-serve`) answers *requests*: a client
//! shows up with a finished `[t, h, w]` clip and waits for its
//! prediction. A deployed coded-exposure sensor does not see clips — it
//! sees an endless sequence of frames per camera, and the node must
//! window them, classify the windows, smooth the labels over time, and
//! raise an event when the observed action actually changes. This crate
//! is that last layer:
//!
//! * **Frame sources** — [`FrameSource`] pulls grayscale `[h, w]` frames
//!   one at a time; [`ReplaySource`] replays a rendered
//!   [`Video`](snappix_video::Video) and [`SyntheticSource`] streams
//!   procedurally-rendered scenes whose action class changes per
//!   segment (ground truth for event detection).
//! * **Window assembly** — [`WindowAssembler`] turns the frame stream
//!   into sliding `[t, h, w]` windows (configurable hop) using a fixed
//!   `t`-frame ring buffer, producing *exactly* the tensors
//!   [`Video::windows`](snappix_video::Video::windows) yields offline.
//! * **Sessions** — a [`StreamSession`] submits windows through a shared
//!   [`Server`](snappix_serve::Server), processes results strictly in
//!   window order, smooths labels ([`Smoothing`]: EMA over logits or
//!   majority vote), and emits hysteresis-debounced label-change
//!   [`Event`]s. When the server sheds load, the per-stream
//!   [`OverloadPolicy`] decides: block (never lose a window), skip the
//!   window (stay current), or buffer-and-drop-oldest (absorb bursts).
//!   Each window ends as one [`WindowResult`] handed to the caller's
//!   sink; a session keeps only the windows still in its hands, so an
//!   endless stream runs in flat memory.
//! * **The runner** — [`StreamRunner`] drives N sessions concurrently
//!   (real-time pacing or max throughput) against one server, whose
//!   dynamic batcher coalesces windows *across streams* into shared
//!   forward passes; [`StreamStats`] reports frames, windows
//!   inferred/dropped, events, and end-to-end latency percentiles per
//!   stream and aggregate.
//!
//! Streaming changes the schedule, never the numbers: with a
//! deterministic backend, every window's raw prediction is bit-for-bit
//! identical to an offline `Pipeline::infer` loop over
//! `Video::windows(t, hop)` of the same frames, at every
//! `SNAPPIX_THREADS` setting (pinned by `tests/streaming.rs`).
//!
//! # Quickstart
//!
//! ```no_run
//! use snappix_stream::prelude::*;
//!
//! # fn main() -> Result<(), snappix::Error> {
//! let mask = patterns::long_exposure(8, (8, 8))?;
//! let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
//! let server = Server::builder(Pipeline::builder(model))
//!     .with_workers(2)
//!     .build()?;
//!
//! // Four live streams at 30 fps; skip windows rather than fall behind.
//! let mut runner = StreamRunner::new(&server)
//!     .with_pacing(Pacing::fps(30.0).map_err(snappix::Error::from)?);
//! for i in 0..4 {
//!     runner.add_stream(
//!         SyntheticSource::new(ssv2_like(32, 16, 16), 3),
//!         SessionConfig::new(8, 4)
//!             .with_smoothing(Smoothing::Majority { k: 3 })
//!             .with_overload(OverloadPolicy::SkipWindow),
//!     );
//! }
//! let report = runner
//!     .run(|_stream, record| {
//!         if let WindowOutcome::Inferred { event: Some(event), .. } = record.outcome {
//!             println!("{event}");
//!         }
//!     })
//!     .map_err(snappix::Error::from)?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod event;
mod runner;
mod session;
mod smooth;
mod source;
mod stats;
mod window;

pub use error::StreamError;
pub use event::{Event, EventDetector};
pub use runner::{Pacing, RunReport, StreamRunner};
pub use session::{
    OverloadPolicy, SessionConfig, StreamReport, StreamSession, WindowOutcome, WindowResult,
};
pub use smooth::{Smoother, Smoothing};
pub use stats::StreamStats;
pub use window::WindowAssembler;

/// One-stop imports for streaming callers: everything from
/// [`snappix_serve::prelude`] (which includes [`snappix::prelude`]) plus
/// the streaming layer's types.
pub mod prelude {
    pub use crate::FrameSource;
    pub use crate::{
        Event, EventDetector, OverloadPolicy, Pacing, ReplaySource, RunReport, SessionConfig,
        Smoother, Smoothing, StreamError, StreamReport, StreamRunner, StreamSession, StreamStats,
        SyntheticSource, WindowAssembler, WindowOutcome, WindowResult,
    };
    pub use snappix_serve::prelude::*;
}

pub use source::{FrameSource, ReplaySource, SyntheticSource};
