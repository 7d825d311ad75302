//! One stream's session: frames in, smoothed per-window results and
//! label-change events out.
//!
//! A [`StreamSession`] owns the per-stream state machine between a frame
//! source and a shared [`Server`]: the sliding-window assembler, the
//! overload policy that decides what happens when the server cannot keep
//! up, a FIFO of in-flight tickets (so results are processed strictly in
//! window order no matter how the server batches them), the temporal
//! smoother, and the event detector. Sessions are single-threaded by
//! design — the [`StreamRunner`](crate::StreamRunner) drives one per
//! stream thread — and many sessions share one server, which is where
//! cross-stream dynamic batching happens.

use crate::smooth::Smoother;
use crate::{Event, EventDetector, Smoothing, StreamError, StreamStats, WindowAssembler};
use snappix::Prediction;
use snappix_metrics::{Counter, Histogram, HistogramOpts, HistogramSnapshot, Registry};
use snappix_serve::{LatencySummary, ServeError, Server, Ticket};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What a session does with a freshly-assembled window when the server's
/// admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block until the queue has room (`Server::submit`): no window is
    /// ever lost, but the stream falls behind real time under sustained
    /// overload. The right policy for offline replay and for the
    /// bit-for-bit equivalence guarantee.
    Block,
    /// Try to submit (`Server::try_submit`) and *skip* the window when
    /// shed: the stream stays current by serving fewer windows. The
    /// freshest-data policy for live feeds where an old answer is worse
    /// than no answer.
    SkipWindow,
    /// Hold up to `pending` unadmitted windows in a session-side buffer,
    /// displacing the *oldest* buffered window when a new one arrives
    /// while the buffer is full. Smooths bursts without falling behind
    /// by more than `pending` windows. `pending` is clamped to at
    /// least 1.
    DropOldest {
        /// Maximum unadmitted windows buffered per stream.
        pending: usize,
    },
}

/// Per-stream configuration, built `with_*`-style like the rest of the
/// workspace.
///
/// # Examples
///
/// ```
/// use snappix_stream::{OverloadPolicy, SessionConfig, Smoothing};
///
/// let config = SessionConfig::new(8, 2)
///     .with_smoothing(Smoothing::Majority { k: 3 })
///     .with_hysteresis(2)
///     .with_overload(OverloadPolicy::SkipWindow);
/// assert_eq!(config.window, 8);
/// assert_eq!(config.hop, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Window length `t` in frames — must equal the served model's slot
    /// count (`Server::expected_clip()[0]`).
    pub window: usize,
    /// Frames between consecutive window starts (clamped to ≥ 1).
    pub hop: usize,
    /// Temporal smoothing of the per-window labels.
    pub smoothing: Smoothing,
    /// Consecutive windows a new smoothed label must persist before a
    /// label-change [`Event`] fires (clamped to ≥ 1).
    pub hysteresis: usize,
    /// What to do when the server sheds load.
    pub overload: OverloadPolicy,
    /// Optional per-window deadline, measured from submission: windows
    /// still queued this long after admission expire server-side and are
    /// counted in [`StreamStats::expired`].
    pub deadline: Option<Duration>,
}

impl SessionConfig {
    /// A config with the given window length and hop; smoothing defaults
    /// to [`Smoothing::default`], hysteresis to 2, overload to
    /// [`OverloadPolicy::Block`], no deadline.
    pub fn new(window: usize, hop: usize) -> Self {
        SessionConfig {
            window,
            hop: hop.max(1),
            smoothing: Smoothing::default(),
            hysteresis: 2,
            overload: OverloadPolicy::Block,
            deadline: None,
        }
    }

    /// Sets the temporal smoothing mode.
    #[must_use]
    pub fn with_smoothing(mut self, smoothing: Smoothing) -> Self {
        self.smoothing = smoothing;
        self
    }

    /// Sets the event hysteresis in windows (clamped to ≥ 1).
    #[must_use]
    pub fn with_hysteresis(mut self, hysteresis: usize) -> Self {
        self.hysteresis = hysteresis.max(1);
        self
    }

    /// Sets the overload policy.
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Sets a per-window deadline (measured from submission).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How one assembled window ended.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowOutcome {
    /// The window came back with a prediction.
    Inferred {
        /// The raw prediction — bit-for-bit what an offline
        /// `Pipeline::infer` over the same frames produces.
        prediction: Prediction,
        /// The temporally-smoothed label after folding this window in.
        smoothed: usize,
        /// End-to-end latency: last frame of the window arriving to the
        /// prediction being picked up (admission + batching + compute +
        /// the session's polling cadence).
        latency: Duration,
        /// The label-change event this window confirmed, if any.
        event: Option<Event>,
    },
    /// The overload policy shed it (skipped at admission, or displaced
    /// as the oldest buffered window).
    Shed,
    /// Its deadline expired in the server queue.
    Expired,
    /// The server refused the window at admission as a bad clip (a NaN
    /// or infinite pixel); the session goes on with the next window.
    Refused {
        /// The server's description of what was wrong with the clip.
        reason: String,
    },
}

/// The one record a session hands its sink per assembled window.
/// Inferred and expired windows arrive in window order; a shed or
/// refused window arrives when it is dropped, possibly before an older
/// window's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Window index `k` (window covers frames `[k * hop, k * hop + t)`).
    pub index: usize,
    /// First stream frame of the window, `k * hop`.
    pub start_frame: usize,
    /// What became of the window.
    pub outcome: WindowOutcome,
}

/// Everything one finished stream reports (per-window records went to the sink).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The stream id the session was created with.
    pub id: usize,
    /// Counters and latency percentiles.
    pub stats: StreamStats,
    /// The stream's end-to-end window latencies in nanoseconds — the
    /// histogram `stats.latency` is derived from, kept so runs over
    /// many streams merge it loss-free.
    pub latency_histogram: HistogramSnapshot,
}

/// Handles into the server's [`Registry`] for the `snappix_stream_*`
/// families. Every session streaming into the same server re-registers
/// the same (name, label-set) families — registration is idempotent —
/// so the scraped counters aggregate across streams, exactly like
/// [`StreamRunner::stats`](crate::StreamRunner::stats) sums per-stream
/// reports. A server built with `Registry::disabled()` hands out no-op
/// handles and every record below vanishes.
struct Telemetry {
    frames: Counter,
    windows: Counter,
    inferred: Counter,
    shed: Counter,
    expired: Counter,
    refused: Counter,
    events: Counter,
    latency: Histogram,
}

impl Telemetry {
    fn new(registry: &Registry) -> Self {
        Telemetry {
            frames: registry.counter(
                "snappix_stream_frames_total",
                "Frames ingested across all stream sessions.",
            ),
            windows: registry.counter(
                "snappix_stream_windows_total",
                "Clip windows assembled from ingested frames.",
            ),
            inferred: registry.counter(
                "snappix_stream_inferred_total",
                "Windows that came back with a prediction.",
            ),
            shed: registry.counter(
                "snappix_stream_shed_total",
                "Windows dropped by the overload policy.",
            ),
            expired: registry.counter(
                "snappix_stream_expired_total",
                "Windows whose deadline expired in the serving queue.",
            ),
            refused: registry.counter(
                "snappix_stream_refused_total",
                "Windows the server refused at admission as a bad clip.",
            ),
            events: registry.counter(
                "snappix_stream_events_total",
                "Confirmed label-change events emitted.",
            ),
            latency: registry.histogram(
                "snappix_stream_window_latency_seconds",
                "End-to-end window latency: last frame of the window arriving \
                 to its prediction being picked up.",
                HistogramOpts::nanos(),
            ),
        }
    }
}

struct PendingWindow {
    index: usize,
    window: snappix_tensor::Tensor,
    completed_at: Instant,
}

impl PendingWindow {
    fn admitted(self, ticket: Ticket) -> InFlightWindow {
        InFlightWindow {
            index: self.index,
            ticket,
            completed_at: self.completed_at,
        }
    }
}

struct InFlightWindow {
    index: usize,
    ticket: Ticket,
    completed_at: Instant,
}

/// The per-stream state machine; see the module docs for the role it
/// plays. Create one per stream over a shared [`Server`], feed it frames
/// with [`push`](Self::push), then [`finish`](Self::finish) it for the
/// [`StreamReport`]. Both calls hand each window's [`WindowResult`] to
/// the caller's sink once its outcome is known; the session keeps only
/// the windows still in its hands, so its memory stays flat.
///
/// # Examples
///
/// ```no_run
/// use snappix_serve::prelude::*;
/// use snappix_stream::{SessionConfig, StreamSession, WindowOutcome, WindowResult};
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let server = Server::builder(Pipeline::builder(model)).build()?;
/// let mut session = StreamSession::new(0, &server, SessionConfig::new(8, 4))
///     .map_err(snappix::Error::from)?;
/// let mut labels = Vec::new();
/// let mut sink = |record: WindowResult| {
///     if let WindowOutcome::Inferred { smoothed, .. } = record.outcome {
///         labels.push(smoothed);
///     }
/// };
/// for _ in 0..32 {
///     session
///         .push(&Tensor::zeros(&[16, 16]), &mut sink)
///         .map_err(snappix::Error::from)?;
/// }
/// let report = session.finish(&mut sink).map_err(snappix::Error::from)?;
/// println!("{}: smoothed labels {labels:?}", report.stats);
/// # Ok(())
/// # }
/// ```
pub struct StreamSession<'a> {
    id: usize,
    server: &'a Server,
    assembler: WindowAssembler,
    smoother: Smoother,
    detector: EventDetector,
    /// Unadmitted windows the session may hold. `None` blocks on a full
    /// queue ([`OverloadPolicy::Block`]); `Some(cap)` tries the queue and
    /// sheds the oldest windows beyond `cap` — 0 for `SkipWindow`,
    /// `pending.max(1)` for `DropOldest`.
    buffer: Option<usize>,
    deadline: Option<Duration>,
    pending: VecDeque<PendingWindow>,
    in_flight: VecDeque<InFlightWindow>,
    inferred: u64,
    shed: u64,
    expired: u64,
    refused: u64,
    events: u64,
    /// This stream's window latencies, next to the registry's shared
    /// cell (which aggregates every stream on the server).
    latency: Histogram,
    telemetry: Telemetry,
}

impl<'a> StreamSession<'a> {
    /// Creates a session streaming into `server`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Config`] when `config.window` differs from
    /// the served model's slot count — a mismatched window would be
    /// rejected at every submission anyway, so it is rejected once,
    /// here.
    pub fn new(id: usize, server: &'a Server, config: SessionConfig) -> Result<Self, StreamError> {
        let [t, h, w] = server.expected_clip();
        if config.window != t {
            return Err(StreamError::Config {
                context: format!(
                    "window length {} does not match the served model's {t} exposure slots",
                    config.window
                ),
            });
        }
        let buffer = match config.overload {
            OverloadPolicy::Block => None,
            OverloadPolicy::SkipWindow => Some(0),
            OverloadPolicy::DropOldest { pending } => Some(pending.max(1)),
        };
        Ok(StreamSession {
            id,
            server,
            assembler: WindowAssembler::new(config.window, config.hop, [h, w])?,
            smoother: Smoother::new(config.smoothing),
            detector: EventDetector::new(config.hysteresis),
            buffer,
            deadline: config.deadline,
            pending: VecDeque::new(),
            in_flight: VecDeque::new(),
            inferred: 0,
            shed: 0,
            expired: 0,
            refused: 0,
            events: 0,
            latency: Histogram::standalone(HistogramOpts::nanos()),
            telemetry: Telemetry::new(server.metrics()),
        })
    }

    /// A point-in-time stats snapshot (latency percentiles over the
    /// windows inferred so far).
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            frames: self.assembler.frames_in() as u64,
            windows: self.assembler.windows_out() as u64,
            inferred: self.inferred,
            shed: self.shed,
            expired: self.expired,
            refused: self.refused,
            events: self.events,
            latency: LatencySummary::from_histogram(&self.latency.snapshot()),
        }
    }

    /// Absorbs one `[h, w]` frame: assembles windows, applies the
    /// overload policy to any completed window, and opportunistically
    /// collects finished results (so smoothing and events advance while
    /// the stream is still running). Every window whose outcome became
    /// known goes to `sink`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Frame`] for a geometry mismatch,
    /// [`StreamError::Serve`] when the server fails in a way the
    /// overload policy does not cover (shutdown, batch inference
    /// failure, worker death).
    pub fn push(
        &mut self,
        frame: &snappix_tensor::Tensor,
        sink: &mut impl FnMut(WindowResult),
    ) -> Result<(), StreamError> {
        let assembled = self.assembler.push(frame)?;
        self.telemetry.frames.inc();
        if let Some(window) = assembled {
            self.telemetry.windows.inc();
            let index = self.assembler.windows_out() - 1;
            self.admit(
                PendingWindow {
                    index,
                    window,
                    completed_at: Instant::now(),
                },
                sink,
            )?;
        }
        self.poll(sink)
    }

    /// Flushes the session: one last admission pass for buffered
    /// windows, then waits out every in-flight result, hands the
    /// remaining records to `sink`, and reports.
    ///
    /// Windows still unadmitted after the final pass are counted as
    /// shed — `finish` never blocks on a saturated server for work the
    /// overload policy already declined to force through.
    ///
    /// # Errors
    ///
    /// Same as [`push`](Self::push).
    pub fn finish(
        mut self,
        sink: &mut impl FnMut(WindowResult),
    ) -> Result<StreamReport, StreamError> {
        self.drain_pending(sink)?;
        while let Some(p) = self.pending.pop_front() {
            self.emit(p.index, WindowOutcome::Shed, sink);
        }
        while let Some(f) = self.in_flight.pop_front() {
            self.settle(f.index, f.completed_at, f.ticket.wait(), sink)?;
        }
        let stats = self.stats();
        debug_assert_eq!(
            stats.inferred + stats.shed + stats.expired + stats.refused,
            stats.windows,
            "window accounting must be conserved"
        );
        Ok(StreamReport {
            id: self.id,
            stats,
            latency_histogram: self.latency.snapshot(),
        })
    }

    /// Routes one completed window through the overload policy: block
    /// for queue room, or buffer it and shed the oldest windows beyond
    /// the buffer's cap. A window the server refuses as a bad clip is
    /// accounted as refused under every policy.
    fn admit(
        &mut self,
        window: PendingWindow,
        sink: &mut impl FnMut(WindowResult),
    ) -> Result<(), StreamError> {
        let Some(cap) = self.buffer else {
            match self.server.submit_within(&window.window, self.deadline) {
                Ok(ticket) => self.in_flight.push_back(window.admitted(ticket)),
                Err(ServeError::BadClip { context }) => {
                    self.emit(
                        window.index,
                        WindowOutcome::Refused { reason: context },
                        sink,
                    );
                }
                Err(e) => return Err(e.into()),
            }
            return Ok(());
        };
        self.pending.push_back(window);
        self.drain_pending(sink)?;
        while self.pending.len() > cap {
            let victim = self.pending.pop_front().expect("len checked");
            self.emit(victim.index, WindowOutcome::Shed, sink);
        }
        Ok(())
    }

    /// Tries to move buffered windows into the server, oldest first, so
    /// submission order always equals window order. A refused window
    /// leaves the buffer, so it cannot block the windows behind it.
    fn drain_pending(&mut self, sink: &mut impl FnMut(WindowResult)) -> Result<(), StreamError> {
        while let Some(front) = self.pending.front() {
            match self.server.try_submit_within(&front.window, self.deadline) {
                Ok(ticket) => {
                    let p = self.pending.pop_front().expect("front checked");
                    self.in_flight.push_back(p.admitted(ticket));
                }
                Err(ServeError::Overloaded { .. }) => break,
                Err(ServeError::BadClip { context }) => {
                    let p = self.pending.pop_front().expect("front checked");
                    self.emit(p.index, WindowOutcome::Refused { reason: context }, sink);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Collects every already-finished in-flight result without
    /// blocking, strictly in window order.
    fn poll(&mut self, sink: &mut impl FnMut(WindowResult)) -> Result<(), StreamError> {
        while let Some(front) = self.in_flight.front() {
            let Some(answer) = front.ticket.try_wait().transpose() else {
                break;
            };
            let f = self.in_flight.pop_front().expect("front checked");
            self.settle(f.index, f.completed_at, answer, sink)?;
        }
        Ok(())
    }

    /// Turns one ticket's answer into the window's outcome: a prediction
    /// is folded into smoothing and event detection, an expired deadline
    /// is recorded, and any other serving failure is the caller's.
    fn settle(
        &mut self,
        index: usize,
        completed_at: Instant,
        answer: Result<Prediction, ServeError>,
        sink: &mut impl FnMut(WindowResult),
    ) -> Result<(), StreamError> {
        let outcome = match answer {
            Ok(prediction) => {
                let latency = completed_at.elapsed();
                let smoothed = self.smoother.observe(&prediction);
                let at_frame = index * self.assembler.hop() + self.assembler.window() - 1;
                let event = self.detector.observe(self.id, index, at_frame, smoothed);
                WindowOutcome::Inferred {
                    prediction,
                    smoothed,
                    latency,
                    event,
                }
            }
            Err(ServeError::DeadlineExpired { .. }) => WindowOutcome::Expired,
            Err(e) => return Err(e.into()),
        };
        self.emit(index, outcome, sink);
        Ok(())
    }

    /// Counts one window's outcome in the stats *and* the registry, then
    /// hands its record to the sink.
    fn emit(&mut self, index: usize, outcome: WindowOutcome, sink: &mut impl FnMut(WindowResult)) {
        match &outcome {
            WindowOutcome::Inferred { latency, event, .. } => {
                let nanos = latency.as_nanos() as u64;
                self.inferred += 1;
                self.telemetry.inferred.inc();
                self.telemetry.latency.record(nanos);
                self.latency.record(nanos);
                if event.is_some() {
                    self.events += 1;
                    self.telemetry.events.inc();
                }
            }
            WindowOutcome::Shed => {
                self.shed += 1;
                self.telemetry.shed.inc();
            }
            WindowOutcome::Expired => {
                self.expired += 1;
                self.telemetry.expired.inc();
            }
            WindowOutcome::Refused { .. } => {
                self.refused += 1;
                self.telemetry.refused.inc();
            }
        }
        sink(WindowResult {
            index,
            start_frame: index * self.assembler.hop(),
            outcome,
        });
    }
}

impl std::fmt::Debug for StreamSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("id", &self.id)
            .field("window", &self.assembler.window())
            .field("hop", &self.assembler.hop())
            .field("frames_in", &self.assembler.frames_in())
            .field("in_flight", &self.in_flight.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameSource, ReplaySource};
    use snappix_serve::prelude::*;

    /// An endless camera must not grow its session: under `Block`, the
    /// windows a session holds (buffered plus in flight) stay within
    /// what the server itself can hold — its queue plus one batch per
    /// worker — however long the stream runs, and every window still
    /// reaches the sink exactly once.
    #[test]
    fn session_state_stays_bounded_on_a_long_stream() {
        const T: usize = 4;
        const HW: usize = 16;
        let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
        let model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, 5), mask).expect("valid model");
        let server = Server::builder(Pipeline::builder(model))
            .with_workers(1)
            .with_queue_depth(4)
            .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(1)))
            .build()
            .expect("server assembly");
        let bound = server.queue_capacity() + server.workers() * server.policy().max_batch;

        // 51 passes over 40 frames at hop 1: 2037 windows.
        let video = Dataset::new(ssv2_like(40, HW, HW), 1).sample(0).video;
        let mut source = ReplaySource::looped(video, 51);
        let mut session =
            StreamSession::new(0, &server, SessionConfig::new(T, 1)).expect("session");

        let mut records = 0_u64;
        let mut last_inferred: Option<usize> = None;
        let mut ascending = true;
        let mut sink = |record: WindowResult| {
            records += 1;
            if let WindowOutcome::Inferred { .. } = record.outcome {
                ascending &= last_inferred.is_none_or(|last| record.index > last);
                last_inferred = Some(record.index);
            }
        };
        let mut live_max = 0;
        while let Some(frame) = source.next_frame().expect("frame") {
            session.push(&frame, &mut sink).expect("push");
            live_max = live_max.max(session.in_flight.len() + session.pending.len());
        }
        let report = session.finish(&mut sink).expect("finish");

        assert!(report.stats.windows >= 2000, "{}", report.stats);
        assert!(
            live_max <= bound,
            "session held {live_max} windows, above the server's {bound}"
        );
        assert_eq!(records, report.stats.windows, "one record per window");
        assert_eq!(
            report.stats.inferred, report.stats.windows,
            "Block drops nothing"
        );
        assert!(ascending, "inferred windows reach the sink in window order");
    }
}
