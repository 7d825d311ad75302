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

/// One inferred window's full record.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Window index `k` (window covers frames `[k * hop, k * hop + t)`).
    pub index: usize,
    /// First stream frame of the window, `k * hop`.
    pub start_frame: usize,
    /// The raw prediction — bit-for-bit what an offline
    /// `Pipeline::infer` over the same frames produces.
    pub prediction: Prediction,
    /// The temporally-smoothed label after folding this window in.
    pub smoothed: usize,
    /// End-to-end latency: last frame of the window arriving to the
    /// prediction being picked up (admission + batching + compute +
    /// the session's polling cadence).
    pub latency: Duration,
}

/// Why a window was not inferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The overload policy shed it (skipped at admission, or displaced
    /// as the oldest buffered window).
    Shed,
    /// Its deadline expired in the server queue.
    Expired,
}

/// Everything one finished stream reports.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The stream id the session was created with.
    pub id: usize,
    /// Counters and latency percentiles.
    pub stats: StreamStats,
    /// Per-window results in window order (inferred windows only).
    pub results: Vec<WindowResult>,
    /// Dropped windows as `(window index, reason)`, in drop order.
    pub dropped: Vec<(usize, DropReason)>,
    /// Confirmed label-change events, in emission order.
    pub events: Vec<Event>,
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

struct InFlightWindow {
    index: usize,
    ticket: Ticket,
    completed_at: Instant,
}

/// The per-stream state machine; see the module docs for the role it
/// plays. Create one per stream over a shared [`Server`], feed it frames
/// with [`push`](Self::push), then [`finish`](Self::finish) it for the
/// [`StreamReport`].
///
/// # Examples
///
/// ```no_run
/// use snappix_serve::prelude::*;
/// use snappix_stream::{SessionConfig, StreamSession};
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let server = Server::builder(Pipeline::builder(model)).build()?;
/// let mut session = StreamSession::new(0, &server, SessionConfig::new(8, 4))
///     .map_err(snappix::Error::from)?;
/// for _ in 0..32 {
///     session
///         .push(&Tensor::zeros(&[16, 16]))
///         .map_err(snappix::Error::from)?;
/// }
/// let report = session.finish().map_err(snappix::Error::from)?;
/// println!("{}", report.stats);
/// # Ok(())
/// # }
/// ```
pub struct StreamSession<'a> {
    id: usize,
    server: &'a Server,
    assembler: WindowAssembler,
    smoother: Smoother,
    detector: EventDetector,
    overload: OverloadPolicy,
    deadline: Option<Duration>,
    hop: usize,
    window_len: usize,
    pending: VecDeque<PendingWindow>,
    in_flight: VecDeque<InFlightWindow>,
    results: Vec<WindowResult>,
    dropped: Vec<(usize, DropReason)>,
    shed: u64,
    expired: u64,
    events: Vec<Event>,
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
        Ok(StreamSession {
            id,
            server,
            assembler: WindowAssembler::new(config.window, config.hop, [h, w])?,
            smoother: Smoother::new(config.smoothing),
            detector: EventDetector::new(config.hysteresis),
            overload: config.overload,
            deadline: config.deadline,
            hop: config.hop.max(1),
            window_len: config.window,
            pending: VecDeque::new(),
            in_flight: VecDeque::new(),
            results: Vec::new(),
            dropped: Vec::new(),
            shed: 0,
            expired: 0,
            events: Vec::new(),
            latency: Histogram::standalone(HistogramOpts::nanos()),
            telemetry: Telemetry::new(server.metrics()),
        })
    }

    /// The stream id events are tagged with.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The currently active (last confirmed) label, if any.
    pub fn active_label(&self) -> Option<usize> {
        self.detector.active()
    }

    /// Results completed so far (window order).
    pub fn results(&self) -> &[WindowResult] {
        &self.results
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// A point-in-time stats snapshot (latency percentiles over the
    /// results completed so far).
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            frames: self.assembler.frames_in() as u64,
            windows: self.assembler.windows_out() as u64,
            inferred: self.results.len() as u64,
            shed: self.shed,
            expired: self.expired,
            events: self.events.len() as u64,
            latency: LatencySummary::from_histogram(&self.latency.snapshot()),
        }
    }

    /// Absorbs one `[h, w]` frame: assembles windows, applies the
    /// overload policy to any completed window, and opportunistically
    /// collects finished results (so smoothing and events advance while
    /// the stream is still running).
    ///
    /// # Errors
    ///
    /// [`StreamError::Frame`] for a geometry mismatch,
    /// [`StreamError::Serve`] when the server fails in a way the
    /// overload policy does not cover (shutdown, batch inference
    /// failure, worker death).
    pub fn push(&mut self, frame: &snappix_tensor::Tensor) -> Result<(), StreamError> {
        let assembled = self.assembler.push(frame)?;
        self.telemetry.frames.inc();
        if let Some(window) = assembled {
            self.telemetry.windows.inc();
            let index = self.assembler.windows_out() - 1;
            self.admit(PendingWindow {
                index,
                window,
                completed_at: Instant::now(),
            })?;
        }
        self.poll()
    }

    /// Flushes the session: one last admission pass for buffered
    /// windows, then waits out every in-flight result, and reports.
    ///
    /// Windows still unadmitted after the final pass are counted as
    /// shed — `finish` never blocks on a saturated server for work the
    /// overload policy already declined to force through.
    ///
    /// # Errors
    ///
    /// Same as [`push`](Self::push).
    pub fn finish(mut self) -> Result<StreamReport, StreamError> {
        self.drain_pending()?;
        while let Some(p) = self.pending.pop_front() {
            self.drop_window(p.index, DropReason::Shed);
        }
        while let Some(f) = self.in_flight.pop_front() {
            let InFlightWindow {
                index,
                ticket,
                completed_at,
            } = f;
            match ticket.wait() {
                Ok(prediction) => self.complete(index, completed_at, prediction),
                Err(ServeError::DeadlineExpired { .. }) => {
                    self.drop_window(index, DropReason::Expired);
                }
                Err(e) => return Err(e.into()),
            }
        }
        let stats = self.stats();
        debug_assert_eq!(
            stats.inferred + stats.shed + stats.expired,
            stats.windows,
            "window accounting must be conserved"
        );
        Ok(StreamReport {
            id: self.id,
            stats,
            results: self.results,
            dropped: self.dropped,
            events: self.events,
            latency_histogram: self.latency.snapshot(),
        })
    }

    /// Logs one dropped window in the report *and* the registry.
    fn drop_window(&mut self, index: usize, reason: DropReason) {
        match reason {
            DropReason::Shed => {
                self.shed += 1;
                self.telemetry.shed.inc();
            }
            DropReason::Expired => {
                self.expired += 1;
                self.telemetry.expired.inc();
            }
        }
        self.dropped.push((index, reason));
    }

    /// Routes one completed window through the overload policy.
    fn admit(&mut self, pending: PendingWindow) -> Result<(), StreamError> {
        match self.overload {
            OverloadPolicy::Block => {
                let admitted = match self.deadline {
                    Some(d) => self.server.submit_within(&pending.window, d),
                    None => self.server.submit(&pending.window),
                };
                let ticket = admitted.map_err(StreamError::from)?;
                self.in_flight.push_back(InFlightWindow {
                    index: pending.index,
                    ticket,
                    completed_at: pending.completed_at,
                });
                Ok(())
            }
            OverloadPolicy::SkipWindow => {
                let admitted = match self.deadline {
                    Some(d) => self.server.try_submit_within(&pending.window, d),
                    None => self.server.try_submit(&pending.window),
                };
                match admitted {
                    Ok(ticket) => {
                        self.in_flight.push_back(InFlightWindow {
                            index: pending.index,
                            ticket,
                            completed_at: pending.completed_at,
                        });
                        Ok(())
                    }
                    Err(ServeError::Overloaded { .. }) => {
                        self.drop_window(pending.index, DropReason::Shed);
                        Ok(())
                    }
                    Err(e) => Err(e.into()),
                }
            }
            OverloadPolicy::DropOldest { pending: cap } => {
                self.pending.push_back(pending);
                self.drain_pending()?;
                while self.pending.len() > cap.max(1) {
                    let victim = self.pending.pop_front().expect("len checked");
                    self.drop_window(victim.index, DropReason::Shed);
                }
                Ok(())
            }
        }
    }

    /// Tries to move buffered windows into the server, oldest first, so
    /// submission order always equals window order.
    fn drain_pending(&mut self) -> Result<(), StreamError> {
        while let Some(front) = self.pending.front() {
            let admitted = match self.deadline {
                Some(d) => self.server.try_submit_within(&front.window, d),
                None => self.server.try_submit(&front.window),
            };
            match admitted {
                Ok(ticket) => {
                    let p = self.pending.pop_front().expect("front checked");
                    self.in_flight.push_back(InFlightWindow {
                        index: p.index,
                        ticket,
                        completed_at: p.completed_at,
                    });
                }
                Err(ServeError::Overloaded { .. }) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Collects every already-finished in-flight result without
    /// blocking, strictly in window order.
    fn poll(&mut self) -> Result<(), StreamError> {
        while let Some(front) = self.in_flight.front() {
            match front.ticket.try_wait() {
                Ok(None) => break,
                Ok(Some(prediction)) => {
                    let f = self.in_flight.pop_front().expect("front checked");
                    self.complete(f.index, f.completed_at, prediction);
                }
                Err(ServeError::DeadlineExpired { .. }) => {
                    let f = self.in_flight.pop_front().expect("front checked");
                    self.drop_window(f.index, DropReason::Expired);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Folds one prediction into smoothing, event detection, and the
    /// results log.
    fn complete(&mut self, index: usize, completed_at: Instant, prediction: Prediction) {
        let latency = completed_at.elapsed();
        let nanos = latency.as_nanos() as u64;
        self.telemetry.inferred.inc();
        self.telemetry.latency.record(nanos);
        self.latency.record(nanos);
        let smoothed = self.smoother.observe(&prediction);
        let at_frame = index * self.hop + self.window_len - 1;
        if let Some(event) = self.detector.observe(self.id, index, at_frame, smoothed) {
            self.events.push(event);
            self.telemetry.events.inc();
        }
        self.results.push(WindowResult {
            index,
            start_frame: index * self.hop,
            prediction,
            smoothed,
            latency,
        });
    }
}

impl std::fmt::Debug for StreamSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("id", &self.id)
            .field("window", &self.window_len)
            .field("hop", &self.hop)
            .field("frames_in", &self.assembler.frames_in())
            .field("in_flight", &self.in_flight.len())
            .field("pending", &self.pending.len())
            .field("results", &self.results.len())
            .finish()
    }
}
