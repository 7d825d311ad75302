//! Driving many streams concurrently against one shared server.

use crate::{
    FrameSource, SessionConfig, StreamError, StreamReport, StreamSession, StreamStats, WindowResult,
};
use snappix_serve::Server;
use std::fmt;
use std::time::{Duration, Instant};

/// How fast the runner feeds frames into each stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Feed frames as fast as sources produce them — the throughput
    /// mode benchmarks and offline replays use.
    MaxThroughput,
    /// Feed one frame per interval per stream, like a live camera. A
    /// stream that falls behind (e.g. blocked on backpressure) does not
    /// try to catch up by bursting — late is late.
    RealTime(Duration),
}

impl Pacing {
    /// Real-time pacing at `fps` frames per second.
    ///
    /// # Errors
    ///
    /// [`StreamError::Config`] unless `fps` is finite and positive —
    /// a NaN, infinite, zero, or negative rate has no meaningful frame
    /// interval. (Earlier versions silently clamped these, which turned
    /// a config typo into a 1000-second frame interval.)
    pub fn fps(fps: f64) -> Result<Self, StreamError> {
        if !fps.is_finite() || fps <= 0.0 {
            return Err(StreamError::Config {
                context: format!("pacing fps must be finite and positive, got {fps}"),
            });
        }
        Ok(Pacing::RealTime(Duration::from_secs_f64(1.0 / fps)))
    }
}

/// Everything a finished multi-stream run reports: one
/// [`StreamReport`] per stream plus the aggregate view.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-stream reports, indexed by stream id.
    pub streams: Vec<StreamReport>,
    /// Counters summed across streams; latency percentiles from the
    /// merged per-stream latency histograms.
    pub aggregate: StreamStats,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl RunReport {
    /// Aggregate inferred windows per wall-clock second — the headline
    /// throughput number of a streaming deployment.
    pub fn windows_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.aggregate.inferred as f64 / secs
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for report in &self.streams {
            writeln!(f, "stream {}: {}", report.id, report.stats)?;
        }
        write!(
            f,
            "aggregate ({} streams, {:.2?}): {} — {:.1} windows/s",
            self.streams.len(),
            self.wall,
            self.aggregate,
            self.windows_per_sec(),
        )
    }
}

/// Runs N frame streams concurrently against one shared [`Server`] —
/// one thread per stream, each owning a [`StreamSession`], all feeding
/// the same dynamic batcher (which is what lets concurrent streams'
/// windows share forward passes).
///
/// # Examples
///
/// ```no_run
/// use snappix_serve::prelude::*;
/// use snappix_stream::prelude::*;
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let server = Server::builder(Pipeline::builder(model)).build()?;
///
/// let mut runner = StreamRunner::new(&server).with_pacing(Pacing::fps(30.0)?);
/// for i in 0..4 {
///     let video = Dataset::new(ssv2_like(32, 16, 16), 8).sample(i).video;
///     runner.add_stream(ReplaySource::new(video), SessionConfig::new(8, 4));
/// }
/// let report = runner.run(|_, _| {}).map_err(snappix::Error::from)?;
/// println!("{report}");
/// # Ok(())
/// # }
/// ```
pub struct StreamRunner<'a> {
    server: &'a Server,
    pacing: Pacing,
    streams: Vec<(Box<dyn FrameSource + Send + 'a>, SessionConfig)>,
}

impl<'a> StreamRunner<'a> {
    /// A runner over `server` with [`Pacing::MaxThroughput`] and no
    /// streams yet.
    pub fn new(server: &'a Server) -> Self {
        StreamRunner {
            server,
            pacing: Pacing::MaxThroughput,
            streams: Vec::new(),
        }
    }

    /// Sets the pacing applied to every stream.
    #[must_use]
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Adds a stream, returning its id (ids are dense, in add order, and
    /// index [`RunReport::streams`]).
    pub fn add_stream(
        &mut self,
        source: impl FrameSource + Send + 'a,
        config: SessionConfig,
    ) -> usize {
        self.streams.push((Box::new(source), config));
        self.streams.len() - 1
    }

    /// Number of streams added so far.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// Drains every source through its session concurrently and collects
    /// the reports. Returns once all streams have finished (sources
    /// exhausted, in-flight work resolved).
    ///
    /// Each session hands `sink` one `(stream id, record)` per assembled
    /// window, on that stream's thread, in the order described on
    /// [`WindowResult`]; the run itself keeps no per-window records.
    ///
    /// # Errors
    ///
    /// The first [`StreamError`] any stream hit; the remaining streams
    /// still run to completion first (bounded by their sources).
    pub fn run(self, sink: impl Fn(usize, WindowResult) + Sync) -> Result<RunReport, StreamError> {
        let started = Instant::now();
        let server = self.server;
        let pacing = self.pacing;
        let sink = &sink;
        let outcomes: Vec<Result<StreamReport, StreamError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .into_iter()
                .enumerate()
                .map(|(id, (mut source, config))| {
                    scope.spawn(move || -> Result<StreamReport, StreamError> {
                        let mut session = StreamSession::new(id, server, config)?;
                        let mut sink = |record| sink(id, record);
                        let interval = match pacing {
                            Pacing::MaxThroughput => None,
                            Pacing::RealTime(interval) => Some(interval),
                        };
                        let t0 = Instant::now();
                        let mut n: u32 = 0;
                        while let Some(frame) = source.next_frame()? {
                            if let Some(interval) = interval {
                                let due = t0 + interval * n;
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                            }
                            n = n.saturating_add(1);
                            session.push(&frame, &mut sink)?;
                        }
                        session.finish(&mut sink)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream thread panicked"))
                .collect()
        });
        let mut streams = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            streams.push(outcome?);
        }
        let aggregate = StreamStats::aggregate(&streams);
        Ok(RunReport {
            streams,
            aggregate,
            wall: started.elapsed(),
        })
    }
}

impl fmt::Debug for StreamRunner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamRunner")
            .field("streams", &self.streams.len())
            .field("pacing", &self.pacing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_constructors() {
        assert_eq!(
            Pacing::fps(50.0).unwrap(),
            Pacing::RealTime(Duration::from_millis(20))
        );
        // Nonsense rates are rejected at construction, not clamped into
        // a silently-absurd interval.
        for bad in [0.0, -30.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Pacing::fps(bad).expect_err("bad fps must be rejected");
            assert!(matches!(err, StreamError::Config { .. }), "{err}");
        }
    }

    #[test]
    fn empty_run_report_is_sane() {
        let report = RunReport {
            streams: Vec::new(),
            aggregate: StreamStats::default(),
            wall: Duration::ZERO,
        };
        assert_eq!(report.windows_per_sec(), 0.0);
        assert!(report.to_string().contains("0 streams"));
    }
}
