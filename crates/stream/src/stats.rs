//! Streaming telemetry: per-stream (and aggregate) counters plus
//! end-to-end latency percentiles.

use crate::StreamReport;
use snappix_metrics::HistogramSnapshot;
use snappix_serve::LatencySummary;
use std::fmt;

/// Counters and latency percentiles for one stream — or, via
/// [`StreamStats::aggregate`], for a whole multi-stream run.
///
/// Accounting is conserved per stream: every assembled window ends up in
/// exactly one of `inferred`, `shed`, `expired`, or `refused`.
///
/// End-to-end latency is measured per inferred window from the instant
/// its last frame arrived (the window *could* first exist) to the
/// instant its prediction was received back from the server — it spans
/// admission queueing, batching delay, and compute. It is derived from
/// a log-linear histogram of every sample: count, total and max are
/// exact, and each percentile is within the histogram's relative error
/// bound of 2⁻⁶ (~1.6%) of the true order statistic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamStats {
    /// Frames ingested from the source.
    pub frames: u64,
    /// Full windows assembled out of those frames.
    pub windows: u64,
    /// Windows that came back with a prediction.
    pub inferred: u64,
    /// Windows dropped by the overload policy (skipped at admission or
    /// displaced as the oldest pending window).
    pub shed: u64,
    /// Windows whose per-window deadline expired in the server queue.
    pub expired: u64,
    /// Windows the server refused at admission as a bad clip (a NaN or
    /// infinite pixel).
    pub refused: u64,
    /// Label-change events emitted.
    pub events: u64,
    /// End-to-end (window-complete to prediction-received) latency.
    pub latency: LatencySummary,
}

impl StreamStats {
    /// Fraction of assembled windows that were inferred (1.0 for an
    /// unloaded stream; less under shedding). Zero windows → 1.0.
    pub fn service_ratio(&self) -> f64 {
        if self.windows == 0 {
            return 1.0;
        }
        self.inferred as f64 / self.windows as f64
    }

    /// Sums counters across streams and derives latency percentiles
    /// from the merged per-stream histograms (percentiles do not
    /// average; they must be recomputed from the union, which the
    /// loss-free [`merge`](snappix_metrics::HistogramSnapshot::merge)
    /// gives).
    pub fn aggregate<'a>(per_stream: impl IntoIterator<Item = &'a StreamReport>) -> StreamStats {
        let mut total = StreamStats::default();
        let mut latency: Option<HistogramSnapshot> = None;
        for report in per_stream {
            let s = &report.stats;
            total.frames += s.frames;
            total.windows += s.windows;
            total.inferred += s.inferred;
            total.shed += s.shed;
            total.expired += s.expired;
            total.refused += s.refused;
            total.events += s.events;
            latency = Some(match latency {
                None => report.latency_histogram.clone(),
                Some(merged) => merged.merge(&report.latency_histogram),
            });
        }
        if let Some(merged) = latency {
            total.latency = LatencySummary::from_histogram(&merged);
        }
        total
    }
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames -> {} windows ({} inferred, {} shed, {} expired, {} refused), {} events; \
             e2e latency p50 {:.2?} p95 {:.2?} p99 {:.2?} max {:.2?}",
            self.frames,
            self.windows,
            self.inferred,
            self.shed,
            self.expired,
            self.refused,
            self.events,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_metrics::{Histogram, HistogramOpts};
    use std::time::Duration;

    /// A report whose stats and latency histogram hold `latencies`.
    fn report(stats: StreamStats, latencies: &[Duration]) -> StreamReport {
        let hist = Histogram::standalone(HistogramOpts::nanos());
        for latency in latencies {
            hist.record(latency.as_nanos() as u64);
        }
        let latency_histogram = hist.snapshot();
        StreamReport {
            id: 0,
            stats: StreamStats {
                latency: LatencySummary::from_histogram(&latency_histogram),
                ..stats
            },
            latency_histogram,
        }
    }

    #[test]
    fn aggregate_sums_counters_and_pools_latencies() {
        let a = StreamStats {
            frames: 100,
            windows: 20,
            inferred: 18,
            shed: 2,
            expired: 0,
            refused: 0,
            events: 3,
            latency: LatencySummary::default(),
        };
        let b = StreamStats {
            frames: 50,
            windows: 10,
            inferred: 7,
            shed: 1,
            expired: 2,
            refused: 0,
            events: 1,
            latency: LatencySummary::default(),
        };
        let a = report(a, &[Duration::from_millis(1)]);
        let b = report(b, &[Duration::from_millis(9)]);
        let total = StreamStats::aggregate([&a, &b]);
        assert_eq!(total.frames, 150);
        assert_eq!(total.windows, 30);
        assert_eq!(total.inferred, 25);
        assert_eq!(total.shed, 3);
        assert_eq!(total.expired, 2);
        assert_eq!(total.events, 4);
        assert_eq!(total.inferred + total.shed + total.expired, total.windows);
        assert_eq!(total.latency.samples, 2);
        assert_eq!(total.latency.total, Duration::from_millis(10));
        assert_eq!(total.latency.max, Duration::from_millis(9));
        assert!((total.service_ratio() - 25.0 / 30.0).abs() < 1e-12);
        assert_eq!(StreamStats::default().service_ratio(), 1.0);
        assert_eq!(StreamStats::aggregate([]), StreamStats::default());
        let text = total.to_string();
        assert!(text.contains("25 inferred"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn aggregate_sums_refused_windows() {
        let refused = StreamStats {
            windows: 3,
            inferred: 1,
            refused: 2,
            ..StreamStats::default()
        };
        let total = StreamStats::aggregate([&report(refused.clone(), &[]), &report(refused, &[])]);
        assert_eq!((total.windows, total.inferred, total.refused), (6, 2, 4));
        assert!(total.to_string().contains("4 refused"));
    }
}
