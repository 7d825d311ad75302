//! The metric catalogue, the outcome a workload fills in, and the result
//! line the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, printed by an untraced run. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A layer
/// the workload bypasses reads 0. The end-to-end p99 sits here: on a
/// shared host it swings past any bound the benchmark could set.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("latency_p99_ms", "ms"),
    ("pipeline.sense_us_per_clip", "us"),
    ("pipeline.forward_us_per_clip", "us"),
    ("pipeline.readout_us_per_clip", "us"),
    ("pipeline.unattributed_share", "share"),
    ("ce.encode_us_per_clip", "us"),
    ("models.forward_us_per_clip", "us"),
    ("autograd.nodes_per_forward", "count"),
    ("serve.admit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.batch_mean", "clips"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("gateway.request_ms_p50", "ms"),
    ("gateway.wire_ms_p50", "ms"),
    ("gateway.scrape_ms_p50", "ms"),
    ("sensor.capture_us_per_clip", "us"),
    ("sensor.captures", "count"),
    ("stream.assemble_us_per_window", "us"),
    ("fleet.loop_share", "share"),
    ("fleet.inferred_share", "share"),
    ("fleet.slept_share", "share"),
    ("nn.artifact_open_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("sustained_rate_per_s", "1/s"),
    ("failed_share", "share"),
    ("pj_per_inference", "pJ"),
    ("trace.overhead_share", "share"),
];

/// What one workload run produced: the operation tally, any broken
/// invariant, and the metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Attempted operations that failed: wrong output, error, or a
    /// refusal where the workload promises an answer.
    pub failed: u64,
    /// Invariants that did not hold (non-conserved ledger, a replay
    /// that diverged, a count that should be exact and was not).
    pub broken: Vec<String>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records `value` for the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue (a typo in a workload).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Tallies one attempted operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Tallies `n` attempted operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a broken invariant.
    pub fn broke(&mut self, what: String) {
        self.broken.push(what);
    }

    /// Whether every output was right and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The value recorded for `name`, 0 when the workload never set it.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The catalogue this run reports: per-layer when traced, end to end
    /// otherwise.
    pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the catalogue.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in Outcome::catalogue(trace).iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.value(name))
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number; non-finite values (which a correct run never
/// produces) degrade to 0 rather than emit invalid JSON.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank quantile `q` of `samples` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Where [`Sliced`] reads a tail quantile among its slices: at the
/// quietest tenth.
pub const QUIET: f64 = 0.1;

/// Samples filed by the time slice of the phase they completed in.
///
/// On a shared machine other tenants stall whole stretches of a run, and
/// those stalls, not the program, make most of the raw tail. Typical
/// values (rates, medians) are therefore the median over the slices, and
/// a tail quantile is read at the quietest tenth of the slices
/// ([`QUIET`]): a tail the program causes in every slice still shows in
/// full. Only slices the phase covered in full count, unless there are
/// none.
#[derive(Debug, Clone)]
pub struct Sliced {
    start: Instant,
    slice: Duration,
    slices: Vec<Vec<f64>>,
    /// When the phase ended, which bounds the full slices.
    end: Option<Instant>,
}

impl Sliced {
    /// An empty series for a phase starting at `start`.
    pub fn new(start: Instant, slice: Duration) -> Self {
        Sliced {
            start,
            slice,
            slices: Vec::new(),
            end: None,
        }
    }

    /// Files `value`, completed at `at`.
    pub fn push(&mut self, at: Instant, value: f64) {
        let i = (at.saturating_duration_since(self.start).as_secs_f64() / self.slice.as_secs_f64())
            as usize;
        if self.slices.len() <= i {
            self.slices.resize(i + 1, Vec::new());
        }
        self.slices[i].push(value);
    }

    /// Marks the phase over at `end`.
    pub fn close(&mut self, end: Instant) {
        self.end = Some(self.end.map_or(end, |e| e.max(end)));
    }

    /// Folds another series of the same phase (another client's) in.
    pub fn merge(&mut self, other: Sliced) {
        if self.slices.len() < other.slices.len() {
            self.slices.resize(other.slices.len(), Vec::new());
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.extend(theirs);
        }
        if let Some(end) = other.end {
            self.close(end);
        }
    }

    /// Every sample, in slice order.
    pub fn all(&self) -> Vec<f64> {
        self.slices.concat()
    }

    fn full(&self) -> &[Vec<f64>] {
        let span = self
            .end
            .map_or(Duration::ZERO, |e| e.saturating_duration_since(self.start));
        let n = (span.as_secs_f64() / self.slice.as_secs_f64()) as usize;
        &self.slices[..n.min(self.slices.len())]
    }

    /// The median over the full slices of each slice's quantile `q`.
    pub fn median(&self, q: f64) -> f64 {
        self.read(q, 0.5)
    }

    /// Each full slice's quantile `q`, read at the quietest tenth.
    pub fn tail(&self, q: f64) -> f64 {
        self.read(q, QUIET)
    }

    /// A slice in which nothing completed (a stall) has no latency to
    /// read, so it is left out.
    fn read(&self, q: f64, among: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .full()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, q))
            .collect();
        if per_slice.is_empty() {
            return quantile(&self.all(), q);
        }
        quantile(&per_slice, among)
    }

    /// The median over the full slices of samples completed per second,
    /// each sample counting `weight` operations.
    pub fn rate(&self, weight: f64) -> f64 {
        let full = self.full();
        if full.is_empty() {
            let span = self
                .end
                .map_or(Duration::ZERO, |e| e.saturating_duration_since(self.start));
            return share(self.all().len() as f64 * weight, span.as_secs_f64());
        }
        let per_slice: Vec<f64> = full
            .iter()
            .map(|s| s.len() as f64 * weight / self.slice.as_secs_f64())
            .collect();
        median(&per_slice)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The process's resident-set high-water mark in MiB, read from the
/// kernel (`VmHWM` in `/proc/self/status`); 0 where that file is absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut out = Outcome::default();
        out.check(true);
        out.set("setup_s", 1.5);
        let line = out.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(out.to_json(true).contains("\"trace.overhead_share\""));
    }

    #[test]
    fn sliced_summaries_skip_disturbed_slices() {
        let start = Instant::now();
        let mut a = Sliced::new(start, Duration::from_secs(1));
        let mut b = Sliced::new(start, Duration::from_secs(1));
        for s in 0..3u64 {
            let at = start + Duration::from_millis(1000 * s + 500);
            a.push(at, 1.0);
            b.push(at, if s == 1 { 100.0 } else { 2.0 });
        }
        // A sample past the end of the phase's last full slice.
        a.push(start + Duration::from_millis(3500), 7.0);
        a.merge(b);
        a.close(start + Duration::from_millis(3200));
        assert_eq!(a.len(), 7);
        assert_eq!(a.rate(1.0), 2.0);
        // A stalled slice completes nothing: it lowers the rate but has
        // no latency to read.
        let mut stalled = Sliced::new(start, Duration::from_secs(1));
        stalled.push(start + Duration::from_millis(500), 3.0);
        stalled.push(start + Duration::from_millis(2500), 3.0);
        stalled.close(start + Duration::from_secs(3));
        assert_eq!(stalled.tail(0.99), 3.0);
        assert_eq!(stalled.rate(1.0), 1.0);
        assert_eq!(
            a.median(1.0),
            2.0,
            "one disturbed slice of three does not move it"
        );
        assert_eq!(a.tail(1.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_rejected() {
        Outcome::default().set("setup_ms", 1.0);
    }
}
