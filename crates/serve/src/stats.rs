//! Serving telemetry: registry-backed counters, histograms, and latency
//! quantiles, snapshotted as [`ServerStats`].
//!
//! Every number here lives in a [`snappix_metrics::Registry`]: the
//! request counters are registry [`Counter`]s; queue, compute and
//! per-stage latency and the executed batch sizes are log-linear
//! [`Histogram`]s (every sample since process start is counted — no
//! sliding window — with exact count, sum and max); and scrape-time
//! gauges are refreshed on each [`Recorder::snapshot`]. [`ServerStats`]
//! is *derived from* the registry, so the struct the Rust API returns
//! and the Prometheus page the registry renders can never disagree.

use snappix::{PipelineProfile, StageProfile};
use snappix_metrics::{Counter, Gauge, Histogram, HistogramOpts, HistogramSnapshot, Registry};
use std::fmt;
use std::time::{Duration, Instant};

/// Order statistics over a latency stream.
///
/// Derived from a log-linear histogram covering *every* sample since
/// the server started: `samples` and `total` are exact, `max` is exact,
/// and the percentiles are nearest-rank with relative error bounded by
/// the histogram's bucket growth factor (2⁻⁶ ≈ 1.6% by default) — see
/// [`HistogramSnapshot::quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// All-time number of samples recorded.
    pub samples: u64,
    /// All-time running total of the stream — the histogram's `_sum`.
    pub total: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Maximum latency (exact).
    pub max: Duration,
}

impl LatencySummary {
    /// Derives the summary from a nanosecond-valued histogram snapshot:
    /// count, total, and max are exact; percentiles carry the
    /// histogram's bounded relative error.
    pub fn from_histogram(snap: &HistogramSnapshot) -> Self {
        if snap.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            samples: snap.count,
            total: Duration::from_nanos(snap.sum),
            p50: Duration::from_nanos(snap.quantile(0.5)),
            p95: Duration::from_nanos(snap.quantile(0.95)),
            p99: Duration::from_nanos(snap.quantile(0.99)),
            max: Duration::from_nanos(snap.max),
        }
    }
}

/// A point-in-time snapshot of a [`Server`](crate::Server)'s telemetry,
/// from [`Server::stats`](crate::Server::stats).
///
/// Request accounting is conserved: every admitted request ends up in
/// exactly one of `completed`, `expired` or `failed`, and
/// `submitted = completed + expired + failed + in-flight`.
///
/// With a [disabled](snappix_metrics::Registry::disabled) metrics
/// registry every registry-derived field is zero — the counters, the
/// latency summaries, `batch_size` and `profile` — like a disabled
/// tracer, turning telemetry off turns those readouts off, while
/// serving results stay bit-for-bit identical. `uptime`, `queue_depth`
/// and `resident_weight_bytes` are read from the server itself and stay
/// live.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests admitted into the queue (all-time).
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Submissions shed with `Overloaded` (never admitted; not part of
    /// `submitted`).
    pub rejected: u64,
    /// Admitted requests expired at their deadline instead of being run.
    pub expired: u64,
    /// Admitted requests that rode in a batch whose inference failed.
    pub failed: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Executed batch sizes (clips per forward pass): a snapshot of the
    /// `snappix_server_batch_size` histogram, whose `count` and `sum`
    /// are the exact batch and clip totals at any batch size.
    pub batch_size: HistogramSnapshot,
    /// Requests sitting in the admission queue right now.
    pub queue_depth: usize,
    /// Bytes of model weights resident in memory across all worker
    /// replicas, counting each shared storage buffer once. Replicas
    /// share one read-only weight storage, so this stays ~flat as
    /// workers scale — the observable form of the zero-copy artifact
    /// refactor. Weights are fixed at build time, so this is a
    /// constant, not a counter.
    pub resident_weight_bytes: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Time requests spent queued before their batch was claimed.
    pub queue_latency: LatencySummary,
    /// Time batches spent in `Pipeline::infer`.
    pub compute_latency: LatencySummary,
    /// Where batch compute time goes by pipeline stage
    /// (`sense`/`forward`/`readout`), aggregated across every worker
    /// replica: derived from the `snappix_server_stage_latency_seconds`
    /// histograms (exact calls, total and max per stage), with
    /// `batches` the compute-latency count and `clips` equal to
    /// `completed`. Populated whenever metrics are enabled — stage
    /// timing does not require a tracer.
    pub profile: PipelineProfile,
}

impl ServerStats {
    /// Completed requests per second of uptime.
    pub fn throughput(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Mean clips per executed batch — the direct measure of how much
    /// the dynamic batcher is coalescing.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_size.count == 0 {
            return 0.0;
        }
        self.batch_size.sum as f64 / self.batch_size.count as f64
    }

    /// Total clips that rode in executed batches (the batch-size
    /// histogram's exact sum). Every such clip was answered — with a
    /// prediction or a batch failure — so this always equals
    /// `completed + failed`.
    pub fn clips_batched(&self) -> u64 {
        self.batch_size.sum
    }

    /// Requests admitted but not yet resolved: queued, riding in a
    /// running batch, or claimed-but-unanswered at snapshot time.
    ///
    /// Saturating: a conservation violation can never make this wrap,
    /// so call [`check_conserved`](Self::check_conserved) when drift
    /// must be *detected* rather than hidden.
    pub fn in_flight(&self) -> u64 {
        self.submitted
            .saturating_sub(self.completed + self.expired + self.failed)
    }

    /// Verifies the snapshot's conserved-accounting invariants,
    /// returning the in-flight count on success:
    ///
    /// * every resolved request was first admitted
    ///   (`completed + expired + failed <= submitted`), and
    /// * every clip that rode an executed batch was resolved as exactly
    ///   one of completed/failed
    ///   (`clips_batched() == completed + failed`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant with both
    /// sides of the failed equation — the payload for
    /// [`debug_assert_conserved`](Self::debug_assert_conserved) and for
    /// operators alerting on a drifting metrics page.
    pub fn check_conserved(&self) -> Result<u64, String> {
        let resolved = self.completed + self.expired + self.failed;
        if resolved > self.submitted {
            return Err(format!(
                "accounting drift: completed {} + expired {} + failed {} = {} \
                 exceeds submitted {}",
                self.completed, self.expired, self.failed, resolved, self.submitted
            ));
        }
        let batched = self.clips_batched();
        if batched != self.completed + self.failed {
            return Err(format!(
                "accounting drift: batch-size histogram holds {} clips but \
                 completed {} + failed {} = {}",
                batched,
                self.completed,
                self.failed,
                self.completed + self.failed
            ));
        }
        Ok(self.submitted - resolved)
    }

    /// Debug-asserts [`check_conserved`](Self::check_conserved): in
    /// debug builds (and therefore in every test) a counter drift
    /// panics at the telemetry surface that would have published it; in
    /// release builds this is free and the page is served as-is.
    ///
    /// The gateway's `/stats` and `/metrics` handlers call this on
    /// every snapshot they export, so a conservation regression
    /// anywhere in the serving stack fails the integration suite
    /// instead of silently mis-reporting to operators.
    #[track_caller]
    pub fn debug_assert_conserved(&self) {
        debug_assert!(
            self.check_conserved().is_ok(),
            "{}",
            self.check_conserved().expect_err("checked")
        );
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} of {} requests in {:.2?} ({:.1} clips/s; {} shed, {} expired, {} failed)",
            self.completed,
            self.submitted,
            self.uptime,
            self.throughput(),
            self.rejected,
            self.expired,
            self.failed,
        )?;
        writeln!(
            f,
            "batches: {} executed, mean size {:.2}, queue depth {}, resident weights {} B",
            self.batches,
            self.mean_batch_size(),
            self.queue_depth,
            self.resident_weight_bytes,
        )?;
        writeln!(
            f,
            "queue latency:   p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
            self.queue_latency.p50,
            self.queue_latency.p95,
            self.queue_latency.p99,
            self.queue_latency.max,
        )?;
        writeln!(
            f,
            "compute latency: p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
            self.compute_latency.p50,
            self.compute_latency.p95,
            self.compute_latency.p99,
            self.compute_latency.max,
        )?;
        write!(f, "stages: {}", self.profile)
    }
}

/// The shared recorder workers and the submission path write into. All
/// counters and latency samples land in [`Registry`] cells — atomics on
/// the hot path — so the same numbers surface as [`ServerStats`] *and*
/// on any `/metrics` page rendered from the registry.
#[derive(Debug)]
pub(crate) struct Recorder {
    started: Instant,
    /// Fixed at build time: weights never change while serving.
    resident_weight_bytes: u64,
    registry: Registry,
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    expired: Counter,
    failed: Counter,
    batches: Counter,
    batch_size: Histogram,
    queue_latency: Histogram,
    compute_latency: Histogram,
    /// `sense`, `forward` and `readout`, in that order.
    stages: [Histogram; 3],
    in_flight: Gauge,
    queue_depth: Gauge,
    uptime: Gauge,
}

impl Recorder {
    /// Registers the `snappix_server_*` families on `registry` (no-ops
    /// when it is disabled) and wires the recorder to their handles.
    pub fn new(resident_weight_bytes: u64, registry: Registry) -> Self {
        let counter = |name, help| registry.counter(name, help);
        let submitted = counter(
            "snappix_server_requests_submitted_total",
            "Requests admitted into the serving queue.",
        );
        let completed = counter(
            "snappix_server_requests_completed_total",
            "Admitted requests answered with a prediction.",
        );
        let rejected = counter(
            "snappix_server_requests_rejected_total",
            "Submissions shed with Overloaded (never admitted).",
        );
        let expired = counter(
            "snappix_server_requests_expired_total",
            "Admitted requests expired at their deadline instead of being run.",
        );
        let failed = counter(
            "snappix_server_requests_failed_total",
            "Admitted requests that rode in a batch whose inference failed.",
        );
        let batches = counter(
            "snappix_server_batches_total",
            "Batched forward passes executed.",
        );
        // 7 sub-bucket bits: every batch size below 128 gets its own
        // singleton bucket, so `le` values are exact sizes.
        let batch_size = registry.histogram(
            "snappix_server_batch_size",
            "Executed batch sizes (clips per forward pass).",
            HistogramOpts::default().with_sub_bucket_bits(7),
        );
        let queue_latency = registry.histogram(
            "snappix_server_queue_latency_seconds",
            "Time requests spent queued before their batch was claimed.",
            HistogramOpts::nanos().with_exemplars(),
        );
        let compute_latency = registry.histogram(
            "snappix_server_compute_latency_seconds",
            "Time batches spent in the pipeline forward pass.",
            HistogramOpts::nanos().with_exemplars(),
        );
        let stages = ["sense", "forward", "readout"].map(|stage| {
            registry.histogram_with(
                "snappix_server_stage_latency_seconds",
                "Forward-pass wall time by pipeline stage, aggregated across worker replicas.",
                HistogramOpts::nanos(),
                &[("stage", stage)],
            )
        });
        let in_flight = registry.gauge(
            "snappix_server_requests_in_flight",
            "Admitted requests not yet resolved (queued or mid-batch).",
        );
        let queue_depth = registry.gauge(
            "snappix_server_queue_depth",
            "Requests sitting in the admission queue right now.",
        );
        let uptime = registry.gauge(
            "snappix_server_uptime_seconds",
            "Seconds since the server started.",
        );
        registry
            .gauge(
                "snappix_server_resident_weight_bytes",
                "Bytes of model weights resident across all worker replicas \
                 (shared storage counted once).",
            )
            .set(resident_weight_bytes as f64);
        Recorder {
            started: Instant::now(),
            resident_weight_bytes,
            registry,
            submitted,
            completed,
            rejected,
            expired,
            failed,
            batches,
            batch_size,
            queue_latency,
            compute_latency,
            stages,
            in_flight,
            queue_depth,
            uptime,
        }
    }

    /// The registry the recorder's families live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn record_admitted(&self) {
        self.submitted.inc();
    }

    /// Undoes a [`record_admitted`](Self::record_admitted) whose push
    /// was then rejected. Admissions are counted *before* the request
    /// is published to the queue (so a racing worker can never complete
    /// an uncounted request); a failed push compensates here.
    pub fn record_unadmitted(&self) {
        self.submitted.deduct(1);
    }

    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// Folds one replica's per-stage profile delta (from
    /// [`Pipeline::take_profile`](snappix::Pipeline::take_profile))
    /// into the server-wide aggregate. Workers call this after every
    /// batch.
    pub fn record_profile(&self, delta: &PipelineProfile) {
        for (hist, stage) in self
            .stages
            .iter()
            .zip([&delta.sense, &delta.forward, &delta.readout])
        {
            record_stage(hist, stage);
        }
    }

    /// Records one claimed batch: per-request queue latencies (each
    /// carrying its request's trace id for exemplars), the expiry
    /// count, and (when any requests remain) the executed batch size
    /// with its compute time and a representative trace id.
    pub fn record_batch(
        &self,
        queue_latencies: &[(Duration, u64)],
        expired: u64,
        executed: usize,
        compute: Option<(Duration, u64)>,
    ) {
        for &(latency, trace_id) in queue_latencies {
            self.queue_latency
                .record_with_trace(latency.as_nanos() as u64, trace_id);
        }
        self.expired.add(expired);
        if executed > 0 {
            self.batches.inc();
            self.batch_size.record(executed as u64);
            if let Some((compute, trace_id)) = compute {
                self.compute_latency
                    .record_with_trace(compute.as_nanos() as u64, trace_id);
                self.completed.add(executed as u64);
            } else {
                self.failed.add(executed as u64);
            }
        }
    }

    pub fn snapshot(&self, queue_depth: usize) -> ServerStats {
        let compute_latency = self.compute_latency.snapshot();
        let completed = self.completed.get();
        let [sense, forward, readout] = self.stages.each_ref().map(|hist| {
            let snap = hist.snapshot();
            StageProfile {
                calls: snap.count,
                total: Duration::from_nanos(snap.sum),
                max: Duration::from_nanos(snap.max),
            }
        });
        let stats = ServerStats {
            submitted: self.submitted.get(),
            completed,
            rejected: self.rejected.get(),
            expired: self.expired.get(),
            failed: self.failed.get(),
            batches: self.batches.get(),
            batch_size: self.batch_size.snapshot(),
            queue_depth,
            resident_weight_bytes: self.resident_weight_bytes,
            uptime: self.started.elapsed(),
            queue_latency: LatencySummary::from_histogram(&self.queue_latency.snapshot()),
            compute_latency: LatencySummary::from_histogram(&compute_latency),
            profile: PipelineProfile {
                sense,
                forward,
                readout,
                batches: compute_latency.count,
                clips: completed,
            },
        };
        // Refresh the scrape-time gauges: a registry render right after
        // a snapshot (the gateway's `/metrics` path) sees current
        // values.
        self.in_flight.set(stats.in_flight() as f64);
        self.queue_depth.set(queue_depth as f64);
        self.uptime.set(stats.uptime.as_secs_f64());
        stats
    }
}

/// Records one stage's profile delta as `calls` samples with the
/// delta's exact count, sum and max: the slowest call once, then the
/// rest of the total split over the other calls to the nanosecond.
/// Workers drain their profile after every batch, so a delta is almost
/// always a single call, recorded as is.
fn record_stage(hist: &Histogram, stage: &StageProfile) {
    let Some(others) = stage.calls.checked_sub(1) else {
        return;
    };
    let max = stage.max.as_nanos() as u64;
    hist.record(max);
    let rest = (stage.total.as_nanos() as u64).saturating_sub(max);
    // `rest <= others * max`, so no split sample exceeds `max`.
    if let (Some(share), Some(extra)) = (rest.checked_div(others), rest.checked_rem(others)) {
        for i in 0..others {
            hist.record(share + u64::from(i < extra));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Recorder {
        Recorder::new(1024, Registry::new())
    }

    #[test]
    fn accounting_is_conserved_across_outcomes() {
        let r = recorder();
        for _ in 0..10 {
            r.record_admitted();
        }
        // A rejected push compensates its optimistic admission count.
        r.record_admitted();
        r.record_unadmitted();
        r.record_rejected();
        // Batch of 4: one expired, three ran fine.
        r.record_batch(
            &[(Duration::from_millis(1), 7); 4],
            1,
            3,
            Some((Duration::from_millis(7), 7)),
        );
        // Batch of 2 that failed inference.
        r.record_batch(&[(Duration::from_millis(2), 0); 2], 0, 2, None);
        // Batch that expired entirely: nothing executed.
        r.record_batch(&[(Duration::from_millis(3), 0)], 1, 0, None);
        let s = r.snapshot(4);
        assert_eq!(s.submitted, 10);
        assert_eq!(s.rejected, 1);
        assert_eq!((s.completed, s.expired, s.failed), (3, 2, 2));
        assert_eq!(
            s.completed + s.expired + s.failed + 3,
            s.submitted,
            "3 in flight"
        );
        assert_eq!(s.batches, 2, "empty batches are not executions");
        let sizes: Vec<(u64, u64)> = s
            .batch_size
            .buckets
            .iter()
            .map(|b| (b.upper, b.count))
            .collect();
        assert_eq!(sizes, [(2, 1), (3, 1)]);
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.resident_weight_bytes, 1024);
        assert_eq!(s.queue_latency.samples, 7);
        assert_eq!(s.compute_latency.samples, 1);
        // Running totals back the exporter's `_sum` lines:
        // 4 x 1ms + 2 x 2ms + 1 x 3ms queued, one 7ms forward pass.
        assert_eq!(s.queue_latency.total, Duration::from_millis(11));
        assert_eq!(s.compute_latency.total, Duration::from_millis(7));
        assert!((s.mean_batch_size() - 2.5).abs() < 1e-9);
        assert!(s.throughput() >= 0.0);
        let text = s.to_string();
        assert!(text.contains("batches: 2"));
        assert!(text.contains("resident weights 1024 B"));
        assert!(text.contains("p99"));
        // The registry agrees with the struct, line for line.
        let page = r.registry().render();
        for needle in [
            "snappix_server_requests_submitted_total 10\n",
            "snappix_server_requests_completed_total 3\n",
            "snappix_server_requests_in_flight 3\n",
            "snappix_server_queue_depth 4\n",
            "snappix_server_resident_weight_bytes 1024\n",
            "snappix_server_batches_total 2\n",
            "snappix_server_batch_size_sum 5\n",
            "snappix_server_batch_size_count 2\n",
            "snappix_server_queue_latency_seconds_count 7\n",
            "snappix_server_compute_latency_seconds_count 1\n",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }

    #[test]
    fn stage_profiles_merge_across_replicas() {
        let r = recorder();
        let mut a = PipelineProfile::default();
        a.sense.calls = 2;
        a.sense.total = Duration::from_millis(4);
        a.sense.max = Duration::from_millis(3);
        a.batches = 2;
        a.clips = 5;
        let mut b = PipelineProfile::default();
        b.sense.calls = 1;
        b.sense.total = Duration::from_millis(10);
        b.sense.max = Duration::from_millis(10);
        b.forward.calls = 1;
        b.forward.total = Duration::from_millis(6);
        b.forward.max = Duration::from_millis(6);
        b.batches = 1;
        b.clips = 3;
        r.record_profile(&a);
        r.record_profile(&b);
        r.record_profile(&PipelineProfile::default()); // no-op
        let s = r.snapshot(0);
        assert_eq!(s.profile.sense.calls, 3);
        assert_eq!(s.profile.sense.total, Duration::from_millis(14));
        assert_eq!(s.profile.sense.max, Duration::from_millis(10));
        assert_eq!(s.profile.forward.calls, 1);
        assert_eq!(s.profile.forward.total, Duration::from_millis(6));
        assert_eq!(s.profile.forward.max, Duration::from_millis(6));
        assert_eq!(s.profile.readout, StageProfile::default());
        // Batches and clips come from the compute histogram and the
        // completed counter, not from the stage deltas.
        r.record_batch(&[], 0, 4, Some((Duration::from_millis(1), 0)));
        let s = r.snapshot(0);
        assert_eq!((s.profile.batches, s.profile.clips), (1, 4));
        assert!(s.to_string().contains("stages:"));
        // The stage histograms mirror the profile on the rendered page.
        let page = r.registry().render();
        assert!(
            page.contains("snappix_server_stage_latency_seconds_sum{stage=\"sense\"} 0.014\n"),
            "{page}"
        );
        assert!(
            page.contains("snappix_server_stage_latency_seconds_count{stage=\"sense\"} 3\n"),
            "{page}"
        );
        assert!(
            page.contains("snappix_server_stage_latency_seconds_count{stage=\"forward\"} 1\n"),
            "{page}"
        );
        assert!(
            page.contains("# TYPE snappix_server_stage_latency_seconds histogram\n"),
            "{page}"
        );
    }

    #[test]
    fn batches_beyond_the_singleton_buckets_stay_conserved() {
        // 130 and 200 clips lie past the 7-bit histogram's singleton
        // buckets (sizes below 128); its exact sum still conserves.
        let r = recorder();
        for _ in 0..330 {
            r.record_admitted();
        }
        r.record_batch(&[], 0, 130, Some((Duration::from_millis(1), 0)));
        r.record_batch(&[], 0, 200, Some((Duration::from_millis(1), 0)));
        let s = r.snapshot(0);
        assert_eq!(s.check_conserved(), Ok(0));
        assert_eq!(s.clips_batched(), s.completed);
        assert_eq!(s.completed, 330);
        assert_eq!((s.batch_size.count, s.batch_size.max), (2, 200));
        assert!((s.mean_batch_size() - 165.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_helpers_detect_drift() {
        let r = recorder();
        for _ in 0..6 {
            r.record_admitted();
        }
        r.record_batch(
            &[(Duration::from_millis(1), 0); 4],
            1,
            3,
            Some((Duration::from_millis(2), 0)),
        );
        let healthy = r.snapshot(2);
        assert_eq!(healthy.clips_batched(), 3);
        assert_eq!(healthy.in_flight(), 2);
        assert_eq!(healthy.check_conserved(), Ok(2));
        healthy.debug_assert_conserved();

        // Drift type 1: more resolutions than admissions.
        let mut drifted = healthy.clone();
        drifted.completed += 10;
        drifted.batch_size.sum = 13;
        assert_eq!(drifted.in_flight(), 0, "saturating, never wrapping");
        let err = drifted.check_conserved().expect_err("over-resolved");
        assert!(err.contains("exceeds submitted"), "{err}");

        // Drift type 2: histogram disagrees with the outcome counters.
        let mut skewed = healthy;
        skewed.batch_size.sum = 6;
        let err = skewed.check_conserved().expect_err("histogram drift");
        assert!(err.contains("histogram"), "{err}");
    }

    #[test]
    #[should_panic(expected = "accounting drift")]
    fn debug_assert_conserved_panics_on_drift_in_debug_builds() {
        let mut s = recorder().snapshot(0);
        s.completed = 1; // never admitted
        if cfg!(debug_assertions) {
            s.debug_assert_conserved();
        } else {
            // Release builds compile the assert out; satisfy the
            // should_panic expectation explicitly.
            panic!("accounting drift checks are debug-only");
        }
    }

    #[test]
    fn no_samples_are_lost_under_sustained_load() {
        // 5000 samples — beyond the 4096-sample sliding window the
        // pre-registry recorder ranked over. Every one lands in the
        // histogram: `_count` on the rendered page equals submissions
        // exactly, and the totals stay exact.
        let r = recorder();
        const BATCH: usize = 50;
        const BATCHES: usize = 100;
        let mut expected_total = Duration::ZERO;
        for batch in 0..BATCHES {
            for _ in 0..BATCH {
                r.record_admitted();
            }
            let latencies: Vec<(Duration, u64)> = (0..BATCH)
                .map(|i| (Duration::from_micros((batch * BATCH + i) as u64 + 1), 0))
                .collect();
            expected_total += latencies.iter().map(|&(d, _)| d).sum::<Duration>();
            r.record_batch(&latencies, 0, BATCH, Some((Duration::from_millis(1), 0)));
        }
        let s = r.snapshot(0);
        assert_eq!(s.submitted, (BATCH * BATCHES) as u64);
        assert_eq!(s.queue_latency.samples, 5000, "all 5000 samples counted");
        assert_eq!(s.queue_latency.total, expected_total, "sum stays exact");
        assert_eq!(s.queue_latency.max, Duration::from_micros(5000));
        // p99 of 1..=5000 µs is 4950 µs; the histogram's answer is
        // within its configured relative error (2^-6).
        let p99 = s.queue_latency.p99.as_micros() as f64;
        assert!((p99 - 4950.0).abs() / 4950.0 <= 1.0 / 64.0, "p99 {p99}");
        let page = r.registry().render();
        assert!(
            page.contains("snappix_server_queue_latency_seconds_count 5000\n"),
            "{page}"
        );
        s.debug_assert_conserved();
    }

    #[test]
    fn disabled_registry_records_nothing_and_stays_conserved() {
        let r = Recorder::new(512, Registry::disabled());
        r.record_admitted();
        r.record_batch(
            &[(Duration::from_millis(1), 0)],
            0,
            1,
            Some((Duration::from_millis(1), 0)),
        );
        let call = StageProfile {
            calls: 1,
            total: Duration::from_millis(1),
            max: Duration::from_millis(1),
        };
        r.record_profile(&PipelineProfile {
            sense: call,
            forward: call,
            readout: call,
            batches: 1,
            clips: 1,
        });
        let s = r.snapshot(3);
        assert_eq!(s.submitted, 0, "disabled registry counts nothing");
        assert_eq!((s.completed, s.batches), (0, 0));
        assert_eq!((s.batch_size.count, s.batch_size.sum), (0, 0));
        assert_eq!(s.queue_latency, LatencySummary::default());
        assert_eq!(s.compute_latency, LatencySummary::default());
        assert_eq!(s.profile, PipelineProfile::default());
        // What the server reads from itself stays live.
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.resident_weight_bytes, 512);
        assert!(s.uptime > Duration::ZERO);
        s.debug_assert_conserved();
        assert_eq!(r.registry().render(), "");
    }
}
