//! Integration suite for the `snappix-stream` subsystem.
//!
//! The headline guarantee mirrors the serving layer's: streaming must be
//! *operationally* different from offline inference (windowing, pacing,
//! overload policies, events) while staying *numerically* identical to
//! it — every window's raw prediction bit-for-bit equal to an offline
//! `Pipeline::infer` loop over `Video::windows(t, hop)` of the same
//! frames, on both the algorithmic and the hardware backend, at every
//! `SNAPPIX_THREADS` setting (CI runs this file in both matrix legs).

use snappix_stream::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 5;
const FRAMES: usize = 37; // deliberately not divisible by any hop below

fn model() -> SnapPixAr {
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("valid model")
}

/// Four distinct deterministic videos with four hop regimes: dense
/// overlap, tiling, gapped (hop > t), and generic overlap.
fn workload() -> Vec<(Video, usize)> {
    let data = Dataset::new(ssv2_like(FRAMES, HW, HW), 4);
    let hops = [1, T, 7, 3];
    (0..4).map(|i| (data.sample(i).video, hops[i])).collect()
}

/// Raw streaming config: no smoothing, immediate events — so the
/// session's outputs are pure functions of the raw label sequence and
/// can be checked exactly.
fn raw_config(hop: usize) -> SessionConfig {
    SessionConfig::new(T, hop)
        .with_smoothing(Smoothing::Off)
        .with_hysteresis(1)
}

/// Offline reference: per-window predictions from a serial pipeline over
/// the exact same sliding windows.
fn offline_reference<S>(
    mut pipeline: Pipeline<S>,
    workload: &[(Video, usize)],
) -> Vec<Vec<Prediction>>
where
    S: Sense,
    snappix::Error: From<S::Error>,
{
    workload
        .iter()
        .map(|(video, hop)| {
            video
                .windows(T, *hop)
                .map(|w| pipeline.infer_clip(&w).expect("offline inference"))
                .collect()
        })
        .collect()
}

/// Runs `runner`, collecting each stream's sink records in the order
/// the sink received them.
fn run_collecting(runner: StreamRunner<'_>) -> (RunReport, Vec<Vec<WindowResult>>) {
    let records = Mutex::new(vec![Vec::new(); runner.streams()]);
    let report = runner
        .run(|id, record| records.lock().expect("sink lock")[id].push(record))
        .expect("streaming run");
    (report, records.into_inner().expect("sink lock"))
}

/// Every record of a session, from its pushes and its finish.
fn stream_video(
    mut session: StreamSession<'_>,
    video: &Video,
) -> (StreamReport, Vec<WindowResult>) {
    let mut records = Vec::new();
    let mut sink = |record| records.push(record);
    for i in 0..video.num_frames() {
        session
            .push(&video.frame(i).expect("frame"), &mut sink)
            .expect("push");
    }
    let report = session.finish(&mut sink).expect("finish");
    (report, records)
}

/// The drops of one stream as `(window index, outcome)`, in the order
/// they reached the sink.
fn drops(records: &[WindowResult]) -> Vec<(usize, WindowOutcome)> {
    records
        .iter()
        .filter(|r| !matches!(r.outcome, WindowOutcome::Inferred { .. }))
        .map(|r| (r.index, r.outcome.clone()))
        .collect()
}

fn assert_streams_match(
    report: &RunReport,
    records: &[Vec<WindowResult>],
    reference: &[Vec<Prediction>],
) {
    assert_eq!(report.streams.len(), reference.len());
    for ((stream, records), expected) in report.streams.iter().zip(records).zip(reference) {
        assert_eq!(
            records.len() as u64,
            stream.stats.windows,
            "stream {}: one record per window",
            stream.id
        );
        assert_eq!(
            records.len(),
            expected.len(),
            "stream {}: every offline window must be streamed",
            stream.id
        );
        assert!(drops(records).is_empty(), "nothing drops under Block");
        for (k, (record, offline)) in records.iter().zip(expected).enumerate() {
            assert_eq!(record.index, k, "results arrive in window order");
            let WindowOutcome::Inferred {
                prediction,
                smoothed,
                ..
            } = &record.outcome
            else {
                unreachable!("no drops, checked above");
            };
            assert_eq!(
                prediction.label, offline.label,
                "stream {} window {k}: label",
                stream.id
            );
            assert!(
                prediction.logits.approx_eq(&offline.logits, 0.0),
                "stream {} window {k}: streamed logits must be bit-for-bit offline",
                stream.id
            );
            assert_eq!(*smoothed, offline.label, "Smoothing::Off is raw");
        }
    }
}

/// Replays the raw label sequence through the documented
/// hysteresis-1 event semantics: an event on the first window and on
/// every label change.
fn expected_raw_events(
    stream: usize,
    hop: usize,
    labels: &[usize],
) -> Vec<(usize, usize, Option<usize>, usize)> {
    let mut events = Vec::new();
    let mut active: Option<usize> = None;
    for (k, &label) in labels.iter().enumerate() {
        if active != Some(label) {
            events.push((stream, k, active, label));
            active = Some(label);
        }
    }
    events
        .into_iter()
        .map(|(s, k, from, to)| (s, k * hop + T - 1, from, to))
        .collect()
}

/// The headline guarantee, algorithmic backend: N concurrent streams
/// through a replicated, dynamically-batching server produce exactly the
/// offline per-window predictions, and the raw event stream is exactly
/// the label-change sequence of those predictions.
#[test]
fn streamed_windows_match_offline_inference_exactly() {
    let workload = workload();
    let reference = offline_reference(
        Pipeline::builder(model()).build().expect("assembly"),
        &workload,
    );

    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(2)
        .with_queue_depth(32)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(2)))
        .build()
        .expect("server assembly");
    let mut runner = StreamRunner::new(&server);
    for (video, hop) in &workload {
        runner.add_stream(ReplaySource::new(video.clone()), raw_config(*hop));
    }
    assert_eq!(runner.streams(), 4);
    let (report, records) = run_collecting(runner);

    assert_streams_match(&report, &records, &reference);

    // Events are the raw label-change sequence, stamped with the frame
    // that confirmed them.
    for (((stream, records), expected), (_, hop)) in report
        .streams
        .iter()
        .zip(&records)
        .zip(&reference)
        .zip(&workload)
    {
        let labels: Vec<usize> = expected.iter().map(|p| p.label).collect();
        let want = expected_raw_events(stream.id, *hop, &labels);
        let got: Vec<(usize, usize, Option<usize>, usize)> = records
            .iter()
            .filter_map(|r| match &r.outcome {
                WindowOutcome::Inferred { event, .. } => *event,
                _ => None,
            })
            .map(|e| (e.stream, e.at_frame, e.from, e.to))
            .collect();
        assert_eq!(got, want, "stream {}", stream.id);
        assert_eq!(stream.stats.events, want.len() as u64);
    }

    // Accounting is conserved per stream and in aggregate.
    let agg = &report.aggregate;
    assert_eq!(agg.frames, (4 * FRAMES) as u64);
    let expected_windows: u64 = workload
        .iter()
        .map(|(_, hop)| ((FRAMES - T) / hop + 1) as u64)
        .sum();
    assert_eq!(agg.windows, expected_windows);
    assert_eq!(agg.inferred, expected_windows);
    assert_eq!(agg.shed + agg.expired, 0);
    assert_eq!(agg.latency.samples, expected_windows);
    assert_eq!(agg.service_ratio(), 1.0);
    assert!(report.windows_per_sec() > 0.0);

    // The same ledger, live on the server's shared metrics registry:
    // every session registered the snappix_stream_* families at
    // construction and recorded as frames flowed, so a render of the
    // registry agrees with the aggregated report exactly.
    let page = server.metrics().render();
    for (needle, value) in [
        ("snappix_stream_frames_total", agg.frames),
        ("snappix_stream_windows_total", agg.windows),
        ("snappix_stream_inferred_total", agg.inferred),
        ("snappix_stream_shed_total", agg.shed),
        ("snappix_stream_expired_total", agg.expired),
        ("snappix_stream_events_total", agg.events),
        ("snappix_stream_window_latency_seconds_count", agg.inferred),
    ] {
        assert!(
            page.contains(&format!("{needle} {value}\n")),
            "{needle} should read {value} on the rendered page:\n{page}"
        );
    }

    // The server really did serve all of it.
    let stats = server.shutdown();
    assert_eq!(stats.completed, expected_windows);
}

/// The same guarantee on the deployment path: windows pass through the
/// simulated charge-domain sensor and a noiseless readout, replicated
/// per worker — still bit-for-bit the offline hardware pipeline.
#[test]
fn hardware_backed_streaming_matches_offline_hardware_inference() {
    let workload = workload();
    let reference = offline_reference(
        Pipeline::builder(model())
            .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
            .expect("sensor assembly")
            .build()
            .expect("assembly"),
        &workload,
    );

    let recipe = Pipeline::builder(model())
        .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
        .expect("sensor assembly");
    let server = Server::builder(recipe)
        .with_workers(2)
        .build()
        .expect("server assembly");
    let mut runner = StreamRunner::new(&server);
    for (video, hop) in &workload {
        runner.add_stream(ReplaySource::new(video.clone()), raw_config(*hop));
    }
    let (report, records) = run_collecting(runner);
    assert_streams_match(&report, &records, &reference);
}

/// Saturate a one-slot server (a parked worker holds its batch open, so
/// the single queue slot stays occupied) and require each overload
/// policy's behaviour to be exactly deterministic.
#[test]
fn overload_policies_are_deterministic_under_a_saturated_server() {
    let (video, hop) = (&workload()[0].0, 3);
    let windows = (FRAMES - T) / hop + 1; // 12

    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_queue_depth(1)
        // max_batch far above what we submit + a huge delay parks the
        // worker holding its batch open; the dummy below then occupies
        // the only queue slot for the whole test.
        .with_batch_policy(BatchPolicy::new(64, Duration::from_secs(30)))
        .build()
        .expect("server assembly");
    let dummy = server
        .submit(&Tensor::zeros(&[T, HW, HW]))
        .expect("the slot was free");

    // SkipWindow: every window is shed at admission, in order.
    let session = StreamSession::new(
        0,
        &server,
        raw_config(hop).with_overload(OverloadPolicy::SkipWindow),
    )
    .expect("session");
    let (report, records) = stream_video(session, video);
    assert_eq!(report.stats.windows, windows as u64);
    assert_eq!(report.stats.inferred, 0);
    assert_eq!(report.stats.shed, windows as u64);
    assert_eq!(report.stats.expired, 0);
    assert_eq!(report.stats.events, 0);
    assert_eq!(records.len(), windows, "one record per window");
    assert_eq!(
        drops(&records),
        (0..windows)
            .map(|i| (i, WindowOutcome::Shed))
            .collect::<Vec<_>>()
    );

    // DropOldest(pending = 2): the buffer holds the two freshest
    // windows; every older one is displaced in arrival order, and the
    // final two are shed at finish (the policy never blocks).
    let session = StreamSession::new(
        1,
        &server,
        raw_config(hop).with_overload(OverloadPolicy::DropOldest { pending: 2 }),
    )
    .expect("session");
    let (report, records) = stream_video(session, video);
    assert_eq!(report.stats.shed, windows as u64);
    assert_eq!(report.stats.inferred, 0);
    assert_eq!(records.len(), windows, "one record per window");
    assert_eq!(
        drops(&records),
        (0..windows)
            .map(|i| (i, WindowOutcome::Shed))
            .collect::<Vec<_>>(),
        "oldest-first displacement, then the final buffered pair"
    );

    // Unpark: shutdown flushes the parked batch and answers the dummy.
    drop(server);
    assert!(dummy.wait().is_ok(), "the parked request is still served");
}

/// Per-window deadlines expire queued windows server-side and are
/// accounted as `expired`, not `shed` — deterministically so for a
/// zero deadline, which is already stale when a worker claims it.
#[test]
fn zero_deadline_expires_every_window() {
    let (video, hop) = (&workload()[1].0, T);
    let windows = (FRAMES - T) / hop + 1;

    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let session = StreamSession::new(0, &server, raw_config(hop).with_deadline(Duration::ZERO))
        .expect("session");
    let (report, records) = stream_video(session, video);
    assert_eq!(report.stats.windows, windows as u64);
    assert_eq!(report.stats.expired, windows as u64);
    assert_eq!(report.stats.inferred + report.stats.shed, 0);
    assert_eq!(
        drops(&records),
        (0..windows)
            .map(|i| (i, WindowOutcome::Expired))
            .collect::<Vec<_>>(),
        "expiries reach the sink in window order"
    );
    let stats = server.shutdown();
    assert_eq!(stats.expired, windows as u64);
    assert_eq!(stats.completed, 0);
}

/// Misconfiguration is rejected at session construction, and the
/// runner propagates it.
#[test]
fn mismatched_window_length_is_rejected_up_front() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let err = StreamSession::new(0, &server, SessionConfig::new(T + 1, 1));
    assert!(matches!(err, Err(StreamError::Config { .. })));

    let mut runner = StreamRunner::new(&server);
    let video = workload()[0].0.clone();
    runner.add_stream(ReplaySource::new(video), SessionConfig::new(T + 1, 1));
    let err = runner.run(|_, _| {});
    assert!(matches!(err, Err(StreamError::Config { .. })));

    // And the unified error face works one layer up.
    let unified: snappix::Error = err.expect_err("config error").into();
    assert!(matches!(unified, snappix::Error::Stream(_)));
}

/// Non-finite and non-positive frame rates are config errors, not
/// silently-clamped intervals.
#[test]
fn bad_frame_rates_are_rejected_up_front() {
    for bad in [0.0, -1.0, -30.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = Pacing::fps(bad).expect_err("bad fps must be rejected");
        assert!(
            matches!(err, StreamError::Config { .. }),
            "fps {bad}: {err}"
        );
        assert!(
            err.to_string().contains("fps"),
            "error should name the knob: {err}"
        );
    }
    // The boundary of validity: tiny-but-positive and huge-but-finite
    // rates are legal.
    assert!(Pacing::fps(0.001).is_ok());
    assert!(Pacing::fps(1e6).is_ok());
}

/// Real-time pacing feeds frames on schedule: a short 2-stream run at a
/// brisk rate still infers every window (this is a smoke test of the
/// pacing path, not a latency assertion — CI machines are noisy).
#[test]
fn real_time_pacing_serves_every_window_when_unloaded() {
    let data = Dataset::new(ssv2_like(12, HW, HW), 2);
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let mut runner = StreamRunner::new(&server).with_pacing(Pacing::fps(500.0).expect("valid fps"));
    for i in 0..2 {
        runner.add_stream(
            ReplaySource::new(data.sample(i).video),
            SessionConfig::new(T, 2),
        );
    }
    let report = runner.run(|_, _| {}).expect("run");
    assert_eq!(report.aggregate.frames, 24);
    assert_eq!(report.aggregate.windows, report.aggregate.inferred);
    assert!(report.wall >= Duration::from_millis(20), "pacing slept");
}

/// A stream's latency summary comes from the same samples as the
/// server registry's window-latency histogram: with one session on the
/// server, the two agree exactly.
#[test]
fn single_stream_latency_matches_the_registry_histogram() {
    let (video, hop) = (&workload()[3].0, 3);
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let session = StreamSession::new(0, &server, raw_config(hop)).expect("session");
    let (report, _) = stream_video(session, video);
    let registered = server
        .metrics()
        .histogram(
            "snappix_stream_window_latency_seconds",
            "End-to-end window latency.",
            HistogramOpts::nanos(),
        )
        .snapshot();
    assert_eq!(registered.count, ((FRAMES - T) / hop + 1) as u64);
    assert_eq!(registered.count, report.stats.inferred);
    assert_eq!(report.latency_histogram, registered);
    assert_eq!(
        report.stats.latency,
        LatencySummary::from_histogram(&registered)
    );
}

/// Compile-time pin: the whole streaming object graph crosses threads.
#[test]
fn streaming_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<StreamSession<'static>>();
    assert_send::<StreamRunner<'static>>();
    assert_send::<ReplaySource>();
    assert_send::<SyntheticSource>();
    assert_send::<StreamError>();
    assert_send::<RunReport>();
}
