//! Set-up shared by the workloads: the seeded SnapPix-S model and clips,
//! reference logits from a serial offline pipeline, the `.spx` artifact,
//! repeated timed set-up, and the direct probes of single layers.

use crate::report::{median, ms, us, Outcome};
use rand::{rngs::StdRng, SeedableRng};
use snappix_fleet::prelude::*;
use snappix_nn::SessionPool;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Exposure slots per clip (frames per window).
pub const T: usize = 16;
/// Output classes of the served model.
pub const CLASSES: usize = 10;
/// CE tile edge, equal to the ViT patch (the paper's co-design).
pub const TILE: usize = 8;
/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One benchmark run's arguments, as the workloads see them.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Workload seed: masks, clips, schedules and videos derive from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
}

impl Run {
    /// `fraction` of the measured phase.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// A generator for one input stream of this run; `stream` keeps the
    /// streams (mask, clips, schedule, ...) independent of each other.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(stream),
        )
    }
}

/// SnapPix-S at `hw x hw` over `T` slots with a seeded random mask.
pub fn model(run: &Run, hw: usize) -> SnapPixAr {
    let mask = patterns::random(T, (TILE, TILE), 0.5, &mut run.rng(1)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(hw, hw, CLASSES), mask).expect("SnapPix-S geometry")
}

/// `n` seeded `[T, hw, hw]` clips.
pub fn clips(run: &Run, n: usize, hw: usize) -> Vec<Tensor> {
    let mut rng = run.rng(2);
    (0..n)
        .map(|_| Tensor::rand_uniform(&mut rng, &[T, hw, hw], 0.0, 1.0))
        .collect()
}

/// Stacks consecutive groups of `batch` clips into `[batch, T, h, w]`
/// tensors.
pub fn batches(clips: &[Tensor], batch: usize) -> Vec<Tensor> {
    clips
        .chunks(batch)
        .map(|group| {
            let refs: Vec<&Tensor> = group.iter().collect();
            Tensor::stack(&refs, 0).expect("uniform clip shapes")
        })
        .collect()
}

/// Reference logits, one row per clip, from a serial offline pipeline
/// over the in-memory model; every measured answer must equal its row
/// bit for bit.
pub struct Reference(Vec<Vec<u32>>);

impl Reference {
    /// Classifies each clip alone through `Pipeline::infer_clip` with one
    /// thread.
    pub fn compute(model: &SnapPixAr, clips: &[Tensor]) -> Self {
        let mut pipeline = Pipeline::builder(model.clone())
            .with_threads(1)
            .build()
            .expect("reference pipeline");
        Reference(
            clips
                .iter()
                .map(|clip| {
                    let prediction = pipeline.infer_clip(clip).expect("reference inference");
                    bits(prediction.logits.as_slice())
                })
                .collect(),
        )
    }

    /// Whether `logits` equal clip `clip`'s reference row bit for bit.
    pub fn matches(&self, clip: usize, logits: &[f32]) -> bool {
        self.0[clip] == bits(logits)
    }

    /// Checks row `r` of a `[batch, classes]` logits tensor against clip
    /// `clips[r]`, tallying each clip in `out`.
    pub fn check_rows(&self, out: &mut Outcome, clips: &[usize], logits: &Tensor) {
        let rows = logits.as_slice().chunks(CLASSES);
        if rows.len() != clips.len() {
            out.tally(clips.len() as u64, clips.len() as u64);
            return;
        }
        for (&clip, row) in clips.iter().zip(rows) {
            out.check(self.matches(clip, row));
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Where this run writes its `.spx` artifact: a git-ignored scratch
/// directory inside the benchmark package, one file per process.
pub fn artifact_path(workload: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch");
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir.join(format!("{workload}-{}.spx", std::process::id()))
}

/// Writes `model`'s weights to a sealed artifact at `path` and opens it
/// again, returning the reader and the time `ArtifactReader::open` took.
pub fn write_and_open(model: &SnapPixAr, path: &Path) -> (ArtifactReader, Duration) {
    write_artifact(model.store(), path).expect("write the .spx artifact");
    let started = Instant::now();
    let reader = ArtifactReader::open(path).expect("open the .spx artifact");
    (reader, started.elapsed())
}

/// The harness a timed set-up produced, with the median set-up time and
/// median artifact-open time over the repeats.
pub struct Setup<H> {
    pub harness: H,
    pub setup_s: f64,
    pub open_ms: f64,
}

/// Runs `build` [`SETUPS`] times, timing each whole set-up, and keeps the
/// last harness; earlier ones are torn down outside the timing. `build`
/// returns the harness and its artifact-open time.
pub fn repeat_setup<H>(mut build: impl FnMut() -> (H, Duration)) -> Setup<H> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut opens = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        let (harness, open) = build();
        times.push(started.elapsed().as_secs_f64());
        opens.push(ms(open));
        last = Some(harness);
    }
    Setup {
        harness: last.expect("at least one set-up"),
        setup_s: median(&times),
        open_ms: median(&opens),
    }
}

/// Records the metrics every workload shares once its measured phases
/// are over.
pub fn finish(out: &mut Outcome, setup_s: f64, open_ms: f64) {
    out.set("setup_s", setup_s);
    out.set("nn.artifact_open_ms", open_ms);
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    let failed_share = crate::report::share(out.failed as f64, out.attempted as f64);
    out.set("failed_share", failed_share);
}

/// Calls `op` until `budget` has passed (at least once) and returns the
/// median per-call time.
fn median_call(budget: Duration, mut op: impl FnMut(usize)) -> Duration {
    let deadline = Instant::now() + budget;
    let mut times = Vec::new();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let started = Instant::now();
        op(i);
        times.push(started.elapsed().as_secs_f64());
        i += 1;
    }
    Duration::from_secs_f64(median(&times))
}

/// `ce` probe: `AlgorithmicEncoder::sense_batch` timed directly over
/// `batches`; records `ce.encode_us_per_clip` and returns the coded
/// batches for the forward probe.
pub fn probe_encoder(
    out: &mut Outcome,
    model: &SnapPixAr,
    batches: &[Tensor],
    budget: Duration,
) -> Vec<Tensor> {
    let mut encoder = AlgorithmicEncoder::new(model.mask().clone())
        .with_normalization(model.normalize_by_exposure);
    let coded: Vec<Tensor> = batches
        .iter()
        .map(|b| encoder.sense_batch(b).expect("encode"))
        .collect();
    let per_call = median_call(budget, |i| {
        std::hint::black_box(
            encoder
                .sense_batch(&batches[i % batches.len()])
                .expect("encode"),
        );
    });
    out.set(
        "ce.encode_us_per_clip",
        us(per_call) / batches[0].shape()[0] as f64,
    );
    coded
}

/// `models`/`autograd` probe: the forward path re-run from outside
/// through `SessionPool::inference` and `build_logits_from_coded`, each
/// answer checked against the reference. Records
/// `models.forward_us_per_clip` and `autograd.nodes_per_forward` (the
/// tape length, which must be the same on every call).
pub fn probe_forward(
    out: &mut Outcome,
    model: &SnapPixAr,
    coded: &[Tensor],
    reference: &Reference,
    budget: Duration,
) {
    let batch = coded[0].shape()[0];
    let mut pool = SessionPool::new();
    let mut nodes = Vec::new();
    let mut answers = Vec::new();
    let per_call = median_call(budget, |i| {
        let k = i % coded.len();
        let mut sess = pool.inference(model.store());
        let logits = model
            .build_logits_from_coded(&mut sess, &coded[k])
            .map(|var| sess.graph.value(var).clone());
        nodes.push(sess.graph.len());
        pool.reclaim(sess);
        if i < coded.len() {
            answers.push(logits);
        }
    });
    for (k, logits) in answers.into_iter().enumerate() {
        let clips: Vec<usize> = (k * batch..(k + 1) * batch).collect();
        match logits {
            Ok(logits) => reference.check_rows(out, &clips, &logits),
            Err(_) => out.tally(batch as u64, batch as u64),
        }
    }
    let (fewest, most) = (nodes.iter().min(), nodes.iter().max());
    if fewest != most {
        out.broke(format!(
            "autograd.nodes_per_forward varied across calls: {fewest:?} to {most:?}"
        ));
    }
    out.set("models.forward_us_per_clip", us(per_call) / batch as f64);
    out.set("autograd.nodes_per_forward", nodes[0] as f64);
}

/// Records `pipeline.*` from a profile delta: stage time per clip and
/// the share of `wall` (the time the caller saw the pipeline take) that
/// no stage accounts for.
pub fn record_profile(out: &mut Outcome, profile: &PipelineProfile, wall: Duration) {
    let clips = profile.clips.max(1) as f64;
    let stages = profile.sense.total + profile.forward.total + profile.readout.total;
    out.set(
        "pipeline.sense_us_per_clip",
        us(profile.sense.total) / clips,
    );
    out.set(
        "pipeline.forward_us_per_clip",
        us(profile.forward.total) / clips,
    );
    out.set(
        "pipeline.readout_us_per_clip",
        us(profile.readout.total) / clips,
    );
    out.set(
        "pipeline.unattributed_share",
        crate::report::share(
            wall.saturating_sub(stages).as_secs_f64(),
            wall.as_secs_f64(),
        ),
    );
}

/// `after - before` for the cumulative stage totals and counters of a
/// pipeline profile (the per-stage maxima are not differences and are
/// left at zero).
pub fn profile_delta(before: &PipelineProfile, after: &PipelineProfile) -> PipelineProfile {
    let stage = |b: &StageProfile, a: &StageProfile| StageProfile {
        calls: a.calls - b.calls,
        total: a.total.saturating_sub(b.total),
        max: Duration::ZERO,
    };
    PipelineProfile {
        sense: stage(&before.sense, &after.sense),
        forward: stage(&before.forward, &after.forward),
        readout: stage(&before.readout, &after.readout),
        batches: after.batches - before.batches,
        clips: after.clips - before.clips,
    }
}

/// Records the `serve.*` metrics a [`ServerStats`] snapshot carries
/// (admission time is measured only by the open loop).
pub fn record_server(out: &mut Outcome, stats: &ServerStats) {
    out.set("serve.queue_wait_ms_p50", ms(stats.queue_latency.p50));
    out.set("serve.queue_wait_ms_p99", ms(stats.queue_latency.p99));
    out.set("serve.compute_ms_p50", ms(stats.compute_latency.p50));
    out.set("serve.batch_mean", stats.mean_batch_size());
    out.set("serve.shed", stats.rejected as f64);
    out.set("serve.expired", stats.expired as f64);
    if let Err(drift) = stats.check_conserved() {
        out.broke(format!("server ledger not conserved: {drift}"));
    }
}

/// Records `trace.overhead_share`: the throughput the traced phase lost
/// against the untraced one, as a share of the untraced throughput.
pub fn record_overhead(out: &mut Outcome, untraced_per_s: f64, traced_per_s: f64) {
    out.set(
        "trace.overhead_share",
        crate::report::share(untraced_per_s - traced_per_s, untraced_per_s),
    );
}
