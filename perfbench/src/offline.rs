//! `offline_batch`: one thread runs `Pipeline::infer` in a closed loop at
//! batch 8, T=16, 32x32, with the algorithmic encoder and the default
//! thread budget. No queue and no wire: `ce`, `forward` and `tensor`
//! changes show here undiluted.

use crate::common::{self, Reference, Run};
use crate::report::{ms, quantile, Outcome, Sliced};
use snappix_fleet::prelude::*;
use std::time::{Duration, Instant};

const HW: usize = 32;
const BATCH: usize = 8;
/// Distinct batches cycled through the loop.
const BATCHES: usize = 8;

/// Untraced/traced slice pairs the overhead comparison interleaves.
const OVERHEAD_SLICES: usize = 4;
/// Time slice the end-to-end figures are read over (hundreds of calls).
const SLICE: Duration = Duration::from_secs(1);

/// What one closed-loop phase measured.
struct Phase {
    clips: u64,
    elapsed: Duration,
    /// Wall time inside `infer` calls.
    busy: Duration,
    latencies_ms: Sliced,
}

impl Phase {
    fn per_s(&self) -> f64 {
        self.clips as f64 / self.elapsed.as_secs_f64()
    }
}

/// Clips, wall time, busy time and call latencies summed over several
/// phases.
#[derive(Default)]
struct Totals {
    clips: u64,
    elapsed: Duration,
    busy: Duration,
    latencies_ms: Vec<f64>,
}

impl Totals {
    fn add(&mut self, phase: &Phase) {
        self.clips += phase.clips;
        self.elapsed += phase.elapsed;
        self.busy += phase.busy;
        self.latencies_ms.extend(phase.latencies_ms.all());
    }

    fn per_s(&self) -> f64 {
        self.clips as f64 / self.elapsed.as_secs_f64()
    }
}

fn closed_loop(
    out: &mut Outcome,
    pipeline: &mut Pipeline,
    batches: &[Tensor],
    reference: &Reference,
    length: Duration,
) -> Phase {
    let started = Instant::now();
    let mut phase = Phase {
        clips: 0,
        elapsed: Duration::ZERO,
        busy: Duration::ZERO,
        latencies_ms: Sliced::new(started, SLICE),
    };
    let mut i = 0;
    while i == 0 || started.elapsed() < length {
        let k = i % batches.len();
        let call = Instant::now();
        let answer = pipeline.infer(&batches[k]);
        let took = call.elapsed();
        let clips: Vec<usize> = (k * BATCH..(k + 1) * BATCH).collect();
        match answer {
            Ok(inference) => reference.check_rows(out, &clips, &inference.logits),
            Err(_) => out.tally(BATCH as u64, BATCH as u64),
        }
        phase.busy += took;
        phase.latencies_ms.push(call + took, ms(took));
        phase.clips += BATCH as u64;
        i += 1;
    }
    phase.elapsed = started.elapsed();
    phase.latencies_ms.close(started + phase.elapsed);
    phase
}

pub fn run(run: &Run) -> Outcome {
    let clips = common::clips(run, BATCH * BATCHES, HW);
    let reference = Reference::compute(&common::model(run, HW), &clips);
    let batches = common::batches(&clips, BATCH);
    let path = common::artifact_path("offline_batch");

    let setup = common::repeat_setup(|| {
        let model = common::model(run, HW);
        let (reader, open) = common::write_and_open(&model, &path);
        let mut pipeline = Pipeline::builder(model)
            .with_artifact_reader(&reader)
            .expect("artifact matches the model")
            .build()
            .expect("pipeline");
        for batch in &batches {
            pipeline.infer(batch).expect("warm-up inference");
        }
        (pipeline, open)
    });
    std::fs::remove_file(&path).ok();
    let mut pipeline = setup.harness;
    let mut out = Outcome::default();

    if run.trace {
        // Slices with and without the profile spans, interleaved so
        // drift hits both sides alike.
        let slice = run.share(0.8 / (2 * OVERHEAD_SLICES) as f64);
        let (mut untraced, mut traced) = (Totals::default(), Totals::default());
        let mut profile = PipelineProfile::default();
        for _ in 0..OVERHEAD_SLICES {
            pipeline.take_profile();
            untraced.add(&closed_loop(
                &mut out,
                &mut pipeline,
                &batches,
                &reference,
                slice,
            ));
            pipeline.take_profile();
            traced.add(&closed_loop(
                &mut out,
                &mut pipeline,
                &batches,
                &reference,
                slice,
            ));
            profile.merge(&pipeline.take_profile());
        }
        common::record_profile(&mut out, &profile, traced.busy);
        common::record_overhead(&mut out, untraced.per_s(), traced.per_s());
        out.set("latency_p99_ms", quantile(&traced.latencies_ms, 0.99));
        let coded = common::probe_encoder(&mut out, pipeline.model(), &batches, run.share(0.1));
        common::probe_forward(
            &mut out,
            pipeline.model(),
            &coded,
            &reference,
            run.share(0.1),
        );
    } else {
        let phase = closed_loop(
            &mut out,
            &mut pipeline,
            &batches,
            &reference,
            run.share(1.0),
        );
        out.set("throughput_per_s", phase.latencies_ms.rate(BATCH as f64));
        out.set("latency_p50_ms", phase.latencies_ms.median(0.5));
        out.set("latency_p99_ms", phase.latencies_ms.tail(0.99));
        out.notes.push(format!(
            "{} infer calls of {BATCH} clips at {HW}x{HW}, T={}: {:.0} clips/s over the whole phase",
            phase.latencies_ms.len(),
            common::T,
            phase.per_s(),
        ));
    }
    common::finish(&mut out, setup.setup_s, setup.open_ms);
    out
}
