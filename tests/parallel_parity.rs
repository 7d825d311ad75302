//! End-to-end parity suite for the shared data-parallel layer
//! (`snappix_tensor::parallel`): every parallelized kernel, driven
//! through the public API, must match its single-thread serial reference
//! **bit-for-bit** at thread counts 1, 2 and far more workers than there
//! are rows/bands/batches to split.
//!
//! Bit-for-bit (not approximate) equality holds by construction: every
//! kernel partitions its *output* across workers and preserves the
//! serial per-element accumulation order, so no float reassociation
//! occurs anywhere. Per-kernel unit parity tests live next to the
//! kernels (tensor `ops`, nn `conv`, ce `stats`, sensor `array`); this
//! suite checks the composition all the way through `Pipeline`.

use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 6, 64];

fn model() -> SnapPixAr {
    let mut rng = StdRng::seed_from_u64(33);
    let mask = patterns::random(8, (8, 8), 0.5, &mut rng).expect("valid dims");
    SnapPixAr::new(VitConfig::snappix_s(32, 32, 7), mask).expect("geometry")
}

fn clips(batch: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(34);
    Tensor::rand_uniform(&mut rng, &[batch, 8, 32, 32], 0.0, 1.0)
}

/// The full inference engine — algorithmic sensing plus the ViT forward
/// (matmul-heavy) — is thread-count invariant through the builder knob.
#[test]
fn pipeline_inference_is_thread_count_invariant() {
    let clips = clips(5);
    let reference = {
        let mut p = Pipeline::builder(model())
            .with_threads(1)
            .build()
            .expect("assembly");
        assert_eq!(p.threads(), Some(1));
        p.infer(&clips).expect("serial inference")
    };
    for threads in THREAD_COUNTS {
        let mut p = Pipeline::builder(model())
            .with_threads(threads)
            .build()
            .expect("assembly");
        let out = p.infer(&clips).expect("parallel inference");
        assert_eq!(out.labels, reference.labels, "{threads} threads");
        assert_eq!(
            out.logits.as_slice(),
            reference.logits.as_slice(),
            "logits must be bit-for-bit at {threads} threads"
        );
    }
}

/// `infer` shards each batch by clip across the pipeline's threads
/// (about two shards per thread, the caller working one of them). The
/// sharded logits must equal the serial pass bit for bit at every batch
/// size, including batches smaller than, equal to and not divisible by
/// the shard count. One pipeline per thread count serves every batch
/// size in turn, so its per-shard session pools grow, sit partly idle
/// and are reused across calls.
#[test]
fn sharded_inference_matches_serial_at_every_batch_size() {
    const BATCHES: [usize; 5] = [1, 2, 3, 8, 9];
    let all = clips(9);
    let batch = |n: usize| all.slice_axis(0, 0, n).expect("prefix batch");
    let mut serial = Pipeline::builder(model())
        .with_threads(1)
        .build()
        .expect("assembly");
    let reference: Vec<Inference> = BATCHES
        .iter()
        .map(|&n| serial.infer(&batch(n)).expect("serial inference"))
        .collect();
    for threads in [2usize, 3, 6, 64] {
        let mut p = Pipeline::builder(model())
            .with_threads(threads)
            .build()
            .expect("assembly");
        // The shard count rises and falls: 1, 2, 3, 8, 9, 8, then 1 clip.
        for k in [0usize, 1, 2, 3, 4, 3, 0] {
            let n = BATCHES[k];
            let out = p.infer(&batch(n)).expect("sharded inference");
            assert_eq!(
                out.labels, reference[k].labels,
                "batch {n}, {threads} threads"
            );
            assert_eq!(
                out.logits.as_slice(),
                reference[k].logits.as_slice(),
                "logits must be bit-for-bit at batch {n}, {threads} threads"
            );
        }
    }
}

/// The hardware-simulation path (banded capture + readout) is
/// thread-count invariant too, and the scoped ambient override
/// (`parallel::with_threads`) behaves like the builder knob.
#[test]
fn hardware_sensing_is_thread_count_invariant() {
    let clips = clips(2);
    let infer = |threads: usize| {
        parallel::with_threads(threads, || {
            let mut p = Pipeline::builder(model())
                .with_hardware_sensor(ReadoutConfig::noiseless(12, 8.0))
                .expect("sensor assembly")
                .build()
                .expect("assembly");
            assert_eq!(p.threads(), None, "ambient override, not the knob");
            p.infer(&clips).expect("inference")
        })
    };
    let reference = infer(1);
    for threads in THREAD_COUNTS {
        let out = infer(threads);
        assert_eq!(
            out.logits.as_slice(),
            reference.logits.as_slice(),
            "{threads} threads"
        );
    }
}

/// A full training step (conv/matmul forwards + backwards through
/// autograd) is thread-count invariant: same losses, bit-for-bit.
#[test]
fn training_step_is_thread_count_invariant() {
    use snappix_video::ucf101_like;
    let train = |threads: usize| {
        parallel::with_threads(threads, || {
            let mut model = C3d::new(8, 16, 16, 8).expect("model");
            let data = Dataset::new(ucf101_like(8, 16, 16), 8);
            let report = train_action_model(
                &mut model,
                &data,
                &TrainOptions {
                    epochs: 1,
                    batch_size: 4,
                    lr: 1e-3,
                    clip_norm: Some(5.0),
                    cosine_schedule: false,
                    seed: 9,
                },
            )
            .expect("training");
            report.losses
        })
    };
    let reference = train(1);
    for threads in [2usize, 16] {
        let losses = train(threads);
        assert_eq!(losses, reference, "{threads} threads");
    }
}

/// `evaluate_accuracy` (the former hardcoded `.min(4)` call site) is
/// sharding invariant.
#[test]
fn accuracy_evaluation_is_thread_count_invariant() {
    use snappix_video::ssv2_like;
    let model = model();
    let data = Dataset::new(ssv2_like(8, 32, 32), 11);
    let reference =
        parallel::with_threads(1, || evaluate_accuracy(&model, &data).expect("evaluation"));
    for threads in THREAD_COUNTS {
        let acc =
            parallel::with_threads(threads, || evaluate_accuracy(&model, &data).expect("eval"));
        assert_eq!(acc, reference, "{threads} threads");
    }
}
