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
    model_at(32)
}

fn model_at(side: usize) -> SnapPixAr {
    let mut rng = StdRng::seed_from_u64(33);
    let mask = patterns::random(8, (8, 8), 0.5, &mut rng).expect("valid dims");
    SnapPixAr::new(VitConfig::snappix_s(side, side, 7), mask).expect("geometry")
}

fn clips(batch: usize) -> Tensor {
    clips_at(batch, 32)
}

fn clips_at(batch: usize, side: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(34);
    Tensor::rand_uniform(&mut rng, &[batch, 8, side, side], 0.0, 1.0)
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

/// `infer` shards a batch by clip across the pipeline's threads when
/// its forward work pays for more than one worker (about two shards per
/// worker, the caller working one of them). At this 32x32 geometry
/// batches of 1-3 clips run as one serial pass and batches of 8 and 9
/// shard, on fewer workers than 6 or 64 threads offer. The logits must
/// equal the serial pass bit for bit at every batch size. One pipeline per thread count serves every batch
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
        // Serial and sharded batches alternate: 1, 2 and 3 clips run as
        // one pass, 8 and 9 shard, then 8 and 1 again.
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

/// Runs each batch through one pipeline at `threads`, on the hardware
/// sensor or the algorithmic encoder.
fn infer_batches(
    side: usize,
    hardware: bool,
    threads: usize,
    batches: &[Tensor],
) -> Vec<Inference> {
    let builder = Pipeline::builder(model_at(side)).with_threads(threads);
    if hardware {
        let mut p = builder
            .with_hardware_sensor(ReadoutConfig::noiseless(12, 8.0))
            .expect("sensor assembly")
            .build()
            .expect("assembly");
        batches
            .iter()
            .map(|b| p.infer(b).expect("inference"))
            .collect()
    } else {
        let mut p = builder.build().expect("assembly");
        batches
            .iter()
            .map(|b| p.infer(b).expect("inference"))
            .collect()
    }
}

/// The pipeline only shards a batch whose forward work is worth two
/// workers, so this case picks geometries where every batch clears that
/// bar: 32x32 at 8-9 clips and 64x64 (about 1.70 M MACs per clip) at
/// 2-3. Several plans leave the shard count indivisible by the worker
/// count (32x32x8 at 3 threads: four shards on three workers; 64x64x3
/// at 2: three 1-clip shards on two). Both backends must give the
/// serial logits bit for bit.
#[test]
fn every_sharded_batch_matches_serial_on_both_backends() {
    // Two workers' worth of the pipeline's per-worker floor; keep in
    // step with `FORWARD_MACS_PER_WORKER` in crates/snappix/src/pipeline.rs.
    const SHARDS_ABOVE: usize = 2 << 19;
    for (side, sizes) in [(32usize, [8usize, 9]), (64, [2, 3])] {
        let macs = VitConfig::snappix_s(side, side, 7).macs_per_clip();
        let all = clips_at(sizes[1], side);
        let batches: Vec<Tensor> = sizes
            .iter()
            .map(|&n| {
                assert!(n * macs >= SHARDS_ABOVE, "{side}x{side}x{n} must shard");
                all.slice_axis(0, 0, n).expect("prefix batch")
            })
            .collect();
        for hardware in [false, true] {
            let reference = infer_batches(side, hardware, 1, &batches);
            for threads in [2usize, 3, 6, 64] {
                let outs = infer_batches(side, hardware, threads, &batches);
                for ((out, want), n) in outs.iter().zip(&reference).zip(sizes) {
                    let what = format!("{side}x{side}x{n}, hardware {hardware}, {threads} threads");
                    assert_eq!(out.labels, want.labels, "{what}");
                    assert_eq!(
                        out.logits.as_slice(),
                        want.logits.as_slice(),
                        "logits must be bit-for-bit at {what}"
                    );
                }
            }
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
