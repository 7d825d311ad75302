//! Workspace-level integration suite for the `.spx` weight artifact.
//!
//! The guarantee under test: loading weights through the zero-copy
//! artifact path must be *operationally* different from holding the
//! checkpoint in memory (one shared read-only payload buffer instead of
//! per-replica copies) while staying *numerically* invisible —
//! bit-for-bit the in-memory checkpoint's logits on both backends, at
//! every thread count, whether inference runs through a bare
//! `Pipeline`, the batched server, or a frame stream.

use snappix_stream::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 5;

fn model() -> SnapPixAr {
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("valid model")
}

fn clips(n: usize) -> Vec<Tensor> {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xbeef);
    (0..n)
        .map(|_| Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0))
        .collect()
}

/// The same clips as one `[n, t, h, w]` batch for `Pipeline::infer`.
fn clip_batch(n: usize) -> Tensor {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xbeef);
    Tensor::rand_uniform(&mut rng, &[n, T, HW, HW], 0.0, 1.0)
}

/// The "trained" model: every parameter of the seeded [`model`]
/// perturbed deterministically, so a pipeline that skipped loading the
/// artifact would answer with the fresh model's logits and fail.
fn checkpoint() -> SnapPixAr {
    let mut m = model();
    let store = m.store_mut();
    for id in store.ids() {
        store.value_mut(id).map_inplace(|x| x * 0.5 + 0.01);
    }
    m
}

/// Writes the checkpoint's weights as a `.spx` artifact.
fn checkpoint_artifact(tag: &str) -> PathBuf {
    let mut spx = std::env::temp_dir();
    spx.push(format!(
        "snappix_it_artifact_{}_{tag}.spx",
        std::process::id()
    ));
    write_artifact(checkpoint().store(), &spx).expect("artifact save");
    spx
}

/// Both backends, thread counts 1 and 2: an artifact-loaded pipeline is
/// bit-for-bit the in-memory checkpoint.
#[test]
fn artifact_and_checkpoint_pipelines_agree_bit_for_bit() {
    let spx = checkpoint_artifact("pipelines");
    let clips = clip_batch(4);
    // The checkpoint must answer differently from a fresh model, or the
    // comparisons below could not tell a load from a skipped one.
    let mut fresh = Pipeline::builder(model()).build().expect("assembly");
    let mut trained = Pipeline::builder(checkpoint()).build().expect("assembly");
    let fresh_logits = fresh.infer(&clips).expect("fresh inference").logits;
    let trained_logits = trained.infer(&clips).expect("checkpoint inference").logits;
    assert!(
        !fresh_logits.approx_eq(&trained_logits, 0.0),
        "the checkpoint must not answer like a fresh model"
    );
    for threads in [1, 2] {
        // Algorithmic encoder.
        let mut reference = Pipeline::builder(checkpoint())
            .with_threads(threads)
            .build()
            .expect("assembly");
        let mut artifact = Pipeline::builder(model())
            .with_artifact(&spx)
            .expect("artifact open")
            .with_threads(threads)
            .build()
            .expect("assembly");
        let a = reference.infer(&clips).expect("checkpoint inference");
        let b = artifact.infer(&clips).expect("artifact inference");
        assert_eq!(a.labels, b.labels, "threads {threads}");
        assert!(
            a.logits.approx_eq(&b.logits, 0.0),
            "threads {threads}: artifact logits must be bit-for-bit checkpoint logits"
        );

        // Hardware sensor (noiseless, so deterministic).
        let mut reference_hw = Pipeline::builder(checkpoint())
            .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
            .expect("sensor assembly")
            .with_threads(threads)
            .build()
            .expect("assembly");
        let mut artifact_hw = Pipeline::builder(model())
            .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
            .expect("sensor assembly")
            .with_artifact(&spx)
            .expect("artifact open")
            .with_threads(threads)
            .build()
            .expect("assembly");
        let a = reference_hw.infer(&clips).expect("checkpoint hw inference");
        let b = artifact_hw.infer(&clips).expect("artifact hw inference");
        assert_eq!(a.labels, b.labels, "hw threads {threads}");
        assert!(
            a.logits.approx_eq(&b.logits, 0.0),
            "hw threads {threads}: artifact logits must be bit-for-bit checkpoint logits"
        );
    }
    std::fs::remove_file(spx).ok();
}

/// An artifact-fed server answers concurrent batched clients bit-for-bit
/// like a serial pipeline over the in-memory checkpoint.
#[test]
fn served_answers_from_an_artifact_match_the_serial_baseline() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let spx = checkpoint_artifact("serve");
    let all = clips(CLIENTS * PER_CLIENT);

    let mut serial = Pipeline::builder(checkpoint()).build().expect("assembly");
    let reference: Vec<Prediction> = all
        .iter()
        .map(|c| serial.infer_clip(c).expect("serial inference"))
        .collect();

    let server = Server::builder(Pipeline::builder(model()))
        .with_artifact(&spx)
        .expect("artifact open")
        .with_workers(2)
        .with_queue_depth(CLIENTS * PER_CLIENT)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(2)))
        .build()
        .expect("server assembly");

    let served: Vec<Vec<Prediction>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let all = &all;
                let server = &server;
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|i| {
                            let ticket = server
                                .submit(&all[i * CLIENTS + client])
                                .expect("admission");
                            ticket.wait().expect("prediction")
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (client, results) in served.iter().enumerate() {
        for (i, prediction) in results.iter().enumerate() {
            let expected = &reference[i * CLIENTS + client];
            assert_eq!(prediction.label, expected.label, "client {client} clip {i}");
            assert!(
                prediction.logits.approx_eq(&expected.logits, 0.0),
                "client {client} clip {i}: served artifact logits must be bit-for-bit serial"
            );
        }
    }
    std::fs::remove_file(spx).ok();
}

/// Streaming over an artifact-fed server reproduces the offline
/// checkpoint reference per window.
#[test]
fn streamed_windows_over_an_artifact_server_match_offline() {
    const FRAMES: usize = 21;
    let spx = checkpoint_artifact("stream");
    let video = Dataset::new(ssv2_like(FRAMES, HW, HW), 1).sample(0).video;
    let hop = 3;

    let mut offline = Pipeline::builder(checkpoint()).build().expect("assembly");
    let reference: Vec<Prediction> = video
        .windows(T, hop)
        .map(|w| offline.infer_clip(&w).expect("offline inference"))
        .collect();

    let server = Server::builder(Pipeline::builder(model()))
        .with_artifact(&spx)
        .expect("artifact open")
        .with_workers(2)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(2)))
        .build()
        .expect("server assembly");
    let mut runner = StreamRunner::new(&server);
    runner.add_stream(
        ReplaySource::new(video),
        SessionConfig::new(T, hop)
            .with_smoothing(Smoothing::Off)
            .with_hysteresis(1),
    );
    let records = Mutex::new(Vec::new());
    let report = runner
        .run(|_, record| records.lock().expect("sink lock").push(record))
        .expect("streaming run");
    let records = records.into_inner().expect("sink lock");

    assert_eq!(records.len() as u64, report.streams[0].stats.windows);
    assert_eq!(records.len(), reference.len());
    for (k, (record, offline)) in records.iter().zip(&reference).enumerate() {
        let WindowOutcome::Inferred { prediction, .. } = &record.outcome else {
            panic!("window {k} was not inferred: {:?}", record.outcome);
        };
        assert_eq!(record.index, k, "results arrive in window order");
        assert_eq!(prediction.label, offline.label, "window {k}");
        assert!(
            prediction.logits.approx_eq(&offline.logits, 0.0),
            "window {k}: streamed artifact logits must be bit-for-bit offline"
        );
    }
    std::fs::remove_file(spx).ok();
}

/// Replicas stamped from an artifact recipe all view the *same* payload
/// buffer — one `Arc` allocation for the whole fleet, verified by
/// pointer identity and by the deduplicating byte accounting.
#[test]
fn artifact_replicas_share_one_payload_buffer() {
    let spx = checkpoint_artifact("replicas");
    let replicas = Pipeline::builder(model())
        .with_artifact(&spx)
        .expect("artifact open")
        .build_replicas(4)
        .expect("replica assembly");

    // Every parameter of every replica windows one payload allocation.
    let first_store = replicas[0].model().store();
    let payload = first_store.value(first_store.ids()[0]).shared_buffer();
    for (r, replica) in replicas.iter().enumerate() {
        let store = replica.model().store();
        for id in store.ids() {
            let buf = store.value(id).shared_buffer();
            assert!(
                Arc::ptr_eq(payload, buf),
                "replica {r}: every param must view the single artifact payload"
            );
        }
    }

    // Resident bytes: four replicas cost one payload, not four.
    let solo = Pipeline::builder(model())
        .with_artifact(&spx)
        .expect("artifact open")
        .build()
        .expect("assembly");
    assert_eq!(resident_weight_bytes(&replicas), solo.weight_bytes());
    std::fs::remove_file(spx).ok();
}

/// The serve-layer gauge: resident weight bytes stay exactly flat as the
/// worker count scales 1 → 4 → 8 over one artifact.
#[test]
fn resident_weight_bytes_stay_flat_as_workers_scale() {
    let spx = checkpoint_artifact("workers");
    let solo_bytes = Pipeline::builder(model())
        .with_artifact(&spx)
        .expect("artifact open")
        .build()
        .expect("assembly")
        .weight_bytes() as u64;
    assert!(solo_bytes > 0);

    for workers in [1, 4, 8] {
        let server = Server::builder(Pipeline::builder(model()))
            .with_artifact(&spx)
            .expect("artifact open")
            .with_workers(workers)
            .build()
            .expect("server assembly");
        let stats = server.stats();
        assert_eq!(
            stats.resident_weight_bytes, solo_bytes,
            "{workers} workers must keep exactly one resident weight copy"
        );
        drop(server);
    }
    std::fs::remove_file(spx).ok();
}
