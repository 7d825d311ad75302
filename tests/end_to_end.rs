//! Workspace integration test: the full SnapPix pipeline from mask
//! learning through batched deployment on the simulated sensor hardware.

use snappix::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

const T: usize = 8;
const HW: usize = 24;
const CLASSES: usize = 8;

type DeployedPipeline = Pipeline<HardwareSensor>;

static SHARED: OnceLock<(Mutex<DeployedPipeline>, Dataset)> = OnceLock::new();

/// Trains the full pipeline once and shares it across the tests in this
/// file (training is the expensive part; the tests probe different
/// properties of the same deployed engine).
fn trained_pipeline() -> (MutexGuard<'static, DeployedPipeline>, &'static Dataset) {
    let (pipeline, test) = SHARED.get_or_init(|| {
        let data = Dataset::new(ucf101_like(T, HW, HW), 120);
        let (train, test) = data.split(0.8);

        // Stage 1: task-agnostic mask learning by decorrelation.
        let mut trainer = DecorrelationTrainer::new(DecorrelationConfig {
            slots: T,
            tile: (8, 8),
            batch_size: 6,
            ..DecorrelationConfig::default()
        })
        .expect("valid config");
        // 60 steps is enough (at the default learning rate) for the mask to
        // move decisively towards the sparse decorrelated regime the paper
        // reports; 20 leaves it in a half-converged state that is *worse*
        // than its random initialization for the downstream task.
        let learned = trainer.train(&train, 60).expect("mask training");
        assert!(learned.mask.open_fraction() > 0.0, "mask must not collapse");

        // Stage 2: task training on coded images.
        let mut model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), learned.mask.clone())
            .expect("tile matches patch");
        train_action_model(&mut model, &train, &TrainOptions::experiment(12)).expect("training");

        // Stage 3: deployment with a noiseless readout (so hardware and
        // algorithmic paths can be compared exactly).
        let pipeline = Pipeline::builder(model)
            .with_hardware_sensor(ReadoutConfig::noiseless(12, T as f32))
            .expect("sensor assembly")
            .build()
            .expect("mask agreement");
        (Mutex::new(pipeline), test)
    });
    (pipeline.lock().expect("no poisoned lock"), test)
}

#[test]
fn full_pipeline_classifies_above_chance_in_batches() {
    let (mut pipeline, test) = trained_pipeline();
    let pipeline = &mut *pipeline;
    // The whole test set goes through in batched forward passes.
    let mut correct = 0usize;
    let batch_size = 8;
    let mut i = 0;
    while i < test.len() {
        let n = batch_size.min(test.len() - i);
        let batch = test.batch(i, n);
        let out = pipeline.infer(&batch.videos).expect("batched inference");
        assert_eq!(out.len(), n);
        correct += out
            .labels
            .iter()
            .zip(&batch.labels)
            .filter(|(a, b)| a == b)
            .count();
        i += n;
    }
    let acc = 100.0 * correct as f32 / test.len() as f32;
    let chance = 100.0 / CLASSES as f32;
    assert!(
        acc > chance + 5.0,
        "hardware-path accuracy {acc:.1}% should beat chance {chance:.1}%"
    );
}

#[test]
fn hardware_and_algorithmic_paths_agree() {
    let (mut pipeline, test) = trained_pipeline();
    let pipeline = &mut *pipeline;
    let sample = test.sample(0);
    let video = sample.video.frames();

    // Hardware path: charge-domain sensor sim + 12-bit noiseless ADC.
    let hw = pipeline.infer_clip(video).expect("hardware path");

    // Algorithmic path: Eqn. 1 encoder through the same Sense trait.
    let mut encoder = AlgorithmicEncoder::new(pipeline.model().mask().clone());
    let coded = encoder.sense(video).expect("encode");
    let batch = coded.reshape(&[1, HW, HW]).expect("singleton batch");
    let mut sess = snappix_nn::Session::inference(pipeline.model().store());
    let sw_var = pipeline
        .model()
        .build_logits_from_coded(&mut sess, &batch)
        .expect("model forward");
    let sw_logits = sess
        .graph
        .value(sw_var)
        .clone()
        .reshape(&[CLASSES])
        .expect("row");

    // The only difference is ADC quantization; logits must be close and
    // the argmax identical.
    assert_eq!(
        snappix_tensor::argmax_coords(&hw.logits),
        snappix_tensor::argmax_coords(&sw_logits),
        "hardware and algorithmic paths must agree on the class"
    );
    assert!(
        hw.logits.approx_eq(&sw_logits, 0.35),
        "logit gap exceeds quantization tolerance:\nhw {}\nsw {sw_logits}",
        hw.logits
    );
}

#[test]
fn batched_inference_matches_per_clip_calls_bit_for_bit() {
    let (mut pipeline, test) = trained_pipeline();
    let pipeline = &mut *pipeline;
    let batch = test.batch(0, 4);
    let batched = pipeline.infer(&batch.videos).expect("batched inference");
    assert_eq!(batched.predictions().len(), 4);
    for (b, row) in batched.predictions().enumerate() {
        let clip = batch.videos.index_axis(0, b).expect("clip");
        let single = pipeline.infer_clip(&clip).expect("single inference");
        assert_eq!(single.label, row.label, "clip {b}");
        assert!(
            single.logits.approx_eq(&row.logits, 0.0),
            "clip {b}: batched and single logits must be identical"
        );
    }
}

#[test]
fn capture_stats_match_protocol_accounting() {
    let (mut pipeline, test) = trained_pipeline();
    let pipeline = &mut *pipeline;
    let sample = test.sample(0);
    pipeline.classify(sample.video.frames()).expect("classify");
    let stats = pipeline.backend().stats();
    // Two pattern streams per slot, 64 pattern-clock cycles per stream
    // (8x8 tile).
    assert_eq!(stats.pattern_clock_cycles, (2 * T * 64) as u64);
    assert_eq!(stats.exposure_slots, T as u64);
    assert_eq!(stats.pixels_read, (HW * HW) as u64);
}

#[test]
fn edge_node_energy_is_consistent_with_pipeline_compression() {
    let (pipeline, _) = trained_pipeline();
    let pipeline = &*pipeline;
    let t = pipeline.model().mask().num_slots();
    let model = EnergyModel::paper();
    let scenario = Scenario {
        frame_pixels: HW * HW,
        slots: t,
        wireless: Wireless::PassiveWifi,
    };
    // The readout+wireless reduction must equal the compression ratio.
    let conv = model.conventional_energy(&scenario);
    let snap = model.snappix_energy(&scenario);
    let reduction = (conv.readout_pj + conv.wireless_pj) / (snap.readout_pj + snap.wireless_pj);
    assert!((reduction - t as f64).abs() < 1e-9);
    assert!(model.edge_energy_saving(&scenario) > 1.0);
}
