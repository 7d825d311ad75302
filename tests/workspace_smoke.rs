//! Workspace smoke test: the umbrella crate's prelude re-exports resolve
//! and the quickstart pipeline (mask learning -> ViT training -> batched
//! deployment through the simulated sensor) runs end-to-end at the
//! smallest sensible scale — one 8x8 tile per frame — in seconds, not
//! minutes.

use snappix::prelude::*;

const T: usize = 4;
const HW: usize = 8;

/// Every name the quickstart path needs must be importable from
/// `snappix::prelude` alone (never constructed; it exists so the compiler
/// checks the re-export surface).
#[allow(dead_code)]
type PreludeSurface = (
    Pipeline,
    Pipeline<HardwareSensor>,
    PipelineBuilder,
    Inference,
    Prediction,
    Error,
    AlgorithmicEncoder,
    DeploymentReport,
    ExposureMask,
    DecorrelationTrainer,
    EnergyModel,
    SnapPixAr,
    CeSensor,
    Readout,
    Tensor,
    Dataset,
    Video,
);

#[test]
fn quickstart_path_runs_on_a_tiny_clip() {
    let start = std::time::Instant::now();

    let data = Dataset::new(ucf101_like(T, HW, HW), 24);
    let (train, test) = data.split(0.75);

    let mut trainer = DecorrelationTrainer::new(DecorrelationConfig {
        slots: T,
        tile: (8, 8),
        batch_size: 4,
        ..DecorrelationConfig::default()
    })
    .expect("valid config");
    let learned = trainer.train(&train, 8).expect("mask training");
    assert!(learned.mask.open_fraction() > 0.0, "mask must not collapse");

    let mut model = SnapPixAr::new(
        VitConfig::snappix_s(HW, HW, data.num_classes()),
        learned.mask.clone(),
    )
    .expect("tile matches patch");
    train_action_model(&mut model, &train, &TrainOptions::experiment(2)).expect("training");

    let mut pipeline = Pipeline::builder(model)
        .with_hardware_sensor(ReadoutConfig::default())
        .expect("sensor assembly")
        .build()
        .expect("mask agreement");
    let batch = test.batch(0, test.len().min(4));
    let out = pipeline.infer(&batch.videos).expect("batched inference");
    assert_eq!(out.len(), batch.labels.len());
    for &label in &out.labels {
        assert!(label < data.num_classes(), "class index in range");
    }

    // "A few seconds" in practice (~2 s debug on one core); the bound is
    // 60x that so contended CI runners don't flake, while still catching an
    // accidental return to full-experiment scale (minutes).
    assert!(
        start.elapsed() < std::time::Duration::from_secs(120),
        "tiny quickstart took {:?}",
        start.elapsed()
    );
}

#[test]
fn prelude_energy_types_compose() {
    let model = EnergyModel::paper();
    let scenario = Scenario {
        frame_pixels: HW * HW,
        slots: T,
        wireless: Wireless::PassiveWifi,
    };
    let saving = model.edge_energy_saving(&scenario);
    assert!(saving > 1.0, "CE must save edge energy, got {saving}");
}
