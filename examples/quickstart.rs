//! Quickstart: the full SnapPix pipeline in ~60 lines.
//!
//! Learns a decorrelated exposure mask, trains the co-designed ViT on
//! coded images, then deploys through the simulated sensor hardware.
//!
//! Run with: `cargo run --release --example quickstart`

use snappix::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const T: usize = 8; // exposure slots (the paper uses 16)
    const HW: usize = 16; // frame side in pixels
    const CLASSES: usize = 8;

    println!("== SnapPix quickstart ==");
    let data = Dataset::new(ucf101_like(T, HW, HW), 100);
    let (train, test) = data.split(0.8);
    println!(
        "dataset: {} ({} train / {} test clips of {}x{}x{})",
        data.config().name,
        train.len(),
        test.len(),
        T,
        HW,
        HW
    );

    // 1. Task-agnostic mask learning by decorrelation (paper Sec. III).
    let mut trainer = DecorrelationTrainer::new(DecorrelationConfig {
        slots: T,
        tile: (8, 8),
        batch_size: 6,
        ..DecorrelationConfig::default()
    })?;
    let learned = trainer.train(&train, 20)?;
    println!(
        "learned mask: {:.0}% open, residual correlation {:.3} \
         (loss {:.4} -> {:.4})",
        100.0 * learned.mask.open_fraction(),
        learned.final_correlation,
        learned.loss_history.first().copied().unwrap_or(f32::NAN),
        learned.loss_history.last().copied().unwrap_or(f32::NAN),
    );

    // 2. Train the CE-optimized ViT on coded images (paper Sec. IV).
    let mut model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), learned.mask.clone())?;
    let report = train_action_model(&mut model, &train, &TrainOptions::experiment(10))?;
    println!(
        "AR training: {} steps, final loss {:.3}",
        report.steps,
        report.final_loss()
    );
    let acc = evaluate_accuracy(&model, &test)?;
    println!(
        "algorithmic-path accuracy: {acc:.1}% (chance {:.1}%)",
        100.0 / CLASSES as f32
    );

    // 3. Deploy: a batched inference engine over the charge-domain sensor
    //    simulation; the report combines accuracy with the energy model.
    let mut pipeline = Pipeline::builder(model)
        .with_hardware_sensor(ReadoutConfig::default())?
        .build()?;
    let report = evaluate_deployment(&mut pipeline, &test, Wireless::PassiveWifi)?;
    println!(
        "hardware-path accuracy: {:.1}% over {} clips",
        report.accuracy(),
        report.clips
    );
    println!(
        "per capture: {} pattern-clock cycles, {} pixels read (vs {} for video read-out)",
        report.pattern_clock_cycles_per_capture,
        report.pixels_read_per_capture,
        report.pixels_read_per_capture * T as u64,
    );
    println!(
        "edge energy: {:.2} uJ per capture ({:.1}x saving over conventional), \
         {:.2} uJ per correct classification",
        report.energy_uj_per_capture,
        report.energy_saving(),
        report.energy_uj_per_correct(),
    );
    Ok(())
}
