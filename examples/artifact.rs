//! The `.spx` weight artifact end to end: train a small model, write it
//! as a sealed `.spx` artifact, reload it into a fresh model, prove the
//! answers are bit-for-bit those of the trained in-memory model, and
//! show the memory win of sharing one read-only payload across a fleet
//! of replicas.
//!
//! Run with `cargo run --release --example artifact`.

use snappix_serve::prelude::*;
use std::time::Duration;

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 10; // ssv2_like's class count
const REPLICAS: usize = 4;

fn model() -> Result<SnapPixAr, snappix::Error> {
    let mask = patterns::long_exposure(T, (8, 8))?;
    Ok(SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train-lite: a couple of epochs on a procedural dataset is
    //    enough to make these weights "a checkpoint worth deploying".
    let data = Dataset::new(ssv2_like(T, HW, HW), 40);
    let mut trained = model()?;
    let report = train_action_model(&mut trained, &data, &TrainOptions::experiment(2))?;
    println!(
        "trained {} steps, final loss {:.4}",
        report.steps,
        report.final_loss()
    );

    // 2. Write the trained weights as a sealed artifact.
    let spx = std::env::temp_dir().join(format!("snappix_example_{}.spx", std::process::id()));
    write_artifact(trained.store(), &spx)?;
    println!(
        "checkpoint: {} B artifact (64 B header + table + 64-aligned payload + checksum)",
        std::fs::metadata(&spx)?.len(),
    );

    // 3. Reload into a fresh model and classify the same batch as the
    //    trained one.
    let mut in_memory = Pipeline::builder(trained).build()?;
    let mut artifact = Pipeline::builder(model()?).with_artifact(&spx)?.build()?;
    let batch = data.batch(0, 8);
    let a = in_memory.infer(&batch.videos)?;
    let b = artifact.infer(&batch.videos)?;
    assert!(
        a.logits.approx_eq(&b.logits, 0.0),
        "artifact answers must be bit-for-bit the trained model's answers"
    );
    println!(
        "reloaded model predicts {:?} (bit-for-bit the trained model)",
        b.labels
    );

    // 4. The point of the artifact: replicas share one payload buffer.
    let replicas = Pipeline::builder(model()?)
        .with_artifact(&spx)?
        .build_replicas(REPLICAS)?;
    let resident = resident_weight_bytes(&replicas);
    let naive: usize = replicas.iter().map(Pipeline::weight_bytes).sum();
    assert_eq!(
        resident,
        artifact.weight_bytes(),
        "{REPLICAS} replicas must cost one payload"
    );
    println!(
        "{REPLICAS} replicas: {resident} B resident vs {naive} B if deep-copied ({:.2}x saved)",
        naive as f64 / resident as f64
    );

    // 5. The same sharing through the serving layer, on the stats page.
    let server = Server::builder(Pipeline::builder(model()?))
        .with_artifact(&spx)?
        .with_workers(REPLICAS)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(2)))
        .build()?;
    for i in 0..8 {
        server.classify(data.sample(i).video.frames())?;
    }
    let stats = server.shutdown();
    println!("\n--- server telemetry ---\n{stats}");

    std::fs::remove_file(spx).ok();
    Ok(())
}
