//! Multi-client serving end to end: spawn a `Server` over pipeline
//! replicas, hammer it from concurrent client threads (some cooperative,
//! some load-shedding, some with deadlines), and print the telemetry.
//!
//! Run with `cargo run --release --example serve`. Environment knobs:
//! `SNAPPIX_THREADS` bounds the machine parallelism the server divides
//! among its replicas.

use rand::{rngs::StdRng, SeedableRng};
use snappix_serve::prelude::*;
use std::time::Duration;

const T: usize = 8;
const HW: usize = 16;
const CLASSES: usize = 5;
const CLIENTS: usize = 6;
const CLIPS_PER_CLIENT: usize = 8;

fn main() -> Result<(), snappix::Error> {
    // A small co-designed model at the paper's 16x16 edge scale.
    let mask = patterns::long_exposure(T, (8, 8))?;
    let model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask)?;

    // Two worker replicas, batches of up to 8 clips, at most 2 ms of
    // batching delay, and a deliberately small admission queue so the
    // shedding path is visible under burst load.
    let server = Server::builder(Pipeline::builder(model))
        .with_workers(2)
        .with_queue_depth(16)
        .with_batch_policy(BatchPolicy::new(8, Duration::from_millis(2)))
        .build()?;
    println!(
        "serving with {} workers x {} threads, queue depth {}, max batch {}",
        server.workers(),
        server.worker_threads(),
        server.queue_capacity(),
        server.policy().max_batch,
    );

    let mut rng = StdRng::seed_from_u64(7);
    let clips: Vec<Tensor> = (0..CLIENTS * CLIPS_PER_CLIENT)
        .map(|_| Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0))
        .collect();

    // Clients share the server by reference; each runs its own policy.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let clips = &clips;
            scope.spawn(move || {
                let mut labels = Vec::new();
                let mut shed = 0usize;
                let mut expired = 0usize;
                for i in 0..CLIPS_PER_CLIENT {
                    let clip = &clips[client * CLIPS_PER_CLIENT + i];
                    let outcome = match client % 3 {
                        // Cooperative client: block on backpressure.
                        0 => server.submit(clip),
                        // Impatient client: shed and move on when full.
                        1 => server.try_submit(clip),
                        // Real-time client: answers are useless after 50 ms.
                        _ => server.submit_within(clip, Some(Duration::from_millis(50))),
                    };
                    match outcome.map(Ticket::wait) {
                        Ok(Ok(prediction)) => labels.push(prediction.label),
                        Ok(Err(ServeError::DeadlineExpired { .. })) => expired += 1,
                        Err(ServeError::Overloaded { .. }) => shed += 1,
                        Ok(Err(e)) | Err(e) => panic!("client {client}: {e}"),
                    }
                }
                println!(
                    "client {client}: {} answers {labels:?}, {shed} shed, {expired} expired",
                    labels.len()
                );
            });
        }
    });

    let stats = server.shutdown();
    println!("\n--- server telemetry ---\n{stats}");
    println!(
        "mean batch size {:.2} across {} batches",
        stats.mean_batch_size(),
        stats.batches
    );
    Ok(())
}
