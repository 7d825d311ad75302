//! Real-time multi-stream inference end to end: four synthetic camera
//! feeds whose true action changes segment by segment, streamed through
//! one shared server with per-stream overload policies, temporal
//! smoothing, and label-change events.
//!
//! Events print from the run's sink as they happen. The example exits
//! nonzero unless, for every stream, the sink received one record per
//! assembled window and its inferred/shed/expired counts equal the
//! stream's stats.
//!
//! Run with `cargo run --release --example stream`. Environment knobs:
//! `SNAPPIX_THREADS` bounds the machine parallelism the server divides
//! among its replicas.

use snappix_stream::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

const T: usize = 8;
const HW: usize = 16;
const CLASSES: usize = 10;
const STREAMS: usize = 4;
const SEGMENTS: usize = 3;
const SEGMENT_FRAMES: usize = 24;

/// What the sink saw on one stream: every record, then each outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    windows: u64,
    inferred: u64,
    shed: u64,
    expired: u64,
}

fn main() -> Result<(), snappix::Error> {
    // A small co-designed model at the paper's 16x16 edge scale.
    let mask = patterns::long_exposure(T, (8, 8))?;
    let model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask)?;

    // One shared server: two worker replicas, cross-stream dynamic
    // batching, and a deliberately small queue so overload policies can
    // matter under bursts.
    let server = Server::builder(Pipeline::builder(model))
        .with_workers(2)
        .with_queue_depth(16)
        .with_batch_policy(BatchPolicy::new(8, Duration::from_millis(1)))
        .build()?;
    println!(
        "serving {} workers x {} threads; streaming {STREAMS} cameras, window {T} hop 4",
        server.workers(),
        server.worker_threads(),
    );

    // Each stream gets a different overload personality; all smooth with
    // a majority vote over the last 3 windows and need 2 consecutive
    // windows to confirm a label change.
    let policies = [
        OverloadPolicy::Block,
        OverloadPolicy::SkipWindow,
        OverloadPolicy::DropOldest { pending: 2 },
        OverloadPolicy::SkipWindow,
    ];
    let mut runner =
        StreamRunner::new(&server).with_pacing(Pacing::fps(120.0).map_err(snappix::Error::from)?);
    for (i, &overload) in policies.iter().enumerate().take(STREAMS) {
        // Different per-stream seeds: shift the sample range via config.
        let mut config = ssv2_like(SEGMENT_FRAMES, HW, HW);
        config.seed = config.seed.wrapping_add(1000 * i as u64);
        let source = SyntheticSource::new(config, SEGMENTS);
        let truth: Vec<usize> = (0..SEGMENTS).map(|s| source.segment_label(s)).collect();
        println!("stream {i}: {overload:?}, true segment labels {truth:?}");
        runner.add_stream(
            source,
            SessionConfig::new(T, 4)
                .with_smoothing(Smoothing::Majority { k: 3 })
                .with_hysteresis(2)
                .with_overload(overload),
        );
    }

    println!("\n--- events ---");
    let tallies = Mutex::new(vec![Tally::default(); STREAMS]);
    let report = runner.run(|stream, record| {
        let mut tallies = tallies.lock().expect("tally lock");
        let tally = &mut tallies[stream];
        tally.windows += 1;
        match record.outcome {
            WindowOutcome::Inferred { event, .. } => {
                tally.inferred += 1;
                if let Some(event) = event {
                    println!("  {event}");
                }
            }
            WindowOutcome::Shed => tally.shed += 1,
            WindowOutcome::Expired => tally.expired += 1,
        }
    })?;

    println!("\n--- per-stream stats ---");
    println!("{report}");
    println!(
        "\nserver side: {} batches, mean batch {:.2}",
        server.stats().batches,
        server.stats().mean_batch_size()
    );

    let tallies = tallies.into_inner().expect("tally lock");
    let mut consistent = true;
    for (stream, seen) in report.streams.iter().zip(&tallies) {
        let s = &stream.stats;
        let want = Tally {
            windows: s.windows,
            inferred: s.inferred,
            shed: s.shed,
            expired: s.expired,
        };
        if *seen != want {
            eprintln!(
                "stream {}: sink saw {seen:?}, stats say {want:?}",
                stream.id
            );
            consistent = false;
        }
    }
    if !consistent {
        std::process::exit(1);
    }
    println!("sink: one record per window on every stream, outcomes match the stats");
    Ok(())
}
