//! `serve_open_loop`: an in-process open loop over `Server` at its
//! defaults (one replica per core, batch 8 / 2 ms, queue 64). One thread
//! submits with `try_submit` on a seeded Poisson schedule, one thread
//! collects the tickets, and the offered rate steps through a frozen
//! ladder. The only workload where a queue builds and batch size follows
//! load. Its traced run also probes the `gateway` layer over loopback.

use crate::common::{self, Reference, Run};
use crate::report::{ms, quantile, share, us, Outcome, Sliced};
use rand::Rng;
use snappix_fleet::prelude::*;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const HW: usize = 16;
const CLIPS: usize = 256;
/// Offered rates in clips/s. Frozen here, never calibrated at run time:
/// a calibrated rate would absorb any speed-up into the load.
const RATES: [f64; 6] = [8_000.0, 12_000.0, 16_000.0, 20_000.0, 24_000.0, 32_000.0];
/// Share of the ladder's time each rung gets: most to the two rungs the
/// end-to-end metrics read.
const RUNG_SHARES: [f64; 6] = [0.35, 0.1, 0.1, 0.1, 0.1, 0.25];
/// The rung whose latency the end-to-end metrics report.
const REPORT_RUNG: usize = 0;
/// The rung whose completion rate is the throughput metric: offered
/// well above the server's capacity, so it measures that capacity.
const CAPACITY_RUNG: usize = RATES.len() - 1;
/// Time slice the end-to-end figures are read over (hundreds of clips
/// at every rung).
const SLICE: Duration = Duration::from_millis(100);
/// Each rung first offers its rate unmeasured for this long, so the
/// fresh server reaches its steady state before samples count.
const RUNG_WARM: Duration = Duration::from_millis(300);
/// A rung is sustained when its p99 stays within this limit ...
const P99_LIMIT_MS: f64 = 10.0;
/// ... and at most this share of its clips fail.
const FAILED_LIMIT: f64 = 0.01;
/// Untraced/traced slice pairs the overhead comparison interleaves.
const OVERHEAD_SLICES: usize = 2;
/// Clips each fresh server answers before a rung starts.
const WARM_CLIPS: usize = 64;

/// What one rung of the ladder measured.
struct Rung {
    sent: u64,
    shed: u64,
    /// Refused, errored or wrong answers.
    failed: u64,
    /// From each clip's scheduled send time to its answer, filed by
    /// when the answer came.
    latencies_ms: Sliced,
    /// How late the generator sent each clip.
    late_ms: Vec<f64>,
    /// Duration of each `try_submit` call.
    admit_us: Vec<f64>,
    stats: ServerStats,
}

impl Rung {
    fn failed_share(&self) -> f64 {
        share((self.shed + self.failed) as f64, self.sent as f64)
    }

    /// Whether every timed answer of the rung, taken together, met the
    /// latency limit at p99 and few enough clips failed.
    fn sustained(&self) -> bool {
        quantile(&self.latencies_ms.all(), 0.99) <= P99_LIMIT_MS
            && self.failed_share() <= FAILED_LIMIT
    }

    /// Timed answers per second (median over slices).
    fn answered_per_s(&self) -> f64 {
        self.latencies_ms.rate(1.0)
    }
}

/// Builds a server with its own registry (a cloned builder would share
/// the recipe's) and answers a few clips so its replicas are warm.
fn warm_server(recipe: &ServerBuilder, clips: &[Tensor]) -> Server {
    let server = recipe
        .clone()
        .with_metrics(Registry::new())
        .build()
        .expect("server");
    let tickets: Vec<Ticket> = clips
        .iter()
        .cycle()
        .take(WARM_CLIPS)
        .map(|clip| server.submit(clip).expect("warm-up admission"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("warm-up answer");
    }
    server
}

/// Offers `rate` clips/s on a seeded Poisson schedule, unmeasured for
/// [`RUNG_WARM`] and then measured for `length`, and shuts the server
/// down. Every answer is checked; only those of clips due in the
/// measured part are timed and counted. A traced rung also times each
/// `try_submit` call.
fn rung(
    server: Server,
    clips: &[Tensor],
    reference: &Reference,
    (rate, length): (f64, Duration),
    mut rng: impl Rng,
    traced: bool,
) -> Rung {
    let total = (RUNG_WARM + length).as_secs_f64();
    let mut schedule = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.random::<f64>()).ln() / rate;
        if at >= total {
            break;
        }
        let offset = Duration::from_secs_f64(at);
        schedule.push((
            offset,
            offset >= RUNG_WARM,
            rng.random_range(0..clips.len()),
        ));
    }

    let (tx, rx) = mpsc::channel::<(Ticket, Instant, bool, usize)>();
    let start = Instant::now() + Duration::from_millis(1);
    let measured_from = start + RUNG_WARM;
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut admit_us = Vec::with_capacity(schedule.len());
    let (mut shed, mut refused) = (0u64, 0u64);
    let (wrong, mut latencies_ms) = std::thread::scope(|scope| {
        // Tickets are redeemed in send order, so a clip answered before
        // an earlier one is timed when the earlier one is answered.
        let collector = scope.spawn(move || {
            let mut wrong = 0u64;
            let mut latencies = Sliced::new(measured_from, SLICE);
            for (ticket, due, measured, clip) in rx {
                let answer = ticket.wait();
                let now = Instant::now();
                let right =
                    matches!(&answer, Ok(p) if reference.matches(clip, p.logits.as_slice()));
                wrong += u64::from(!right);
                if measured && right {
                    latencies.push(now, ms(now.saturating_duration_since(due)));
                }
            }
            (wrong, latencies)
        });
        for &(offset, measured, clip) in &schedule {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let admitted = server.try_submit(&clips[clip]);
            if measured {
                late_ms.push(ms(sent.saturating_duration_since(due)));
                if traced {
                    admit_us.push(us(sent.elapsed()));
                }
            }
            match admitted {
                Ok(ticket) => tx
                    .send((ticket, due, measured, clip))
                    .expect("collector alive"),
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(_) => refused += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    latencies_ms.close(measured_from + length);
    Rung {
        sent: schedule.len() as u64,
        shed,
        failed: refused + wrong,
        latencies_ms,
        late_ms,
        admit_us,
        stats: server.shutdown(),
    }
}

/// Steps through the whole ladder in `length`, split by [`RUNG_SHARES`].
/// The first rung runs on `first`, later ones each on a fresh warm
/// server.
fn ladder(
    run: &Run,
    recipe: &ServerBuilder,
    first: Server,
    clips: &[Tensor],
    reference: &Reference,
    length: Duration,
) -> Vec<Rung> {
    let traced = run.trace;
    let mut first = Some(first);
    RATES
        .iter()
        .zip(RUNG_SHARES)
        .enumerate()
        .map(|(i, (&rate, rung_share))| {
            let server = first.take().unwrap_or_else(|| warm_server(recipe, clips));
            let length = length.mul_f64(rung_share);
            let rng = run.rng(10 + i as u64);
            rung(server, clips, reference, (rate, length), rng, traced)
        })
        .collect()
}

/// Tallies a ladder. Wrong answers and refusals fail; a shed clip is the
/// server's specified answer to a full queue, so it counts in
/// `failed_share` and `serve.shed` but not as a wrong output.
fn tally(out: &mut Outcome, rungs: &[Rung]) {
    for r in rungs {
        out.tally(r.sent, r.failed);
    }
}

/// The highest offered rate whose rung was sustained (0 if none).
fn sustained_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .zip(RATES)
        .filter(|(r, _)| r.sustained())
        .map(|(_, rate)| rate)
        .fold(0.0, f64::max)
}

pub fn run(run: &Run) -> Outcome {
    let clips = common::clips(run, CLIPS, HW);
    let reference = Reference::compute(&common::model(run, HW), &clips);
    let path = common::artifact_path("serve_open_loop");

    let setup = common::repeat_setup(|| {
        let model = common::model(run, HW);
        let (reader, open) = common::write_and_open(&model, &path);
        let recipe = Server::builder(
            Pipeline::builder(model)
                .with_artifact_reader(&reader)
                .expect("artifact matches the model"),
        );
        let server = warm_server(&recipe, &clips);
        ((recipe, server), open)
    });
    std::fs::remove_file(&path).ok();
    let (recipe, server) = setup.harness;
    let mut out = Outcome::default();
    let mut report_failed_share = None;
    out.notes.push(format!(
        "server: {} workers x {} threads, queue {}, batch {:?}",
        server.workers(),
        server.worker_threads(),
        server.queue_capacity(),
        server.policy(),
    ));

    if run.trace {
        let traced = ladder(run, &recipe, server, &clips, &reference, run.share(0.5));
        tally(&mut out, &traced);
        let report = &traced[REPORT_RUNG];
        common::record_profile(
            &mut out,
            &report.stats.profile,
            report.stats.compute_latency.total,
        );
        common::record_server(&mut out, &report.stats);
        out.set("serve.admit_us_p50", quantile(&report.admit_us, 0.5));
        out.set("latency_p99_ms", report.latencies_ms.tail(0.99));
        let late = traced.iter().map(|r| quantile(&r.late_ms, 0.99));
        out.set("loadgen.late_ms_p99", late.fold(0.0, f64::max));
        out.set("sustained_rate_per_s", sustained_rate(&traced));
        report_failed_share = Some(report.failed_share());

        // Tracing overhead: capacity-rung slices with and without the
        // admission spans, interleaved so drift hits both sides alike.
        let slice = (
            RATES[CAPACITY_RUNG],
            run.share(0.2 / (2 * OVERHEAD_SLICES) as f64),
        );
        let mut answered_per_s = [0.0, 0.0];
        for i in 0..OVERHEAD_SLICES {
            for (side, traced) in [false, true].into_iter().enumerate() {
                let server = warm_server(&recipe, &clips);
                let rng = run.rng(100 + i as u64);
                let r = rung(server, &clips, &reference, slice, rng, traced);
                tally(&mut out, std::slice::from_ref(&r));
                answered_per_s[side] += r.answered_per_s();
            }
        }
        common::record_overhead(&mut out, answered_per_s[0], answered_per_s[1]);

        let gateway_server = recipe
            .clone()
            .with_metrics(Registry::new())
            .with_batch_policy(BatchPolicy::greedy(8))
            .build()
            .expect("server");
        crate::gateway::probe(&mut out, gateway_server, &clips, &reference, run.share(0.1));

        let probe = Pipeline::builder(common::model(run, HW))
            .build()
            .expect("probe pipeline");
        let batches = common::batches(&clips, 8);
        let coded = common::probe_encoder(&mut out, probe.model(), &batches, run.share(0.1));
        common::probe_forward(&mut out, probe.model(), &coded, &reference, run.share(0.1));
    } else {
        let ladder = ladder(run, &recipe, server, &clips, &reference, run.share(1.0));
        tally(&mut out, &ladder);
        let report = &ladder[REPORT_RUNG];
        out.set("throughput_per_s", ladder[CAPACITY_RUNG].answered_per_s());
        out.set("latency_p50_ms", report.latencies_ms.median(0.5));
        out.set("latency_p99_ms", report.latencies_ms.tail(0.99));
        for (r, rate) in ladder.iter().zip(RATES) {
            out.notes.push(format!(
                "rung {rate:.0}/s: {} sent, {} timed answers ({:.0}/s), {} shed, {} failed, \
                 p50 {:.3} ms, p99 {:.3} ms, generator late p99 {:.3} ms, mean batch {:.2}{}",
                r.sent,
                r.latencies_ms.len(),
                r.answered_per_s(),
                r.shed,
                r.failed,
                r.latencies_ms.median(0.5),
                r.latencies_ms.tail(0.99),
                quantile(&r.late_ms, 0.99),
                r.stats.mean_batch_size(),
                if r.sustained() { ", sustained" } else { "" },
            ));
        }
    }
    common::finish(&mut out, setup.setup_s, setup.open_ms);
    if let Some(failed_share) = report_failed_share {
        // Here a failure includes a shed clip, at the reporting rung.
        out.set("failed_share", failed_share);
    }
    out
}
