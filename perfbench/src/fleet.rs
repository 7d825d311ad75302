//! `fleet_hw`: `FleetSim` runs 1024 energy-budgeted nodes with 2 drivers
//! over a one-worker server whose pipeline captures through the
//! deployment `HardwareSensor` with a noiseless 8-bit readout. The only
//! workload that exercises `sensor`, `stream` windowing, `energy` and
//! `fleet`; replay is bit-for-bit, so its ledgers repeat exactly. Its
//! traced run also probes the `gateway` layer over loopback.

use crate::common::{self, Reference, Run, T};
use crate::report::{median, ms, quantile, share, us, Outcome, QUIET};
use rand::Rng;
use snappix_fleet::prelude::*;
use std::time::{Duration, Instant};

const HW: usize = 16;
const NODES: usize = 1024;
const DRIVERS: usize = 2;
/// Frames each node replays: (40 - 16) / 8 + 1 = 4 windows per node.
const FRAMES: usize = 40;
const HOP: usize = 8;
/// Readout resolution of the deployment sensor.
const ADC_BITS: u32 = 8;
/// Windows the server classifies during set-up.
const WARM_WINDOWS: usize = 16;
/// Videos the sensor and window-assembly probes cycle through.
const PROBE_VIDEOS: usize = 64;
/// Clips the gateway probe cycles through.
const GATEWAY_CLIPS: usize = 256;

/// The paper's energy for one inferred window at this geometry, pJ.
fn window_cost_pj() -> f64 {
    EnergyModel::paper()
        .snappix_energy(&Scenario {
            frame_pixels: HW * HW,
            slots: T,
            wireless: Wireless::PassiveWifi,
        })
        .total_pj()
}

/// Four energy personalities: mains power, and batteries worth two
/// inferences with strong, weak or no harvest, so the duty-cycle ladder
/// sheds and sleeps windows inside the run.
fn node_config(i: usize, cost: f64) -> NodeConfig {
    let budget = match i % 4 {
        0 => EnergyBudget::unbounded(),
        1 => EnergyBudget::new(cost * 2.0),
        2 => EnergyBudget::new(cost * 2.0).with_harvest(cost * 20.0),
        _ => EnergyBudget::new(cost * 2.0).with_harvest(cost * 4.0),
    };
    NodeConfig::new(T, HOP)
        .with_fps(30.0)
        .with_budget(budget)
        .with_smoothing(Smoothing::Majority { k: 3 })
        .with_sleep_cost(cost * 0.01)
}

/// The ledgers every replay must reproduce exactly.
struct Replay {
    stats: FleetStats,
    nodes: Vec<NodeReport>,
    /// Hardware captures the server made, counted by traced runs.
    captures: Option<u64>,
}

/// What one series of fleet runs measured.
#[derive(Default)]
struct Phase {
    windows: u64,
    /// Wall time inside `FleetSim::run`.
    wall: Duration,
    /// Server compute time during traced runs.
    busy: Duration,
    runs_ms: Vec<f64>,
    /// Each run's median and p99 batch compute time.
    compute_p50_ms: Vec<f64>,
    compute_p99_ms: Vec<f64>,
    profile: PipelineProfile,
    /// The last run's server, at shutdown.
    server: Option<ServerStats>,
}

impl Phase {
    fn per_s(&self) -> f64 {
        self.windows as f64 / self.wall.as_secs_f64()
    }

    fn merge(&mut self, other: Phase) {
        self.windows += other.windows;
        self.wall += other.wall;
        self.busy += other.busy;
        self.runs_ms.extend(other.runs_ms);
        self.compute_p50_ms.extend(other.compute_p50_ms);
        self.compute_p99_ms.extend(other.compute_p99_ms);
        self.profile.merge(&other.profile);
        self.server = other.server.or(self.server.take());
    }
}

/// Builds a one-worker server from the recipe, with its own registry,
/// and classifies a few windows so it is warm.
fn warm_server(recipe: &ServerBuilder<HardwareSensor>, videos: &[Video]) -> Server {
    let server = recipe
        .clone()
        .with_metrics(Registry::new())
        .build()
        .expect("server");
    for video in videos.iter().take(WARM_WINDOWS) {
        let window = video.frames().slice_axis(0, 0, T).expect("a full window");
        server.classify(&window).expect("warm-up classify");
    }
    server
}

/// Runs the fleet until `length` has passed (at least once), each run
/// over its own warm server so the server's histograms describe that run
/// alone; the first run takes `ready`. Each run's ledgers must equal the
/// first run's. Traced runs also read the server's stats before the run.
fn fleet_runs(
    out: &mut Outcome,
    (recipe, ready): (&ServerBuilder<HardwareSensor>, &mut Option<Server>),
    videos: &[Video],
    first: &mut Option<Replay>,
    length: Duration,
    traced: bool,
) -> Phase {
    let cost = window_cost_pj();
    let started = Instant::now();
    let mut phase = Phase::default();
    while phase.runs_ms.is_empty() || started.elapsed() < length {
        let server = ready.take().unwrap_or_else(|| warm_server(recipe, videos));
        let mut sim = FleetSim::new(&server).with_drivers(DRIVERS);
        for (i, video) in videos.iter().enumerate() {
            sim.add_node(ReplaySource::new(video.clone()), node_config(i, cost))
                .expect("valid node");
        }
        let before = traced.then(|| server.stats());
        let call = Instant::now();
        let report = sim.run();
        let took = call.elapsed();
        let after = server.shutdown();
        if let Err(drift) = after.check_conserved() {
            out.broke(format!("server ledger not conserved: {drift}"));
        }
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                out.broke(format!("fleet run failed: {e}"));
                break;
            }
        };
        let mut captures = None;
        if let Some(before) = &before {
            let profile = common::profile_delta(&before.profile, &after.profile);
            captures = Some(profile.clips);
            phase.busy += after
                .compute_latency
                .total
                .saturating_sub(before.compute_latency.total);
            phase.profile.merge(&profile);
        }
        let replay = Replay {
            stats: report.stats.clone(),
            nodes: report.nodes.clone(),
            captures,
        };
        let mut ok = report.check_conserved();
        if !ok {
            out.broke("fleet ledgers not conserved".to_string());
        }
        match first {
            None => *first = Some(replay),
            Some(f) => {
                let captures = match (f.captures, replay.captures) {
                    (Some(a), Some(b)) => a == b,
                    (None, Some(_)) => {
                        f.captures = replay.captures;
                        true
                    }
                    _ => true,
                };
                let same = f.stats == replay.stats && f.nodes == replay.nodes && captures;
                if !same {
                    out.broke(format!(
                        "replay diverged: {} vs first run {}",
                        replay.stats, f.stats
                    ));
                    ok = false;
                }
            }
        }
        let windows = report.stats.windows;
        out.tally(windows, if ok { 0 } else { windows });
        phase.windows += windows;
        phase.wall += took;
        phase.runs_ms.push(ms(took));
        phase.compute_p50_ms.push(ms(after.compute_latency.p50));
        phase.compute_p99_ms.push(ms(after.compute_latency.p99));
        phase.server = Some(after);
    }
    phase
}

/// `sensor` probe: `HardwareSensor::sense` timed directly on windows of
/// the nodes' videos, with the served readout.
fn probe_sensor(out: &mut Outcome, model: &SnapPixAr, windows: &[Tensor], budget: Duration) {
    let mut sensor = HardwareSensor::new(HW, HW, model.mask().clone())
        .expect("sensor geometry")
        .with_readout(ReadoutConfig::noiseless(ADC_BITS, T as f32))
        .with_normalization(model.normalize_by_exposure);
    let deadline = Instant::now() + budget;
    let mut times = Vec::new();
    while times.is_empty() || Instant::now() < deadline {
        let window = &windows[times.len() % windows.len()];
        let started = Instant::now();
        std::hint::black_box(sensor.sense(window).expect("capture"));
        times.push(us(started.elapsed()));
        if sensor.stats().pixels_read != (HW * HW) as u64 {
            out.broke(format!("a capture read {:?}", sensor.stats()));
            break;
        }
    }
    out.set("sensor.capture_us_per_clip", median(&times));
}

/// `stream` probe: `WindowAssembler::push` over whole videos, per
/// emitted window.
fn probe_assembler(out: &mut Outcome, frames: &[Vec<Tensor>], budget: Duration) {
    let deadline = Instant::now() + budget;
    let mut per_window = Vec::new();
    while per_window.is_empty() || Instant::now() < deadline {
        let video = &frames[per_window.len() % frames.len()];
        let mut assembler = WindowAssembler::new(T, HOP, [HW, HW]).expect("window geometry");
        let started = Instant::now();
        for frame in video {
            std::hint::black_box(assembler.push(frame).expect("frame geometry"));
        }
        per_window.push(us(started.elapsed()) / assembler.windows_out().max(1) as f64);
    }
    out.set("stream.assemble_us_per_window", median(&per_window));
}

pub fn run(run: &Run) -> Outcome {
    let mut data = ssv2_like(FRAMES, HW, HW);
    data.seed = run.rng(3).random();
    let data = Dataset::new(data, NODES);
    let videos: Vec<Video> = (0..NODES).map(|i| data.sample(i).video).collect();
    let path = common::artifact_path("fleet_hw");

    let setup = common::repeat_setup(|| {
        let model = common::model(run, HW);
        let (reader, open) = common::write_and_open(&model, &path);
        let recipe = Pipeline::builder(model)
            .with_artifact_reader(&reader)
            .expect("artifact matches the model")
            .with_hardware_sensor(ReadoutConfig::noiseless(ADC_BITS, T as f32))
            .expect("sensor geometry");
        let recipe = Server::builder(recipe)
            .with_workers(1)
            .with_batch_policy(BatchPolicy::greedy(8));
        let server = warm_server(&recipe, &videos);
        ((recipe, server), open)
    });
    std::fs::remove_file(&path).ok();
    let (recipe, server) = setup.harness;
    let mut ready = Some(server);
    let mut out = Outcome::default();
    let mut first = None;

    if run.trace {
        // Single runs with and without the server-stats spans,
        // alternating so drift hits both sides alike.
        let (mut untraced, mut traced) = (Phase::default(), Phase::default());
        let started = Instant::now();
        while traced.runs_ms.is_empty() || started.elapsed() < run.share(0.7) {
            let once = Duration::ZERO;
            let servers = (&recipe, &mut ready);
            untraced.merge(fleet_runs(
                &mut out, servers, &videos, &mut first, once, false,
            ));
            let servers = (&recipe, &mut ready);
            traced.merge(fleet_runs(
                &mut out, servers, &videos, &mut first, once, true,
            ));
        }
        common::record_overhead(&mut out, untraced.per_s(), traced.per_s());
        common::record_profile(&mut out, &traced.profile, traced.busy);
        out.set("latency_p99_ms", quantile(&traced.compute_p99_ms, QUIET));
        if let Some(stats) = &traced.server {
            common::record_server(&mut out, stats);
        }
        out.set(
            "fleet.loop_share",
            share(
                (traced.wall.saturating_sub(traced.busy)).as_secs_f64(),
                traced.wall.as_secs_f64(),
            ),
        );
        if let Some(replay) = &first {
            let windows = replay.stats.windows as f64;
            out.set("sensor.captures", replay.captures.unwrap_or(0) as f64);
            out.set(
                "fleet.inferred_share",
                share(replay.stats.inferred as f64, windows),
            );
            out.set(
                "fleet.slept_share",
                share(replay.stats.slept as f64, windows),
            );
            out.set("pj_per_inference", replay.stats.energy_per_inference_pj());
        }

        let model = common::model(run, HW);
        let probe_videos = &videos[..PROBE_VIDEOS];
        let windows: Vec<Tensor> = probe_videos
            .iter()
            .flat_map(|v| v.windows(T, HOP))
            .collect();
        probe_sensor(&mut out, &model, &windows, run.share(0.1));
        let frames: Vec<Vec<Tensor>> = probe_videos
            .iter()
            .map(|v| {
                (0..v.num_frames())
                    .map(|t| v.frame(t).expect("frame"))
                    .collect()
            })
            .collect();
        probe_assembler(&mut out, &frames, run.share(0.1));

        // The gateway layer, over a server of the same model with the
        // algorithmic encoder, which the 16 KiB classify body feeds.
        let clips = common::clips(run, GATEWAY_CLIPS, HW);
        let reference = Reference::compute(&model, &clips);
        let server = Server::builder(Pipeline::builder(model))
            .with_batch_policy(BatchPolicy::greedy(8))
            .build()
            .expect("server");
        crate::gateway::probe(&mut out, server, &clips, &reference, run.share(0.1));
    } else {
        let servers = (&recipe, &mut ready);
        let phase = fleet_runs(
            &mut out,
            servers,
            &videos,
            &mut first,
            run.share(1.0),
            false,
        );
        // Runs are read like `Sliced` reads slices. Latency is per batch
        // the one worker runs (capture plus forward), from each run's
        // server histogram: hundreds of batches a run, where the handful
        // of runs could not support a p99.
        let windows = first.as_ref().map_or(0, |f| f.stats.windows) as f64;
        out.set("throughput_per_s", windows / median(&phase.runs_ms) * 1e3);
        out.set("latency_p50_ms", median(&phase.compute_p50_ms));
        out.set("latency_p99_ms", quantile(&phase.compute_p99_ms, QUIET));
        if let Some(replay) = &first {
            out.notes.push(format!(
                "{} runs of {NODES} nodes, median {:.1} ms, {:.0} windows/s over all runs; \
                 per run: {}",
                phase.runs_ms.len(),
                median(&phase.runs_ms),
                phase.per_s(),
                replay.stats
            ));
        }
    }
    common::finish(&mut out, setup.setup_s, setup.open_ms);
    out
}
