//! Integration suite for the `snappix-fleet` subsystem.
//!
//! The headline guarantee is the determinism contract: a seeded fleet
//! run with replayable node configs (blocking overload, no deadline)
//! produces bit-for-bit identical per-node stats, merged trace, and
//! aggregate — across repeated runs, driver-pool sizes, and server
//! worker counts, at every `SNAPPIX_THREADS` setting (CI runs this file
//! in both matrix legs). On top of that: conserved window and energy
//! ledgers fleet-wide, the duty-cycle ladder engaging and recovering
//! under budget pressure, and config validation at `add_node`.

use snappix_fleet::prelude::*;
use std::time::Duration;

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 5;
const FRAMES: usize = 41;

fn model() -> SnapPixAr {
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("valid model")
}

fn server(workers: usize) -> Server {
    Server::builder(Pipeline::builder(model()))
        .with_workers(workers)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(1)))
        .build()
        .expect("server starts")
}

/// Deterministic per-node videos: node `i` replays sample `i` of a
/// seeded dataset, so every run sees the same frames.
fn fleet_videos(n: usize) -> Vec<Video> {
    let data = Dataset::new(ssv2_like(FRAMES, HW, HW), n.max(1));
    (0..n).map(|i| data.sample(i).video).collect()
}

/// The cost one full inference charges a test node (paper pricing over
/// passive WiFi) — for sizing budgets to "exactly k windows".
fn infer_cost() -> f64 {
    EnergyModel::paper()
        .snappix_energy(&Scenario {
            frame_pixels: HW * HW,
            slots: T,
            wireless: Wireless::PassiveWifi,
        })
        .total_pj()
}

/// A mixed fleet: unbounded, finite-with-harvest, and finite-no-harvest
/// budgets at two frame rates.
fn mixed_config(i: usize, cost: f64) -> NodeConfig {
    let budget = match i % 3 {
        0 => EnergyBudget::unbounded(),
        1 => EnergyBudget::new(cost * 6.0).with_harvest(cost * 2.0),
        _ => EnergyBudget::new(cost * 3.0),
    };
    NodeConfig::new(T, 2)
        .with_fps(if i.is_multiple_of(2) { 30.0 } else { 15.0 })
        .with_budget(budget)
        .with_smoothing(Smoothing::Majority { k: 3 })
        .with_hysteresis(2)
        .with_sleep_cost(cost * 0.01)
}

fn run_mixed_fleet(drivers: usize, workers: usize, n: usize) -> FleetReport {
    let cost = infer_cost();
    let server = server(workers);
    let mut sim = FleetSim::new(&server).with_drivers(drivers);
    for (i, video) in fleet_videos(n).into_iter().enumerate() {
        sim.add_node(ReplaySource::new(video), mixed_config(i, cost))
            .expect("valid node");
    }
    let report = sim.run().expect("fleet run completes");
    server.shutdown();
    report
}

#[test]
fn replay_is_bit_for_bit_across_drivers_and_workers() {
    let baseline = run_mixed_fleet(1, 1, 6);
    assert!(baseline.stats.windows > 0, "fleet did work");
    assert!(baseline.stats.inferred > 0, "fleet inferred windows");
    assert!(!baseline.trace.is_empty(), "trace recorded");
    for (drivers, workers) in [(1, 1), (3, 2), (6, 2)] {
        let replay = run_mixed_fleet(drivers, workers, 6);
        assert_eq!(
            replay.nodes, baseline.nodes,
            "per-node stats and events must replay exactly \
             ({drivers} drivers, {workers} workers)"
        );
        assert_eq!(
            replay.trace, baseline.trace,
            "the merged trace must replay exactly ({drivers} drivers, {workers} workers)"
        );
        assert_eq!(
            replay.stats, baseline.stats,
            "aggregate must replay exactly"
        );
    }
}

/// The fleet exports its events into the workspace's shared span
/// recorder: a caller-supplied tracer clone receives a copy of every
/// event the report carries — same order, node ids on lanes, virtual
/// time on the clock — and exports them as Chrome trace JSON alongside
/// any serving spans.
#[test]
fn fleet_events_land_in_a_shared_tracer() {
    let baseline = run_mixed_fleet(2, 1, 4);

    let cost = infer_cost();
    let server = server(1);
    let tracer = Tracer::new();
    let mut sim = FleetSim::new(&server)
        .with_drivers(2)
        .with_tracer(tracer.clone());
    for (i, video) in fleet_videos(4).into_iter().enumerate() {
        sim.add_node(ReplaySource::new(video), mixed_config(i, cost))
            .expect("valid node");
    }
    let report = sim.run().expect("fleet run completes");
    server.shutdown();
    assert_eq!(
        report.trace, baseline.trace,
        "shared tracer changes nothing"
    );

    let snapshot = tracer.snapshot();
    assert_eq!(snapshot.dropped, 0, "the export fits the ring");
    let fleet_records: Vec<_> = snapshot
        .records
        .iter()
        .filter(|r| matches!(r.name, "inferred" | "shed" | "slept" | "expired" | "rung"))
        .collect();
    assert_eq!(
        fleet_records.len(),
        report.trace.len(),
        "every report event is a record in the shared tracer"
    );
    for (record, event) in fleet_records.iter().zip(&report.trace) {
        assert_eq!(record.start_us, event.at_us, "virtual time on the clock");
        assert_eq!(record.end_us, event.at_us, "events are instants");
        assert_eq!(record.lane as usize, event.node, "node ids ride on lanes");
        assert_eq!(record.trace_id, 0, "fleet events are background spans");
    }
    // And the whole run exports straight to Chrome trace JSON.
    let json = snapshot.to_chrome_json();
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"inferred\""));
}

/// The report owns its trace: a tracer whose ring is far too small for
/// the run truncates only the export, never the report.
#[test]
fn a_tiny_tracer_ring_truncates_the_export_not_the_report() {
    let baseline = run_mixed_fleet(2, 1, 6);

    let cost = infer_cost();
    let server = server(1);
    let tracer = Tracer::builder().ring_capacity(8).build();
    let mut sim = FleetSim::new(&server)
        .with_drivers(2)
        .with_tracer(tracer.clone());
    for (i, video) in fleet_videos(6).into_iter().enumerate() {
        sim.add_node(ReplaySource::new(video), mixed_config(i, cost))
            .expect("valid node");
    }
    let report = sim.run().expect("fleet run completes");
    server.shutdown();

    assert_eq!(report.trace, baseline.trace, "the report trace is whole");
    assert_eq!(report.nodes, baseline.nodes);
    assert_eq!(report.stats, baseline.stats);
    assert!(
        tracer.snapshot().dropped > 0,
        "the export overflowed the ring"
    );
}

#[test]
fn ledgers_are_conserved_fleet_wide() {
    for nodes in [6, 64] {
        ledgers_are_conserved_at(nodes);
    }
}

fn ledgers_are_conserved_at(nodes: usize) {
    let report = run_mixed_fleet(2, 2, nodes);
    assert!(
        report.check_conserved(),
        "per-node and aggregate ledgers at {nodes} nodes"
    );
    let mut windows = 0;
    let mut spent = 0.0;
    for node in &report.nodes {
        let s = &node.stats;
        assert_eq!(
            s.inferred + s.shed + s.expired + s.slept,
            s.windows,
            "node {}: every window lands in exactly one bucket",
            node.id
        );
        assert_eq!(s.events, node.events.len() as u64);
        windows += s.windows;
        spent += s.budget.spent_pj();
    }
    assert_eq!(report.stats.windows, windows);
    assert!((report.stats.spent_pj - spent).abs() <= 1e-9 * spent.max(1.0));
    assert_eq!(report.stats.nodes, nodes as u64);
    assert!(report.stats.energy_per_inference_pj() > 0.0);

    // Exporting the run reproduces the ledger as snappix_fleet_*
    // families: the per-node `node`-labeled counters sum back to the
    // aggregate, so the scraped view conserves exactly like the report.
    let registry = Registry::new();
    report.export_metrics(&registry);
    let page = registry.render();
    let sum = |name: &str| -> u64 {
        page.lines()
            .filter(|l| l.starts_with(&format!("{name}{{")))
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .expect("split never empty")
                    .parse::<u64>()
                    .expect("counter value")
            })
            .sum()
    };
    assert_eq!(sum("snappix_fleet_windows_total"), report.stats.windows);
    assert_eq!(
        sum("snappix_fleet_inferred_total")
            + sum("snappix_fleet_shed_total")
            + sum("snappix_fleet_expired_total")
            + sum("snappix_fleet_slept_total"),
        report.stats.windows,
        "the exported window ledger is conserved"
    );
    assert_eq!(sum("snappix_fleet_events_total"), report.stats.events);
    assert!(
        page.contains(&format!("snappix_fleet_nodes {nodes}\n")),
        "{page}"
    );
}

#[test]
fn unbounded_nodes_infer_every_window_and_match_offline_labels() {
    let server = server(2);
    let video = fleet_videos(1).remove(0);
    let hop = 2;
    let mut sim = FleetSim::new(&server);
    sim.add_node(
        ReplaySource::new(video.clone()),
        NodeConfig::new(T, hop)
            .with_smoothing(Smoothing::Off)
            .with_hysteresis(1),
    )
    .expect("valid node");
    let report = sim.run().expect("run completes");
    server.shutdown();

    let stats = &report.nodes[0].stats;
    let expected_windows = ((FRAMES - T) / hop + 1) as u64;
    assert_eq!(stats.windows, expected_windows);
    assert_eq!(stats.inferred, expected_windows, "no budget, no shedding");
    assert_eq!((stats.shed, stats.expired, stats.slept), (0, 0, 0));
    assert_eq!(stats.final_rung, DutyRung::Full);
    assert_eq!(stats.rung_changes, 0);
    assert!(stats.first_sleep_us.is_none());

    // The event-driven path must still be numerically the offline
    // pipeline: trace labels equal a serial inference over the same
    // sliding windows.
    let mut pipeline = Pipeline::builder(model()).build().expect("pipeline");
    let offline: Vec<usize> = video
        .windows(T, hop)
        .map(|w| pipeline.infer_clip(&w).expect("offline inference").label)
        .collect();
    let streamed: Vec<usize> = report
        .trace
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Inferred { label } => Some(label),
            _ => None,
        })
        .collect();
    assert_eq!(streamed, offline, "fleet labels == offline labels");
}

/// A window with a NaN or infinite pixel is refused by the server; the
/// node sheds it and goes on, and every other window is still inferred
/// with its offline label.
#[test]
fn a_poisoned_window_is_shed_and_the_node_goes_on() {
    let server = server(1);
    let clean = fleet_videos(1).remove(0);
    let hop = 4;
    // Frames 9 and 25 each lie in exactly one window [4k, 4k + 4).
    let mut frames = clean.frames().clone();
    for (t, value) in [(9, f32::NAN), (25, f32::INFINITY)] {
        frames.as_mut_slice()[t * HW * HW] = value;
    }
    let video = Video::new(frames).expect("same geometry");
    let mut sim = FleetSim::new(&server);
    sim.add_node(
        ReplaySource::new(video),
        NodeConfig::new(T, hop)
            .with_smoothing(Smoothing::Off)
            .with_hysteresis(1),
    )
    .expect("valid node");
    let report = sim.run().expect("a poisoned window does not fail the run");
    server.shutdown();

    let stats = &report.nodes[0].stats;
    let windows = ((FRAMES - T) / hop + 1) as u64;
    assert_eq!(stats.windows, windows);
    assert_eq!((stats.inferred, stats.shed), (windows - 2, 2));
    assert_eq!((stats.expired, stats.slept), (0, 0));
    assert!(report.check_conserved());
    let shed: Vec<usize> = report
        .trace
        .iter()
        .filter(|e| e.kind == TraceKind::Shed)
        .map(|e| e.window)
        .collect();
    assert_eq!(shed, [2, 6]);

    let mut pipeline = Pipeline::builder(model()).build().expect("pipeline");
    let offline: Vec<usize> = clean
        .windows(T, hop)
        .enumerate()
        .filter(|(k, _)| !shed.contains(k))
        .map(|(_, w)| pipeline.infer_clip(&w).expect("offline inference").label)
        .collect();
    let streamed: Vec<usize> = report
        .trace
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Inferred { label } => Some(label),
            _ => None,
        })
        .collect();
    assert_eq!(streamed, offline);
}

#[test]
fn a_draining_budget_walks_the_ladder_and_harvest_recovers_it() {
    let cost = infer_cost();
    let server = server(1);
    let mut sim = FleetSim::new(&server);
    // Node 0: enough for a few windows, no harvest — must walk down to
    // Sleep and stay there. Node 1: same reserve, but harvest covers
    // ~3/4 of an inference per window — it drains at Full, then the
    // reduced rate lets harvest win and step it back up.
    sim.add_node(
        ReplaySource::new(fleet_videos(1).remove(0)),
        NodeConfig::new(T, 1)
            .with_budget(EnergyBudget::new(cost * 4.0))
            .with_fps(60.0),
    )
    .expect("valid node");
    sim.add_node(
        ReplaySource::new(fleet_videos(1).remove(0)),
        NodeConfig::new(T, 1)
            .with_budget(EnergyBudget::new(cost * 4.0).with_harvest(cost * 45.0))
            .with_fps(60.0),
    )
    .expect("valid node");
    let report = sim.run().expect("run completes");
    server.shutdown();

    let drained = &report.nodes[0].stats;
    assert!(drained.rung_changes > 0, "ladder engaged");
    assert_eq!(drained.final_rung, DutyRung::Sleep, "no harvest, no mercy");
    assert!(drained.first_sleep_us.is_some());
    assert!(drained.slept > 0);
    assert!(drained.inferred >= 1, "the budget bought a few inferences");
    assert!(drained.check_conserved());

    let harvesting = &report.nodes[1].stats;
    let recovered = report.trace.iter().any(|e| {
        e.node == 1 && matches!(e.kind, TraceKind::Rung { from, to } if to.depth() < from.depth())
    });
    assert!(recovered, "harvest must step the node back up the ladder");
    assert!(
        harvesting.inferred > drained.inferred,
        "harvest buys more inferences than a dead battery"
    );
    assert!(harvesting.budget.harvested_pj() > 0.0);
    assert!(harvesting.check_conserved());
}

#[test]
fn survival_curve_is_monotone_and_bounded() {
    let report = run_mixed_fleet(2, 1, 6);
    let curve = report.survival_curve(8);
    assert_eq!(curve.len(), 9);
    assert_eq!(curve[0].1, 1.0, "everyone starts awake");
    for pair in curve.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "time advances");
        assert!(
            pair[0].1 >= pair[1].1,
            "first-sleep survival never recovers"
        );
        assert!((0.0..=1.0).contains(&pair[1].1));
    }
    // The no-harvest nodes (2 of 6) ran out: the curve must end below 1.
    assert!(curve[8].1 < 1.0, "some nodes slept: {curve:?}");
    assert!(report.survival_curve(0).is_empty());
}

#[test]
fn misconfigured_nodes_are_rejected_up_front() {
    let server = server(1);
    let mut sim = FleetSim::new(&server);
    let video = fleet_videos(1).remove(0);
    let bad: Vec<NodeConfig> = vec![
        NodeConfig::new(T + 1, 1), // window != model slots
        NodeConfig::new(T, 1).with_fps(f64::NAN),
        NodeConfig::new(T, 1).with_fps(0.0),
        NodeConfig::new(T, 1).with_fps(-30.0),
        NodeConfig::new(T, 1).with_fps(f64::INFINITY),
        NodeConfig::new(T, 1).with_overload(OverloadPolicy::DropOldest { pending: 4 }),
        NodeConfig::new(T, 1).with_ladder(DutyCycle {
            rate_divisor: 1,
            ..DutyCycle::default()
        }),
        NodeConfig::new(T, 1).with_sleep_cost(-1.0),
        NodeConfig::new(T, 1).with_sleep_cost(f64::NAN),
    ];
    for config in bad {
        let err = sim
            .add_node(ReplaySource::new(video.clone()), config.clone())
            .expect_err("must be rejected");
        assert!(
            matches!(err, FleetError::Config { .. }),
            "{config:?} -> {err}"
        );
        let umbrella: snappix::Error = err.into();
        assert!(umbrella.to_string().contains("fleet"));
    }
    assert_eq!(sim.node_count(), 0, "nothing slipped through");
    // A valid node still goes in afterwards.
    sim.add_node(ReplaySource::new(video), NodeConfig::new(T, 1))
        .expect("valid node accepted");
    assert_eq!(sim.node_count(), 1);
    drop(sim);
    server.shutdown();
}

#[test]
fn an_empty_fleet_returns_an_empty_report() {
    let server = server(1);
    let report = FleetSim::new(&server)
        .with_drivers(4)
        .run()
        .expect("empty run completes");
    server.shutdown();
    assert_eq!(report.stats.nodes, 0);
    assert_eq!(report.stats.windows, 0);
    assert!(report.trace.is_empty());
    assert!(report.check_conserved());
    assert!(report.survival_curve(4).is_empty());
}

/// `NodeConfig::hop` is a public field, so a caller can set it to 0
/// after `NodeConfig::new` clamped it. The node's assembler clamps it to
/// 1 again, and every event must stamp the frame that confirmed it
/// under that clamped hop: `at_frame = window * 1 + T - 1`.
#[test]
fn events_stamp_frames_with_the_clamped_hop() {
    let server = server(1);
    let mut config = NodeConfig::new(T, 1)
        .with_smoothing(Smoothing::Off)
        .with_hysteresis(2);
    config.hop = 0;
    let mut sim = FleetSim::new(&server);
    for video in fleet_videos(3) {
        sim.add_node(ReplaySource::new(video), config.clone())
            .expect("a zero hop is clamped, not rejected");
    }
    let report = sim.run().expect("fleet run completes");
    server.shutdown();
    let events: Vec<_> = report.nodes.iter().flat_map(|n| &n.events).collect();
    // Hysteresis 2 confirms no label before window 1, so every event
    // tells a zero hop from the clamped one.
    assert!(!events.is_empty(), "the fleet confirmed labels");
    for event in events {
        assert!(event.window > 0, "{event}");
        assert_eq!(event.at_frame, event.window + T - 1, "{event}");
    }
}
