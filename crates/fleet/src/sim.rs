//! The virtual-time fleet simulator: hundreds of nodes, a handful of
//! driver threads, one shared server.
//!
//! Where [`StreamRunner`](snappix_stream::StreamRunner) dedicates a
//! thread to each stream, [`FleetSim`] keeps every node's next event on
//! one binary heap ordered by `(virtual time, insertion order)` and lets
//! a small pool of driver threads pop and process events. A node has at
//! most one event outstanding, so its state advances strictly
//! sequentially no matter how many drivers run — which, together with
//! the deterministic serving backend and the pure duty-cycle ladder, is
//! what makes a seeded fleet run replay bit-for-bit across driver-pool
//! sizes and `SNAPPIX_THREADS` settings.

use crate::node::{Node, NodeEvent};
use crate::{FleetError, FleetStats, NodeConfig, NodeStats, TraceEvent};
use snappix_serve::Server;
use snappix_stream::{Event, FrameSource};
use snappix_trace::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One scheduled entry on the virtual-time heap. Ordered by `(due, seq)`
/// so ties at the same virtual instant resolve by insertion order —
/// deterministically, and with a submitting node's `Collect` always
/// after every other node's same-instant `Advance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    due_us: u64,
    seq: u64,
    node: usize,
    kind: NodeEvent,
}

struct SimState {
    heap: BinaryHeap<Reverse<Scheduled>>,
    in_process: usize,
    stopped: bool,
    error: Option<FleetError>,
    seq: u64,
}

/// Locks a mutex, shrugging off poisoning: a poisoned lock here means a
/// driver already panicked, and the panic guard has marked the run
/// failed — the data is still consistent enough to shut down with.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An event-driven simulator for a fleet of sensor nodes sharing one
/// [`Server`].
///
/// Build it over a running server, [`add_node`](Self::add_node) as many
/// configured nodes as the scenario needs, then [`run`](Self::run) to
/// completion. See the crate docs for the determinism contract.
///
/// # Examples
///
/// ```no_run
/// use snappix_fleet::prelude::*;
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let server = Server::builder(Pipeline::builder(model)).build()?;
///
/// let mut sim = FleetSim::new(&server).with_drivers(4);
/// for _ in 0..8 {
///     sim.add_node(
///         SyntheticSource::new(ssv2_like(32, 16, 16), 2),
///         NodeConfig::new(8, 4).with_fps(15.0),
///     )?;
/// }
/// let report = sim.run()?;
/// println!("{}", report.stats);
/// # Ok(())
/// # }
/// ```
pub struct FleetSim<'a> {
    server: &'a Server,
    drivers: usize,
    nodes: Vec<Node<'a>>,
    tracer: Tracer,
}

impl<'a> FleetSim<'a> {
    /// A simulator over `server` with a single driver thread and no
    /// trace export.
    pub fn new(server: &'a Server) -> Self {
        FleetSim {
            server,
            drivers: 1,
            nodes: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the driver-pool size (clamped to ≥ 1; also capped at the
    /// node count at run time). More drivers overlap more nodes'
    /// blocking waits on the server; results are identical either way.
    #[must_use]
    pub fn with_drivers(mut self, drivers: usize) -> Self {
        self.drivers = drivers.max(1);
        self
    }

    /// Exports the run's events into `tracer` — typically a clone of
    /// the served [`Server`]'s tracer, so fleet events (virtual-time
    /// instants, one lane per node) and the serving layer's spans land
    /// in one snapshot and one Chrome-trace export. Keep a clone to
    /// snapshot after [`run`](Self::run).
    ///
    /// The tracer receives a copy of the report's
    /// [`trace`](FleetReport::trace) once the run completes. The
    /// report never reads it back, so the tracer's ring capacity bounds
    /// only the export: a small ring drops the oldest exported events
    /// and leaves the report whole. Defaults to [`Tracer::disabled`],
    /// which exports nothing.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds one node reading frames from `source` under `config`,
    /// returning its id (ids are dense, in insertion order).
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when the window length does not match the
    /// served model, the fps is not finite and positive, the overload
    /// policy is `DropOldest`, the ladder fails
    /// [`validate`](crate::DutyCycle::validate), or the sleep cost is
    /// negative; [`FleetError::Stream`] for bad window geometry.
    pub fn add_node(
        &mut self,
        source: impl FrameSource + Send + 'a,
        config: NodeConfig,
    ) -> Result<usize, FleetError> {
        let id = self.nodes.len();
        self.nodes
            .push(Node::new(id, self.server, Box::new(source), config)?);
        Ok(id)
    }

    /// Runs every node's source to exhaustion and returns the report.
    ///
    /// # Errors
    ///
    /// The first [`FleetError`] any node hits stops the whole run — a
    /// non-deadline serving failure, a source error, or a driver panic.
    pub fn run(self) -> Result<FleetReport, FleetError> {
        let started = Instant::now();
        let server = self.server;
        let drivers = self.drivers.min(self.nodes.len()).max(1);
        let mut heap = BinaryHeap::with_capacity(self.nodes.len());
        for (id, _) in self.nodes.iter().enumerate() {
            heap.push(Reverse(Scheduled {
                due_us: 0,
                seq: id as u64,
                node: id,
                kind: NodeEvent::Advance,
            }));
        }
        let seq0 = self.nodes.len() as u64;
        let tracer = self.tracer;
        let nodes: Vec<Mutex<Node<'a>>> = self.nodes.into_iter().map(Mutex::new).collect();
        let state = Mutex::new(SimState {
            heap,
            in_process: 0,
            stopped: false,
            error: None,
            seq: seq0,
        });
        let idle = Condvar::new();

        std::thread::scope(|scope| {
            for _ in 0..drivers {
                scope.spawn(|| drive(&state, &idle, &nodes, server));
            }
        });

        let mut state = state.into_inner().unwrap_or_else(|p| p.into_inner());
        if let Some(error) = state.error.take() {
            return Err(error);
        }

        let mut reports = Vec::with_capacity(nodes.len());
        let mut trace = Vec::new();
        for (id, node) in nodes.into_iter().enumerate() {
            let node = node.into_inner().unwrap_or_else(|p| p.into_inner());
            let (stats, events, node_trace) = node.finish();
            debug_assert!(stats.check_conserved(), "node {id} ledgers out of balance");
            trace.extend(node_trace);
            reports.push(NodeReport { id, stats, events });
        }
        // Each node's events are already in virtual-time order, so a
        // stable sort of the node-ordered concatenation yields
        // (virtual time, node, per-node sequence) order.
        trace.sort_by_key(|e| (e.at_us, e.node));
        if tracer.is_enabled() {
            // Export in report order, numbering each node's events from
            // 1, so a ring too small for the run keeps its latest events.
            let mut seq = vec![0u64; reports.len()];
            for event in &trace {
                seq[event.node] += 1;
                tracer.record_raw(event.to_record(seq[event.node]));
            }
        }
        let stats = FleetStats::aggregate(reports.iter().map(|n| &n.stats));
        debug_assert!(stats.check_conserved(), "fleet ledger out of balance");
        Ok(FleetReport {
            nodes: reports,
            stats,
            trace,
            wall: started.elapsed(),
        })
    }
}

/// One driver thread: pop the earliest event, run it against its node,
/// push the follow-up. Exits when the heap is empty with nothing in
/// process, or the run stops on an error.
fn drive(state: &Mutex<SimState>, idle: &Condvar, nodes: &[Mutex<Node<'_>>], server: &Server) {
    loop {
        let scheduled = {
            let mut st = lock(state);
            loop {
                if st.stopped {
                    return;
                }
                if let Some(Reverse(scheduled)) = st.heap.pop() {
                    st.in_process += 1;
                    break scheduled;
                }
                if st.in_process == 0 {
                    // Quiescent: wake any drivers parked below so they
                    // observe it too.
                    st.stopped = true;
                    idle.notify_all();
                    return;
                }
                st = idle.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };

        // Catch panics so a wedged node fails the run cleanly instead of
        // leaving the other drivers parked on the condvar forever.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut node = lock(&nodes[scheduled.node]);
            match scheduled.kind {
                NodeEvent::Advance => node.advance(scheduled.due_us, server),
                NodeEvent::Collect => node.collect(scheduled.due_us),
            }
        }));
        let Ok(outcome) = outcome else {
            let mut st = lock(state);
            st.in_process -= 1;
            st.stopped = true;
            if st.error.is_none() {
                st.error = Some(FleetError::Config {
                    context: "a driver thread panicked mid-event".into(),
                });
            }
            idle.notify_all();
            return;
        };

        let mut st = lock(state);
        st.in_process -= 1;
        match outcome {
            Ok(Some((due_us, kind))) => {
                let seq = st.seq;
                st.seq += 1;
                st.heap.push(Reverse(Scheduled {
                    due_us,
                    seq,
                    node: scheduled.node,
                    kind,
                }));
            }
            Ok(None) => {}
            Err(error) => {
                st.stopped = true;
                if st.error.is_none() {
                    st.error = Some(error);
                }
            }
        }
        idle.notify_all();
    }
}

/// One node's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// The node id [`add_node`](FleetSim::add_node) returned.
    pub id: usize,
    /// The node's final accounting.
    pub stats: NodeStats,
    /// The node's confirmed label-change events, in window order.
    pub events: Vec<Event>,
}

/// Everything a completed fleet run produced.
///
/// All fields except [`wall`](Self::wall) are pure functions of the
/// fleet's sources and configs and compare equal across replays; wall
/// time is measurement, kept out of the comparable stats on purpose.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-node reports, in node-id order.
    pub nodes: Vec<NodeReport>,
    /// Fleet-wide aggregate statistics.
    pub stats: FleetStats,
    /// The merged deterministic event trace, sorted by
    /// `(virtual time, node)`.
    pub trace: Vec<TraceEvent>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl FleetReport {
    /// The fleet's budget survival curve: `buckets + 1` samples
    /// `(virtual_us, alive_fraction)` spanning the run, where a node
    /// counts as alive at `t` until it first reaches
    /// [`DutyRung::Sleep`](crate::DutyRung::Sleep).
    pub fn survival_curve(&self, buckets: usize) -> Vec<(u64, f64)> {
        if self.nodes.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let total = self.stats.virtual_us;
        (0..=buckets)
            .map(|i| {
                let t = total * i as u64 / buckets as u64;
                let alive = self
                    .nodes
                    .iter()
                    .filter(|n| n.stats.first_sleep_us.is_none_or(|s| s > t))
                    .count();
                (t, alive as f64 / self.nodes.len() as f64)
            })
            .collect()
    }

    /// Audits every node's ledgers and the fleet aggregate.
    pub fn check_conserved(&self) -> bool {
        self.nodes.iter().all(|n| n.stats.check_conserved()) && self.stats.check_conserved()
    }

    /// Exports the run as `snappix_fleet_*` families into `registry` —
    /// typically the shared registry of the server the fleet ran over,
    /// so one `/metrics` render covers both layers.
    ///
    /// Per-node window-ledger counters carry a `node` label; the
    /// unlabeled gauges describe the run as a whole. Counters
    /// *accumulate*: exporting two runs into one registry sums their
    /// ledgers (matching Prometheus counter semantics for a long-lived
    /// scrape target), while the gauges are overwritten with the most
    /// recent run's values. Call once per finished run.
    pub fn export_metrics(&self, registry: &snappix_metrics::Registry) {
        for node in &self.nodes {
            let id = node.id.to_string();
            let labels: &[(&str, &str)] = &[("node", &id)];
            let ledger: [(&str, &str, u64); 8] = [
                (
                    "snappix_fleet_frames_total",
                    "Frames pulled from node sources.",
                    node.stats.frames,
                ),
                (
                    "snappix_fleet_windows_total",
                    "Windows the node assemblers emitted.",
                    node.stats.windows,
                ),
                (
                    "snappix_fleet_inferred_total",
                    "Windows inferred end to end.",
                    node.stats.inferred,
                ),
                (
                    "snappix_fleet_shed_total",
                    "Windows captured but shed before readout.",
                    node.stats.shed,
                ),
                (
                    "snappix_fleet_expired_total",
                    "Windows whose deadline expired in the server queue.",
                    node.stats.expired,
                ),
                (
                    "snappix_fleet_slept_total",
                    "Windows slept through (Sleep rung, rate-skips, or an empty budget).",
                    node.stats.slept,
                ),
                (
                    "snappix_fleet_events_total",
                    "Confirmed label-change events.",
                    node.stats.events,
                ),
                (
                    "snappix_fleet_rung_changes_total",
                    "Duty-cycle ladder transitions.",
                    node.stats.rung_changes,
                ),
            ];
            for (name, help, value) in ledger {
                registry.counter_with(name, help, labels).add(value);
            }
            registry
                .gauge_with(
                    "snappix_fleet_energy_spent_picojoules",
                    "Energy the node spent over the most recent run, pJ.",
                    labels,
                )
                .set(node.stats.budget.spent_pj());
            registry
                .gauge_with(
                    "snappix_fleet_energy_level_picojoules",
                    "The node's budget level at the end of the most recent run, pJ.",
                    labels,
                )
                .set(node.stats.budget.level_pj());
        }
        registry
            .gauge("snappix_fleet_nodes", "Nodes in the most recent run.")
            .set(self.stats.nodes as f64);
        registry
            .gauge(
                "snappix_fleet_virtual_seconds",
                "Virtual duration of the most recent run.",
            )
            .set(self.stats.virtual_us as f64 / 1e6);
        registry
            .gauge(
                "snappix_fleet_energy_per_inference_picojoules",
                "Fleet-wide average energy per inferred window over the most \
                 recent run, pJ.",
            )
            .set(self.stats.energy_per_inference_pj());
    }
}
