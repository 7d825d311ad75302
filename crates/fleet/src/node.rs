//! One simulated sensor node: the per-event state machine the driver
//! pool executes.
//!
//! A node is the event-driven analogue of
//! [`StreamSession`](snappix_stream::StreamSession): the same window
//! assembler, smoother, and event detector, but advanced one virtual-time
//! event at a time instead of owning a thread — which is what lets one
//! small driver pool multiplex thousands of nodes. On top of the
//! streaming machinery it runs the energy loop: every window is priced
//! by the node's [`EnergyModel`](snappix_energy::EnergyModel), paid from
//! its [`EnergyBudget`](snappix_energy::EnergyBudget), and the
//! [`DutyCycle`](crate::DutyCycle) ladder decides — deterministically,
//! from the budget fraction alone — whether the window is inferred,
//! shed, or slept through.

use crate::{DutyRung, FleetError, NodeConfig, NodeStats, TraceEvent, TraceKind};
use snappix_energy::Scenario;
use snappix_serve::{ServeError, Server, Ticket};
use snappix_stream::{
    Event, EventDetector, FrameSource, OverloadPolicy, Smoother, Smoothing, WindowAssembler,
};

/// The two event kinds a node alternates between on the virtual-time
/// heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum NodeEvent {
    /// Pull one frame, maybe emit a window, decide its fate, maybe
    /// submit it.
    Advance,
    /// Wait out the in-flight ticket and fold the prediction in.
    ///
    /// Scheduled at the *same* virtual time as the submitting
    /// [`Advance`](Self::Advance) but strictly after it in heap order —
    /// so with a single driver, every node's submission for a given
    /// virtual time lands in the server queue before any node blocks
    /// waiting, which is what lets the dynamic batcher coalesce windows
    /// across nodes.
    Collect,
}

pub(crate) struct Node<'a> {
    id: usize,
    source: Box<dyn FrameSource + Send + 'a>,
    config: NodeConfig,
    assembler: WindowAssembler,
    smoother: Smoother,
    detector: EventDetector,
    rung: DutyRung,
    infer_cost_pj: f64,
    shed_cost_pj: f64,
    us_per_frame: u64,
    frame_interval_s: f64,
    in_flight: Option<(usize, Ticket)>,
    inferred: u64,
    shed: u64,
    expired: u64,
    slept: u64,
    rung_changes: u64,
    events: Vec<Event>,
    /// The node's slice of the report trace, in virtual-time order.
    trace: Vec<TraceEvent>,
    first_sleep_us: Option<u64>,
    end_us: u64,
}

impl<'a> Node<'a> {
    /// Validates `config` against `server` and builds the node.
    pub(crate) fn new(
        id: usize,
        server: &Server,
        source: Box<dyn FrameSource + Send + 'a>,
        config: NodeConfig,
    ) -> Result<Self, FleetError> {
        let [t, h, w] = server.expected_clip();
        if config.window != t {
            return Err(FleetError::Config {
                context: format!(
                    "node {id}: window length {} does not match the served model's {t} \
                     exposure slots",
                    config.window
                ),
            });
        }
        if !config.fps.is_finite() || config.fps <= 0.0 {
            return Err(FleetError::Config {
                context: format!(
                    "node {id}: fps must be finite and positive, got {}",
                    config.fps
                ),
            });
        }
        if matches!(config.overload, OverloadPolicy::DropOldest { .. }) {
            return Err(FleetError::Config {
                context: format!(
                    "node {id}: DropOldest is a thread-per-stream policy; fleet nodes keep at \
                     most one window in flight — use Block or SkipWindow"
                ),
            });
        }
        if !config.sleep_pj_per_window.is_finite() || config.sleep_pj_per_window < 0.0 {
            return Err(FleetError::Config {
                context: format!(
                    "node {id}: sleep cost must be finite and non-negative, got {}",
                    config.sleep_pj_per_window
                ),
            });
        }
        config.ladder.validate()?;

        // Per-window pricing: one emitted window is one coded capture.
        // Inferring pays the full SnapPix pipeline (exposure, CE pattern
        // control, single-image readout, transmission); shedding stops
        // before readout and pays only exposure + CE overhead.
        let scenario = Scenario {
            frame_pixels: h * w,
            slots: config.window,
            wireless: config.wireless,
        };
        let breakdown = config.energy_model.snappix_energy(&scenario);
        let infer_cost_pj = breakdown.total_pj();
        let shed_cost_pj = breakdown.exposure_pj + breakdown.ce_overhead_pj;

        let us_per_frame = ((1e6 / config.fps).round() as u64).max(1);
        Ok(Node {
            id,
            source,
            assembler: WindowAssembler::new(config.window, config.hop, [h, w])?,
            smoother: Smoother::new(config.smoothing),
            detector: EventDetector::new(config.hysteresis),
            rung: DutyRung::Full,
            infer_cost_pj,
            shed_cost_pj,
            us_per_frame,
            // Virtual time and energy agree on the frame interval: both
            // use the rounded microsecond spacing.
            frame_interval_s: us_per_frame as f64 / 1e6,
            in_flight: None,
            inferred: 0,
            shed: 0,
            expired: 0,
            slept: 0,
            rung_changes: 0,
            events: Vec::new(),
            trace: Vec::new(),
            first_sleep_us: None,
            end_us: 0,
            config,
        })
    }

    /// Appends one event to the node's trace.
    fn record(&mut self, at_us: u64, window: usize, kind: TraceKind) {
        self.trace.push(TraceEvent {
            at_us,
            node: self.id,
            window,
            kind,
        });
    }

    /// Processes one [`NodeEvent::Advance`]: pull a frame, harvest,
    /// and — if a window completed — step the ladder and decide the
    /// window's fate. Returns the node's next event, or `None` when the
    /// source is exhausted.
    pub(crate) fn advance(
        &mut self,
        at_us: u64,
        server: &Server,
    ) -> Result<Option<(u64, NodeEvent)>, FleetError> {
        debug_assert!(self.in_flight.is_none(), "one event in flight per node");
        let Some(frame) = self.source.next_frame()? else {
            self.end_us = at_us;
            return Ok(None);
        };
        // Harvest accrues over the frame interval that just elapsed;
        // the first frame arrives at virtual time zero with nothing
        // elapsed yet.
        if self.assembler.frames_in() > 0 {
            self.config.budget.harvest_for(self.frame_interval_s);
        }
        let submitted = match self.assembler.push(&frame)? {
            Some(window) => {
                let index = self.assembler.windows_out() - 1;
                self.step_ladder(at_us, index);
                self.decide(at_us, index, window, server)?
            }
            None => false,
        };
        if submitted {
            Ok(Some((at_us, NodeEvent::Collect)))
        } else {
            Ok(Some((at_us + self.us_per_frame, NodeEvent::Advance)))
        }
    }

    /// Processes one [`NodeEvent::Collect`]: block on the in-flight
    /// ticket, fold the prediction into smoothing/eventing, and schedule
    /// the next frame.
    pub(crate) fn collect(&mut self, at_us: u64) -> Result<Option<(u64, NodeEvent)>, FleetError> {
        let (index, ticket) = self
            .in_flight
            .take()
            .expect("Collect is only scheduled with a ticket in flight");
        match ticket.wait() {
            Ok(prediction) => {
                self.inferred += 1;
                self.record(
                    at_us,
                    index,
                    TraceKind::Inferred {
                        label: prediction.label,
                    },
                );
                let smoothed = self.smoother.observe(&prediction);
                let at_frame = index * self.assembler.hop() + self.assembler.window() - 1;
                if let Some(event) = self.detector.observe(self.id, index, at_frame, smoothed) {
                    self.events.push(event);
                }
            }
            Err(ServeError::DeadlineExpired { .. }) => {
                // The energy is already gone: capture, readout, and
                // transmission happened on the node; the server-side
                // queue expiring the work refunds nothing.
                self.expired += 1;
                self.record(at_us, index, TraceKind::Expired);
            }
            Err(e) => return Err(e.into()),
        }
        Ok(Some((at_us + self.us_per_frame, NodeEvent::Advance)))
    }

    /// One deterministic ladder step ahead of a window decision.
    fn step_ladder(&mut self, at_us: u64, window: usize) {
        let next = self
            .config
            .ladder
            .step(self.rung, self.config.budget.fraction());
        if next == self.rung {
            return;
        }
        self.record(
            at_us,
            window,
            TraceKind::Rung {
                from: self.rung,
                to: next,
            },
        );
        self.rung_changes += 1;
        // The LiteSmoothing rung swaps the smoother for raw labels;
        // recovering past it restores the configured smoothing with
        // fresh state (the stale pre-drain state is long irrelevant).
        if next == DutyRung::LiteSmoothing {
            self.smoother = Smoother::new(Smoothing::Off);
        } else if self.rung == DutyRung::LiteSmoothing && next == DutyRung::ReducedRate {
            self.smoother = Smoother::new(self.config.smoothing);
        }
        if next == DutyRung::Sleep && self.first_sleep_us.is_none() {
            self.first_sleep_us = Some(at_us);
        }
        self.rung = next;
    }

    /// Decides one window's fate under the current rung and budget.
    /// Returns whether a submission is now in flight.
    fn decide(
        &mut self,
        at_us: u64,
        index: usize,
        window: snappix_tensor::Tensor,
        server: &Server,
    ) -> Result<bool, FleetError> {
        match self.rung {
            DutyRung::Sleep => {
                self.sleep(at_us, index);
                Ok(false)
            }
            DutyRung::Shed => {
                self.shed_window(at_us, index);
                Ok(false)
            }
            DutyRung::Full | DutyRung::ReducedRate | DutyRung::LiteSmoothing => {
                let divisor = if self.rung == DutyRung::Full {
                    1
                } else {
                    self.config.ladder.rate_divisor as usize
                };
                if !index.is_multiple_of(divisor) {
                    // Rate-skip: the node powers down for this window.
                    self.sleep(at_us, index);
                    return Ok(false);
                }
                if !self.config.budget.can_afford(self.infer_cost_pj) {
                    // The ladder reacts one window late by design (one
                    // rung per window); an already-flat budget degrades
                    // immediately instead of going negative.
                    self.shed_window(at_us, index);
                    return Ok(false);
                }
                self.submit(at_us, index, window, server)
            }
        }
    }

    /// Submits one window under the configured overload policy; on a
    /// declined admission (SkipWindow), or when the server refuses the
    /// window as a bad clip (a NaN or infinite pixel), the window
    /// degrades to shed and the node goes on.
    fn submit(
        &mut self,
        at_us: u64,
        index: usize,
        window: snappix_tensor::Tensor,
        server: &Server,
    ) -> Result<bool, FleetError> {
        // DropOldest is rejected at construction, so anything but Block
        // is SkipWindow; a blocking submission never reports Overloaded.
        let deadline = self.config.deadline;
        let admitted = if self.config.overload == OverloadPolicy::Block {
            server.submit_within(&window, deadline)
        } else {
            server.try_submit_within(&window, deadline)
        };
        match admitted {
            Ok(ticket) => {
                let paid = self.config.budget.try_spend(self.infer_cost_pj);
                debug_assert!(paid, "affordability was checked before submission");
                self.in_flight = Some((index, ticket));
                Ok(true)
            }
            Err(ServeError::Overloaded { .. } | ServeError::BadClip { .. }) => {
                // Server-side shed, on overload or a clip refused for a
                // non-finite pixel: the node pays for the capture only.
                self.shed_window(at_us, index);
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Pays for (or degrades) a captured-but-not-inferred window.
    fn shed_window(&mut self, at_us: u64, index: usize) {
        if self.config.budget.try_spend(self.shed_cost_pj) {
            self.shed += 1;
            self.record(at_us, index, TraceKind::Shed);
        } else {
            // Cannot even afford the exposure: the window is slept
            // through instead.
            self.sleep(at_us, index);
        }
    }

    /// Sleeps through a window, paying whatever sleep cost is
    /// affordable (a flat battery sleeps for free).
    fn sleep(&mut self, at_us: u64, index: usize) {
        let _ = self
            .config
            .budget
            .try_spend(self.config.sleep_pj_per_window);
        self.slept += 1;
        self.record(at_us, index, TraceKind::Slept);
    }

    /// Final accounting: stats, label events, and the node's trace
    /// (which [`FleetSim::run`](crate::FleetSim::run) merges across
    /// nodes).
    pub(crate) fn finish(self) -> (NodeStats, Vec<Event>, Vec<TraceEvent>) {
        let budget = &self.config.budget;
        let stats = NodeStats {
            frames: self.assembler.frames_in() as u64,
            windows: self.assembler.windows_out() as u64,
            inferred: self.inferred,
            shed: self.shed,
            expired: self.expired,
            slept: self.slept,
            events: self.events.len() as u64,
            rung_changes: self.rung_changes,
            final_rung: self.rung,
            spent_pj: budget.spent_pj(),
            harvested_pj: budget.harvested_pj(),
            wasted_pj: budget.wasted_pj(),
            level_pj: budget.level_pj(),
            initial_pj: budget.initial_pj(),
            capacity_pj: budget.capacity_pj(),
            first_sleep_us: self.first_sleep_us,
            end_us: self.end_us,
        };
        (stats, self.events, self.trace)
    }

    /// The per-window inference cost the node was priced at, pJ.
    pub(crate) fn infer_cost_pj(&self) -> f64 {
        self.infer_cost_pj
    }
}
