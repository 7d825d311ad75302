//! Per-node configuration for the fleet simulator.

use crate::DutyCycle;
use snappix_energy::{EnergyBudget, EnergyModel, Wireless};
use snappix_stream::{OverloadPolicy, Smoothing};
use std::time::Duration;

/// Everything one simulated sensor node is configured with: window
/// geometry and frame rate, the streaming post-processing
/// (smoothing / hysteresis / overload), and the energy side (budget,
/// pricing model, wireless class, duty-cycle ladder).
///
/// Built `with_*`-style like the rest of the workspace; validated when
/// the node is added to a [`FleetSim`](crate::FleetSim).
///
/// # Examples
///
/// ```
/// use snappix_energy::EnergyBudget;
/// use snappix_fleet::NodeConfig;
///
/// let config = NodeConfig::new(8, 4)
///     .with_fps(15.0)
///     .with_budget(EnergyBudget::new(5.0e9).with_harvest(2.0e8));
/// assert_eq!(config.window, 8);
/// assert_eq!(config.fps, 15.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Window length `t` in frames — must equal the served model's slot
    /// count (`Server::expected_clip()[0]`).
    pub window: usize,
    /// Frames between consecutive window starts (clamped to ≥ 1).
    pub hop: usize,
    /// The node's camera frame rate in frames per second; sets the
    /// virtual-time spacing of the node's events. Must be finite and
    /// positive (validated at [`add_node`](crate::FleetSim::add_node)).
    pub fps: f64,
    /// Temporal smoothing at the [`Full`](crate::DutyRung::Full) and
    /// [`ReducedRate`](crate::DutyRung::ReducedRate) rungs; the
    /// [`LiteSmoothing`](crate::DutyRung::LiteSmoothing) rung overrides
    /// it with [`Smoothing::Off`].
    pub smoothing: Smoothing,
    /// Consecutive windows a new smoothed label must persist before a
    /// label-change event fires (clamped to ≥ 1).
    pub hysteresis: usize,
    /// What to do when the *server* sheds load (distinct from the
    /// budget-driven ladder). [`OverloadPolicy::Block`] (the default)
    /// keeps runs bit-for-bit replayable;
    /// [`OverloadPolicy::SkipWindow`] sheds on real-time queue state and
    /// therefore does not replay exactly.
    /// [`OverloadPolicy::DropOldest`] is rejected: fleet nodes keep at
    /// most one window in flight, so there is no buffer to drop from.
    pub overload: OverloadPolicy,
    /// Optional per-window deadline, measured from submission. Expiry
    /// depends on wall-clock server load, so deadlines also trade away
    /// exact replay.
    pub deadline: Option<Duration>,
    /// The node's energy reserve. Defaults to
    /// [`EnergyBudget::unbounded`] — scheduling without energy pressure.
    pub budget: EnergyBudget,
    /// Per-component energy pricing; defaults to
    /// [`EnergyModel::paper`].
    pub energy_model: EnergyModel,
    /// The node's offload link; defaults to [`Wireless::PassiveWifi`].
    pub wireless: Wireless,
    /// The duty-cycle ladder thresholds.
    pub ladder: DutyCycle,
    /// Energy charged for a window the node sleeps through (pattern
    /// clock gated, no exposure), in pJ. Defaults to 0 — deep sleep.
    pub sleep_pj_per_window: f64,
}

impl NodeConfig {
    /// A config with the given window length and hop and the defaults
    /// documented on each field: 30 fps, default smoothing, hysteresis
    /// 2, blocking overload, no deadline, unbounded budget, the paper's
    /// energy model over passive WiFi, the default ladder, free sleep.
    pub fn new(window: usize, hop: usize) -> Self {
        NodeConfig {
            window,
            hop: hop.max(1),
            fps: 30.0,
            smoothing: Smoothing::default(),
            hysteresis: 2,
            overload: OverloadPolicy::Block,
            deadline: None,
            budget: EnergyBudget::unbounded(),
            energy_model: EnergyModel::paper(),
            wireless: Wireless::PassiveWifi,
            ladder: DutyCycle::default(),
            sleep_pj_per_window: 0.0,
        }
    }

    /// Sets the camera frame rate (validated when the node is added).
    #[must_use]
    pub fn with_fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }

    /// Sets the temporal smoothing mode.
    #[must_use]
    pub fn with_smoothing(mut self, smoothing: Smoothing) -> Self {
        self.smoothing = smoothing;
        self
    }

    /// Sets the event hysteresis in windows (clamped to ≥ 1).
    #[must_use]
    pub fn with_hysteresis(mut self, hysteresis: usize) -> Self {
        self.hysteresis = hysteresis.max(1);
        self
    }

    /// Sets the server-overload policy.
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Sets the node's energy budget.
    #[must_use]
    pub fn with_budget(mut self, budget: EnergyBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the duty-cycle ladder.
    #[must_use]
    pub fn with_ladder(mut self, ladder: DutyCycle) -> Self {
        self.ladder = ladder;
        self
    }

    /// Sets the energy charged per slept-through window, in pJ.
    #[must_use]
    pub fn with_sleep_cost(mut self, pj_per_window: f64) -> Self {
        self.sleep_pj_per_window = pj_per_window;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_documented_ones() {
        let c = NodeConfig::new(8, 4);
        assert_eq!((c.window, c.hop), (8, 4));
        assert_eq!(c.fps, 30.0);
        assert_eq!(c.overload, OverloadPolicy::Block);
        assert_eq!(c.hysteresis, 2);
        assert!(c.deadline.is_none());
        assert_eq!(c.budget, EnergyBudget::unbounded());
        assert_eq!(c.energy_model, EnergyModel::paper());
        assert_eq!(c.wireless, Wireless::PassiveWifi);
        assert_eq!(c.ladder, DutyCycle::default());
        assert_eq!(c.sleep_pj_per_window, 0.0);
        // Clamps.
        assert_eq!(NodeConfig::new(8, 0).hop, 1);
        assert_eq!(NodeConfig::new(8, 4).with_hysteresis(0).hysteresis, 1);
    }
}
