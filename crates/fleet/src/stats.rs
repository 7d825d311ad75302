//! Per-node and aggregate statistics of a fleet run.
//!
//! Everything in here is a pure function of the simulation — virtual
//! times, counters, and energy ledgers — and intentionally excludes
//! wall-clock measurements, so two replays of the same seeded fleet
//! compare equal with `==` whatever hardware or thread count ran them.
//! Wall time lives on [`FleetReport`](crate::FleetReport) next to the
//! stats, not inside them.

use crate::DutyRung;
use snappix_energy::EnergyBudget;
use std::fmt;

/// One node's complete accounting at the end of a run.
///
/// The window ledger is conserved: every window the assembler emitted is
/// counted exactly once across `inferred + shed + expired + slept`
/// (checked by [`check_conserved`](Self::check_conserved)). The energy
/// ledger is the node's own [`EnergyBudget`], audited by
/// [`EnergyBudget::check_conserved`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Frames pulled from the node's source.
    pub frames: u64,
    /// Windows the assembler emitted.
    pub windows: u64,
    /// Windows inferred end to end.
    pub inferred: u64,
    /// Windows captured but shed before readout.
    pub shed: u64,
    /// Windows whose deadline expired in the server queue.
    pub expired: u64,
    /// Windows slept through (the Sleep rung, rate-skips, or an empty
    /// budget).
    pub slept: u64,
    /// Confirmed label-change events.
    pub events: u64,
    /// Duty-cycle ladder transitions.
    pub rung_changes: u64,
    /// The rung the node ended the run on.
    pub final_rung: DutyRung,
    /// The node's energy budget as the run left it: spent, harvested
    /// and wasted totals, the final level and the capacity.
    pub budget: EnergyBudget,
    /// Virtual time the node first hit [`DutyRung::Sleep`], if ever —
    /// the node's survival time for the fleet's survival curve.
    pub first_sleep_us: Option<u64>,
    /// Virtual time the node finished (source exhausted or run
    /// stopped).
    pub end_us: u64,
}

impl NodeStats {
    /// Audits both ledgers: every window accounted once, and the
    /// budget's energy conserved ([`EnergyBudget::check_conserved`]).
    pub fn check_conserved(&self) -> bool {
        self.inferred + self.shed + self.expired + self.slept == self.windows
            && self.budget.check_conserved()
    }
}

impl fmt::Display for NodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames, {} windows ({} inferred, {} shed, {} expired, {} slept), \
             {} events, {} rung changes (ends {}), {:.0} pJ spent",
            self.frames,
            self.windows,
            self.inferred,
            self.shed,
            self.expired,
            self.slept,
            self.events,
            self.rung_changes,
            self.final_rung,
            self.budget.spent_pj(),
        )?;
        if self.budget.capacity_pj().is_finite() {
            write!(
                f,
                ", budget {:.0}/{:.0} pJ",
                self.budget.level_pj(),
                self.budget.capacity_pj()
            )?;
        }
        if let Some(t) = self.first_sleep_us {
            write!(f, ", first slept at {t} us")?;
        }
        Ok(())
    }
}

/// Fleet-wide accounting: counters summed over nodes, energy ledgers
/// summed in node order (so float sums are reproducible), and the run's
/// virtual duration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Number of nodes.
    pub nodes: u64,
    /// Sum of [`NodeStats::frames`].
    pub frames: u64,
    /// Sum of [`NodeStats::windows`].
    pub windows: u64,
    /// Sum of [`NodeStats::inferred`].
    pub inferred: u64,
    /// Sum of [`NodeStats::shed`].
    pub shed: u64,
    /// Sum of [`NodeStats::expired`].
    pub expired: u64,
    /// Sum of [`NodeStats::slept`].
    pub slept: u64,
    /// Sum of [`NodeStats::events`].
    pub events: u64,
    /// Sum of [`NodeStats::rung_changes`].
    pub rung_changes: u64,
    /// Sum of each node's [`EnergyBudget::spent_pj`].
    pub spent_pj: f64,
    /// Sum of each node's [`EnergyBudget::harvested_pj`].
    pub harvested_pj: f64,
    /// Sum of each node's [`EnergyBudget::wasted_pj`].
    pub wasted_pj: f64,
    /// The run's virtual duration: the latest [`NodeStats::end_us`].
    pub virtual_us: u64,
}

impl FleetStats {
    /// Sums per-node stats (in iteration order, which the simulator
    /// keeps equal to node order).
    pub fn aggregate<'a>(nodes: impl IntoIterator<Item = &'a NodeStats>) -> Self {
        let mut agg = FleetStats {
            nodes: 0,
            frames: 0,
            windows: 0,
            inferred: 0,
            shed: 0,
            expired: 0,
            slept: 0,
            events: 0,
            rung_changes: 0,
            spent_pj: 0.0,
            harvested_pj: 0.0,
            wasted_pj: 0.0,
            virtual_us: 0,
        };
        for n in nodes {
            agg.nodes += 1;
            agg.frames += n.frames;
            agg.windows += n.windows;
            agg.inferred += n.inferred;
            agg.shed += n.shed;
            agg.expired += n.expired;
            agg.slept += n.slept;
            agg.events += n.events;
            agg.rung_changes += n.rung_changes;
            agg.spent_pj += n.budget.spent_pj();
            agg.harvested_pj += n.budget.harvested_pj();
            agg.wasted_pj += n.budget.wasted_pj();
            agg.virtual_us = agg.virtual_us.max(n.end_us);
        }
        agg
    }

    /// Fleet-wide average energy per inferred window, pJ. Infinite when
    /// energy was spent but nothing was inferred; 0 when nothing was
    /// spent.
    pub fn energy_per_inference_pj(&self) -> f64 {
        if self.inferred > 0 {
            self.spent_pj / self.inferred as f64
        } else if self.spent_pj > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Inferred windows per *virtual* second — the sensor-side service
    /// rate the fleet sustained. (Wall-clock throughput belongs to the
    /// bench harness, not the deterministic stats.)
    pub fn inferred_per_virtual_sec(&self) -> f64 {
        if self.virtual_us == 0 {
            return 0.0;
        }
        self.inferred as f64 / (self.virtual_us as f64 / 1e6)
    }

    /// The fleet-wide window ledger: every window accounted once.
    pub fn check_conserved(&self) -> bool {
        self.inferred + self.shed + self.expired + self.slept == self.windows
    }
}

impl fmt::Display for FleetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} frames, {} windows ({} inferred, {} shed, {} expired, {} slept), \
             {} events, {} rung changes over {:.2} virtual s; {:.0} pJ spent \
             ({:.0} pJ/inference, {:.1} inferred windows/virtual s)",
            self.nodes,
            self.frames,
            self.windows,
            self.inferred,
            self.shed,
            self.expired,
            self.slept,
            self.events,
            self.rung_changes,
            self.virtual_us as f64 / 1e6,
            self.spent_pj,
            self.energy_per_inference_pj(),
            self.inferred_per_virtual_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(windows: u64, inferred: u64, slept: u64, spent: f64) -> NodeStats {
        let mut budget = EnergyBudget::new(1000.0);
        assert!(budget.try_spend(spent));
        NodeStats {
            frames: windows * 4,
            windows,
            inferred,
            shed: 0,
            expired: 0,
            slept,
            events: 1,
            rung_changes: 2,
            final_rung: DutyRung::Full,
            budget,
            first_sleep_us: None,
            end_us: 2_000_000,
        }
    }

    #[test]
    fn aggregate_sums_and_maxes() {
        let nodes = [node(10, 8, 2, 100.0), node(6, 6, 0, 60.0)];
        let agg = FleetStats::aggregate(nodes.iter());
        assert_eq!(agg.nodes, 2);
        assert_eq!(agg.windows, 16);
        assert_eq!(agg.inferred, 14);
        assert_eq!(agg.slept, 2);
        assert_eq!(agg.spent_pj, 160.0);
        assert_eq!(agg.virtual_us, 2_000_000);
        assert!(agg.check_conserved());
        assert!((agg.energy_per_inference_pj() - 160.0 / 14.0).abs() < 1e-12);
        assert!((agg.inferred_per_virtual_sec() - 7.0).abs() < 1e-12);
        assert!(agg.to_string().contains("2 nodes"));
    }

    #[test]
    fn conservation_checks_catch_imbalance() {
        let good = node(10, 8, 2, 100.0);
        assert!(good.check_conserved());
        let mut bad_windows = good.clone();
        bad_windows.slept = 1;
        assert!(!bad_windows.check_conserved());
        // Unbounded budgets only audit the window ledger.
        let mut unbounded = good;
        unbounded.budget = EnergyBudget::unbounded();
        assert!(unbounded.check_conserved());
    }

    #[test]
    fn energy_per_inference_edge_cases() {
        let idle = FleetStats::aggregate([&node(4, 0, 4, 0.0)]);
        assert_eq!(idle.energy_per_inference_pj(), 0.0);
        let wasted = FleetStats::aggregate([&node(4, 0, 4, 5.0)]);
        assert_eq!(wasted.energy_per_inference_pj(), f64::INFINITY);
        let empty = FleetStats::aggregate(std::iter::empty());
        assert_eq!(empty.inferred_per_virtual_sec(), 0.0);
        assert!(empty.check_conserved());
    }

    #[test]
    fn node_display_mentions_budget_and_sleep() {
        let mut n = node(10, 8, 2, 100.0);
        n.first_sleep_us = Some(1_500_000);
        let s = n.to_string();
        assert!(s.contains("budget 900/1000 pJ"), "{s}");
        assert!(s.contains("first slept at 1500000 us"), "{s}");
    }
}
