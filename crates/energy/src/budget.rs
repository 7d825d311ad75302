//! A battery-backed energy budget with optional harvesting.
//!
//! The rest of this crate prices *one* capture window; a deployed node
//! pays that price over and over against a finite reserve (a battery or
//! a capacitor bank) that may trickle back up through harvesting (solar,
//! RF, vibration). [`EnergyBudget`] is that reserve as a ledger: every
//! picojoule in or out is accounted, the level never leaves
//! `[0, capacity]`, and the books can be audited at any time with
//! [`EnergyBudget::check_conserved`]. The fleet simulator
//! (`snappix-fleet`) drives one budget per node and steps its adaptive
//! duty-cycle ladder off [`EnergyBudget::fraction`].

/// A finite (or explicitly unbounded) energy reserve, in picojoules,
/// with conserved in/out accounting.
///
/// The ledger invariant, checked by [`check_conserved`](Self::check_conserved):
///
/// ```text
/// level == capacity + harvested - spent       (harvested excludes waste)
/// spent <= capacity + harvested
/// ```
///
/// Harvest beyond `capacity` is *wasted* (a full battery cannot absorb
/// it) and tracked separately in [`wasted_pj`](Self::wasted_pj) so the
/// harvest side of the ledger stays exact.
///
/// # Examples
///
/// ```
/// use snappix_energy::EnergyBudget;
///
/// let mut battery = EnergyBudget::new(1_000.0).with_harvest(50.0);
/// assert!(battery.try_spend(600.0));
/// assert!(!battery.try_spend(600.0), "only 400 pJ left");
/// battery.harvest_for(4.0); // 4 s of 50 pJ/s
/// assert!(battery.try_spend(600.0));
/// assert!(battery.check_conserved());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    capacity_pj: f64,
    level_pj: f64,
    harvest_pj_per_s: f64,
    spent_pj: f64,
    harvested_pj: f64,
    wasted_pj: f64,
}

impl EnergyBudget {
    /// A budget starting full at `capacity_pj` (clamped to ≥ 0) with no
    /// harvesting.
    pub fn new(capacity_pj: f64) -> Self {
        let capacity = if capacity_pj.is_nan() {
            0.0
        } else {
            capacity_pj.max(0.0)
        };
        EnergyBudget {
            capacity_pj: capacity,
            level_pj: capacity,
            harvest_pj_per_s: 0.0,
            spent_pj: 0.0,
            harvested_pj: 0.0,
            wasted_pj: 0.0,
        }
    }

    /// An explicitly unbounded budget: every spend succeeds (and is
    /// still *counted*), the level stays infinite, and
    /// [`fraction`](Self::fraction) reports 1.0. The right default for
    /// simulations that want fleet-scale scheduling without energy
    /// pressure.
    pub fn unbounded() -> Self {
        EnergyBudget::new(f64::INFINITY)
    }

    /// Sets the harvest rate in pJ per second (clamped to ≥ 0;
    /// non-finite rates clamp to 0).
    #[must_use]
    pub fn with_harvest(mut self, pj_per_s: f64) -> Self {
        self.harvest_pj_per_s = if pj_per_s.is_finite() {
            pj_per_s.max(0.0)
        } else {
            0.0
        };
        self
    }

    /// Battery capacity in pJ (infinite for [`unbounded`](Self::unbounded)).
    pub fn capacity_pj(&self) -> f64 {
        self.capacity_pj
    }

    /// Current level in pJ.
    pub fn level_pj(&self) -> f64 {
        self.level_pj
    }

    /// Total energy spent so far.
    pub fn spent_pj(&self) -> f64 {
        self.spent_pj
    }

    /// Total harvest *absorbed* so far (waste excluded).
    pub fn harvested_pj(&self) -> f64 {
        self.harvested_pj
    }

    /// Harvest that arrived while the battery was full and was lost.
    pub fn wasted_pj(&self) -> f64 {
        self.wasted_pj
    }

    /// Remaining charge as a fraction of capacity in `[0, 1]`
    /// (1.0 for an unbounded or zero-capacity budget).
    pub fn fraction(&self) -> f64 {
        if !self.capacity_pj.is_finite() || self.capacity_pj <= 0.0 {
            return 1.0;
        }
        (self.level_pj / self.capacity_pj).clamp(0.0, 1.0)
    }

    /// True when `cost_pj` could be spent right now.
    pub fn can_afford(&self, cost_pj: f64) -> bool {
        cost_pj <= self.level_pj
    }

    /// Absorbs `dt_s` seconds of harvesting at the configured rate,
    /// returning the energy actually absorbed (harvest beyond capacity
    /// is counted as waste, not charge).
    pub fn harvest_for(&mut self, dt_s: f64) -> f64 {
        if self.harvest_pj_per_s <= 0.0 || !dt_s.is_finite() || dt_s <= 0.0 {
            return 0.0;
        }
        let offered = self.harvest_pj_per_s * dt_s;
        let absorbed = offered.min(self.capacity_pj - self.level_pj).max(0.0);
        self.level_pj += absorbed;
        self.harvested_pj += absorbed;
        self.wasted_pj += offered - absorbed;
        absorbed
    }

    /// Spends `cost_pj` if affordable, returning whether it was. A spend
    /// that is not affordable debits *nothing* — the budget never goes
    /// negative. Non-finite or negative costs are rejected.
    pub fn try_spend(&mut self, cost_pj: f64) -> bool {
        if cost_pj.is_nan() || cost_pj < 0.0 || cost_pj > self.level_pj {
            return false;
        }
        self.level_pj -= cost_pj;
        self.spent_pj += cost_pj;
        true
    }

    /// Audits the ledger: `level == capacity + harvested - spent` (to a
    /// relative 1e-9, covering float accumulation) and
    /// `spent <= capacity + harvested`; every budget starts full. Unbounded
    /// budgets are trivially conserved.
    pub fn check_conserved(&self) -> bool {
        if !self.capacity_pj.is_finite() {
            return true;
        }
        let expected = self.capacity_pj + self.harvested_pj - self.spent_pj;
        let scale = self
            .capacity_pj
            .max(self.harvested_pj)
            .max(self.spent_pj)
            .max(1.0);
        (self.level_pj - expected).abs() <= 1e-9 * scale
            && self.spent_pj <= self.capacity_pj + self.harvested_pj + 1e-9 * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_conserved_through_a_spend_harvest_cycle() {
        let mut b = EnergyBudget::new(100.0).with_harvest(10.0);
        assert_eq!(b.level_pj(), 100.0);
        assert_eq!(b.fraction(), 1.0);
        assert!(b.try_spend(60.0));
        assert!((b.fraction() - 0.4).abs() < 1e-12);
        assert_eq!(b.harvest_for(2.0), 20.0);
        assert_eq!(b.level_pj(), 60.0);
        assert!(b.try_spend(55.0));
        assert_eq!(b.spent_pj(), 115.0);
        assert_eq!(b.harvested_pj(), 20.0);
        assert!(b.check_conserved());
    }

    #[test]
    fn refused_spends_debit_nothing() {
        let mut b = EnergyBudget::new(10.0);
        assert!(!b.try_spend(10.1));
        assert_eq!(b.level_pj(), 10.0);
        assert_eq!(b.spent_pj(), 0.0);
        assert!(!b.try_spend(f64::NAN));
        assert!(!b.try_spend(-1.0));
        assert!(b.try_spend(10.0));
        assert_eq!(b.level_pj(), 0.0);
        assert!(!b.try_spend(f64::MIN_POSITIVE), "empty means empty");
        assert!(b.check_conserved());
    }

    #[test]
    fn overflow_harvest_is_wasted_not_credited() {
        let mut b = EnergyBudget::new(100.0).with_harvest(100.0);
        assert!(b.try_spend(30.0));
        // 1 s offers 100 pJ; only 30 pJ of headroom exists.
        assert_eq!(b.harvest_for(1.0), 30.0);
        assert_eq!(b.level_pj(), 100.0);
        assert_eq!(b.harvested_pj(), 30.0);
        assert_eq!(b.wasted_pj(), 70.0);
        assert!(b.check_conserved());
    }

    #[test]
    fn unbounded_budget_always_affords_and_still_counts() {
        let mut b = EnergyBudget::unbounded();
        assert_eq!(b.fraction(), 1.0);
        assert!(b.try_spend(1e18));
        assert!(b.can_afford(f64::MAX));
        assert_eq!(b.spent_pj(), 1e18);
        assert_eq!(b.fraction(), 1.0);
        assert!(b.check_conserved());
    }

    #[test]
    fn constructors_sanitize_nonsense() {
        assert_eq!(EnergyBudget::new(-5.0).capacity_pj(), 0.0);
        assert_eq!(EnergyBudget::new(f64::NAN).capacity_pj(), 0.0);
        let mut b = EnergyBudget::new(10.0).with_harvest(f64::INFINITY);
        assert!(b.try_spend(10.0));
        assert_eq!(b.harvest_for(1.0), 0.0);
        let mut z = EnergyBudget::new(0.0);
        assert_eq!(z.fraction(), 1.0, "zero-capacity budgets report full");
        assert_eq!(z.harvest_for(1.0), 0.0);
    }

    #[test]
    fn harvest_ignores_bad_durations() {
        let mut b = EnergyBudget::new(10.0).with_harvest(5.0);
        assert!(b.try_spend(10.0));
        assert_eq!(b.harvest_for(f64::NAN), 0.0);
        assert_eq!(b.harvest_for(-1.0), 0.0);
        assert_eq!(b.harvest_for(0.0), 0.0);
        assert_eq!(b.level_pj(), 0.0);
        assert_eq!(b.harvest_for(0.5), 2.5);
        assert!(b.check_conserved());
    }
}
