//! Property and invariant tests for the energy model.
//!
//! The model claims (paper Sec. VI-D) that coded-exposure capture saves
//! edge energy by reading out and transmitting one image instead of `T`.
//! These tests pin the claim as an *inequality over the whole parameter
//! space*, not just at the paper's operating point, plus the bookkeeping
//! invariants (breakdown totals, wireless ordering) the fleet simulator
//! leans on.

use proptest::prelude::*;
use snappix_energy::{EnergyBudget, EnergyModel, Scenario, Wireless};

proptest! {
    // SnapPix never costs more than conventional capture once there are
    // at least 2 slots to amortize over. (At slots == 1 both pipelines
    // read out and transmit one frame, but SnapPix still pays the CE
    // pattern overhead — see `single_slot_crossover` below for that
    // boundary pinned exactly.)
    #[test]
    fn snappix_never_exceeds_conventional(
        frame_pixels in 1usize..200_000,
        slots in 2usize..64,
        wireless_pj in 0.0f64..1e7,
    ) {
        let m = EnergyModel::paper();
        let s = Scenario { frame_pixels, slots, wireless: Wireless::Custom(wireless_pj) };
        let snap = m.snappix_energy(&s).total_pj();
        let conv = m.conventional_energy(&s).total_pj();
        prop_assert!(
            snap <= conv,
            "snappix {snap} pJ must not exceed conventional {conv} pJ at T={slots}"
        );
        prop_assert!(m.edge_energy_saving(&s) >= 1.0);
    }

    // The breakdown total is exactly the sum of its parts, for both
    // pipelines, everywhere.
    #[test]
    fn breakdown_total_is_sum_of_parts(
        frame_pixels in 1usize..200_000,
        slots in 1usize..64,
        wireless_pj in 0.0f64..1e7,
    ) {
        let m = EnergyModel::paper();
        let s = Scenario { frame_pixels, slots, wireless: Wireless::Custom(wireless_pj) };
        for b in [m.snappix_energy(&s), m.conventional_energy(&s)] {
            let parts = b.readout_pj + b.exposure_pj + b.ce_overhead_pj + b.wireless_pj;
            prop_assert!((b.total_pj() - parts).abs() <= 1e-9 * parts.max(1.0));
        }
    }

    // Readout + wireless is cut by exactly T — the paper's "16x" claim,
    // for every T.
    #[test]
    fn readout_and_wireless_reduction_equals_slots(
        frame_pixels in 1usize..200_000,
        slots in 1usize..64,
    ) {
        let m = EnergyModel::paper();
        let s = Scenario { frame_pixels, slots, wireless: Wireless::PassiveWifi };
        let r = m.readout_and_wireless_reduction(&s);
        prop_assert!((r - slots as f64).abs() < 1e-9 * slots as f64);
    }

    // A pricier custom link never reports less energy per pixel.
    #[test]
    fn custom_wireless_is_monotone(a in 0.0f64..1e7, b in 0.0f64..1e7) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Wireless::Custom(lo).pj_per_pixel() <= Wireless::Custom(hi).pj_per_pixel());
    }

    // The budget ledger stays conserved under an arbitrary interleaving
    // of spends and harvests.
    #[test]
    fn budget_ledger_conserved_under_random_ops(
        capacity in 1.0f64..1e6,
        rate in 0.0f64..1e4,
        costs in prop::collection::vec(0.0f64..1e5, 0..40),
        dts in prop::collection::vec(0.0f64..2.0, 0..40),
    ) {
        let mut b = EnergyBudget::new(capacity).with_harvest(rate);
        for (cost, dt) in costs.into_iter().zip(dts) {
            b.try_spend(cost);
            b.harvest_for(dt);
            prop_assert!(b.level_pj() >= 0.0 && b.level_pj() <= b.capacity_pj());
        }
        prop_assert!(b.check_conserved());
        prop_assert!(b.spent_pj() <= b.capacity_pj() + b.harvested_pj() + 1e-9 * capacity.max(1.0));
    }
}

/// At `slots == 1` the compression win vanishes (1 frame either way) but
/// the CE pattern overhead remains, so SnapPix is strictly *more*
/// expensive. Pinning this boundary documents why the sweep above starts
/// at `slots == 2`.
#[test]
fn single_slot_crossover() {
    let m = EnergyModel::paper();
    let s = Scenario {
        frame_pixels: 112 * 112,
        slots: 1,
        wireless: Wireless::PassiveWifi,
    };
    let snap = m.snappix_energy(&s).total_pj();
    let conv = m.conventional_energy(&s).total_pj();
    assert!(
        snap > conv,
        "T=1 must cost extra ({snap} vs {conv}): CE overhead with no compression win"
    );
    let diff = snap - conv;
    let overhead = s.frame_pixels as f64 * m.ce_overhead_pj_per_pixel_slot;
    assert!(
        (diff - overhead).abs() < 1e-9 * overhead,
        "the T=1 gap is exactly the CE overhead"
    );
}

/// The two built-in links are ordered as the paper states: LoRa
/// backscatter (long range) costs orders of magnitude more per pixel
/// than passive WiFi (short range).
#[test]
fn builtin_wireless_ordering() {
    let wifi = Wireless::PassiveWifi.pj_per_pixel();
    let lora = Wireless::LoraBackscatter.pj_per_pixel();
    assert!(wifi < lora);
    assert!(lora / wifi > 1e4, "LoRa is >10^4 x WiFi per pixel");
}
