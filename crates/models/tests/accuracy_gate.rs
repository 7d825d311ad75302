//! Accuracy gate for numeric changes inside the forward pass.
//!
//! Seeded SnapPix-S classifies a fixed set of clips, and the logits are
//! compared with a checked-in fixture recorded from the platform-libm
//! `tanh`/`exp` path (`tests/fixtures/snappix_s_libm_logits.txt`). Any
//! change that is allowed to move logits (a new transcendental, a
//! reduced-precision kernel) must keep both gates:
//!
//! - the argmax of every clip is unchanged;
//! - every logit is within [`MAX_ABS_DELTA`] of the fixture.
//!
//! The thresholds are fixed. The fixture is never regenerated: it is the
//! reference the gate measures drift against.

use rand::{rngs::StdRng, SeedableRng};
use snappix_ce::patterns;
use snappix_models::{ActionModel, SnapPixAr, VitConfig};
use snappix_nn::Session;
use snappix_tensor::Tensor;

/// Largest allowed |Δlogit| against the fixture, on any clip and class.
const MAX_ABS_DELTA: f32 = 1e-4;

const T: usize = 16;
const HW: usize = 32;
const CLASSES: usize = 10;
const BATCH: usize = 8;
const CLIPS: usize = 64;

const FIXTURE: &str = include_str!("fixtures/snappix_s_libm_logits.txt");

/// SnapPix-S at 32x32 over 16 slots with a seeded random mask, and
/// `CLIPS` seeded uniform clips stacked into batches of `BATCH`.
fn model_and_batches() -> (SnapPixAr, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(0xacc_9a7e);
    let mask = patterns::random(T, (8, 8), 0.5, &mut rng).expect("valid mask");
    let model =
        SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("SnapPix-S geometry");
    let batches = (0..CLIPS / BATCH)
        .map(|_| Tensor::rand_uniform(&mut rng, &[BATCH, T, HW, HW], 0.0, 1.0))
        .collect();
    (model, batches)
}

/// One row of `CLASSES` logits per clip, in clip order.
fn logits() -> Vec<Vec<f32>> {
    let (model, batches) = model_and_batches();
    let mut rows = Vec::with_capacity(CLIPS);
    for batch in &batches {
        let mut sess = Session::inference(model.store());
        let var = model.build_logits(&mut sess, batch).expect("forward");
        rows.extend(
            sess.graph
                .value(var)
                .as_slice()
                .chunks(CLASSES)
                .map(<[f32]>::to_vec),
        );
    }
    rows
}

/// The fixture's rows: one line per clip, `CLASSES` hex `f32` bit
/// patterns each; `#` lines are comments.
fn fixture() -> Vec<Vec<f32>> {
    FIXTURE
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            line.split_whitespace()
                .map(|word| f32::from_bits(u32::from_str_radix(word, 16).expect("hex bits")))
                .collect()
        })
        .collect()
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[test]
fn fixture_covers_every_clip() {
    let rows = fixture();
    assert_eq!(rows.len(), CLIPS);
    assert!(rows.iter().all(|row| row.len() == CLASSES));
    assert!(rows.iter().flatten().all(|v| v.is_finite()));
}

#[test]
fn logits_stay_within_the_gate_of_the_libm_fixture() {
    let (got, want) = (logits(), fixture());
    assert_eq!(got.len(), want.len());
    let mut worst = 0.0f32;
    for (clip, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            argmax(g),
            argmax(w),
            "clip {clip}: argmax moved ({g:?} vs fixture {w:?})"
        );
        for (class, (&a, &b)) in g.iter().zip(w).enumerate() {
            let delta = (a - b).abs();
            assert!(
                delta <= MAX_ABS_DELTA,
                "clip {clip} class {class}: |Δlogit| {delta:e} > {MAX_ABS_DELTA:e}"
            );
            worst = worst.max(delta);
        }
    }
    println!("max |Δlogit| against the libm fixture: {worst:e}");
}
