//! Exact-bit gate for seeded SnapPix-S inference through `Pipeline`.
//!
//! Two seeded pipelines classify one batch of 8 clips each, and every
//! logit's f32 bit pattern is compared with a checked-in fixture
//! (`tests/fixtures/snappix_s_logit_bits.txt`):
//!
//! - `algorithmic`: 32x32 clips through the algorithmic CE encoder (the
//!   `offline_batch` geometry, sharded by clip at two threads and more);
//! - `hardware`: 16x16 clips through `HardwareSensor` with a noiseless
//!   8-bit readout (the `fleet_hw` geometry, one serial pass).
//!
//! Each pipeline runs the batch several times, at one thread and at the
//! default thread count, so later calls run on whatever buffers the
//! pipeline kept from earlier ones. `accuracy_gate.rs` allows 1e-4 of
//! drift; this gate allows none. A kernel or storage rewrite that keeps
//! every f32 operation passes unedited. The fixture is never
//! regenerated: it is the reference the forward is held to.

use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;

const T: usize = 16;
const TILE: usize = 8;
const CLASSES: usize = 10;
const BATCH: usize = 8;
/// `infer` calls per pipeline, all checked.
const CALLS: usize = 3;
const ADC_BITS: u32 = 8;

const FIXTURE: &str = include_str!("fixtures/snappix_s_logit_bits.txt");

/// SnapPix-S at `hw x hw` over `T` slots with a seeded random mask, and
/// one seeded `[BATCH, T, hw, hw]` batch of clips.
fn model_and_clips(hw: usize) -> (SnapPixAr, Tensor) {
    let mut rng = StdRng::seed_from_u64(0xb175 + hw as u64);
    let mask = patterns::random(T, (TILE, TILE), 0.5, &mut rng).expect("valid mask");
    let model =
        SnapPixAr::new(VitConfig::snappix_s(hw, hw, CLASSES), mask).expect("SnapPix-S geometry");
    let clips = Tensor::rand_uniform(&mut rng, &[BATCH, T, hw, hw], 0.0, 1.0);
    (model, clips)
}

/// `<tag> logits <hex f32 bits...>`, one line per clip.
fn lines(tag: &str, logits: &Tensor) -> Vec<String> {
    logits
        .as_slice()
        .chunks(CLASSES)
        .map(|row| {
            let bits: Vec<String> = row.iter().map(|v| format!("{:08x}", v.to_bits())).collect();
            format!("{tag} logits {}", bits.join(" "))
        })
        .collect()
}

fn fixture(tag: &str) -> Vec<&'static str> {
    FIXTURE
        .lines()
        .filter(|line| line.split_whitespace().next() == Some(tag))
        .collect()
}

/// Runs `CALLS` inferences through `pipeline` and checks each against
/// the fixture's `tag` lines.
fn assert_calls_match<S: Sense>(tag: &str, pipeline: &mut Pipeline<S>, clips: &Tensor)
where
    Error: From<S::Error>,
{
    let want = fixture(tag);
    for call in 0..CALLS {
        let got = lines(tag, &pipeline.infer(clips).expect("inference").logits);
        assert_eq!(got, want, "{tag} call {call} moved against the fixture");
    }
}

#[test]
fn algorithmic_32x32_logits_match_the_fixture_bit_for_bit() {
    let (model, clips) = model_and_clips(32);
    for threads in [Some(1), None] {
        let mut builder = Pipeline::builder(model.clone());
        if let Some(threads) = threads {
            builder = builder.with_threads(threads);
        }
        let mut pipeline = builder.build().expect("pipeline");
        assert_calls_match("algorithmic", &mut pipeline, &clips);
    }
}

#[test]
fn hardware_16x16_logits_match_the_fixture_bit_for_bit() {
    let (model, clips) = model_and_clips(16);
    for threads in [Some(1), None] {
        let mut builder = Pipeline::builder(model.clone());
        if let Some(threads) = threads {
            builder = builder.with_threads(threads);
        }
        let mut pipeline = builder
            .with_hardware_sensor(ReadoutConfig::noiseless(ADC_BITS, T as f32))
            .expect("sensor geometry")
            .build()
            .expect("pipeline");
        assert_calls_match("hardware", &mut pipeline, &clips);
    }
}
