//! Property-based equivalence between the hardware behavioral simulation
//! (Sec. V pixel/array/protocol) and the algorithmic Eqn. 1 codec.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;

/// Every element's bit pattern: equality here is bit-for-bit, with no
/// tolerance (`-0.0` and `0.0` differ).
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Tile shapes for [`multi_word_chains_equal_codec`].
const WORD_TILES: [(usize, usize); 7] =
    [(1, 1), (3, 1), (7, 9), (5, 13), (9, 9), (12, 7), (16, 16)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any random mask and video, the charge-domain sensor computes
    /// exactly Eqn. 1 (the paper's central hardware-correctness claim).
    #[test]
    fn sensor_equals_codec(seed in 0u64..10_000, t in 2usize..10, open in 0.1f32..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(t, (4, 4), open, &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[t, 8, 8], 0.0, 1.0);
        let mut sensor = HardwareSensor::new(8, 8, mask.clone())
            .expect("geometry")
            .with_normalization(false);
        let hw = sensor.sense(&video).expect("capture");
        let sw = encode(&video, &mask).expect("encode");
        prop_assert!(bits(&hw) == bits(&sw), "seed {seed}: hw != Eqn. 1");
    }

    /// Sparse-random masks (exactly one slot per pixel) also agree —
    /// this exercises the pattern-reset path that flushes stale charge.
    #[test]
    fn sensor_equals_codec_sparse(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::sparse_random(8, (2, 2), &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[8, 6, 6], 0.0, 1.0);
        let mut sensor = HardwareSensor::new(6, 6, mask.clone())
            .expect("geometry")
            .with_normalization(false);
        let hw = sensor.sense(&video).expect("capture");
        let sw = encode(&video, &mask).expect("encode");
        prop_assert_eq!(bits(&hw), bits(&sw));
    }

    /// The deployment geometry — 8x8 tiles, so each shift chain fills
    /// one 64-bit word, at T=16 — through both the raw capture and the
    /// normalizing `HardwareSensor` backend.
    #[test]
    fn deployment_geometry_equals_codec(seed in 0u64..10_000, open in 0.1f32..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(16, (8, 8), open, &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[16, 16, 16], 0.0, 1.0);
        let mut sensor = HardwareSensor::new(16, 16, mask.clone())
            .expect("geometry")
            .with_normalization(false);
        let hw = sensor.sense(&video).expect("capture");
        prop_assert!(bits(&hw) == bits(&encode(&video, &mask).expect("encode")),
            "seed {seed}: capture != Eqn. 1");
        let mut backend = HardwareSensor::new(16, 16, mask.clone()).expect("geometry");
        let mut reference = AlgorithmicEncoder::new(mask);
        let sensed = backend.sense(&video).expect("sense");
        let encoded = reference.sense(&video).expect("encode");
        prop_assert!(bits(&sensed) == bits(&encoded), "seed {seed}: sense != encoder");
    }

    /// Tiles whose rows straddle register words, or whose chains fill
    /// several: 1x1 and 3x1 chains, 63- and 65-DFF chains, 81 and 84
    /// DFFs over two words and 16x16 over four. Two back-to-back
    /// captures on one sensor each equal Eqn. 1 bit for bit.
    #[test]
    fn multi_word_chains_equal_codec(
        tile in 0usize..WORD_TILES.len(),
        t in 1usize..18,
        tiles_y in 1usize..4,
        tiles_x in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let (th, tw) = WORD_TILES[tile];
        let (h, w) = (tiles_y * th, tiles_x * tw);
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(t, (th, tw), 0.5, &mut rng).expect("valid dims");
        let mut sensor = HardwareSensor::new(h, w, mask.clone())
            .expect("geometry")
            .with_normalization(false);
        for capture in 0..2 {
            let video = Tensor::rand_uniform(&mut rng, &[t, h, w], 0.0, 1.0);
            let hw = sensor.sense(&video).expect("capture");
            prop_assert!(bits(&hw) == bits(&encode(&video, &mask).expect("encode")),
                "tile {th}x{tw}, t {t}, capture {capture}: hw != Eqn. 1");
        }
    }

    /// With a noiseless ADC, digitization error is bounded by half an LSB
    /// of the configured full scale.
    #[test]
    fn adc_error_is_bounded(seed in 0u64..10_000, bits in 6u32..13) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = 4usize;
        let mask = patterns::random(t, (4, 4), 0.5, &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[t, 8, 8], 0.0, 1.0);
        let mut sensor = HardwareSensor::new(8, 8, mask.clone())
            .expect("geometry")
            .with_normalization(false);
        let analog = sensor.sense(&video).expect("capture");
        let mut readout = Readout::new(ReadoutConfig::noiseless(bits, t as f32));
        let digital = readout.digitize(&analog);
        let lsb = t as f32 / ((1u64 << bits) - 1) as f32;
        for (&a, &d) in analog.as_slice().iter().zip(digital.as_slice()) {
            prop_assert!((a - d).abs() <= 0.5 * lsb + 1e-5,
                "analog {a} digital {d} lsb {lsb}");
        }
    }

    /// Captures are idempotent: running the same video twice through the
    /// same sensor yields the same image (no state leaks across frames).
    #[test]
    fn captures_are_repeatable(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
        let mut sensor = HardwareSensor::new(8, 8, mask)
            .expect("geometry")
            .with_normalization(false);
        let first = sensor.sense(&video).expect("capture");
        let second = sensor.sense(&video).expect("capture");
        prop_assert!(first.approx_eq(&second, 0.0));
    }
}

#[test]
fn pattern_clock_budget_matches_tile_size() {
    // The Sec. V design streams th*tw bits per slot, twice per slot; the
    // paper's 9 pJ/pixel CE overhead is priced at this activity.
    for (th, tw) in [(2usize, 2usize), (4, 4), (8, 8)] {
        let mask = patterns::long_exposure(4, (th, tw)).expect("valid dims");
        let mut sensor = HardwareSensor::new(th * 2, tw * 2, mask)
            .expect("geometry")
            .with_normalization(false);
        sensor
            .sense(&Tensor::zeros(&[4, th * 2, tw * 2]))
            .expect("capture");
        assert_eq!(
            sensor.stats().pattern_clock_cycles,
            (2 * 4 * th * tw) as u64,
            "tile {th}x{tw}"
        );
    }
}

#[test]
fn shot_noise_degrades_but_preserves_signal() {
    let mut rng = StdRng::seed_from_u64(5);
    let mask = patterns::long_exposure(8, (4, 4)).expect("valid dims");
    let video = Tensor::rand_uniform(&mut rng, &[8, 16, 16], 0.2, 0.8);
    let mut sensor = HardwareSensor::new(16, 16, mask.clone())
        .expect("geometry")
        .with_normalization(false);
    let analog = sensor.sense(&video).expect("capture");
    let mut noisy = Readout::new(ReadoutConfig {
        adc_bits: 8,
        full_scale: 8.0,
        full_well_electrons: 5_000.0,
        read_noise_electrons: 3.0,
        shot_noise: true,
        seed: 9,
    });
    let digital = noisy.digitize(&analog);
    // Noisy but correlated: PSNR in a sane band (not destroyed, not
    // noiseless).
    let db = psnr(&analog.scale(1.0 / 8.0), &digital.scale(1.0 / 8.0)).expect("same shape");
    assert!(
        (15.0..60.0).contains(&db),
        "noisy readout PSNR {db} dB outside expected band"
    );
}
