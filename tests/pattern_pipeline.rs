//! Integration tests of the exposure-pattern pipeline: builtin patterns,
//! decorrelation learning, and codec invariants (property-based).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;

const T: usize = 8;
const TILE: (usize, usize) = (4, 4);

fn all_builtin_masks(seed: u64) -> Vec<(PatternKind, ExposureMask)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            PatternKind::LongExposure,
            patterns::long_exposure(T, TILE).expect("valid dims"),
        ),
        (
            PatternKind::ShortExposure,
            patterns::short_exposure(T, TILE, 4).expect("valid dims"),
        ),
        (
            PatternKind::Random,
            patterns::random(T, TILE, 0.5, &mut rng).expect("valid dims"),
        ),
        (
            PatternKind::SparseRandom,
            patterns::sparse_random(T, TILE, &mut rng).expect("valid dims"),
        ),
    ]
}

#[test]
fn every_builtin_pattern_round_trips_through_the_codec() {
    let data = Dataset::new(ssv2_like(T, 16, 16), 2);
    let batch = data.batch(0, 2);
    for (kind, mask) in all_builtin_masks(1) {
        let coded = encode_batch(&batch.videos, &mask).unwrap_or_else(|e| {
            panic!("{kind}: encode failed: {e}");
        });
        assert_eq!(coded.shape(), &[2, 16, 16], "{kind}");
        assert!(
            coded.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0),
            "{kind}: coded values must be finite and non-negative"
        );
        let normalized = normalize_coded(coded, &mask).expect("normalize");
        // Normalized values stay within the input range [0, 1].
        assert!(
            normalized
                .as_slice()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)),
            "{kind}: normalization must bound values"
        );
    }
}

#[test]
fn decorrelated_pattern_beats_all_builtins_on_correlation() {
    let data = Dataset::new(ssv2_like(T, 16, 16), 48);
    let mut trainer = DecorrelationTrainer::new(DecorrelationConfig {
        slots: T,
        tile: TILE,
        batch_size: 8,
        lr: 0.1,
        ..DecorrelationConfig::default()
    })
    .expect("valid config");
    let learned = trainer.train(&data, 100).expect("training");

    let eval = Dataset::new(ssv2_like(T, 16, 16), 24);
    let rho_learned = measure_pattern_correlation(&eval, &learned.mask, 24).expect("measurement");
    for (kind, mask) in all_builtin_masks(7) {
        let rho = measure_pattern_correlation(&eval, &mask, 24).expect("measurement");
        assert!(
            rho_learned < rho + 1e-4,
            "decorrelated ({rho_learned:.4}) should not lose to {kind} ({rho:.4})"
        );
    }
}

#[test]
fn correlation_ordering_matches_paper_figure6_legend() {
    // Fig. 6 legend: long (0.38) > short (0.48? no — short 0.48 > long
    // 0.38) ... the paper lists short 0.48, long 0.38, random 0.29,
    // sparse random 0.23, decorrelated 0.16. The robust ordering we
    // assert: the static full-exposure family (long/short) is more
    // correlated than the randomized family (random/sparse random).
    let eval = Dataset::new(ssv2_like(T, 16, 16), 24);
    let masks = all_builtin_masks(3);
    let rho = |kind: PatternKind| -> f32 {
        let (_, m) = masks.iter().find(|(k, _)| *k == kind).expect("present");
        measure_pattern_correlation(&eval, m, 24).expect("measurement")
    };
    let long = rho(PatternKind::LongExposure);
    let short = rho(PatternKind::ShortExposure);
    let random = rho(PatternKind::Random);
    let sparse = rho(PatternKind::SparseRandom);
    assert!(
        long.min(short) > random.max(sparse) * 0.8,
        "uniform exposures (long {long:.3}, short {short:.3}) should be more correlated \
         than randomized ones (random {random:.3}, sparse {sparse:.3})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Eqn. 1 is linear in the video: encode(a*Y1 + b*Y2) = a*X1 + b*X2.
    #[test]
    fn encode_is_linear(seed in 0u64..500, a in 0.1f32..2.0, b in 0.1f32..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(T, TILE, 0.5, &mut rng).expect("valid dims");
        let y1 = Tensor::rand_uniform(&mut rng, &[T, 8, 8], 0.0, 1.0);
        let y2 = Tensor::rand_uniform(&mut rng, &[T, 8, 8], 0.0, 1.0);
        let combo = y1.scale(a).add(&y2.scale(b)).expect("same shape");
        let lhs = encode(&combo, &mask).expect("encode");
        let rhs = encode(&y1, &mask).expect("encode").scale(a)
            .add(&encode(&y2, &mask).expect("encode").scale(b)).expect("same shape");
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    /// The coded image never exceeds the per-pixel exposure count times
    /// the video's maximum value.
    #[test]
    fn encode_is_bounded_by_exposure_count(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(T, TILE, 0.5, &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[T, 8, 8], 0.0, 1.0);
        let coded = encode(&video, &mask).expect("encode");
        let counts = mask.exposure_counts();
        for y in 0..8 {
            for x in 0..8 {
                let c = counts.get(&[y % TILE.0, x % TILE.1]).expect("in range");
                let v = coded.get(&[y, x]).expect("in range");
                prop_assert!(v <= c + 1e-5, "pixel ({y},{x}): {v} > count {c}");
            }
        }
    }

    /// Permuting which slots are open cannot change the coded image of a
    /// static (time-constant) video.
    #[test]
    fn static_scenes_depend_only_on_exposure_counts(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(T, TILE, 0.5, &mut rng).expect("valid dims");
        let frame = Tensor::rand_uniform(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let mut frames = Vec::new();
        for _ in 0..T {
            frames.push(frame.clone());
        }
        let refs: Vec<&Tensor> = frames.iter().collect();
        let video = Tensor::concat(&refs, 0).expect("same shapes");
        let coded = encode(&video, &mask).expect("encode");
        // Expected: frame value x exposure count at each pixel.
        let counts = mask.exposure_counts();
        for y in 0..8 {
            for x in 0..8 {
                let expect = frame.get(&[0, y, x]).expect("in range")
                    * counts.get(&[y % TILE.0, x % TILE.1]).expect("in range");
                prop_assert!((coded.get(&[y, x]).expect("in range") - expect).abs() < 1e-4);
            }
        }
    }

    /// Normalized encoding of a constant video recovers the constant at
    /// every exposed pixel.
    #[test]
    fn normalization_recovers_constants(value in 0.05f32..1.0, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::sparse_random(T, TILE, &mut rng).expect("valid dims");
        let video = Tensor::full(&[T, 8, 8], value);
        let coded = encode(&video, &mask).expect("encode");
        let normalized = normalize_coded(coded, &mask).expect("normalize");
        prop_assert!(normalized.approx_eq(&Tensor::full(&[8, 8], value), 1e-5));
    }
}
