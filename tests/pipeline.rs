//! Integration tests of the redesigned umbrella API: the `Sense`
//! backend abstraction and the batched `Pipeline` inference engine.
//!
//! Property tests (vendored proptest): the algorithmic encoder and the
//! noiseless hardware sensor agree *through the trait*, batched
//! inference is bit-for-bit identical to per-clip inference, and a
//! poisoned clip cannot move its batch-mates' logits (its own outcome
//! is pinned per backend).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use snappix::prelude::*;

const HW: usize = 16;
const TILE: (usize, usize) = (8, 8);
const CLASSES: usize = 5;

/// Generic over the backend — this is the point of the `Sense` trait:
/// the same driver code serves the training and deployment paths.
fn coded_via<S: Sense>(backend: &mut S, clip: &Tensor) -> Tensor
where
    S::Error: std::fmt::Debug,
{
    backend.sense(clip).expect("sense")
}

/// Every element's bit pattern, for bit-for-bit comparisons.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn model_for(mask: &ExposureMask) -> SnapPixAr {
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask.clone()).expect("geometry")
}

/// Clips of `batch` other than `victim` whose logits from one batched
/// `infer` differ in any bit from the same clip of `clean` inferred alone.
fn batch_mates_that_moved<S: Sense>(
    pipeline: &mut Pipeline<S>,
    clean: &Tensor,
    batch: &Tensor,
    victim: usize,
) -> Vec<usize>
where
    Error: From<S::Error>,
{
    let batched = pipeline.infer(batch).expect("batched inference");
    (0..clean.shape()[0])
        .filter(|&b| b != victim)
        .filter(|&b| {
            let clip = clean.index_axis(0, b).expect("clip");
            let single = pipeline.infer_clip(&clip).expect("single inference");
            let row = batched.logits.index_axis(0, b).expect("row");
            bits(&single.logits) != bits(&row)
        })
        .collect()
}

/// What one batched `infer` yields for the poisoned clip `victim`
/// itself, which `Pipeline` does not refuse: `Some(true)` for an
/// all-NaN logit row read as class 0, `Some(false)` for an all-finite
/// row, `None` for anything else.
fn victim_row_is_nan<S: Sense>(
    pipeline: &mut Pipeline<S>,
    batch: &Tensor,
    victim: usize,
) -> Option<bool>
where
    Error: From<S::Error>,
{
    let out = pipeline.infer(batch).expect("batched inference");
    let row = out.logits.index_axis(0, victim).expect("row");
    if row.as_slice().iter().all(|v| v.is_nan()) && out.labels[victim] == 0 {
        Some(true)
    } else if row.as_slice().iter().all(|v| v.is_finite()) {
        Some(false)
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any random mask and clip, the training-time encoder and the
    /// ideal-readout hardware simulation produce the same coded image
    /// when driven through the shared `Sense` trait.
    #[test]
    fn algorithmic_and_ideal_hardware_backends_agree(
        seed in 0u64..10_000,
        t in 2usize..8,
        open in 0.2f32..0.8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(t, TILE, open, &mut rng).expect("valid dims");
        let clip = Tensor::rand_uniform(&mut rng, &[t, HW, HW], 0.0, 1.0);
        let mut sw = AlgorithmicEncoder::new(mask.clone());
        let mut hw = HardwareSensor::new(HW, HW, mask).expect("geometry");
        let a = coded_via(&mut sw, &clip);
        let b = coded_via(&mut hw, &clip);
        prop_assert!(bits(&a) == bits(&b), "seed {seed}: backends disagree");
    }

    /// Unnormalized variants agree too (the ablation path).
    #[test]
    fn unnormalized_backends_agree(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(4, TILE, 0.5, &mut rng).expect("valid dims");
        let clip = Tensor::rand_uniform(&mut rng, &[4, HW, HW], 0.0, 1.0);
        let mut sw = AlgorithmicEncoder::new(mask.clone()).with_normalization(false);
        let mut hw = HardwareSensor::new(HW, HW, mask)
            .expect("geometry")
            .with_normalization(false);
        prop_assert_eq!(bits(&coded_via(&mut sw, &clip)), bits(&coded_via(&mut hw, &clip)));
    }

    /// `Pipeline::infer` on a batch is bit-for-bit identical to the same
    /// clips inferred one at a time — batching is a pure throughput
    /// optimization, never a numerics change.
    #[test]
    fn batched_infer_is_bitwise_equal_to_per_clip(seed in 0u64..10_000, batch in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(4, TILE, 0.5, &mut rng).expect("valid dims");
        let mut pipeline = Pipeline::builder(model_for(&mask)).build().expect("assembly");
        let clips = Tensor::rand_uniform(&mut rng, &[batch, 4, HW, HW], 0.0, 1.0);
        let batched = pipeline.infer(&clips).expect("batched inference");
        prop_assert_eq!(batched.logits.shape(), &[batch, CLASSES]);
        prop_assert_eq!(batched.predictions().len(), batch);
        for (b, row) in batched.predictions().enumerate() {
            let clip = clips.index_axis(0, b).expect("clip");
            let single = pipeline.infer_clip(&clip).expect("single inference");
            prop_assert_eq!(single.label, row.label);
            prop_assert!(
                single.logits.approx_eq(&row.logits, 0.0),
                "clip {}: batched logits must equal single-clip logits exactly", b
            );
        }
    }

    /// NaN, ±inf or 3e38 pixels in one clip of a batch leave every other
    /// clip's logits bit-identical to its clean single-clip inference, on
    /// both backends at one and two threads: no stage of the forward, the
    /// fused attention node included, reads another clip's rows.
    #[test]
    fn a_poisoned_clip_leaves_its_batch_mates_bit_identical(
        seed in 0u64..10_000,
        batch in 2usize..9,
        kind in 0usize..4,
        pixels in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = patterns::random(4, TILE, 0.5, &mut rng).expect("valid dims");
        let clean = Tensor::rand_uniform(&mut rng, &[batch, 4, HW, HW], 0.0, 1.0);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38][kind];
        let victim = rng.random_range(0..batch);
        let clip_len = 4 * HW * HW;
        let mut poisoned = clean.clone();
        for _ in 0..pixels {
            let at = victim * clip_len + rng.random_range(0..clip_len);
            poisoned.as_mut_slice()[at] = poison;
        }
        for threads in [1, 2] {
            let mut algorithmic = Pipeline::builder(model_for(&mask))
                .with_threads(threads)
                .build()
                .expect("assembly");
            let mut hardware = Pipeline::builder(model_for(&mask))
                .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
                .expect("sensor assembly")
                .with_threads(threads)
                .build()
                .expect("assembly");
            let moved = batch_mates_that_moved(&mut algorithmic, &clean, &poisoned, victim);
            prop_assert!(moved.is_empty(), "algorithmic, {threads} threads: clips {moved:?} moved");
            let moved = batch_mates_that_moved(&mut hardware, &clean, &poisoned, victim);
            prop_assert!(moved.is_empty(), "hardware, {threads} threads: clips {moved:?} moved");
            // The victim's own outcome, pinned per backend. The encoder
            // multiplies closed slots by 0 and 0 × ±inf is NaN, so any
            // non-finite pixel turns its row to NaN, and 3e38 pixels do
            // whenever their sums overflow. The hardware ADC clamps ±inf
            // and 3e38 to full scale, and a NaN pixel reaches the coded
            // image only through an open slot.
            let victim_clip = poisoned.index_axis(0, victim).expect("clip");
            let coded = coded_via(&mut hardware.backend().clone(), &victim_clip);
            let nan_coded = coded.as_slice().iter().any(|v| v.is_nan());
            let row = victim_row_is_nan(&mut algorithmic, &poisoned, victim);
            prop_assert!(
                row == Some(true) || (poison.is_finite() && row == Some(false)),
                "algorithmic, {poison} poison: NaN row {row:?}"
            );
            let row = victim_row_is_nan(&mut hardware, &poisoned, victim);
            prop_assert!(
                row == Some(poison.is_nan() && nan_coded),
                "hardware, {poison} poison, NaN in coded image {nan_coded}: NaN row {row:?}"
            );
        }
    }
}

/// Regression test for the old `SnapPixSystem::logits`, which rebuilt
/// the autograd graph and session on every call: the engine's session
/// reuse must not change results — repeated `infer` calls on the same
/// pipeline give identical logits, on both backends.
#[test]
fn repeated_infer_calls_give_identical_logits() {
    let mut rng = StdRng::seed_from_u64(77);
    let mask = patterns::random(4, TILE, 0.5, &mut rng).expect("valid dims");
    let clips = Tensor::rand_uniform(&mut rng, &[3, 4, HW, HW], 0.0, 1.0);

    let mut algorithmic = Pipeline::builder(model_for(&mask))
        .build()
        .expect("assembly");
    let mut hardware = Pipeline::builder(model_for(&mask))
        .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
        .expect("sensor assembly")
        .build()
        .expect("assembly");

    let first_sw = algorithmic.infer(&clips).expect("inference");
    let first_hw = hardware.infer(&clips).expect("inference");
    for round in 0..4 {
        let sw = algorithmic.infer(&clips).expect("inference");
        let hw = hardware.infer(&clips).expect("inference");
        assert!(
            sw.logits.approx_eq(&first_sw.logits, 0.0),
            "round {round}: algorithmic logits drifted across session reuse"
        );
        assert!(
            hw.logits.approx_eq(&first_hw.logits, 0.0),
            "round {round}: hardware logits drifted across session reuse"
        );
        assert_eq!(sw.labels, first_sw.labels);
        assert_eq!(hw.labels, first_hw.labels);
    }
}

/// The unified error type converts from every layer and surfaces
/// backend failures with context.
#[test]
fn unified_error_spans_the_stack() {
    let mask = patterns::long_exposure(4, TILE).expect("valid dims");
    let mut pipeline = Pipeline::builder(model_for(&mask))
        .build()
        .expect("assembly");

    // Wrong rank -> tensor-level error through the Ce backend.
    let err = pipeline.infer(&Tensor::zeros(&[4, HW, HW])).unwrap_err();
    assert!(matches!(err, Error::Ce(_)), "got {err}");
    // Wrong slot count -> mask validation error.
    let err = pipeline
        .infer_clip(&Tensor::zeros(&[3, HW, HW]))
        .unwrap_err();
    assert!(!err.to_string().is_empty());
    assert!(std::error::Error::source(&err).is_some());

    // Hardware backend failures arrive as Error::Sensor.
    let mut hw = Pipeline::builder(model_for(&mask))
        .with_hardware_sensor(ReadoutConfig::default())
        .expect("sensor assembly")
        .build()
        .expect("assembly");
    let err = hw.infer_clip(&Tensor::zeros(&[4, 8, 8])).unwrap_err();
    assert!(matches!(err, Error::Sensor(_)), "got {err}");
}

/// Regression: an empty `[0, t, h, w]` batch is defined as "nothing to
/// do" — the serve-layer batcher can race to a flush with zero clips and
/// must get an empty `Inference`, not a shape error, on *both* backends.
#[test]
fn empty_batch_is_an_empty_inference_on_both_backends() {
    let mask = patterns::long_exposure(4, TILE).expect("valid dims");
    let mut sw = Pipeline::builder(model_for(&mask))
        .build()
        .expect("assembly");
    let mut hw = Pipeline::builder(model_for(&mask))
        .with_hardware_sensor(ReadoutConfig::default())
        .expect("sensor assembly")
        .build()
        .expect("assembly");
    fn assert_empty_inference<S: Sense>(pipeline: &mut Pipeline<S>)
    where
        Error: From<S::Error>,
    {
        let out = pipeline
            .infer(&Tensor::zeros(&[0, 4, HW, HW]))
            .expect("empty batch is well-defined");
        assert!(out.is_empty());
        assert_eq!(out.logits.shape(), &[0, CLASSES]);
        assert_eq!(out.predictions().count(), 0);
    }
    assert_empty_inference(&mut sw);
    assert_empty_inference(&mut hw);
}
