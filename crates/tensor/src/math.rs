//! Pure-Rust `exp` and `tanh` for the forward pass, and the softmax row
//! built on `exp`.
//!
//! `f32::exp` and `f32::tanh` call the platform libm, which costs a
//! function call per element, keeps elementwise loops scalar, and makes
//! the logits depend on which libm the binary links. The functions here
//! are branch-free polynomial and rational approximations built only from
//! `+ - * /`, comparisons and bit casts. They give the same bits on every
//! platform, and a loop that maps them over a slice autovectorizes on the
//! baseline x86-64 target (SSE2): no `floor`/`round` (libm calls there);
//! rounding to an integer adds and subtracts `1.5 * 2^23` instead.
//!
//! Error bounds against a correctly rounded `f64` reference, checked by a
//! dense sample in the normal test suite and over every finite `f32` in
//! an `#[ignore]`d release test (`cargo test --release -p snappix-tensor
//! -- --ignored`):
//!
//! | function | bound |
//! |---|---|
//! | [`exp`] | ≤ 1 ulp over normal outputs; subnormal outputs within 1 ulp of the subnormal grid, then `0`; `+inf` on overflow |
//! | [`tanh`] | ≤ 8 ulp; exactly `±1` from magnitude 7.905311 on (so wherever the rounded result is `±1`) and at `±inf` |
//!
//! Both return NaN for NaN. `tanh` keeps the sign of zero and returns
//! subnormal inputs unchanged; `exp(±0)` and `exp` of a subnormal are
//! exactly `1`.

/// `1.5 * 2^23`: adding it to an `f32` of magnitude below `2^22` rounds
/// the value to an integer (ties to even), which subtracting it again
/// recovers exactly. The low mantissa bits of the sum hold that integer
/// in two's complement.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Inputs are clamped to `[EXP_LO, EXP_HI]` so the exponent fits the two
/// power-of-two factors. `exp(EXP_LO)` is below half the smallest
/// subnormal, so it rounds to `0`; `exp(EXP_HI)` overflows to `+inf`.
const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;

/// `log2(e)`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split in two (Cody and Waite): `LN2_HI` has few mantissa bits,
/// so `n * LN2_HI` is exact for every `n` the clamp allows.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Cephes `expf` minimax coefficients for `exp(r) - 1 - r` over
/// `|r| <= ln(2) / 2`, highest degree first.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    5e-1,
];

/// `e^x`.
///
/// Reduces `x = n ln 2 + r` with `|r| <= ln(2) / 2`, evaluates a degree-7
/// polynomial for `e^r`, and scales by `2^n` as two power-of-two factors,
/// so a subnormal result is rounded once. See the [module docs](self)
/// for the error bound.
///
/// # Examples
///
/// ```
/// use snappix_tensor::math;
///
/// assert_eq!(math::exp(0.0), 1.0);
/// assert!((math::exp(1.0) - std::f32::consts::E).abs() <= f32::EPSILON * 3.0);
/// assert_eq!(math::exp(f32::INFINITY), f32::INFINITY);
/// assert_eq!(math::exp(f32::NEG_INFINITY), 0.0);
/// ```
#[inline]
pub fn exp(x: f32) -> f32 {
    // NaN passes the clamp and poisons `p` below.
    let x = x.clamp(EXP_LO, EXP_HI);
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let p = p * (r * r) + r + 1.0;
    // `n` in [-150, 129] as an integer, split into two halves that are
    // each a normal power of two.
    let k = (shifted.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let k1 = k >> 1;
    let k2 = k.wrapping_sub(k1);
    p * pow2(k1) * pow2(k2)
}

/// `2^k` for `k` in `[-126, 127]`.
#[inline]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// Inputs are clamped here: the rational form evaluates to exactly `1.0`
/// at this point, so `tanh` is exactly `±1` from here on (the true value
/// is within 5 ulp of one; it rounds to one from `13 ln 2 ≈ 9.011`).
const TANH_CLAMP: f32 = 7.905_311;
/// Below this magnitude `tanh(x)` rounds to within one ulp of `x`.
const TANH_TINY: f32 = 4e-4;

/// Odd numerator of Eigen's `[13/6]` rational `tanh`, in `x^2`, highest
/// degree first (the last coefficient multiplies `x`).
const TANH_NUM: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_35e-5,
    6.372_619_5e-4,
    4.893_524_6e-3,
];
/// Even denominator of the same rational, in `x^2`, highest degree first.
const TANH_DEN: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// `tanh(x)`.
///
/// A `[13/6]` odd rational over the input clamped to `±7.905311`, with
/// `x` itself for tiny inputs. See the [module docs](self) for the error
/// bound.
///
/// # Examples
///
/// ```
/// use snappix_tensor::math;
///
/// assert_eq!(math::tanh(0.0), 0.0);
/// assert_eq!(math::tanh(f32::INFINITY), 1.0);
/// assert_eq!(math::tanh(-20.0), -1.0);
/// assert!((math::tanh(0.5) - 0.462_117_16).abs() < 1e-6);
/// ```
#[inline]
pub fn tanh(x: f32) -> f32 {
    let c = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let c2 = c * c;
    let mut num = TANH_NUM[0];
    for a in &TANH_NUM[1..] {
        num = num * c2 + a;
    }
    let mut den = TANH_DEN[0];
    for b in &TANH_DEN[1..] {
        den = den * c2 + b;
    }
    let rational = c * num / den;
    if x.abs() < TANH_TINY {
        x
    } else {
        rational
    }
}

/// Softmax of one row, in place: the row maximum `m` (a `f32::max` fold
/// from `-inf`), then [`exp`]`(x - m)` per element, then their sum in
/// ascending order, then one divide per element.
///
/// `Tensor::softmax_last` runs every row through this helper, and so does
/// the fused attention node of `snappix-autograd`, which keeps the two
/// bit-identical.
///
/// # Examples
///
/// ```
/// use snappix_tensor::math;
///
/// let mut row = [1.0, 1.0, 1000.0];
/// math::softmax_in_place(&mut row);
/// assert_eq!(row[2], 1.0);
/// assert_eq!(row[0], 0.0);
/// ```
pub fn softmax_in_place(row: &mut [f32]) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // Exponentiate in one pass (it vectorizes) and sum in ascending order
    // in another.
    for x in row.iter_mut() {
        *x = exp(*x - m);
    }
    let total: f32 = row.iter().sum();
    for x in row.iter_mut() {
        *x /= total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::RangeInclusive;

    /// Distance from `got` to the `f64` reference `want`, in units of the
    /// `f32` spacing at `want` (subnormal spacing below the normal range).
    pub(crate) fn ulps(got: f32, want: f64) -> f64 {
        let rounded = want as f32;
        if rounded.is_infinite() || got.is_infinite() {
            return if got == rounded { 0.0 } else { f64::INFINITY };
        }
        let spacing = if want.abs() < f32::MIN_POSITIVE as f64 {
            2f64.powi(-149)
        } else {
            2f64.powi(want.abs().log2().floor() as i32 - 23)
        };
        (got as f64 - want).abs() / spacing
    }

    /// Every `stride`-th bit pattern, plus the special values.
    fn sample(stride: u32) -> impl Iterator<Item = f32> {
        (0..=u32::MAX)
            .step_by(stride as usize)
            .map(f32::from_bits)
            .chain([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN])
    }

    /// Checks [`exp`] at every input: within 1 ulp of the `f64`
    /// reference (on the subnormal grid below the normal range), `0`
    /// where the reference rounds to `0`, `+inf` where it overflows, NaN
    /// for NaN. Returns the worst ulp error seen.
    pub(crate) fn check_exp(inputs: impl Iterator<Item = f32>) -> f64 {
        let mut worst = 0.0f64;
        for x in inputs {
            let got = exp(x);
            if x.is_nan() {
                assert!(got.is_nan(), "exp({x}) = {got}");
                continue;
            }
            let want = (x as f64).exp();
            let e = ulps(got, want);
            assert!(e <= 1.0, "exp({x:e}) = {got:e}: {e} ulp from {want:e}");
            if want as f32 == 0.0 {
                assert_eq!(got.to_bits(), 0, "exp({x:e}) must underflow to 0");
            }
            worst = worst.max(e);
        }
        worst
    }

    /// Checks [`tanh`] at every input: within 8 ulp of the `f64`
    /// reference, exactly `±1` past the clamp and wherever the reference
    /// rounds there, `x` itself for zeros and subnormals, NaN for NaN.
    /// Returns the worst ulp error seen.
    pub(crate) fn check_tanh(inputs: impl Iterator<Item = f32>) -> f64 {
        let mut worst = 0.0f64;
        for x in inputs {
            let got = tanh(x);
            if x.is_nan() {
                assert!(got.is_nan(), "tanh({x}) = {got}");
                continue;
            }
            if x.abs() < f32::MIN_POSITIVE {
                assert_eq!(got.to_bits(), x.to_bits(), "tanh({x:e}) must return x");
            }
            let want = (x as f64).tanh();
            if (want as f32).abs() == 1.0 || x.abs() >= TANH_CLAMP {
                assert_eq!(got, 1.0f32.copysign(x), "tanh({x:e}) must saturate exactly");
            }
            let e = ulps(got, want);
            assert!(e <= 8.0, "tanh({x:e}) = {got:e}: {e} ulp from {want:e}");
            worst = worst.max(e);
        }
        worst
    }

    #[test]
    fn exp_is_within_one_ulp_on_a_dense_sample() {
        println!("exp: worst {} ulp", check_exp(sample(1999)));
    }

    #[test]
    fn tanh_is_within_eight_ulp_on_a_dense_sample() {
        println!("tanh: worst {} ulp", check_tanh(sample(1999)));
    }

    #[test]
    fn special_values() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::from_bits(1)), 1.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(88.8), f32::INFINITY);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(-f32::MAX).to_bits(), 0);
        assert!(exp(f32::NAN).is_nan());

        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for tiny in [f32::from_bits(1), -1e-40, 3e-39, f32::MIN_POSITIVE] {
            assert_eq!(tanh(tiny).to_bits(), tiny.to_bits());
        }
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f32::MAX), 1.0);
        assert_eq!(tanh(-9.5), -1.0);
        assert!(tanh(f32::NAN).is_nan());
    }

    #[test]
    fn ulps_measures_the_f32_grid() {
        assert_eq!(ulps(1.0, 1.0), 0.0);
        assert_eq!(ulps(1.0 + f32::EPSILON, 1.0), 1.0);
        assert_eq!(ulps(f32::from_bits(1), 0.0), 1.0);
        assert_eq!(ulps(f32::INFINITY, f64::INFINITY), 0.0);
        assert_eq!(ulps(f32::MAX, f64::INFINITY), f64::INFINITY);
    }

    /// Every finite `f32` (and the infinities and NaNs) against the `f64`
    /// reference. Slow in a debug build: run with
    /// `cargo test --release -p snappix-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive over all f32; run in release with --ignored"]
    fn exp_is_within_one_ulp_everywhere() {
        println!(
            "exp: worst {} ulp",
            every_f32(|bits| check_exp(bits.map(f32::from_bits)))
        );
    }

    /// See [`exp_is_within_one_ulp_everywhere`].
    #[test]
    #[ignore = "exhaustive over all f32; run in release with --ignored"]
    fn tanh_is_within_eight_ulp_everywhere() {
        println!(
            "tanh: worst {} ulp",
            every_f32(|bits| check_tanh(bits.map(f32::from_bits)))
        );
    }

    /// Runs `check` over all 2^32 bit patterns, split into two halves on
    /// two threads, and returns the worse of their results.
    fn every_f32(check: impl Fn(RangeInclusive<u32>) -> f64 + Sync) -> f64 {
        let check = &check;
        std::thread::scope(|scope| {
            let halves = [0..=u32::MAX / 2, u32::MAX / 2 + 1..=u32::MAX];
            let workers = halves.map(|bits| scope.spawn(move || check(bits)));
            workers
                .into_iter()
                .map(|w| w.join().expect("checker thread"))
                .fold(0.0, f64::max)
        })
    }
}
