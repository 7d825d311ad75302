//! Readout chain: shot noise, read noise and ADC quantization.
//!
//! The paper's energy analysis attributes ~66% of sensor energy to the
//! ADC; this module models the *signal* side of that readout so the
//! downstream models can be evaluated on realistically quantized coded
//! images.

use crate::{Result, SensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snappix_tensor::Tensor;
use std::ops::RangeInclusive;

/// Configuration of the readout chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutConfig {
    /// ADC resolution in bits (the paper's energy numbers assume 8).
    ///
    /// Must lie in [`ReadoutConfig::ADC_BITS`], `1..=24`: below one bit
    /// there is no code to quantize to, and above 24 the codes are no
    /// longer exact in the `f32` the image carries.
    /// [`validate`](Self::validate) checks it, and
    /// [`Readout::digitize`] returns garbage outside it.
    pub adc_bits: u32,
    /// Analog full scale: FD charge mapping to the top code. For a
    /// `t`-slot capture of unit-range irradiance this is normally `t`.
    pub full_scale: f32,
    /// Full-well capacity in electrons (controls shot-noise magnitude).
    pub full_well_electrons: f32,
    /// Gaussian read noise in electrons RMS.
    pub read_noise_electrons: f32,
    /// Enables Poisson-approximated shot noise.
    pub shot_noise: bool,
    /// RNG seed for noise realizations.
    pub seed: u64,
}

impl Default for ReadoutConfig {
    fn default() -> Self {
        ReadoutConfig {
            adc_bits: 8,
            full_scale: 16.0,
            full_well_electrons: 10_000.0,
            read_noise_electrons: 2.5,
            shot_noise: true,
            seed: 0,
        }
    }
}

impl ReadoutConfig {
    /// The ADC depths [`Readout::digitize`] handles: one bit up to the
    /// 24 bits whose codes an `f32` holds exactly.
    pub const ADC_BITS: RangeInclusive<u32> = 1..=24;

    /// Checks that the configuration digitizes meaningfully.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::AdcBits`] when `adc_bits` lies outside
    /// [`ADC_BITS`](Self::ADC_BITS).
    pub fn validate(&self) -> Result<()> {
        if Self::ADC_BITS.contains(&self.adc_bits) {
            Ok(())
        } else {
            Err(SensorError::AdcBits {
                bits: self.adc_bits,
            })
        }
    }

    /// A noiseless, quantization-only configuration (useful for tests and
    /// for isolating codec behaviour).
    pub fn noiseless(adc_bits: u32, full_scale: f32) -> Self {
        ReadoutConfig {
            adc_bits,
            full_scale,
            full_well_electrons: 1.0,
            read_noise_electrons: 0.0,
            shot_noise: false,
            seed: 0,
        }
    }
}

/// Stateful readout chain (owns its noise RNG).
#[derive(Debug, Clone)]
pub struct Readout {
    config: ReadoutConfig,
    rng: StdRng,
}

impl Readout {
    /// Creates a readout chain from `config`.
    pub fn new(config: ReadoutConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Readout { config, rng }
    }

    /// Digitizes an analog charge image: adds shot noise (Poisson
    /// approximated as Gaussian with variance = signal electrons) and read
    /// noise, then quantizes to `adc_bits` and returns values *normalized
    /// back to `[0, full_scale]`* so they remain comparable to the analog
    /// input.
    pub fn digitize(&mut self, analog: &Tensor) -> Tensor {
        let cfg = self.config;
        let max_code = ((1u64 << cfg.adc_bits) - 1) as f32;
        let mut out = analog.clone();
        for v in out.as_mut_slice() {
            let charge = *v;
            let mut electrons = (charge / cfg.full_scale).clamp(0.0, 1.0) * cfg.full_well_electrons;
            if cfg.shot_noise && electrons > 0.0 {
                electrons += self.sample_normal() * electrons.sqrt();
            }
            if cfg.read_noise_electrons > 0.0 {
                electrons += self.sample_normal() * cfg.read_noise_electrons;
            }
            let normalized = (electrons / cfg.full_well_electrons).clamp(0.0, 1.0);
            let code = (normalized * max_code).round();
            *v = code / max_code * cfg.full_scale;
        }
        out
    }

    fn sample_normal(&mut self) -> f32 {
        let u1: f32 = self.rng.random_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.random_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_quantization_is_monotone_and_bounded() {
        let mut r = Readout::new(ReadoutConfig::noiseless(8, 16.0));
        let analog = Tensor::linspace(0.0, 16.0, 100);
        let digital = r.digitize(&analog);
        let d = digital.as_slice();
        for w in d.windows(2) {
            assert!(w[1] >= w[0], "quantization must be monotone");
        }
        assert!(d.iter().all(|&x| (0.0..=16.0).contains(&x)));
    }

    #[test]
    fn noiseless_error_bounded_by_half_lsb() {
        let mut r = Readout::new(ReadoutConfig::noiseless(8, 16.0));
        let analog = Tensor::linspace(0.0, 16.0, 257);
        let digital = r.digitize(&analog);
        let lsb = 16.0 / 255.0;
        for (&a, &d) in analog.as_slice().iter().zip(digital.as_slice()) {
            assert!((a - d).abs() <= 0.5 * lsb + 1e-5, "a {a} d {d}");
        }
    }

    #[test]
    fn low_bit_depth_coarsens_output() {
        let analog = Tensor::linspace(0.0, 1.0, 1000);
        let mut r2 = Readout::new(ReadoutConfig::noiseless(2, 1.0));
        let d2 = r2.digitize(&analog);
        let mut distinct: Vec<i64> = d2
            .as_slice()
            .iter()
            .map(|&x| (x * 1000.0).round() as i64)
            .collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "2-bit ADC has exactly 4 codes");
    }

    #[test]
    fn saturation_clamps_at_full_scale() {
        let mut r = Readout::new(ReadoutConfig::noiseless(8, 1.0));
        let analog = Tensor::full(&[4], 100.0);
        let digital = r.digitize(&analog);
        assert!(digital.as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn shot_noise_scales_with_signal() {
        let cfg = ReadoutConfig {
            adc_bits: 12,
            full_scale: 1.0,
            full_well_electrons: 1000.0,
            read_noise_electrons: 0.0,
            shot_noise: true,
            seed: 1,
        };
        let mut r = Readout::new(cfg);
        let dim = Tensor::full(&[4000], 0.05);
        let bright = Tensor::full(&[4000], 0.8);
        let dim_out = r.digitize(&dim);
        let bright_out = r.digitize(&bright);
        let dim_std = dim_out.variance().sqrt();
        let bright_std = bright_out.variance().sqrt();
        assert!(
            bright_std > dim_std,
            "shot noise must grow with signal: {bright_std} vs {dim_std}"
        );
    }

    #[test]
    fn adc_depth_outside_one_to_24_bits_is_rejected() {
        for bits in [0, 25, 64] {
            assert!(matches!(
                ReadoutConfig::noiseless(bits, 1.0).validate(),
                Err(SensorError::AdcBits { bits: b }) if b == bits
            ));
        }
        for bits in [1, 8, 24] {
            assert!(ReadoutConfig::noiseless(bits, 1.0).validate().is_ok());
        }
    }

    #[test]
    fn noise_is_seed_reproducible() {
        let cfg = ReadoutConfig::default();
        let analog = Tensor::full(&[64], 4.0);
        let a = Readout::new(cfg).digitize(&analog);
        let b = Readout::new(cfg).digitize(&analog);
        assert_eq!(a, b);
    }
}
