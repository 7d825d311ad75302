//! The deployment-path [`Sense`] backend: charge-domain capture plus the
//! readout chain, behind the same trait as the algorithmic encoder.

use crate::{CaptureStats, CeSensor, Readout, ReadoutConfig, Result};
use snappix_ce::{normalize_coded, ExposureMask, Sense};
use snappix_tensor::{Tensor, TensorError};

/// The hardware [`Sense`] backend: clips pass through the simulated CE
/// pixel array ([`CeSensor`]), optionally a noisy/quantizing [`Readout`],
/// and optionally the paper's exposure-count normalization — producing
/// the coded image a deployed node would transmit.
///
/// Configuration follows the workspace's builder-style `with_*` idiom:
/// [`HardwareSensor::new`] picks documented defaults (ideal readout,
/// normalization on) and each `with_*` method returns `self` with one
/// knob changed.
///
/// With the default *ideal* readout (no noise, no ADC) this backend is
/// bit-for-bit equivalent to `snappix_ce::AlgorithmicEncoder` — the
/// paper's central hardware-correctness claim, property-tested in the
/// workspace integration tests.
///
/// # Examples
///
/// ```
/// use snappix_ce::{patterns, Sense};
/// use snappix_sensor::{HardwareSensor, ReadoutConfig};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mask = patterns::long_exposure(4, (4, 4))?;
/// let mut hw = HardwareSensor::new(8, 8, mask)?
///     .with_readout(ReadoutConfig::noiseless(8, 4.0));
/// let coded = hw.sense(&Tensor::full(&[4, 8, 8], 0.5))?;
/// assert_eq!(coded.shape(), &[8, 8]);
/// assert!(hw.stats().pixels_read > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HardwareSensor {
    sensor: CeSensor,
    readout: Option<Readout>,
    normalize: bool,
}

impl HardwareSensor {
    /// Builds a backend around a `height x width` sensor running `mask`.
    ///
    /// Defaults: *ideal* readout (the analog FD image is used directly —
    /// no noise, no quantization) and exposure-count normalization on.
    /// Use [`with_readout`](Self::with_readout) to model a real chain and
    /// [`with_normalization`](Self::with_normalization) for the raw
    /// ablation.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Geometry`](crate::SensorError::Geometry)
    /// when the extents are zero or the mask tile does not divide the
    /// array.
    pub fn new(height: usize, width: usize, mask: ExposureMask) -> Result<Self> {
        Ok(HardwareSensor {
            sensor: CeSensor::new(height, width, mask)?,
            readout: None,
            normalize: true,
        })
    }

    /// Digitizes captures through a [`Readout`] chain built from
    /// `config` (shot/read noise and ADC quantization).
    #[must_use]
    pub fn with_readout(mut self, config: ReadoutConfig) -> Self {
        self.readout = Some(Readout::new(config));
        self
    }

    /// Sets whether coded pixels are divided by their exposure count
    /// before being returned (the paper's pre-ViT normalization).
    #[must_use]
    pub fn with_normalization(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// The underlying pixel array.
    pub fn sensor(&self) -> &CeSensor {
        &self.sensor
    }

    /// Protocol accounting from the most recent capture (for energy
    /// models).
    pub fn stats(&self) -> CaptureStats {
        self.sensor.stats()
    }
}

impl Sense for HardwareSensor {
    type Error = crate::SensorError;

    fn mask(&self) -> &ExposureMask {
        self.sensor.mask()
    }

    fn normalizes(&self) -> bool {
        self.normalize
    }

    /// Captures each clip straight from its slice of the batch into its
    /// slot of one `[batch, h, w]` image, then reads the whole batch out
    /// at once. Readout and normalization run pixel by pixel in order,
    /// so a noisy readout draws its noise clip after clip, as a loop
    /// over [`sense`](Sense::sense) does.
    fn sense_batch(&mut self, clips: &Tensor) -> Result<Tensor> {
        if clips.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: clips.rank(),
            }
            .into());
        }
        let batch = clips.shape()[0];
        if batch == 0 {
            return Err(TensorError::InvalidArgument {
                context: "cannot sense an empty batch".to_string(),
            }
            .into());
        }
        self.sensor.check_video(&clips.shape()[1..])?;
        let (h, w) = (self.sensor.height(), self.sensor.width());
        let mut analog = Tensor::zeros(&[batch, h, w]);
        let frames = clips.as_slice().chunks_exact(clips.len() / batch);
        for (clip, image) in frames.zip(analog.as_mut_slice().chunks_exact_mut(h * w)) {
            self.sensor.capture_into(clip, image);
        }
        let digital = match &mut self.readout {
            Some(readout) => readout.digitize(&analog),
            None => analog,
        };
        if self.normalize {
            Ok(normalize_coded(digital, self.sensor.mask())?)
        } else {
            Ok(digital)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use snappix_ce::{patterns, AlgorithmicEncoder};

    #[test]
    fn ideal_sensor_equals_algorithmic_encoder() {
        let mut rng = StdRng::seed_from_u64(11);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clip = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
        let mut hw = HardwareSensor::new(8, 8, mask.clone()).unwrap();
        let mut sw = AlgorithmicEncoder::new(mask);
        let a = hw.sense(&clip).unwrap();
        let b = sw.sense(&clip).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert!(hw.normalizes());
        assert_eq!(hw.stats().pixels_read, 64);
    }

    #[test]
    fn readout_quantizes_and_can_be_removed() {
        let mask = patterns::long_exposure(4, (4, 4)).unwrap();
        let clip = Tensor::full(&[4, 8, 8], 0.5);
        let mut ideal = HardwareSensor::new(8, 8, mask.clone()).unwrap();
        let mut coarse = HardwareSensor::new(8, 8, mask.clone())
            .unwrap()
            .with_readout(ReadoutConfig::noiseless(2, 4.0));
        let exact = ideal.sense(&clip).unwrap();
        let quantized = coarse.sense(&clip).unwrap();
        assert!(!exact.approx_eq(&quantized, 1e-6), "2-bit ADC must bite");
        assert!(ideal.sense(&clip).unwrap().approx_eq(&exact, 0.0));
    }

    #[test]
    fn normalization_flag_controls_output_scale() {
        let mask = patterns::long_exposure(4, (4, 4)).unwrap();
        let clip = Tensor::full(&[4, 8, 8], 0.5);
        let mut raw = HardwareSensor::new(8, 8, mask.clone())
            .unwrap()
            .with_normalization(false);
        assert!(!raw.normalizes());
        // Long exposure of constant 0.5 over 4 slots -> 2.0 unnormalized.
        assert!(raw
            .sense(&clip)
            .unwrap()
            .approx_eq(&Tensor::full(&[8, 8], 2.0), 1e-6));
        let mut wrapped = HardwareSensor::new(8, 8, mask).unwrap();
        assert!(wrapped
            .sense(&clip)
            .unwrap()
            .approx_eq(&Tensor::full(&[8, 8], 0.5), 1e-6));
    }

    #[test]
    fn sense_batch_stacks_sequential_captures() {
        let mut rng = StdRng::seed_from_u64(12);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clips = Tensor::rand_uniform(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let mut hw = HardwareSensor::new(8, 8, mask).unwrap();
        let batch = hw.sense_batch(&clips).unwrap();
        assert_eq!(batch.shape(), &[3, 8, 8]);
        for b in 0..3 {
            let single = hw.sense(&clips.index_axis(0, b).unwrap()).unwrap();
            assert!(batch.index_axis(0, b).unwrap().approx_eq(&single, 0.0));
        }
        assert!(hw.sense(&Tensor::zeros(&[4, 4, 4])).is_err());
    }

    /// A noisy readout draws its noise clip after clip in a batch, so a
    /// batch reads out bit for bit as a loop of single captures on a
    /// twin sensor does.
    #[test]
    fn noisy_sense_batch_matches_a_loop_of_sense() {
        let mut rng = StdRng::seed_from_u64(13);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clips = Tensor::rand_uniform(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let config = ReadoutConfig {
            full_scale: 4.0,
            seed: 7,
            ..ReadoutConfig::default()
        };
        let mut batched = HardwareSensor::new(8, 8, mask)
            .unwrap()
            .with_readout(config);
        let mut single = batched.clone();
        let batch = batched.sense_batch(&clips).unwrap();
        for b in 0..3 {
            let one = single.sense(&clips.index_axis(0, b).unwrap()).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&batch.index_axis(0, b).unwrap()),
                bits(&one),
                "clip {b}"
            );
        }
        assert!(batched.sense_batch(&Tensor::zeros(&[0, 4, 8, 8])).is_err());
        assert!(batched.sense_batch(&Tensor::zeros(&[2, 3, 8, 8])).is_err());
        assert!(batched.sense_batch(&Tensor::zeros(&[4, 8, 8])).is_err());
    }
}
