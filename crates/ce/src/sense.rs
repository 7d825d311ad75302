//! The [`Sense`] abstraction: "video in, coded image out".
//!
//! The workspace has two ways of producing a coded image from a clip —
//! the algorithmic Eqn. 1 encoder used at training time (this crate) and
//! the charge-domain hardware simulation used at deployment time
//! (`snappix_sensor::HardwareSensor`). `Sense` is the trait both sides
//! implement so pipelines, tests and benches can swap backends via
//! generics instead of duplicating glue for each path.
//!
//! A backend writes one capture method, [`Sense::sense_batch`]; a single
//! clip is a batch of one through the provided [`Sense::sense`].

use crate::{encode_batch, normalize_coded, ExposureMask};
use snappix_tensor::{Tensor, TensorError};

/// A coded-exposure capture backend: turns a `[t, h, w]` clip into the
/// `[h, w]` coded image an edge node would transmit.
///
/// Implementations write [`mask`](Sense::mask) and
/// [`sense_batch`](Sense::sense_batch) only: [`sense`](Sense::sense) is
/// provided and runs a batch of one, so a clip codes to the same bits
/// alone or in a batch by construction.
///
/// Implementations take `&mut self` because physical backends are
/// stateful (noise RNGs, per-capture accounting); the pure algorithmic
/// encoder simply ignores the mutability.
///
/// The two first-party implementations are [`AlgorithmicEncoder`] (this
/// crate, the training-time path) and `snappix_sensor::HardwareSensor`
/// (the deployment path); the workspace property tests assert they agree
/// whenever the hardware readout is ideal.
pub trait Sense {
    /// Error produced by this backend.
    ///
    /// The `From<TensorError>` bound lets the provided [`Sense::sense`]
    /// propagate its rank check and reshapes through any backend's error
    /// type.
    type Error: std::error::Error + From<TensorError> + 'static;

    /// The exposure mask this backend runs.
    fn mask(&self) -> &ExposureMask;

    /// Whether this backend divides coded pixels by their exposure count
    /// (the paper's pre-ViT normalization).
    ///
    /// Pipelines validate this against the model's
    /// `normalize_by_exposure` flag at assembly time — a mismatch would
    /// silently feed the model inputs scaled differently from its
    /// training data. The default is `true`, the paper's convention;
    /// backends that can disable normalization must override it to
    /// report their actual setting.
    fn normalizes(&self) -> bool {
        true
    }

    /// Senses a `[batch, t, h, w]` clip batch into `[batch, h, w]` coded
    /// images: the one capture method every backend implements.
    ///
    /// # Errors
    ///
    /// Fails when the batch is not rank 4, or its clips do not match the
    /// backend's mask or geometry.
    fn sense_batch(&mut self, clips: &Tensor) -> Result<Tensor, Self::Error>;

    /// Senses one `[t, h, w]` clip into an `[h, w]` coded image: the clip
    /// is viewed as a `[1, t, h, w]` batch for
    /// [`sense_batch`](Sense::sense_batch), and row 0 is returned.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError::RankMismatch`] unless the clip has rank
    /// 3, and otherwise fails as [`sense_batch`](Sense::sense_batch) does.
    fn sense(&mut self, clip: &Tensor) -> Result<Tensor, Self::Error> {
        if clip.rank() != 3 {
            return Err(TensorError::RankMismatch {
                expected: 3,
                got: clip.rank(),
            }
            .into());
        }
        let coded = self.sense_batch(&clip.unsqueeze(0)?)?;
        Ok(coded.squeeze(0)?)
    }
}

/// The training-time [`Sense`] backend: a stateless wrapper around the
/// algorithmic Eqn. 1 codec ([`encode_batch`], then [`normalize_coded`]
/// when normalization is on).
///
/// Configuration follows the workspace's builder-style `with_*` idiom:
/// constructors pick documented defaults and `with_*` methods return
/// `self` with one knob changed.
///
/// # Examples
///
/// ```
/// use snappix_ce::{patterns, AlgorithmicEncoder, Sense};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_ce::CeError> {
/// let mask = patterns::long_exposure(4, (4, 4))?;
/// let mut enc = AlgorithmicEncoder::new(mask);
/// let coded = enc.sense(&Tensor::full(&[4, 8, 8], 0.5))?;
/// assert_eq!(coded.shape(), &[8, 8]);
/// assert_eq!(coded.get(&[0, 0])?, 0.5); // normalized long exposure
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmicEncoder {
    mask: ExposureMask,
    normalize: bool,
}

impl AlgorithmicEncoder {
    /// Creates an encoder for `mask`.
    ///
    /// Defaults to exposure-count normalization (the paper's pre-ViT
    /// convention); disable it with
    /// [`with_normalization`](Self::with_normalization).
    pub fn new(mask: ExposureMask) -> Self {
        AlgorithmicEncoder {
            mask,
            normalize: true,
        }
    }

    /// Sets whether coded pixels are divided by their exposure count
    /// (see [`normalize_coded`]).
    #[must_use]
    pub fn with_normalization(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }
}

impl Sense for AlgorithmicEncoder {
    type Error = crate::CeError;

    fn mask(&self) -> &ExposureMask {
        &self.mask
    }

    fn normalizes(&self) -> bool {
        self.normalize
    }

    fn sense_batch(&mut self, clips: &Tensor) -> Result<Tensor, Self::Error> {
        let coded = encode_batch(clips, &self.mask)?;
        if self.normalize {
            normalize_coded(coded, &self.mask)
        } else {
            Ok(coded)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, patterns};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sense_matches_free_functions() {
        let mut rng = StdRng::seed_from_u64(3);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clip = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
        let mut enc = AlgorithmicEncoder::new(mask.clone());
        assert!(enc.sense(&clip).unwrap().approx_eq(
            &normalize_coded(encode(&clip, &mask).unwrap(), &mask).unwrap(),
            0.0
        ));
        let mut raw = AlgorithmicEncoder::new(mask.clone()).with_normalization(false);
        assert!(!raw.normalizes());
        assert!(raw
            .sense(&clip)
            .unwrap()
            .approx_eq(&encode(&clip, &mask).unwrap(), 0.0));
        assert_eq!(enc.mask().num_slots(), 4);
    }

    #[test]
    fn sense_batch_matches_per_clip_loop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clips = Tensor::rand_uniform(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let mut enc = AlgorithmicEncoder::new(mask);
        let batch = enc.sense_batch(&clips).unwrap();
        assert_eq!(batch.shape(), &[3, 8, 8]);
        for b in 0..3 {
            let single = enc.sense(&clips.index_axis(0, b).unwrap()).unwrap();
            assert!(batch.index_axis(0, b).unwrap().approx_eq(&single, 0.0));
        }
    }

    /// The provided `sense` on a backend that writes only `mask` and
    /// `sense_batch`: a clip is a batch of one, and a clip of any rank
    /// but 3 is refused before the backend sees it.
    #[test]
    fn default_sense_is_a_batch_of_one() {
        struct BatchOnly(AlgorithmicEncoder);
        impl Sense for BatchOnly {
            type Error = crate::CeError;
            fn mask(&self) -> &ExposureMask {
                self.0.mask()
            }
            fn sense_batch(&mut self, clips: &Tensor) -> Result<Tensor, Self::Error> {
                self.0.sense_batch(clips)
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clip = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
        let mut backend = BatchOnly(AlgorithmicEncoder::new(mask));
        let batch = backend
            .sense_batch(&clip.reshape(&[1, 4, 8, 8]).unwrap())
            .unwrap();
        let single = backend.sense(&clip).unwrap();
        assert_eq!(single.shape(), &[8, 8]);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&single), bits(&batch.index_axis(0, 0).unwrap()));
        for shape in [&[8, 8][..], &[1, 4, 8, 8]] {
            assert!(
                matches!(
                    backend.sense(&Tensor::zeros(shape)),
                    Err(crate::CeError::Tensor(TensorError::RankMismatch { expected: 3, got }))
                        if got == shape.len()
                ),
                "{shape:?}"
            );
        }
    }
}
