//! Decorrelation-based mask learning (paper Sec. III).
//!
//! The exposure pattern is a learnable logit tensor `[t, th, tw]`; the
//! forward pass binarizes it with a straight-through estimator, applies the
//! coded-exposure integration to a batch of videos, harvests per-tile
//! sample vectors, contrast-encodes them, and minimizes the mean squared
//! off-diagonal Pearson correlation (Eqn. 2). Everything is task-agnostic:
//! no labels and no downstream model appear in the loss.

use crate::{mean_offdiag_abs, CeError, ExposureMask, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snappix_nn::{Adam, ParamStore, Session};
use snappix_tensor::Tensor;
use snappix_video::Dataset;

/// Configuration of the decorrelation trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct DecorrelationConfig {
    /// Number of exposure slots `t` (the paper uses 16).
    pub slots: usize,
    /// Tile extents `(th, tw)` (the paper uses the ViT patch size, 8x8).
    pub tile: (usize, usize),
    /// Adam learning rate for the mask logits.
    pub lr: f32,
    /// Videos per gradient step.
    pub batch_size: usize,
    /// Variance epsilon inside the Pearson normalization.
    pub eps: f32,
    /// Optional penalty weight pulling the open fraction towards 0.5;
    /// `0.0` reproduces the paper's pure decorrelation loss.
    pub coverage_weight: f32,
    /// Apply zero-mean contrast encoding before the correlation (paper
    /// Sec. III / Fig. 3). Disabling this reproduces the failure mode the
    /// paper describes: the inherent DC correlation of proximal pixels
    /// dominates the loss and training degenerates towards closing
    /// exposures.
    pub zero_mean: bool,
    /// Seed for logit initialization and batch order.
    pub seed: u64,
}

impl Default for DecorrelationConfig {
    fn default() -> Self {
        DecorrelationConfig {
            slots: 16,
            tile: (8, 8),
            // Aggressive for Adam, but the parameters are *logits behind a
            // straight-through binarization*: only their signs matter, and
            // the short step budgets used across this reproduction (tens of
            // steps, not thousands) need sign flips to happen quickly.
            // Empirically 0.05 leaves the mask half-converged — measurably
            // worse downstream than its random init — while 0.2 reaches the
            // sparse decorrelated regime the paper describes.
            lr: 0.2,
            batch_size: 8,
            eps: 1e-6,
            coverage_weight: 0.0,
            zero_mean: true,
            seed: 42,
        }
    }
}

/// Result of mask training.
#[derive(Debug, Clone)]
pub struct TrainedMask {
    /// The learned binary exposure mask.
    pub mask: ExposureMask,
    /// Decorrelation loss after each step.
    pub loss_history: Vec<f32>,
    /// Mean absolute off-diagonal Pearson correlation of the final mask on
    /// the last training batch (the number the paper quotes in Fig. 6).
    pub final_correlation: f32,
}

/// Learns a tile-repetitive exposure mask by minimizing pixel correlation.
///
/// # Examples
///
/// ```no_run
/// use snappix_ce::{DecorrelationConfig, DecorrelationTrainer};
/// use snappix_video::{ssv2_like, Dataset};
///
/// # fn main() -> Result<(), snappix_ce::CeError> {
/// let data = Dataset::new(ssv2_like(16, 32, 32), 64);
/// let mut trainer = DecorrelationTrainer::new(DecorrelationConfig::default())?;
/// let trained = trainer.train(&data, 20)?;
/// assert!(trained.mask.open_fraction() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecorrelationTrainer {
    config: DecorrelationConfig,
    store: ParamStore,
    logits: snappix_nn::ParamId,
    optimizer: Adam,
    rng: StdRng,
}

impl DecorrelationTrainer {
    /// Creates a trainer with freshly initialized logits (~50% open).
    ///
    /// # Errors
    ///
    /// Returns [`CeError::InvalidConfig`] for zero extents or a
    /// non-positive batch size.
    pub fn new(config: DecorrelationConfig) -> Result<Self> {
        if config.slots == 0 || config.tile.0 == 0 || config.tile.1 == 0 {
            return Err(CeError::InvalidConfig {
                context: format!(
                    "slots {} and tile {:?} must be positive",
                    config.slots, config.tile
                ),
            });
        }
        if config.batch_size == 0 {
            return Err(CeError::InvalidConfig {
                context: "batch size must be positive".to_string(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let init = Tensor::rand_uniform(
            &mut rng,
            &[config.slots, config.tile.0, config.tile.1],
            -0.5,
            0.5,
        );
        let mut store = ParamStore::new();
        let logits = store.register("ce.logits", init);
        let optimizer = Adam::new(config.lr);
        Ok(DecorrelationTrainer {
            config,
            store,
            logits,
            optimizer,
            rng,
        })
    }

    /// The current binary mask implied by the logits.
    pub fn current_mask(&self) -> Result<ExposureMask> {
        let binary = self
            .store
            .value(self.logits)
            .map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        ExposureMask::new(binary)
    }

    /// Runs one gradient step on a `[batch, t, h, w]` video tensor and
    /// returns the decorrelation loss before the update.
    ///
    /// # Errors
    ///
    /// Fails when the video tensor does not match the configuration (wrong
    /// frame count, tile not dividing the frame) or a graph op fails.
    pub fn step(&mut self, videos: &Tensor) -> Result<f32> {
        let shape = videos.shape().to_vec();
        if shape.len() != 4 || shape[1] != self.config.slots {
            return Err(CeError::InvalidConfig {
                context: format!(
                    "expected [batch, {}, h, w] videos, got {shape:?}",
                    self.config.slots
                ),
            });
        }
        let (h, w) = (shape[2], shape[3]);
        let (th, tw) = self.config.tile;
        if h % th != 0 || w % tw != 0 {
            return Err(CeError::InvalidMask {
                context: format!("tile {th}x{tw} does not divide frame {h}x{w}"),
            });
        }
        let (gh, gw) = (h / th, w / tw);
        let p = th * tw;

        let mut sess = Session::new(&self.store);
        let logits = sess.param(self.logits);
        let mask = sess.graph.binarize_ste(logits, 0.0)?;
        let tiled = sess.graph.tile_spatial(mask, gh, gw)?;
        let tiled4 = sess.graph.reshape(tiled, &[1, self.config.slots, h, w])?;
        let vids = sess.input(videos.clone());
        let exposed = sess.graph.mul(tiled4, vids)?;
        let coded = sess.graph.sum_axis(exposed, 1, false)?; // [b, h, w]
        let patches = sess.graph.extract_patches(coded, th, tw)?; // [b, n2, p]
        let samples = sess.graph.reshape(patches, &[shape[0] * gh * gw, p])?;

        // Zero-mean contrast encoding: remove per-tile DC (skipped in the
        // ablation configuration).
        let contrast = if self.config.zero_mean {
            let dc = sess.graph.mean_axis(samples, 1, true)?;
            sess.graph.sub(samples, dc)?
        } else {
            samples
        };

        // Pearson normalization across samples.
        let mu = sess.graph.mean_axis(contrast, 0, true)?;
        let centered = sess.graph.sub(contrast, mu)?;
        let sq = sess.graph.mul(centered, centered)?;
        let var = sess.graph.mean_axis(sq, 0, true)?;
        let var_eps = sess.graph.add_scalar(var, self.config.eps)?;
        let inv_std = sess.graph.powf(var_eps, -0.5)?;
        let normed = sess.graph.mul(centered, inv_std)?;

        // Correlation matrix and Eqn. 2.
        let normed_t = sess.graph.transpose(normed)?;
        let corr = sess.graph.matmul(normed_t, normed)?;
        let s = shape[0] * gh * gw;
        let corr = sess.graph.scale(corr, 1.0 / s as f32)?;
        let offdiag = {
            let mut m = Tensor::ones(&[p, p]);
            for i in 0..p {
                m.set(&[i, i], 0.0).expect("diagonal index in range");
            }
            sess.input(m)
        };
        let masked = sess.graph.mul(corr, offdiag)?;
        let sq_corr = sess.graph.mul(masked, masked)?;
        let total = sess.graph.sum(sq_corr)?;
        let mut loss = sess.graph.scale(total, 1.0 / (p * (p - 1)) as f32)?;

        if self.config.coverage_weight > 0.0 {
            // Optional regularizer: (mean_open - 0.5)^2.
            let open = sess.graph.mean(mask)?;
            let centered_open = sess.graph.add_scalar(open, -0.5)?;
            let penalty = sess.graph.mul(centered_open, centered_open)?;
            let scaled = sess.graph.scale(penalty, self.config.coverage_weight)?;
            loss = sess.graph.add(loss, scaled)?;
        }

        let loss_value = sess.graph.value(loss).item().map_err(CeError::from)?;
        let grads = sess.backward(loss)?;
        self.optimizer.step(&mut self.store, &grads)?;
        Ok(loss_value)
    }

    /// Trains for `steps` gradient steps, drawing batches from `dataset`.
    ///
    /// # Errors
    ///
    /// Fails when the dataset clips do not match the configuration, or on
    /// an empty dataset.
    pub fn train(&mut self, dataset: &Dataset, steps: usize) -> Result<TrainedMask> {
        if dataset.is_empty() {
            return Err(CeError::InvalidConfig {
                context: "cannot train on an empty dataset".to_string(),
            });
        }
        use rand::Rng;
        let mut history = Vec::with_capacity(steps);
        let mut last_batch: Option<Tensor> = None;
        for _ in 0..steps {
            let start = self.rng.random_range(0..dataset.len());
            let batch = dataset.batch(start, self.config.batch_size);
            history.push(self.step(&batch.videos)?);
            last_batch = Some(batch.videos);
        }
        let mask = self.current_mask()?;
        let final_correlation = match last_batch {
            Some(videos) => {
                let samples = crate::coded_tile_samples(&videos, &mask)?;
                let contrast = crate::zero_mean_contrast(&samples)?;
                let corr = crate::pearson_matrix(&contrast)?;
                mean_offdiag_abs(&corr)?
            }
            None => f32::NAN,
        };
        Ok(TrainedMask {
            mask,
            loss_history: history,
            final_correlation,
        })
    }
}

/// Measures the mean absolute off-diagonal Pearson correlation of `mask`
/// on clips drawn from `dataset` — the per-pattern numbers in Fig. 6's
/// legend.
///
/// # Errors
///
/// Fails when the dataset clips do not match the mask or the dataset is
/// empty.
pub fn measure_pattern_correlation(
    dataset: &Dataset,
    mask: &ExposureMask,
    num_clips: usize,
) -> Result<f32> {
    if dataset.is_empty() || num_clips == 0 {
        return Err(CeError::InvalidConfig {
            context: "need a non-empty dataset and at least one clip".to_string(),
        });
    }
    let batch = dataset.batch(0, num_clips.min(dataset.len()));
    let samples = crate::coded_tile_samples(&batch.videos, mask)?;
    let contrast = crate::zero_mean_contrast(&samples)?;
    let corr = crate::pearson_matrix(&contrast)?;
    mean_offdiag_abs(&corr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use snappix_video::ssv2_like;

    fn small_config() -> DecorrelationConfig {
        DecorrelationConfig {
            slots: 8,
            tile: (4, 4),
            lr: 0.05,
            batch_size: 4,
            eps: 1e-6,
            coverage_weight: 0.0,
            zero_mean: true,
            seed: 7,
        }
    }

    #[test]
    fn zero_mean_ablation_degrades_exposure_coverage() {
        // The paper (Sec. III) motivates zero-mean contrast encoding as a
        // collapse guard: without it the inherent DC correlation pushes
        // the optimizer towards closing exposures. Verify the ablation
        // keeps strictly fewer exposures open than the full objective.
        let data = Dataset::new(ssv2_like(8, 16, 16), 32);
        let train = |zero_mean: bool| {
            let mut cfg = small_config();
            cfg.zero_mean = zero_mean;
            cfg.lr = 0.1;
            let mut trainer = DecorrelationTrainer::new(cfg).unwrap();
            trainer.train(&data, 60).unwrap().mask.open_fraction()
        };
        let with_contrast = train(true);
        let without_contrast = train(false);
        assert!(
            without_contrast < with_contrast,
            "without zero-mean encoding the mask should close exposures: \
             {without_contrast} vs {with_contrast}"
        );
    }

    #[test]
    fn construction_validates() {
        let mut bad = small_config();
        bad.slots = 0;
        assert!(DecorrelationTrainer::new(bad).is_err());
        let mut bad = small_config();
        bad.batch_size = 0;
        assert!(DecorrelationTrainer::new(bad).is_err());
    }

    #[test]
    fn initial_mask_is_valid_and_roughly_half_open() {
        let trainer = DecorrelationTrainer::new(small_config()).unwrap();
        let mask = trainer.current_mask().unwrap();
        assert_eq!(mask.num_slots(), 8);
        assert_eq!(mask.tile(), (4, 4));
        let frac = mask.open_fraction();
        assert!((0.25..=0.75).contains(&frac), "open fraction {frac}");
    }

    #[test]
    fn step_validates_input() {
        let mut trainer = DecorrelationTrainer::new(small_config()).unwrap();
        assert!(trainer.step(&Tensor::zeros(&[2, 4, 8, 8])).is_err()); // wrong t
        assert!(trainer.step(&Tensor::zeros(&[2, 8, 9, 8])).is_err()); // tile mismatch
        assert!(trainer.step(&Tensor::zeros(&[8, 8, 8])).is_err()); // rank
    }

    #[test]
    fn training_reduces_correlation_below_random() {
        let data = Dataset::new(ssv2_like(8, 16, 16), 32);
        let mut trainer = DecorrelationTrainer::new(small_config()).unwrap();
        let trained = trainer.train(&data, 25).unwrap();
        assert_eq!(trained.loss_history.len(), 25);
        assert!(trained.mask.open_fraction() > 0.05, "mask collapsed");

        // Compare against the random pattern on held-out clips.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let random = patterns::random(8, (4, 4), 0.5, &mut rng).unwrap();
        let eval = Dataset::new(ssv2_like(8, 16, 16), 16);
        let learned_rho = measure_pattern_correlation(&eval, &trained.mask, 16).unwrap();
        let random_rho = measure_pattern_correlation(&eval, &random, 16).unwrap();
        assert!(
            learned_rho < random_rho,
            "decorrelated {learned_rho} must beat random {random_rho}"
        );
    }

    #[test]
    fn training_on_empty_dataset_errors() {
        let data = Dataset::new(ssv2_like(8, 16, 16), 0);
        let mut trainer = DecorrelationTrainer::new(small_config()).unwrap();
        assert!(trainer.train(&data, 1).is_err());
    }

    #[test]
    fn measure_correlation_orders_known_patterns() {
        // The paper's Fig. 6 legend orders: long (0.38) > random (0.29) >
        // sparse random (0.23). Verify the qualitative ordering that long
        // exposure is the most correlated.
        let data = Dataset::new(ssv2_like(8, 16, 16), 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let long = patterns::long_exposure(8, (4, 4)).unwrap();
        let rand_mask = patterns::random(8, (4, 4), 0.5, &mut rng).unwrap();
        let rho_long = measure_pattern_correlation(&data, &long, 16).unwrap();
        let rho_rand = measure_pattern_correlation(&data, &rand_mask, 16).unwrap();
        assert!(
            rho_long > rho_rand,
            "long {rho_long} should exceed random {rho_rand}"
        );
    }
}
