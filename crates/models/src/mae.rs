//! CE-optimized reconstruction pre-training (paper Sec. IV, Eqn. 3).
//!
//! `Y_hat = D(E(random_masking(f(Y))))`: the video `Y` is compressed by
//! the CE function `f`, a large fraction of the coded image's tiles is
//! masked away, the ViT encoder `E` sees only the visible tiles, and the
//! decoder `D` must reconstruct the *original video* — both inpainting the
//! masked tiles (spatial structure) and upsampling the temporal signal out
//! of the coded exposure (temporal dynamics). Following the paper, only
//! 50% of the frames are predicted to keep pre-training cheap.

use crate::vit::random_token_split;
use crate::{ModelError, Result, VitConfig, VitEncoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snappix_ce::{encode_batch, normalize_coded, ExposureMask};
use snappix_nn::{xavier_uniform, Adam, Linear, ParamId, ParamStore, Session, TransformerBlock};
use snappix_tensor::Tensor;
use snappix_video::Dataset;

/// Configuration of the MAE-style pre-trainer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaeConfig {
    /// Encoder configuration (shared with the downstream task models).
    pub vit: VitConfig,
    /// Number of exposure slots `t` in each clip.
    pub slots: usize,
    /// Percentage of tiles masked away, in hundredths (85 = the paper's
    /// 85%).
    pub mask_ratio_pct: usize,
    /// Decoder width.
    pub decoder_dim: usize,
    /// Decoder depth.
    pub decoder_depth: usize,
}

impl MaeConfig {
    /// The paper-shaped default: 85% masking, a thin 1-block decoder, and
    /// half the frames predicted.
    pub fn for_encoder(vit: VitConfig, slots: usize) -> Self {
        MaeConfig {
            vit,
            slots,
            mask_ratio_pct: 85,
            decoder_dim: 32,
            decoder_depth: 1,
        }
    }

    /// Frame indices the decoder predicts (every other frame — 50%, as in
    /// the paper's accelerated pre-training).
    pub fn predicted_frames(&self) -> Vec<usize> {
        (0..self.slots).step_by(2).collect()
    }
}

/// The coded-image-to-video masked-autoencoder pre-trainer.
pub struct MaePretrainer {
    store: ParamStore,
    encoder: VitEncoder,
    enc_to_dec: Linear,
    mask_token: ParamId,
    dec_pos: ParamId,
    dec_blocks: Vec<TransformerBlock>,
    head: Linear,
    mask: ExposureMask,
    config: MaeConfig,
    optimizer: Adam,
    rng: StdRng,
}

impl std::fmt::Debug for MaePretrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaePretrainer")
            .field("config", &self.config)
            .field("params", &self.store.num_scalars())
            .finish()
    }
}

impl MaePretrainer {
    /// Builds the pre-trainer around `mask` (whose tile must equal the
    /// ViT patch).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] on geometry mismatches.
    pub fn new(config: MaeConfig, mask: ExposureMask, lr: f32) -> Result<Self> {
        config.vit.validate()?;
        let (th, tw) = mask.tile();
        if th != config.vit.patch || tw != config.vit.patch {
            return Err(ModelError::Config {
                context: format!(
                    "CE tile {th}x{tw} must equal ViT patch {}",
                    config.vit.patch
                ),
            });
        }
        if mask.num_slots() != config.slots {
            return Err(ModelError::Config {
                context: format!(
                    "mask has {} slots, config expects {}",
                    mask.num_slots(),
                    config.slots
                ),
            });
        }
        if config.mask_ratio_pct >= 100 || config.decoder_dim == 0 || config.decoder_depth == 0 {
            return Err(ModelError::Config {
                context: "mask ratio must be < 100% and the decoder non-empty".to_string(),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x3ae);
        let mut store = ParamStore::new();
        let encoder = VitEncoder::new(&mut store, "enc", config.vit.clone(), &mut rng)?;
        let n = config.vit.num_tokens();
        let p = config.vit.patch_pixels();
        let dd = config.decoder_dim;
        let enc_to_dec = Linear::new(&mut store, "dec.embed", config.vit.dim, dd, &mut rng);
        let mask_token = store.register(
            "dec.mask_token",
            Tensor::rand_uniform(&mut rng, &[1, dd], -0.05, 0.05),
        );
        let dec_pos = store.register(
            "dec.pos",
            xavier_uniform(&mut rng, &[n, dd], n, dd).scale(0.1),
        );
        let mut dec_blocks = Vec::with_capacity(config.decoder_depth);
        for d in 0..config.decoder_depth {
            dec_blocks.push(TransformerBlock::new(
                &mut store,
                &format!("dec.block{d}"),
                dd,
                4.min(dd),
                dd * 2,
                &mut rng,
            )?);
        }
        let f = config.predicted_frames().len();
        let head = Linear::new(&mut store, "dec.head", dd, f * p, &mut rng);
        Ok(MaePretrainer {
            store,
            encoder,
            enc_to_dec,
            mask_token,
            dec_pos,
            dec_blocks,
            head,
            mask,
            config,
            optimizer: Adam::new(lr),
            rng,
        })
    }

    /// One pre-training step on `[batch, t, h, w]` clips; returns the MSE
    /// reconstruction loss before the update.
    ///
    /// # Errors
    ///
    /// Fails when the clips do not match the mask/encoder geometry.
    pub fn step(&mut self, videos: &Tensor) -> Result<f32> {
        let n = self.config.vit.num_tokens();
        let ratio = self.config.mask_ratio_pct as f32 / 100.0;
        let (visible, masked) = random_token_split(n, ratio, &mut self.rng);
        let loss_and_grads = {
            let coded = normalize_coded(encode_batch(videos, &self.mask)?, &self.mask)?;
            let batch = coded.shape()[0];
            let patch = self.config.vit.patch;
            let target = video_patch_targets(videos, &self.config.predicted_frames(), patch)?;

            let mut sess = Session::new(&self.store);
            let input = sess.input(coded);
            let patches = sess.graph.extract_patches(input, patch, patch)?;
            let enc_tokens = self.encoder.forward_visible(&mut sess, patches, &visible)?;
            let dec_vis = self.enc_to_dec.forward(&mut sess, enc_tokens)?;

            // Mask tokens for the hidden positions.
            let mt = sess.param(self.mask_token);
            let ones = sess.input(Tensor::ones(&[batch, masked.len(), 1]));
            let mask_tokens = sess.graph.mul(ones, mt)?;

            // Scrambled order: visible tokens first, then mask tokens;
            // reorder back to original tile positions.
            let scrambled = sess.graph.concat(&[dec_vis, mask_tokens], 1)?;
            let mut position = vec![0usize; n];
            for (k, &v) in visible.iter().enumerate() {
                position[v] = k;
            }
            for (k, &m) in masked.iter().enumerate() {
                position[m] = visible.len() + k;
            }
            let ordered = crate::vit::gather_axis1(&mut sess, scrambled, &position)?;

            let pos = sess.param(self.dec_pos);
            let mut x = sess.graph.add(ordered, pos)?;
            for block in &self.dec_blocks {
                x = block.forward(&mut sess, x)?;
            }
            let pred = self.head.forward(&mut sess, x)?;
            let loss = sess.graph.mse_loss(pred, &target)?;
            let loss_value = sess.graph.value(loss).item().map_err(ModelError::from)?;
            let grads = sess.backward(loss)?;
            (loss_value, grads)
        };
        let (loss_value, grads) = loss_and_grads;
        self.optimizer.step(&mut self.store, &grads)?;
        Ok(loss_value)
    }

    /// Pre-trains for `steps` gradient steps over `dataset`, returning the
    /// per-step loss history.
    ///
    /// # Errors
    ///
    /// Fails on geometry mismatches or an empty dataset.
    pub fn train(
        &mut self,
        dataset: &Dataset,
        steps: usize,
        batch_size: usize,
    ) -> Result<Vec<f32>> {
        if dataset.is_empty() || batch_size == 0 {
            return Err(ModelError::Input {
                context: "pre-training needs a non-empty dataset and batch".to_string(),
            });
        }
        let mut history = Vec::with_capacity(steps);
        for _ in 0..steps {
            let start = self.rng.random_range(0..dataset.len());
            let batch = dataset.batch(start, batch_size);
            history.push(self.step(&batch.videos)?);
        }
        Ok(history)
    }

    /// Copies the pre-trained encoder weights into `target` (matching by
    /// parameter name and shape), returning how many tensors were
    /// transferred. This is how fine-tuning initializes
    /// [`crate::SnapPixAr`] and [`crate::SnapPixRec`].
    pub fn transfer_encoder(&self, target: &mut ParamStore) -> usize {
        transfer_matching_params(&self.store, target)
    }
}

/// Copies every parameter whose name and shape match from `src` to `dst`;
/// returns the number of tensors copied.
pub(crate) fn transfer_matching_params(src: &ParamStore, dst: &mut ParamStore) -> usize {
    let mut copied = 0;
    let dst_ids = dst.ids();
    for id in dst_ids {
        let name = dst.name(id).to_string();
        if let Some((_, _, value)) = src.iter().find(|(_, n, _)| *n == name) {
            if value.shape() == dst.value(id).shape() {
                let v = value.clone();
                *dst.value_mut(id) = v;
                copied += 1;
            }
        }
    }
    copied
}

/// Builds reconstruction targets: for each requested frame, the frame's
/// tile patches, laid out as `[batch, tokens, frames * patch_pixels]` with
/// the frame index varying slowest within each token's feature vector.
pub(crate) fn video_patch_targets(
    videos: &Tensor,
    frames: &[usize],
    patch: usize,
) -> Result<Tensor> {
    if videos.rank() != 4 {
        return Err(ModelError::Input {
            context: format!("expected [b, t, h, w] videos, got {:?}", videos.shape()),
        });
    }
    let (batch, t, h, w) = (
        videos.shape()[0],
        videos.shape()[1],
        videos.shape()[2],
        videos.shape()[3],
    );
    for &f in frames {
        if f >= t {
            return Err(ModelError::Input {
                context: format!("target frame {f} out of {t}"),
            });
        }
    }
    let n = (h / patch) * (w / patch);
    let p = patch * patch;
    let mut out = Tensor::zeros(&[batch, n, frames.len() * p]);
    let dst_stride = frames.len() * p;
    for b in 0..batch {
        for (fi, &f) in frames.iter().enumerate() {
            let frame = videos.index_axis(0, b)?.index_axis(0, f)?;
            let patches = frame.extract_patches(patch, patch)?; // [n, p]
            let ps = patches.as_slice().to_vec();
            let os = out.as_mut_slice();
            for token in 0..n {
                for k in 0..p {
                    os[(b * n + token) * dst_stride + fi * p + k] = ps[token * p + k];
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_ce::patterns;
    use snappix_video::ssv2_like;

    fn config() -> MaeConfig {
        MaeConfig::for_encoder(VitConfig::snappix_s(16, 16, 10), 8)
    }

    fn mask() -> ExposureMask {
        patterns::long_exposure(8, (8, 8)).unwrap()
    }

    #[test]
    fn construction_validates_geometry() {
        assert!(MaePretrainer::new(config(), mask(), 1e-3).is_ok());
        let wrong_tile = patterns::long_exposure(8, (4, 4)).unwrap();
        assert!(MaePretrainer::new(config(), wrong_tile, 1e-3).is_err());
        let wrong_slots = patterns::long_exposure(4, (8, 8)).unwrap();
        assert!(MaePretrainer::new(config(), wrong_slots, 1e-3).is_err());
        let mut bad = config();
        bad.mask_ratio_pct = 100;
        assert!(MaePretrainer::new(bad, mask(), 1e-3).is_err());
    }

    #[test]
    fn predicted_frames_are_half() {
        let c = config();
        let f = c.predicted_frames();
        assert_eq!(f, vec![0, 2, 4, 6]);
    }

    #[test]
    fn video_patch_targets_layout() {
        // 1 clip, 2 frames of 2x2, patch 2 -> 1 token, 2*4 features.
        let videos = Tensor::arange(8).reshape(&[1, 2, 2, 2]).unwrap();
        let t = video_patch_targets(&videos, &[0, 1], 2).unwrap();
        assert_eq!(t.shape(), &[1, 1, 8]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert!(video_patch_targets(&videos, &[2], 2).is_err());
        assert!(video_patch_targets(&Tensor::zeros(&[2, 2, 2]), &[0], 2).is_err());
    }

    #[test]
    fn pretraining_reduces_loss() {
        let data = Dataset::new(ssv2_like(8, 16, 16), 16);
        let mut mae = MaePretrainer::new(config(), mask(), 3e-3).unwrap();
        let history = mae.train(&data, 30, 4).unwrap();
        let early: f32 = history[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = history[history.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            late < early,
            "pre-training loss should fall: early {early}, late {late}"
        );
    }

    #[test]
    fn transfer_encoder_moves_weights() {
        let mae = MaePretrainer::new(config(), mask(), 1e-3).unwrap();
        let mut ar = crate::SnapPixAr::new(VitConfig::snappix_s(16, 16, 10), mask()).unwrap();
        use crate::ActionModel;
        let before = ar
            .store()
            .iter()
            .find(|(_, n, _)| *n == "enc.patch_embed.weight")
            .map(|(_, _, v)| v.clone())
            .unwrap();
        let copied = mae.transfer_encoder(ar.store_mut());
        assert!(copied > 0, "encoder tensors must transfer");
        let after = ar
            .store()
            .iter()
            .find(|(_, n, _)| *n == "enc.patch_embed.weight")
            .map(|(_, _, v)| v.clone())
            .unwrap();
        assert!(!before.approx_eq(&after, 1e-9), "weights should change");
        // Decoder-only weights must not be expected by the AR model.
        assert!(ar.store().iter().all(|(_, n, _)| !n.starts_with("dec.")));
    }

    #[test]
    fn training_validates_inputs() {
        let mut mae = MaePretrainer::new(config(), mask(), 1e-3).unwrap();
        let empty = Dataset::new(ssv2_like(8, 16, 16), 0);
        assert!(mae.train(&empty, 1, 4).is_err());
        let data = Dataset::new(ssv2_like(8, 16, 16), 4);
        assert!(mae.train(&data, 1, 0).is_err());
        // Wrong clip geometry.
        assert!(mae.step(&Tensor::zeros(&[2, 4, 16, 16])).is_err());
    }
}
