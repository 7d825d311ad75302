//! Video reconstruction from a single coded image (the paper's REC task).

use crate::mae::video_patch_targets;
use crate::{ModelError, Result, VitConfig, VitEncoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snappix_autograd::Var;
use snappix_ce::{encode_batch, normalize_coded, ExposureMask};
use snappix_nn::{xavier_uniform, Adam, Linear, ParamId, ParamStore, Session, TransformerBlock};
use snappix_tensor::Tensor;
use snappix_video::{psnr, Dataset};

/// SnapPix reconstruction: recovers all `t` original frames from one coded
/// image. REC is the paper's "low-level" task, standing in for scenarios
/// where video is archived for future, undefined consumers (Sec. VI-A).
pub struct SnapPixRec {
    store: ParamStore,
    encoder: VitEncoder,
    enc_to_dec: Linear,
    dec_pos: ParamId,
    dec_blocks: Vec<TransformerBlock>,
    head: Linear,
    mask: ExposureMask,
    slots: usize,
    optimizer: Adam,
    rng: StdRng,
}

impl std::fmt::Debug for SnapPixRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapPixRec")
            .field("slots", &self.slots)
            .field("params", &self.store.num_scalars())
            .finish()
    }
}

impl SnapPixRec {
    /// Builds the reconstruction model for `slots`-frame clips.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when the mask tile differs from the
    /// ViT patch or slot counts disagree.
    pub fn new(config: VitConfig, mask: ExposureMask, slots: usize, lr: f32) -> Result<Self> {
        config.validate()?;
        let (th, tw) = mask.tile();
        if th != config.patch || tw != config.patch {
            return Err(ModelError::Config {
                context: format!("CE tile {th}x{tw} must equal ViT patch {}", config.patch),
            });
        }
        if mask.num_slots() != slots {
            return Err(ModelError::Config {
                context: format!("mask has {} slots, expected {slots}", mask.num_slots()),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x4ec);
        let mut store = ParamStore::new();
        let encoder = VitEncoder::new(&mut store, "enc", config.clone(), &mut rng)?;
        let n = config.num_tokens();
        let p = config.patch_pixels();
        let dd = config.dim;
        let enc_to_dec = Linear::new(&mut store, "dec.embed", config.dim, dd, &mut rng);
        let dec_pos = store.register(
            "dec.pos",
            xavier_uniform(&mut rng, &[n, dd], n, dd).scale(0.1),
        );
        let dec_blocks = vec![TransformerBlock::new(
            &mut store,
            "dec.block0",
            dd,
            4.min(dd),
            dd * 2,
            &mut rng,
        )?];
        let head = Linear::new(&mut store, "dec.head", dd, slots * p, &mut rng);
        Ok(SnapPixRec {
            store,
            encoder,
            enc_to_dec,
            dec_pos,
            dec_blocks,
            head,
            mask,
            slots,
            optimizer: Adam::new(lr),
            rng,
        })
    }

    fn build_prediction(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var> {
        let coded = normalize_coded(encode_batch(videos, &self.mask)?, &self.mask)?;
        let patch = self.encoder.config().patch;
        let input = sess.input(coded);
        let patches = sess.graph.extract_patches(input, patch, patch)?;
        let tokens = self.encoder.forward_patches(sess, patches)?;
        let x = self.enc_to_dec.forward(sess, tokens)?;
        let pos = sess.param(self.dec_pos);
        let mut x = sess.graph.add(x, pos)?;
        for block in &self.dec_blocks {
            x = block.forward(sess, x)?;
        }
        self.head.forward(sess, x).map_err(ModelError::from)
    }

    /// One training step on `[batch, t, h, w]` clips; returns the MSE loss
    /// before the update.
    ///
    /// # Errors
    ///
    /// Fails on geometry mismatches.
    pub fn step(&mut self, videos: &Tensor) -> Result<f32> {
        let all_frames: Vec<usize> = (0..self.slots).collect();
        let patch = self.encoder.config().patch;
        let target = video_patch_targets(videos, &all_frames, patch)?;
        let (loss_value, grads) = {
            let mut sess = Session::new(&self.store);
            let pred = self.build_prediction(&mut sess, videos)?;
            let loss = sess.graph.mse_loss(pred, &target)?;
            let loss_value = sess.graph.value(loss).item().map_err(ModelError::from)?;
            let grads = sess.backward(loss)?;
            (loss_value, grads)
        };
        self.optimizer.step(&mut self.store, &grads)?;
        Ok(loss_value)
    }

    /// Trains for `steps` gradient steps over `dataset`.
    ///
    /// # Errors
    ///
    /// Fails on an empty dataset or geometry mismatches.
    pub fn train(
        &mut self,
        dataset: &Dataset,
        steps: usize,
        batch_size: usize,
    ) -> Result<Vec<f32>> {
        if dataset.is_empty() || batch_size == 0 {
            return Err(ModelError::Input {
                context: "training needs a non-empty dataset and batch".to_string(),
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

    /// Reconstructs full clips `[batch, t, h, w]` from the coded images of
    /// `videos` (the videos are only used to form the coded input).
    ///
    /// # Errors
    ///
    /// Fails on geometry mismatches.
    pub fn reconstruct(&self, videos: &Tensor) -> Result<Tensor> {
        let mut sess = Session::inference(&self.store);
        let pred = self.build_prediction(&mut sess, videos)?;
        let pv = sess.graph.value(pred).clone();
        // [b, n, t*p] -> frames.
        let (batch, _n, _) = (pv.shape()[0], pv.shape()[1], pv.shape()[2]);
        let cfg = self.encoder.config();
        let patch = cfg.patch;
        let p = cfg.patch_pixels();
        let (h, w) = (cfg.height, cfg.width);
        let mut clips = Vec::with_capacity(batch);
        for b in 0..batch {
            let per_sample = pv.index_axis(0, b)?; // [n, t*p]
            let mut frames = Vec::with_capacity(self.slots);
            for f in 0..self.slots {
                let cols = per_sample.slice_axis(1, f * p, (f + 1) * p)?; // [n, p]
                frames.push(cols.assemble_patches(patch, patch, h, w)?);
            }
            let refs: Vec<&Tensor> = frames.iter().collect();
            clips.push(Tensor::stack(&refs, 0)?);
        }
        let refs: Vec<&Tensor> = clips.iter().collect();
        Ok(Tensor::stack(&refs, 0)?)
    }

    /// Mean PSNR (dB) of reconstructions over the first `num` clips of
    /// `dataset` — the paper's REC metric.
    ///
    /// # Errors
    ///
    /// Fails on an empty dataset or geometry mismatches.
    pub fn evaluate_psnr(&self, dataset: &Dataset, num: usize) -> Result<f32> {
        if dataset.is_empty() || num == 0 {
            return Err(ModelError::Input {
                context: "evaluation needs clips".to_string(),
            });
        }
        let batch = dataset.batch(0, num.min(dataset.len()));
        let recon = self.reconstruct(&batch.videos)?;
        let clamped = recon.clamp(0.0, 1.0);
        Ok(psnr(&batch.videos, &clamped)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_ce::patterns;
    use snappix_video::ssv2_like;

    fn model() -> SnapPixRec {
        let mask = patterns::short_exposure(8, (8, 8), 4).unwrap();
        SnapPixRec::new(VitConfig::snappix_s(16, 16, 10), mask, 8, 3e-3).unwrap()
    }

    #[test]
    fn construction_validates() {
        let bad_tile = patterns::long_exposure(8, (4, 4)).unwrap();
        assert!(SnapPixRec::new(VitConfig::snappix_s(16, 16, 10), bad_tile, 8, 1e-3).is_err());
        let bad_slots = patterns::long_exposure(4, (8, 8)).unwrap();
        assert!(SnapPixRec::new(VitConfig::snappix_s(16, 16, 10), bad_slots, 8, 1e-3).is_err());
    }

    #[test]
    fn reconstruction_shape() {
        let m = model();
        let data = Dataset::new(ssv2_like(8, 16, 16), 2);
        let batch = data.batch(0, 2);
        let recon = m.reconstruct(&batch.videos).unwrap();
        assert_eq!(recon.shape(), &[2, 8, 16, 16]);
    }

    #[test]
    fn training_improves_psnr() {
        let data = Dataset::new(ssv2_like(8, 16, 16), 16);
        let mut m = model();
        let before = m.evaluate_psnr(&data, 8).unwrap();
        m.train(&data, 40, 4).unwrap();
        let after = m.evaluate_psnr(&data, 8).unwrap();
        assert!(
            after > before,
            "training should improve PSNR: {before} -> {after}"
        );
    }

    #[test]
    fn evaluation_validates() {
        let m = model();
        let empty = Dataset::new(ssv2_like(8, 16, 16), 0);
        assert!(m.evaluate_psnr(&empty, 4).is_err());
        let data = Dataset::new(ssv2_like(8, 16, 16), 2);
        assert!(m.evaluate_psnr(&data, 0).is_err());
    }
}
