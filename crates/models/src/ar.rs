//! Action recognition with the CE-optimized ViT (SnapPix AR, Sec. IV).

use crate::{ModelError, Result, VitConfig, VitEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snappix_autograd::Var;
use snappix_ce::{encode_batch, normalize_coded, ExposureMask};
use snappix_nn::{Linear, ParamStore, Session};
use snappix_tensor::Tensor;

/// Anything that can classify a `[batch, t, h, w]` clip batch.
///
/// The trait abstracts over input encodings: SnapPix models internally
/// compress the clip into a coded image, video baselines consume raw
/// frames — which is exactly the comparison of the paper's Table I.
///
/// `Sync` is a supertrait so evaluation can fan inference out across
/// threads (each thread opens its own read-only [`Session`]).
pub trait ActionModel: Sync {
    /// Display name used in experiment tables.
    fn name(&self) -> &str;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// The parameters of this model.
    fn store(&self) -> &ParamStore;

    /// Mutable access to the parameters (for the optimizer).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Builds class logits `[batch, classes]` for a `[batch, t, h, w]`
    /// clip batch inside `sess`.
    ///
    /// # Errors
    ///
    /// Fails when the clip geometry does not match the model.
    fn build_logits(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var>;
}

/// SnapPix action recognition: fixed CE mask, coded-image input, ViT
/// backbone, linear classification head.
#[derive(Debug, Clone)]
pub struct SnapPixAr {
    store: ParamStore,
    encoder: VitEncoder,
    head: Linear,
    mask: ExposureMask,
    name: String,
    /// Divide each pixel by its exposure count before the ViT (paper
    /// Sec. IV); disabled only for the ablation.
    pub normalize_by_exposure: bool,
}

impl SnapPixAr {
    /// Builds a model from a ViT configuration and a (task-agnostically
    /// trained) exposure mask.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when the mask tile differs from the
    /// ViT patch size or the configuration is invalid.
    pub fn new(config: VitConfig, mask: ExposureMask) -> Result<Self> {
        config.validate()?;
        let (th, tw) = mask.tile();
        if th != config.patch || tw != config.patch {
            return Err(ModelError::Config {
                context: format!(
                    "CE tile {th}x{tw} must equal ViT patch {} (the Sec. IV co-design)",
                    config.patch
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut store = ParamStore::new();
        let name = config.name.clone();
        let num_classes = config.num_classes;
        let dim = config.dim;
        let encoder = VitEncoder::new(&mut store, "enc", config, &mut rng)?;
        let head = Linear::new(&mut store, "head", dim, num_classes, &mut rng);
        Ok(SnapPixAr {
            store,
            encoder,
            head,
            mask,
            name,
            normalize_by_exposure: true,
        })
    }

    /// Builds a model whose mask tile is *not* constrained to the ViT
    /// patch — used only by the Sec. VI-E ablation that replaces the
    /// tile-repetitive pattern with a global one. The mask tile must
    /// still divide the frame.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when the configuration is invalid
    /// or the mask tile does not divide the frame.
    pub fn with_unconstrained_mask(config: VitConfig, mask: ExposureMask) -> Result<Self> {
        config.validate()?;
        let (th, tw) = mask.tile();
        if !config.height.is_multiple_of(th) || !config.width.is_multiple_of(tw) {
            return Err(ModelError::Config {
                context: format!(
                    "mask tile {th}x{tw} does not divide frame {}x{}",
                    config.height, config.width
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut store = ParamStore::new();
        let name = format!("{} (unconstrained mask)", config.name);
        let num_classes = config.num_classes;
        let dim = config.dim;
        let encoder = VitEncoder::new(&mut store, "enc", config, &mut rng)?;
        let head = Linear::new(&mut store, "head", dim, num_classes, &mut rng);
        Ok(SnapPixAr {
            store,
            encoder,
            head,
            mask,
            name,
            normalize_by_exposure: true,
        })
    }

    /// The exposure mask this model was co-designed with.
    pub fn mask(&self) -> &ExposureMask {
        &self.mask
    }

    /// The ViT encoder (e.g. to warm-start from MAE pre-training).
    pub fn encoder(&self) -> &VitEncoder {
        &self.encoder
    }

    /// Compresses clips to normalized coded images (what the sensor would
    /// transmit) — exposed for the examples and diagnostics.
    ///
    /// # Errors
    ///
    /// Fails when the clips do not match the mask.
    pub fn compress(&self, videos: &Tensor) -> Result<Tensor> {
        let coded = encode_batch(videos, &self.mask)?;
        if self.normalize_by_exposure {
            Ok(normalize_coded(coded, &self.mask)?)
        } else {
            Ok(coded)
        }
    }
}

impl ActionModel for SnapPixAr {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_classes(&self) -> usize {
        self.encoder.config().num_classes
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn build_logits(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var> {
        let coded = self.compress(videos)?;
        self.build_logits_from_coded(sess, &coded)
    }
}

impl SnapPixAr {
    /// Builds class logits from already-coded (and normalized) images
    /// `[batch, h, w]` — the path used when the coded image comes from the
    /// hardware sensor simulator instead of the algorithmic encoder.
    ///
    /// # Errors
    ///
    /// Fails when the image geometry does not match the encoder.
    pub fn build_logits_from_coded(&self, sess: &mut Session<'_>, coded: &Tensor) -> Result<Var> {
        let input = sess.input(coded.clone());
        let patch = self.encoder.config().patch;
        let patches = sess.graph.extract_patches(input, patch, patch)?;
        let tokens = self.encoder.forward_patches(sess, patches)?;
        let pooled = self.encoder.pool(sess, tokens)?;
        self.head.forward(sess, pooled).map_err(ModelError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_ce::patterns;

    fn model() -> SnapPixAr {
        let mask = patterns::long_exposure(4, (8, 8)).unwrap();
        SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask).unwrap()
    }

    #[test]
    fn construction_enforces_tile_patch_match() {
        let bad_mask = patterns::long_exposure(4, (4, 4)).unwrap();
        assert!(SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), bad_mask).is_err());
    }

    #[test]
    fn logits_shape() {
        let m = model();
        let videos = Tensor::full(&[3, 4, 16, 16], 0.5);
        let mut sess = Session::inference(m.store());
        let logits = m.build_logits(&mut sess, &videos).unwrap();
        assert_eq!(sess.graph.value(logits).shape(), &[3, 5]);
        assert_eq!(m.num_classes(), 5);
        assert_eq!(m.name(), "SnapPix-S");
    }

    #[test]
    fn compress_reduces_t_frames_to_one() {
        let m = model();
        let videos = Tensor::full(&[2, 4, 16, 16], 0.25);
        let coded = m.compress(&videos).unwrap();
        assert_eq!(coded.shape(), &[2, 16, 16]);
        // Long exposure of constant 0.25 with normalization -> 0.25.
        assert!(coded.approx_eq(&Tensor::full(&[2, 16, 16], 0.25), 1e-6));
    }

    #[test]
    fn exposure_normalization_flag_changes_input() {
        let mut m = model();
        let videos = Tensor::full(&[1, 4, 16, 16], 0.25);
        let normalized = m.compress(&videos).unwrap();
        m.normalize_by_exposure = false;
        let raw = m.compress(&videos).unwrap();
        // Without normalization the long exposure sums to 1.0 per pixel.
        assert!(raw.approx_eq(&Tensor::ones(&[1, 16, 16]), 1e-6));
        assert!(!raw.approx_eq(&normalized, 1e-3));
    }

    #[test]
    fn gradients_reach_encoder_and_head() {
        let mut m = model();
        let videos = Tensor::full(&[2, 4, 16, 16], 0.5);
        let mut sess = Session::new(m.store());
        let logits = m.build_logits(&mut sess, &videos).unwrap();
        let loss = sess.graph.cross_entropy_logits(logits, &[0, 1]).unwrap();
        let grads = sess.backward(loss).unwrap();
        drop(sess);
        let ids = m.store_mut().ids();
        let with_grads = ids.iter().filter(|&&id| grads.get(id).is_some()).count();
        assert_eq!(
            with_grads,
            ids.len(),
            "every parameter should get a gradient"
        );
    }
}
