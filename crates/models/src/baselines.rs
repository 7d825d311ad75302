//! The paper's baseline models (Table I and Sec. VI-D), reproduced at
//! CPU-trainable scale.

use crate::ar::ActionModel;
use crate::{ModelError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snappix_autograd::Var;
use snappix_nn::{
    max_pool3d, Conv2d, Conv3d, Linear, ParamId, ParamStore, Session, ShiftVariantConv2d,
};
use snappix_tensor::Tensor;

// ---------------------------------------------------------------------
// SVC2D (Okawara et al.): coded image + shift-variant convolution, with an
// end-to-end learned exposure pattern.
// ---------------------------------------------------------------------

/// The SVC2D baseline: a small CNN whose first layer is a shift-variant
/// convolution, consuming a coded image produced by an exposure pattern
/// that is *learned jointly with the model* (task-specific, unlike
/// SnapPix's task-agnostic decorrelation).
#[derive(Debug, Clone)]
pub struct Svc2d {
    store: ParamStore,
    logits_param: ParamId,
    svc: ShiftVariantConv2d,
    conv: Conv2d,
    head: Linear,
    slots: usize,
    tile: usize,
    height: usize,
    width: usize,
    classes: usize,
}

impl Svc2d {
    /// Builds the baseline for `slots`-frame clips of `height x width`
    /// pixels with a `tile x tile` exposure tile.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] for degenerate geometry.
    pub fn new(
        slots: usize,
        height: usize,
        width: usize,
        tile: usize,
        classes: usize,
    ) -> Result<Self> {
        if slots == 0
            || tile == 0
            || !height.is_multiple_of(tile)
            || !width.is_multiple_of(tile)
            || classes == 0
        {
            return Err(ModelError::Config {
                context: format!(
                    "svc2d: slots {slots}, tile {tile}, frame {height}x{width}, classes {classes}"
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x5bc);
        let mut store = ParamStore::new();
        let logits_param = store.register(
            "pattern.logits",
            Tensor::rand_uniform(&mut rng, &[slots, tile, tile], -0.5, 0.5),
        );
        let svc = ShiftVariantConv2d::new(&mut store, "svc", 1, 4, 3, (tile, tile), &mut rng)?;
        let conv = Conv2d::new(&mut store, "conv", 4, 8, 3, 2, 1, &mut rng)?;
        let flat = 8 * (height / 2) * (width / 2);
        let head = Linear::new(&mut store, "head", flat, classes, &mut rng);
        Ok(Svc2d {
            store,
            logits_param,
            svc,
            conv,
            head,
            slots,
            tile,
            height,
            width,
            classes,
        })
    }

    /// The binary exposure pattern currently implied by the learned
    /// logits.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed model; kept fallible for mask
    /// validation symmetry.
    pub fn learned_mask(&self) -> Result<snappix_ce::ExposureMask> {
        let binary = self
            .store
            .value(self.logits_param)
            .map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        snappix_ce::ExposureMask::new(binary).map_err(ModelError::from)
    }
}

impl ActionModel for Svc2d {
    fn name(&self) -> &str {
        "SVC2D"
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn build_logits(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var> {
        let shape = videos.shape().to_vec();
        if shape.len() != 4
            || shape[1] != self.slots
            || shape[2] != self.height
            || shape[3] != self.width
        {
            return Err(ModelError::Input {
                context: format!(
                    "svc2d expects [b, {}, {}, {}], got {shape:?}",
                    self.slots, self.height, self.width
                ),
            });
        }
        let batch = shape[0];
        // End-to-end learned CE: binarize logits with STE, tile, integrate.
        let logits = sess.param(self.logits_param);
        let mask = sess.graph.binarize_ste(logits, 0.0)?;
        let tiled =
            sess.graph
                .tile_spatial(mask, self.height / self.tile, self.width / self.tile)?;
        let tiled4 = sess
            .graph
            .reshape(tiled, &[1, self.slots, self.height, self.width])?;
        let vids = sess.input(videos.clone());
        let exposed = sess.graph.mul(tiled4, vids)?;
        let coded = sess.graph.sum_axis(exposed, 1, false)?;
        let coded = sess.graph.scale(coded, 1.0 / self.slots as f32)?;
        let x = sess
            .graph
            .reshape(coded, &[batch, 1, self.height, self.width])?;
        let x = self.svc.forward(sess, x)?;
        let x = sess.graph.relu(x)?;
        let x = self.conv.forward(sess, x)?;
        let x = sess.graph.relu(x)?;
        let flat = 8 * (self.height / 2) * (self.width / 2);
        let x = sess.graph.reshape(x, &[batch, flat])?;
        self.head.forward(sess, x).map_err(ModelError::from)
    }
}

// ---------------------------------------------------------------------
// C3D (Tran et al.): 3-D convolutions over the raw 16-frame clip.
// ---------------------------------------------------------------------

/// The C3D baseline: a small 3-D convnet consuming the uncoded clip (the
/// "upper bound" of prior CE work that SnapPix overtakes).
#[derive(Debug, Clone)]
pub struct C3d {
    store: ParamStore,
    conv1: Conv3d,
    conv2: Conv3d,
    head: Linear,
    slots: usize,
    height: usize,
    width: usize,
    classes: usize,
}

impl C3d {
    /// Builds the baseline for `slots`-frame clips.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when the clip is too small for the
    /// pooling pyramid (needs `slots >= 4` and extents `>= 8`).
    pub fn new(slots: usize, height: usize, width: usize, classes: usize) -> Result<Self> {
        if slots < 4 || height < 8 || width < 8 || classes == 0 {
            return Err(ModelError::Config {
                context: format!("c3d: clip {slots}x{height}x{width} too small"),
            });
        }
        let mut rng = StdRng::seed_from_u64(0xc3d);
        let mut store = ParamStore::new();
        let conv1 = Conv3d::new(
            &mut store,
            "conv1",
            1,
            4,
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
            &mut rng,
        )?;
        let conv2 = Conv3d::new(
            &mut store,
            "conv2",
            4,
            8,
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
            &mut rng,
        )?;
        let flat = 8 * (slots / 4) * (height / 4) * (width / 4);
        let head = Linear::new(&mut store, "head", flat, classes, &mut rng);
        Ok(C3d {
            store,
            conv1,
            conv2,
            head,
            slots,
            height,
            width,
            classes,
        })
    }
}

impl ActionModel for C3d {
    fn name(&self) -> &str {
        "C3D"
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn build_logits(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var> {
        let shape = videos.shape().to_vec();
        if shape.len() != 4
            || shape[1] != self.slots
            || shape[2] != self.height
            || shape[3] != self.width
        {
            return Err(ModelError::Input {
                context: format!(
                    "c3d expects [b, {}, {}, {}], got {shape:?}",
                    self.slots, self.height, self.width
                ),
            });
        }
        let batch = shape[0];
        let x = sess.input(videos.clone());
        let x = sess
            .graph
            .reshape(x, &[batch, 1, self.slots, self.height, self.width])?;
        let x = self.conv1.forward(sess, x)?;
        let x = sess.graph.relu(x)?;
        let x = max_pool3d(sess, x, (2, 2, 2))?;
        let x = self.conv2.forward(sess, x)?;
        let x = sess.graph.relu(x)?;
        let x = max_pool3d(sess, x, (2, 2, 2))?;
        let flat = 8 * (self.slots / 4) * (self.height / 4) * (self.width / 4);
        let x = sess.graph.reshape(x, &[batch, flat])?;
        self.head.forward(sess, x).map_err(ModelError::from)
    }
}

// ---------------------------------------------------------------------
// VideoMAEv2-ST-like: a tubelet-token video transformer on raw frames.
// ---------------------------------------------------------------------

/// A VideoMAEv2-ST-like video transformer: the clip is cut into
/// `t_patch x patch x patch` tubelets, each linearly embedded into a
/// token. With 16 frames this yields 4x the tokens of SnapPix's coded
/// image, which is why it runs slower at matched width (Table I).
#[derive(Debug, Clone)]
pub struct VideoVit {
    store: ParamStore,
    embed: Linear,
    pos_embed: ParamId,
    blocks: Vec<snappix_nn::TransformerBlock>,
    head: Linear,
    name: String,
    slots: usize,
    height: usize,
    width: usize,
    t_patch: usize,
    patch: usize,
    dim: usize,
    classes: usize,
}

impl VideoVit {
    /// Builds the baseline with the default (SnapPix-S-matched) width.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when tubelets do not tile the clip.
    pub fn new(slots: usize, height: usize, width: usize, classes: usize) -> Result<Self> {
        Self::with_geometry(
            "VideoMAEv2-ST-like",
            slots,
            height,
            width,
            4,
            8,
            32,
            2,
            classes,
        )
    }

    /// Fully parameterized constructor (used by the downsample baseline).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when tubelets do not tile the clip
    /// or the width is not divisible by the head count.
    #[allow(clippy::too_many_arguments)]
    pub fn with_geometry(
        name: &str,
        slots: usize,
        height: usize,
        width: usize,
        t_patch: usize,
        patch: usize,
        dim: usize,
        depth: usize,
        classes: usize,
    ) -> Result<Self> {
        if slots == 0
            || t_patch == 0
            || patch == 0
            || !slots.is_multiple_of(t_patch)
            || !height.is_multiple_of(patch)
            || !width.is_multiple_of(patch)
            || classes == 0
            || depth == 0
        {
            return Err(ModelError::Config {
                context: format!(
                    "video-vit {name}: tubelet {t_patch}x{patch}x{patch} does not tile \
                     {slots}x{height}x{width}"
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(0x71de0);
        let mut store = ParamStore::new();
        let tokens = (slots / t_patch) * (height / patch) * (width / patch);
        let tubelet = t_patch * patch * patch;
        let embed = Linear::new(&mut store, "embed", tubelet, dim, &mut rng);
        let pos_embed = store.register(
            "pos_embed",
            snappix_nn::xavier_uniform(&mut rng, &[tokens, dim], tokens, dim).scale(0.1),
        );
        let mut blocks = Vec::with_capacity(depth);
        for d in 0..depth {
            blocks.push(snappix_nn::TransformerBlock::new(
                &mut store,
                &format!("block{d}"),
                dim,
                4.min(dim),
                dim * 2,
                &mut rng,
            )?);
        }
        let head = Linear::new(&mut store, "head", dim, classes, &mut rng);
        Ok(VideoVit {
            store,
            embed,
            pos_embed,
            blocks,
            head,
            name: name.to_string(),
            slots,
            height,
            width,
            t_patch,
            patch,
            dim,
            classes,
        })
    }

    /// Cuts a `[batch, t, h, w]` clip into `[batch, tokens, tubelet]`
    /// pixels (plain tensor op; the clip is a non-learnable input).
    fn tubelets(&self, videos: &Tensor) -> Result<Tensor> {
        let (batch, t, h, w) = (
            videos.shape()[0],
            videos.shape()[1],
            videos.shape()[2],
            videos.shape()[3],
        );
        let (tp, p) = (self.t_patch, self.patch);
        let (gt, gh, gw) = (t / tp, h / p, w / p);
        let tokens = gt * gh * gw;
        let tubelet = tp * p * p;
        let mut out = Tensor::zeros(&[batch, tokens, tubelet]);
        let src = videos.as_slice();
        let dst = out.as_mut_slice();
        for b in 0..batch {
            for zt in 0..gt {
                for zy in 0..gh {
                    for zx in 0..gw {
                        let token = (zt * gh + zy) * gw + zx;
                        for dt in 0..tp {
                            for dy in 0..p {
                                for dx in 0..p {
                                    let v = src[((b * t + zt * tp + dt) * h + zy * p + dy) * w
                                        + zx * p
                                        + dx];
                                    dst[(b * tokens + token) * tubelet + (dt * p + dy) * p + dx] =
                                        v;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl ActionModel for VideoVit {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn build_logits(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var> {
        let shape = videos.shape().to_vec();
        if shape.len() != 4
            || shape[1] != self.slots
            || shape[2] != self.height
            || shape[3] != self.width
        {
            return Err(ModelError::Input {
                context: format!(
                    "{} expects [b, {}, {}, {}], got {shape:?}",
                    self.name, self.slots, self.height, self.width
                ),
            });
        }
        let tubelets = self.tubelets(videos)?;
        let x = sess.input(tubelets);
        let tokens = self.embed.forward(sess, x)?;
        let pos = sess.param(self.pos_embed);
        let mut x = sess.graph.add(tokens, pos)?;
        for block in &self.blocks {
            x = block.forward(sess, x)?;
        }
        let pooled = sess.graph.mean_axis(x, 1, false)?;
        let _ = self.dim;
        self.head.forward(sess, pooled).map_err(ModelError::from)
    }
}

// ---------------------------------------------------------------------
// Downsample baseline (Sec. VI-D): 4x4 average pooling + video model.
// ---------------------------------------------------------------------

/// The "simple compression" baseline: spatially downsample every frame by
/// `factor x factor` average filtering (matching SnapPix's 16x rate when
/// `factor = 4`) and run a video transformer on the small clip.
#[derive(Debug, Clone)]
pub struct DownsampleVideoVit {
    inner: VideoVit,
    factor: usize,
    slots: usize,
    height: usize,
    width: usize,
}

impl DownsampleVideoVit {
    /// Builds the baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when `factor` does not divide the
    /// frame or the downsampled clip cannot be tokenized.
    pub fn new(
        slots: usize,
        height: usize,
        width: usize,
        factor: usize,
        classes: usize,
    ) -> Result<Self> {
        if factor == 0 || !height.is_multiple_of(factor) || !width.is_multiple_of(factor) {
            return Err(ModelError::Config {
                context: format!("downsample factor {factor} does not divide {height}x{width}"),
            });
        }
        let (dh, dw) = (height / factor, width / factor);
        // Small frames need a small spatial patch.
        let patch = if dh % 8 == 0 && dw % 8 == 0 { 8 } else { 4 };
        let inner = VideoVit::with_geometry(
            "Downsample+VideoViT",
            slots,
            dh,
            dw,
            4,
            patch.min(dh).min(dw),
            32,
            2,
            classes,
        )?;
        Ok(DownsampleVideoVit {
            inner,
            factor,
            slots,
            height,
            width,
        })
    }

    fn downsample(&self, videos: &Tensor) -> Result<Tensor> {
        let batch = videos.shape()[0];
        let mut clips = Vec::with_capacity(batch);
        for b in 0..batch {
            let clip = snappix_video::Video::new(videos.index_axis(0, b)?)?;
            clips.push(clip.spatial_downsample(self.factor)?.into_frames());
        }
        let refs: Vec<&Tensor> = clips.iter().collect();
        Ok(Tensor::stack(&refs, 0)?)
    }
}

impl ActionModel for DownsampleVideoVit {
    fn name(&self) -> &str {
        "Downsample+VideoViT"
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn store(&self) -> &ParamStore {
        self.inner.store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }

    fn build_logits(&self, sess: &mut Session<'_>, videos: &Tensor) -> Result<Var> {
        let shape = videos.shape().to_vec();
        if shape.len() != 4
            || shape[1] != self.slots
            || shape[2] != self.height
            || shape[3] != self.width
        {
            return Err(ModelError::Input {
                context: format!(
                    "downsample baseline expects [b, {}, {}, {}], got {shape:?}",
                    self.slots, self.height, self.width
                ),
            });
        }
        let small = self.downsample(videos)?;
        self.inner.build_logits(sess, &small)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 8;
    const HW: usize = 16;

    fn clip(batch: usize) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        Tensor::rand_uniform(&mut rng, &[batch, T, HW, HW], 0.0, 1.0)
    }

    #[test]
    fn svc2d_shapes_and_learned_mask() {
        let m = Svc2d::new(T, HW, HW, 8, 5).unwrap();
        let mut sess = Session::inference(m.store());
        let logits = m.build_logits(&mut sess, &clip(2)).unwrap();
        assert_eq!(sess.graph.value(logits).shape(), &[2, 5]);
        let mask = m.learned_mask().unwrap();
        assert_eq!(mask.num_slots(), T);
        assert_eq!(mask.tile(), (8, 8));
        assert!(Svc2d::new(T, 15, HW, 8, 5).is_err());
    }

    #[test]
    fn svc2d_pattern_receives_gradient() {
        let m = Svc2d::new(T, HW, HW, 8, 5).unwrap();
        let mut sess = Session::new(m.store());
        let logits = m.build_logits(&mut sess, &clip(2)).unwrap();
        let loss = sess.graph.cross_entropy_logits(logits, &[0, 1]).unwrap();
        let grads = sess.backward(loss).unwrap();
        let pattern_id = m
            .store()
            .iter()
            .find(|(_, n, _)| *n == "pattern.logits")
            .map(|(id, _, _)| id)
            .unwrap();
        assert!(
            grads.get(pattern_id).is_some(),
            "end-to-end learning requires gradient into the pattern"
        );
    }

    #[test]
    fn c3d_shapes() {
        let m = C3d::new(T, HW, HW, 6).unwrap();
        let mut sess = Session::inference(m.store());
        let logits = m.build_logits(&mut sess, &clip(2)).unwrap();
        assert_eq!(sess.graph.value(logits).shape(), &[2, 6]);
        assert_eq!(m.name(), "C3D");
        assert!(C3d::new(2, HW, HW, 6).is_err());
    }

    #[test]
    fn video_vit_shapes_and_token_count() {
        let m = VideoVit::new(T, HW, HW, 5).unwrap();
        // 8/4 x 16/8 x 16/8 = 2 x 2 x 2 = 8 tokens.
        assert_eq!(m.tubelets(&clip(3)).unwrap().shape()[1], 8);
        let mut sess = Session::inference(m.store());
        let logits = m.build_logits(&mut sess, &clip(3)).unwrap();
        assert_eq!(sess.graph.value(logits).shape(), &[3, 5]);
        assert!(VideoVit::new(7, HW, HW, 5).is_err());
    }

    #[test]
    fn video_vit_has_more_tokens_than_snappix_coded_image() {
        // The throughput argument of Table I: the video model processes
        // t_patch-fold more tokens than a coded-image ViT at equal patch.
        let m = VideoVit::new(16, 32, 32, 10).unwrap();
        let snappix_tokens = (32 / 8) * (32 / 8);
        let tokens = m
            .tubelets(&Tensor::zeros(&[1, 16, 32, 32]))
            .unwrap()
            .shape()[1];
        assert!(tokens > snappix_tokens);
    }

    #[test]
    fn downsample_baseline_shapes() {
        let m = DownsampleVideoVit::new(T, HW, HW, 4, 5).unwrap();
        let mut sess = Session::inference(m.store());
        let logits = m.build_logits(&mut sess, &clip(2)).unwrap();
        assert_eq!(sess.graph.value(logits).shape(), &[2, 5]);
        assert!(DownsampleVideoVit::new(T, HW, HW, 3, 5).is_err());
    }

    #[test]
    fn input_validation_across_models() {
        let wrong = Tensor::zeros(&[1, T + 1, HW, HW]);
        let svc = Svc2d::new(T, HW, HW, 8, 5).unwrap();
        let c3d = C3d::new(T, HW, HW, 5).unwrap();
        let vvit = VideoVit::new(T, HW, HW, 5).unwrap();
        let down = DownsampleVideoVit::new(T, HW, HW, 4, 5).unwrap();
        let models: Vec<&dyn ActionModel> = vec![&svc, &c3d, &vvit, &down];
        for m in models {
            let mut sess = Session::inference(m.store());
            assert!(
                m.build_logits(&mut sess, &wrong).is_err(),
                "{} accepted a wrong clip",
                m.name()
            );
        }
    }
}
