//! The throughput-first inference engine: batched clips in, logits and
//! labels per clip out.
//!
//! [`Pipeline`] replaced the one-clip-at-a-time `SnapPixSystem` (retired
//! after its deprecation release): it owns
//! persistent [`SessionPool`]s so the autograd graph and parameter
//! bindings are reused across calls instead of being reallocated per
//! clip, it accepts `[batch, t, h, w]` clip batches so the whole batch
//! shares one forward pass (sharded by clip across the pipeline's
//! threads when the batch is big enough to pay for them), and it is
//! generic over the [`Sense`] backend
//! so the training-time algorithmic encoder and the deployment-time
//! hardware simulation run through identical code.

use crate::Error;
use snappix_ce::{AlgorithmicEncoder, Sense};
use snappix_models::{ActionModel, SnapPixAr};
use snappix_nn::{ArtifactReader, SessionPool};
use snappix_sensor::{HardwareSensor, ReadoutConfig};
use snappix_tensor::{parallel, Tensor};
use snappix_trace::Tracer;
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs `f` under the pipeline's worker-count override, when one is set.
fn with_pool<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    match threads {
        Some(n) => parallel::with_threads(n, f),
        None => f(),
    }
}

/// Cumulative timing for one pipeline stage: call count, total wall
/// time, and the slowest single call.
///
/// Stage timing is *always* accumulated — two monotonic clock reads per
/// stage per batch, noise next to a millisecond-scale forward pass — so
/// per-stage aggregates reach `ServerStats` and `/metrics` even with
/// span tracing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageProfile {
    /// Times the stage ran.
    pub calls: u64,
    /// Total wall time across all calls.
    pub total: Duration,
    /// The slowest single call.
    pub max: Duration,
}

impl StageProfile {
    fn record(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.total += elapsed;
        if elapsed > self.max {
            self.max = elapsed;
        }
    }

    /// Mean wall time per call, truncated to whole nanoseconds (zero
    /// before the first call).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            return Duration::ZERO;
        }
        // In u128 nanoseconds, so any `calls` count divides exactly. The
        // mean is at most `total`, so its seconds fit back in a u64.
        let nanos = self.total.as_nanos() / u128::from(self.calls);
        let secs = u64::try_from(nanos / 1_000_000_000).expect("mean <= total");
        Duration::new(secs, (nanos % 1_000_000_000) as u32)
    }

    /// Fold `other`'s calls into this profile.
    pub fn merge(&mut self, other: &StageProfile) {
        self.calls += other.calls;
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// Where a pipeline's wall time goes, by stage: `sense` (the coding
/// backend), `forward` (the model pass), `readout` (argmax over
/// logits).
///
/// Read it with [`Pipeline::profile`], or drain deltas with
/// [`Pipeline::take_profile`] — the serving layer does the latter after
/// every batch so `ServerStats` aggregates stage time across worker
/// replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineProfile {
    /// The sensing/coding stage (`Sense::sense_batch` and `sense`).
    pub sense: StageProfile,
    /// The batched model forward pass.
    pub forward: StageProfile,
    /// Label extraction (argmax) over the logits.
    pub readout: StageProfile,
    /// Batched forward passes completed.
    pub batches: u64,
    /// Clips classified across those batches.
    pub clips: u64,
}

impl PipelineProfile {
    /// Fold `other` into this profile (stage by stage plus the batch
    /// and clip counters).
    pub fn merge(&mut self, other: &PipelineProfile) {
        self.sense.merge(&other.sense);
        self.forward.merge(&other.forward);
        self.readout.merge(&other.readout);
        self.batches += other.batches;
        self.clips += other.clips;
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self == &PipelineProfile::default()
    }
}

impl fmt::Display for PipelineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} clips / {} batches | sense {:?} mean (max {:?}) | forward {:?} mean (max {:?}) | readout {:?} mean (max {:?})",
            self.clips,
            self.batches,
            self.sense.mean(),
            self.sense.max,
            self.forward.mean(),
            self.forward.max,
            self.readout.mean(),
            self.readout.max,
        )
    }
}

/// Result of classifying one clip: the raw class logits and the winning
/// label.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class index.
    pub label: usize,
    /// Raw class logits `[classes]`.
    pub logits: Tensor,
}

/// Result of one batched inference: per-clip logits and labels, in the
/// order the clips were passed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inference {
    /// Raw class logits `[batch, classes]`.
    pub logits: Tensor,
    /// Predicted class index per clip.
    pub labels: Vec<usize>,
}

impl Inference {
    /// An inference over zero clips: `[0, num_classes]` logits, no
    /// labels. This is what [`Pipeline::infer`] returns for a
    /// `[0, t, h, w]` batch.
    pub fn empty(num_classes: usize) -> Self {
        Inference {
            logits: Tensor::zeros(&[0, num_classes]),
            labels: Vec::new(),
        }
    }

    /// Number of clips in this inference.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when no clips were inferred (an empty batch).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Extracts clip `i` as a standalone [`Prediction`].
    ///
    /// # Errors
    ///
    /// Fails when `i` is out of range.
    pub fn prediction(&self, i: usize) -> Result<Prediction, Error> {
        let logits = self.logits.index_axis(0, i)?;
        Ok(Prediction {
            label: self.labels[i],
            logits,
        })
    }

    /// Iterates over the clips as standalone [`Prediction`]s, in batch
    /// order — the loop-friendly face of [`prediction`](Self::prediction)
    /// (no hand-written indexing, no per-item `Result`).
    ///
    /// Each item clones its logits row out of the batched tensor, the
    /// same cost `prediction(i)` pays.
    pub fn predictions(&self) -> Predictions<'_> {
        Predictions {
            inference: self,
            next: 0,
        }
    }
}

/// Borrowed iterator over an [`Inference`]'s per-clip [`Prediction`]s.
///
/// Created by [`Inference::predictions`] (or `&inference` in a `for`
/// loop).
#[derive(Debug, Clone)]
pub struct Predictions<'a> {
    inference: &'a Inference,
    next: usize,
}

impl Iterator for Predictions<'_> {
    type Item = Prediction;

    fn next(&mut self) -> Option<Prediction> {
        if self.next >= self.inference.len() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        // In range by the check above, so extraction cannot fail.
        Some(self.inference.prediction(i).expect("index in range"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inference.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Predictions<'_> {}

impl<'a> IntoIterator for &'a Inference {
    type Item = Prediction;
    type IntoIter = Predictions<'a>;

    fn into_iter(self) -> Predictions<'a> {
        self.predictions()
    }
}

/// Owning iterator over an [`Inference`]'s per-clip [`Prediction`]s.
///
/// Created by iterating an [`Inference`] by value.
#[derive(Debug, Clone)]
pub struct IntoPredictions {
    inference: Inference,
    next: usize,
}

impl Iterator for IntoPredictions {
    type Item = Prediction;

    fn next(&mut self) -> Option<Prediction> {
        if self.next >= self.inference.len() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(self.inference.prediction(i).expect("index in range"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inference.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for IntoPredictions {}

impl IntoIterator for Inference {
    type Item = Prediction;
    type IntoIter = IntoPredictions;

    fn into_iter(self) -> IntoPredictions {
        IntoPredictions {
            inference: self,
            next: 0,
        }
    }
}

/// Staged construction of a [`Pipeline`], following the workspace's
/// builder-style `with_*` idiom (each method returns `self` with one
/// knob changed; [`PipelineBuilder::build`] validates the assembly).
///
/// Created by [`Pipeline::builder`], which starts from the
/// training-time [`AlgorithmicEncoder`] backend; swap in the hardware
/// simulation with [`with_hardware_sensor`](Self::with_hardware_sensor)
/// or any custom [`Sense`] implementation with
/// [`with_backend`](Self::with_backend).
///
/// When the backend is `Clone` the builder is too, and
/// [`build_replicas`](Self::build_replicas) stamps out identical
/// pipeline replicas — the construction path serving layers use to give
/// every worker thread its own engine over the same weights.
#[derive(Debug, Clone)]
pub struct PipelineBuilder<S: Sense = AlgorithmicEncoder> {
    model: SnapPixAr,
    backend: S,
    threads: Option<usize>,
    tracer: Tracer,
}

impl<S: Sense> PipelineBuilder<S> {
    /// Replaces the sensing backend with any [`Sense`] implementation.
    ///
    /// The backend must run the same exposure mask as the model and
    /// agree with the model's `normalize_by_exposure` flag (reported via
    /// [`Sense::normalizes`]); [`build`](Self::build) enforces both.
    /// [`Pipeline::builder`] and
    /// [`with_hardware_sensor`](Self::with_hardware_sensor) sync the
    /// normalization flag automatically; when constructing an
    /// [`AlgorithmicEncoder`] or [`HardwareSensor`] by hand, pass
    /// `.with_normalization(model.normalize_by_exposure)`.
    #[must_use]
    pub fn with_backend<S2: Sense>(self, backend: S2) -> PipelineBuilder<S2> {
        PipelineBuilder {
            model: self.model,
            backend,
            threads: self.threads,
            tracer: self.tracer,
        }
    }

    /// Switches to the deployment path: clips pass through the simulated
    /// charge-domain sensor and a readout chain built from `readout`.
    ///
    /// The sensor geometry and mask are taken from the model, and the
    /// readout's `full_scale` is overridden to the mask's slot count so
    /// the ADC range matches the worst-case accumulated charge (the same
    /// convention the retired `SnapPixSystem::new` applied).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sensor`] when the model's geometry cannot form a
    /// sensor, or with
    /// [`SensorError::AdcBits`](snappix_sensor::SensorError::AdcBits) when
    /// `readout.adc_bits` lies outside
    /// [`ReadoutConfig::ADC_BITS`] (`1..=24`).
    pub fn with_hardware_sensor(
        self,
        readout: ReadoutConfig,
    ) -> Result<PipelineBuilder<HardwareSensor>, Error> {
        readout.validate()?;
        let cfg = self.model.encoder().config();
        let backend = HardwareSensor::new(cfg.height, cfg.width, self.model.mask().clone())?
            .with_readout(ReadoutConfig {
                full_scale: self.model.mask().num_slots() as f32,
                ..readout
            })
            .with_normalization(self.model.normalize_by_exposure);
        Ok(PipelineBuilder {
            model: self.model,
            backend,
            threads: self.threads,
            tracer: self.tracer,
        })
    }

    /// Attaches a span recorder: the pipeline emits `sense`/`forward`/
    /// `readout` spans into it on every inference, auto-parented under
    /// whatever span the caller has open (the serving layer's `batch`
    /// span, say). Defaults to [`Tracer::disabled`], which records
    /// nothing and costs nothing on the hot path. Tracing never changes
    /// results — outputs are bit-for-bit identical on and off.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Pins the worker count this pipeline's sensing and inference run
    /// with (clamped to at least 1), scoped per call through
    /// [`snappix_tensor::parallel::with_threads`].
    ///
    /// By default the pipeline inherits the ambient setting — the
    /// `SNAPPIX_THREADS` environment variable, else the machine's
    /// available parallelism — so serving callers only need this knob to
    /// isolate pipelines from each other (e.g. one serial pipeline per
    /// core versus one pipeline fanning out across all cores).
    /// `with_threads(1)` makes every kernel take its deterministic
    /// serial reference path.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Loads the model's weights from the sealed `.spx` artifact at
    /// `path`.
    ///
    /// The artifact's payload is read into memory once and every
    /// parameter becomes a zero-copy window into that one shared
    /// buffer, so [`build_replicas`](Self::build_replicas) stamps out
    /// replicas that all reference the same weight storage instead of n
    /// deep copies. To share one already-open artifact across several
    /// builders (e.g. a model registry), use
    /// [`with_artifact_reader`](Self::with_artifact_reader).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Nn`] when the artifact cannot be opened or
    /// validated, or when its tensors do not match the model's
    /// parameters (unknown names, shape mismatches).
    pub fn with_artifact(self, path: impl AsRef<Path>) -> Result<Self, Error> {
        let reader = ArtifactReader::open(path)?;
        self.with_artifact_reader(&reader)
    }

    /// Loads the model's weights from an already-open
    /// [`ArtifactReader`], sharing its payload buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Nn`] when the artifact's tensors do not match
    /// the model's parameters.
    pub fn with_artifact_reader(mut self, reader: &ArtifactReader) -> Result<Self, Error> {
        reader.load_into(self.model.store_mut())?;
        Ok(self)
    }

    /// Assembles the pipeline, validating that the backend and the model
    /// run the same exposure mask and agree on exposure-count
    /// normalization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Pipeline`] on a backend/model mask or
    /// normalization mismatch.
    pub fn build(self) -> Result<Pipeline<S>, Error> {
        if self.backend.normalizes() != self.model.normalize_by_exposure {
            return Err(Error::Pipeline {
                context: format!(
                    "backend normalization ({}) contradicts the model's \
                     normalize_by_exposure flag ({}): inputs would be scaled \
                     differently from the model's training data",
                    self.backend.normalizes(),
                    self.model.normalize_by_exposure
                ),
            });
        }
        if self.backend.mask() != self.model.mask() {
            return Err(Error::Pipeline {
                context: format!(
                    "backend mask ({} slots, tile {:?}) differs from the model's \
                     co-designed mask ({} slots, tile {:?})",
                    self.backend.mask().num_slots(),
                    self.backend.mask().tile(),
                    self.model.mask().num_slots(),
                    self.model.mask().tile()
                ),
            });
        }
        Ok(Pipeline {
            model: self.model,
            backend: self.backend,
            pools: Vec::new(),
            threads: self.threads,
            tracer: self.tracer,
            profile: PipelineProfile::default(),
        })
    }

    /// Assembles `replicas` identical pipelines from this one recipe.
    ///
    /// The model's weights are moved into shared read-only storage
    /// first, so every replica references the *same* buffers — one
    /// resident copy of the weights however many workers serve from
    /// them (weights loaded via [`with_artifact`](Self::with_artifact)
    /// already share the artifact's single payload buffer). Each
    /// replica still owns its backend copy (including any backend RNG
    /// state — replicas with a noisy readout draw independent,
    /// identically-seeded noise streams) and a fresh private session,
    /// so the inference hot path stays lock-free and each replica can
    /// serve from its own thread. This is the construction path behind
    /// `snappix-serve`'s worker pool.
    ///
    /// # Errors
    ///
    /// Same validation as [`build`](Self::build).
    pub fn build_replicas(mut self, replicas: usize) -> Result<Vec<Pipeline<S>>, Error>
    where
        S: Clone,
    {
        self.model.store_mut().make_shared();
        let mut out = Vec::with_capacity(replicas);
        for _ in 1..replicas {
            out.push(self.clone().build()?);
        }
        if replicas > 0 {
            out.push(self.build()?);
        }
        Ok(out)
    }
}

/// The batched SnapPix inference engine.
///
/// Clips go through the [`Sense`] backend (algorithmic encoder or
/// hardware simulation), the coded images drive the co-designed ViT in
/// *one* forward pass per batch — split into clip shards across the
/// pipeline's threads when the batch's work pays for them — and the
/// sessions behind that pass are reused
/// across calls via persistent [`SessionPool`]s, the structure a node
/// serving heavy traffic needs, instead of the per-clip
/// allocate-and-drop of the retired `SnapPixSystem`.
///
/// Single-clip callers on many threads reach batched throughput through
/// `snappix-serve`, whose dynamic batcher coalesces their clips into
/// `infer` calls.
///
/// # Examples
///
/// ```no_run
/// use snappix::prelude::*;
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let mut pipeline = Pipeline::builder(model).build()?;
/// let clips = Tensor::zeros(&[8, 8, 16, 16]); // [batch, t, h, w]
/// let out = pipeline.infer(&clips)?;
/// assert_eq!(out.labels.len(), 8);
/// # Ok(())
/// # }
/// ```
pub struct Pipeline<S: Sense = AlgorithmicEncoder> {
    model: SnapPixAr,
    backend: S,
    /// One session pool per forward shard, grown on demand; slot 0
    /// serves the serial path.
    pools: Vec<SessionPool>,
    threads: Option<usize>,
    tracer: Tracer,
    profile: PipelineProfile,
}

impl<S: Sense> std::fmt::Debug for Pipeline<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("model", &self.model.name().to_string())
            .field("classes", &self.model.num_classes())
            .finish()
    }
}

impl Pipeline<AlgorithmicEncoder> {
    /// Starts building a pipeline around `model`, defaulting to the
    /// training-time [`AlgorithmicEncoder`] backend configured from the
    /// model's own mask and normalization flag.
    pub fn builder(model: SnapPixAr) -> PipelineBuilder<AlgorithmicEncoder> {
        let backend = AlgorithmicEncoder::new(model.mask().clone())
            .with_normalization(model.normalize_by_exposure);
        PipelineBuilder {
            model,
            backend,
            threads: None,
            tracer: Tracer::disabled(),
        }
    }
}

impl<S: Sense> Pipeline<S>
where
    Error: From<S::Error>,
{
    /// The vision model.
    pub fn model(&self) -> &SnapPixAr {
        &self.model
    }

    /// The sensing backend.
    ///
    /// Only shared access is offered: replacing or reconfiguring the
    /// backend could break the mask/normalization agreement that
    /// [`PipelineBuilder::build`] validated — rebuild through the
    /// builder instead.
    pub fn backend(&self) -> &S {
        &self.backend
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    /// The pinned worker count, if [`PipelineBuilder::with_threads`] set
    /// one; `None` means the ambient `SNAPPIX_THREADS` / machine default
    /// applies.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The span recorder this pipeline emits stage spans into
    /// (disabled unless [`PipelineBuilder::with_tracer`] attached one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Cumulative per-stage timing since the pipeline was built (or
    /// since the last [`take_profile`](Self::take_profile)).
    pub fn profile(&self) -> &PipelineProfile {
        &self.profile
    }

    /// Drains the profile: returns everything accumulated since the
    /// last take and resets the counters. Serving workers call this
    /// after each batch to push per-stage deltas into the server-wide
    /// aggregate.
    pub fn take_profile(&mut self) -> PipelineProfile {
        std::mem::take(&mut self.profile)
    }

    /// Bytes of weight memory this pipeline keeps resident, counting
    /// each shared buffer once. For fleet-wide accounting across
    /// replicas use [`resident_weight_bytes`], which deduplicates
    /// buffers shared *between* pipelines.
    pub fn weight_bytes(&self) -> usize {
        snappix_nn::resident_weight_bytes([self.model.store()])
    }

    /// Senses one `[t, h, w]` clip into the coded image the node would
    /// transmit, without classifying it.
    ///
    /// # Errors
    ///
    /// Fails when the clip does not match the backend.
    pub fn sense(&mut self, clip: &Tensor) -> Result<Tensor, Error> {
        with_pool(self.threads, || {
            self.stage("sense", None, |p| p.backend.sense(clip))
        })
        .map_err(Error::from)
    }

    /// Classifies a `[batch, t, h, w]` clip batch in one model forward
    /// pass, reusing the pipeline's session. Sensing is batched when the
    /// backend supports it (the algorithmic encoder does; the hardware
    /// simulation captures clip by clip, as a physical sensor would).
    ///
    /// Batching is the throughput path: per-clip graph construction and
    /// tensor allocation are amortized over the whole batch. When the
    /// batch's forward work (its size times
    /// [`VitConfig::macs_per_clip`](snappix_models::VitConfig::macs_per_clip))
    /// pays for more than one worker, the forward pass is sharded by
    /// clip, about two shards per worker, on the calling thread plus
    /// scoped helpers; smaller batches are one pass on the calling
    /// thread. The per-worker floor, the spawn cost it was measured
    /// against and the batch sizes it keeps serial are documented at
    /// `FORWARD_MACS_PER_WORKER` in this module's source. Sensing stays
    /// on the calling thread. Logits are bit-for-bit the same at every
    /// thread count. The `offline_batch` workload of the `perfbench`
    /// benchmark measures this path.
    ///
    /// An *empty* batch (`[0, t, h, w]`, any trailing extents) is
    /// well-defined and returns an empty [`Inference`] without touching
    /// the backend — batching front-ends (e.g. the `snappix-serve`
    /// dynamic batcher) can race to a flush with zero clips and must not
    /// blow up.
    ///
    /// # Errors
    ///
    /// Fails when the clips do not match the backend or the model.
    pub fn infer(&mut self, clips: &Tensor) -> Result<Inference, Error> {
        if clips.rank() == 4 && clips.shape()[0] == 0 {
            return Ok(Inference::empty(self.model.num_classes()));
        }
        let batch = clips.shape().first().copied().unwrap_or(0);
        with_pool(self.threads, || {
            let coded = self.stage("sense", Some(batch), |p| p.backend.sense_batch(clips));
            self.infer_coded(&coded?)
        })
    }

    /// Classifies one `[t, h, w]` clip.
    ///
    /// Prefer [`infer`](Self::infer) when more than one clip is
    /// available — the batched path is substantially faster than a loop
    /// over this method.
    ///
    /// # Errors
    ///
    /// Fails when the clip does not match the backend or the model.
    pub fn infer_clip(&mut self, clip: &Tensor) -> Result<Prediction, Error> {
        with_pool(self.threads, || {
            let coded = self.stage("sense", Some(1), |p| p.backend.sense(clip))?;
            let batch = coded.reshape(&[1, coded.shape()[0], coded.shape()[1]])?;
            self.infer_coded(&batch)
        })?
        .prediction(0)
    }

    /// Classifies one `[t, h, w]` clip and returns only the label.
    ///
    /// # Errors
    ///
    /// Fails when the clip does not match the backend or the model.
    pub fn classify(&mut self, clip: &Tensor) -> Result<usize, Error> {
        Ok(self.infer_clip(clip)?.label)
    }

    /// One batched forward pass over already-coded `[batch, h, w]`
    /// images, reusing the pooled sessions.
    fn infer_coded(&mut self, coded: &Tensor) -> Result<Inference, Error> {
        let logits = self.stage("forward", None, |p| p.forward(coded))?;
        let labels = self.stage("readout", None, |_| logits.argmax_axis(1))?;
        self.profile.batches += 1;
        self.profile.clips += labels.len() as u64;
        Ok(Inference { logits, labels })
    }

    /// Runs one pipeline stage inside a tracer span named `name` (with
    /// a `clips` argument when given) and records its wall time in the
    /// stage's [`StageProfile`].
    fn stage<R>(
        &mut self,
        name: &'static str,
        clips: Option<usize>,
        run: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let tracer = self.tracer.clone();
        let started = Instant::now();
        let mut span = tracer.span(name);
        if let Some(clips) = clips {
            span.arg("clips", clips);
        }
        let out = run(self);
        drop(span);
        let profile = match name {
            "sense" => &mut self.profile.sense,
            "forward" => &mut self.profile.forward,
            "readout" => &mut self.profile.readout,
            other => unreachable!("no pipeline stage named {other}"),
        };
        profile.record(started.elapsed());
        out
    }

    /// The model pass over `[batch, h, w]` coded images, sharded by clip
    /// as [`shard_plan`] sizes it.
    ///
    /// Every op in the forward treats each clip independently, so the
    /// batch splits into contiguous shards that run in their own pooled
    /// sessions on the calling thread plus scoped helpers, and their
    /// logits concatenate in shard order to the same bits one pass would
    /// give. A batch too small to pay for a helper is one pass on the
    /// calling thread.
    fn forward(&mut self, coded: &Tensor) -> Result<Tensor, Error> {
        let batch = coded.shape().first().copied().unwrap_or(0);
        let plan = shard_plan(batch, self.model.encoder().config().macs_per_clip());
        if self.pools.len() < plan.shards {
            self.pools.resize_with(plan.shards, SessionPool::new);
        }
        let model = &self.model;
        if plan.shards == 1 {
            return forward_shard(model, &mut self.pools[0], coded);
        }
        let mut slots: Vec<_> = self.pools[..plan.shards]
            .iter_mut()
            .map(|pool| (pool, None))
            .collect();
        parallel::with_threads(plan.workers, || {
            parallel::par_chunks_mut(&mut slots, 1, |index, slot| {
                let (pool, logits) = &mut slot[0];
                let start = index * plan.shard;
                let end = (start + plan.shard).min(batch);
                *logits = Some(
                    coded
                        .slice_axis(0, start, end)
                        .map_err(Error::Tensor)
                        .and_then(|part| forward_shard(model, pool, &part)),
                );
            });
        });
        let logits = slots
            .into_iter()
            .map(|(_, logits)| logits.expect("every shard ran"))
            .collect::<Result<Vec<_>, _>>()?;
        let parts: Vec<&Tensor> = logits.iter().collect();
        Ok(Tensor::concat(&parts, 0)?)
    }
}

/// Forward multiply-adds a clip-shard worker must receive before a
/// scoped helper is worth spawning. This is the one place that records
/// the measurement behind the workspace's parallel floors; other docs
/// refer here.
///
/// Measured on a 2-vCPU box, spawning and joining one scoped helper
/// costs a median of 51–56 µs (p90 110–175 µs, p99 2.2–2.9 ms), and the
/// helper starts about 40 µs late at the median. 2^19 multiply-adds are
/// about 130 µs of forward work there, at least 2.5x that median.
///
/// Fed to [`parallel::workers_for`] with the batch's
/// [`VitConfig::macs_per_clip`](snappix_models::VitConfig::macs_per_clip)
/// total. For SnapPix-S with 10 classes (76,096 multiply-adds per clip
/// at 16x16, 328,000 at 32x32) a 16x16 batch of up to 13 clips stays
/// one pass, and at 32x32 batches of 4 and up shard.
const FORWARD_MACS_PER_WORKER: usize = 1 << 19;

/// How [`Pipeline`]'s forward splits a batch: `workers` threads claim
/// `shards` contiguous shards of `shard` clips (the last may be shorter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardPlan {
    workers: usize,
    shard: usize,
    shards: usize,
}

/// Plans the forward pass over `batch` clips of `macs_per_clip` work each
/// at the calling thread's worker count. Below two workers' worth of
/// [`FORWARD_MACS_PER_WORKER`] the batch is one shard on one worker;
/// above it, shards are `batch.div_ceil(2 * workers)` clips, about two
/// per worker for balance.
fn shard_plan(batch: usize, macs_per_clip: usize) -> ShardPlan {
    let work = batch.saturating_mul(macs_per_clip);
    let workers = parallel::workers_for(work, FORWARD_MACS_PER_WORKER).min(batch);
    if workers <= 1 {
        return ShardPlan {
            workers: 1,
            shard: batch,
            shards: 1,
        };
    }
    let shard = batch.div_ceil(2 * workers);
    ShardPlan {
        workers,
        shard,
        shards: batch.div_ceil(shard),
    }
}

/// One forward pass of `model` over coded images in a session opened
/// from `pool`, returning the logits.
fn forward_shard(
    model: &SnapPixAr,
    pool: &mut SessionPool,
    coded: &Tensor,
) -> Result<Tensor, Error> {
    let mut sess = pool.inference(model.store());
    let logits = model
        .build_logits_from_coded(&mut sess, coded)
        .map(|var| sess.graph.value(var).clone());
    pool.reclaim(sess);
    Ok(logits?)
}

/// Bytes of weight memory actually resident across `pipelines`,
/// counting each shared backing buffer once no matter how many replicas
/// reference it.
///
/// Replicas stamped out by [`PipelineBuilder::build_replicas`] (or
/// loaded from one artifact) share storage, so n of them cost the same
/// as one; independently built pipelines each contribute their own
/// copy. This is the number `snappix-serve` surfaces in its
/// `ServerStats`.
pub fn resident_weight_bytes<'a, S, I>(pipelines: I) -> usize
where
    S: Sense + 'a,
    I: IntoIterator<Item = &'a Pipeline<S>>,
{
    snappix_nn::resident_weight_bytes(pipelines.into_iter().map(|p| p.model.store()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_ce::patterns;
    use snappix_models::VitConfig;
    use snappix_tensor::argmax_coords;

    fn model() -> SnapPixAr {
        let mask = patterns::long_exposure(4, (8, 8)).unwrap();
        SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask).unwrap()
    }

    fn clips(batch: usize) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        Tensor::rand_uniform(&mut rng, &[batch, 4, 16, 16], 0.0, 1.0)
    }

    #[test]
    fn batched_infer_matches_per_clip_inference() {
        let mut p = Pipeline::builder(model()).build().unwrap();
        let clips = clips(3);
        let batched = p.infer(&clips).unwrap();
        assert_eq!(batched.logits.shape(), &[3, 5]);
        assert_eq!(batched.len(), 3);
        assert!(!batched.is_empty());
        for b in 0..3 {
            let single = p.infer_clip(&clips.index_axis(0, b).unwrap()).unwrap();
            let row = batched.prediction(b).unwrap();
            assert_eq!(single.label, row.label);
            assert!(single.logits.approx_eq(&row.logits, 0.0), "clip {b}");
        }
    }

    #[test]
    fn repeated_infer_reuses_session_and_is_deterministic() {
        // Regression test for the old `SnapPixSystem::logits`, which
        // rebuilt the graph and session on every call: repeated calls on
        // the same pipeline must produce identical logits.
        let mut p = Pipeline::builder(model()).build().unwrap();
        let clips = clips(2);
        let first = p.infer(&clips).unwrap();
        for _ in 0..3 {
            let again = p.infer(&clips).unwrap();
            assert!(again.logits.approx_eq(&first.logits, 0.0));
            assert_eq!(again.labels, first.labels);
        }
    }

    #[test]
    fn hardware_backend_agrees_with_algorithmic_on_argmax() {
        let mut sw = Pipeline::builder(model()).build().unwrap();
        let mut hw = Pipeline::builder(model())
            .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
            .unwrap()
            .build()
            .unwrap();
        let clips = clips(2);
        let a = sw.infer(&clips).unwrap();
        let b = hw.infer(&clips).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(
            argmax_coords(&a.logits),
            argmax_coords(&b.logits),
            "12-bit noiseless ADC must not flip the decision"
        );
        assert!(hw.backend().stats().pixels_read > 0);
    }

    #[test]
    fn hardware_sensor_rejects_adc_depths_outside_one_to_24_bits() {
        use snappix_sensor::SensorError;
        for bits in [0, 25, 64] {
            let err = Pipeline::builder(model())
                .with_hardware_sensor(ReadoutConfig::noiseless(bits, 4.0));
            assert!(
                matches!(err, Err(Error::Sensor(SensorError::AdcBits { bits: b })) if b == bits),
                "{bits}-bit ADC must be rejected"
            );
        }
        for bits in [1, 24] {
            let mut p = Pipeline::builder(model())
                .with_hardware_sensor(ReadoutConfig::noiseless(bits, 4.0))
                .unwrap()
                .build()
                .unwrap();
            let logits = p.infer(&clips(1)).unwrap().logits;
            assert!(
                logits.as_slice().iter().all(|v| v.is_finite()),
                "{bits} bits"
            );
        }
    }

    #[test]
    fn builder_rejects_mask_mismatch_and_bad_shapes() {
        let other_mask = patterns::short_exposure(4, (8, 8), 2).unwrap();
        let err = Pipeline::builder(model())
            .with_backend(AlgorithmicEncoder::new(other_mask))
            .build();
        assert!(matches!(err, Err(Error::Pipeline { .. })));

        // A backend whose normalization contradicts the model's flag is
        // rejected too — it would silently rescale the model's inputs.
        let m = model();
        let backend = AlgorithmicEncoder::new(m.mask().clone()).with_normalization(false);
        let err = Pipeline::builder(m).with_backend(backend).build();
        assert!(matches!(err, Err(Error::Pipeline { .. })));

        let mut p = Pipeline::builder(model()).build().unwrap();
        assert!(p.infer(&Tensor::zeros(&[4, 16, 16])).is_err());
        assert!(p.infer_clip(&Tensor::zeros(&[3, 16, 16])).is_err());
        assert_eq!(p.num_classes(), 5);
        assert!(format!("{p:?}").contains("Pipeline"));
    }

    #[test]
    fn empty_batch_infers_to_empty_inference() {
        // Regression: the serve-layer batcher can race to a flush with
        // zero clips; `[0, t, h, w]` must mean "nothing to do", not a
        // shape error.
        let mut p = Pipeline::builder(model()).build().unwrap();
        let out = p.infer(&Tensor::zeros(&[0, 4, 16, 16])).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        assert_eq!(out.logits.shape(), &[0, 5]);
        assert_eq!(out.predictions().count(), 0);
        // Trailing extents of an empty batch are irrelevant: zero clips
        // of any geometry is still zero clips.
        assert!(p.infer(&Tensor::zeros(&[0, 9, 3, 3])).unwrap().is_empty());
        // A rank mismatch is still an error even at batch 0.
        assert!(p.infer(&Tensor::zeros(&[0, 16, 16])).is_err());
    }

    #[test]
    fn predictions_iterate_in_batch_order() {
        let mut p = Pipeline::builder(model()).build().unwrap();
        let out = p.infer(&clips(3)).unwrap();
        assert_eq!(out.predictions().len(), 3);
        for (i, pred) in out.predictions().enumerate() {
            let by_index = out.prediction(i).unwrap();
            assert_eq!(pred, by_index);
        }
        // `&Inference` and owned `Inference` iterate identically.
        let borrowed: Vec<Prediction> = (&out).into_iter().collect();
        let labels = out.labels.clone();
        let owned: Vec<Prediction> = out.into_iter().collect();
        assert_eq!(borrowed, owned);
        assert_eq!(
            owned.iter().map(|p| p.label).collect::<Vec<_>>(),
            labels,
            "iteration preserves batch order"
        );
    }

    #[test]
    fn replicas_are_independent_but_identical() {
        let replicas = Pipeline::builder(model()).build_replicas(2).unwrap();
        assert_eq!(replicas.len(), 2);
        let clips = clips(2);
        let mut outs = Vec::new();
        for mut p in replicas {
            outs.push(p.infer(&clips).unwrap());
        }
        assert!(outs[0].logits.approx_eq(&outs[1].logits, 0.0));
        assert_eq!(outs[0].labels, outs[1].labels);

        // Zero replicas is a valid (empty) request.
        assert!(Pipeline::builder(model())
            .build_replicas(0)
            .unwrap()
            .is_empty());
        // Replication still validates the recipe.
        let m = model();
        let bad = AlgorithmicEncoder::new(m.mask().clone()).with_normalization(false);
        assert!(Pipeline::builder(m)
            .with_backend(bad)
            .build_replicas(2)
            .is_err());
    }

    #[test]
    fn artifact_loaded_pipeline_matches_the_checkpoint() {
        use snappix_nn::write_artifact;
        let mut spx = std::env::temp_dir();
        spx.push(format!(
            "snappix_pipeline_artifact_{}.spx",
            std::process::id()
        ));

        // Perturb every parameter of a fresh model, so a builder that
        // skipped the load would answer with different logits.
        let mut trained = model();
        let store = trained.store_mut();
        for id in store.ids() {
            store.value_mut(id).map_inplace(|x| x * 0.5 + 0.01);
        }
        write_artifact(trained.store(), &spx).unwrap();

        let mut checkpoint = Pipeline::builder(trained).build().unwrap();
        let mut from_artifact = Pipeline::builder(model())
            .with_artifact(&spx)
            .unwrap()
            .build()
            .unwrap();

        let clips = clips(3);
        let a = checkpoint.infer(&clips).unwrap();
        let b = from_artifact.infer(&clips).unwrap();
        assert!(
            a.logits.approx_eq(&b.logits, 0.0),
            "artifact weights must be bit-for-bit equal to the checkpoint's"
        );
        assert_eq!(a.labels, b.labels);

        // A malformed artifact is a typed error through the builder.
        std::fs::write(&spx, b"garbage").unwrap();
        assert!(matches!(
            Pipeline::builder(model()).with_artifact(&spx),
            Err(Error::Nn(_))
        ));
        std::fs::remove_file(spx).ok();
    }

    #[test]
    fn replicas_share_one_weight_storage() {
        use std::sync::Arc;
        let solo = Pipeline::builder(model()).build().unwrap();
        let solo_bytes = solo.weight_bytes();
        assert!(solo_bytes > 0);

        let replicas = Pipeline::builder(model()).build_replicas(4).unwrap();
        // Every replica's every parameter points at the same buffer as
        // replica 0's.
        let first = replicas[0].model().store();
        for replica in &replicas[1..] {
            let store = replica.model().store();
            for (id_a, id_b) in first.ids().into_iter().zip(store.ids()) {
                assert!(Arc::ptr_eq(
                    first.value(id_a).shared_buffer().unwrap(),
                    store.value(id_b).shared_buffer().unwrap()
                ));
            }
        }
        // Four replicas resident ≈ one copy, not four.
        assert_eq!(resident_weight_bytes(&replicas), solo_bytes);
        assert_eq!(
            replicas.iter().map(Pipeline::weight_bytes).sum::<usize>(),
            4 * solo_bytes
        );
    }

    #[test]
    fn profile_accumulates_and_spans_nest_per_stage() {
        let tracer = Tracer::new();
        let mut p = Pipeline::builder(model())
            .with_tracer(tracer.clone())
            .build()
            .unwrap();
        assert!(p.tracer().is_enabled());
        assert!(p.profile().is_empty());

        let out = p.infer(&clips(3)).unwrap();
        assert_eq!(out.len(), 3);
        let profile = p.profile();
        assert_eq!(profile.batches, 1);
        assert_eq!(profile.clips, 3);
        for (name, stage) in [
            ("sense", &profile.sense),
            ("forward", &profile.forward),
            ("readout", &profile.readout),
        ] {
            assert_eq!(stage.calls, 1, "{name} ran once");
            assert!(stage.total >= stage.max, "{name} total >= max");
            assert!(stage.mean() <= stage.max, "{name} mean <= max");
        }

        // One span per stage, all on the background trace, all roots
        // (nothing was open above them).
        let snap = tracer.snapshot();
        let names: Vec<&str> = snap.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["sense", "forward", "readout"]);
        assert!(snap.records.iter().all(|r| r.trace_id == 0));
        // Under an open request span they parent to it instead.
        {
            let root = tracer.span_in(
                "request",
                snappix_trace::SpanCtx {
                    trace_id: tracer.new_trace_id(),
                    span_id: 0,
                },
            );
            let trace = root.trace_id();
            p.infer(&clips(2)).unwrap();
            let snap = tracer.snapshot();
            let stage_spans: Vec<_> = snap
                .records
                .iter()
                .filter(|r| r.trace_id == trace)
                .collect();
            assert_eq!(stage_spans.len(), 3);
            assert!(stage_spans.iter().all(|r| r.parent == root.ctx().span_id));
        }

        // take_profile drains.
        let taken = p.take_profile();
        assert_eq!(taken.batches, 2);
        assert!(p.profile().is_empty());
        assert!(format!("{taken}").contains("2 batches"));

        // Tracing does not perturb results: the same clips through an
        // untraced pipeline match bit for bit.
        let mut plain = Pipeline::builder(model()).build().unwrap();
        let traced = p.infer(&clips(3)).unwrap();
        let untraced = plain.infer(&clips(3)).unwrap();
        assert!(traced.logits.approx_eq(&untraced.logits, 0.0));
        assert_eq!(traced.labels, untraced.labels);
    }

    #[test]
    fn sharded_forward_records_one_stage_call_and_span_per_batch() {
        let tracer = Tracer::new();
        let mask = patterns::long_exposure(4, (8, 8)).unwrap();
        let model = SnapPixAr::new(VitConfig::snappix_s(32, 32, 5), mask).unwrap();
        let mut p = Pipeline::builder(model)
            .with_threads(2)
            .with_tracer(tracer.clone())
            .build()
            .unwrap();
        // Batch 8 at 32x32 and 2 threads: four 2-clip shards, two per
        // worker (16x16 batches this size run as one pass).
        let clips = {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(42);
            Tensor::rand_uniform(&mut rng, &[8, 4, 32, 32], 0.0, 1.0)
        };
        for _ in 0..2 {
            p.infer(&clips).unwrap();
        }
        let profile = p.profile();
        assert_eq!(profile.batches, 2);
        assert_eq!(profile.clips, 16);
        assert_eq!(profile.forward.calls, 2, "one forward record per batch");

        let snap = tracer.snapshot();
        let names: Vec<&str> = snap.records.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["sense", "forward", "readout", "sense", "forward", "readout"],
            "one span per stage per batch"
        );
        let caller = snap.records[0].lane;
        assert!(
            snap.records.iter().all(|r| r.lane == caller),
            "no spans from the shard helpers"
        );
    }

    #[test]
    fn shard_plan_spawns_helpers_only_for_work_that_pays_for_them() {
        let macs = |side| VitConfig::snappix_s(side, side, 10).macs_per_clip();
        let serial = |batch| ShardPlan {
            workers: 1,
            shard: batch,
            shards: 1,
        };
        parallel::with_threads(2, || {
            assert_eq!(shard_plan(8, macs(16)), serial(8), "16x16x8 is one pass");
            assert_eq!(shard_plan(1, macs(32)), serial(1), "one clip is one pass");
            assert_eq!(
                shard_plan(8, macs(32)),
                ShardPlan {
                    workers: 2,
                    shard: 2,
                    shards: 4,
                }
            );
        });
        parallel::with_threads(3, || {
            assert_eq!(
                shard_plan(8, macs(32)),
                ShardPlan {
                    workers: 3,
                    shard: 2,
                    shards: 4,
                }
            );
        });
        parallel::with_threads(1, || assert_eq!(shard_plan(8, macs(32)), serial(8)));
    }

    #[test]
    fn stage_mean_divides_past_u32_calls() {
        let calls = u64::from(u32::MAX) + 2;
        let stage = StageProfile {
            calls,
            total: Duration::from_secs(1000 * calls),
            max: Duration::from_secs(1000),
        };
        assert_eq!(stage.mean(), Duration::from_secs(1000));
        // Whole nanoseconds, truncated like `Duration` division.
        let small = StageProfile {
            calls: 3,
            total: Duration::from_nanos(10),
            max: Duration::from_nanos(5),
        };
        assert_eq!(small.mean(), Duration::from_nanos(3));
        assert_eq!(StageProfile::default().mean(), Duration::ZERO);
    }

    #[test]
    fn sense_exposes_the_backend_coded_image() {
        let mut p = Pipeline::builder(model()).build().unwrap();
        let coded = p.sense(&Tensor::full(&[4, 16, 16], 0.5)).unwrap();
        assert_eq!(coded.shape(), &[16, 16]);
        // Long exposure of constant 0.5, normalized -> 0.5.
        assert!(coded.approx_eq(&Tensor::full(&[16, 16], 0.5), 1e-6));
        assert!(p.backend().normalizes());
    }
}
