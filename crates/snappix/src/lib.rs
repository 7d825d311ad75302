//! SnapPix: efficient-coding-inspired in-sensor compression for edge
//! vision — a from-scratch Rust reproduction of the DAC 2025 paper.
//!
//! SnapPix reduces edge sensing energy by compressing video *inside the
//! image sensor* with coded exposure (CE): each pixel is selectively
//! exposed across `T` time slots and the exposures integrate into a single
//! coded image, cutting read-out and transmission energy by `T`x. The
//! exposure pattern is learned task-agnostically by *decorrelating* coded
//! pixels (the efficient-coding principle of the retina), and the
//! downstream vision model is a ViT co-designed with the tile-repetitive
//! pattern.
//!
//! This crate is the public face of the workspace. Its centerpiece is
//! [`Pipeline`], a throughput-first batched inference engine built via
//! [`PipelineBuilder`]: it owns a persistent session (graph allocations
//! are reused across calls), accepts `[batch, t, h, w]` clip batches, and
//! is generic over the [`Sense`](snappix_ce::Sense) backend so the
//! training-time algorithmic encoder
//! ([`AlgorithmicEncoder`](snappix_ce::AlgorithmicEncoder)) and the
//! deployment-time hardware simulation
//! ([`HardwareSensor`](snappix_sensor::HardwareSensor)) run through
//! identical code. [`evaluate_deployment`] runs a dataset through the
//! hardware path and prices it with the paper's energy model, and every
//! failure across the stack surfaces as the unified [`Error`].
//!
//! One layer above this crate, `snappix-serve` turns a single
//! [`PipelineBuilder`] recipe into a multi-client service: worker
//! threads each run a pipeline replica (stamped out via
//! [`PipelineBuilder::build_replicas`]), a dynamic batcher coalesces
//! concurrent requests into one batched [`Pipeline::infer`] call, and a
//! bounded admission queue sheds overload explicitly. Above *that*,
//! `snappix-stream` serves continuous per-camera frame streams:
//! sliding-window assembly, temporal smoothing, label-change events,
//! and per-stream overload policies over a shared server. Both layers'
//! failures unify into [`Error`] through its boxed `Serve` and `Stream`
//! variants.
//!
//! Hot kernels across the workspace (matmul, convolutions, Pearson
//! statistics, the sensor capture simulation) fan out across the shared
//! data-parallel layer in [`snappix_tensor::parallel`]: worker count from
//! `SNAPPIX_THREADS` or the machine's available parallelism, overridable
//! per pipeline with [`PipelineBuilder::with_threads`]. Results are
//! bit-for-bit identical at every thread count.
//!
//! # Quickstart
//!
//! ```no_run
//! use snappix::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Data: a procedural stand-in for SSV2 (see the snappix-video crate docs).
//! let data = Dataset::new(ssv2_like(16, 32, 32), 200);
//! let (train, test) = data.split(0.8);
//!
//! // 2. Learn the exposure pattern by decorrelation (task-agnostic).
//! let mut trainer = DecorrelationTrainer::new(DecorrelationConfig::default())?;
//! let learned = trainer.train(&train, 30)?;
//!
//! // 3. Train the co-designed ViT on coded images.
//! let mut model = SnapPixAr::new(VitConfig::snappix_s(32, 32, 10), learned.mask.clone())?;
//! train_action_model(&mut model, &train, &TrainOptions::experiment(10))?;
//!
//! // 4. Deploy: a batched engine over the simulated sensor hardware.
//! let mut pipeline = Pipeline::builder(model)
//!     .with_hardware_sensor(ReadoutConfig::default())?
//!     .build()?;
//!
//! // Batched inference: one forward pass per chunk of 8 clips.
//! for start in (0..test.len()).step_by(8) {
//!     let batch = test.batch(start, 8.min(test.len() - start));
//!     let out = pipeline.infer(&batch.videos)?;
//!     println!("predicted {:?}, truth {:?}", out.labels, batch.labels);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod pipeline;
mod report;

pub use error::Error;
pub use pipeline::{
    resident_weight_bytes, Inference, Pipeline, PipelineBuilder, PipelineProfile, Prediction,
    Predictions, StageProfile,
};
pub use report::{evaluate_deployment, DeploymentReport};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::{
        evaluate_deployment, resident_weight_bytes, DeploymentReport, Error, Inference, Pipeline,
        PipelineBuilder, PipelineProfile, Prediction, StageProfile,
    };
    pub use snappix_ce::{
        encode, encode_batch, measure_pattern_correlation, normalize_coded, patterns,
        AlgorithmicEncoder, DecorrelationConfig, DecorrelationTrainer, ExposureMask, PatternKind,
        Sense,
    };
    pub use snappix_energy::{EnergyModel, Scenario, Wireless};
    pub use snappix_models::{
        evaluate_accuracy, measure_inference_rate, train_action_model, ActionModel, C3d,
        DownsampleVideoVit, MaeConfig, MaePretrainer, SnapPixAr, SnapPixRec, Svc2d, TrainOptions,
        VideoVit, VitConfig,
    };
    pub use snappix_nn::{convert_params_to_artifact, write_artifact, ArtifactReader};
    pub use snappix_sensor::{CeSensor, HardwareSensor, Readout, ReadoutConfig};
    pub use snappix_tensor::parallel;
    pub use snappix_tensor::Tensor;
    pub use snappix_trace::{SpanCtx, SpanRecord, TraceSnapshot, Tracer};
    pub use snappix_video::{k400_like, psnr, ssv2_like, ucf101_like, ActionClass, Dataset, Video};
}
