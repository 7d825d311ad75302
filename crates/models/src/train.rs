//! Training loops, evaluation and throughput measurement.

use crate::ar::ActionModel;
use crate::{ModelError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snappix_nn::{Adam, LrSchedule, Session};
use snappix_tensor::Tensor;
use snappix_video::Dataset;

/// Options shared by the action-recognition training loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Passes over the dataset.
    pub epochs: usize,
    /// Clips per gradient step.
    pub batch_size: usize,
    /// Peak Adam learning rate.
    pub lr: f32,
    /// Optional gradient-norm clip.
    pub clip_norm: Option<f32>,
    /// Enables warmup-cosine scheduling (the paper's ViT recipe shape).
    pub cosine_schedule: bool,
    /// Batch-order seed.
    pub seed: u64,
}

impl TrainOptions {
    /// A fast smoke configuration for tests and examples.
    pub fn quick() -> Self {
        TrainOptions {
            epochs: 2,
            batch_size: 8,
            lr: 2e-3,
            clip_norm: Some(5.0),
            cosine_schedule: false,
            seed: 11,
        }
    }

    /// The configuration the experiment harness uses (more epochs, cosine
    /// decay).
    pub fn experiment(epochs: usize) -> Self {
        TrainOptions {
            epochs,
            batch_size: 8,
            lr: 2e-3,
            clip_norm: Some(5.0),
            cosine_schedule: true,
            seed: 11,
        }
    }
}

/// What a training run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Cross-entropy loss after each gradient step.
    pub losses: Vec<f32>,
    /// Gradient steps taken.
    pub steps: usize,
}

impl TrainReport {
    /// Mean loss over the final quarter of training (a stable "final
    /// loss" estimate).
    pub fn final_loss(&self) -> f32 {
        if self.losses.is_empty() {
            return f32::NAN;
        }
        let tail = (self.losses.len() / 4).max(1);
        let slice = &self.losses[self.losses.len() - tail..];
        slice.iter().sum::<f32>() / slice.len() as f32
    }
}

/// Trains an action model with Adam + cross-entropy.
///
/// # Errors
///
/// Fails for an empty dataset, a zero batch size, or any graph error from
/// the model.
pub fn train_action_model(
    model: &mut dyn ActionModel,
    dataset: &Dataset,
    options: &TrainOptions,
) -> Result<TrainReport> {
    if dataset.is_empty() || options.batch_size == 0 || options.epochs == 0 {
        return Err(ModelError::Input {
            context: "training needs data, a batch size and at least one epoch".to_string(),
        });
    }
    let steps_per_epoch = dataset.len().div_ceil(options.batch_size);
    let total_steps = steps_per_epoch * options.epochs;
    let schedule = if options.cosine_schedule {
        Some(LrSchedule::WarmupCosine {
            base: options.lr,
            warmup_steps: (total_steps / 10).max(1),
            total_steps,
        })
    } else {
        None
    };
    let mut optimizer = Adam::new(options.lr);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut losses = Vec::with_capacity(total_steps);
    for _epoch in 0..options.epochs {
        let offset = rng.random_range(0..dataset.len());
        for step in 0..steps_per_epoch {
            let global_step = losses.len();
            if let Some(s) = &schedule {
                optimizer.set_learning_rate(s.at(global_step));
            }
            let batch = dataset.batch(offset + step * options.batch_size, options.batch_size);
            let (loss, mut grads) = {
                let mut sess = Session::new(model.store());
                let logits = model.build_logits(&mut sess, &batch.videos)?;
                let loss_var = sess.graph.cross_entropy_logits(logits, &batch.labels)?;
                let loss = sess
                    .graph
                    .value(loss_var)
                    .item()
                    .map_err(ModelError::from)?;
                let grads = sess.backward(loss_var)?;
                (loss, grads)
            };
            if let Some(max_norm) = options.clip_norm {
                grads.clip_global_norm(max_norm);
            }
            optimizer.step(model.store_mut(), &grads)?;
            losses.push(loss);
        }
    }
    Ok(TrainReport {
        steps: losses.len(),
        losses,
    })
}

/// Clip-1 crop-1 accuracy (%) of `model` over the whole `dataset`,
/// evaluated with one inference session per shard across the shared
/// worker pool ([`snappix_tensor::parallel`]).
///
/// The worker count follows `SNAPPIX_THREADS` / the scoped
/// [`with_threads`](snappix_tensor::parallel::with_threads) override —
/// an 8-core box uses 8 shards (the historical implementation capped
/// itself at 4), and `SNAPPIX_THREADS=1` makes the sweep
/// deterministic-serial.
///
/// # Errors
///
/// Fails for an empty dataset or any graph error from the model.
pub fn evaluate_accuracy(model: &dyn ActionModel, dataset: &Dataset) -> Result<f32> {
    if dataset.is_empty() {
        return Err(ModelError::Input {
            context: "evaluation needs a non-empty dataset".to_string(),
        });
    }
    let shards = snappix_tensor::parallel::par_ranges(dataset.len(), |range| -> Result<usize> {
        let mut correct = 0usize;
        const EVAL_BATCH: usize = 8;
        let mut i = range.start;
        while i < range.end {
            let size = EVAL_BATCH.min(range.end - i);
            let mut videos = Vec::with_capacity(size);
            let mut labels = Vec::with_capacity(size);
            for k in 0..size {
                let s = dataset.sample(i + k);
                videos.push(s.video.into_frames());
                labels.push(s.label);
            }
            let refs: Vec<&Tensor> = videos.iter().collect();
            let batch = Tensor::stack(&refs, 0).map_err(ModelError::from)?;
            let mut sess = Session::inference(model.store());
            let logits = model.build_logits(&mut sess, &batch)?;
            let pred = sess
                .graph
                .value(logits)
                .argmax_axis(1)
                .map_err(ModelError::from)?;
            correct += pred.iter().zip(&labels).filter(|(p, l)| *p == *l).count();
            i += size;
        }
        Ok(correct)
    });
    let mut correct = 0usize;
    for shard in shards {
        correct += shard?;
    }
    Ok(100.0 * correct as f32 / dataset.len() as f32)
}

/// Measures inference throughput (clips/second) of `model` on a fixed
/// clip batch, mirroring the paper's "inference/sec" column of Table I.
///
/// # Errors
///
/// Fails when the batch does not match the model.
pub fn measure_inference_rate(
    model: &dyn ActionModel,
    videos: &Tensor,
    iterations: usize,
) -> Result<f64> {
    if iterations == 0 {
        return Err(ModelError::Input {
            context: "need at least one iteration".to_string(),
        });
    }
    let batch = videos.shape()[0];
    // A pooled session mirrors how the umbrella `Pipeline` serves
    // inference: graph and binding allocations are reused across calls.
    let mut pool = snappix_nn::SessionPool::new();
    // Warm-up pass (graph allocation paths, caches).
    {
        let mut sess = pool.inference(model.store());
        model.build_logits(&mut sess, videos)?;
        pool.reclaim(sess);
    }
    let start = std::time::Instant::now();
    for _ in 0..iterations {
        let mut sess = pool.inference(model.store());
        model.build_logits(&mut sess, videos)?;
        pool.reclaim(sess);
    }
    let elapsed = start.elapsed().as_secs_f64();
    Ok(batch as f64 * iterations as f64 / elapsed.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SnapPixAr, VitConfig};
    use snappix_ce::patterns;
    use snappix_video::{ssv2_like, ucf101_like};

    fn small_model(classes: usize) -> SnapPixAr {
        let mask = patterns::sparse_random(8, (8, 8), &mut StdRng::seed_from_u64(1)).unwrap();
        SnapPixAr::new(VitConfig::snappix_s(16, 16, classes), mask).unwrap()
    }

    #[test]
    fn training_reduces_loss() {
        let data = Dataset::new(ucf101_like(8, 16, 16), 32);
        let mut model = small_model(8);
        let report = train_action_model(
            &mut model,
            &data,
            &TrainOptions {
                epochs: 6,
                batch_size: 8,
                lr: 2e-3,
                clip_norm: Some(5.0),
                cosine_schedule: true,
                seed: 3,
            },
        )
        .unwrap();
        let early: f32 = report.losses[..4].iter().sum::<f32>() / 4.0;
        assert!(
            report.final_loss() < early,
            "loss should fall: {} -> {}",
            early,
            report.final_loss()
        );
        assert_eq!(report.steps, 6 * 4);
    }

    #[test]
    fn trained_model_beats_chance() {
        let data = Dataset::new(ucf101_like(8, 24, 24), 120);
        let (train, test) = data.split(0.8);
        let mut model = {
            let mask = patterns::sparse_random(8, (8, 8), &mut StdRng::seed_from_u64(1)).unwrap();
            SnapPixAr::new(VitConfig::snappix_s(24, 24, 8), mask).unwrap()
        };
        train_action_model(&mut model, &train, &TrainOptions::experiment(12)).unwrap();
        let acc = evaluate_accuracy(&model, &test).unwrap();
        // Chance is 12.5% on 8 classes.
        assert!(acc > 25.0, "trained accuracy {acc}% should beat chance");
    }

    /// Regression test for the hardcoded `.min(4)` thread cap: the sweep
    /// must produce the same accuracy at any worker count (1, 2, more
    /// than the dataset), since shard boundaries only regroup batches and
    /// inference is batch-grouping-invariant.
    #[test]
    fn evaluation_accuracy_is_thread_count_invariant() {
        use snappix_tensor::parallel::with_threads;
        let model = small_model(8);
        let data = Dataset::new(ssv2_like(8, 16, 16), 13);
        let reference = with_threads(1, || evaluate_accuracy(&model, &data).unwrap());
        for threads in [2usize, 5, 50] {
            let acc = with_threads(threads, || evaluate_accuracy(&model, &data).unwrap());
            assert_eq!(acc, reference, "{threads} threads");
        }
    }

    #[test]
    fn evaluation_and_training_validate_inputs() {
        let mut model = small_model(8);
        let empty = Dataset::new(ssv2_like(8, 16, 16), 0);
        assert!(train_action_model(&mut model, &empty, &TrainOptions::quick()).is_err());
        assert!(evaluate_accuracy(&model, &empty).is_err());
        let data = Dataset::new(ssv2_like(8, 16, 16), 4);
        let mut opts = TrainOptions::quick();
        opts.batch_size = 0;
        assert!(train_action_model(&mut model, &data, &opts).is_err());
    }

    #[test]
    fn inference_rate_is_positive_and_scales() {
        let model = small_model(8);
        let data = Dataset::new(ssv2_like(8, 16, 16), 4);
        let batch = data.batch(0, 4);
        let rate = measure_inference_rate(&model, &batch.videos, 2).unwrap();
        assert!(rate > 0.0);
        assert!(measure_inference_rate(&model, &batch.videos, 0).is_err());
    }

    #[test]
    fn final_loss_of_empty_report_is_nan() {
        let r = TrainReport {
            losses: vec![],
            steps: 0,
        };
        assert!(r.final_loss().is_nan());
    }

    #[test]
    fn snappix_is_faster_than_video_vit_at_matched_width() {
        // Table I's throughput relationship: coded-image input (16 tokens)
        // beats 16-frame video input (64 tokens) at the same width.
        use crate::baselines::VideoVit;
        let snappix = small_model(8);
        let video = VideoVit::new(8, 16, 16, 8).unwrap();
        let data = Dataset::new(ssv2_like(8, 16, 16), 4);
        let batch = data.batch(0, 4);
        let r_snap = measure_inference_rate(&snappix, &batch.videos, 3).unwrap();
        let r_video = measure_inference_rate(&video, &batch.videos, 3).unwrap();
        assert!(
            r_snap > r_video,
            "SnapPix {r_snap:.1}/s should beat VideoViT {r_video:.1}/s"
        );
    }
}
