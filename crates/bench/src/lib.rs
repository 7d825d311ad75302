//! Experiment harness for the SnapPix reproduction.
//!
//! One function per paper artifact: [`run_fig6`] (task-agnostic pattern
//! comparison), [`run_table1`] (system comparison), [`run_energy`]
//! (Sec. VI-D), [`run_ablation`] (Sec. VI-E) and [`run_area`] (Sec. V).
//! The `snappix-bench` binaries are thin wrappers that call these and
//! print the measured rows with the paper's values for comparison.
//!
//! All experiments run at the reproduction scale of README.md's
//! "Reproduction scale" section: procedural datasets, `T = 16` exposure
//! slots, 32x32 frames, 8x8 tiles, and CPU-sized ViTs. Absolute numbers
//! therefore differ from the paper; the *orderings and ratios* are the
//! reproduction targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;
use snappix_energy::{EdgeGpuScenario, GpuModelClass, JetsonXavierModel};

/// Exposure slots used by every experiment (the paper's `T`).
pub const SLOTS: usize = 16;
/// Frame side in pixels.
pub const FRAME: usize = 32;
/// CE tile / ViT patch side.
pub const TILE: usize = 8;

/// Scale knobs for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Clips in each dataset (train + test).
    pub dataset_size: usize,
    /// Training epochs for action recognition.
    pub ar_epochs: usize,
    /// Gradient steps for reconstruction training.
    pub rec_steps: usize,
    /// Gradient steps for decorrelation mask learning.
    pub mask_steps: usize,
    /// Gradient steps for MAE pre-training.
    pub pretrain_steps: usize,
}

impl Scale {
    /// Scale used by CI-style smoke runs.
    pub fn smoke() -> Self {
        Scale {
            dataset_size: 60,
            ar_epochs: 4,
            rec_steps: 60,
            mask_steps: 30,
            pretrain_steps: 30,
        }
    }

    /// Scale of the full experiment runs (a few minutes per table on a
    /// laptop CPU).
    pub fn experiment() -> Self {
        Scale {
            dataset_size: 300,
            ar_epochs: 12,
            rec_steps: 400,
            mask_steps: 100,
            pretrain_steps: 150,
        }
    }

    /// Picks the scale from the `SNAPPIX_SCALE` environment variable:
    /// `smoke` or `experiment`, and `experiment` when it is unset.
    ///
    /// # Errors
    ///
    /// Any other value, so a typo such as `SMOKE` cannot silently start
    /// the several-minute experiment run.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("SNAPPIX_SCALE");
        Scale::from_value(value.as_deref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`Scale::from_env`] on a given value (`None` when unset).
    fn from_value(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("experiment") => Ok(Scale::experiment()),
            Some("smoke") => Ok(Scale::smoke()),
            Some(other) => Err(format!(
                "unknown SNAPPIX_SCALE value '{other}': use `smoke` or `experiment`"
            )),
        }
    }
}

/// Learns the decorrelated mask on `data` at scale `s`.
///
/// # Errors
///
/// Propagates trainer errors (geometry, empty dataset).
pub fn learn_decorrelated_mask(
    data: &Dataset,
    s: &Scale,
) -> Result<ExposureMask, Box<dyn std::error::Error>> {
    let mut trainer = DecorrelationTrainer::new(DecorrelationConfig {
        slots: SLOTS,
        tile: (TILE, TILE),
        batch_size: 8,
        lr: 0.1,
        ..DecorrelationConfig::default()
    })?;
    Ok(trainer.train(data, s.mask_steps)?.mask)
}

// ---------------------------------------------------------------------
// Fig. 6: task-agnostic CE pattern comparison
// ---------------------------------------------------------------------

/// One point of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Pattern name.
    pub pattern: String,
    /// Mean |off-diagonal Pearson| of coded tiles (legend numbers).
    pub correlation: f32,
    /// Action-recognition accuracy (%, y-axis).
    pub ar_accuracy: f32,
    /// Reconstruction PSNR (dB, x-axis).
    pub rec_psnr: f32,
    /// The paper's reported correlation for this pattern, if any.
    pub paper_correlation: Option<f32>,
}

/// Regenerates Fig. 6: trains the same CE-optimized ViT-S from scratch on
/// AR and REC for each task-agnostic pattern.
///
/// # Errors
///
/// Propagates training errors.
pub fn run_fig6(s: &Scale) -> Result<Vec<Fig6Row>, Box<dyn std::error::Error>> {
    let data = Dataset::new(ssv2_like(SLOTS, FRAME, FRAME), s.dataset_size);
    let (train, test) = data.split(0.8);
    let mut rng = StdRng::seed_from_u64(0xF16);

    let mut masks: Vec<(String, ExposureMask, Option<f32>)> = vec![(
        "decorrelated".into(),
        learn_decorrelated_mask(&train, s)?,
        Some(0.16),
    )];
    masks.push((
        "sparse-random".into(),
        patterns::sparse_random(SLOTS, (TILE, TILE), &mut rng)?,
        Some(0.23),
    ));
    masks.push((
        "random".into(),
        patterns::random(SLOTS, (TILE, TILE), 0.5, &mut rng)?,
        Some(0.29),
    ));
    masks.push((
        "long-exposure".into(),
        patterns::long_exposure(SLOTS, (TILE, TILE))?,
        Some(0.38),
    ));
    masks.push((
        "short-exposure".into(),
        patterns::short_exposure(SLOTS, (TILE, TILE), 8)?,
        Some(0.48),
    ));

    let mut rows = Vec::new();
    for (name, mask, paper_rho) in masks {
        let correlation = measure_pattern_correlation(&train, &mask, 24.min(train.len()))?;

        // AR from scratch.
        let mut ar = SnapPixAr::new(
            VitConfig::snappix_s(FRAME, FRAME, train.num_classes()),
            mask.clone(),
        )?;
        train_action_model(&mut ar, &train, &TrainOptions::experiment(s.ar_epochs))?;
        let ar_accuracy = evaluate_accuracy(&ar, &test)?;

        // REC from scratch.
        let mut rec = SnapPixRec::new(
            VitConfig::snappix_s(FRAME, FRAME, train.num_classes()),
            mask.clone(),
            SLOTS,
            3e-3,
        )?;
        rec.train(&train, s.rec_steps, 6)?;
        let rec_psnr = rec.evaluate_psnr(&test, test.len())?;

        rows.push(Fig6Row {
            pattern: name,
            correlation,
            ar_accuracy,
            rec_psnr,
            paper_correlation: paper_rho,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Table I: comparison with previous systems
// ---------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name.
    pub model: String,
    /// Input type ("CE" or "Video"), as in the paper's Input column.
    pub input: &'static str,
    /// Accuracy per dataset (%), ordered ucf101 / ssv2 / k400.
    pub accuracy: [f32; 3],
    /// Inference throughput (clips/sec) on this machine.
    pub inferences_per_sec: f64,
}

/// Regenerates Table I: SnapPix-S/B vs SVC2D, C3D and the video
/// transformer across the three dataset stand-ins.
///
/// # Errors
///
/// Propagates training errors.
pub fn run_table1(s: &Scale) -> Result<Vec<Table1Row>, Box<dyn std::error::Error>> {
    let configs = [
        ucf101_like(SLOTS, FRAME, FRAME),
        ssv2_like(SLOTS, FRAME, FRAME),
        k400_like(SLOTS, FRAME, FRAME),
    ];
    // A shared decorrelated mask trained on the "pre-training" set, as in
    // the paper (trained once, reused everywhere).
    let pretrain_data = Dataset::new(ssv2_like(SLOTS, FRAME, FRAME), s.dataset_size);
    let mask = learn_decorrelated_mask(&pretrain_data, s)?;

    // Throughput is measured on a fixed batch.
    let rate_batch = pretrain_data.batch(0, 8);

    type Builder = Box<dyn Fn(usize) -> Result<Box<dyn ActionModel>, Box<dyn std::error::Error>>>;
    let builders: Vec<(String, &'static str, Builder)> = vec![
        (
            "SnapPix-S".into(),
            "CE",
            Box::new({
                let mask = mask.clone();
                move |classes| {
                    Ok(Box::new(SnapPixAr::new(
                        VitConfig::snappix_s(FRAME, FRAME, classes),
                        mask.clone(),
                    )?))
                }
            }),
        ),
        (
            "SnapPix-B".into(),
            "CE",
            Box::new({
                let mask = mask.clone();
                move |classes| {
                    Ok(Box::new(SnapPixAr::new(
                        VitConfig::snappix_b(FRAME, FRAME, classes),
                        mask.clone(),
                    )?))
                }
            }),
        ),
        (
            "SVC2D".into(),
            "CE",
            Box::new(|classes| Ok(Box::new(Svc2d::new(SLOTS, FRAME, FRAME, TILE, classes)?))),
        ),
        (
            "C3D".into(),
            "Video",
            Box::new(|classes| Ok(Box::new(C3d::new(SLOTS, FRAME, FRAME, classes)?))),
        ),
        (
            "VideoMAEv2-ST-like".into(),
            "Video",
            Box::new(|classes| Ok(Box::new(VideoVit::new(SLOTS, FRAME, FRAME, classes)?))),
        ),
    ];

    let mut rows: Vec<Table1Row> = Vec::new();
    for (name, input, build) in &builders {
        let mut accuracy = [0.0f32; 3];
        let mut rate = 0.0f64;
        for (d, config) in configs.iter().enumerate() {
            let data = Dataset::new(config.clone(), s.dataset_size);
            let (train, test) = data.split(0.8);
            let mut model = build(train.num_classes())?;
            train_action_model(
                model.as_mut(),
                &train,
                &TrainOptions::experiment(s.ar_epochs),
            )?;
            accuracy[d] = evaluate_accuracy(model.as_ref(), &test)?;
            if d == 0 {
                rate = measure_inference_rate(model.as_ref(), &rate_batch.videos, 3)?;
            }
        }
        rows.push(Table1Row {
            model: name.clone(),
            input,
            accuracy,
            inferences_per_sec: rate,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Sec. VI-D: energy analysis
// ---------------------------------------------------------------------

/// The energy results of Sec. VI-D.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// ADC/MIPI + wireless reduction factor (paper: 16x).
    pub readout_wireless_reduction: f64,
    /// Short-range (passive WiFi) edge energy saving (paper: 7.6x).
    pub short_range_saving: f64,
    /// Long-range (LoRa) edge energy saving (paper: 15.4x).
    pub long_range_saving: f64,
    /// Edge-GPU saving vs VideoMAEv2-ST (paper: 1.4x).
    pub gpu_saving_vs_videomae: f64,
    /// Edge-GPU saving vs C3D (paper: 4.5x).
    pub gpu_saving_vs_c3d: f64,
    /// Accuracy gap of SnapPix-B over the downsample baseline (%; paper:
    /// 9.83 / 6.24 / 16.45 on UCF/SSV2/K400) at reproduction scale, on
    /// the SSV2 stand-in.
    pub downsample_accuracy_gap: f32,
}

/// Regenerates the Sec. VI-D analysis, including the downsample-baseline
/// accuracy comparison.
///
/// # Errors
///
/// Propagates training errors from the accuracy comparison.
pub fn run_energy(s: &Scale) -> Result<EnergyReport, Box<dyn std::error::Error>> {
    let model = EnergyModel::paper();
    let scenario = |wireless| Scenario {
        frame_pixels: 112 * 112,
        slots: SLOTS,
        wireless,
    };
    let gpu = EdgeGpuScenario {
        sensing: scenario(Wireless::PassiveWifi),
        gpu: JetsonXavierModel::paper(),
    };

    // Accuracy gap: SnapPix-B vs downsample(4x4)+video transformer at the
    // same 16x compression rate.
    let data = Dataset::new(ssv2_like(SLOTS, FRAME, FRAME), s.dataset_size);
    let (train, test) = data.split(0.8);
    let mask = learn_decorrelated_mask(&train, s)?;
    let mut snappix_b = SnapPixAr::new(
        VitConfig::snappix_b(FRAME, FRAME, train.num_classes()),
        mask,
    )?;
    train_action_model(
        &mut snappix_b,
        &train,
        &TrainOptions::experiment(s.ar_epochs),
    )?;
    let acc_snappix = evaluate_accuracy(&snappix_b, &test)?;
    let mut down = DownsampleVideoVit::new(SLOTS, FRAME, FRAME, 4, train.num_classes())?;
    train_action_model(&mut down, &train, &TrainOptions::experiment(s.ar_epochs))?;
    let acc_down = evaluate_accuracy(&down, &test)?;

    Ok(EnergyReport {
        readout_wireless_reduction: model
            .readout_and_wireless_reduction(&scenario(Wireless::PassiveWifi)),
        short_range_saving: model.edge_energy_saving(&scenario(Wireless::PassiveWifi)),
        long_range_saving: model.edge_energy_saving(&scenario(Wireless::LoraBackscatter)),
        gpu_saving_vs_videomae: gpu.saving(
            &model,
            GpuModelClass::SnapPixS,
            GpuModelClass::VideoMaeSt,
        ),
        gpu_saving_vs_c3d: gpu.saving(&model, GpuModelClass::SnapPixS, GpuModelClass::C3d),
        downsample_accuracy_gap: acc_snappix - acc_down,
    })
}

// ---------------------------------------------------------------------
// Sec. VI-E: ablation study
// ---------------------------------------------------------------------

/// One ablation configuration's result.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration name.
    pub variant: String,
    /// AR accuracy (%) on the SSV2 stand-in.
    pub accuracy: f32,
    /// The paper's reported cumulative accuracy delta vs the full system,
    /// if any.
    pub paper_delta: Option<f32>,
}

/// Regenerates the Sec. VI-E ablation: full system, no pre-training,
/// random pattern, and global (non-tile-repetitive) pattern, all with
/// SnapPix-S on the SSV2 stand-in.
///
/// # Errors
///
/// Propagates training errors.
pub fn run_ablation(s: &Scale) -> Result<Vec<AblationRow>, Box<dyn std::error::Error>> {
    let data = Dataset::new(ssv2_like(SLOTS, FRAME, FRAME), s.dataset_size);
    let (train, test) = data.split(0.8);
    let classes = train.num_classes();
    let mask = learn_decorrelated_mask(&train, s)?;
    let mut rng = StdRng::seed_from_u64(0xAB1);

    let opts = TrainOptions::experiment(s.ar_epochs);

    // Full system: MAE pre-training + decorrelated tile-repetitive mask.
    let full_acc = {
        let cfg = MaeConfig::for_encoder(VitConfig::snappix_s(FRAME, FRAME, classes), SLOTS);
        let mut mae = MaePretrainer::new(cfg, mask.clone(), 3e-3)?;
        mae.train(&train, s.pretrain_steps, 6)?;
        let mut ar = SnapPixAr::new(VitConfig::snappix_s(FRAME, FRAME, classes), mask.clone())?;
        mae.transfer_encoder(ar.store_mut());
        train_action_model(&mut ar, &train, &opts)?;
        evaluate_accuracy(&ar, &test)?
    };

    // (1) Remove pre-training.
    let no_pretrain_acc = {
        let mut ar = SnapPixAr::new(VitConfig::snappix_s(FRAME, FRAME, classes), mask.clone())?;
        train_action_model(&mut ar, &train, &opts)?;
        evaluate_accuracy(&ar, &test)?
    };

    // (2) Replace the decorrelated pattern with a random one (no
    // pre-training; the paper stacks ablations cumulatively).
    let random_acc = {
        let random = patterns::random(SLOTS, (TILE, TILE), 0.5, &mut rng)?;
        let mut ar = SnapPixAr::new(VitConfig::snappix_s(FRAME, FRAME, classes), random)?;
        train_action_model(&mut ar, &train, &opts)?;
        evaluate_accuracy(&ar, &test)?
    };

    // (3) Replace tile-repetitive with a global pattern: every pixel of
    // the frame draws its own exposure schedule, so patches no longer
    // share a layout the patch-wise MLPs can learn.
    let global_acc = {
        let global = patterns::random(SLOTS, (FRAME, FRAME), 0.5, &mut rng)?;
        let mut ar = SnapPixAr::with_unconstrained_mask(
            VitConfig::snappix_s(FRAME, FRAME, classes),
            global,
        )?;
        train_action_model(&mut ar, &train, &opts)?;
        evaluate_accuracy(&ar, &test)?
    };

    Ok(vec![
        AblationRow {
            variant: "full (pretrain + decorrelated + tile-repetitive)".into(),
            accuracy: full_acc,
            paper_delta: None,
        },
        AblationRow {
            variant: "- pretraining".into(),
            accuracy: no_pretrain_acc,
            paper_delta: Some(-11.39),
        },
        AblationRow {
            variant: "- decorrelated pattern (random)".into(),
            accuracy: random_acc,
            paper_delta: Some(-11.39 - 3.43),
        },
        AblationRow {
            variant: "- tile repetition (global pattern)".into(),
            accuracy: global_acc,
            paper_delta: Some(-11.39 - 3.43 - 23.74),
        },
    ])
}

// ---------------------------------------------------------------------
// Sec. V: area scaling
// ---------------------------------------------------------------------

/// Regenerates the Sec. V area comparison rows.
pub fn run_area() -> Vec<snappix_sensor::area::AreaRow> {
    snappix_sensor::area::area_table(&[2, 4, 6, 8, 10, 12, 14, 16])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_is_smaller_than_experiment_scale() {
        let smoke = Scale::smoke();
        let full = Scale::experiment();
        assert!(smoke.dataset_size < full.dataset_size);
        assert!(smoke.ar_epochs < full.ar_epochs);
    }

    #[test]
    fn scale_values_map_to_scales_and_typos_are_rejected() {
        assert_eq!(Scale::from_value(None), Ok(Scale::experiment()));
        assert_eq!(
            Scale::from_value(Some("experiment")),
            Ok(Scale::experiment())
        );
        assert_eq!(Scale::from_value(Some("smoke")), Ok(Scale::smoke()));
        for typo in ["SMOKE", "smok", "", " smoke", "bogus"] {
            let err = Scale::from_value(Some(typo)).expect_err(typo);
            assert!(
                err.contains("`smoke`") && err.contains("`experiment`"),
                "{err}"
            );
        }
    }

    #[test]
    fn area_rows_cover_paper_anchors() {
        let rows = run_area();
        let n8 = rows.iter().find(|r| r.tile == 8).expect("N=8 present");
        assert!((n8.broadcast_wire_side_um - 2.24).abs() < 1e-9);
        let n14 = rows.iter().find(|r| r.tile == 14).expect("N=14 present");
        assert!(n14.broadcast_exceeds_aps);
    }

    #[test]
    fn energy_report_reproduces_paper_ratios() {
        // The analytic parts need no heavy training; use a tiny scale and
        // skip asserting the (stochastic) accuracy-gap sign here.
        let report = run_energy(&Scale {
            dataset_size: 24,
            ar_epochs: 1,
            rec_steps: 1,
            mask_steps: 5,
            pretrain_steps: 1,
        })
        .expect("energy report");
        assert!((report.readout_wireless_reduction - 16.0).abs() < 1e-9);
        assert!((report.short_range_saving - 7.6).abs() < 0.2);
        assert!(report.long_range_saving > 14.0);
        assert!((report.gpu_saving_vs_videomae - 1.4).abs() < 0.1);
        assert!((report.gpu_saving_vs_c3d - 4.5).abs() < 0.3);
    }
}
