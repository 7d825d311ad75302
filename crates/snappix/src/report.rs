//! Deployment evaluation: accuracy, protocol activity and energy of a
//! hardware-backed [`Pipeline`](crate::Pipeline) over a dataset, in one
//! report.

use crate::{Error, Pipeline};
use snappix_energy::{EnergyModel, Scenario, Wireless};
use snappix_sensor::HardwareSensor;
use snappix_video::Dataset;

/// Result of evaluating a deployed pipeline over a dataset through the
/// full hardware simulation path.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Clips evaluated.
    pub clips: usize,
    /// Correct classifications.
    pub correct: usize,
    /// Pattern-clock cycles per capture (constant for a fixed geometry).
    pub pattern_clock_cycles_per_capture: u64,
    /// Pixels read out per capture.
    pub pixels_read_per_capture: u64,
    /// Edge energy per capture window in microjoules (SnapPix pipeline).
    pub energy_uj_per_capture: f64,
    /// Edge energy a conventional camera would spend per window, µJ.
    pub conventional_energy_uj_per_capture: f64,
}

impl DeploymentReport {
    /// Classification accuracy in percent.
    pub fn accuracy(&self) -> f32 {
        if self.clips == 0 {
            return f32::NAN;
        }
        100.0 * self.correct as f32 / self.clips as f32
    }

    /// Edge energy saving factor versus conventional capture.
    pub fn energy_saving(&self) -> f64 {
        self.conventional_energy_uj_per_capture / self.energy_uj_per_capture
    }

    /// Energy per *correct* classification in microjoules — the figure of
    /// merit for an accuracy/energy co-design.
    pub fn energy_uj_per_correct(&self) -> f64 {
        if self.correct == 0 {
            return f64::INFINITY;
        }
        self.energy_uj_per_capture * self.clips as f64 / self.correct as f64
    }
}

/// Clips per batched forward pass in [`evaluate_deployment`].
const CHUNK: usize = 8;

/// Runs every clip of `dataset` through the hardware path of `pipeline`
/// and prices each capture window with the paper's component energy
/// model ([`EnergyModel::paper`]) over `wireless`.
///
/// Clips go through [`Pipeline::infer`] in chunks of 8, the last chunk
/// taking the remainder.
///
/// # Errors
///
/// Returns [`Error`] when a clip does not match the sensor, and
/// [`Error::Pipeline`] for an empty dataset.
pub fn evaluate_deployment(
    pipeline: &mut Pipeline<HardwareSensor>,
    dataset: &Dataset,
    wireless: Wireless,
) -> Result<DeploymentReport, Error> {
    if dataset.is_empty() {
        return Err(Error::Pipeline {
            context: "deployment evaluation needs a non-empty dataset".to_string(),
        });
    }
    let mut correct = 0;
    for start in (0..dataset.len()).step_by(CHUNK) {
        let batch = dataset.batch(start, CHUNK.min(dataset.len() - start));
        let predicted = pipeline.infer(&batch.videos)?.labels;
        correct += predicted
            .iter()
            .zip(&batch.labels)
            .filter(|(p, t)| p == t)
            .count();
    }

    let stats = pipeline.backend().stats();
    let sensor = pipeline.backend().sensor();
    let scenario = Scenario {
        frame_pixels: sensor.height() * sensor.width(),
        slots: pipeline.model().mask().num_slots(),
        wireless,
    };
    let energy = EnergyModel::paper();
    Ok(DeploymentReport {
        clips: dataset.len(),
        correct,
        pattern_clock_cycles_per_capture: stats.pattern_clock_cycles,
        pixels_read_per_capture: stats.pixels_read,
        energy_uj_per_capture: energy.snappix_energy(&scenario).total_pj() / 1e6,
        conventional_energy_uj_per_capture: energy.conventional_energy(&scenario).total_pj() / 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_ce::patterns;
    use snappix_models::{SnapPixAr, VitConfig};
    use snappix_sensor::ReadoutConfig;
    use snappix_video::ssv2_like;

    fn pipeline() -> Pipeline<HardwareSensor> {
        let mask = patterns::long_exposure(8, (8, 8)).expect("valid dims");
        let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 10), mask).expect("geometry");
        Pipeline::builder(model)
            .with_hardware_sensor(ReadoutConfig::noiseless(8, 8.0))
            .expect("assembly")
            .build()
            .expect("mask agreement")
    }

    #[test]
    fn report_counts_and_energy_are_consistent() {
        let mut p = pipeline();
        let data = Dataset::new(ssv2_like(8, 16, 16), 6);
        let report = evaluate_deployment(&mut p, &data, Wireless::PassiveWifi).expect("evaluation");
        assert_eq!(report.clips, 6);
        assert!(report.correct <= 6);
        assert!(report.accuracy() >= 0.0 && report.accuracy() <= 100.0);
        assert!(report.energy_saving() > 1.0);
        assert_eq!(report.pixels_read_per_capture, 16 * 16);
        assert_eq!(report.pattern_clock_cycles_per_capture, (2 * 8 * 64) as u64);
        assert!(
            report.energy_uj_per_correct() >= report.energy_uj_per_capture
                || report.correct == report.clips
        );
    }

    #[test]
    fn microbatched_evaluation_matches_per_clip_classification() {
        // One full chunk of 8 and one partial chunk of 3.
        let mut p = pipeline();
        let data = Dataset::new(ssv2_like(8, 16, 16), 11);
        let report = evaluate_deployment(&mut p, &data, Wireless::PassiveWifi).expect("evaluation");
        let mut correct = 0usize;
        for i in 0..data.len() {
            let sample = data.sample(i);
            if p.classify(sample.video.frames()).expect("classify") == sample.label {
                correct += 1;
            }
        }
        assert_eq!(report.correct, correct);
    }

    #[test]
    fn empty_dataset_errors() {
        let mut p = pipeline();
        let empty = Dataset::new(ssv2_like(8, 16, 16), 0);
        assert!(evaluate_deployment(&mut p, &empty, Wireless::PassiveWifi).is_err());
    }

    #[test]
    fn zero_correct_gives_infinite_energy_per_correct() {
        let report = DeploymentReport {
            clips: 4,
            correct: 0,
            pattern_clock_cycles_per_capture: 1,
            pixels_read_per_capture: 1,
            energy_uj_per_capture: 1.0,
            conventional_energy_uj_per_capture: 8.0,
        };
        assert!(report.energy_uj_per_correct().is_infinite());
        assert_eq!(report.accuracy(), 0.0);
        assert_eq!(report.energy_saving(), 8.0);
        let empty = DeploymentReport { clips: 0, ..report };
        assert!(empty.accuracy().is_nan());
    }
}
