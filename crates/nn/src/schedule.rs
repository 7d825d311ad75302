//! Learning-rate schedules.

/// Learning-rate schedule evaluated per step.
///
/// The paper tunes learning rates per model and uses warmup + decay typical
/// of ViT training recipes; [`LrSchedule::WarmupCosine`] mirrors that.
///
/// # Examples
///
/// ```
/// use snappix_nn::LrSchedule;
///
/// let sched = LrSchedule::WarmupCosine {
///     base: 1e-3,
///     warmup_steps: 10,
///     total_steps: 100,
/// };
/// assert!(sched.at(0) < sched.at(10));         // warming up
/// assert!(sched.at(99) < sched.at(10));        // decayed
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Linear warmup followed by cosine decay to zero.
    WarmupCosine {
        /// Peak rate reached at the end of warmup.
        base: f32,
        /// Steps of linear warmup.
        warmup_steps: usize,
        /// Total steps (decay finishes here).
        total_steps: usize,
    },
}

impl LrSchedule {
    /// Learning rate at training step `step` (0-based).
    pub fn at(&self, step: usize) -> f32 {
        let LrSchedule::WarmupCosine {
            base,
            warmup_steps,
            total_steps,
        } = *self;
        if warmup_steps > 0 && step < warmup_steps {
            base * (step + 1) as f32 / warmup_steps as f32
        } else {
            let span = total_steps.saturating_sub(warmup_steps).max(1) as f32;
            let progress = ((step.saturating_sub(warmup_steps)) as f32 / span).clamp(0.0, 1.0);
            base * 0.5 * (1.0 + (std::f32::consts::PI * progress).cos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_cosine_ramps_then_decays() {
        let s = LrSchedule::WarmupCosine {
            base: 1.0,
            warmup_steps: 10,
            total_steps: 110,
        };
        assert!((s.at(0) - 0.1).abs() < 1e-6);
        assert!((s.at(9) - 1.0).abs() < 1e-6);
        // Midway through decay: cos(pi/2) -> 0.5 * base.
        assert!((s.at(60) - 0.5).abs() < 0.02);
        assert!(s.at(109) < 0.01);
        // Past the end it stays at ~0, not negative.
        assert!(s.at(1000) >= 0.0);
    }

    #[test]
    fn warmup_cosine_without_warmup() {
        let s = LrSchedule::WarmupCosine {
            base: 1.0,
            warmup_steps: 0,
            total_steps: 100,
        };
        assert!((s.at(0) - 1.0).abs() < 1e-6);
    }
}
