//! Action classes and their motion trajectories.

use std::fmt;

/// The ten ground-truth action classes of the procedural datasets.
///
/// Each class determines the *trajectory* of the foreground sprites over
/// the clip; recognizing the class from a single coded image therefore
/// requires recovering temporal information from the coded exposure, which
/// is exactly the capability SnapPix's evaluation probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Uniform motion to the right.
    TranslateRight,
    /// Uniform motion to the left.
    TranslateLeft,
    /// Uniform upward motion.
    TranslateUp,
    /// Uniform downward motion.
    TranslateDown,
    /// Clockwise orbit around the frame center.
    OrbitClockwise,
    /// Counter-clockwise orbit around the frame center.
    OrbitCounterClockwise,
    /// Horizontal sinusoidal oscillation.
    Oscillate,
    /// Sprite grows over the clip.
    Expand,
    /// Sprite shrinks over the clip.
    Contract,
    /// Sprite intensity pulses while nearly static.
    Flicker,
}

/// All classes in a stable order (the class index is the position here).
pub const ALL_CLASSES: [ActionClass; 10] = [
    ActionClass::TranslateRight,
    ActionClass::TranslateLeft,
    ActionClass::TranslateUp,
    ActionClass::TranslateDown,
    ActionClass::OrbitClockwise,
    ActionClass::OrbitCounterClockwise,
    ActionClass::Oscillate,
    ActionClass::Expand,
    ActionClass::Contract,
    ActionClass::Flicker,
];

impl ActionClass {
    /// The class with index `i` (modulo the class count).
    pub fn from_index(i: usize) -> Self {
        ALL_CLASSES[i % ALL_CLASSES.len()]
    }

    /// Sprite state at normalized time `tau in [0, 1]`:
    /// `(dx, dy, size_scale, intensity_scale)` relative to the sprite's
    /// base position/size, with motion amplitude `amp` in pixels.
    pub fn pose(self, tau: f32, amp: f32) -> (f32, f32, f32, f32) {
        use std::f32::consts::TAU;
        match self {
            ActionClass::TranslateRight => (amp * (tau - 0.5), 0.0, 1.0, 1.0),
            ActionClass::TranslateLeft => (-amp * (tau - 0.5), 0.0, 1.0, 1.0),
            ActionClass::TranslateUp => (0.0, -amp * (tau - 0.5), 1.0, 1.0),
            ActionClass::TranslateDown => (0.0, amp * (tau - 0.5), 1.0, 1.0),
            ActionClass::OrbitClockwise => {
                let a = TAU * tau;
                (0.5 * amp * a.cos(), 0.5 * amp * a.sin(), 1.0, 1.0)
            }
            ActionClass::OrbitCounterClockwise => {
                let a = TAU * tau;
                (0.5 * amp * a.cos(), -0.5 * amp * a.sin(), 1.0, 1.0)
            }
            ActionClass::Oscillate => ((0.5 * amp) * (TAU * tau).sin(), 0.0, 1.0, 1.0),
            ActionClass::Expand => (0.0, 0.0, 0.6 + 0.9 * tau, 1.0),
            ActionClass::Contract => (0.0, 0.0, 1.5 - 0.9 * tau, 1.0),
            ActionClass::Flicker => {
                let pulse = 0.55 + 0.45 * (2.0 * TAU * tau).sin();
                (0.0, 0.0, 1.0, pulse)
            }
        }
    }
}

impl fmt::Display for ActionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ActionClass::TranslateRight => "translate-right",
            ActionClass::TranslateLeft => "translate-left",
            ActionClass::TranslateUp => "translate-up",
            ActionClass::TranslateDown => "translate-down",
            ActionClass::OrbitClockwise => "orbit-cw",
            ActionClass::OrbitCounterClockwise => "orbit-ccw",
            ActionClass::Oscillate => "oscillate",
            ActionClass::Expand => "expand",
            ActionClass::Contract => "contract",
            ActionClass::Flicker => "flicker",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for (i, &c) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(ActionClass::from_index(i), c);
        }
        assert_eq!(ActionClass::from_index(10), ALL_CLASSES[0]);
    }

    #[test]
    fn translations_move_along_one_axis() {
        let (dx0, dy0, ..) = ActionClass::TranslateRight.pose(0.0, 10.0);
        let (dx1, dy1, ..) = ActionClass::TranslateRight.pose(1.0, 10.0);
        assert!(dx1 > dx0);
        assert_eq!(dy0, 0.0);
        assert_eq!(dy1, 0.0);
        let (lx0, ..) = ActionClass::TranslateLeft.pose(0.0, 10.0);
        let (lx1, ..) = ActionClass::TranslateLeft.pose(1.0, 10.0);
        assert!(lx1 < lx0);
    }

    #[test]
    fn orbits_have_opposite_chirality() {
        let (_, cw_y, ..) = ActionClass::OrbitClockwise.pose(0.25, 10.0);
        let (_, ccw_y, ..) = ActionClass::OrbitCounterClockwise.pose(0.25, 10.0);
        assert!(cw_y > 0.0);
        assert!(ccw_y < 0.0);
    }

    #[test]
    fn expand_grows_contract_shrinks() {
        let (.., s0, _) = ActionClass::Expand.pose(0.0, 0.0);
        let (.., s1, _) = ActionClass::Expand.pose(1.0, 0.0);
        assert!(s1 > s0);
        let (.., c0, _) = ActionClass::Contract.pose(0.0, 0.0);
        let (.., c1, _) = ActionClass::Contract.pose(1.0, 0.0);
        assert!(c1 < c0);
        assert!(c1 > 0.0, "size must stay positive");
    }

    #[test]
    fn flicker_modulates_intensity_only() {
        let (dx, dy, s, i0) = ActionClass::Flicker.pose(0.0, 10.0);
        let (.., i_quarter) = ActionClass::Flicker.pose(0.125, 10.0);
        assert_eq!((dx, dy, s), (0.0, 0.0, 1.0));
        assert!(i_quarter > i0);
        // Intensity stays positive over the whole clip.
        for k in 0..=20 {
            let (.., i) = ActionClass::Flicker.pose(k as f32 / 20.0, 10.0);
            assert!(i > 0.0, "intensity at {k}/20 was {i}");
        }
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = ALL_CLASSES.iter().map(|c| c.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ALL_CLASSES.len());
    }
}
