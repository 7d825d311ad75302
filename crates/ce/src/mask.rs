//! The tile-repetitive exposure mask.

use crate::{CeError, Result};
use snappix_tensor::Tensor;

/// A tile-repetitive binary exposure mask.
///
/// Stores the `[t, th, tw]` tile pattern; the full-frame mask `M` of Eqn. 1
/// is this pattern repeated across the image (paper Sec. IV). A "global"
/// (non-repetitive) mask — the pattern the paper ablates against — is
/// simply an `ExposureMask` whose tile is the whole frame.
///
/// Invariants enforced at construction: rank 3, all extents positive, and
/// every element exactly `0.0` or `1.0`. The per-pixel exposure counts
/// are computed once there too; they are a function of the pattern.
///
/// # Examples
///
/// ```
/// use snappix_ce::ExposureMask;
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_ce::CeError> {
/// let mask = ExposureMask::new(Tensor::ones(&[16, 8, 8]))?; // long exposure
/// assert_eq!(mask.num_slots(), 16);
/// assert_eq!(mask.tile(), (8, 8));
/// assert_eq!(mask.open_fraction(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureMask {
    pattern: Tensor,
    counts: Tensor,
}

impl ExposureMask {
    /// Wraps a `[t, th, tw]` binary tensor as a mask.
    ///
    /// # Errors
    ///
    /// Returns [`CeError::InvalidMask`] for wrong rank, zero extents, or
    /// non-binary values.
    pub fn new(pattern: Tensor) -> Result<Self> {
        if pattern.rank() != 3 {
            return Err(CeError::InvalidMask {
                context: format!("expected rank 3, got {:?}", pattern.shape()),
            });
        }
        if pattern.shape().contains(&0) {
            return Err(CeError::InvalidMask {
                context: format!("zero extent in {:?}", pattern.shape()),
            });
        }
        if pattern.as_slice().iter().any(|&x| x != 0.0 && x != 1.0) {
            return Err(CeError::InvalidMask {
                context: "mask values must be exactly 0.0 or 1.0".to_string(),
            });
        }
        let counts = pattern.sum_axis(0, false)?;
        Ok(ExposureMask { pattern, counts })
    }

    /// The underlying `[t, th, tw]` tile pattern.
    pub fn pattern(&self) -> &Tensor {
        &self.pattern
    }

    /// Number of exposure slots `t`.
    pub fn num_slots(&self) -> usize {
        self.pattern.shape()[0]
    }

    /// Tile extents `(th, tw)`.
    pub fn tile(&self) -> (usize, usize) {
        (self.pattern.shape()[1], self.pattern.shape()[2])
    }

    /// Fraction of (slot, pixel) cells that are open.
    pub fn open_fraction(&self) -> f32 {
        self.pattern.mean()
    }

    /// Per-tile-pixel exposure counts: `[th, tw]`, each entry the number of
    /// slots in which that pixel is exposed.
    pub fn exposure_counts(&self) -> &Tensor {
        &self.counts
    }

    /// Returns `true` when at least one slot exposes each tile pixel —
    /// masks violating this lose those pixels entirely (the degenerate
    /// collapse the paper's zero-mean encoding guards against).
    pub fn covers_all_pixels(&self) -> bool {
        self.exposure_counts().as_slice().iter().all(|&c| c > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ExposureMask::new(Tensor::ones(&[2, 2])).is_err());
        assert!(ExposureMask::new(Tensor::zeros(&[0, 2, 2])).is_err());
        assert!(ExposureMask::new(Tensor::full(&[2, 2, 2], 0.5)).is_err());
        assert!(ExposureMask::new(Tensor::ones(&[2, 2, 2])).is_ok());
    }

    #[test]
    fn accessors() {
        let m = ExposureMask::new(Tensor::ones(&[4, 2, 3])).unwrap();
        assert_eq!(m.num_slots(), 4);
        assert_eq!(m.tile(), (2, 3));
        assert_eq!(m.open_fraction(), 1.0);
        assert!(m.covers_all_pixels());
    }

    #[test]
    fn exposure_counts_sum_slots() {
        // Slot 0 exposes everything; slot 1 exposes nothing.
        let p =
            Tensor::concat(&[&Tensor::ones(&[1, 2, 2]), &Tensor::zeros(&[1, 2, 2])], 0).unwrap();
        let m = ExposureMask::new(p).unwrap();
        assert_eq!(m.exposure_counts().as_slice(), &[1.0; 4]);
        assert_eq!(m.open_fraction(), 0.5);
    }

    #[test]
    fn covers_all_pixels_detects_dead_pixels() {
        let mut p = Tensor::ones(&[2, 2, 2]);
        p.set(&[0, 1, 1], 0.0).unwrap();
        p.set(&[1, 1, 1], 0.0).unwrap();
        let m = ExposureMask::new(p).unwrap();
        assert!(!m.covers_all_pixels());
    }
}
