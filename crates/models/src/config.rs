//! ViT configuration and the SnapPix-S / SnapPix-B presets.

use crate::{ModelError, Result};

/// Configuration of a CE-optimized vision transformer.
///
/// The paper's SnapPix-B uses ViT-B (87M parameters) and SnapPix-S uses
/// ViT-S (22M); the presets here keep the *architecture family and the
/// S-to-B scaling relationship* at a CPU-trainable size (README.md,
/// "Reproduction scale", gives the substitution rationale). The patch size
/// is always set equal to the coded-exposure tile (Sec. IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VitConfig {
    /// Variant name used in experiment tables.
    pub name: String,
    /// Input image height.
    pub height: usize,
    /// Input image width.
    pub width: usize,
    /// Patch (= CE tile) side in pixels.
    pub patch: usize,
    /// Token embedding width.
    pub dim: usize,
    /// Number of transformer blocks.
    pub depth: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// Hidden width of each MLP as a multiple of `dim`.
    pub mlp_ratio: usize,
    /// Output classes for the action-recognition head.
    pub num_classes: usize,
}

impl VitConfig {
    /// The SnapPix-S preset (small, fast — the paper's ViT-S role).
    pub fn snappix_s(height: usize, width: usize, num_classes: usize) -> Self {
        VitConfig {
            name: "SnapPix-S".to_string(),
            height,
            width,
            patch: 8,
            dim: 32,
            depth: 2,
            heads: 4,
            mlp_ratio: 2,
            num_classes,
        }
    }

    /// The SnapPix-B preset (larger, more accurate — the paper's ViT-B
    /// role; ~4x the parameters of S, mirroring the 22M -> 87M ratio).
    pub fn snappix_b(height: usize, width: usize, num_classes: usize) -> Self {
        VitConfig {
            name: "SnapPix-B".to_string(),
            height,
            width,
            patch: 8,
            dim: 64,
            depth: 4,
            heads: 8,
            mlp_ratio: 2,
            num_classes,
        }
    }

    /// Number of patch tokens.
    pub fn num_tokens(&self) -> usize {
        (self.height / self.patch) * (self.width / self.patch)
    }

    /// Pixels per patch.
    pub fn patch_pixels(&self) -> usize {
        self.patch * self.patch
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] when extents are zero, the patch
    /// does not divide the image, or `dim` is not divisible by `heads`.
    pub fn validate(&self) -> Result<()> {
        if self.height == 0 || self.width == 0 || self.patch == 0 {
            return Err(ModelError::Config {
                context: format!("{}: zero extent", self.name),
            });
        }
        if !self.height.is_multiple_of(self.patch) || !self.width.is_multiple_of(self.patch) {
            return Err(ModelError::Config {
                context: format!(
                    "{}: patch {} does not divide {}x{}",
                    self.name, self.patch, self.height, self.width
                ),
            });
        }
        if self.dim == 0 || self.heads == 0 || !self.dim.is_multiple_of(self.heads) {
            return Err(ModelError::Config {
                context: format!(
                    "{}: dim {} not divisible by heads {}",
                    self.name, self.dim, self.heads
                ),
            });
        }
        if self.depth == 0 || self.mlp_ratio == 0 {
            return Err(ModelError::Config {
                context: format!("{}: zero depth or mlp ratio", self.name),
            });
        }
        if self.num_classes == 0 {
            return Err(ModelError::Config {
                context: format!("{}: zero classes", self.name),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_scale() {
        let s = VitConfig::snappix_s(32, 32, 10);
        let b = VitConfig::snappix_b(32, 32, 10);
        s.validate().unwrap();
        b.validate().unwrap();
        assert!(b.dim > s.dim);
        assert!(b.depth > s.depth);
        assert_eq!(s.patch, 8, "patch must match the CE tile");
        assert_eq!(s.num_tokens(), 16);
        assert_eq!(s.patch_pixels(), 64);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = VitConfig::snappix_s(32, 32, 10);
        c.patch = 5;
        assert!(c.validate().is_err());
        let mut c = VitConfig::snappix_s(32, 32, 10);
        c.heads = 3;
        assert!(c.validate().is_err());
        let mut c = VitConfig::snappix_s(32, 32, 10);
        c.num_classes = 0;
        assert!(c.validate().is_err());
        let mut c = VitConfig::snappix_s(32, 32, 10);
        c.depth = 0;
        assert!(c.validate().is_err());
        let mut c = VitConfig::snappix_s(0, 32, 10);
        c.height = 0;
        assert!(c.validate().is_err());
    }
}
