//! Correlation statistics over coded tiles (paper Sec. III, Fig. 3).

use crate::{encode_batch, CeError, ExposureMask, Result};
use snappix_tensor::Tensor;

/// Harvests per-coded-pixel sample vectors from a batch of videos.
///
/// Each coded image is divided into tiles of `mask.tile()` pixels; every
/// tile of every image contributes one `P`-dimensional sample (`P` pixels
/// per tile). With `B` videos and `N^2` tiles per image this returns the
/// `[S, P]` matrix of `S = B * N^2` samples from which the Pearson
/// correlations of Eqn. 2 are estimated (Fig. 3).
///
/// # Errors
///
/// Fails when the videos do not match the mask (see
/// [`crate::encode_batch`]).
pub fn coded_tile_samples(videos: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    let coded = encode_batch(videos, mask)?;
    let (th, tw) = mask.tile();
    let tiles = coded.extract_patches(th, tw)?; // [batch, tiles, th * tw]
    let (batch, per_image) = (tiles.shape()[0], tiles.shape()[1]);
    Ok(tiles.reshape(&[batch * per_image, th * tw])?)
}

/// Zero-mean contrast encoding (Fig. 3): removes each sample tile's DC
/// component so the mean pixel value of every tile is zero.
///
/// Proximal pixels share scene brightness; without removing this common
/// mode the decorrelation objective conflates inherent DC correlation with
/// exposure-induced redundancy and training can collapse to all-closed
/// masks (paper Sec. III). Input and output are `[s, p]` sample matrices.
///
/// # Errors
///
/// Fails for non-rank-2 input.
pub fn zero_mean_contrast(samples: &Tensor) -> Result<Tensor> {
    if samples.rank() != 2 {
        return Err(CeError::Tensor(snappix_tensor::TensorError::RankMismatch {
            expected: 2,
            got: samples.rank(),
        }));
    }
    let dc = samples.mean_axis(1, true)?;
    Ok(samples.sub(&dc)?)
}

/// Pearson correlation matrix between the `P` columns of an `[s, p]`
/// sample matrix. Zero-variance columns yield zero correlation (treated as
/// carrying no signal rather than poisoning the matrix with NaNs).
///
/// The `X^T X` Gram product runs through the tensor crate's
/// cache-blocked parallel matmul; the `O(p^2)` std-normalization that
/// follows runs on the calling thread. Results are bit-for-bit identical
/// at every thread count (see the parity test).
///
/// # Errors
///
/// Fails for non-rank-2 input or fewer than two samples.
pub fn pearson_matrix(samples: &Tensor) -> Result<Tensor> {
    if samples.rank() != 2 {
        return Err(CeError::Tensor(snappix_tensor::TensorError::RankMismatch {
            expected: 2,
            got: samples.rank(),
        }));
    }
    let (s, p) = (samples.shape()[0], samples.shape()[1]);
    if s < 2 {
        return Err(CeError::InvalidConfig {
            context: format!("need at least 2 samples for correlation, got {s}"),
        });
    }
    let mu = samples.mean_axis(0, true)?;
    let centered = samples.sub(&mu)?;
    let var = centered.mul(&centered)?.mean_axis(0, false)?; // [p]
    let std: Vec<f32> = var.as_slice().iter().map(|&v| v.sqrt()).collect();
    // C = (X^T X) / s, then normalize by std_i * std_j.
    let cov = centered
        .transpose()?
        .matmul(&centered)?
        .scale(1.0 / s as f32);
    let mut c = cov;
    for (row, &std_i) in c.as_mut_slice().chunks_mut(p).zip(&std) {
        for (v, &std_j) in row.iter_mut().zip(&std) {
            let denom = std_i * std_j;
            *v = if denom > 1e-12 {
                (*v / denom).clamp(-1.0, 1.0)
            } else {
                0.0
            };
        }
    }
    Ok(c)
}

/// Mean absolute off-diagonal entry — the "Pearson correlation
/// coefficient" the paper reports per pattern in Fig. 6's legend.
///
/// # Errors
///
/// Fails for non-square input or a 1x1 matrix.
pub fn mean_offdiag_abs(c: &Tensor) -> Result<f32> {
    if c.rank() != 2 || c.shape()[0] != c.shape()[1] {
        return Err(CeError::Tensor(
            snappix_tensor::TensorError::IncompatibleShapes {
                context: format!("expected square matrix, got {:?}", c.shape()),
            },
        ));
    }
    let p = c.shape()[0];
    if p < 2 {
        return Err(CeError::InvalidConfig {
            context: "off-diagonal statistics need at least a 2x2 matrix".to_string(),
        });
    }
    let data = c.as_slice();
    let mut acc = 0.0f32;
    for i in 0..p {
        for j in 0..p {
            if i != j {
                acc += data[i * p + j].abs();
            }
        }
    }
    Ok(acc / (p * (p - 1)) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn tile_samples_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let videos = Tensor::rand_uniform(&mut rng, &[2, 4, 8, 8], 0.0, 1.0);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let s = coded_tile_samples(&videos, &mask).unwrap();
        // 2 videos x 4 tiles each, 16 pixels per tile.
        assert_eq!(s.shape(), &[8, 16]);
    }

    #[test]
    fn zero_mean_contrast_zeroes_tile_dc() {
        let samples = Tensor::from_vec(vec![1.0, 3.0, 10.0, 20.0], &[2, 2]).unwrap();
        let z = zero_mean_contrast(&samples).unwrap();
        assert_eq!(z.as_slice(), &[-1.0, 1.0, -5.0, 5.0]);
        assert!(zero_mean_contrast(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn pearson_of_identical_columns_is_one() {
        let col = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]).unwrap();
        let samples = Tensor::concat(&[&col, &col], 1).unwrap();
        let c = pearson_matrix(&samples).unwrap();
        assert!(c.approx_eq(&Tensor::ones(&[2, 2]), 1e-5));
    }

    #[test]
    fn pearson_of_anticorrelated_columns_is_minus_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]).unwrap();
        let b = a.neg();
        let samples = Tensor::concat(&[&a, &b], 1).unwrap();
        let c = pearson_matrix(&samples).unwrap();
        assert!((c.get(&[0, 1]).unwrap() + 1.0).abs() < 1e-5);
    }

    #[test]
    fn pearson_of_independent_noise_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples = Tensor::rand_normal(&mut rng, &[2000, 3], 0.0, 1.0);
        let c = pearson_matrix(&samples).unwrap();
        assert!(mean_offdiag_abs(&c).unwrap() < 0.05);
        // Diagonal is exactly 1 for non-degenerate columns.
        for i in 0..3 {
            assert!((c.get(&[i, i]).unwrap() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_variance_column_yields_zero_not_nan() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).unwrap();
        let constant = Tensor::full(&[3, 1], 5.0);
        let samples = Tensor::concat(&[&a, &constant], 1).unwrap();
        let c = pearson_matrix(&samples).unwrap();
        assert_eq!(c.get(&[0, 1]).unwrap(), 0.0);
        assert!(c.as_slice().iter().all(|v| v.is_finite()));
    }

    /// The Pearson path (parallel blocked matmul Gram product, then the
    /// serial normalization) must match the single-thread run bit-for-bit
    /// across thread counts, including > p workers, on odd shapes.
    #[test]
    fn pearson_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(21);
        // (300, 64) drives the Gram matmul over the slab split; (16, 256)
        // gives the serial normalization a wide 256x256 matrix; (37, 5)
        // stays fully serial.
        for (s, p) in [(37usize, 5usize), (300, 64), (16, 256)] {
            let samples = Tensor::rand_normal(&mut rng, &[s, p], 0.0, 1.0);
            let reference = with_threads(1, || pearson_matrix(&samples).unwrap());
            for threads in [2usize, 3, p + 9] {
                let c = with_threads(threads, || pearson_matrix(&samples).unwrap());
                assert_eq!(
                    c.as_slice(),
                    reference.as_slice(),
                    "{s}x{p} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn pearson_validation() {
        assert!(pearson_matrix(&Tensor::zeros(&[5])).is_err());
        assert!(pearson_matrix(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    fn offdiag_statistics() {
        let c = Tensor::from_vec(vec![1.0, 0.5, -0.5, 1.0], &[2, 2]).unwrap();
        assert!((mean_offdiag_abs(&c).unwrap() - 0.5).abs() < 1e-6);
        assert!(mean_offdiag_abs(&Tensor::zeros(&[2, 3])).is_err());
        assert!(mean_offdiag_abs(&Tensor::ones(&[1, 1])).is_err());
    }

    #[test]
    fn long_exposure_tiles_are_highly_correlated() {
        // On smooth scenes, long exposure preserves the DC-heavy local
        // structure: after contrast encoding the residual correlation is
        // still substantial relative to white noise.
        use snappix_video::{ssv2_like, Dataset};
        let data = Dataset::new(ssv2_like(8, 16, 16), 12);
        let mut clips = Vec::new();
        for i in 0..data.len() {
            clips.push(data.sample(i).video.into_frames());
        }
        let refs: Vec<&Tensor> = clips.iter().collect();
        let videos = Tensor::stack(&refs, 0).unwrap();
        let mask = patterns::long_exposure(8, (4, 4)).unwrap();
        let samples = coded_tile_samples(&videos, &mask).unwrap();
        let z = zero_mean_contrast(&samples).unwrap();
        let c = pearson_matrix(&z).unwrap();
        let rho = mean_offdiag_abs(&c).unwrap();
        assert!(rho > 0.1, "long exposure should stay correlated, got {rho}");
    }
}
