//! The coded-exposure integration (paper Eqn. 1).

use crate::{CeError, ExposureMask, Result};
use snappix_tensor::{Tensor, TensorError};

/// Encodes a `[t, h, w]` video into one `[h, w]` coded image (Eqn. 1):
/// `X(i, j) = sum_t M(i, j, t) * Y(i, j, t)`.
///
/// This is the *algorithmic reference implementation* of what the sensor
/// hardware in `snappix-sensor` does physically; the integration tests
/// assert the two agree bit-for-bit in the noiseless case.
///
/// # Errors
///
/// Returns [`CeError::InvalidMask`] when the mask's slot count differs from
/// the video's frame count or the tile does not divide the frame.
///
/// # Examples
///
/// ```
/// use snappix_ce::{encode, patterns};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_ce::CeError> {
/// let video = Tensor::full(&[4, 8, 8], 0.25);
/// let mask = patterns::long_exposure(4, (4, 4))?;
/// let coded = encode(&video, &mask)?;
/// assert_eq!(coded.get(&[0, 0]).unwrap(), 1.0); // 4 slots x 0.25
/// # Ok(())
/// # }
/// ```
pub fn encode(video: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    integrate(video, 3, mask)
}

/// Encodes a `[batch, t, h, w]` batch into `[batch, h, w]` coded images.
///
/// # Errors
///
/// Same conditions as [`encode`], plus rank validation of the batch; an
/// empty batch is a [`CeError::Tensor`] invalid-argument error.
pub fn encode_batch(videos: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    integrate(videos, 4, mask)
}

/// Divides a raw `[h, w]` coded image, or each image of a `[batch, h, w]`
/// batch, by each pixel's exposure count (the paper's pre-ViT
/// normalization, Sec. IV); unexposed pixels stay zero.
///
/// This is the one normalizer: the algorithmic encoder, the hardware
/// readout and the models all run [`encode_batch`] (or a capture) and
/// then this pass, in place on the tensor they hand over.
///
/// # Errors
///
/// Returns [`CeError::Tensor`] with a rank mismatch unless `coded` has
/// rank 2 or 3, and [`CeError::InvalidMask`] when an image extent is zero
/// or not a multiple of the mask's tile.
pub fn normalize_coded(mut coded: Tensor, mask: &ExposureMask) -> Result<Tensor> {
    let rank = coded.rank();
    if !(2..=3).contains(&rank) {
        return Err(CeError::Tensor(TensorError::RankMismatch {
            expected: rank.clamp(2, 3),
            got: rank,
        }));
    }
    let (h, w) = (coded.shape()[rank - 2], coded.shape()[rank - 1]);
    check_frame(h, w, mask)?;
    // Every image is a whole number of tile bands, so the `[th, w]`
    // widened counts line up with the rows of the batch read as one.
    let count_rows = widen_rows(mask.exposure_counts().as_slice(), mask.tile().1, w);
    let counts = count_rows.chunks_exact(w).cycle();
    for (row, count_row) in coded.as_mut_slice().chunks_exact_mut(w).zip(counts) {
        for (x, &c) in row.iter_mut().zip(count_row) {
            if c > 0.0 {
                *x /= c;
            }
        }
    }
    Ok(coded)
}

/// Checks that the mask's tile divides an `h x w` frame with positive
/// extents.
fn check_frame(h: usize, w: usize, mask: &ExposureMask) -> Result<()> {
    let (th, tw) = mask.tile();
    if h == 0 || w == 0 || !h.is_multiple_of(th) || !w.is_multiple_of(tw) {
        return Err(CeError::InvalidMask {
            context: format!("tile {th}x{tw} does not divide frame {h}x{w}"),
        });
    }
    Ok(())
}

/// The one integration loop behind both encoders: `clips` is one
/// `[t, h, w]` clip (`rank` 3) or a `[batch, t, h, w]` batch (`rank` 4),
/// and every clip is integrated straight into its slot of the output,
/// which drops the `t` axis.
///
/// Per pixel the frames add in ascending order from `0.0`, each as
/// `mask * value`, so a clip codes to the same bits alone or in any
/// batch.
fn integrate(clips: &Tensor, rank: usize, mask: &ExposureMask) -> Result<Tensor> {
    if clips.rank() != rank {
        return Err(CeError::Tensor(TensorError::RankMismatch {
            expected: rank,
            got: clips.rank(),
        }));
    }
    let (lead, frame) = clips.shape().split_at(rank - 3);
    let (t, h, w) = (frame[0], frame[1], frame[2]);
    if lead == [0] {
        return Err(CeError::Tensor(TensorError::InvalidArgument {
            context: "cannot encode an empty batch".to_string(),
        }));
    }
    if t != mask.num_slots() {
        return Err(CeError::InvalidMask {
            context: format!(
                "mask has {} slots but video has {t} frames",
                mask.num_slots()
            ),
        });
    }
    check_frame(h, w, mask)?;
    let (th, tw) = mask.tile();
    let out_shape: Vec<usize> = lead.iter().copied().chain([h, w]).collect();
    let mut out = Tensor::zeros(&out_shape);
    // `[t, th, w]`: every tile row of every slot, repeated across the frame
    // width once per call, so each slot's `th x w` block lines up with
    // every band of `th` frame rows.
    let mask_rows = widen_rows(mask.pattern().as_slice(), tw, w);
    let band = th * w;
    let images = out.as_mut_slice().chunks_exact_mut(h * w);
    for (clip, image) in clips.as_slice().chunks_exact(t * h * w).zip(images) {
        let slots = mask_rows.chunks_exact(band);
        for (video_frame, slot) in clip.chunks_exact(h * w).zip(slots) {
            let bands = image
                .chunks_exact_mut(band)
                .zip(video_frame.chunks_exact(band));
            for (coded_band, video_band) in bands {
                for ((c, &v), &m) in coded_band.iter_mut().zip(video_band).zip(slot) {
                    *c += m * v;
                }
            }
        }
    }
    Ok(out)
}

/// Repeats each `tw`-wide tile row of `rows` across a frame `w` wide,
/// into one allocation of the final size.
fn widen_rows(rows: &[f32], tw: usize, w: usize) -> Vec<f32> {
    let mut wide = Vec::with_capacity(rows.len() / tw * w);
    wide.extend(
        rows.chunks_exact(tw)
            .flat_map(|row| row.iter().cycle().take(w))
            .copied(),
    );
    wide
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn long_exposure_sums_all_frames() {
        let video = Tensor::arange(2 * 2 * 2).reshape(&[2, 2, 2]).unwrap();
        let mask = patterns::long_exposure(2, (2, 2)).unwrap();
        let coded = encode(&video, &mask).unwrap();
        // pixel (0,0): frames 0 and 4.
        assert_eq!(coded.as_slice(), &[4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn closed_mask_gives_zero_image() {
        let video = Tensor::ones(&[2, 4, 4]);
        let mut p = Tensor::zeros(&[2, 2, 2]);
        p.set(&[0, 0, 0], 0.0).unwrap();
        let mask = ExposureMask::new(p).unwrap();
        let coded = encode(&video, &mask).unwrap();
        assert_eq!(coded.sum(), 0.0);
    }

    #[test]
    fn mask_selects_frames_per_pixel() {
        // 2 slots, 1x2 tile: pixel col even -> slot 0, col odd -> slot 1.
        let mut p = Tensor::zeros(&[2, 1, 2]);
        p.set(&[0, 0, 0], 1.0).unwrap();
        p.set(&[1, 0, 1], 1.0).unwrap();
        let mask = ExposureMask::new(p).unwrap();
        let f0 = Tensor::full(&[1, 2, 4], 10.0);
        let f1 = Tensor::full(&[1, 2, 4], 20.0);
        let video = Tensor::concat(&[&f0, &f1], 0).unwrap();
        let coded = encode(&video, &mask).unwrap();
        assert_eq!(
            coded.as_slice(),
            &[10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
        );
    }

    #[test]
    fn compression_is_t_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let video = Tensor::rand_uniform(&mut rng, &[16, 16, 16], 0.0, 1.0);
        let mask = patterns::random(16, (8, 8), 0.5, &mut rng).unwrap();
        let coded = encode(&video, &mask).unwrap();
        assert_eq!(coded.len() * 16, video.len());
    }

    #[test]
    fn normalization_divides_by_exposure_count() {
        let video = Tensor::full(&[4, 4, 4], 1.0);
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let n = normalize_coded(encode(&video, &mask).unwrap(), &mask).unwrap();
        assert!(n.approx_eq(&Tensor::ones(&[4, 4]), 1e-6));
    }

    #[test]
    fn normalization_leaves_unexposed_pixels_at_zero() {
        let video = Tensor::full(&[2, 2, 2], 1.0);
        let mut p = Tensor::zeros(&[2, 2, 2]);
        p.set(&[0, 0, 0], 1.0).unwrap(); // only pixel (0,0), slot 0
        let mask = ExposureMask::new(p).unwrap();
        let n = normalize_coded(encode(&video, &mask).unwrap(), &mask).unwrap();
        assert_eq!(n.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(n.get(&[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn batch_encode_matches_singles() {
        let mut rng = StdRng::seed_from_u64(1);
        let videos = Tensor::rand_uniform(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let batch = encode_batch(&videos, &mask).unwrap();
        assert_eq!(batch.shape(), &[3, 8, 8]);
        for b in 0..3 {
            let single = encode(&videos.index_axis(0, b).unwrap(), &mask).unwrap();
            assert!(batch.index_axis(0, b).unwrap().approx_eq(&single, 1e-6));
        }
        let nbatch = normalize_coded(batch, &mask).unwrap();
        assert_eq!(nbatch.shape(), &[3, 8, 8]);
    }

    #[test]
    fn validation_errors() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        assert!(encode(&Tensor::zeros(&[3, 4, 4]), &mask).is_err()); // t mismatch
        assert!(encode(&Tensor::zeros(&[4, 5, 4]), &mask).is_err()); // tile mismatch
        assert!(encode(&Tensor::zeros(&[4, 4]), &mask).is_err()); // rank
        assert!(encode_batch(&Tensor::zeros(&[4, 4, 4]), &mask).is_err());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Eqn. 1 one pixel at a time, reading the tile pattern by coordinate
    /// modulo the tile: frames add in ascending order from `0.0`.
    fn reference(video: &Tensor, mask: &ExposureMask, normalize: bool) -> Tensor {
        let (t, h, w) = (video.shape()[0], video.shape()[1], video.shape()[2]);
        let (th, tw) = mask.tile();
        let (p, v) = (mask.pattern().as_slice(), video.as_slice());
        let counts = mask.exposure_counts();
        let mut out = vec![0.0f32; h * w];
        for y in 0..h {
            for x in 0..w {
                let tile_px = (y % th) * tw + x % tw;
                let mut acc = 0.0f32;
                for f in 0..t {
                    acc += p[f * th * tw + tile_px] * v[(f * h + y) * w + x];
                }
                let c = counts.as_slice()[tile_px];
                out[y * w + x] = if normalize && c > 0.0 { acc / c } else { acc };
            }
        }
        Tensor::from_vec(out, &[h, w]).unwrap()
    }

    /// A random `[t, tile, tile]` mask whose tile pixel (0, 1) is never
    /// exposed.
    fn mask_with_dead_pixel(rng: &mut StdRng, t: usize, tile: usize) -> ExposureMask {
        let mut p = patterns::random(t, (tile, tile), 0.5, rng)
            .unwrap()
            .pattern()
            .clone();
        for f in 0..t {
            p.set(&[f, 0, 1], 0.0).unwrap();
        }
        ExposureMask::new(p).unwrap()
    }

    #[test]
    fn batch_encode_equals_per_clip_encode_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        for tile in [2usize, 4, 8] {
            let (t, h, w) = (5, 2 * tile, 3 * tile);
            let masks = [
                patterns::random(t, (tile, tile), 0.5, &mut rng).unwrap(),
                mask_with_dead_pixel(&mut rng, t, tile),
            ];
            let videos = Tensor::rand_uniform(&mut rng, &[3, t, h, w], -1.0, 2.0);
            for mask in &masks {
                let raw = encode_batch(&videos, mask).unwrap();
                let normalized = normalize_coded(raw.clone(), mask).unwrap();
                assert_eq!(raw.shape(), &[3, h, w]);
                assert_eq!(normalized.shape(), &[3, h, w]);
                for b in 0..3 {
                    let clip = videos.index_axis(0, b).unwrap();
                    let single = encode(&clip, mask).unwrap();
                    let single_n = normalize_coded(single.clone(), mask).unwrap();
                    assert_eq!(bits(&raw.index_axis(0, b).unwrap()), bits(&single));
                    assert_eq!(bits(&normalized.index_axis(0, b).unwrap()), bits(&single_n));
                    assert_eq!(bits(&single), bits(&reference(&clip, mask, false)));
                    assert_eq!(bits(&single_n), bits(&reference(&clip, mask, true)));
                }
            }
            // The dead tile pixel stays 0 wherever the tile repeats.
            let raw = encode_batch(&videos, &masks[1]).unwrap();
            for coded in [raw.clone(), normalize_coded(raw, &masks[1]).unwrap()] {
                for b in 0..3 {
                    for y in (0..h).step_by(tile) {
                        for x in (1..w).step_by(tile) {
                            assert_eq!(coded.get(&[b, y, x]).unwrap().to_bits(), 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn error_variants_are_stable() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let rank = |r: &Result<Tensor>, want: usize| {
            matches!(
                r,
                Err(CeError::Tensor(TensorError::RankMismatch { expected, .. })) if *expected == want
            )
        };
        let invalid_mask = |r: &Result<Tensor>| matches!(r, Err(CeError::InvalidMask { .. }));
        for normalize in [false, true] {
            let normalized = |coded: Tensor| {
                if normalize {
                    normalize_coded(coded, &mask)
                } else {
                    Ok(coded)
                }
            };
            let single = |v: &Tensor| encode(v, &mask).and_then(normalized);
            let batch = |v: &Tensor| encode_batch(v, &mask).and_then(normalized);
            assert!(rank(&single(&Tensor::zeros(&[4, 4])), 3));
            assert!(rank(&single(&Tensor::zeros(&[1, 4, 4, 4])), 3));
            assert!(rank(&batch(&Tensor::zeros(&[4, 4, 4])), 4));
            assert!(invalid_mask(&single(&Tensor::zeros(&[3, 4, 4]))));
            assert!(invalid_mask(&batch(&Tensor::zeros(&[2, 3, 4, 4]))));
            assert!(invalid_mask(&single(&Tensor::zeros(&[4, 5, 4]))));
            assert!(invalid_mask(&batch(&Tensor::zeros(&[2, 4, 4, 3]))));
            assert!(invalid_mask(&single(&Tensor::zeros(&[4, 0, 4]))));
            // An empty batch is an invalid-argument tensor error whatever
            // its trailing extents, as when batches were stacked per clip.
            for empty in [[0, 4, 4, 4], [0, 3, 5, 4]] {
                assert!(matches!(
                    batch(&Tensor::zeros(&empty)),
                    Err(CeError::Tensor(TensorError::InvalidArgument { .. }))
                ));
            }
        }
    }

    #[test]
    fn normalize_coded_rejects_what_it_cannot_normalize() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let normalize = |shape: &[usize]| normalize_coded(Tensor::zeros(shape), &mask);
        for (shape, want) in [(&[][..], 2), (&[4][..], 2), (&[1, 2, 4, 4][..], 3)] {
            assert!(
                matches!(
                    normalize(shape),
                    Err(CeError::Tensor(TensorError::RankMismatch { expected, got }))
                        if expected == want && got == shape.len()
                ),
                "{shape:?}"
            );
        }
        for shape in [&[0, 4][..], &[4, 0], &[2, 0, 4], &[3, 4], &[2, 4, 5]] {
            assert!(
                matches!(normalize(shape), Err(CeError::InvalidMask { .. })),
                "{shape:?}"
            );
        }
        assert_eq!(normalize(&[4, 4]).unwrap().shape(), &[4, 4]);
        assert_eq!(normalize(&[2, 4, 4]).unwrap().shape(), &[2, 4, 4]);
    }
}
