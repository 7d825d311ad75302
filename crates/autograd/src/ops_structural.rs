//! Structural operations: concatenation, slicing, gathering, patch
//! extraction and tile repetition.
//!
//! These give the coded-exposure codec and the ViT models their
//! data-movement primitives while keeping gradients exact (every move is a
//! permutation or a sum, so the backward passes are scatter/adds).

use crate::{AutogradError, Graph, Result, Var};
use snappix_tensor::Tensor;

impl Graph {
    /// Concatenates variables along `axis`.
    ///
    /// # Errors
    ///
    /// Fails for an empty list, bad axis, or off-axis shape mismatches.
    pub fn concat(&mut self, vars: &[Var], axis: usize) -> Result<Var> {
        for &v in vars {
            self.check(v)?;
        }
        let tensors: Vec<&Tensor> = vars.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat(&tensors, axis)?;
        let extents: Vec<usize> = tensors.iter().map(|t| t.shape()[axis]).collect();
        Ok(self.push_op(value, vars, move |g, _| {
            let mut grads = Vec::with_capacity(extents.len());
            let mut start = 0usize;
            for &e in &extents {
                grads.push(
                    g.slice_axis(axis, start, start + e)
                        .expect("extents partition the axis"),
                );
                start += e;
            }
            grads
        }))
    }

    /// Slices `[start, end)` along `axis`.
    ///
    /// # Errors
    ///
    /// Fails on a bad axis or range.
    pub fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).slice_axis(axis, start, end)?;
        Ok(self.push_op(value, &[a], move |g, parents| {
            // Scatter the slice gradient back into a zero tensor.
            let src_shape = parents[0].shape();
            let mut out = Tensor::zeros(src_shape);
            let outer: usize = src_shape[..axis].iter().product();
            let mid = src_shape[axis];
            let inner: usize = src_shape[axis + 1..].iter().product();
            let gs = g.as_slice();
            let os = out.as_mut_slice();
            let width = end - start;
            for o in 0..outer {
                for m in 0..width {
                    let src_base = (o * width + m) * inner;
                    let dst_base = (o * mid + start + m) * inner;
                    os[dst_base..dst_base + inner].copy_from_slice(&gs[src_base..src_base + inner]);
                }
            }
            vec![out]
        }))
    }

    /// Gathers rows of a rank-2 variable; backward scatter-adds (so
    /// duplicate indices accumulate).
    ///
    /// # Errors
    ///
    /// Fails for non-rank-2 input or out-of-range indices.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).gather_rows(indices)?;
        let idx = indices.to_vec();
        Ok(self.push_op(value, &[a], move |g, parents| {
            let (rows, cols) = (parents[0].shape()[0], parents[0].shape()[1]);
            let mut out = Tensor::zeros(&[rows, cols]);
            let gs = g.as_slice();
            let os = out.as_mut_slice();
            for (r, &i) in idx.iter().enumerate() {
                for c in 0..cols {
                    os[i * cols + c] += gs[r * cols + c];
                }
            }
            vec![out]
        }))
    }

    /// Extracts non-overlapping `ph x pw` patches.
    ///
    /// Accepts `[h, w]` (returns `[p, ph*pw]`) or batched `[batch, h, w]`
    /// (returns `[batch, p, ph*pw]`). This is the differentiable "patchify"
    /// used by the CE-optimized ViT (paper Sec. IV).
    ///
    /// # Errors
    ///
    /// Fails for other ranks or when the patch size does not tile the
    /// frame.
    pub fn extract_patches(&mut self, a: Var, ph: usize, pw: usize) -> Result<Var> {
        self.check(a)?;
        let (av, free) = self.value_and_free(a);
        let value = av.extract_patches_in(ph, pw, free)?;
        let (h, w) = (av.shape()[av.rank() - 2], av.shape()[av.rank() - 1]);
        Ok(self.push_op(value, &[a], move |g, _| {
            vec![g
                .assemble_patches(ph, pw, h, w)
                .expect("inverse of forward")]
        }))
    }

    /// Reassembles patches into frames: inverse of
    /// [`Graph::extract_patches`], accepting `[p, ph*pw]` or
    /// `[batch, p, ph*pw]`.
    ///
    /// # Errors
    ///
    /// Fails for other ranks or when the patch grid does not match
    /// `h x w`.
    pub fn assemble_patches(
        &mut self,
        a: Var,
        ph: usize,
        pw: usize,
        h: usize,
        w: usize,
    ) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).assemble_patches(ph, pw, h, w)?;
        Ok(self.push_op(value, &[a], move |g, _| {
            vec![g.extract_patches(ph, pw).expect("inverse of forward")]
        }))
    }

    /// Tiles a `[t, th, tw]` pattern spatially into `[t, th*gh, tw*gw]`
    /// (the paper's tile-repetitive exposure pattern, Sec. IV).
    ///
    /// Backward sums gradients over all `gh*gw` tile repetitions, which is
    /// exactly how a shared tile pattern accumulates evidence from every
    /// image tile during decorrelation training.
    ///
    /// # Errors
    ///
    /// Fails for non-rank-3 input or zero grid extents.
    pub fn tile_spatial(&mut self, a: Var, gh: usize, gw: usize) -> Result<Var> {
        self.check(a)?;
        let av = self.value(a);
        if av.rank() != 3 {
            return Err(AutogradError::Tensor(
                snappix_tensor::TensorError::RankMismatch {
                    expected: 3,
                    got: av.rank(),
                },
            ));
        }
        if gh == 0 || gw == 0 {
            return Err(AutogradError::InvalidArgument {
                context: "tile grid extents must be positive".to_string(),
            });
        }
        let (t, th, tw) = (av.shape()[0], av.shape()[1], av.shape()[2]);
        let (h, w) = (th * gh, tw * gw);
        let mut value = Tensor::zeros(&[t, h, w]);
        {
            let src = av.as_slice();
            let dst = value.as_mut_slice();
            for f in 0..t {
                for y in 0..h {
                    for x in 0..w {
                        dst[f * h * w + y * w + x] = src[f * th * tw + (y % th) * tw + (x % tw)];
                    }
                }
            }
        }
        Ok(self.push_op(value, &[a], move |g, _| {
            let mut out = Tensor::zeros(&[t, th, tw]);
            let gs = g.as_slice();
            let os = out.as_mut_slice();
            for f in 0..t {
                for y in 0..h {
                    for x in 0..w {
                        os[f * th * tw + (y % th) * tw + (x % tw)] += gs[f * h * w + y * w + x];
                    }
                }
            }
            vec![out]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn concat_numeric() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(&mut rng, &[2, 3], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[2, 2], -1.0, 1.0);
        check_gradients(&[a, b], |g, vars| {
            let c = g.concat(&[vars[0], vars[1]], 1)?;
            let s = g.mul(c, c)?;
            g.sum(s)
        })
        .unwrap();
    }

    #[test]
    fn slice_numeric() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform(&mut rng, &[3, 5], -1.0, 1.0);
        check_gradients(&[a], |g, vars| {
            let s = g.slice_axis(vars[0], 1, 1, 4)?;
            let q = g.mul(s, s)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn gather_rows_accumulates_duplicates() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::arange(6).reshape(&[3, 2]).unwrap(), true);
        let got = g.gather_rows(a, &[1, 1, 2]).unwrap();
        let s = g.sum(got).unwrap();
        g.backward(s).unwrap();
        // Row 1 was gathered twice, row 2 once, row 0 never.
        assert_eq!(
            g.grad(a).unwrap().as_slice(),
            &[0.0, 0.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn gather_rows_numeric() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&mut rng, &[4, 3], -1.0, 1.0);
        check_gradients(&[a], |g, vars| {
            let got = g.gather_rows(vars[0], &[0, 2, 2])?;
            let q = g.mul(got, got)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn patches_round_trip_and_numeric() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::rand_uniform(&mut rng, &[4, 4], -1.0, 1.0);
        let mut g = Graph::new();
        let v = g.leaf(a.clone(), true);
        let p = g.extract_patches(v, 2, 2).unwrap();
        let back = g.assemble_patches(p, 2, 2, 4, 4).unwrap();
        assert!(g.value(back).approx_eq(&a, 0.0));

        check_gradients(&[a], |g, vars| {
            let p = g.extract_patches(vars[0], 2, 2)?;
            let q = g.mul(p, p)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn batched_patches_numeric() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::rand_uniform(&mut rng, &[2, 4, 4], -1.0, 1.0);
        check_gradients(std::slice::from_ref(&a), |g, vars| {
            let p = g.extract_patches(vars[0], 2, 2)?;
            let q = g.mul(p, p)?;
            g.sum(q)
        })
        .unwrap();
        // And the batched inverse.
        let patches = {
            let mut g = Graph::new();
            let v = g.leaf(a, false);
            let p = g.extract_patches(v, 2, 2).unwrap();
            g.value(p).clone()
        };
        check_gradients(&[patches], |g, vars| {
            let f = g.assemble_patches(vars[0], 2, 2, 4, 4)?;
            let q = g.mul(f, f)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn extract_patches_rejects_bad_rank() {
        let mut g = Graph::new();
        let v = g.leaf(Tensor::zeros(&[4]), true);
        assert!(g.extract_patches(v, 2, 2).is_err());
        let v4 = g.leaf(Tensor::zeros(&[1, 1, 4, 4]), true);
        assert!(g.extract_patches(v4, 2, 2).is_err());
    }

    #[test]
    fn tile_spatial_repeats_pattern() {
        let mut g = Graph::new();
        let pat = g.leaf(Tensor::arange(4).reshape(&[1, 2, 2]).unwrap(), true);
        let tiled = g.tile_spatial(pat, 2, 2).unwrap();
        assert_eq!(g.value(tiled).shape(), &[1, 4, 4]);
        // Top-left of every tile is element 0.
        assert_eq!(g.value(tiled).get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(g.value(tiled).get(&[0, 0, 2]).unwrap(), 0.0);
        assert_eq!(g.value(tiled).get(&[0, 2, 2]).unwrap(), 0.0);
        assert_eq!(g.value(tiled).get(&[0, 3, 3]).unwrap(), 3.0);
        let s = g.sum(tiled).unwrap();
        g.backward(s).unwrap();
        // Each pattern element contributes to 4 tiles.
        assert_eq!(g.grad(pat).unwrap().as_slice(), &[4.0; 4]);
    }

    #[test]
    fn tile_spatial_numeric() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Tensor::rand_uniform(&mut rng, &[2, 2, 3], -1.0, 1.0);
        check_gradients(&[a], |g, vars| {
            let t = g.tile_spatial(vars[0], 2, 2)?;
            let q = g.mul(t, t)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn tile_spatial_validation() {
        let mut g = Graph::new();
        let v2 = g.leaf(Tensor::zeros(&[2, 2]), true);
        assert!(g.tile_spatial(v2, 2, 2).is_err());
        let v3 = g.leaf(Tensor::zeros(&[1, 2, 2]), true);
        assert!(g.tile_spatial(v3, 0, 2).is_err());
    }
}
