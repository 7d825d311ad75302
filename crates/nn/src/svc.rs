//! Shift-variant convolution (Okawara et al., reproduced for the SVC2D
//! baseline).
//!
//! A standard convolution applies the same kernel at every pixel, which is
//! wrong for coded-exposure images where each pixel's exposure pattern
//! differs. A *shift-variant* convolution keeps one kernel bank per
//! position inside the exposure tile: the kernel used at output pixel
//! `(y, x)` is selected by `(y % th, x % tw)`. SnapPix's profiling found
//! this layer slows inference by ~4x, which motivates the ViT co-design —
//! the inf/sec column of the `table1` bin (`snappix-bench`) reproduces
//! that comparison.

use crate::{kaiming_uniform, NnError, ParamId, ParamStore, Result, Session};
use rand::Rng;
use snappix_autograd::Var;
use snappix_tensor::Tensor;

/// Shift-variant 2-D convolution over `[batch, in_ch, h, w]`, stride 1,
/// `same` padding (odd kernels only).
#[derive(Debug, Clone)]
pub struct ShiftVariantConv2d {
    weight: ParamId,
    bias: ParamId,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    tile: (usize, usize),
}

impl ShiftVariantConv2d {
    /// Registers a shift-variant convolution whose kernel bank repeats with
    /// the `(th, tw)` exposure tile.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] for zero extents or an even kernel (the
    /// `same` padding scheme requires odd kernels).
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        tile: (usize, usize),
        rng: &mut R,
    ) -> Result<Self> {
        if in_ch == 0 || out_ch == 0 || kernel == 0 || tile.0 == 0 || tile.1 == 0 {
            return Err(NnError::Config {
                context: format!("svc {name}: degenerate configuration"),
            });
        }
        if kernel.is_multiple_of(2) {
            return Err(NnError::Config {
                context: format!("svc {name}: kernel {kernel} must be odd for same padding"),
            });
        }
        let fan_in = in_ch * kernel * kernel;
        let weight = store.register(
            format!("{name}.weight"),
            kaiming_uniform(
                rng,
                &[tile.0 * tile.1, out_ch, in_ch, kernel, kernel],
                fan_in,
            ),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_ch]));
        Ok(ShiftVariantConv2d {
            weight,
            bias,
            in_ch,
            out_ch,
            kernel,
            tile,
        })
    }

    /// Applies the shift-variant convolution.
    ///
    /// # Errors
    ///
    /// Fails for inputs that are not `[batch, in_ch, h, w]`.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let xs = sess.graph.value(x).shape().to_vec();
        if xs.len() != 4 || xs[1] != self.in_ch {
            return Err(NnError::Config {
                context: format!("svc expects [b, {}, h, w], got {xs:?}", self.in_ch),
            });
        }
        let wv = sess.param(self.weight);
        let bv = sess.param(self.bias);
        let tile = self.tile;
        let (out_ch, kernel) = (self.out_ch, self.kernel);
        let value = svc_forward(
            sess.graph.value(x),
            sess.graph.value(wv),
            sess.graph.value(bv),
            tile,
            out_ch,
            kernel,
        );
        Ok(sess
            .graph
            .custom_op(value, &[x, wv, bv], move |g, parents| {
                svc_backward(g, parents[0], parents[1], tile, kernel)
            })?)
    }
}

fn svc_forward(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    (th, tw): (usize, usize),
    out_ch: usize,
    kernel: usize,
) -> Tensor {
    let s = x.shape();
    let (batch, cin, h, wid) = (s[0], s[1], s[2], s[3]);
    let pad = kernel / 2;
    let mut out = Tensor::zeros(&[batch, out_ch, h, wid]);
    let (xs, ws, bs) = (x.as_slice(), w.as_slice(), b.as_slice());
    let os = out.as_mut_slice();
    for bi in 0..batch {
        for f in 0..out_ch {
            for oy in 0..h {
                for ox in 0..wid {
                    let bank = (oy % th) * tw + (ox % tw);
                    let mut acc = bs[f];
                    for c in 0..cin {
                        for ky in 0..kernel {
                            let iy = (oy + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..kernel {
                                let ix = (ox + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= wid {
                                    continue;
                                }
                                acc += xs[((bi * cin + c) * h + iy as usize) * wid + ix as usize]
                                    * ws[(((bank * out_ch + f) * cin + c) * kernel + ky) * kernel
                                        + kx];
                            }
                        }
                    }
                    os[((bi * out_ch + f) * h + oy) * wid + ox] = acc;
                }
            }
        }
    }
    out
}

fn svc_backward(
    g: &Tensor,
    x: &Tensor,
    w: &Tensor,
    (th, tw): (usize, usize),
    kernel: usize,
) -> Vec<Tensor> {
    let s = x.shape();
    let (batch, cin, h, wid) = (s[0], s[1], s[2], s[3]);
    let out_ch = g.shape()[1];
    let pad = kernel / 2;
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros(&[out_ch]);
    let (gs, xs, ws) = (g.as_slice(), x.as_slice(), w.as_slice());
    {
        let dxs = dx.as_mut_slice();
        let dws = dw.as_mut_slice();
        let dbs = db.as_mut_slice();
        for bi in 0..batch {
            for f in 0..out_ch {
                for oy in 0..h {
                    for ox in 0..wid {
                        let go = gs[((bi * out_ch + f) * h + oy) * wid + ox];
                        if go == 0.0 {
                            continue;
                        }
                        dbs[f] += go;
                        let bank = (oy % th) * tw + (ox % tw);
                        for c in 0..cin {
                            for ky in 0..kernel {
                                let iy = (oy + ky) as isize - pad as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..kernel {
                                    let ix = (ox + kx) as isize - pad as isize;
                                    if ix < 0 || ix as usize >= wid {
                                        continue;
                                    }
                                    let xi = ((bi * cin + c) * h + iy as usize) * wid + ix as usize;
                                    let wi = (((bank * out_ch + f) * cin + c) * kernel + ky)
                                        * kernel
                                        + kx;
                                    dxs[xi] += go * ws[wi];
                                    dws[wi] += go * xs[xi];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    vec![dx, dw, db]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use snappix_autograd::check_gradients;

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        assert!(ShiftVariantConv2d::new(&mut store, "s", 1, 1, 2, (2, 2), &mut rng).is_err());
        assert!(ShiftVariantConv2d::new(&mut store, "s", 1, 1, 3, (0, 2), &mut rng).is_err());
        assert!(ShiftVariantConv2d::new(&mut store, "s", 1, 2, 3, (2, 2), &mut rng).is_ok());
    }

    #[test]
    fn same_padding_preserves_extent() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let svc = ShiftVariantConv2d::new(&mut store, "s", 1, 3, 3, (2, 2), &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[2, 1, 8, 8]));
        let y = svc.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn different_tile_positions_use_different_kernels() {
        // With a 1x1 kernel and a 1x2 tile, even and odd columns apply
        // different weights.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let svc = ShiftVariantConv2d::new(&mut store, "s", 1, 1, 1, (1, 2), &mut rng).unwrap();
        let ids = store.ids();
        *store.value_mut(ids[0]) = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1, 1]).unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::ones(&[1, 1, 1, 4]));
        let y = svc.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).as_slice(), &[2.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn gradients_numeric() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 4, 4], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[4, 2, 1, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[2], -0.5, 0.5);
        check_gradients(&[x, w, b], |g, vars| {
            let value = svc_forward(
                g.value(vars[0]),
                g.value(vars[1]),
                g.value(vars[2]),
                (2, 2),
                2,
                3,
            );
            let y = g.custom_op(value, &[vars[0], vars[1], vars[2]], |up, parents| {
                svc_backward(up, parents[0], parents[1], (2, 2), 3)
            })?;
            let q = g.mul(y, y)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn rejects_wrong_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let svc = ShiftVariantConv2d::new(&mut store, "s", 2, 1, 3, (2, 2), &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let bad = sess.input(Tensor::zeros(&[1, 1, 4, 4]));
        assert!(svc.forward(&mut sess, bad).is_err());
    }
}
