//! 2-D and 3-D convolutions (direct loops, exact gradients).
//!
//! These exist to support the paper's baselines: C3D needs 3-D
//! convolutions over `[batch, channel, time, h, w]` video volumes, and the
//! SVC2D baseline composes the shift-variant layer in [`crate::svc`] with
//! ordinary 2-D convolutions.
//!
//! There is one kernel family: a forward pass and a backward pass over
//! volumes. A 2-D convolution of `[batch, channel, h, w]` runs as a volume
//! of depth 1, with kernel depth 1, stride `(1, s, s)` and padding
//! `(0, p, p)`. The kernels read every extent from a `Geometry` rather
//! than from tensor ranks, so the 2-D layer hands its 4-D tensors over as
//! they are, and its outputs and gradients keep their 4-D shapes. At depth
//! 1 the depth loops run once, with `iz = 0`, and every index reduces to
//! its 2-D form, so each output gets the same f32 operations a dedicated
//! 2-D loop nest would give it.

use crate::{kaiming_uniform, NnError, ParamId, ParamStore, Result, Session};
use rand::Rng;
use snappix_autograd::Var;
use snappix_tensor::{parallel, Tensor};

/// Multiply-adds each scoped worker must receive before it is worth
/// spawning, fed to [`parallel::workers_for`]. Convolution madds carry
/// index math and bounds checks, so the per-madd cost is several times a
/// matmul's and the floor sits lower — a slab of this size still runs on
/// the order of 100 µs.
const PAR_FLOPS_PER_WORKER: usize = 1 << 15;

/// Effective worker count for a convolution pass of `work` multiply-adds.
fn conv_workers(work: usize) -> usize {
    parallel::workers_for(work, PAR_FLOPS_PER_WORKER)
}

/// 2-D convolution over `[batch, in_ch, h, w]` inputs.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    bias: ParamId,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Registers a square-kernel convolution under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] for zero-sized kernel/stride/channels.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_ch == 0 || out_ch == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::Config {
                context: format!(
                    "conv2d {name}: in {in_ch}, out {out_ch}, kernel {kernel}, stride {stride}"
                ),
            });
        }
        let fan_in = in_ch * kernel * kernel;
        let weight = store.register(
            format!("{name}.weight"),
            kaiming_uniform(rng, &[out_ch, in_ch, kernel, kernel], fan_in),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_ch]));
        Ok(Conv2d {
            weight,
            bias,
            in_ch,
            out_ch,
            kernel,
            stride,
            padding,
        })
    }

    /// Applies the convolution.
    ///
    /// # Errors
    ///
    /// Fails for inputs that are not `[batch, in_ch, h, w]` or too small
    /// for the kernel.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let xs = sess.graph.value(x).shape().to_vec();
        if xs.len() != 4 || xs[1] != self.in_ch {
            return Err(NnError::Config {
                context: format!("conv2d expects [b, {}, h, w], got {xs:?}", self.in_ch),
            });
        }
        let (h, w) = (xs[2], xs[3]);
        if h + 2 * self.padding < self.kernel || w + 2 * self.padding < self.kernel {
            return Err(NnError::Config {
                context: format!("input {h}x{w} smaller than kernel {}", self.kernel),
            });
        }
        let geo = Geometry::planar(&xs, self.out_ch, self.kernel, self.stride, self.padding);
        conv_op(sess, x, self.weight, self.bias, geo)
    }
}

/// 3-D convolution over `[batch, in_ch, t, h, w]` video volumes, as used by
/// the C3D baseline (Tran et al., reproduced at small scale).
#[derive(Debug, Clone)]
pub struct Conv3d {
    weight: ParamId,
    bias: ParamId,
    in_ch: usize,
    out_ch: usize,
    kernel: [usize; 3],
    stride: [usize; 3],
    padding: [usize; 3],
}

impl Conv3d {
    /// Registers a 3-D convolution under `name` with `(t, h, w)` kernel,
    /// stride and padding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] for zero-sized kernel/stride/channels.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
        padding: (usize, usize, usize),
        rng: &mut R,
    ) -> Result<Self> {
        let kernel = [kernel.0, kernel.1, kernel.2];
        let stride = [stride.0, stride.1, stride.2];
        if in_ch == 0 || out_ch == 0 || kernel.contains(&0) || stride.contains(&0) {
            return Err(NnError::Config {
                context: format!("conv3d {name}: degenerate kernel/stride/channels"),
            });
        }
        let fan_in = in_ch * kernel.iter().product::<usize>();
        let weight = store.register(
            format!("{name}.weight"),
            kaiming_uniform(
                rng,
                &[out_ch, in_ch, kernel[0], kernel[1], kernel[2]],
                fan_in,
            ),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_ch]));
        Ok(Conv3d {
            weight,
            bias,
            in_ch,
            out_ch,
            kernel,
            stride,
            padding: [padding.0, padding.1, padding.2],
        })
    }

    /// Applies the convolution.
    ///
    /// # Errors
    ///
    /// Fails for inputs that are not `[batch, in_ch, t, h, w]` or smaller
    /// than the kernel after padding.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let xs = sess.graph.value(x).shape().to_vec();
        if xs.len() != 5 || xs[1] != self.in_ch {
            return Err(NnError::Config {
                context: format!("conv3d expects [b, {}, t, h, w], got {xs:?}", self.in_ch),
            });
        }
        let (dims, k, p) = ([xs[2], xs[3], xs[4]], self.kernel, self.padding);
        if (0..3).any(|i| dims[i] + 2 * p[i] < k[i]) {
            return Err(NnError::Config {
                context: format!("input {dims:?} smaller than kernel {k:?}"),
            });
        }
        let geo = Geometry::volume(&xs, self.out_ch, k, self.stride, p);
        conv_op(sess, x, self.weight, self.bias, geo)
    }
}

/// Extents of one convolution over `[batch, cin, t, h, w]` volumes, which
/// the kernels read in place of tensor ranks.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    batch: usize,
    cin: usize,
    cout: usize,
    /// Input `(t, h, w)`.
    input: [usize; 3],
    /// Kernel `(t, h, w)`.
    kernel: [usize; 3],
    stride: [usize; 3],
    pad: [usize; 3],
    /// Output `(t, h, w)`.
    out: [usize; 3],
    /// Whether the tensors carry the depth axis (`false` for 2-D's
    /// `[batch, c, h, w]`, which is depth 1).
    depth_axis: bool,
}

impl Geometry {
    /// A `[batch, cin, t, h, w]` input (`x` is its shape) under a
    /// `[cout, cin, kt, kh, kw]` weight.
    fn volume(
        x: &[usize],
        cout: usize,
        kernel: [usize; 3],
        stride: [usize; 3],
        pad: [usize; 3],
    ) -> Self {
        let input = [x[2], x[3], x[4]];
        Geometry {
            batch: x[0],
            cin: x[1],
            cout,
            input,
            kernel,
            stride,
            pad,
            out: std::array::from_fn(|i| (input[i] + 2 * pad[i] - kernel[i]) / stride[i] + 1),
            depth_axis: true,
        }
    }

    /// A `[batch, cin, h, w]` input under a `[cout, cin, k, k]` weight: a
    /// volume of depth 1 with kernel depth 1, stride `(1, s, s)` and
    /// padding `(0, p, p)`.
    fn planar(x: &[usize], cout: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Geometry {
            depth_axis: false,
            ..Self::volume(
                &[x[0], x[1], 1, x[2], x[3]],
                cout,
                [1, kernel, kernel],
                [1, stride, stride],
                [0, pad, pad],
            )
        }
    }

    /// Shape of the output tensor, with the depth axis only when the input
    /// has one.
    fn out_shape(&self) -> Vec<usize> {
        let [ot, oh, ow] = self.out;
        if self.depth_axis {
            vec![self.batch, self.cout, ot, oh, ow]
        } else {
            vec![self.batch, self.cout, oh, ow]
        }
    }

    /// Multiply-adds in one pass, which sizes the worker split.
    fn work(&self) -> usize {
        let (out, kernel) = (self.out.iter(), self.kernel.iter());
        self.batch * self.cout * out.product::<usize>() * self.cin * kernel.product::<usize>()
    }
}

/// Binds `weight` and `bias` and records the convolution of `x` under
/// `geo` as one tape node, whose backward runs `conv_backward`.
fn conv_op(
    sess: &mut Session<'_>,
    x: Var,
    weight: ParamId,
    bias: ParamId,
    geo: Geometry,
) -> Result<Var> {
    let wv = sess.param(weight);
    let bv = sess.param(bias);
    let value = conv_forward(
        &geo,
        sess.graph.value(x),
        sess.graph.value(wv),
        sess.graph.value(bv),
    );
    Ok(sess
        .graph
        .custom_op(value, vec![x, wv, bv], move |g, parents| {
            conv_backward(&geo, g, parents[0], parents[1])
        })?)
}

/// Batched convolution forward pass, parallel over the `batch x cout`
/// output volumes. Each volume is written by exactly one worker in the
/// historical loop order, so results are bit-for-bit identical at every
/// thread count (the parity tests assert this).
fn conv_forward(geo: &Geometry, x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let Geometry {
        cin,
        cout,
        input: [t, h, wid],
        kernel: [kt, kh, kw],
        stride,
        pad,
        out: [ot, oh, ow],
        ..
    } = *geo;
    let mut out = Tensor::zeros(&geo.out_shape());
    let (xs, ws, bs) = (x.as_slice(), w.as_slice(), b.as_slice());
    let os = out.as_mut_slice();
    let volume = |pi: usize, dst: &mut [f32]| {
        let (bi, f) = (pi / cout, pi % cout);
        for oz in 0..ot {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bs[f];
                    for c in 0..cin {
                        for kz in 0..kt {
                            let iz = (oz * stride[0] + kz) as isize - pad[0] as isize;
                            if iz < 0 || iz as usize >= t {
                                continue;
                            }
                            for ky in 0..kh {
                                let iy = (oy * stride[1] + ky) as isize - pad[1] as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = (ox * stride[2] + kx) as isize - pad[2] as isize;
                                    if ix < 0 || ix as usize >= wid {
                                        continue;
                                    }
                                    let xi = (((bi * cin + c) * t + iz as usize) * h + iy as usize)
                                        * wid
                                        + ix as usize;
                                    let wi = (((f * cin + c) * kt + kz) * kh + ky) * kw + kx;
                                    acc += xs[xi] * ws[wi];
                                }
                            }
                        }
                    }
                    dst[(oz * oh + oy) * ow + ox] = acc;
                }
            }
        }
    };
    // With one worker, par_chunks_mut runs the volumes in order on the
    // calling thread — the serial reference path.
    parallel::with_threads(conv_workers(geo.work()), || {
        parallel::par_chunks_mut(os, ot * oh * ow, volume)
    });
    out
}

/// Batched convolution backward pass: `[dx, dw, db]` for upstream
/// gradient `g`.
///
/// The historical single loop fused the three gradients; accumulating
/// `dx` (shared across `cout`) and `dw` (shared across `batch`) from one
/// loop nest cannot be split across workers without locks, so the pass is
/// restructured as three independent sweeps: `dx` parallel over `batch`,
/// `dw` parallel over `cout`, and the tiny `db` reduction serial. Per
/// gradient element the accumulation order matches the fused loop exactly
/// (bit-for-bit at every thread count), because the fused loop already
/// ordered contributions `(f, oz, oy, ox)`-major for `dx` and
/// `(bi, oz, oy, ox)`-major for `dw`.
///
/// The `go == 0.0` skips are kept deliberately, unlike the forward
/// matmul's IEEE-incorrect zero-skip that was removed: upstream
/// gradients are routinely *structurally* zero (ReLU masks, clipped
/// losses, one-hot targets), the skip is a large win there, and a
/// gradient that fails to propagate `0 x NaN` does not mask a blowup —
/// the forward pass producing the NaN already reports it.
fn conv_backward(geo: &Geometry, g: &Tensor, x: &Tensor, w: &Tensor) -> Vec<Tensor> {
    let Geometry {
        batch,
        cin,
        cout,
        input: [t, h, wid],
        kernel: [kt, kh, kw],
        stride,
        pad,
        out: [ot, oh, ow],
        ..
    } = *geo;
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros(&[cout]);
    let (gs, xs, ws) = (g.as_slice(), x.as_slice(), w.as_slice());

    // dx: each worker owns one batch element's input gradient.
    let dx_batch = |bi: usize, dxb: &mut [f32]| {
        for f in 0..cout {
            for oz in 0..ot {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = gs[(((bi * cout + f) * ot + oz) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        for c in 0..cin {
                            for kz in 0..kt {
                                let iz = (oz * stride[0] + kz) as isize - pad[0] as isize;
                                if iz < 0 || iz as usize >= t {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = (oy * stride[1] + ky) as isize - pad[1] as isize;
                                    if iy < 0 || iy as usize >= h {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * stride[2] + kx) as isize - pad[2] as isize;
                                        if ix < 0 || ix as usize >= wid {
                                            continue;
                                        }
                                        dxb[((c * t + iz as usize) * h + iy as usize) * wid
                                            + ix as usize] += go
                                            * ws[(((f * cin + c) * kt + kz) * kh + ky) * kw + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    };
    // dw: each worker owns one output filter's weight gradient.
    let dw_filter = |f: usize, dwf: &mut [f32]| {
        for bi in 0..batch {
            for oz in 0..ot {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = gs[(((bi * cout + f) * ot + oz) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        for c in 0..cin {
                            for kz in 0..kt {
                                let iz = (oz * stride[0] + kz) as isize - pad[0] as isize;
                                if iz < 0 || iz as usize >= t {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = (oy * stride[1] + ky) as isize - pad[1] as isize;
                                    if iy < 0 || iy as usize >= h {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * stride[2] + kx) as isize - pad[2] as isize;
                                        if ix < 0 || ix as usize >= wid {
                                            continue;
                                        }
                                        dwf[((c * kt + kz) * kh + ky) * kw + kx] += go
                                            * xs[(((bi * cin + c) * t + iz as usize) * h
                                                + iy as usize)
                                                * wid
                                                + ix as usize];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    };
    {
        let dxs = dx.as_mut_slice();
        let dws = dw.as_mut_slice();
        parallel::with_threads(conv_workers(geo.work()), || {
            parallel::par_chunks_mut(dxs, cin * t * h * wid, dx_batch);
            parallel::par_chunks_mut(dws, cin * kt * kh * kw, dw_filter);
        });
        let dbs = db.as_mut_slice();
        let vol = ot * oh * ow;
        for (f, dbf) in dbs.iter_mut().enumerate() {
            for bi in 0..batch {
                let plane = &gs[(bi * cout + f) * vol..(bi * cout + f + 1) * vol];
                for &go in plane {
                    if go != 0.0 {
                        *dbf += go;
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
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 and zero bias reproduces the input.
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 1, 1, 1, 1, 0, &mut rng).unwrap();
        let ids = store.ids();
        *store.value_mut(ids[0]) = Tensor::ones(&[1, 1, 1, 1]);
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 3, 3], -1.0, 1.0);
        let mut sess = Session::inference(&store);
        let xv = sess.input(x.clone());
        let y = conv.forward(&mut sess, xv).unwrap();
        assert!(sess.graph.value(y).approx_eq(&x, 1e-6));
    }

    #[test]
    fn conv2d_shapes_with_stride_and_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 2, 3, 3, 2, 1, &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[2, 2, 8, 8]));
        let y = conv.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn conv2d_validation() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        assert!(Conv2d::new(&mut store, "c", 0, 1, 3, 1, 0, &mut rng).is_err());
        assert!(Conv2d::new(&mut store, "c", 1, 1, 0, 1, 0, &mut rng).is_err());
        let conv = Conv2d::new(&mut store, "c", 1, 1, 3, 1, 0, &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let bad_ch = sess.input(Tensor::zeros(&[1, 2, 8, 8]));
        assert!(conv.forward(&mut sess, bad_ch).is_err());
        let too_small = sess.input(Tensor::zeros(&[1, 1, 2, 2]));
        assert!(conv.forward(&mut sess, too_small).is_err());
    }

    #[test]
    fn conv2d_gradients_numeric() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[2, 2, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[2], -0.5, 0.5);
        check_gradients(&[x, w, b], |g, vars| {
            let geo = Geometry::planar(g.value(vars[0]).shape(), 2, 3, 1, 1);
            let value = conv_forward(&geo, g.value(vars[0]), g.value(vars[1]), g.value(vars[2]));
            let y = g.custom_op(
                value,
                vec![vars[0], vars[1], vars[2]],
                move |up, parents| conv_backward(&geo, up, parents[0], parents[1]),
            )?;
            let q = g.mul(y, y)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn conv3d_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let conv = Conv3d::new(
            &mut store,
            "c3",
            1,
            4,
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
            &mut rng,
        )
        .unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[1, 1, 8, 8, 8]));
        let y = conv.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[1, 4, 8, 8, 8]);
    }

    #[test]
    fn conv3d_gradients_numeric() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 3, 4, 4], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[2, 1, 2, 2, 2], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[2], -0.5, 0.5);
        check_gradients(&[x, w, b], |g, vars| {
            let geo =
                Geometry::volume(g.value(vars[0]).shape(), 2, [2, 2, 2], [1, 1, 1], [0, 0, 0]);
            let value = conv_forward(&geo, g.value(vars[0]), g.value(vars[1]), g.value(vars[2]));
            let y = g.custom_op(
                value,
                vec![vars[0], vars[1], vars[2]],
                move |up, parents| conv_backward(&geo, up, parents[0], parents[1]),
            )?;
            let q = g.mul(y, y)?;
            g.sum(q)
        })
        .unwrap();
    }

    /// Forward and backward must be bit-for-bit identical across thread
    /// counts 1, 2 and > batch*cout, on odd shapes with stride and
    /// padding (micro-split remainders on every axis).
    #[test]
    fn conv2d_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(7);
        // Sized for >= 2 workers' worth of PAR_FLOPS_PER_WORKER so the
        // parallel path actually engages (4*6 planes of 10x11 outputs,
        // 27-element kernels).
        let x = Tensor::rand_uniform(&mut rng, &[4, 3, 19, 21], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[6, 3, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[6], -0.5, 0.5);
        let geo = Geometry::planar(x.shape(), 6, 3, 2, 1);
        let y_ref = with_threads(1, || conv_forward(&geo, &x, &w, &b));
        let g = Tensor::rand_uniform(&mut rng, y_ref.shape(), -1.0, 1.0);
        let grads_ref = with_threads(1, || conv_backward(&geo, &g, &x, &w));
        for threads in [2usize, 4, 4 * 6 + 2] {
            let y = with_threads(threads, || conv_forward(&geo, &x, &w, &b));
            assert_eq!(y.as_slice(), y_ref.as_slice(), "{threads} threads");
            let grads = with_threads(threads, || conv_backward(&geo, &g, &x, &w));
            for (got, want) in grads.iter().zip(&grads_ref) {
                assert_eq!(got.as_slice(), want.as_slice(), "{threads} threads");
            }
        }
    }

    #[test]
    fn conv3d_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(8);
        // >= 4 workers' worth of PAR_FLOPS_PER_WORKER (3*4 volumes of
        // 7x5x9 outputs, 36-element kernels).
        let x = Tensor::rand_uniform(&mut rng, &[3, 2, 6, 9, 11], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[4, 2, 2, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[4], -0.5, 0.5);
        let geo = Geometry::volume(x.shape(), 4, [2, 3, 3], [1, 2, 1], [1, 1, 0]);
        let y_ref = with_threads(1, || conv_forward(&geo, &x, &w, &b));
        let g = Tensor::rand_uniform(&mut rng, y_ref.shape(), -1.0, 1.0);
        let grads_ref = with_threads(1, || conv_backward(&geo, &g, &x, &w));
        for threads in [2usize, 3 * 4 + 5] {
            let y = with_threads(threads, || conv_forward(&geo, &x, &w, &b));
            assert_eq!(y.as_slice(), y_ref.as_slice(), "{threads} threads");
            let grads = with_threads(threads, || conv_backward(&geo, &g, &x, &w));
            for (got, want) in grads.iter().zip(&grads_ref) {
                assert_eq!(got.as_slice(), want.as_slice(), "{threads} threads");
            }
        }
    }

    /// The 2-D layer must be the 3-D layer run at depth 1 (kernel depth 1,
    /// stride `(1, s, s)`, padding `(0, p, p)`), bit for bit: the forward
    /// output and all three gradients, over random geometries with odd
    /// extents and an upstream gradient with structural zeros, at 1, 2 and
    /// many threads.
    #[test]
    fn conv2d_is_conv3d_at_depth_one() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(9);
        for case in 0..24 {
            let batch = rng.random_range(1..=3usize);
            let (cin, cout) = (rng.random_range(1..=3usize), rng.random_range(1..=5usize));
            let kernel = rng.random_range(1..=4usize);
            let stride = rng.random_range(1..=3usize);
            let pad = rng.random_range(0..=2usize);
            let h = kernel + 2 * rng.random_range(0..=8usize) + 1;
            let wid = kernel + 2 * rng.random_range(0..=8usize) + 2;
            let (oh, ow) = (
                (h + 2 * pad - kernel) / stride + 1,
                (wid + 2 * pad - kernel) / stride + 1,
            );
            let mut store = ParamStore::new();
            let flat =
                Conv2d::new(&mut store, "c2", cin, cout, kernel, stride, pad, &mut rng).unwrap();
            let deep = Conv3d::new(
                &mut store,
                "c3",
                cin,
                cout,
                (1, kernel, kernel),
                (1, stride, stride),
                (0, pad, pad),
                &mut rng,
            )
            .unwrap();
            let ids = store.ids();
            let w = store.value(ids[0]).clone();
            let b = Tensor::rand_uniform(&mut rng, &[cout], -0.5, 0.5);
            *store.value_mut(ids[1]) = b.clone();
            *store.value_mut(ids[2]) = w.reshape(&[cout, cin, 1, kernel, kernel]).unwrap();
            *store.value_mut(ids[3]) = b;
            let x = Tensor::rand_uniform(&mut rng, &[batch, cin, h, wid], -1.0, 1.0);
            let up = Tensor::rand_uniform(&mut rng, &[batch, cout, oh, ow], -1.0, 1.0).map(|v| {
                if v.abs() < 0.4 {
                    0.0
                } else {
                    v
                }
            });
            // Forward value, dx, dw and db as bit patterns.
            let run = |depth_one: bool| -> Vec<Vec<u32>> {
                let mut sess = Session::new(&store);
                let (xt, gt, layer) = if depth_one {
                    let x5 = x.reshape(&[batch, cin, 1, h, wid]).unwrap();
                    let g5 = up.reshape(&[batch, cout, 1, oh, ow]).unwrap();
                    (x5, g5, 1)
                } else {
                    (x.clone(), up.clone(), 0)
                };
                let xv = sess.graph.leaf(xt, true);
                let y = if depth_one {
                    deep.forward(&mut sess, xv).unwrap()
                } else {
                    flat.forward(&mut sess, xv).unwrap()
                };
                let gv = sess.input(gt);
                let weighted = sess.graph.mul(y, gv).unwrap();
                let loss = sess.graph.sum(weighted).unwrap();
                let value = sess.graph.value(y).clone();
                let grads = sess.backward(loss).unwrap();
                let dx = sess.graph.grad(xv).unwrap().clone();
                let (dw, db) = (grads.get(ids[2 * layer]), grads.get(ids[2 * layer + 1]));
                [&value, &dx, dw.unwrap(), db.unwrap()]
                    .iter()
                    .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            for threads in [1usize, 2, 16] {
                let (got, want) = with_threads(threads, || (run(false), run(true)));
                for (what, (g, w)) in ["y", "dx", "dw", "db"].iter().zip(got.iter().zip(&want)) {
                    assert_eq!(
                        g, w,
                        "case {case} {what}: b{batch} c{cin}->{cout} k{kernel} s{stride} \
                         p{pad} {h}x{wid}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn conv3d_validation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        assert!(Conv3d::new(
            &mut store,
            "c",
            1,
            1,
            (0, 3, 3),
            (1, 1, 1),
            (0, 0, 0),
            &mut rng
        )
        .is_err());
        let conv = Conv3d::new(
            &mut store,
            "c",
            2,
            1,
            (3, 3, 3),
            (1, 1, 1),
            (0, 0, 0),
            &mut rng,
        )
        .unwrap();
        let mut sess = Session::inference(&store);
        let bad = sess.input(Tensor::zeros(&[1, 1, 8, 8, 8]));
        assert!(conv.forward(&mut sess, bad).is_err());
        let small = sess.input(Tensor::zeros(&[1, 2, 2, 8, 8]));
        assert!(conv.forward(&mut sess, small).is_err());
    }
}
