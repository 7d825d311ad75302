//! Linear algebra, reshaping and reduction operations with gradients.

use crate::graph::reduce_to_shape;
use crate::{AutogradError, Graph, Result, Var};
use snappix_tensor::{math, parallel, Tensor};

impl Graph {
    /// Matrix multiplication (rank-2, batched rank-3, or rank-3 by shared
    /// rank-2 right-hand side), mirroring
    /// [`snappix_tensor::Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Fails on inner-dimension mismatches or foreign handles.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let value = self.value(a).matmul(self.value(b))?;
        let ranks = (self.value(a).rank(), self.value(b).rank());
        Ok(self.push_op(
            value,
            vec![a, b],
            Box::new(move |g, parents| matmul_grads(ranks, g, parents[0], parents[1]).into()),
        ))
    }

    /// Transposes the last two axes.
    ///
    /// # Errors
    ///
    /// Fails for rank < 2 or a foreign handle.
    pub fn transpose(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).transpose()?;
        Ok(self.push_op(
            value,
            vec![a],
            Box::new(|g, _| vec![g.transpose().expect("rank >= 2")]),
        ))
    }

    /// Permutes axes; backward applies the inverse permutation.
    ///
    /// # Errors
    ///
    /// Fails unless `perm` is a permutation of `0..rank`.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).permute(perm)?;
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        Ok(self.push_op(
            value,
            vec![a],
            Box::new(move |g, _| vec![g.permute(&inverse).expect("inverse permutation")]),
        ))
    }

    /// Reshapes without changing data.
    ///
    /// # Errors
    ///
    /// Fails when the element counts differ.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).reshape(shape)?;
        Ok(self.push_op(
            value,
            vec![a],
            Box::new(|g, parents| vec![g.reshape(parents[0].shape()).expect("same length")]),
        ))
    }

    /// Sum of all elements, producing a scalar.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn sum(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        let value = Tensor::scalar(self.value(a).sum());
        Ok(self.push_op(
            value,
            vec![a],
            Box::new(|g, parents| {
                let s = g.as_slice()[0];
                vec![Tensor::full(parents[0].shape(), s)]
            }),
        ))
    }

    /// Mean of all elements, producing a scalar.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn mean(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        let n = self.value(a).len().max(1) as f32;
        let value = Tensor::scalar(self.value(a).mean());
        Ok(self.push_op(
            value,
            vec![a],
            Box::new(move |g, parents| {
                let s = g.as_slice()[0] / n;
                vec![Tensor::full(parents[0].shape(), s)]
            }),
        ))
    }

    /// Sums along `axis`, keeping it with extent 1 when `keepdims`.
    ///
    /// # Errors
    ///
    /// Fails when `axis >= rank`.
    pub fn sum_axis(&mut self, a: Var, axis: usize, keepdims: bool) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).sum_axis(axis, keepdims)?;
        Ok(self.push_op(
            value,
            vec![a],
            Box::new(move |g, parents| {
                let target = parents[0].shape();
                let g_keep = if keepdims {
                    g.clone()
                } else {
                    g.unsqueeze(axis).expect("axis valid in forward")
                };
                vec![g_keep.broadcast_to(target).expect("unit axis expands")]
            }),
        ))
    }

    /// Means along `axis`, keeping it with extent 1 when `keepdims`.
    ///
    /// # Errors
    ///
    /// Fails when `axis >= rank`.
    pub fn mean_axis(&mut self, a: Var, axis: usize, keepdims: bool) -> Result<Var> {
        self.check(a)?;
        let n = *self
            .value(a)
            .shape()
            .get(axis)
            .ok_or(AutogradError::Tensor(
                snappix_tensor::TensorError::AxisOutOfRange {
                    axis,
                    rank: self.value(a).rank(),
                },
            ))? as f32;
        let s = self.sum_axis(a, axis, keepdims)?;
        self.scale(s, 1.0 / n.max(1.0))
    }

    /// Softmax along the last axis.
    ///
    /// # Errors
    ///
    /// Fails for rank-0 tensors.
    pub fn softmax(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        let value = self.value(a).softmax_last()?;
        Ok(self.push_op_keeping_output(value, a, softmax_backward))
    }

    /// Multi-head scaled dot-product attention as one tape node: for each
    /// of `heads` heads of width `dh = dim / heads`,
    /// `softmax(q_h k_hᵀ / sqrt(dh)) v_h`, merged back into the
    /// `[batch, seq, dim]` shape of `q`, `k` and `v`.
    ///
    /// Head `h` owns columns `h·dh..(h+1)·dh` of every token row. The
    /// node reads those columns by stride straight out of `q`, `k` and
    /// `v`, and writes the head's context into the same columns of the
    /// output, so no split or merged copy of a tensor is made. Per clip
    /// and head it stages `k_hᵀ` in one `dh × seq` scratch buffer, which
    /// makes each score row an axpy over the keys.
    ///
    /// The f32 sequence is that of the 17-node composite this node
    /// replaces (reshape, permute and reshape to split each input into
    /// `[batch·heads, seq, dh]`, then `transpose`, `matmul`, `scale`,
    /// `softmax`, `matmul`, and reshape, permute and reshape to merge):
    /// - each score is an ascending-`p` sum from `+0.0` of
    ///   `q[i, p] · k[j, p]`, then times `1 / sqrt(dh)`;
    /// - each score row goes through [`math::softmax_in_place`], the helper
    ///   behind [`Tensor::softmax_last`];
    /// - each output is an ascending-`j` sum from `+0.0` of
    ///   `a_j · v[j, c]`.
    ///
    /// The value is therefore bit-identical to the composite. The backward
    /// replays the composite's tensor-level gradient ops in its order:
    /// undo the merge, the `matmul` gradients of `attn · v_h`, the softmax
    /// backward on the kept probabilities, `scale`, the `matmul` gradients
    /// of `q_h · k_hᵀ`, `transpose`, and undo the split, so the gradients
    /// of `q`, `k` and `v` are bit-identical too. The probabilities are
    /// kept only when an input needs a gradient; an inference tape keeps
    /// nothing extra.
    ///
    /// # Errors
    ///
    /// Fails unless `q`, `k` and `v` share one `[batch, seq, dim]` shape
    /// with `dim` a nonzero multiple of `heads`.
    pub fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize) -> Result<Var> {
        self.check(q)?;
        self.check(k)?;
        self.check(v)?;
        let (qv, kv, vv) = (self.value(q), self.value(k), self.value(v));
        let layout = match *qv.shape() {
            [batch, seq, dim]
                if kv.shape() == qv.shape()
                    && vv.shape() == qv.shape()
                    && heads > 0
                    && dim > 0
                    && dim.is_multiple_of(heads) =>
            {
                Heads {
                    batch,
                    seq,
                    dim,
                    heads,
                    dh: dim / heads,
                }
            }
            _ => {
                let context = format!(
                    "attention over {heads} heads needs one [batch, seq, dim] shape for q, k \
                     and v with heads dividing dim, got {:?}, {:?} and {:?}",
                    qv.shape(),
                    kv.shape(),
                    vv.shape()
                );
                return Err(AutogradError::Tensor(
                    snappix_tensor::TensorError::IncompatibleShapes { context },
                ));
            }
        };
        let keep = [q, k, v].iter().any(|p| self.nodes[p.0].needs_grad);
        let (value, probs) = attention_forward(qv, kv, vv, layout, keep);
        Ok(self.push_op(
            value,
            vec![q, k, v],
            Box::new(move |g, parents| {
                let probs = probs.as_ref().expect("kept when a gradient is needed");
                attention_backward(g, parents, probs, layout)
            }),
        ))
    }

    /// Layer normalization over the last axis with learnable `gamma`/`beta`
    /// of shape `[d]` for input `[..., d]`, as one tape node.
    ///
    /// Each row runs the f32 sequence of the primitive composite
    /// `mean_axis`, `sub`, `mul`, `mean_axis`, `add_scalar`, `powf(-0.5)`,
    /// `mul`, `mul`, `add`: an ascending sum times `1/d`, centre, square,
    /// an ascending sum times `1/d`, `+ eps`, `powf(-0.5)`, `× gamma`,
    /// `+ beta`. The output is therefore bit-identical to that composite.
    /// The backward is analytic.
    ///
    /// # Errors
    ///
    /// Fails for a rank-0 input, or when `gamma` or `beta` is not `[d]`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Result<Var> {
        self.check(x)?;
        self.check(gamma)?;
        self.check(beta)?;
        let (xv, gv, bv) = (self.value(x), self.value(gamma), self.value(beta));
        let d = *xv
            .shape()
            .last()
            .ok_or(AutogradError::NotScalar { shape: vec![] })?;
        if gv.shape() != [d] || bv.shape() != [d] {
            return Err(AutogradError::Tensor(
                snappix_tensor::TensorError::IncompatibleShapes {
                    context: format!(
                        "layer_norm of {:?} needs gamma and beta of [{d}], got {:?} and {:?}",
                        xv.shape(),
                        gv.shape(),
                        bv.shape()
                    ),
                },
            ));
        }
        let mut value = xv.clone();
        let (gs, bs) = (gv.as_slice(), bv.as_slice());
        let stats = row_stats(xv.as_slice(), d, eps);
        for (row, (mean, inv_std)) in value.as_mut_slice().chunks_exact_mut(d.max(1)).zip(stats) {
            for ((y, &g), &b) in row.iter_mut().zip(gs).zip(bs) {
                *y = (*y - mean) * inv_std * g + b;
            }
        }
        Ok(self.push_op(
            value,
            vec![x, gamma, beta],
            Box::new(move |g, parents| layer_norm_backward(g, parents[0], parents[1], eps)),
        ))
    }

    /// Affine map `x W + b` as one tape node: [`Graph::matmul`] with the
    /// bias `b` (shape `[n]` for `W` of `[k, n]`) added in place to the
    /// product. Bit-identical to `matmul` followed by `add`.
    ///
    /// # Errors
    ///
    /// Fails where [`Graph::matmul`] does, or when `b` is not `[n]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Result<Var> {
        self.check(x)?;
        self.check(w)?;
        self.check(b)?;
        let mut value = self.value(x).matmul(self.value(w))?;
        let bias = self.value(b).as_slice();
        let n = *value.shape().last().expect("matmul output has rank >= 2");
        if self.value(b).shape() != [n] {
            return Err(AutogradError::Tensor(
                snappix_tensor::TensorError::IncompatibleShapes {
                    context: format!(
                        "linear bias {:?} for output {:?}",
                        self.value(b).shape(),
                        value.shape()
                    ),
                },
            ));
        }
        for row in value.as_mut_slice().chunks_exact_mut(n.max(1)) {
            for (y, &c) in row.iter_mut().zip(bias) {
                *y += c;
            }
        }
        let ranks = (self.value(x).rank(), self.value(w).rank());
        Ok(self.push_op(
            value,
            vec![x, w, b],
            Box::new(move |g, parents| {
                let [dx, dw] = matmul_grads(ranks, g, parents[0], parents[1]);
                vec![dx, dw, reduce_to_shape(g, parents[2].shape())]
            }),
        ))
    }

    /// Fused softmax-cross-entropy between `logits` (`[batch, classes]`) and
    /// integer `targets`, returning the mean loss as a scalar.
    ///
    /// # Errors
    ///
    /// Fails for non-rank-2 logits, a target list whose length differs from
    /// the batch, or an out-of-range class index.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize]) -> Result<Var> {
        self.check(logits)?;
        let lv = self.value(logits);
        if lv.rank() != 2 {
            return Err(AutogradError::Tensor(
                snappix_tensor::TensorError::RankMismatch {
                    expected: 2,
                    got: lv.rank(),
                },
            ));
        }
        let (batch, classes) = (lv.shape()[0], lv.shape()[1]);
        if targets.len() != batch {
            return Err(AutogradError::InvalidArgument {
                context: format!("{} targets for batch of {batch}", targets.len()),
            });
        }
        for &t in targets {
            if t >= classes {
                return Err(AutogradError::InvalidArgument {
                    context: format!("target class {t} out of {classes}"),
                });
            }
        }
        let probs = lv.softmax_last()?;
        let mut loss = 0.0f32;
        for (b, &t) in targets.iter().enumerate() {
            loss -= probs.get(&[b, t]).expect("validated index").max(1e-12).ln();
        }
        loss /= batch as f32;
        let probs_cached = probs;
        let targets_owned = targets.to_vec();
        Ok(self.push_op(
            Tensor::scalar(loss),
            vec![logits],
            Box::new(move |g, _| {
                let s = g.as_slice()[0] / batch as f32;
                let mut d = probs_cached.clone();
                {
                    let dd = d.as_mut_slice();
                    for (b, &t) in targets_owned.iter().enumerate() {
                        dd[b * classes + t] -= 1.0;
                    }
                }
                vec![d.scale(s)]
            }),
        ))
    }

    /// Mean-squared-error between `pred` and a constant `target`, returning
    /// the scalar mean over all elements.
    ///
    /// # Errors
    ///
    /// Fails when the shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Result<Var> {
        self.check(pred)?;
        if self.value(pred).shape() != target.shape() {
            return Err(AutogradError::Tensor(
                snappix_tensor::TensorError::IncompatibleShapes {
                    context: format!(
                        "mse pred {:?} vs target {:?}",
                        self.value(pred).shape(),
                        target.shape()
                    ),
                },
            ));
        }
        let t = self.leaf(target.clone(), false);
        let diff = self.sub(pred, t)?;
        let sq = self.mul(diff, diff)?;
        self.mean(sq)
    }
}

/// Gradients of `a.matmul(b)` for operand ranks `ranks` and upstream `g`.
fn matmul_grads(ranks: (usize, usize), g: &Tensor, av: &Tensor, bv: &Tensor) -> [Tensor; 2] {
    match ranks {
        (2, 2) | (3, 3) => {
            let da = g
                .matmul(&bv.transpose().expect("rank >= 2"))
                .expect("shapes match forward");
            let db = av
                .transpose()
                .expect("rank >= 2")
                .matmul(g)
                .expect("shapes match forward");
            [da, db]
        }
        (3, 2) => {
            // a: [batch, m, k], b: [k, n], g: [batch, m, n]
            let da = g
                .matmul(&bv.transpose().expect("rank 2"))
                .expect("shapes match forward");
            let (batch, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
            let n = bv.shape()[1];
            let a_flat = av.reshape(&[batch * m, k]).expect("same length");
            let g_flat = g.reshape(&[batch * m, n]).expect("same length");
            let db = a_flat
                .transpose()
                .expect("rank 2")
                .matmul(&g_flat)
                .expect("shapes match forward");
            [da, db]
        }
        _ => unreachable!("forward would have rejected these ranks"),
    }
}

/// Gradient of a last-axis softmax with output `s` for upstream `g`:
/// `dX = S * (dY - sum(dY * S, last))`.
fn softmax_backward(g: &Tensor, s: &Tensor) -> Tensor {
    let gs = g.mul(s).expect("same shape");
    let row_sum = gs.sum_axis(s.rank() - 1, true).expect("axis valid");
    let centered = g.sub(&row_sum).expect("broadcast row");
    centered.mul(s).expect("same shape")
}

/// Multiply-adds per product a worker should receive before
/// [`attention_forward`] splits clips across threads: the floor of the
/// batched matmuls the node replaces, about 100 µs of work, so the node
/// goes parallel at the sizes where they did.
const ATTENTION_MACS_PER_WORKER: usize = 1 << 18;

/// Geometry of a [`Graph::attention`] node: `[batch, seq, dim]` inputs,
/// `heads` heads of `dh` columns each.
#[derive(Debug, Clone, Copy)]
struct Heads {
    batch: usize,
    seq: usize,
    dim: usize,
    heads: usize,
    dh: usize,
}

/// The value of [`Graph::attention`], and its `[batch·heads, seq, seq]`
/// probabilities when `keep`. Clips are independent, so they split
/// across threads without changing a bit.
fn attention_forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    layout: Heads,
    keep: bool,
) -> (Tensor, Option<Tensor>) {
    let Heads {
        batch,
        seq,
        dim,
        heads,
        dh,
    } = layout;
    let mut out = Tensor::zeros(&[batch, seq, dim]);
    let mut probs = keep.then(|| Tensor::zeros(&[batch * heads, seq, seq]));
    if out.is_empty() {
        return (out, probs);
    }
    let clip_probs = if keep { heads * seq * seq } else { 0 };
    let mut rest: &mut [f32] = match probs.as_mut() {
        Some(p) => p.as_mut_slice(),
        None => &mut [],
    };
    let mut clips: Vec<(&mut [f32], &mut [f32])> = out
        .as_mut_slice()
        .chunks_exact_mut(seq * dim)
        .map(|clip_out| {
            let (clip_p, tail) = std::mem::take(&mut rest).split_at_mut(clip_probs);
            rest = tail;
            (clip_out, clip_p)
        })
        .collect();
    let threads = parallel::workers_for(batch * heads * seq * seq * dh, ATTENTION_MACS_PER_WORKER);
    let span = seq * dim;
    let (q, k, v) = (q.as_slice(), k.as_slice(), v.as_slice());
    parallel::with_threads(threads, || {
        parallel::par_chunks_mut(&mut clips, 1, |b, clip| {
            let rows = b * span..(b + 1) * span;
            let (clip_out, clip_p) = &mut clip[0];
            attend_clip(
                &q[rows.clone()],
                &k[rows.clone()],
                &v[rows],
                clip_out,
                clip_p,
                layout,
            );
        });
    });
    (out, probs)
}

/// One clip of [`attention_forward`]: `q`, `k`, `v` and `out` are its
/// `[seq, dim]` rows, `out` zeroed; `probs` takes its
/// `[heads, seq, seq]` probabilities, or is empty when none are kept.
fn attend_clip(q: &[f32], k: &[f32], v: &[f32], out: &mut [f32], probs: &mut [f32], l: Heads) {
    let Heads {
        seq,
        dim,
        heads,
        dh,
        ..
    } = l;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut kt = vec![0.0f32; dh * seq];
    let mut row = vec![0.0f32; seq];
    for h in 0..heads {
        let cols = h * dh..(h + 1) * dh;
        for (j, key) in k.chunks_exact(dim).enumerate() {
            for (p, &x) in key[cols.clone()].iter().enumerate() {
                kt[p * seq + j] = x;
            }
        }
        let rows = q.chunks_exact(dim).zip(out.chunks_exact_mut(dim));
        for (i, (query, out_row)) in rows.enumerate() {
            row.fill(0.0);
            for (&a, kt_row) in query[cols.clone()].iter().zip(kt.chunks_exact(seq)) {
                for (s, &b) in row.iter_mut().zip(kt_row) {
                    *s += a * b;
                }
            }
            for s in row.iter_mut() {
                *s *= scale;
            }
            math::softmax_in_place(&mut row);
            if !probs.is_empty() {
                probs[(h * seq + i) * seq..][..seq].copy_from_slice(&row);
            }
            let ctx = &mut out_row[cols.clone()];
            for (&a, value) in row.iter().zip(v.chunks_exact(dim)) {
                for (c, &x) in ctx.iter_mut().zip(&value[cols.clone()]) {
                    *c += a * x;
                }
            }
        }
    }
}

/// Gradients of [`Graph::attention`] for `q`, `k` and `v` (`parents`)
/// under upstream `g`, from the kept probabilities: the composite's
/// tensor-level gradient ops, in its order.
fn attention_backward(g: &Tensor, parents: &[&Tensor], probs: &Tensor, l: Heads) -> Vec<Tensor> {
    let Heads {
        batch,
        seq,
        dim,
        heads,
        dh,
    } = l;
    // [batch, seq, dim] -> [batch·heads, seq, dh] and back.
    let split = |t: &Tensor| {
        t.reshape(&[batch, seq, heads, dh])
            .and_then(|t| t.permute(&[0, 2, 1, 3]))
            .and_then(|t| t.reshape(&[batch * heads, seq, dh]))
            .expect("[batch, seq, dim] by construction")
    };
    let merge = |t: &Tensor| {
        t.reshape(&[batch, heads, seq, dh])
            .and_then(|t| t.permute(&[0, 2, 1, 3]))
            .and_then(|t| t.reshape(&[batch, seq, dim]))
            .expect("[batch·heads, seq, dh] by construction")
    };
    let (qh, kh, vh) = (split(parents[0]), split(parents[1]), split(parents[2]));
    let kt = kh.transpose().expect("rank 3");
    let [d_attn, dvh] = matmul_grads((3, 3), &split(g), probs, &vh);
    let d_scores = softmax_backward(&d_attn, probs).scale(1.0 / (dh as f32).sqrt());
    let [dqh, dkt] = matmul_grads((3, 3), &d_scores, &qh, &kt);
    let dkh = dkt.transpose().expect("rank 3");
    vec![merge(&dqh), merge(&dkh), merge(&dvh)]
}

/// Rows whose reductions run interleaved, so their add chains overlap.
const STAT_ROWS: usize = 8;

/// Mean and `1 / sqrt(var + eps)` of each length-`d` row of `x`, with
/// the f32 operations of the primitive layer-norm composite: ascending
/// sums from `0.0`, each times `1/d`.
fn row_stats(x: &[f32], d: usize, eps: f32) -> Vec<(f32, f32)> {
    let rows = x.len().checked_div(d).unwrap_or(0);
    let mut stats = Vec::with_capacity(rows);
    let full = rows / STAT_ROWS * STAT_ROWS;
    for start in (0..full).step_by(STAT_ROWS) {
        stats.extend(block_stats::<STAT_ROWS>(x, start, d, eps));
    }
    for row in full..rows {
        stats.extend(block_stats::<1>(x, row, d, eps));
    }
    stats
}

/// [`row_stats`] of the `R` rows from `start`.
fn block_stats<const R: usize>(x: &[f32], start: usize, d: usize, eps: f32) -> [(f32, f32); R] {
    let inv_n = 1.0 / (d as f32).max(1.0);
    let rows: [&[f32]; R] = std::array::from_fn(|r| &x[(start + r) * d..(start + r + 1) * d]);
    let mut sum = [0.0f32; R];
    for m in 0..d {
        for (s, row) in sum.iter_mut().zip(&rows) {
            *s += row[m];
        }
    }
    let mean = sum.map(|s| s * inv_n);
    let mut sq = [0.0f32; R];
    for m in 0..d {
        for ((s, row), mu) in sq.iter_mut().zip(&rows).zip(&mean) {
            let c = row[m] - mu;
            *s += c * c;
        }
    }
    std::array::from_fn(|r| (mean[r], (sq[r] * inv_n + eps).powf(-0.5)))
}

/// Gradients of [`Graph::layer_norm`] for `x`, `gamma` and `beta`. With
/// `xhat = (x - mean) * inv_std` and `dxhat = g * gamma`, per row:
/// `dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))`;
/// `dgamma` and `dbeta` sum `g * xhat` and `g` over the rows.
fn layer_norm_backward(g: &Tensor, x: &Tensor, gamma: &Tensor, eps: f32) -> Vec<Tensor> {
    let d = gamma.len();
    let gammas = gamma.as_slice();
    let inv_n = 1.0 / (d as f32).max(1.0);
    let mut dx = Tensor::zeros(x.shape());
    let mut dgamma = vec![0.0f32; d];
    let mut dbeta = vec![0.0f32; d];
    let stats = row_stats(x.as_slice(), d, eps);
    let rows = x
        .as_slice()
        .chunks_exact(d.max(1))
        .zip(g.as_slice().chunks_exact(d.max(1)));
    let mut xhat = vec![0.0f32; d];
    for ((out, (xs, gs)), (mean, inv_std)) in dx
        .as_mut_slice()
        .chunks_exact_mut(d.max(1))
        .zip(rows)
        .zip(stats)
    {
        let (mut sum_dxhat, mut sum_dxhat_xhat) = (0.0f32, 0.0f32);
        for i in 0..d {
            xhat[i] = (xs[i] - mean) * inv_std;
            let dxhat = gs[i] * gammas[i];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat[i];
            dgamma[i] += gs[i] * xhat[i];
            dbeta[i] += gs[i];
        }
        let (a, b) = (sum_dxhat * inv_n, sum_dxhat_xhat * inv_n);
        for i in 0..d {
            out[i] = inv_std * (gs[i] * gammas[i] - a - xhat[i] * b);
        }
    }
    let dgamma = Tensor::from_vec(dgamma, &[d]).expect("length d");
    let dbeta = Tensor::from_vec(dbeta, &[d]).expect("length d");
    vec![dx, dgamma, dbeta]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn matmul_2d_numeric() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[4, 2], -1.0, 1.0);
        check_gradients(&[a, b], |g, vars| {
            let c = g.matmul(vars[0], vars[1])?;
            g.sum(c)
        })
        .unwrap();
    }

    #[test]
    fn matmul_batched_numeric() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform(&mut rng, &[2, 3, 4], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[2, 4, 2], -1.0, 1.0);
        check_gradients(&[a, b], |g, vars| {
            let c = g.matmul(vars[0], vars[1])?;
            g.sum(c)
        })
        .unwrap();
    }

    #[test]
    fn matmul_shared_rhs_numeric() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&mut rng, &[2, 3, 4], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[4, 5], -1.0, 1.0);
        check_gradients(&[a, b], |g, vars| {
            let c = g.matmul(vars[0], vars[1])?;
            g.sum(c)
        })
        .unwrap();
    }

    #[test]
    fn transpose_and_permute_numeric() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::rand_uniform(&mut rng, &[2, 3, 4], -1.0, 1.0);
        check_gradients(std::slice::from_ref(&a), |g, vars| {
            let t = g.transpose(vars[0])?;
            let s = g.mul(t, t)?;
            g.sum(s)
        })
        .unwrap();
        check_gradients(&[a], |g, vars| {
            let p = g.permute(vars[0], &[2, 0, 1])?;
            let s = g.mul(p, p)?;
            g.sum(s)
        })
        .unwrap();
    }

    #[test]
    fn reshape_numeric() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::rand_uniform(&mut rng, &[2, 6], -1.0, 1.0);
        check_gradients(&[a], |g, vars| {
            let r = g.reshape(vars[0], &[3, 4])?;
            let s = g.mul(r, r)?;
            g.sum(s)
        })
        .unwrap();
    }

    #[test]
    fn reductions_numeric() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0);
        check_gradients(std::slice::from_ref(&a), |g, vars| {
            let s = g.sum_axis(vars[0], 0, false)?;
            let q = g.mul(s, s)?;
            g.sum(q)
        })
        .unwrap();
        check_gradients(std::slice::from_ref(&a), |g, vars| {
            let s = g.mean_axis(vars[0], 1, true)?;
            let q = g.mul(s, s)?;
            g.sum(q)
        })
        .unwrap();
        check_gradients(&[a], |g, vars| g.mean(vars[0])).unwrap();
    }

    #[test]
    fn softmax_numeric() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&mut rng, &[2, 5], -2.0, 2.0);
        check_gradients(&[a], |g, vars| {
            let s = g.softmax(vars[0])?;
            // A non-symmetric downstream function so errors can't cancel.
            let w = g.leaf(Tensor::arange(5).reshape(&[1, 5]).unwrap(), false);
            let m = g.mul(s, w)?;
            g.sum(m)
        })
        .unwrap();
    }

    #[test]
    fn layer_norm_normalizes_and_differentiates() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::rand_uniform(&mut rng, &[2, 6], -3.0, 3.0);
        let gamma = Tensor::ones(&[6]);
        let beta = Tensor::zeros(&[6]);

        // Forward: rows have ~zero mean and ~unit variance.
        let mut g = Graph::new();
        let xv = g.leaf(x.clone(), true);
        let gv = g.leaf(gamma.clone(), true);
        let bv = g.leaf(beta.clone(), true);
        let y = g.layer_norm(xv, gv, bv, 1e-5).unwrap();
        let row0 = g.value(y).slice_axis(0, 0, 1).unwrap();
        assert!(row0.mean().abs() < 1e-5);
        assert!((row0.variance() - 1.0).abs() < 1e-3);

        check_gradients(&[x, gamma, beta], |g, vars| {
            let y = g.layer_norm(vars[0], vars[1], vars[2], 1e-5)?;
            let w = g.leaf(Tensor::arange(6).reshape(&[1, 6]).unwrap(), false);
            let m = g.mul(y, w)?;
            g.sum(m)
        })
        .unwrap();

        // Rank 3 with 2 x 5 = 10 rows (one 8-row reduction block plus
        // two left over), and gamma and beta away from 1 and 0.
        let x = Tensor::rand_uniform(&mut rng, &[2, 5, 6], -2.0, 2.0);
        let gamma = Tensor::rand_uniform(&mut rng, &[6], 0.5, 1.5);
        let beta = Tensor::rand_uniform(&mut rng, &[6], -0.5, 0.5);
        let probe = Tensor::rand_uniform(&mut rng, &[2, 5, 6], -1.0, 1.0);
        check_gradients(&[x, gamma, beta], |g, vars| {
            let y = g.layer_norm(vars[0], vars[1], vars[2], 1e-5)?;
            let p = g.leaf(probe.clone(), false);
            let m = g.mul(y, p)?;
            g.sum(m)
        })
        .unwrap();
    }

    #[test]
    fn linear_numeric() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = Tensor::rand_uniform(&mut rng, &[4, 3], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[3], -1.0, 1.0);
        for shape in [&[5, 4][..], &[2, 3, 4]] {
            let x = Tensor::rand_uniform(&mut rng, shape, -1.0, 1.0);
            check_gradients(&[x, w.clone(), b.clone()], |g, vars| {
                let y = g.linear(vars[0], vars[1], vars[2])?;
                let sq = g.mul(y, y)?;
                g.sum(sq)
            })
            .unwrap();
        }
    }

    #[test]
    fn attention_numeric() {
        let mut rng = StdRng::seed_from_u64(12);
        let shape = [2, 3, 4];
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0))
            .collect();
        let probe = Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0);
        check_gradients(&inputs, |g, vars| {
            let y = g.attention(vars[0], vars[1], vars[2], 2)?;
            let p = g.leaf(probe.clone(), false);
            let m = g.mul(y, p)?;
            g.sum(m)
        })
        .unwrap();
    }

    #[test]
    fn attention_parallel_matches_serial_bit_for_bit() {
        // 4 x 2 x 64 x 64 x 16 multiply-adds per product: two workers.
        let mut rng = StdRng::seed_from_u64(13);
        let shape = [4, 64, 32];
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0))
            .collect();
        let run = |threads| {
            snappix_tensor::parallel::with_threads(threads, || {
                let mut g = Graph::new();
                let v: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone(), true)).collect();
                let y = g.attention(v[0], v[1], v[2], 2).unwrap();
                let bits: Vec<u32> = g.value(y).as_slice().iter().map(|x| x.to_bits()).collect();
                bits
            })
        };
        let serial = run(1);
        for threads in [2, 3] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut g = Graph::new();
        let logits = g.leaf(
            Tensor::from_vec(vec![2.0, 0.0, 0.0, 0.0, 3.0, 0.0], &[2, 3]).unwrap(),
            true,
        );
        let loss = g.cross_entropy_logits(logits, &[0, 1]).unwrap();
        // Manual: -log softmax[0,0] and -log softmax[1,1], averaged.
        let p00 = (2.0f32).exp() / ((2.0f32).exp() + 2.0);
        let p11 = (3.0f32).exp() / ((3.0f32).exp() + 2.0);
        let expected = -(p00.ln() + p11.ln()) / 2.0;
        assert!((g.value(loss).as_slice()[0] - expected).abs() < 1e-5);
        g.backward(loss).unwrap();
        // Gradient rows sum to zero (softmax minus one-hot).
        let grad = g.grad(logits).unwrap();
        for b in 0..2 {
            let row_sum: f32 = (0..3).map(|c| grad.get(&[b, c]).unwrap()).sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_numeric() {
        let mut rng = StdRng::seed_from_u64(9);
        let logits = Tensor::rand_uniform(&mut rng, &[3, 4], -2.0, 2.0);
        check_gradients(&[logits], |g, vars| {
            g.cross_entropy_logits(vars[0], &[1, 3, 0])
        })
        .unwrap();
    }

    #[test]
    fn cross_entropy_validation() {
        let mut g = Graph::new();
        let l = g.leaf(Tensor::zeros(&[2, 3]), true);
        assert!(g.cross_entropy_logits(l, &[0]).is_err());
        assert!(g.cross_entropy_logits(l, &[0, 5]).is_err());
        let l1 = g.leaf(Tensor::zeros(&[6]), true);
        assert!(g.cross_entropy_logits(l1, &[0]).is_err());
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let mut g = Graph::new();
        let p = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(), true);
        let target = Tensor::from_vec(vec![0.0, 4.0], &[2]).unwrap();
        let loss = g.mse_loss(p, &target).unwrap();
        // ((1-0)^2 + (2-4)^2) / 2 = 2.5
        assert!((g.value(loss).as_slice()[0] - 2.5).abs() < 1e-6);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(p).unwrap().as_slice(), &[1.0, -2.0]);
        assert!(g.mse_loss(p, &Tensor::zeros(&[3])).is_err());
    }
}
