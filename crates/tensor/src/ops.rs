//! Linear algebra, reductions and multi-tensor operations.

use crate::shape::{unravel, Shape};
use crate::{math, BufferSource, Heap, Result, Tensor, TensorError};

impl Tensor {
    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication.
    ///
    /// Supports `[m, k] x [k, n]` and batched `[b, m, k] x [b, k, n]` (or a
    /// shared rank-2 right-hand side `[k, n]` against a batched left-hand
    /// side).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when the inner dimensions (or
    /// batch dimensions) disagree, and [`TensorError::RankMismatch`] for
    /// rank < 2 operands.
    ///
    /// # Examples
    ///
    /// ```
    /// use snappix_tensor::Tensor;
    /// # fn main() -> Result<(), snappix_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let i = Tensor::eye(2);
    /// assert_eq!(a.matmul(&i)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_in(other, &mut Heap)
    }

    /// [`Tensor::matmul`] into a buffer from `out`.
    ///
    /// # Errors
    ///
    /// See [`Tensor::matmul`].
    pub fn matmul_in(&self, other: &Tensor, out: &mut dyn BufferSource) -> Result<Tensor> {
        let mismatch = || TensorError::MatmulMismatch {
            lhs: self.shape().to_vec(),
            rhs: other.shape().to_vec(),
        };
        match (self.shape(), other.shape()) {
            // Row-major `[b, m, k]` is already the flat `[b*m, k]`
            // left-hand side: one product over the whole batch.
            (&[.., k1], &[k2, n]) if matches!(self.rank(), 2 | 3) => {
                if k1 != k2 {
                    return Err(mismatch());
                }
                let mut shape = self.dims();
                let lead = shape.len() - 1;
                shape.as_mut_slice()[lead] = n;
                let rows = self.shape()[..lead].iter().product();
                let mut dst = Tensor::from_source(out, shape);
                matmul_kernel(
                    self.as_slice(),
                    other.as_slice(),
                    dst.as_mut_slice(),
                    rows,
                    k1,
                    n,
                );
                Ok(dst)
            }
            (&[b1, m, k1], &[b2, k2, n]) => {
                if b1 != b2 || k1 != k2 {
                    return Err(mismatch());
                }
                let mut out = Tensor::from_source(out, Shape::of(&[b1, m, n]));
                let lhs = self.as_slice();
                let rhs = other.as_slice();
                let dst = out.as_mut_slice();
                let threads =
                    crate::parallel::workers_for(b1 * m * k1 * n, PAR_FLOPS_PER_WORKER).min(b1);
                if threads > 1 && b1 >= crate::parallel::current_threads() {
                    // Enough batches to feed every worker: split
                    // batch-wise, each batch running the blocked kernel
                    // serially. With fewer batches than workers the
                    // per-batch loop below is better — each product then
                    // row-slab-splits inside `matmul_kernel` instead of
                    // leaving workers idle.
                    crate::parallel::with_threads(threads, || {
                        crate::parallel::par_chunks_mut(dst, m * n, |b, block| {
                            matmul_block(
                                &lhs[b * m * k1..(b + 1) * m * k1],
                                &rhs[b * k1 * n..(b + 1) * k1 * n],
                                block,
                                m,
                                k1,
                                n,
                            );
                        });
                    });
                } else {
                    for b in 0..b1 {
                        matmul_kernel(
                            &lhs[b * m * k1..(b + 1) * m * k1],
                            &rhs[b * k1 * n..(b + 1) * k1 * n],
                            &mut dst[b * m * n..(b + 1) * m * n],
                            m,
                            k1,
                            n,
                        );
                    }
                }
                Ok(out)
            }
            _ => Err(TensorError::RankMismatch {
                expected: 2,
                got: self.rank().min(other.rank()),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (`f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.as_slice()
            .iter()
            .map(|&x| (x - m) * (x - m))
            .sum::<f32>()
            / self.len() as f32
    }

    /// Sums along `axis`; `keepdims` retains the axis with extent 1.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn sum_axis(&self, axis: usize, keepdims: bool) -> Result<Tensor> {
        self.sum_axis_in(axis, keepdims, &mut Heap)
    }

    /// [`Tensor::sum_axis`] into a buffer from `out`.
    ///
    /// # Errors
    ///
    /// See [`Tensor::sum_axis`].
    pub fn sum_axis_in(
        &self,
        axis: usize,
        keepdims: bool,
        out: &mut dyn BufferSource,
    ) -> Result<Tensor> {
        let rank = self.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let mid = self.shape()[axis];
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut out_shape = self.dims();
        if keepdims {
            out_shape.as_mut_slice()[axis] = 1;
        } else {
            out_shape.remove(axis);
        }
        let mut sums = Tensor::from_source(out, out_shape);
        let data = sums.as_mut_slice();
        let src = self.as_slice();
        if inner == 1 {
            // Last-axis sums: one add chain per row, so keep `ROWS` rows
            // in flight to overlap their latencies. Each row still adds
            // its elements in ascending order from `0.0`.
            const ROWS: usize = 8;
            let blocks = outer / ROWS;
            for (block, dst) in data.chunks_exact_mut(ROWS).enumerate() {
                let rows: [&[f32]; ROWS] = std::array::from_fn(|r| {
                    let row = block * ROWS + r;
                    &src[row * mid..(row + 1) * mid]
                });
                let mut acc = [0.0f32; ROWS];
                for m in 0..mid {
                    for (a, row) in acc.iter_mut().zip(&rows) {
                        *a += row[m];
                    }
                }
                dst.copy_from_slice(&acc);
            }
            for row in blocks * ROWS..outer {
                let mut acc = 0.0f32;
                for &x in &src[row * mid..(row + 1) * mid] {
                    acc += x;
                }
                data[row] = acc;
            }
            return Ok(sums);
        }
        data.fill(0.0);
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                for i in 0..inner {
                    data[o * inner + i] += src[base + i];
                }
            }
        }
        Ok(sums)
    }

    /// Means along `axis`; `keepdims` retains the axis with extent 1.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn mean_axis(&self, axis: usize, keepdims: bool) -> Result<Tensor> {
        let n = self.shape().get(axis).copied().unwrap_or(0).max(1) as f32;
        Ok(self.sum_axis(axis, keepdims)?.scale(1.0 / n))
    }

    /// Index of the maximum along `axis` (ties resolve to the first).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`, or
    /// [`TensorError::InvalidArgument`] for a zero-extent axis.
    pub fn argmax_axis(&self, axis: usize) -> Result<Vec<usize>> {
        let rank = self.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mid = self.shape()[axis];
        if mid == 0 {
            return Err(TensorError::InvalidArgument {
                context: "argmax over empty axis".to_string(),
            });
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let src = self.as_slice();
        let mut out = vec![0usize; outer * inner];
        for o in 0..outer {
            for i in 0..inner {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for m in 0..mid {
                    let v = src[(o * mid + m) * inner + i];
                    if v > best {
                        best = v;
                        best_idx = m;
                    }
                }
                out[o * inner + i] = best_idx;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Multi-tensor operations
    // ------------------------------------------------------------------

    /// Concatenates tensors along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input list,
    /// [`TensorError::AxisOutOfRange`] for a bad axis, or
    /// [`TensorError::IncompatibleShapes`] when the non-`axis` extents
    /// differ.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument {
                context: "concat of zero tensors".to_string(),
            })?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut axis_total = 0usize;
        for t in tensors {
            if t.rank() != rank {
                return Err(TensorError::IncompatibleShapes {
                    context: format!("concat ranks {} vs {}", rank, t.rank()),
                });
            }
            for d in 0..rank {
                if d != axis && t.shape()[d] != first.shape()[d] {
                    return Err(TensorError::IncompatibleShapes {
                        context: format!(
                            "concat shapes {:?} vs {:?} differ off-axis",
                            first.shape(),
                            t.shape()
                        ),
                    });
                }
            }
            axis_total += t.shape()[axis];
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[axis] = axis_total;
        let outer: usize = first.shape()[..axis].iter().product();
        let inner: usize = first.shape()[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(out_shape.iter().product());
        for o in 0..outer {
            for t in tensors {
                let mid = t.shape()[axis];
                let base = o * mid * inner;
                data.extend_from_slice(&t.as_slice()[base..base + mid * inner]);
            }
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Stacks equal-shape tensors along a new `axis`, copying each input
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty list,
    /// [`TensorError::IncompatibleShapes`] when shapes differ, or
    /// [`TensorError::AxisOutOfRange`] if `axis > rank`.
    pub fn stack(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument {
                context: "stack of zero tensors".to_string(),
            })?;
        for t in tensors {
            if t.shape() != first.shape() {
                return Err(TensorError::IncompatibleShapes {
                    context: format!("stack shapes {:?} vs {:?}", first.shape(), t.shape()),
                });
            }
        }
        let shape = first.shape();
        if axis > shape.len() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: shape.len(),
            });
        }
        let mut out_shape = shape.to_vec();
        out_shape.insert(axis, tensors.len());
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis..].iter().product();
        let mut data = Vec::with_capacity(out_shape.iter().product());
        for o in 0..outer {
            for t in tensors {
                data.extend_from_slice(&t.as_slice()[o * inner..(o + 1) * inner]);
            }
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Softmax along the last axis.
    ///
    /// Numerically stabilized by subtracting the row maximum; each row
    /// runs through [`math::softmax_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors.
    pub fn softmax_last(&self) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                got: 0,
            });
        }
        let n = *self.shape().last().expect("rank >= 1");
        let mut out = self.clone();
        for row in out.as_mut_slice().chunks_exact_mut(n.max(1)) {
            math::softmax_in_place(row);
        }
        Ok(out)
    }

    /// Extracts non-overlapping `ph x pw` patches from a `[h, w]` tensor,
    /// returning `[num_patches, ph * pw]` in row-major patch order. A
    /// `[batch, h, w]` tensor gives `[batch, num_patches, ph * pw]`, each
    /// frame patchified on its own.
    ///
    /// This is the ViT "patchify" primitive; the coded-exposure crate uses
    /// it with the CE tile size.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input has rank 2
    /// or 3, or [`TensorError::InvalidArgument`] when `h`/`w` are not
    /// multiples of the patch extents.
    pub fn extract_patches(&self, ph: usize, pw: usize) -> Result<Tensor> {
        self.extract_patches_in(ph, pw, &mut Heap)
    }

    /// [`Tensor::extract_patches`] into a buffer from `out`.
    ///
    /// # Errors
    ///
    /// See [`Tensor::extract_patches`].
    pub fn extract_patches_in(
        &self,
        ph: usize,
        pw: usize,
        out: &mut dyn BufferSource,
    ) -> Result<Tensor> {
        let (lead, h, w) = match *self.shape() {
            [h, w] => (None, h, w),
            [b, h, w] => (Some(b), h, w),
            _ => {
                return Err(TensorError::RankMismatch {
                    expected: 2,
                    got: self.rank(),
                })
            }
        };
        if ph == 0 || pw == 0 || h % ph != 0 || w % pw != 0 {
            return Err(TensorError::InvalidArgument {
                context: format!("patches {ph}x{pw} do not tile {h}x{w}"),
            });
        }
        let patches = [h * w / (ph * pw), ph * pw];
        let out_shape = match lead {
            Some(b) => Shape::of(&[b, patches[0], patches[1]]),
            None => Shape::of(&patches),
        };
        let mut out = Tensor::from_source(out, out_shape);
        if !out.is_empty() {
            let frames = self.as_slice().chunks_exact(h * w);
            for (frame, patches) in frames.zip(out.as_mut_slice().chunks_exact_mut(h * w)) {
                let rows = patches.chunks_exact_mut(pw);
                for (dst, start) in rows.zip(patch_row_starts(h, w, ph, pw)) {
                    dst.copy_from_slice(&frame[start..start + pw]);
                }
            }
        }
        Ok(out)
    }

    /// Inverse of [`Tensor::extract_patches`]: reassembles
    /// `[num_patches, ph * pw]` into `[h, w]`, or
    /// `[batch, num_patches, ph * pw]` into `[batch, h, w]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input has rank 2
    /// or 3, or [`TensorError::InvalidArgument`] when the patch grid does
    /// not match `h x w`.
    pub fn assemble_patches(&self, ph: usize, pw: usize, h: usize, w: usize) -> Result<Tensor> {
        let (lead, grid) = match *self.shape() {
            [p, pp] => (None, [p, pp]),
            [b, p, pp] => (Some(b), [p, pp]),
            _ => {
                return Err(TensorError::RankMismatch {
                    expected: 2,
                    got: self.rank(),
                })
            }
        };
        if ph == 0 || pw == 0 || !h.is_multiple_of(ph) || !w.is_multiple_of(pw) {
            return Err(TensorError::InvalidArgument {
                context: format!("patches {ph}x{pw} do not tile {h}x{w}"),
            });
        }
        let (gh, gw) = (h / ph, w / pw);
        if grid != [gh * gw, ph * pw] {
            return Err(TensorError::InvalidArgument {
                context: format!(
                    "patch tensor {:?} does not match {gh}x{gw} grid of {ph}x{pw}",
                    self.shape()
                ),
            });
        }
        let out_shape: Vec<usize> = lead.into_iter().chain([h, w]).collect();
        let mut out = Tensor::zeros(&out_shape);
        if !out.is_empty() {
            let frames = out.as_mut_slice().chunks_exact_mut(h * w);
            for (frame, patches) in frames.zip(self.as_slice().chunks_exact(h * w)) {
                let rows = patches.chunks_exact(pw);
                for (src, start) in rows.zip(patch_row_starts(h, w, ph, pw)) {
                    frame[start..start + pw].copy_from_slice(src);
                }
            }
        }
        Ok(out)
    }

    /// Gathers rows of a rank-2 tensor by index, producing
    /// `[indices.len(), cols]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 input or
    /// [`TensorError::IndexOutOfRange`] for a bad row index.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.rank(),
            });
        }
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut data = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            if i >= rows {
                return Err(TensorError::IndexOutOfRange {
                    index: i,
                    len: rows,
                });
            }
            data.extend_from_slice(&self.as_slice()[i * cols..(i + 1) * cols]);
        }
        Tensor::from_vec(data, &[indices.len(), cols])
    }
}

/// Where each `pw`-wide patch row starts in a row-major `[h, w]` frame,
/// in the order the rows sit in `[num_patches, ph * pw]`: patches in
/// row-major grid order, each patch's rows top to bottom.
fn patch_row_starts(h: usize, w: usize, ph: usize, pw: usize) -> impl Iterator<Item = usize> {
    (0..h / ph).flat_map(move |gy| {
        (0..w / pw).flat_map(move |gx| (0..ph).map(move |y| (gy * ph + y) * w + gx * pw))
    })
}

/// Rows per register micro-tile of the blocked matmul kernel.
const MR: usize = 4;
/// Columns per register micro-tile of the blocked matmul kernel.
const NR: usize = 8;
/// Column-panel width: a row slab works through the right-hand side in
/// `k x JC` stripes so the stripe stays cache-resident across the slab.
const JC: usize = 128;
/// Multiply-adds each scoped worker must receive before it is worth
/// spawning: a slab of this size runs about 37 µs serially at about
/// 7 GMAC/s on a 2-vCPU box, less than spawning and joining a scoped
/// helper was measured to cost there (see
/// [`workers_for`](crate::parallel::workers_for)). The effective worker
/// count is `min(current_threads, work / PAR_FLOPS_PER_WORKER)`, so small
/// products stay on the calling thread and medium ones use fewer
/// workers than the machine has. A product just past two workers'
/// worth therefore gains little from its helper; the split pays from
/// several floors of work per worker up.
const PAR_FLOPS_PER_WORKER: usize = 1 << 18;

/// Cache-blocked, data-parallel `m x k * k x n` kernel writing every
/// element of `dst`, whatever it held before.
///
/// Large products are split into row slabs across
/// [`parallel::par_chunks_mut`] workers; each slab runs the blocked serial
/// kernel [`matmul_block`]. Every output element accumulates its `k`
/// products in ascending-`p` order exactly like the naive reference
/// [`matmul_kernel_serial`], so results are bit-for-bit identical to the
/// serial path at every thread count (the parity tests assert this).
///
/// Unlike the historical kernel, `lhs` zeros are **not** skipped: skipping
/// turned `0 x inf` and `0 x NaN` into `0`, silently masking upstream
/// numerical blowups instead of propagating them per IEEE 754.
fn matmul_kernel(lhs: &[f32], rhs: &[f32], dst: &mut [f32], m: usize, k: usize, n: usize) {
    let threads = crate::parallel::workers_for(m * k * n, PAR_FLOPS_PER_WORKER).min(m / (2 * MR));
    if threads <= 1 {
        matmul_block(lhs, rhs, dst, m, k, n);
        return;
    }
    // ~2 slabs per worker keeps the queue balanced without shredding the
    // cache blocking; slabs are whole multiples of the micro-tile height.
    let slab_rows = m.div_ceil(threads * 2).next_multiple_of(MR);
    crate::parallel::with_threads(threads, || {
        crate::parallel::par_chunks_mut(dst, slab_rows * n, |slab, dslab| {
            let row0 = slab * slab_rows;
            let rows = dslab.len() / n;
            matmul_block(&lhs[row0 * k..(row0 + rows) * k], rhs, dslab, rows, k, n);
        });
    });
}

/// Serial reference kernel (i-k-j loop order) accumulating into `dst`,
/// which must be zero-initialized. This is the specification the blocked
/// kernel is tested against; it is deliberately kept naive.
#[cfg_attr(not(test), allow(dead_code))]
fn matmul_kernel_serial(lhs: &[f32], rhs: &[f32], dst: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let a = lhs[i * k + p];
            let rrow = &rhs[p * n..(p + 1) * n];
            let drow = &mut dst[i * n..(i + 1) * n];
            for j in 0..n {
                drow[j] += a * rrow[j];
            }
        }
    }
}

/// One row slab of the blocked kernel: `MR x NR` register micro-tiles with
/// a `k`-inner loop, walking the right-hand side in `JC`-column panels.
/// Every element of `dst` is written; its old contents are never read.
///
/// Per output element the `k` products accumulate in ascending order from
/// a `+0.0` accumulator, matching [`matmul_kernel_serial`] on a zeroed
/// `dst` bit-for-bit (storing the finished accumulator equals adding it
/// to `+0.0`: the accumulator is never `-0.0` because it starts at
/// `+0.0`). The row remainder accumulates in `dst` itself, so it zeroes
/// its rows of the panel first.
fn matmul_block(lhs: &[f32], rhs: &[f32], dst: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + JC).min(n);
        let mut i = 0;
        while i + MR <= m {
            let lrows: [&[f32]; MR] = std::array::from_fn(|r| &lhs[(i + r) * k..(i + r + 1) * k]);
            let mut j = j0;
            while j + NR <= j1 {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let brow = &rhs[p * n + j..p * n + j + NR];
                    for r in 0..MR {
                        let a = lrows[r][p];
                        let accr = &mut acc[r];
                        for c in 0..NR {
                            accr[c] += a * brow[c];
                        }
                    }
                }
                for r in 0..MR {
                    dst[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(&acc[r]);
                }
                j += NR;
            }
            // Column remainder of the panel (fewer than NR columns).
            for r in 0..MR {
                let row = lrows[r];
                for jj in j..j1 {
                    let mut acc = 0.0f32;
                    for (p, &a) in row.iter().enumerate() {
                        acc += a * rhs[p * n + jj];
                    }
                    dst[(i + r) * n + jj] = acc;
                }
            }
            i += MR;
        }
        // Row remainder (fewer than MR rows): i-k-j sweep over the panel.
        for ir in i..m {
            let row = &lhs[ir * k..(ir + 1) * k];
            dst[ir * n + j0..ir * n + j1].fill(0.0);
            for (p, &a) in row.iter().enumerate() {
                let rrow = &rhs[p * n + j0..p * n + j1];
                let drow = &mut dst[ir * n + j0..ir * n + j1];
                for (d, &b) in drow.iter_mut().zip(rrow) {
                    *d += a * b;
                }
            }
        }
        j0 = j1;
    }
}

/// Returns the coordinates of the maximum element of a tensor.
///
/// # Examples
///
/// ```
/// use snappix_tensor::Tensor;
/// # fn main() -> Result<(), snappix_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(snappix_tensor::argmax_coords(&t), vec![0, 1]);
/// # Ok(())
/// # }
/// ```
pub fn argmax_coords(t: &Tensor) -> Vec<usize> {
    let mut best = f32::NEG_INFINITY;
    let mut idx = 0usize;
    for (i, &v) in t.as_slice().iter().enumerate() {
        if v > best {
            best = v;
            idx = i;
        }
    }
    unravel(idx, t.shape())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2d_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::arange(9).reshape(&[3, 3]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)).unwrap(), a);
    }

    #[test]
    fn matmul_batched_3d() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let b = Tensor::arange(18).reshape(&[2, 3, 3]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 3]);
        // Manually compute batch 0, row 0: [0,1,2] . cols of [[0,1,2],[3,4,5],[6,7,8]]
        assert_eq!(c.get(&[0, 0, 0]).unwrap(), 15.0);
        assert_eq!(c.get(&[0, 0, 1]).unwrap(), 18.0);
    }

    #[test]
    fn matmul_3d_with_shared_rhs() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let w = Tensor::eye(3);
        let c = a.matmul(&w).unwrap();
        assert_eq!(c, a.reshape(&[2, 2, 3]).unwrap());
    }

    #[test]
    fn matmul_rejects_mismatches() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&Tensor::zeros(&[4, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
        let b3 = Tensor::zeros(&[2, 2, 3]);
        assert!(b3.matmul(&Tensor::zeros(&[3, 3, 3])).is_err());
    }

    /// Regression test for the historical zero-skip bug: `matmul_kernel`
    /// used to skip the inner loop when a left-hand element was `0.0`,
    /// so `0 x inf` and `0 x NaN` produced `0` instead of `NaN`.
    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_rows() {
        // Row of zeros against a NaN column: every affected output must
        // be NaN, not silently 0.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 1.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(
            c.get(&[0, 0]).unwrap().is_nan(),
            "0 * NaN must propagate NaN, got {}",
            c.get(&[0, 0]).unwrap()
        );
        assert!(c.get(&[1, 0]).unwrap().is_nan());

        // Zero against +inf is NaN per IEEE 754.
        let inf = Tensor::from_vec(vec![f32::INFINITY, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let d = a.matmul(&inf).unwrap();
        assert!(d.get(&[0, 0]).unwrap().is_nan(), "0 * inf must be NaN");

        // The batched path shares the kernel.
        let ab = Tensor::from_vec(vec![0.0; 8], &[2, 2, 2]).unwrap();
        let bb = Tensor::from_vec(vec![f32::NAN; 8], &[2, 2, 2]).unwrap();
        let cb = ab.matmul(&bb).unwrap();
        assert!(cb.as_slice().iter().all(|v| v.is_nan()));
    }

    /// The blocked/parallel kernel must agree bit-for-bit with the naive
    /// serial reference across odd shapes (micro-tile remainders in both
    /// extents, panel boundaries, an empty inner dimension) and thread
    /// counts 1, 2 and > rows, writing every element of a destination
    /// that starts dirty (a recycled buffer) as well as one that starts
    /// zeroed.
    #[test]
    fn matmul_blocked_matches_serial_reference_bit_for_bit() {
        use crate::parallel::with_threads;
        let shapes: &[(usize, usize, usize)] = &[
            (1, 1, 1),
            (3, 0, 5),
            (1, 7, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 1, 13),
            (17, 23, 131), // crosses the JC=128 panel boundary
            (33, 16, 9),
            (67, 33, 65),  // medium: blocked serial, below the split
            (513, 65, 33), // > PAR_FLOPS_PER_WORKER x 4: slab split engages
        ];
        for &(m, k, n) in shapes {
            // Deterministic pseudo-random fill without pulling in rand.
            let fill = |len: usize, salt: u32| -> Vec<f32> {
                (0..len)
                    .map(|i| {
                        let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                        (h % 2000) as f32 / 1000.0 - 1.0
                    })
                    .collect()
            };
            let lhs = fill(m * k, 1);
            let rhs = fill(k * n, 2);
            let mut reference = vec![0.0f32; m * n];
            matmul_kernel_serial(&lhs, &rhs, &mut reference, m, k, n);
            for (threads, dirt) in [1usize, 2, m + 3].into_iter().zip([0.0, f32::NAN, -7.0]) {
                let mut got = vec![dirt; m * n];
                with_threads(threads, || {
                    matmul_kernel(&lhs, &rhs, &mut got, m, k, n);
                });
                assert_eq!(
                    got, reference,
                    "{m}x{k}x{n} at {threads} threads diverged from serial"
                );
            }
        }
    }

    /// The batch-split (3,3) parallel path must match the serial
    /// per-batch loop bit-for-bit.
    #[test]
    fn matmul_batched_parallel_matches_serial_bit_for_bit() {
        use crate::parallel::with_threads;
        let (b, m, k, n) = (6usize, 32usize, 32usize, 32usize); // 2 workers' worth
        let fill = |len: usize, salt: u32| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                    (h % 2000) as f32 / 1000.0 - 1.0
                })
                .collect()
        };
        let lhs = Tensor::from_vec(fill(b * m * k, 3), &[b, m, k]).unwrap();
        let rhs = Tensor::from_vec(fill(b * k * n, 4), &[b, k, n]).unwrap();
        let reference = with_threads(1, || lhs.matmul(&rhs).unwrap());
        for threads in [2usize, 4, b + 7] {
            let got = with_threads(threads, || lhs.matmul(&rhs).unwrap());
            assert_eq!(got.as_slice(), reference.as_slice(), "{threads} threads");
        }
    }

    #[test]
    fn global_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let s0 = t.sum_axis(0, false).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.as_slice(), &[3.0, 5.0, 7.0]);
        let s1 = t.sum_axis(1, true).unwrap();
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.as_slice(), &[3.0, 12.0]);
        let m1 = t.mean_axis(1, false).unwrap();
        assert_eq!(m1.as_slice(), &[1.0, 4.0]);
        assert!(t.sum_axis(2, false).is_err());
    }

    #[test]
    fn argmax_axis_and_coords() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 2.0, 8.0, 0.0, 3.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_axis(1).unwrap(), vec![1, 0]);
        assert_eq!(t.argmax_axis(0).unwrap(), vec![1, 0, 1]);
        assert_eq!(argmax_coords(&t), vec![1, 0]);
    }

    #[test]
    fn concat_along_each_axis() {
        let a = Tensor::arange(4).reshape(&[2, 2]).unwrap();
        let b = Tensor::full(&[2, 2], 9.0);
        let c0 = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[4, 2]);
        assert_eq!(c0.get(&[2, 0]).unwrap(), 9.0);
        let c1 = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[2, 4]);
        assert_eq!(c1.get(&[0, 2]).unwrap(), 9.0);
        assert_eq!(c1.get(&[1, 1]).unwrap(), 3.0);
    }

    #[test]
    fn concat_error_cases() {
        let a = Tensor::zeros(&[2, 2]);
        assert!(Tensor::concat(&[], 0).is_err());
        assert!(Tensor::concat(&[&a], 2).is_err());
        assert!(Tensor::concat(&[&a, &Tensor::zeros(&[2, 3])], 0).is_err());
        assert!(Tensor::concat(&[&a, &Tensor::zeros(&[2])], 0).is_err());
    }

    #[test]
    fn stack_adds_axis() {
        let a = Tensor::arange(3);
        let b = Tensor::full(&[3], 1.0);
        let s = Tensor::stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape(), &[2, 3]);
        let s1 = Tensor::stack(&[&a, &b], 1).unwrap();
        assert_eq!(s1.shape(), &[3, 2]);
        assert!(Tensor::stack(&[&a, &Tensor::zeros(&[4])], 0).is_err());
        assert!(Tensor::stack(&[], 0).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]).unwrap();
        let s = t.softmax_last().unwrap();
        for r in 0..2 {
            let row_sum: f32 = (0..3).map(|c| s.get(&[r, c]).unwrap()).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Large logits must not overflow.
        assert!(s.get(&[1, 0]).unwrap().is_finite());
        assert!(Tensor::scalar(1.0).softmax_last().is_err());
    }

    #[test]
    fn patch_round_trip() {
        let t = Tensor::arange(16).reshape(&[4, 4]).unwrap();
        let p = t.extract_patches(2, 2).unwrap();
        assert_eq!(p.shape(), &[4, 4]);
        // Patch 0 is the top-left 2x2 block.
        assert_eq!(p.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(p.get(&[0, 3]).unwrap(), 5.0);
        let back = p.assemble_patches(2, 2, 4, 4).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn patch_error_cases() {
        let t = Tensor::zeros(&[4, 4]);
        assert!(t.extract_patches(3, 2).is_err());
        assert!(t.extract_patches(0, 2).is_err());
        assert!(Tensor::zeros(&[4]).extract_patches(2, 2).is_err());
        let p = Tensor::zeros(&[4, 4]);
        assert!(p.assemble_patches(2, 2, 4, 6).is_err());
        assert!(p.assemble_patches(2, 2, 8, 8).is_err());
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let t = Tensor::arange(6).reshape(&[3, 2]).unwrap();
        let g = t.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        assert!(t.gather_rows(&[3]).is_err());
        assert!(Tensor::zeros(&[3]).gather_rows(&[0]).is_err());
    }
}
