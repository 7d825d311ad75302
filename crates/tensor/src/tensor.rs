use crate::shape::{broadcast_strides, strides_for, Shape, MAX_RANK};
use crate::storage::{BufferSource, DType, Heap, SharedBuffer, Storage};
use crate::{broadcast_shapes, Result, TensorError};

/// A dense, row-major, contiguous `f32` tensor.
///
/// `Tensor` is the numeric workhorse of the SnapPix reproduction. Its
/// elements are a contiguous C-order window over a reference-counted
/// [`SharedBuffer`]. [`Clone`] and the shape-only ops ([`reshape`],
/// [`flatten`], [`unsqueeze`], [`squeeze`]) share that buffer in O(1)
/// instead of copying it. Every other operation writes a fresh output
/// tensor, and in-place variants exist where the training loops need
/// them (e.g. [`Tensor::add_assign`]). The first write to a buffer held
/// elsewhere copies the window into a buffer of its own (copy-on-write),
/// so no tensor ever sees another's writes; a tensor that holds its
/// whole buffer alone is written in place. The shape is an inline
/// [`Shape`] of at most [`MAX_RANK`] axes, so only the elements live on
/// the heap.
///
/// [`reshape`]: Tensor::reshape
/// [`flatten`]: Tensor::flatten
/// [`unsqueeze`]: Tensor::unsqueeze
/// [`squeeze`]: Tensor::squeeze
///
/// # Examples
///
/// ```
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_tensor::TensorError> {
/// let video = Tensor::zeros(&[16, 32, 32]); // T x H x W
/// assert_eq!(video.len(), 16 * 32 * 32);
/// let frame = video.index_axis(0, 3)?;      // H x W
/// assert_eq!(frame.shape(), &[32, 32]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Tensor {
    data: Storage,
    shape: Shape,
}

/// Value equality: same shape, same elements (positionally, with IEEE
/// `f32` semantics — `NaN != NaN`). Where the elements *live* (which
/// buffer, at which offset) never affects equality.
impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` has more than [`MAX_RANK`] axes, as do the other
    /// infallible constructors.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::of(shape);
        Tensor {
            data: Storage::new(vec![value; shape.numel()]),
            shape,
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: Storage::new(vec![value]),
            shape: Shape::default(),
        }
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the product of `shape`, or [`TensorError::RankTooLarge`] for more
    /// than [`MAX_RANK`] axes.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape)?;
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: data.len(),
            });
        }
        Ok(Tensor {
            data: Storage::new(data),
            shape,
        })
    }

    /// A tensor of `shape` over a buffer from `source`, for a kernel
    /// that writes every element: the elements are whatever the buffer
    /// held (zeros from the heap, a recycled buffer's old values from a
    /// free list).
    pub fn from_source(source: &mut dyn BufferSource, shape: Shape) -> Tensor {
        let len = shape.numel();
        let buf = source.take(len);
        debug_assert_eq!(buf.len(), len, "a source hands out exact lengths");
        Tensor {
            data: Storage::window(buf, 0, len),
            shape,
        }
    }

    /// The tensor's buffer, when the tensor is its only holder: no clone,
    /// view or other tensor shares it, so nothing can read it after this
    /// call. `None` otherwise. Free lists recycle buffers through this.
    pub fn into_unique_buffer(self) -> Option<SharedBuffer> {
        self.data.into_unique_buffer()
    }

    /// Creates a tensor over the window of `count =
    /// shape.iter().product()` elements at `offset` into `buf`, without
    /// copying: the tensor and every clone of it share `buf`.
    ///
    /// Model-artifact readers use this to hand every serving replica a
    /// window into one payload buffer. The first write through the
    /// tensor (e.g. [`Tensor::as_mut_slice`]) copies the window into a
    /// buffer of its own, so `buf` itself is never written.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the window
    /// `offset..offset + count` does not lie inside `buf`, or
    /// [`TensorError::RankTooLarge`] for more than [`MAX_RANK`] axes.
    pub fn from_shared(buf: SharedBuffer, offset: usize, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape)?;
        let count = shape.numel();
        let end = offset.checked_add(count);
        if end.is_none_or(|end| end > buf.len()) {
            return Err(TensorError::InvalidArgument {
                context: format!(
                    "shared window {offset}..{offset}+{count} exceeds buffer of {} elements",
                    buf.len()
                ),
            });
        }
        Ok(Tensor {
            data: Storage::window(buf, offset, count),
            shape,
        })
    }

    /// Creates a 1-D tensor with values `0, 1, ..., n-1`.
    pub fn arange(n: usize) -> Self {
        Tensor {
            data: Storage::new((0..n).map(|i| i as f32).collect()),
            shape: Shape::of(&[n]),
        }
    }

    /// Creates a 1-D tensor of `n` evenly spaced values from `start` to
    /// `stop` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linspace(start: f32, stop: f32, n: usize) -> Self {
        assert!(n > 0, "linspace requires n > 0");
        if n == 1 {
            return Tensor::from_vec(vec![start], &[1]).expect("shape matches");
        }
        let step = (stop - start) / (n - 1) as f32;
        Tensor {
            data: Storage::new((0..n).map(|i| start + step * i as f32).collect()),
            shape: Shape::of(&[n]),
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let data = t.data.make_mut();
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Shape of the tensor as a slice of axis extents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The shape as an inline [`Shape`], for building another tensor of
    /// the same shape (e.g. with [`Tensor::from_source`]).
    pub fn dims(&self) -> Shape {
        self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    /// Elements as a flat row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Elements as a mutable flat row-major slice.
    ///
    /// A tensor that holds its whole buffer alone (any freshly built
    /// one) is written in place; otherwise its window is first copied
    /// into a buffer of its own (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Element type of this tensor. Always [`DType::F32`] in memory
    /// today; the tag is the seam where quantized weight paths land.
    pub fn dtype(&self) -> DType {
        DType::F32
    }

    /// The buffer this tensor's elements are a window of. Two tensors
    /// share storage exactly when their buffers are
    /// [`std::sync::Arc::ptr_eq`].
    pub fn shared_buffer(&self) -> &SharedBuffer {
        self.data.buffer()
    }

    /// Row-major strides of the tensor.
    pub fn strides(&self) -> Shape {
        strides_for(&self.shape).expect("a tensor's own shape")
    }

    /// Reads the element at multi-axis `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `index.len() != rank`, or
    /// [`TensorError::IndexOutOfRange`] if any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.as_slice()[self.flat_index(index)?])
    }

    /// Writes `value` at multi-axis `index`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::get`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.flat_index(index)?;
        self.data.make_mut()[flat] = value;
        Ok(())
    }

    /// Returns the single element of a tensor with exactly one element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor has more than
    /// one element.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() != 1 {
            return Err(TensorError::InvalidArgument {
                context: format!("item() on tensor with {} elements", self.data.len()),
            });
        }
        Ok(self.as_slice()[0])
    }

    fn flat_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(TensorError::RankMismatch {
                expected: self.shape.len(),
                got: index.len(),
            });
        }
        let mut flat = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.shape).zip(&strides) {
            if i >= d {
                return Err(TensorError::IndexOutOfRange { index: i, len: d });
            }
            flat += i * s;
        }
        Ok(flat)
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts
    /// differ, or [`TensorError::RankTooLarge`] for more than
    /// [`MAX_RANK`] axes.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape)?;
        if shape.numel() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: self.data.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Flattens to a 1-D tensor.
    pub fn flatten(&self) -> Self {
        Tensor {
            data: self.data.clone(),
            shape: Shape::of(&[self.data.len()]),
        }
    }

    /// Inserts a new axis of extent 1 at position `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis > rank`, or
    /// [`TensorError::RankTooLarge`] if the tensor already has
    /// [`MAX_RANK`] axes.
    pub fn unsqueeze(&self, axis: usize) -> Result<Self> {
        if axis > self.shape.len() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.shape.len(),
            });
        }
        let mut shape = self.shape;
        shape.insert(axis, 1)?;
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Removes an axis of extent 1 at position `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`, or
    /// [`TensorError::InvalidArgument`] if the axis extent is not 1.
    pub fn squeeze(&self, axis: usize) -> Result<Self> {
        if axis >= self.shape.len() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.shape.len(),
            });
        }
        if self.shape[axis] != 1 {
            return Err(TensorError::InvalidArgument {
                context: format!("cannot squeeze axis {axis} of extent {}", self.shape[axis]),
            });
        }
        let mut shape = self.shape;
        shape.remove(axis);
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Permutes the axes: output axis `i` is input axis `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] unless `perm` is a
    /// permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        let rank = self.shape.len();
        if perm.len() != rank {
            return Err(TensorError::InvalidArgument {
                context: format!("permutation {perm:?} does not match rank {rank}"),
            });
        }
        let mut seen = [false; MAX_RANK];
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::InvalidArgument {
                    context: format!("{perm:?} is not a permutation of 0..{rank}"),
                });
            }
            seen[p] = true;
        }
        let mut out_shape = self.shape;
        for (o, &p) in out_shape.as_mut_slice().iter_mut().zip(perm) {
            *o = self.shape[p];
        }
        let mut out = Tensor::zeros(&out_shape);
        if out.is_empty() {
            return Ok(out);
        }
        // Trailing axes the permutation leaves in place are one contiguous
        // run in both source and output (the attention head split keeps
        // the head dimension last), so they are copied run by run; the
        // odometer walks only the axes in front of them.
        let kept = (0..rank)
            .rev()
            .take_while(|&axis| perm[axis] == axis)
            .count();
        let outer = rank - kept;
        let run: usize = out_shape[outer..].iter().product();
        let in_strides = self.strides();
        // Source strides reordered into output-axis order; the odometer
        // walk below then visits the source without per-element
        // coordinate math.
        let src_strides: [usize; MAX_RANK] =
            std::array::from_fn(|axis| perm.get(axis).map_or(0, |&p| in_strides[p]));
        let src_data = self.as_slice();
        let mut coords = [0usize; MAX_RANK];
        let mut src = 0usize;
        for dst in out.data.make_mut().chunks_exact_mut(run) {
            if run == 1 {
                dst[0] = src_data[src];
            } else {
                dst.copy_from_slice(&src_data[src..src + run]);
            }
            for axis in (0..outer).rev() {
                coords[axis] += 1;
                src += src_strides[axis];
                if coords[axis] < out_shape[axis] {
                    break;
                }
                coords[axis] = 0;
                src -= src_strides[axis] * out_shape[axis];
            }
        }
        Ok(out)
    }

    /// Transposes the last two axes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors of rank < 2.
    pub fn transpose(&self) -> Result<Self> {
        let rank = self.shape.len();
        if rank < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: rank,
            });
        }
        let mut perm: [usize; MAX_RANK] = std::array::from_fn(|axis| axis);
        perm.swap(rank - 1, rank - 2);
        self.permute(&perm[..rank])
    }

    /// Materializes a broadcast of this tensor to `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastError`] if the shapes are not
    /// broadcast-compatible or the broadcast would shrink the tensor.
    pub fn broadcast_to(&self, shape: &[usize]) -> Result<Self> {
        let merged = broadcast_shapes(&self.shape, shape)?;
        if *merged != *shape {
            return Err(TensorError::BroadcastError {
                lhs: self.shape.to_vec(),
                rhs: shape.to_vec(),
            });
        }
        let rank = shape.len();
        let strides = broadcast_strides(&self.shape, rank);
        let src_data = self.as_slice();
        let mut out = Tensor::zeros(shape);
        let mut coords = [0usize; MAX_RANK];
        let mut src = 0usize;
        for o in out.data.make_mut().iter_mut() {
            *o = src_data[src];
            for axis in (0..rank).rev() {
                coords[axis] += 1;
                src += strides[axis];
                if coords[axis] < shape[axis] {
                    break;
                }
                coords[axis] = 0;
                src -= strides[axis] * shape[axis];
            }
        }
        Ok(out)
    }

    /// Selects index `index` along `axis`, dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] or
    /// [`TensorError::IndexOutOfRange`] on bad arguments.
    pub fn index_axis(&self, axis: usize, index: usize) -> Result<Self> {
        let picked = self.slice_axis(axis, index, index + 1)?;
        picked.squeeze(axis)
    }

    /// Slices `[start, end)` along `axis`, keeping the axis.
    ///
    /// When every axis before `axis` has extent 1 the slice is one
    /// contiguous run, and the result is a window over this tensor's
    /// buffer (shared like [`Tensor::reshape`]'s); otherwise the
    /// elements are copied.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`, or
    /// [`TensorError::IndexOutOfRange`] if `start > end` or
    /// `end > shape[axis]`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Self> {
        let rank = self.shape.len();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        if start > end || end > self.shape[axis] {
            return Err(TensorError::IndexOutOfRange {
                index: end,
                len: self.shape[axis],
            });
        }
        let mut out_shape = self.shape;
        out_shape.as_mut_slice()[axis] = end - start;
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        if outer == 1 {
            return Ok(Tensor {
                data: self.data.slice(start * inner, (end - start) * inner),
                shape: out_shape,
            });
        }
        let src = self.as_slice();
        let mut data = Vec::with_capacity(out_shape.numel());
        for o in 0..outer {
            let base = o * self.shape[axis] * inner;
            data.extend_from_slice(&src[base + start * inner..base + end * inner]);
        }
        Ok(Tensor {
            data: Storage::new(data),
            shape: out_shape,
        })
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        self.map_in(f, &mut Heap)
    }

    /// [`Tensor::map`] into a buffer from `out`.
    pub fn map_in(&self, f: impl Fn(f32) -> f32, out: &mut dyn BufferSource) -> Self {
        let mut y = Tensor::from_source(out, self.shape);
        for (o, &x) in y.data.make_mut().iter_mut().zip(self.as_slice()) {
            *o = f(x);
        }
        y
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.make_mut() {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastError`] if the shapes are not
    /// broadcast-compatible.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        self.zip_with_in(other, f, &mut Heap)
    }

    /// [`Tensor::zip_with`] into a buffer from `out`.
    ///
    /// # Errors
    ///
    /// See [`Tensor::zip_with`].
    pub fn zip_with_in(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
        out: &mut dyn BufferSource,
    ) -> Result<Self> {
        if self.shape == other.shape {
            // Fast path: identical shapes.
            let mut y = Tensor::from_source(out, self.shape);
            let pairs = self.as_slice().iter().zip(other.as_slice());
            for (o, (&a, &b)) in y.data.make_mut().iter_mut().zip(pairs) {
                *o = f(a, b);
            }
            return Ok(y);
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape)?;
        let mut out = Tensor::from_source(out, out_shape);
        if out.is_empty() {
            return Ok(out);
        }
        // Two rank-0 operands have equal shapes, so the output has a last
        // axis. Per-operand strides are precomputed (0 on broadcast axes)
        // and an odometer walks the outer axes once per output row; along
        // the row each operand is either contiguous (stride 1) or one
        // repeated element (stride 0), so the inner loops below carry no
        // index arithmetic — the pre-ViT stack is dominated by exactly
        // these broadcast ops (bias adds, layer-norm scaling).
        let outer = out_shape.len() - 1;
        let n = out_shape[outer];
        let a_strides = broadcast_strides(&self.shape, outer + 1);
        let b_strides = broadcast_strides(&other.shape, outer + 1);
        let a_data = self.as_slice();
        let b_data = other.as_slice();
        let mut coords = [0usize; MAX_RANK];
        let (mut ai, mut bi) = (0usize, 0usize);
        for row in out.data.make_mut().chunks_exact_mut(n) {
            match (a_strides[outer], b_strides[outer]) {
                (1, 1) => {
                    let (a_row, b_row) = (&a_data[ai..ai + n], &b_data[bi..bi + n]);
                    for ((o, &a), &b) in row.iter_mut().zip(a_row).zip(b_row) {
                        *o = f(a, b);
                    }
                }
                (1, _) => {
                    let b = b_data[bi];
                    for (o, &a) in row.iter_mut().zip(&a_data[ai..ai + n]) {
                        *o = f(a, b);
                    }
                }
                (_, 1) => {
                    let a = a_data[ai];
                    for (o, &b) in row.iter_mut().zip(&b_data[bi..bi + n]) {
                        *o = f(a, b);
                    }
                }
                _ => row.fill(f(a_data[ai], b_data[bi])),
            }
            for axis in (0..outer).rev() {
                coords[axis] += 1;
                ai += a_strides[axis];
                bi += b_strides[axis];
                if coords[axis] < out_shape[axis] {
                    break;
                }
                coords[axis] = 0;
                ai -= a_strides[axis] * out_shape[axis];
                bi -= b_strides[axis] * out_shape[axis];
            }
        }
        Ok(out)
    }

    /// Elementwise sum with broadcasting.
    ///
    /// # Errors
    ///
    /// See [`Tensor::zip_with`].
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Errors
    ///
    /// See [`Tensor::zip_with`].
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product with broadcasting.
    ///
    /// # Errors
    ///
    /// See [`Tensor::zip_with`].
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient with broadcasting.
    ///
    /// # Errors
    ///
    /// See [`Tensor::zip_with`].
    pub fn div(&self, other: &Tensor) -> Result<Self> {
        self.zip_with(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place; shapes must match exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                context: format!("add_assign shapes {:?} vs {:?}", self.shape, other.shape),
            });
        }
        for (a, &b) in self.data.make_mut().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Returns `true` when every element differs from `other` by at most
    /// `tol` (and the shapes match).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        const MAX: usize = 16;
        let data = self.as_slice();
        if data.len() <= MAX {
            write!(f, "{data:?}")
        } else {
            write!(f, "{:?}... ({} elements)", &data[..MAX], data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A tensor over a window at `offset` into a buffer padded with
    /// junk on both sides, holding `t`'s values.
    fn windowed(t: &Tensor, offset: usize) -> Tensor {
        let mut buf = vec![-7.0; offset];
        buf.extend_from_slice(t.as_slice());
        buf.push(-7.0);
        Tensor::from_shared(Arc::new(buf), offset, t.shape()).unwrap()
    }

    #[test]
    fn from_shared_views_window_and_checks_bounds() {
        let buf: SharedBuffer = Arc::new((0..10).map(|i| i as f32).collect());
        let t = Tensor::from_shared(Arc::clone(&buf), 2, &[2, 3]).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.as_slice(), &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.dtype(), DType::F32);
        assert!(Arc::ptr_eq(t.shared_buffer(), &buf));
        // One-past-the-end window is rejected, as is offset overflow.
        assert!(matches!(
            Tensor::from_shared(Arc::clone(&buf), 5, &[2, 3]),
            Err(TensorError::InvalidArgument { .. })
        ));
        assert!(matches!(
            Tensor::from_shared(Arc::clone(&buf), usize::MAX, &[2]),
            Err(TensorError::InvalidArgument { .. })
        ));
        // Exactly-fitting window is fine.
        assert!(Tensor::from_shared(buf, 4, &[6]).is_ok());
    }

    #[test]
    fn shared_tensor_clones_share_storage() {
        let t = Tensor::arange(8);
        let u = t.clone();
        assert!(Arc::ptr_eq(t.shared_buffer(), u.shared_buffer()));
    }

    #[test]
    fn shape_only_ops_share_until_written() {
        let mut t = Tensor::zeros(&[2, 3]);
        // The hot path: a tensor holding its whole buffer alone is written
        // in place and moved out, never copied.
        let data = t.as_slice().as_ptr();
        t.as_mut_slice()[0] = 1.0;
        assert_eq!(t.as_slice().as_ptr(), data);
        let views = [
            t.clone(),
            t.reshape(&[3, 2]).unwrap(),
            t.flatten(),
            t.unsqueeze(0).unwrap(),
            t.unsqueeze(0).unwrap().squeeze(0).unwrap(),
        ];
        for mut view in views {
            assert!(Arc::ptr_eq(view.shared_buffer(), t.shared_buffer()));
            // A write detaches only the writer; t keeps its values.
            view.as_mut_slice()[1] = 9.0;
            assert!(!Arc::ptr_eq(view.shared_buffer(), t.shared_buffer()));
            assert_eq!(view.as_slice(), &[1.0, 9.0, 0.0, 0.0, 0.0, 0.0]);
            assert_eq!(t.as_slice(), &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        }
        let moved = t.into_unique_buffer().expect("every view is gone");
        assert_eq!(moved.as_ptr(), data);
    }

    #[test]
    fn contiguous_slices_share_until_written() {
        let t = Tensor::arange(12).reshape(&[3, 4]).unwrap();
        let original = t.clone();
        let views = [
            (t.slice_axis(0, 1, 3).unwrap(), 4..12),
            (t.index_axis(0, 2).unwrap(), 8..12),
            // Every axis before the cut has extent 1: still one run.
            (t.unsqueeze(0).unwrap().slice_axis(1, 0, 2).unwrap(), 0..8),
        ];
        for (mut view, range) in views {
            let expected: Vec<f32> = range.map(|v| v as f32).collect();
            assert!(Arc::ptr_eq(view.shared_buffer(), t.shared_buffer()));
            assert_eq!(view.as_slice(), expected.as_slice());
            // A write detaches only the writer.
            view.as_mut_slice()[0] = -1.0;
            assert!(!Arc::ptr_eq(view.shared_buffer(), t.shared_buffer()));
            assert_eq!(view.as_slice()[0], -1.0);
            assert_eq!(view.as_slice()[1..], expected[1..]);
            assert_eq!(t, original);
        }
        // A cut behind a longer axis is strided, so it is copied.
        let cols = t.slice_axis(1, 1, 3).unwrap();
        assert!(!Arc::ptr_eq(cols.shared_buffer(), t.shared_buffer()));
        assert_eq!(cols.as_slice(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn mutating_a_shared_tensor_copies_on_write() {
        let t = Tensor::arange(4);
        let mut u = t.clone();
        u.set(&[1], 99.0).unwrap();
        assert!(!Arc::ptr_eq(u.shared_buffer(), t.shared_buffer()));
        assert_eq!(u.as_slice(), &[0.0, 99.0, 2.0, 3.0]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        let mut v = t.clone();
        v.as_mut_slice()[0] = -1.0;
        assert_eq!(t.as_slice()[0], 0.0);
        let mut w = t.clone();
        w.map_inplace(|x| x + 1.0);
        assert_eq!(w.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn equality_ignores_storage_kind() {
        let owned = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let shared = windowed(&owned, 3);
        assert_eq!(owned, shared);
        assert_ne!(owned, Tensor::zeros(&[2, 3]));
        assert_ne!(owned, Tensor::arange(6)); // same data, different shape
    }

    #[test]
    fn ops_on_shared_tensors_match_owned() {
        let a = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let sa = windowed(&a, 1);
        let sb = windowed(&b, 2);
        assert_eq!(a.add(&sb).unwrap(), sa.add(&sb).unwrap());
        assert_eq!(a.add(&b).unwrap(), sa.add(&sb).unwrap());
        assert_eq!(a.permute(&[1, 0]).unwrap(), sa.permute(&[1, 0]).unwrap());
        assert_eq!(
            a.broadcast_to(&[2, 2, 3]).unwrap(),
            sa.broadcast_to(&[2, 2, 3]).unwrap()
        );
        assert_eq!(
            a.slice_axis(1, 1, 3).unwrap(),
            sa.slice_axis(1, 1, 3).unwrap()
        );
        assert_eq!(a.map(|x| x * 2.0), sa.map(|x| x * 2.0));
        assert_eq!(format!("{a}"), format!("{sa}"));
        let c = Tensor::full(&[2, 3], 0.5);
        let sc = windowed(&c, 4);
        let mut a2 = a.clone();
        let mut sa2 = sa.clone();
        a2.add_assign(&c).unwrap();
        sa2.add_assign(&sc).unwrap();
        assert_eq!(a2, sa2);
        assert_eq!(sa.as_slice(), a.as_slice());
    }

    #[test]
    fn shapes_above_max_rank_are_typed_errors() {
        let too_deep = [1; MAX_RANK + 1];
        let rank_error = Err(TensorError::RankTooLarge {
            rank: MAX_RANK + 1,
            max: MAX_RANK,
        });
        assert_eq!(Tensor::from_vec(vec![1.0], &too_deep), rank_error);
        assert_eq!(Tensor::scalar(1.0).reshape(&too_deep), rank_error);
        let deepest = Tensor::zeros(&[1; MAX_RANK]);
        assert_eq!(deepest.unsqueeze(0), rank_error);
        assert_eq!(deepest.squeeze(0).unwrap().rank(), MAX_RANK - 1);
        let buf: SharedBuffer = Arc::new(vec![0.0]);
        assert_eq!(Tensor::from_shared(buf, 0, &too_deep), rank_error);
        assert!(std::panic::catch_unwind(|| Tensor::zeros(&too_deep)).is_err());
    }

    #[test]
    fn kernels_into_a_dirty_source_match_the_heap() {
        /// Hands out buffers full of NaN, as a recycled buffer might be.
        struct Dirty;
        impl BufferSource for Dirty {
            fn take(&mut self, len: usize) -> SharedBuffer {
                Arc::new(vec![f32::NAN; len])
            }
        }
        let a = Tensor::arange(24).reshape(&[2, 3, 4]).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], &[4]).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let square = |x: f32| x * x;
        assert_eq!(bits(&a.map_in(square, &mut Dirty)), bits(&a.map(square)));
        let (sum, broadcast) = (
            a.zip_with_in(&a, |x, y| x + y, &mut Dirty).unwrap(),
            a.zip_with_in(&bias, |x, y| x + y, &mut Dirty).unwrap(),
        );
        assert_eq!(bits(&sum), bits(&a.add(&a).unwrap()));
        assert_eq!(bits(&broadcast), bits(&a.add(&bias).unwrap()));
        assert_eq!(a.into_unique_buffer().map(|b| b.len()), Some(24));
    }

    #[test]
    fn constructors_produce_expected_shapes() {
        assert_eq!(Tensor::zeros(&[2, 3]).len(), 6);
        assert_eq!(Tensor::ones(&[4]).as_slice(), &[1.0; 4]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).rank(), 0);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.as_slice(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(2.0, 9.0, 1).as_slice(), &[2.0]);
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.get(&[1, 2]).unwrap(), 0.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Tensor::from_vec(vec![1.0, 2.0], &[3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn get_rejects_bad_indices() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            t.get(&[2, 0]),
            Err(TensorError::IndexOutOfRange { .. })
        ));
        assert!(matches!(t.get(&[0]), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn item_requires_single_element() {
        assert_eq!(Tensor::scalar(5.0).item().unwrap(), 5.0);
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn unsqueeze_squeeze_round_trip() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let u = t.unsqueeze(1).unwrap();
        assert_eq!(u.shape(), &[2, 1, 3]);
        let s = u.squeeze(1).unwrap();
        assert_eq!(s.shape(), &[2, 3]);
        assert!(u.squeeze(0).is_err());
    }

    #[test]
    fn permute_transposes_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let p = t.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.get(&[0, 1]).unwrap(), 3.0);
        assert_eq!(p.get(&[2, 0]).unwrap(), 2.0);
    }

    #[test]
    fn permute_rejects_non_permutation() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 5]).is_err());
    }

    #[test]
    fn transpose_swaps_last_two() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape(), &[2, 4, 3]);
        assert_eq!(tt.get(&[1, 2, 1]).unwrap(), t.get(&[1, 1, 2]).unwrap());
        assert!(Tensor::arange(3).transpose().is_err());
    }

    #[test]
    fn broadcast_to_expands_unit_axes() {
        let row = Tensor::arange(3).reshape(&[1, 3]).unwrap();
        let b = row.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(b.as_slice(), &[0.0, 1.0, 2.0, 0.0, 1.0, 2.0]);
        assert!(Tensor::zeros(&[2, 3]).broadcast_to(&[3]).is_err());
    }

    #[test]
    fn slice_and_index_axis() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]).unwrap();
        let s = t.slice_axis(1, 1, 3).unwrap();
        assert_eq!(s.shape(), &[2, 2, 4]);
        assert_eq!(s.get(&[0, 0, 0]).unwrap(), 4.0);
        let i = t.index_axis(0, 1).unwrap();
        assert_eq!(i.shape(), &[3, 4]);
        assert_eq!(i.get(&[0, 0]).unwrap(), 12.0);
        assert!(t.slice_axis(3, 0, 1).is_err());
        assert!(t.slice_axis(1, 2, 5).is_err());
    }

    #[test]
    fn elementwise_same_shape() {
        let a = Tensor::arange(4);
        let b = Tensor::full(&[4], 2.0);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -1.0, 0.0, 1.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(a.div(&b).unwrap().as_slice(), &[0.0, 0.5, 1.0, 1.5]);
    }

    #[test]
    fn elementwise_broadcast() {
        let a = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let col = Tensor::from_vec(vec![10.0, 20.0], &[2, 1]).unwrap();
        let r = a.add(&col).unwrap();
        assert_eq!(r.as_slice(), &[10.0, 11.0, 12.0, 23.0, 24.0, 25.0]);
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = Tensor::arange(4);
        let b = Tensor::full(&[4], 1.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let mut c = Tensor::zeros(&[2]);
        assert!(c.add_assign(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn unary_helpers() {
        let t = Tensor::from_vec(vec![-1.0, 4.0], &[2]).unwrap();
        assert_eq!(t.neg().as_slice(), &[1.0, -4.0]);
        assert_eq!(t.abs().as_slice(), &[1.0, 4.0]);
        assert_eq!(t.scale(2.0).as_slice(), &[-2.0, 8.0]);
        assert_eq!(t.add_scalar(1.0).as_slice(), &[0.0, 5.0]);
        assert_eq!(t.clamp(0.0, 2.0).as_slice(), &[0.0, 2.0]);
        assert!((t.abs().sqrt().as_slice()[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::full(&[3], 1.0);
        let b = Tensor::full(&[3], 1.0 + 1e-7);
        assert!(a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Tensor::full(&[2], 1.0), 1.0));
    }

    #[test]
    fn display_truncates_large_tensors() {
        let small = Tensor::arange(3);
        assert!(!format!("{small}").contains("elements"));
        let large = Tensor::zeros(&[100]);
        assert!(format!("{large}").contains("100 elements"));
    }
}
