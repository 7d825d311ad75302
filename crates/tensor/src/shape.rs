use crate::{Result, TensorError};

use std::ops::Deref;

/// The largest rank a [`Shape`] (and so a tensor) can have.
///
/// A census found rank 5 the largest any test, example, paper bin or
/// benchmark workload builds: the `[batch, channels, t, h, w]` volumes
/// of the 3-D convolutions (the whole suite passes with this capacity).
pub const MAX_RANK: usize = 5;

/// A tensor's axis extents, held inline: a fixed-capacity array of
/// [`MAX_RANK`] entries plus a length, so building, copying or comparing
/// a shape never touches the heap. Row-major strides
/// ([`strides_for`]) use the same type.
///
/// Dereferences to the `&[usize]` of its axes.
///
/// # Examples
///
/// ```
/// use snappix_tensor::{Shape, TensorError, MAX_RANK};
/// # fn main() -> Result<(), TensorError> {
/// let shape = Shape::new(&[2, 3, 4])?;
/// assert_eq!(&*shape, &[2, 3, 4]);
/// assert_eq!(shape.numel(), 24);
/// assert!(matches!(
///     Shape::new(&[1; MAX_RANK + 1]),
///     Err(TensorError::RankTooLarge { .. })
/// ));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    /// The extents; entries at and past `rank` stay 0, so the derived
    /// equality and hash see only the axes.
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// The shape with axes `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankTooLarge`] for more than [`MAX_RANK`]
    /// axes.
    pub fn new(dims: &[usize]) -> Result<Shape> {
        if dims.len() > MAX_RANK {
            return Err(TensorError::RankTooLarge {
                rank: dims.len(),
                max: MAX_RANK,
            });
        }
        let mut shape = Shape {
            dims: [0; MAX_RANK],
            rank: dims.len(),
        };
        shape.dims[..dims.len()].copy_from_slice(dims);
        Ok(shape)
    }

    /// [`Shape::new`] for the infallible constructors.
    ///
    /// # Panics
    ///
    /// Panics for more than [`MAX_RANK`] axes.
    pub(crate) fn of(dims: &[usize]) -> Shape {
        Shape::new(dims).unwrap_or_else(|err| panic!("{err}"))
    }

    /// The axes as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of elements: the product of the extents (1 for rank 0).
    pub fn numel(&self) -> usize {
        self.as_slice().iter().product()
    }

    /// Inserts an axis of extent `extent` before axis `axis` (`axis <=
    /// rank`).
    pub(crate) fn insert(&mut self, axis: usize, extent: usize) -> Result<()> {
        if self.rank == MAX_RANK {
            return Err(TensorError::RankTooLarge {
                rank: MAX_RANK + 1,
                max: MAX_RANK,
            });
        }
        self.dims.copy_within(axis..self.rank, axis + 1);
        self.dims[axis] = extent;
        self.rank += 1;
        Ok(())
    }

    /// Removes axis `axis` (`axis < rank`).
    pub(crate) fn remove(&mut self, axis: usize) {
        self.dims.copy_within(axis + 1..self.rank, axis);
        self.rank -= 1;
        self.dims[self.rank] = 0;
    }

    /// Mutable access to the axes.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [usize] {
        &mut self.dims[..self.rank]
    }
}

impl Deref for Shape {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Shape {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<const N: usize> PartialEq<[usize; N]> for Shape {
    fn eq(&self, other: &[usize; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<usize>> for Shape {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Computes row-major (C-order) strides for `dims`.
///
/// The last axis always has stride 1; an empty `dims` yields no strides.
///
/// # Errors
///
/// Returns [`TensorError::RankTooLarge`] for more than [`MAX_RANK`]
/// axes.
///
/// # Examples
///
/// ```
/// use snappix_tensor::strides_for;
/// # fn main() -> Result<(), snappix_tensor::TensorError> {
/// assert_eq!(strides_for(&[2, 3, 4])?, [12, 4, 1]);
/// assert!(strides_for(&[])?.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn strides_for(dims: &[usize]) -> Result<Shape> {
    let mut strides = Shape::new(dims)?;
    let s = strides.as_mut_slice();
    let mut step = 1;
    for (stride, &d) in s.iter_mut().zip(dims).rev() {
        *stride = step;
        step *= d;
    }
    Ok(strides)
}

/// Computes the NumPy-style broadcast of two shapes.
///
/// Shapes are aligned at the trailing axes; each pair of extents must be
/// equal or one of them must be `1`.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastError`] when any aligned pair of extents
/// differs and neither is `1`, and [`TensorError::RankTooLarge`] when
/// either shape has more than [`MAX_RANK`] axes.
///
/// # Examples
///
/// ```
/// use snappix_tensor::broadcast_shapes;
/// # fn main() -> Result<(), snappix_tensor::TensorError> {
/// assert_eq!(broadcast_shapes(&[4, 1, 3], &[2, 3])?, [4, 2, 3]);
/// assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
/// # Ok(())
/// # }
/// ```
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Shape> {
    let rank = lhs.len().max(rhs.len());
    let mut out = Shape::new(if lhs.len() >= rhs.len() { lhs } else { rhs })?;
    for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
        let l = if i < rank - lhs.len() {
            1
        } else {
            lhs[i - (rank - lhs.len())]
        };
        let r = if i < rank - rhs.len() {
            1
        } else {
            rhs[i - (rank - rhs.len())]
        };
        *o = if l == r {
            l
        } else if l == 1 {
            r
        } else if r == 1 {
            l
        } else {
            return Err(TensorError::BroadcastError {
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            });
        };
    }
    Ok(out)
}

/// Converts a flat row-major index into per-axis coordinates.
pub(crate) fn unravel(mut flat: usize, dims: &[usize]) -> Vec<usize> {
    let strides = strides_for(dims).expect("a tensor's own shape");
    let mut coords = vec![0usize; dims.len()];
    for (i, &s) in strides.iter().enumerate() {
        coords[i] = flat / s;
        flat %= s;
    }
    coords
}

/// Row-major strides of an operand with shape `dims`, right-aligned into
/// a broadcast output of rank `out_rank`, with broadcast axes (missing
/// or size 1) given stride 0.
///
/// Together with an odometer walk over the output shape this lets
/// broadcast loops run without any per-element allocation or div/mod
/// (see [`Tensor::zip_with`](crate::Tensor::zip_with)).
pub(crate) fn broadcast_strides(dims: &[usize], out_rank: usize) -> Shape {
    let strides = strides_for(dims).expect("a tensor's own shape");
    let mut eff = Shape::of(&[0; MAX_RANK][..out_rank]);
    let offset = out_rank - dims.len();
    for (i, &d) in dims.iter().enumerate() {
        eff.as_mut_slice()[offset + i] = if d == 1 { 0 } else { strides[i] };
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]).unwrap(), [12, 4, 1]);
        assert_eq!(strides_for(&[5]).unwrap(), [1]);
        assert!(strides_for(&[]).unwrap().is_empty());
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
    }

    #[test]
    fn broadcast_scalar_with_anything() {
        assert_eq!(broadcast_shapes(&[], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 3], &[]).unwrap(), vec![2, 3]);
    }

    #[test]
    fn broadcast_ones_expand() {
        assert_eq!(
            broadcast_shapes(&[4, 1, 3], &[1, 2, 1]).unwrap(),
            vec![4, 2, 3]
        );
    }

    #[test]
    fn broadcast_trailing_alignment() {
        assert_eq!(broadcast_shapes(&[5, 4], &[4]).unwrap(), vec![5, 4]);
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let err = broadcast_shapes(&[2, 3], &[4]).unwrap_err();
        assert!(matches!(err, TensorError::BroadcastError { .. }));
    }

    #[test]
    fn unravel_round_trip() {
        let dims = [3, 4, 5];
        for flat in 0..60 {
            let c = unravel(flat, &dims);
            let strides = strides_for(&dims).unwrap();
            let back: usize = c.iter().zip(&strides).map(|(a, b)| a * b).sum();
            assert_eq!(back, flat);
        }
    }

    #[test]
    fn broadcast_strides_zero_unit_and_missing_axes() {
        // operand shape [1, 3] broadcast into rank-2 output: the unit
        // axis contributes stride 0, the real axis its row-major stride.
        assert_eq!(broadcast_strides(&[1, 3], 2), vec![0, 1]);
        // operand shape [3] right-aligned into rank-3 output.
        assert_eq!(broadcast_strides(&[3], 3), vec![0, 0, 1]);
        assert_eq!(broadcast_strides(&[2, 1, 3], 3), vec![3, 0, 1]);
    }
}
