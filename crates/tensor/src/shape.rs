use crate::{Result, TensorError};

/// Computes row-major (C-order) strides for `dims`.
///
/// The last axis always has stride 1; an empty `dims` yields an empty vector.
///
/// # Examples
///
/// ```
/// use snappix_tensor::strides_for;
/// assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
/// assert_eq!(strides_for(&[]), Vec::<usize>::new());
/// ```
pub fn strides_for(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Computes the NumPy-style broadcast of two shapes.
///
/// Shapes are aligned at the trailing axes; each pair of extents must be
/// equal or one of them must be `1`.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastError`] when any aligned pair of extents
/// differs and neither is `1`.
///
/// # Examples
///
/// ```
/// use snappix_tensor::broadcast_shapes;
/// # fn main() -> Result<(), snappix_tensor::TensorError> {
/// assert_eq!(broadcast_shapes(&[4, 1, 3], &[2, 3])?, vec![4, 2, 3]);
/// assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
/// # Ok(())
/// # }
/// ```
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
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
        out[i] = if l == r {
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
    let strides = strides_for(dims);
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
pub(crate) fn broadcast_strides(dims: &[usize], out_rank: usize) -> Vec<usize> {
    let strides = strides_for(dims);
    let mut eff = vec![0usize; out_rank];
    let offset = out_rank - dims.len();
    for (i, &d) in dims.iter().enumerate() {
        eff[offset + i] = if d == 1 { 0 } else { strides[i] };
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
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
            let strides = strides_for(&dims);
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
