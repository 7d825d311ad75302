use std::fmt;

/// Error type for all fallible tensor operations.
///
/// Every public function in this crate that can fail returns
/// [`TensorError`](crate::TensorError); the variants carry enough context to
/// diagnose shape mismatches without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The product of the requested shape does not match the element count.
    ShapeMismatch {
        /// Shape the caller asked for.
        expected: Vec<usize>,
        /// Number of elements actually available.
        got: usize,
    },
    /// Two operand shapes cannot be broadcast together.
    BroadcastError {
        /// Left-hand operand shape.
        lhs: Vec<usize>,
        /// Right-hand operand shape.
        rhs: Vec<usize>,
    },
    /// Matrix multiplication inner dimensions disagree.
    MatmulMismatch {
        /// Left-hand operand shape.
        lhs: Vec<usize>,
        /// Right-hand operand shape.
        rhs: Vec<usize>,
    },
    /// An axis index was out of range for the tensor rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// Rank of the tensor.
        rank: usize,
    },
    /// An element index was out of range along some axis.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Length of the axis being indexed.
        len: usize,
    },
    /// The operation requires a different rank than the tensor has.
    RankMismatch {
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor supplied.
        got: usize,
    },
    /// A shape has more axes than a tensor can hold
    /// ([`MAX_RANK`](crate::MAX_RANK)).
    RankTooLarge {
        /// Rank of the shape asked for.
        rank: usize,
        /// The largest rank a tensor can hold.
        max: usize,
    },
    /// Tensors passed to a multi-tensor operation (e.g. concat/stack) have
    /// incompatible shapes.
    IncompatibleShapes {
        /// Human-readable description of the incompatibility.
        context: String,
    },
    /// An argument was invalid for reasons other than shape (e.g. an empty
    /// tensor list, a zero-sized dimension where one is not allowed).
    InvalidArgument {
        /// Human-readable description of the problem.
        context: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => write!(
                f,
                "shape {expected:?} requires {} elements but {got} were provided",
                expected.iter().product::<usize>()
            ),
            TensorError::BroadcastError { lhs, rhs } => {
                write!(f, "cannot broadcast shapes {lhs:?} and {rhs:?}")
            }
            TensorError::MatmulMismatch { lhs, rhs } => {
                write!(f, "cannot matrix-multiply shapes {lhs:?} and {rhs:?}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for axis of length {len}")
            }
            TensorError::RankMismatch { expected, got } => {
                write!(f, "expected tensor of rank {expected} but got rank {got}")
            }
            TensorError::RankTooLarge { rank, max } => {
                write!(f, "rank {rank} exceeds the largest tensor rank, {max}")
            }
            TensorError::IncompatibleShapes { context } => {
                write!(f, "incompatible shapes: {context}")
            }
            TensorError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch_mentions_element_count() {
        let err = TensorError::ShapeMismatch {
            expected: vec![2, 3],
            got: 5,
        };
        let msg = err.to_string();
        assert!(msg.contains('6'), "message should contain product: {msg}");
        assert!(msg.contains('5'));
    }

    #[test]
    fn display_broadcast_error_mentions_both_shapes() {
        let err = TensorError::BroadcastError {
            lhs: vec![2, 3],
            rhs: vec![4],
        };
        let msg = err.to_string();
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[4]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
