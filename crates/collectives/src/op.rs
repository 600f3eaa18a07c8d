//! Reduction operators.

/// Element-wise reduction operator applied by all-reduce / reduce /
/// reduce-scatter collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum (the operator SGD gradient aggregation needs).
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Applies the operator in place: `acc[i] = op(acc[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths (a collective
    /// protocol bug, not a user input condition).
    #[inline]
    pub fn apply(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduction operand length mismatch");
        match self {
            ReduceOp::Sum => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            }
            ReduceOp::Max => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = a.max(b);
                }
            }
            ReduceOp::Min => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = a.min(b);
                }
            }
        }
    }

    /// [`ReduceOp::apply`] with the result written to the *right*
    /// operand: `acc[i] = op(left[i], acc[i])`. Same operand order, so
    /// the bits are those `apply(left, acc)` would leave in `left` —
    /// which is what lets a ring reduce into the buffer it received and
    /// forward that buffer, instead of reducing in place and copying
    /// the block out again.
    // `left + acc`, spelled in `apply`'s operand order on purpose.
    #[allow(clippy::assign_op_pattern)]
    #[inline]
    pub fn apply_onto(self, left: &[f64], acc: &mut [f64]) {
        assert_eq!(left.len(), acc.len(), "reduction operand length mismatch");
        match self {
            ReduceOp::Sum => {
                for (&a, b) in left.iter().zip(acc) {
                    *b = a + *b;
                }
            }
            ReduceOp::Max => {
                for (&a, b) in left.iter().zip(acc) {
                    *b = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (&a, b) in left.iter().zip(acc) {
                    *b = a.min(*b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_adds() {
        let mut a = vec![1.0, 2.0];
        ReduceOp::Sum.apply(&mut a, &[10.0, 20.0]);
        assert_eq!(a, vec![11.0, 22.0]);
    }

    #[test]
    fn max_and_min() {
        let mut a = vec![1.0, 5.0];
        ReduceOp::Max.apply(&mut a, &[3.0, 2.0]);
        assert_eq!(a, vec![3.0, 5.0]);
        ReduceOp::Min.apply(&mut a, &[0.0, 9.0]);
        assert_eq!(a, vec![0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = vec![1.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 2.0]);
    }
}
