//! Non-linearities and the softmax cross-entropy head.
//!
//! The forward phase of the paper is "affine transform `Y_i = W_i·X_i`
//! followed by nonlinear transform `X_{i+1} = f(Y_i)`"; these are the
//! `f`s. All operate on the `d × B` column-per-sample layout.

use crate::matrix::Matrix;

/// ReLU over a slice, in place — the one body behind [`relu`] and the
/// trainers' in-place activations.
///
/// A value *select*, not a conditional store and not `f64::max`: the
/// select compiles to a compare-and-mask the vectoriser takes (a store
/// behind a data-dependent branch mispredicts on every sign change),
/// and unlike `max` it keeps `-0.0` and NaN exactly as they came in
/// (`-0.0 < 0.0` and `NaN < 0.0` are both false), which is what the
/// conditional store always did.
pub fn relu_in_place(x: &mut [f64]) {
    for v in x {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Backward ReLU over slices, in place on the gradient:
/// `g ← g ⊙ [x > 0]`. `x` may be the pre-activation or the activated
/// output — `relu(x) ≤ 0` exactly when `x ≤ 0` (NaN fails both), so
/// the mask is the same and a caller that applied [`relu_in_place`]
/// need not keep the pre-activation. A select, like the forward.
pub fn relu_backward_in_place(x: &[f64], g: &mut [f64]) {
    assert_eq!(x.len(), g.len(), "relu backward shape mismatch");
    for (g, &x) in g.iter_mut().zip(x) {
        *g = if x <= 0.0 { 0.0 } else { *g };
    }
}

/// tanh over a slice, in place.
pub fn tanh_in_place(x: &mut [f64]) {
    for v in x {
        *v = v.tanh();
    }
}

/// Backward tanh over slices given the *activated* output
/// `y = tanh(pre)`, in place on the gradient: `g ← g ⊙ (1 − y²)`.
pub fn tanh_backward_in_place(y: &[f64], g: &mut [f64]) {
    assert_eq!(y.len(), g.len(), "tanh backward shape mismatch");
    for (g, &yv) in g.iter_mut().zip(y) {
        *g *= 1.0 - yv * yv;
    }
}

/// Element-wise ReLU.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    relu_in_place(out.as_mut_slice());
    out
}

/// Element-wise tanh.
pub fn tanh(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    tanh_in_place(out.as_mut_slice());
    out
}

/// Softmax cross-entropy over columns (one sample per column).
/// `labels[b]` is the true class of sample `b`. Returns
/// `(mean loss, gradient w.r.t. logits)` where the gradient is
/// `(softmax − onehot)/B` — the `1/B` matching the paper's Eq. 1
/// mini-batch averaging. An empty batch (a rank past the
/// batch-parallel limit holds no sample) contributes loss 0, not the
/// `0/0` of a mean over nothing.
pub fn softmax_xent(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    let (classes, b) = logits.shape();
    assert_eq!(labels.len(), b, "one label per column");
    let mut grad = Matrix::zeros(classes, b);
    let mut loss = 0.0;
    for col in 0..b {
        let mut maxv = f64::NEG_INFINITY;
        for row in 0..classes {
            maxv = maxv.max(logits.get(row, col));
        }
        let mut denom = 0.0;
        for row in 0..classes {
            denom += (logits.get(row, col) - maxv).exp();
        }
        let label = labels[col];
        assert!(label < classes, "label {label} out of {classes} classes");
        let logp = logits.get(label, col) - maxv - denom.ln();
        loss -= logp;
        for row in 0..classes {
            let p = (logits.get(row, col) - maxv).exp() / denom;
            let onehot = if row == label { 1.0 } else { 0.0 };
            grad.set(row, col, (p - onehot) / b as f64);
        }
    }
    (if b == 0 { 0.0 } else { loss / b as f64 }, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn softmax_xent_of_an_empty_batch_is_zero_not_nan() {
        let (loss, grad) = softmax_xent(&Matrix::zeros(5, 0), &[]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.shape(), (5, 0));
    }

    #[test]
    fn relu_backward_in_place_masks() {
        let mut dx = [5.0, 5.0, 5.0];
        relu_backward_in_place(&[-1.0, 1.0, 0.0], &mut dx);
        assert_eq!(dx, [0.0, 5.0, 0.0]);
    }

    /// The clone-then-conditional-store bodies the slice kernels
    /// replaced, kept as the bit-for-bit reference.
    fn legacy_relu(x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        for v in &mut out {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        out
    }

    fn legacy_relu_backward(pre: &[f64], dy: &[f64]) -> Vec<f64> {
        let mut dx = dy.to_vec();
        for (g, &x) in dx.iter_mut().zip(pre) {
            if x <= 0.0 {
                *g = 0.0;
            }
        }
        dx
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Ordinary values salted with the cases a `max`-based ReLU would
    /// get wrong or a careless select would normalise.
    fn awkward(len: usize, seed: f64) -> Vec<f64> {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -1e-320,
        ];
        (0..len)
            .map(|i| match i % 3 {
                0 => SPECIAL[(i / 3) % SPECIAL.len()],
                _ => ((i as f64) * 0.37 + seed).sin() * 3.0,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn in_place_kernels_match_the_bodies_they_replaced_bit_for_bit(
            len in 0usize..300, seed in 0.0f64..10.0
        ) {
            let x = awkward(len, seed);
            let dy = awkward(len, seed + 1.0);
            // Forward: in place, and through the allocating wrapper.
            let want = bits(&legacy_relu(&x));
            let mut got = x.clone();
            relu_in_place(&mut got);
            prop_assert_eq!(&bits(&got), &want);
            let m = Matrix::from_vec(1, len, x.clone());
            prop_assert_eq!(&bits(relu(&m).as_slice()), &want);
            // Backward, masked by the pre-activation…
            let want = bits(&legacy_relu_backward(&x, &dy));
            let mut g = dy.clone();
            relu_backward_in_place(&x, &mut g);
            prop_assert_eq!(&bits(&g), &want);
            // …and by the activated output, which is all the trainers keep.
            let mut g = dy.clone();
            relu_backward_in_place(&got, &mut g);
            prop_assert_eq!(&bits(&g), &want);
            // tanh: wrapper and slice kernel are the same arithmetic.
            let mut th = x.clone();
            tanh_in_place(&mut th);
            prop_assert_eq!(&bits(&th), &bits(tanh(&m).as_slice()));
            let mut g = dy.clone();
            tanh_backward_in_place(&th, &mut g);
            let legacy: Vec<f64> = dy.iter().zip(&th).map(|(&d, &y)| d * (1.0 - y * y)).collect();
            prop_assert_eq!(&bits(&g), &bits(&legacy));
        }
    }

    #[test]
    fn softmax_uniform_logits_give_log_classes() {
        let logits = Matrix::zeros(4, 2);
        let (loss, grad) = softmax_xent(&logits, &[0, 3]);
        assert!((loss - (4.0f64).ln()).abs() < 1e-12);
        // Gradient sums to zero per column.
        for col in 0..2 {
            let s: f64 = (0..4).map(|r| grad.get(r, col)).sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let logits = Matrix::from_fn(3, 2, |i, j| ((i * 2 + j) as f64 * 0.9).sin());
        let labels = [2, 0];
        let (base, grad) = softmax_xent(&logits, &labels);
        let eps = 1e-7;
        for i in 0..3 {
            for j in 0..2 {
                let mut lp = logits.clone();
                lp.set(i, j, logits.get(i, j) + eps);
                let (lplus, _) = softmax_xent(&lp, &labels);
                let num = (lplus - base) / eps;
                assert!(
                    (num - grad.get(i, j)).abs() < 1e-5,
                    "({i},{j}) fd={num} g={}",
                    grad.get(i, j)
                );
            }
        }
    }

    #[test]
    fn tanh_backward_matches_finite_difference() {
        let pre = Matrix::from_fn(2, 2, |i, j| (i as f64 - j as f64) * 0.7);
        let y = tanh(&pre);
        let mut dx = Matrix::from_fn(2, 2, |_, _| 1.0);
        tanh_backward_in_place(y.as_slice(), dx.as_mut_slice());
        let eps = 1e-7;
        for i in 0..2 {
            for j in 0..2 {
                let mut pp = pre.clone();
                pp.set(i, j, pre.get(i, j) + eps);
                let num = (tanh(&pp).as_slice().iter().sum::<f64>()
                    - y.as_slice().iter().sum::<f64>())
                    / eps;
                assert!((num - dx.get(i, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_fn(3, 1, |i, _| i as f64);
        let b = Matrix::from_fn(3, 1, |i, _| i as f64 + 1000.0);
        let (la, ga) = softmax_xent(&a, &[1]);
        let (lb, gb) = softmax_xent(&b, &[1]);
        assert!((la - lb).abs() < 1e-9);
        assert!(ga.approx_eq(&gb, 1e-9));
    }
}
