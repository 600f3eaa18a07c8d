//! Element-wise vector/matrix operations used by SGD.

use crate::matrix::Matrix;

/// `y ← y + a·x` over raw slices.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Element-wise matrix sum.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let mut out = a.clone();
    axpy(1.0, b.as_slice(), out.as_mut_slice());
    out
}

/// Element-wise matrix difference `a − b`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    let mut out = a.clone();
    axpy(-1.0, b.as_slice(), out.as_mut_slice());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_multiplies() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (i * j) as f64 + 1.0);
        let s = add(&a, &b);
        assert!(sub(&s, &b).approx_eq(&a, 1e-15));
    }
}
