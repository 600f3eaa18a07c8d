//! Max pooling (forward + backward), as used between AlexNet stages.

use std::ops::Range;

use crate::conv::Tensor4;

/// Max-pool hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dParams {
    /// Window size (square).
    pub k: usize,
    /// Stride.
    pub stride: usize,
}

impl Pool2dParams {
    /// Output spatial size: `⌊(x − k)/stride⌋ + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.k && w >= self.k,
            "pool window {0}x{0} does not fit a {h}x{w} input",
            self.k
        );
        (
            (h - self.k) / self.stride + 1,
            (w - self.k) / self.stride + 1,
        )
    }
}

/// Forward max pooling; also returns the argmax index per output cell
/// (flattened input `h*W + w`) for the backward pass.
pub fn maxpool2d(input: &Tensor4, p: &Pool2dParams) -> (Tensor4, Vec<usize>) {
    let (oh, ow) = p.out_hw(input.h, input.w);
    let mut out = Tensor4::zeros(input.n, input.c, oh, ow);
    let mut argmax = vec![0usize; input.n * input.c * oh * ow];
    let mut ai = 0;
    for n in 0..input.n {
        for c in 0..input.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..p.k {
                        for kx in 0..p.k {
                            let iy = oy * p.stride + ky;
                            let ix = ox * p.stride + kx;
                            let v = input.get(n, c, iy, ix);
                            if v > best {
                                best = v;
                                best_idx = iy * input.w + ix;
                            }
                        }
                    }
                    out.set(n, c, oy, ox, best);
                    argmax[ai] = best_idx;
                    ai += 1;
                }
            }
        }
    }
    (out, argmax)
}

/// Backward max pooling: routes each output gradient to its argmax
/// input position.
pub fn maxpool2d_backward(dy: &Tensor4, argmax: &[usize], in_h: usize, in_w: usize) -> Tensor4 {
    let grads = dy.as_slice().iter().copied().zip(argmax.iter().copied());
    maxpool2d_backward_rows(grads, dy.shape(), 0..in_h, in_w)
}

/// Rows `rows` of max pooling's `∆X` (`in_w` wide): `grads` is every
/// output gradient of an `(n, c, oh, ow)`-shaped `∆Y` with its argmax
/// (a flat `h·in_w + w` input position), in `(n, c, oy, ox)` order;
/// those that land in `rows` are added there in that order, the others
/// dropped. Every `∆X` element is summed in the same order whichever
/// rows are asked for.
pub fn maxpool2d_backward_rows(
    grads: impl IntoIterator<Item = (f64, usize)>,
    (n, c, oh, ow): (usize, usize, usize, usize),
    rows: Range<usize>,
    in_w: usize,
) -> Tensor4 {
    let mut dx = Tensor4::zeros(n, c, rows.len(), in_w);
    let span = rows.start * in_w..rows.end * in_w;
    for (i, (g, at)) in grads.into_iter().enumerate() {
        if span.contains(&at) {
            dx.as_mut_slice()[i / (oh * ow) * span.len() + at - span.start] += g;
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_pool_shapes() {
        let p = Pool2dParams { k: 3, stride: 2 };
        assert_eq!(p.out_hw(55, 55), (27, 27));
        assert_eq!(p.out_hw(27, 27), (13, 13));
        assert_eq!(p.out_hw(13, 13), (6, 6));
    }

    #[test]
    #[should_panic(expected = "pool window 3x3 does not fit a 2x9 input")]
    fn out_hw_rejects_a_window_larger_than_the_input() {
        let _ = Pool2dParams { k: 3, stride: 2 }.out_hw(2, 9);
    }

    #[test]
    fn picks_window_maximum() {
        let x = Tensor4::from_fn(1, 1, 4, 4, |_, _, h, w| (h * 4 + w) as f64);
        let p = Pool2dParams { k: 2, stride: 2 };
        let (y, _) = maxpool2d(&x, &p);
        assert_eq!(y.get(0, 0, 0, 0), 5.0);
        assert_eq!(y.get(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor4::from_fn(
            1,
            1,
            2,
            2,
            |_, _, h, w| if (h, w) == (1, 0) { 9.0 } else { 0.0 },
        );
        let p = Pool2dParams { k: 2, stride: 2 };
        let (_, argmax) = maxpool2d(&x, &p);
        let dy = Tensor4::from_fn(1, 1, 1, 1, |_, _, _, _| 3.0);
        let dx = maxpool2d_backward(&dy, &argmax, 2, 2);
        assert_eq!(dx.get(0, 0, 1, 0), 3.0);
        assert_eq!(dx.get(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let x = Tensor4::from_fn(1, 2, 4, 4, |_, c, h, w| {
            ((c * 16 + h * 4 + w) as f64 * 0.37).sin()
        });
        let p = Pool2dParams { k: 2, stride: 2 };
        let (y, argmax) = maxpool2d(&x, &p);
        let dy = Tensor4::from_fn(1, 2, 2, 2, |_, _, _, _| 1.0);
        let dx = maxpool2d_backward(&dy, &argmax, 4, 4);
        let loss = |x: &Tensor4| maxpool2d(x, &p).0.as_slice().iter().sum::<f64>();
        let base = loss(&x);
        let _ = y;
        let eps = 1e-7;
        for &(c, h, w) in &[(0, 0, 0), (1, 3, 3), (0, 2, 1)] {
            let mut xp = x.clone();
            xp.set(0, c, h, w, x.get(0, c, h, w) + eps);
            let num = (loss(&xp) - base) / eps;
            assert!((num - dx.get(0, c, h, w)).abs() < 1e-5, "({c},{h},{w})");
        }
    }
}
