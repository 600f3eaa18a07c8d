//! Local response normalization (Krizhevsky et al.) — the
//! cross-channel normalization AlexNet interleaves with its first two
//! conv stages:
//!
//! ```text
//! y[c] = x[c] / (k + (a/n)·Σ_{c' ∈ window(c)} x[c']²)^β
//! ```
//!
//! LRN is per-pixel across channels, so under the paper's domain
//! decomposition (strips of *rows*) it needs **no communication at
//! all** — every output element depends only on co-located inputs.
//! That is why the cost model ignores it (like ReLU/dropout) and why
//! the executable domain trainer can apply it locally on strips.
//!
//! A layer the model prices at zero should cost the host next to
//! nothing too, so both passes run plane by plane over contiguous
//! `h·w` slices (no 4-D index per access) and take `s^{−β}` once per
//! element — by two square roots and a division for AlexNet's `β = ¾`,
//! by `powf` for any other exponent — with `s^{−β−1} = s^{−β} / s`.
//! The scales fold their window in ascending channel order per element
//! whatever the strip, so LRN on strips is *bit-equal* to LRN on the
//! whole tensor (`lrn_is_rowwise_local`), and the serial and domain
//! trainers, which share these functions, cannot drift apart. Against
//! the element-wise bodies these replaced (kept as the tests' oracle)
//! outputs and gradients move by at most a few ulp; DESIGN.md §7 says
//! which bits.

use crate::conv::Tensor4;

/// LRN hyper-parameters. AlexNet's published values are `n = 5`,
/// `k = 2`, `alpha = 1e-4`, `beta = 0.75`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrnParams {
    /// Window size `n` (channels, centered).
    pub n: usize,
    /// Additive constant `k`.
    pub k: f64,
    /// Scale `alpha`.
    pub alpha: f64,
    /// Exponent `beta`.
    pub beta: f64,
}

impl LrnParams {
    /// AlexNet's published constants.
    pub fn alexnet() -> Self {
        LrnParams {
            n: 5,
            k: 2.0,
            alpha: 1e-4,
            beta: 0.75,
        }
    }
}

fn window(c: usize, channels: usize, n: usize) -> (usize, usize) {
    let half = n / 2;
    (c.saturating_sub(half), (c + half + 1).min(channels))
}

/// `s^{−β}`. AlexNet's `β = ¾` — the only exponent a zoo network or a
/// trainer uses — takes two square roots and a division, `√√s / s`:
/// three correctly rounded steps, ≤ 1.25 ulp from the true power and
/// within 2 ulp of `powf` (bit-equal to it on 7 scales in 10). Any
/// other exponent takes `powf`.
#[inline]
fn inv_pow(s: f64, beta: f64) -> f64 {
    if beta == 0.75 {
        s.sqrt().sqrt() / s
    } else {
        s.powf(-beta)
    }
}

/// The per-element scales `s[c] = k + (a/n)·Σ x[c']²` and their powers
/// `t = s^{−β}`, plane by plane: every `(n, c)` plane is one contiguous
/// `h·w` run, and a window's channels fold into it in ascending order —
/// per element the same sum whatever the strip, which is what keeps LRN
/// on strips bit-equal to LRN on the whole tensor.
fn scale_powers(x: &Tensor4, p: &LrnParams) -> (Vec<f64>, Vec<f64>) {
    assert!(p.n >= 1, "LRN window n = 0 on a {:?} input", x.shape());
    let xs = x.as_slice();
    let mut s = vec![0.0; xs.len()];
    let mut t = vec![0.0; xs.len()];
    let scale = p.alpha / p.n as f64;
    let (plane, sample) = plane_and_sample(x);
    let samples = xs.chunks_exact(sample).zip(s.chunks_exact_mut(sample));
    for ((xn, sn), tn) in samples.zip(t.chunks_exact_mut(sample)) {
        let planes = sn.chunks_exact_mut(plane).zip(tn.chunks_exact_mut(plane));
        for (ci, (acc, pow)) in planes.enumerate() {
            let (lo, hi) = window(ci, x.c, p.n);
            for src in xn[lo * plane..hi * plane].chunks_exact(plane) {
                for (a, &v) in acc.iter_mut().zip(src) {
                    *a += v * v;
                }
            }
            for (a, tv) in acc.iter_mut().zip(pow) {
                *a = p.k + scale * *a;
                *tv = inv_pow(*a, p.beta);
            }
        }
    }
    (s, t)
}

/// Words per `(n, c)` plane and per sample, for `chunks_exact`. `max(1)`:
/// chunk sizes must be nonzero; an empty tensor then has no sample to
/// visit, and inside a sample a plane is never empty.
fn plane_and_sample(t: &Tensor4) -> (usize, usize) {
    (t.h * t.w, (t.c * t.h * t.w).max(1))
}

/// LRN forward: `y = x · s^{−β}`.
pub fn lrn_forward(x: &Tensor4, p: &LrnParams) -> Tensor4 {
    let (_, mut y) = scale_powers(x, p);
    for (yv, &xv) in y.iter_mut().zip(x.as_slice()) {
        *yv *= xv;
    }
    Tensor4::from_vec(x.n, x.c, x.h, x.w, y)
}

/// LRN backward: given `x` and the output gradient `dy`,
///
/// ```text
/// dx[c] = dy[c]·s[c]^{−β}
///       − (2αβ/n)·x[c]·Σ_{c': c ∈ window(c')} dy[c']·x[c']·s[c']^{−β−1}
/// ```
///
/// `s^{−β}` is recomputed rather than taped by the forward (two square
/// roots and a division for AlexNet's `β`) and `s^{−β−1}` is
/// `s^{−β} / s`. Per element the sum runs as written: the direct term,
/// then the source channels `c'` in ascending order.
///
/// # Panics
///
/// Panics if `dy`'s shape is not `x`'s, or if `p.n == 0`.
pub fn lrn_backward(x: &Tensor4, dy: &Tensor4, p: &LrnParams) -> Tensor4 {
    assert_eq!(dy.shape(), x.shape(), "LRN gradient vs input (n, c, h, w)");
    // `g` starts as `s` and `dx` as `s^{−β}`; both are rewritten in
    // place: `dx` to the direct term, `g[c'] = dy[c']·x[c']·s[c']^{−β−1}`.
    let (mut g, mut dx) = scale_powers(x, p);
    let xs = x.as_slice();
    for ((gv, dv), (&xv, &dyv)) in (g.iter_mut().zip(&mut dx)).zip(xs.iter().zip(dy.as_slice())) {
        let t = *dv;
        *dv = dyv * t;
        *gv = dyv * xv * (t / *gv);
    }
    // Cross terms: each source channel `cj` contributes to all channels
    // in its window.
    let coeff = 2.0 * p.alpha * p.beta / p.n as f64;
    let (plane, sample) = plane_and_sample(x);
    let samples = xs.chunks_exact(sample).zip(g.chunks_exact(sample));
    for ((xn, gn), dxn) in samples.zip(dx.chunks_exact_mut(sample)) {
        for (cj, gj) in gn.chunks_exact(plane).enumerate() {
            let (lo, hi) = window(cj, x.c, p.n);
            let into = dxn[lo * plane..hi * plane].chunks_exact_mut(plane);
            for (dxi, xi) in into.zip(xn[lo * plane..hi * plane].chunks_exact(plane)) {
                for ((d, &xv), &gv) in dxi.iter_mut().zip(xi).zip(gj) {
                    *d += -coeff * xv * gv;
                }
            }
        }
    }
    Tensor4::from_vec(x.n, x.c, x.h, x.w, dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn identity_when_alpha_is_zero_and_k_one() {
        let p = LrnParams {
            n: 5,
            k: 1.0,
            alpha: 0.0,
            beta: 0.75,
        };
        let x = init::uniform_tensor(2, 6, 3, 3, -1.0, 1.0, 1);
        assert!(lrn_forward(&x, &p).approx_eq(&x, 1e-15));
    }

    #[test]
    fn suppresses_large_activations() {
        let p = LrnParams {
            n: 3,
            k: 1.0,
            alpha: 1.0,
            beta: 1.0,
        };
        let x = Tensor4::from_fn(1, 3, 1, 1, |_, c, _, _| if c == 1 { 10.0 } else { 0.1 });
        let y = lrn_forward(&x, &p);
        // The large channel is divided by ~(1 + 100/3) ≈ 34.
        assert!(y.get(0, 1, 0, 0) < 0.5, "{}", y.get(0, 1, 0, 0));
    }

    #[test]
    fn window_clamps_at_channel_edges() {
        assert_eq!(window(0, 8, 5), (0, 3));
        assert_eq!(window(4, 8, 5), (2, 7));
        assert_eq!(window(7, 8, 5), (5, 8));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let p = LrnParams::alexnet();
        let x = init::uniform_tensor(1, 6, 2, 2, 0.1, 1.0, 7);
        let dy = init::uniform_tensor(1, 6, 2, 2, -1.0, 1.0, 8);
        let dx = lrn_backward(&x, &dy, &p);
        let loss = |x: &Tensor4| -> f64 {
            lrn_forward(x, &p)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(y, g)| y * g)
                .sum()
        };
        let base = loss(&x);
        let eps = 1e-6;
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (3, 1, 1), (5, 0, 1)] {
            let mut xp = x.clone();
            xp.set(0, c, h, w, x.get(0, c, h, w) + eps);
            let num = (loss(&xp) - base) / eps;
            assert!(
                (num - dx.get(0, c, h, w)).abs() < 1e-5,
                "({c},{h},{w}): fd {num} vs {}",
                dx.get(0, c, h, w)
            );
        }
    }

    #[test]
    fn lrn_is_rowwise_local() {
        // The domain-parallel claim: applying LRN to strips and
        // stitching equals applying it to the whole tensor — to the
        // bit, forward and backward: the trainers' 1e-9 serial/domain
        // parity rests on it.
        let p = LrnParams::alexnet();
        let x = init::uniform_tensor(2, 8, 6, 4, -1.0, 1.0, 9);
        let dy = init::uniform_tensor(2, 8, 6, 4, -1.0, 1.0, 10);
        let mut stitched = Tensor4::zeros(2, 8, 6, 4);
        let mut stitched_dx = Tensor4::zeros(2, 8, 6, 4);
        for (h0, h1) in [(0, 3), (3, 4), (4, 6)] {
            let strip = x.row_strip(h0, h1);
            stitched.set_row_strip(h0, &lrn_forward(&strip, &p));
            stitched_dx.set_row_strip(h0, &lrn_backward(&strip, &dy.row_strip(h0, h1), &p));
        }
        assert_eq!(stitched, lrn_forward(&x, &p));
        assert_eq!(stitched_dx, lrn_backward(&x, &dy, &p));
    }

    /// The element-wise bodies this module ran until the plane-wise
    /// ones replaced them, verbatim: three `powf` per element and a 4-D
    /// index per access. The oracle for everything below.
    mod oracle {
        use super::super::{window, LrnParams};
        use crate::conv::Tensor4;

        /// The per-element scale `s[c] = k + (a/n)·Σ x[c']²`.
        pub fn scales(x: &Tensor4, p: &LrnParams) -> Tensor4 {
            let mut s = Tensor4::zeros(x.n, x.c, x.h, x.w);
            for ni in 0..x.n {
                for ci in 0..x.c {
                    let (lo, hi) = window(ci, x.c, p.n);
                    for hi_ in 0..x.h {
                        for wi in 0..x.w {
                            let mut acc = 0.0;
                            for cj in lo..hi {
                                let v = x.get(ni, cj, hi_, wi);
                                acc += v * v;
                            }
                            s.set(ni, ci, hi_, wi, p.k + p.alpha / p.n as f64 * acc);
                        }
                    }
                }
            }
            s
        }

        /// LRN forward: `y = x · s^{−β}`.
        pub fn lrn_forward(x: &Tensor4, p: &LrnParams) -> Tensor4 {
            let s = scales(x, p);
            let mut y = x.clone();
            for (yv, &sv) in y.as_mut_slice().iter_mut().zip(s.as_slice()) {
                *yv *= sv.powf(-p.beta);
            }
            y
        }

        pub fn lrn_backward(x: &Tensor4, dy: &Tensor4, p: &LrnParams) -> Tensor4 {
            let s = scales(x, p);
            let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
            let coeff = 2.0 * p.alpha * p.beta / p.n as f64;
            for ni in 0..x.n {
                for hi_ in 0..x.h {
                    for wi in 0..x.w {
                        // Direct term.
                        for ci in 0..x.c {
                            let sv = s.get(ni, ci, hi_, wi);
                            dx.add_at(ni, ci, hi_, wi, dy.get(ni, ci, hi_, wi) * sv.powf(-p.beta));
                        }
                        // Cross terms: each source channel cj contributes to all
                        // channels in its window.
                        for cj in 0..x.c {
                            let sv = s.get(ni, cj, hi_, wi);
                            let g = dy.get(ni, cj, hi_, wi)
                                * x.get(ni, cj, hi_, wi)
                                * sv.powf(-p.beta - 1.0);
                            let (lo, hi) = window(cj, x.c, p.n);
                            for ci in lo..hi {
                                dx.add_at(ni, ci, hi_, wi, -coeff * x.get(ni, ci, hi_, wi) * g);
                            }
                        }
                    }
                }
            }
            dx
        }
    }

    /// Every element of `got` within `tol` of `want`, relative.
    fn assert_close(got: &Tensor4, want: &Tensor4, tol: f64, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!((g - w).abs() <= tol * w.abs(), "{what}[{i}]: {g} vs {w}");
        }
    }

    #[test]
    fn plane_wise_bodies_match_the_element_wise_oracle() {
        // AlexNet's constants on 6, 8 and 12 channels (the window
        // clamps at both edges, at one, at neither), a 1-row strip and
        // an empty one. The scales themselves fold in the oracle's
        // order, so `s^{−β}` by square roots is all that moves.
        let p = LrnParams::alexnet();
        for (i, &(n, c, h, w)) in [
            (2, 6, 3, 3),
            (2, 8, 4, 5),
            (1, 12, 2, 7),
            (3, 8, 1, 5),
            (2, 8, 0, 5),
            (0, 8, 2, 5),
        ]
        .iter()
        .enumerate()
        {
            let x = init::uniform_tensor(n, c, h, w, -3.0, 3.0, 30 + i as u64);
            let dy = init::uniform_tensor(n, c, h, w, -1.0, 1.0, 40 + i as u64);
            let (s, _) = scale_powers(&x, &p);
            assert_eq!(
                s,
                oracle::scales(&x, &p).into_vec(),
                "scales {n}x{c}x{h}x{w}"
            );
            let what = format!("{n}x{c}x{h}x{w}");
            assert_close(
                &lrn_forward(&x, &p),
                &oracle::lrn_forward(&x, &p),
                1e-14,
                &format!("y {what}"),
            );
            assert_close(
                &lrn_backward(&x, &dy, &p),
                &oracle::lrn_backward(&x, &dy, &p),
                1e-14,
                &format!("dx {what}"),
            );
        }
    }

    #[test]
    fn any_other_beta_keeps_powf_and_the_oracles_forward_bits() {
        for beta in [0.5, 0.7500000000000001, 1.0] {
            let p = LrnParams {
                n: 3,
                k: 1.5,
                alpha: 0.3,
                beta,
            };
            let x = init::uniform_tensor(2, 7, 3, 4, -2.0, 2.0, 50);
            let dy = init::uniform_tensor(2, 7, 3, 4, -1.0, 1.0, 51);
            assert_eq!(
                lrn_forward(&x, &p),
                oracle::lrn_forward(&x, &p),
                "beta {beta}"
            );
            // The backward's `s^{−β−1}` is `s^{−β} / s` for every β.
            assert_close(
                &lrn_backward(&x, &dy, &p),
                &oracle::lrn_backward(&x, &dy, &p),
                1e-14,
                &format!("dx at beta {beta}"),
            );
        }
    }

    #[test]
    fn inv_pow_stays_within_two_ulp_of_powf() {
        // A geometric sweep over the scales LRN can produce with
        // AlexNet's k = 2 and far beyond: 1 ≤ s < 1e6, ~140 000 points.
        let ulps = |a: f64, b: f64| a.to_bits().abs_diff(b.to_bits());
        let (mut s, mut worst, mut worst_next) = (1.0f64, 0, 0);
        while s < 1e6 {
            let t = inv_pow(s, 0.75);
            worst = worst.max(ulps(t, s.powf(-0.75)));
            // The backward's `s^{−β−1}`.
            worst_next = worst_next.max(ulps(t / s, s.powf(-1.75)));
            s *= 1.0001;
        }
        assert!(worst <= 2, "s^-3/4 off powf by {worst} ulp");
        assert!(worst_next <= 3, "s^-7/4 off powf by {worst_next} ulp");
        assert_eq!(inv_pow(16.0, 0.75), 0.125);
        assert_eq!(inv_pow(16.0, 0.5), 0.25);
    }

    #[test]
    #[should_panic(
        expected = "LRN gradient vs input (n, c, h, w)\n  left: (2, 4, 6, 3)\n right: (2, 6, 4, 3)"
    )]
    fn backward_rejects_a_gradient_of_equal_length_and_another_shape() {
        let x = init::uniform_tensor(2, 6, 4, 3, -1.0, 1.0, 60);
        let dy = init::uniform_tensor(2, 4, 6, 3, -1.0, 1.0, 61);
        let _ = lrn_backward(&x, &dy, &LrnParams::alexnet());
    }

    #[test]
    #[should_panic(expected = "LRN window n = 0 on a (1, 4, 2, 2) input")]
    fn a_zero_window_is_rejected_before_it_divides() {
        let p = LrnParams {
            n: 0,
            ..LrnParams::alexnet()
        };
        let _ = lrn_forward(&init::uniform_tensor(1, 4, 2, 2, -1.0, 1.0, 62), &p);
    }
}
