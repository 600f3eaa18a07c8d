//! Compute-time models.
//!
//! The paper measures one-epoch AlexNet training time on a single KNL
//! across batch sizes (its Fig. 4) and feeds that curve into the
//! simulation: the per-process compute time of a `Pr × Pc` strategy is
//! the measured iteration time at the *local* batch size `B/Pc`,
//! divided by the model-parallel factor `Pr`.
//!
//! **Substitution (documented in DESIGN.md):** we have no KNL or Intel
//! Caffe, so [`KnlComputeModel`] is a calibration table read off the
//! paper's Fig. 4 (log-scale axis), interpolated log-log. The paper
//! consumes its measurement exactly the same way — as a lookup — so any
//! curve with the same shape (efficiency rising to `B = 256`, then
//! flat-to-slightly-worse) reproduces the paper's qualitative results.
//! [`RooflineComputeModel`] is a parametric alternative that works for
//! any network and makes the efficiency assumption explicit.

use dnn::Network;

/// A model of single-process compute time as a function of the local
/// batch size.
pub trait ComputeModel {
    /// Time of one SGD iteration over `local_batch` samples through the
    /// *full* model on one process.
    fn iteration_time(&self, net: &Network, local_batch: f64) -> f64;

    /// Time of one full epoch (`n_samples` samples) at batch size `b`
    /// on one process.
    fn epoch_time(&self, net: &Network, b: f64, n_samples: f64) -> f64 {
        self.iteration_time(net, b) * (n_samples / b)
    }
}

/// Calibration table for AlexNet on one KNL, read off the paper's
/// Fig. 4 (y-axis spans ~10^3.5 … 10^4.5 seconds per epoch; minimum at
/// `B = 256`). Interpolates log-log between entries; clamps outside.
#[derive(Debug, Clone)]
pub struct KnlComputeModel {
    /// `(batch, epoch-seconds)` calibration points, ascending in batch.
    points: Vec<(f64, f64)>,
    /// Samples per epoch the calibration assumed (ImageNet).
    n: f64,
}

impl KnlComputeModel {
    /// The Fig. 4 calibration (AlexNet, ImageNet, one KNL).
    pub fn fig4() -> Self {
        KnlComputeModel {
            points: vec![
                (1.0, 31_600.0),
                (2.0, 21_000.0),
                (4.0, 14_500.0),
                (8.0, 10_500.0),
                (16.0, 7_800.0),
                (32.0, 6_200.0),
                (64.0, 5_000.0),
                (128.0, 4_100.0),
                (256.0, 3_160.0),
                (512.0, 3_300.0),
                (1024.0, 3_550.0),
                (2048.0, 3_900.0),
            ],
            n: dnn::zoo::IMAGENET_TRAIN_IMAGES as f64,
        }
    }

    /// Epoch time at batch size `b` (log-log interpolation, clamped at
    /// the calibration range ends).
    pub fn epoch_seconds(&self, b: f64) -> f64 {
        let pts = &self.points;
        if b <= pts[0].0 {
            return pts[0].1;
        }
        if b >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let hi = pts
            .iter()
            .position(|&(x, _)| x >= b)
            .expect("b within range");
        let (x0, y0) = pts[hi - 1];
        let (x1, y1) = pts[hi];
        let t = (b.ln() - x0.ln()) / (x1.ln() - x0.ln());
        (y0.ln() + t * (y1.ln() - y0.ln())).exp()
    }

    /// The batch size with minimum epoch time (the paper: 256).
    pub fn best_batch(&self) -> f64 {
        self.points
            .iter()
            .cloned()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .expect("non-empty")
            .0
    }
}

impl ComputeModel for KnlComputeModel {
    fn iteration_time(&self, _net: &Network, local_batch: f64) -> f64 {
        // One epoch is n/b iterations: t_iter = epoch(b) * b / n. For
        // sub-sample workloads (b < 1: a process owns a *fraction* of a
        // sample under domain parallelism) the work still scales
        // linearly while the efficiency pins at the b = 1 level.
        let eff_b = local_batch.max(1.0);
        self.epoch_seconds(eff_b) * local_batch / self.n
    }
}

/// A parametric roofline-style model: iteration time =
/// `flops(net, b) / (peak · eff(b))` with
/// `eff(b) = eff_max · b / (b + b_half) · 1/(1 + (b/b_spill)^γ·κ)`.
/// The first factor models per-iteration overheads amortizing with
/// batch size (small GEMMs under-utilize cores/vector units, the
/// paper's Fig. 4 narrative); the second models the mild degradation
/// past the cache-friendly batch size.
#[derive(Debug, Clone, Copy)]
pub struct RooflineComputeModel {
    /// Peak sustained FLOP/s.
    pub peak_flops: f64,
    /// Maximum achievable efficiency fraction.
    pub eff_max: f64,
    /// Batch size at which half the peak efficiency is reached.
    pub b_half: f64,
    /// Batch size where working sets start spilling.
    pub b_spill: f64,
    /// Strength of the spill penalty.
    pub spill_kappa: f64,
}

impl RooflineComputeModel {
    /// A KNL-flavoured default calibrated so AlexNet epoch times land
    /// in the same decade as the paper's Fig. 4 with a minimum near
    /// `B = 256`.
    pub fn knl() -> Self {
        RooflineComputeModel {
            peak_flops: 6e12,
            eff_max: 0.55,
            b_half: 24.0,
            b_spill: 256.0,
            spill_kappa: 0.12,
        }
    }

    /// The efficiency factor at batch size `b`.
    pub fn efficiency(&self, b: f64) -> f64 {
        let rise = b / (b + self.b_half);
        let spill = 1.0 / (1.0 + self.spill_kappa * (b / self.b_spill).max(0.0).powf(1.0));
        self.eff_max * rise * spill.min(1.0)
    }
}

impl ComputeModel for RooflineComputeModel {
    fn iteration_time(&self, net: &Network, local_batch: f64) -> f64 {
        let eff_b = local_batch.max(1.0);
        net.train_flops_per_sample() * local_batch / (self.peak_flops * self.efficiency(eff_b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::zoo::alexnet;

    #[test]
    fn fig4_minimum_is_256() {
        let m = KnlComputeModel::fig4();
        assert_eq!(m.best_batch(), 256.0);
    }

    #[test]
    fn fig4_shape_monotone_then_rising() {
        let m = KnlComputeModel::fig4();
        // Decreasing up to 256.
        for b in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
            assert!(m.epoch_seconds(b) > m.epoch_seconds(b * 2.0), "b={b}");
        }
        // Mildly increasing after 256.
        assert!(m.epoch_seconds(512.0) > m.epoch_seconds(256.0));
        assert!(m.epoch_seconds(2048.0) > m.epoch_seconds(512.0));
    }

    #[test]
    fn interpolation_is_monotone_between_points() {
        let m = KnlComputeModel::fig4();
        let mid = m.epoch_seconds(3.0);
        assert!(mid < m.epoch_seconds(2.0) && mid > m.epoch_seconds(4.0));
    }

    #[test]
    fn clamps_outside_range() {
        let m = KnlComputeModel::fig4();
        assert_eq!(m.epoch_seconds(0.5), m.epoch_seconds(1.0));
        assert_eq!(m.epoch_seconds(1e9), m.epoch_seconds(2048.0));
    }

    #[test]
    fn iteration_time_scales_with_epoch() {
        let m = KnlComputeModel::fig4();
        let net = alexnet();
        let n = dnn::zoo::IMAGENET_TRAIN_IMAGES as f64;
        let t = m.iteration_time(&net, 256.0);
        assert!((t - 3_160.0 * 256.0 / n).abs() < 1e-9);
    }

    #[test]
    fn sub_sample_workload_scales_linearly() {
        // Domain parallelism below one sample per process: half a
        // sample costs half the b=1 iteration (efficiency pinned).
        let m = KnlComputeModel::fig4();
        let net = alexnet();
        let t_half = m.iteration_time(&net, 0.5);
        let t_one = m.iteration_time(&net, 1.0);
        assert!((t_one / t_half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_epoch_shape_resembles_fig4() {
        let m = RooflineComputeModel::knl();
        let net = alexnet();
        let n = 1.2e6;
        // Decreasing to the spill point, then not decreasing.
        assert!(m.epoch_time(&net, 16.0, n) > m.epoch_time(&net, 64.0, n));
        assert!(m.epoch_time(&net, 64.0, n) > m.epoch_time(&net, 256.0, n));
        assert!(m.epoch_time(&net, 2048.0, n) >= m.epoch_time(&net, 256.0, n));
        // Same decade as Fig. 4 at the optimum (10^3..10^4 seconds).
        let best = m.epoch_time(&net, 256.0, n);
        assert!(best > 1e3 && best < 2e4, "epoch at B=256: {best}");
    }
}
