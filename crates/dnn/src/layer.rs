//! Layer specifications.

use crate::shape::Shape;

/// One layer of a network, as named in the paper's §2.1: convolutional,
/// fully connected, activation, dropout (plus pooling and LRN, which
/// AlexNet uses between stages).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution with `out_c` filters of size `kh × kw`.
    Conv {
        /// Output channels `Y_C` (filter count).
        out_c: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride (both dimensions).
        stride: usize,
        /// Zero padding (all sides).
        pad: usize,
    },
    /// Fully connected layer to `out` units.
    FullyConnected {
        /// Output width `d_i`.
        out: usize,
    },
    /// Max pooling with square window `k` and `stride`.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Element-wise ReLU (shape- and parameter-free).
    ReLU,
    /// Element-wise tanh.
    Tanh,
    /// Dropout; shape-preserving, parameter-free. The rate only affects
    /// training dynamics, never communication volume, so the cost model
    /// ignores it.
    Dropout {
        /// Drop probability.
        rate: f64,
    },
    /// Local response normalization (AlexNet); shape-preserving,
    /// parameter-free.
    LocalResponseNorm,
}

/// The coarse classification the cost model cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Convolutional weighted layer with kernel `kh × kw`.
    Conv {
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
    },
    /// Fully connected weighted layer.
    FullyConnected,
}

impl LayerSpec {
    /// Output shape for a given input shape, or an error message if the
    /// layer cannot be applied.
    pub fn out_shape(&self, input: Shape) -> Result<Shape, String> {
        match *self {
            LayerSpec::Conv {
                out_c,
                kh,
                kw,
                stride,
                pad,
            } => {
                let h_eff = input.h + 2 * pad;
                let w_eff = input.w + 2 * pad;
                if kh > h_eff || kw > w_eff {
                    return Err(format!(
                        "conv kernel {kh}x{kw} larger than padded input {h_eff}x{w_eff}"
                    ));
                }
                if stride == 0 {
                    return Err("conv stride must be positive".into());
                }
                Ok(Shape::new(
                    out_c,
                    (h_eff - kh) / stride + 1,
                    (w_eff - kw) / stride + 1,
                ))
            }
            LayerSpec::FullyConnected { out } => Ok(Shape::flat(out)),
            LayerSpec::MaxPool { k, stride } => {
                if k > input.h || k > input.w {
                    return Err(format!(
                        "pool window {k} larger than input {}x{}",
                        input.h, input.w
                    ));
                }
                if stride == 0 {
                    return Err("pool stride must be positive".into());
                }
                Ok(Shape::new(
                    input.c,
                    (input.h - k) / stride + 1,
                    (input.w - k) / stride + 1,
                ))
            }
            LayerSpec::ReLU
            | LayerSpec::Tanh
            | LayerSpec::Dropout { .. }
            | LayerSpec::LocalResponseNorm => Ok(input),
        }
    }

    /// Weight count given the input shape (Eq. 2): conv
    /// `kh·kw·X_C·Y_C`, FC `d_{i−1}·d_i`, 0 otherwise.
    pub fn weight_count(&self, input: Shape) -> usize {
        match *self {
            LayerSpec::Conv { out_c, kh, kw, .. } => kh * kw * input.c * out_c,
            LayerSpec::FullyConnected { out } => input.dim() * out,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_matches_eq2_with_padding() {
        // AlexNet conv1: 227x227x3, 11x11, stride 4, no pad -> 55x55x96.
        let conv1 = LayerSpec::Conv {
            out_c: 96,
            kh: 11,
            kw: 11,
            stride: 4,
            pad: 0,
        };
        assert_eq!(
            conv1.out_shape(Shape::new(3, 227, 227)).unwrap(),
            Shape::new(96, 55, 55)
        );
        // AlexNet conv2 (same-pad): 27x27x96 -> 27x27x256.
        let conv2 = LayerSpec::Conv {
            out_c: 256,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        assert_eq!(
            conv2.out_shape(Shape::new(96, 27, 27)).unwrap(),
            Shape::new(256, 27, 27)
        );
    }

    #[test]
    fn fc_flattens() {
        let fc = LayerSpec::FullyConnected { out: 4096 };
        assert_eq!(
            fc.out_shape(Shape::new(256, 6, 6)).unwrap(),
            Shape::flat(4096)
        );
        assert_eq!(fc.weight_count(Shape::new(256, 6, 6)), 9216 * 4096);
    }

    #[test]
    fn weight_counts() {
        let conv = LayerSpec::Conv {
            out_c: 96,
            kh: 11,
            kw: 11,
            stride: 4,
            pad: 0,
        };
        assert_eq!(conv.weight_count(Shape::new(3, 227, 227)), 11 * 11 * 3 * 96);
        assert_eq!(LayerSpec::ReLU.weight_count(Shape::flat(10)), 0);
    }

    #[test]
    fn shape_preserving_layers() {
        let s = Shape::new(64, 13, 13);
        for l in [
            LayerSpec::ReLU,
            LayerSpec::Tanh,
            LayerSpec::Dropout { rate: 0.5 },
            LayerSpec::LocalResponseNorm,
        ] {
            assert_eq!(l.out_shape(s).unwrap(), s);
        }
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let conv = LayerSpec::Conv {
            out_c: 8,
            kh: 9,
            kw: 9,
            stride: 1,
            pad: 0,
        };
        assert!(conv.out_shape(Shape::new(3, 5, 5)).is_err());
    }

    #[test]
    fn zero_stride_is_rejected() {
        let conv = LayerSpec::Conv {
            out_c: 8,
            kh: 3,
            kw: 3,
            stride: 0,
            pad: 0,
        };
        assert!(conv.out_shape(Shape::new(3, 5, 5)).is_err());
        let pool = LayerSpec::MaxPool { k: 2, stride: 0 };
        assert!(pool.out_shape(Shape::new(3, 5, 5)).is_err());
    }
}
