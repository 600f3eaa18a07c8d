//! Networks and the weighted-layer view the cost model consumes.

use crate::layer::{LayerKind, LayerSpec};
use crate::shape::Shape;

/// A full network: an input shape plus an ordered list of layers with
/// all shapes inferred.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Human-readable name ("alexnet", …).
    pub name: String,
    /// Shape of one input sample.
    pub input: Shape,
    layers: Vec<(LayerSpec, Shape, Shape)>, // (spec, in, out)
}

/// One weighted layer in the form the paper's Eqs. 3–9 consume.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedLayer {
    /// Position among weighted layers (1-based, matching the paper's
    /// `i = 1..L`).
    pub index: usize,
    /// Descriptive name, e.g. `conv3` or `fc7`.
    pub name: String,
    /// Conv (with kernel extents) or fully connected.
    pub kind: LayerKind,
    /// Input activation shape (`X_C × X_H × X_W`).
    pub in_shape: Shape,
    /// Output activation shape (`Y_C × Y_H × Y_W`).
    pub out_shape: Shape,
    /// `|W_i|` — weight count.
    pub weights: usize,
}

impl WeightedLayer {
    /// `d_{i−1}` — input activation length per sample.
    pub fn d_in(&self) -> usize {
        self.in_shape.dim()
    }

    /// `d_i` — output activation length per sample.
    pub fn d_out(&self) -> usize {
        self.out_shape.dim()
    }

    /// The kernel extents used by the domain-parallel halo terms:
    /// `(kh, kw)` for conv; `(X_H, X_W)` for FC layers, where the paper
    /// notes "the halo exchange region will consist of all of the input
    /// activations".
    pub fn halo_kernel(&self) -> (usize, usize) {
        match self.kind {
            LayerKind::Conv { kh, kw } => (kh, kw),
            LayerKind::FullyConnected => (self.in_shape.h.max(1), self.in_shape.w.max(1)),
        }
    }

    /// Whether this layer is convolutional.
    pub fn is_conv(&self) -> bool {
        matches!(self.kind, LayerKind::Conv { .. })
    }

    /// FLOPs for the forward matmul on one sample: `2·|W_i|` per output
    /// spatial position for conv (each filter weight participates once
    /// per position), `2·|W_i|` for FC.
    pub fn forward_flops_per_sample(&self) -> f64 {
        match self.kind {
            LayerKind::Conv { .. } => {
                2.0 * self.weights as f64 * (self.out_shape.h * self.out_shape.w) as f64
            }
            LayerKind::FullyConnected => 2.0 * self.weights as f64,
        }
    }

    /// FLOPs for one training step on one sample: forward plus the two
    /// backward products (`∆W = ∆Y·Xᵀ`, `∆X = Wᵀ·∆Y`), i.e. 3× forward
    /// — the "3 matrix multiplications" of the paper's §1.
    pub fn train_flops_per_sample(&self) -> f64 {
        3.0 * self.forward_flops_per_sample()
    }
}

impl Network {
    /// All layers with their inferred input/output shapes.
    pub fn layers(&self) -> impl Iterator<Item = (&LayerSpec, Shape, Shape)> {
        self.layers.iter().map(|(s, i, o)| (s, *i, *o))
    }

    /// Shape of the network output.
    pub fn output(&self) -> Shape {
        self.layers.last().map(|&(_, _, o)| o).unwrap_or(self.input)
    }

    /// The weighted layers in order — `L` entries, the unit of the
    /// paper's per-layer sums.
    pub fn weighted_layers(&self) -> Vec<WeightedLayer> {
        let mut out = Vec::new();
        let mut conv_n = 0usize;
        let mut fc_n = 0usize;
        for &(ref spec, in_shape, out_shape) in &self.layers {
            match *spec {
                LayerSpec::Conv { kh, kw, .. } => {
                    conv_n += 1;
                    out.push(WeightedLayer {
                        index: out.len() + 1,
                        name: format!("conv{conv_n}"),
                        kind: LayerKind::Conv { kh, kw },
                        in_shape,
                        out_shape,
                        weights: spec.weight_count(in_shape),
                    });
                }
                LayerSpec::FullyConnected { .. } => {
                    fc_n += 1;
                    out.push(WeightedLayer {
                        index: out.len() + 1,
                        name: format!("fc{fc_n}"),
                        kind: LayerKind::FullyConnected,
                        in_shape,
                        out_shape,
                        weights: spec.weight_count(in_shape),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Total parameter count `Σ|W_i|`.
    pub fn total_weights(&self) -> usize {
        self.weighted_layers().iter().map(|l| l.weights).sum()
    }

    /// Training FLOPs per sample across all weighted layers.
    pub fn train_flops_per_sample(&self) -> f64 {
        self.weighted_layers()
            .iter()
            .map(|l| l.train_flops_per_sample())
            .sum()
    }
}

/// Incremental network builder with shape inference.
///
/// ```
/// use dnn::{LayerSpec, NetworkBuilder, Shape};
/// let net = NetworkBuilder::new("tiny", Shape::new(3, 8, 8))
///     .layer(LayerSpec::Conv { out_c: 4, kh: 3, kw: 3, stride: 1, pad: 1 })
///     .layer(LayerSpec::ReLU)
///     .layer(LayerSpec::FullyConnected { out: 10 })
///     .build()
///     .unwrap();
/// assert_eq!(net.output(), Shape::flat(10));
/// ```
pub struct NetworkBuilder {
    name: String,
    input: Shape,
    layers: Vec<LayerSpec>,
}

impl NetworkBuilder {
    /// Starts a builder for a network with the given input shape.
    pub fn new(name: impl Into<String>, input: Shape) -> Self {
        NetworkBuilder {
            name: name.into(),
            input,
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    #[must_use]
    pub fn layer(mut self, spec: LayerSpec) -> Self {
        self.layers.push(spec);
        self
    }

    /// Convenience: conv + ReLU.
    #[must_use]
    pub fn conv_relu(self, out_c: usize, k: usize, stride: usize, pad: usize) -> Self {
        self.layer(LayerSpec::Conv {
            out_c,
            kh: k,
            kw: k,
            stride,
            pad,
        })
        .layer(LayerSpec::ReLU)
    }

    /// Convenience: FC + ReLU.
    #[must_use]
    pub fn fc_relu(self, out: usize) -> Self {
        self.layer(LayerSpec::FullyConnected { out })
            .layer(LayerSpec::ReLU)
    }

    /// Runs shape inference and produces the network, or the first
    /// shape error annotated with its layer index.
    pub fn build(self) -> Result<Network, String> {
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut shape = self.input;
        for (idx, spec) in self.layers.into_iter().enumerate() {
            let out = spec
                .out_shape(shape)
                .map_err(|e| format!("layer {idx} ({spec:?}): {e}"))?;
            layers.push((spec, shape, out));
            shape = out;
        }
        Ok(Network {
            name: self.name,
            input: self.input,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        NetworkBuilder::new("tiny", Shape::new(3, 8, 8))
            .conv_relu(4, 3, 1, 1)
            .layer(LayerSpec::MaxPool { k: 2, stride: 2 })
            .fc_relu(10)
            .build()
            .unwrap()
    }

    #[test]
    fn shape_inference_chains() {
        let net = tiny();
        assert_eq!(net.output(), Shape::flat(10));
        let shapes: Vec<Shape> = net.layers().map(|(_, _, o)| o).collect();
        assert_eq!(shapes[0], Shape::new(4, 8, 8));
        assert_eq!(shapes[2], Shape::new(4, 4, 4));
    }

    #[test]
    fn weighted_layers_are_numbered_and_named() {
        let net = tiny();
        let wl = net.weighted_layers();
        assert_eq!(wl.len(), 2);
        assert_eq!(wl[0].name, "conv1");
        assert_eq!(wl[0].index, 1);
        assert_eq!(wl[1].name, "fc1");
        assert_eq!(wl[1].index, 2);
    }

    #[test]
    fn weighted_layer_dims() {
        let net = tiny();
        let wl = net.weighted_layers();
        assert_eq!(wl[0].d_in(), 3 * 8 * 8);
        assert_eq!(wl[0].d_out(), 4 * 8 * 8);
        assert_eq!(wl[0].weights, 3 * 3 * 3 * 4);
        assert_eq!(wl[1].d_in(), 4 * 4 * 4);
        assert_eq!(wl[1].weights, 64 * 10);
    }

    #[test]
    fn fc_halo_kernel_covers_whole_input() {
        let net = tiny();
        let wl = net.weighted_layers();
        assert_eq!(wl[0].halo_kernel(), (3, 3));
        assert_eq!(wl[1].halo_kernel(), (4, 4), "FC halo = full spatial input");
    }

    #[test]
    fn flops_counts() {
        let net = tiny();
        let wl = net.weighted_layers();
        // conv: 2 * 108 weights * 64 positions.
        assert_eq!(wl[0].forward_flops_per_sample(), 2.0 * 108.0 * 64.0);
        assert_eq!(wl[1].forward_flops_per_sample(), 2.0 * 640.0);
        assert_eq!(
            net.train_flops_per_sample(),
            3.0 * (2.0 * 108.0 * 64.0 + 2.0 * 640.0)
        );
    }

    #[test]
    fn builder_reports_layer_errors() {
        let err = NetworkBuilder::new("bad", Shape::new(3, 4, 4))
            .layer(LayerSpec::Conv {
                out_c: 1,
                kh: 9,
                kw: 9,
                stride: 1,
                pad: 0,
            })
            .build()
            .unwrap_err();
        assert!(err.contains("layer 0"), "{err}");
    }

    #[test]
    fn empty_network_output_is_input() {
        let net = NetworkBuilder::new("id", Shape::flat(7)).build().unwrap();
        assert_eq!(net.output(), Shape::flat(7));
        assert!(net.weighted_layers().is_empty());
        assert_eq!(net.total_weights(), 0);
    }
}
