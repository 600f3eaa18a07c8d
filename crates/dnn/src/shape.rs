//! Activation shapes.

/// The shape of one sample's activation: channels × height × width.
/// Fully-connected activations are represented as `d × 1 × 1`, so every
/// layer has well-defined spatial extents (the paper's domain-parallel
/// formulas use `X_H`, `X_W`, `X_C` even for FC layers, where the halo
/// degenerates to the whole input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Channel count `X_C`.
    pub c: usize,
    /// Height `X_H`.
    pub h: usize,
    /// Width `X_W`.
    pub w: usize,
}

impl Shape {
    /// A spatial shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Shape { c, h, w }
    }

    /// A flat (fully-connected) shape of length `d`.
    pub fn flat(d: usize) -> Self {
        Shape { c: d, h: 1, w: 1 }
    }

    /// Total activation length `d = c·h·w` per sample.
    pub fn dim(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether this is a flat 1×1 shape.
    pub fn is_flat(&self) -> bool {
        self.h == 1 && self.w == 1
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_flat() {
            write!(f, "{}", self.c)
        } else {
            write!(f, "{}x{}x{}", self.c, self.h, self.w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_is_product() {
        assert_eq!(Shape::new(3, 227, 227).dim(), 3 * 227 * 227);
        assert_eq!(Shape::flat(4096).dim(), 4096);
    }

    #[test]
    fn flat_detection() {
        assert!(Shape::flat(10).is_flat());
        assert!(!Shape::new(3, 2, 1).is_flat());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::new(96, 55, 55).to_string(), "96x55x55");
        assert_eq!(Shape::flat(4096).to_string(), "4096");
    }
}
