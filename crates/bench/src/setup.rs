//! Shared experiment setup: the paper's Table 1 fixed options and
//! lightweight CLI-flag handling for the bench binaries.

use dnn::zoo::{alexnet, IMAGENET_TRAIN_IMAGES};
use dnn::Network;
use integrated::compute::KnlComputeModel;
use integrated::report::Table;
use integrated::MachineModel;

/// The fixed experimental context of the paper's Table 1.
pub struct Setup {
    /// AlexNet.
    pub net: Network,
    /// Cori KNL machine model (α = 2 µs, 1/β = 6 GB/s).
    pub machine: MachineModel,
    /// The Fig. 4 compute calibration.
    pub compute: KnlComputeModel,
    /// ImageNet training-set size.
    pub n_samples: f64,
}

impl Setup {
    /// Builds the Table 1 setup.
    pub fn table1() -> Setup {
        Setup {
            net: alexnet(),
            machine: MachineModel::cori_knl(),
            compute: KnlComputeModel::fig4(),
            n_samples: IMAGENET_TRAIN_IMAGES as f64,
        }
    }
}

/// Parsed common flags for the bench binaries.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
}

impl Args {
    /// A table as aligned text, or as CSV under `--csv`.
    pub fn render(&self, t: &Table) -> String {
        if self.csv {
            t.to_csv()
        } else {
            t.render()
        }
    }
}

/// Parses `--csv` from argv (ignoring anything else so binaries can add
/// their own flags).
pub fn parse_args() -> Args {
    Args {
        csv: std::env::args().any(|a| a == "--csv"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_the_paper_setup() {
        let s = Setup::table1();
        assert_eq!(s.net.name, "alexnet");
        assert_eq!(s.machine.alpha, 2e-6);
        assert_eq!(s.n_samples, 1_281_167.0);
    }
}
