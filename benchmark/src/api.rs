//! The binding surface: every item of the measured crates that the
//! benchmark names, and nothing else. The rest of the package imports
//! the workspace only through this file, so a refactor of the crates
//! (ROADMAP item 2 collapses `World::run_*` and `train_1p5d_*`) knows
//! exactly which names must keep compiling, or be given a shim here.
//! README.md lists the same names by layer.

// tensor — kernels replayed on the workloads' shard shapes.
pub use tensor::conv::{conv2d, conv2d_backward};
pub use tensor::init::{uniform, uniform_tensor};
pub use tensor::lrn::{lrn_backward, lrn_forward, LrnParams};
pub use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_flops};
pub use tensor::pool::{maxpool2d, maxpool2d_backward, Pool2dParams};
pub use tensor::{Conv2dParams, Matrix, Tensor4};

// mpsim — the engine, its statistics and its fault plans.
pub use mpsim::{
    Backend, Communicator, Error as MpError, FaultPlan, NetModel, Result as MpResult, TraceConfig,
    World, WorldStats,
};

// collectives — each algorithm and its closed-form α–β cost.
pub use collectives::bruck::allgather_bruck;
pub use collectives::cost::{
    bruck_allgather, halo_transfer, recursive_doubling_allreduce, ring_allreduce_exact,
};
pub use collectives::halo::exchange_1d;
pub use collectives::nonblocking::iallreduce;
pub use collectives::recursive::allreduce_recursive_doubling;
pub use collectives::ring::{allgatherv_ring, allreduce_ring};
pub use collectives::{allreduce, FtConfig, ReduceOp};

// distmm — the 1.5D products and the domain-parallel convolution.
pub use distmm::domain_general::{conv_backward, conv_forward, row_partition};
pub use distmm::onep5d::{backward, forward, Grid};
pub use distmm::part_range;

// dnn — the static shape catalogue.
pub use dnn::zoo::{mini_alexnet, mlp, mlp_tiny};
pub use dnn::{LayerSpec, Network, Shape, WeightedLayer};

// core (`integrated`) — trainers, cost model (Eq. 8/9), chaos oracle.
pub use integrated::chaos::{ChaosPlan, Oracle};
pub use integrated::cnn::{synthetic_images, train_cnn_domain, train_cnn_serial};
pub use integrated::cost::integrated::layer_cost;
pub use integrated::cost::{integrated_full, integrated_model_batch};
pub use integrated::ft_trainer::{train_1p5d_ft, FtDistResult, FtTrainConfig};
pub use integrated::overlap::OverlapPlan;
pub use integrated::trainer::{synthetic_data, train_1p5d_scheduled, train_serial, TrainConfig};
pub use integrated::{LayerParallelism, MachineModel};
