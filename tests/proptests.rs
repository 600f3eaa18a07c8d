//! Property-based tests over the core invariants: distributed = serial
//! for random shapes and grids, cost-model algebraic identities for
//! random networks, and memory-model linearity.

use proptest::prelude::*;

use integrated_parallelism::distmm::dist::{col_shard, part_range, row_shard};
use integrated_parallelism::distmm::onep5d::{backward, forward, Grid};
use integrated_parallelism::dnn::zoo::mlp;
use integrated_parallelism::dnn::{LayerSpec, NetworkBuilder, Shape};
use integrated_parallelism::integrated::cost::{integrated_model_batch, pure_batch, pure_model};
use integrated_parallelism::integrated::memory::footprint;
use integrated_parallelism::integrated::{MachineModel, Strategy};
use integrated_parallelism::mpsim::{NetModel, World};
use integrated_parallelism::tensor::init;
use integrated_parallelism::tensor::matmul::{matmul, matmul_a_bt, matmul_at_b};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn distributed_layer_matches_serial_for_random_grids(
        pr in 1usize..4,
        pc in 1usize..4,
        d_out in 2usize..12,
        d_in in 2usize..10,
        b in 2usize..12,
        seed in 0u64..1000,
    ) {
        let w = init::xavier(d_out, d_in, seed);
        let x = init::uniform(d_in, b, -1.0, 1.0, seed + 1);
        let dy = init::uniform(d_out, b, -1.0, 1.0, seed + 2);
        let y_ref = matmul(&w, &x);
        let dw_ref = matmul_a_bt(&dy, &x);
        let dx_ref = matmul_at_b(&w, &dy);

        let out = World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&w, pr, grid.i);
            let xl = col_shard(&x, pc, grid.j);
            let dyl = col_shard(&dy, pc, grid.j);
            let y = forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx)
        });
        for (g, (y, dw, dx)) in out.iter().enumerate() {
            let i = g / pc;
            let j = g % pc;
            let cols = part_range(b, pc, j);
            let rows = part_range(d_out, pr, i);
            prop_assert!(y.approx_eq(&y_ref.col_block(cols.start, cols.end), 1e-9));
            prop_assert!(dw.approx_eq(&dw_ref.row_block(rows.start, rows.end), 1e-9));
            // ∆X is reduce-scattered: the rows of the layer below's block.
            let rows = part_range(d_in, pr, i);
            let dx_ref = dx_ref.col_block(cols.start, cols.end);
            prop_assert!(dx.approx_eq(&dx_ref.row_block(rows.start, rows.end), 1e-9));
        }
    }

    #[test]
    fn eq8_degenerates_to_eq3_and_eq4(
        widths in proptest::collection::vec(2usize..64, 2..6),
        b in 1usize..512,
        logp in 1u32..8,
    ) {
        let p = 1usize << logp;
        let mut dims = vec![32usize];
        dims.extend(widths);
        let net = mlp("prop", &dims);
        let layers = net.weighted_layers();
        let m = MachineModel::cori_knl();
        let batch_direct = pure_batch(&layers, p).seconds(&m);
        let batch_via_eq8 = integrated_model_batch(&layers, b as f64, 1, p).seconds(&m);
        prop_assert!((batch_direct - batch_via_eq8).abs() <= 1e-12 * (1.0 + batch_direct));
        let model_direct = pure_model(&layers, b as f64, p).seconds(&m);
        let model_via_eq8 = integrated_model_batch(&layers, b as f64, p, 1).seconds(&m);
        prop_assert!((model_direct - model_via_eq8).abs() <= 1e-12 * (1.0 + model_direct));
    }

    #[test]
    fn dw_words_scale_inversely_with_pr(
        logpr in 1u32..6,
        b in 64usize..4096,
    ) {
        // Eq. 8: the ∆W all-reduce volume divides by Pr (holding Pc).
        let net = mlp("prop", &[64, 48, 32]);
        let layers = net.weighted_layers();
        let pc = 4usize;
        let pr = 1usize << logpr;
        let base = integrated_model_batch(&layers, b as f64, 1, pc).total.dw_allreduce.words;
        let split = integrated_model_batch(&layers, b as f64, pr, pc).total.dw_allreduce.words;
        prop_assert!((base / split - pr as f64).abs() < 1e-9);
    }

    #[test]
    fn allgather_words_scale_with_local_batch(
        logpc in 0u32..6,
        b in 256usize..4096,
    ) {
        // Eq. 8: the all-gather volume carries B/Pc.
        let net = mlp("prop", &[64, 48, 32]);
        let layers = net.weighted_layers();
        let pr = 4usize;
        let pc = 1usize << logpc;
        if b % pc != 0 { return Ok(()); }
        let full = integrated_model_batch(&layers, b as f64, pr, 1).total.allgather.words;
        let split = integrated_model_batch(&layers, b as f64, pr, pc).total.allgather.words;
        prop_assert!((full / split - pc as f64).abs() < 1e-9);
    }

    #[test]
    fn memory_total_is_conserved_across_grids_when_summed(
        logpr in 0u32..5,
        b in 8usize..256,
    ) {
        // Summed over all P processes, weight memory is |W|·Pc and
        // activation memory is A·Pr·2 — the replication factors of the
        // Discussion. Check weight replication exactly.
        let net = mlp("prop", &[32, 64, 16]);
        let layers = net.weighted_layers();
        let p = 32usize;
        let pr = 1usize << logpr;
        let pc = p / pr;
        let s = Strategy::uniform_grid(pr, pc, layers.len());
        let f = footprint(&s, &layers, b as f64);
        let total_weight_words = f.weights * p as f64;
        let expect = net.total_weights() as f64 * pc as f64;
        prop_assert!((total_weight_words - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn cost_seconds_are_monotone_in_machine_parameters(
        alpha in 0.0f64..1e-4,
        bw in 1e8f64..1e11,
    ) {
        let net = mlp("prop", &[64, 48, 32]);
        let layers = net.weighted_layers();
        let m1 = MachineModel { alpha, bandwidth: bw, word_bytes: 4, flops: 1e12 };
        let m2 = MachineModel { alpha: alpha * 2.0 + 1e-9, bandwidth: bw / 2.0, word_bytes: 4, flops: 1e12 };
        let c = integrated_model_batch(&layers, 128.0, 4, 8);
        prop_assert!(c.seconds(&m2) >= c.seconds(&m1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn conv_shape_inference_matches_eq2(
        in_c in 1usize..8,
        out_c in 1usize..8,
        k in prop::sample::select(vec![1usize, 3, 5]),
        hw in 8usize..32,
        stride in 1usize..3,
    ) {
        let net = NetworkBuilder::new("prop", Shape::new(in_c, hw, hw))
            .layer(LayerSpec::Conv { out_c, kh: k, kw: k, stride, pad: k / 2 })
            .build()
            .unwrap();
        let l = &net.weighted_layers()[0];
        // Eq. 2: |W| = kh·kw·X_C·Y_C; d_i = Y_H·Y_W·Y_C.
        prop_assert_eq!(l.weights, k * k * in_c * out_c);
        let expect_hw = (hw + 2 * (k / 2) - k) / stride + 1;
        prop_assert_eq!(l.d_out(), expect_hw * expect_hw * out_c);
    }
}

// Fault-injection determinism: a FaultPlan is part of the program, so
// two runs with the same plan must agree bit-for-bit — losses, virtual
// clocks, and every recovery decision (rollback point, survivor grid).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fault_injected_training_replays_bit_identically(
        seed in 0u64..1_000,
        victim in 0usize..6,
        tenths in 3usize..8,
    ) {
        use integrated_parallelism::collectives::FtConfig;
        use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
        use integrated_parallelism::integrated::trainer::synthetic_data;
        use integrated_parallelism::mpsim::{FaultPlan, Span};

        let net = mlp("ft-prop", &[10, 8, 6]);
        let (x, labels) = synthetic_data(&net, 18, seed);
        let cfg = FtTrainConfig {
            lr: 0.2,
            iters: 6,
            seed: seed + 1,
            ckpt_every: 2,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine: MachineModel::cori_knl(),
            ..FtTrainConfig::default()
        };
        let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, FaultPlan::default());
        let t_kill = clean.stats.makespan() * tenths as f64 / 10.0;
        let plan = || {
            FaultPlan::new(seed)
                .kill(victim, t_kill)
                .straggle(0, 1, 1e-6, 0.5, Span::All)
                .corrupt_nth(1, 2, 25)
        };
        let a = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, plan());
        let b = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, plan());

        // Bit-identical losses and virtual clocks on every rank.
        prop_assert_eq!(a.losses(), b.losses());
        prop_assert_eq!(a.stats.makespan(), b.stats.makespan());
        for (ca, cb) in a.stats.clocks.iter().zip(&b.stats.clocks) {
            prop_assert_eq!(ca.now, cb.now);
            prop_assert_eq!(ca.comm, cb.comm);
        }
        // Identical fault accounting and recovery decisions.
        prop_assert_eq!(a.stats.total_timeouts(), b.stats.total_timeouts());
        prop_assert_eq!(a.stats.total_aborts(), b.stats.total_aborts());
        prop_assert_eq!(
            a.stats.total_failures_detected(),
            b.stats.total_failures_detected()
        );
        let (sa, sb) = (a.survivors(), b.survivors());
        prop_assert_eq!(sa.len(), sb.len());
        for (ra, rb) in sa.iter().zip(&sb) {
            prop_assert_eq!(ra.recoveries.len(), rb.recoveries.len());
            for (qa, qb) in ra.recoveries.iter().zip(&rb.recoveries) {
                prop_assert_eq!(qa.rollback_iter, qb.rollback_iter);
                prop_assert_eq!((qa.pr, qa.pc), (qb.pr, qb.pc));
                prop_assert_eq!(&qa.dead, &qb.dead);
                prop_assert_eq!(qa.measured_secs, qb.measured_secs);
            }
            for (wa, wb) in ra.weight_shards.iter().zip(&rb.weight_shards) {
                prop_assert_eq!(wa.max_abs_diff(wb), 0.0);
            }
        }
    }
}

// ABFT has no false positives: on a fault-free machine the checksummed
// trainer must be bit-identical to the undefended one — same losses,
// same weights — for random workloads, grids, and SGD seeds. (The
// virtual clock is *not* compared: the checksum flops are charged on
// it by design.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn abft_clean_runs_are_bit_identical_to_undefended(
        seed in 0u64..1_000,
        widths in proptest::collection::vec(2usize..24, 2..5),
        grid_pick in 0usize..3,
        iters in 2usize..7,
    ) {
        use integrated_parallelism::collectives::FtConfig;
        use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
        use integrated_parallelism::integrated::trainer::synthetic_data;
        use integrated_parallelism::mpsim::FaultPlan;

        let net = mlp("abft-prop", &widths);
        let (x, labels) = synthetic_data(&net, 12, seed);
        let (pr, pc) = [(1, 3), (2, 2), (2, 3)][grid_pick];
        let cfg = |abft: bool| FtTrainConfig {
            lr: 0.2,
            iters,
            seed: seed + 1,
            ckpt_every: 2,
            abft,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine: MachineModel::cori_knl(),
            ..FtTrainConfig::default()
        };
        let off = train_1p5d_ft(&net, &x, &labels, &cfg(false), pr, pc, FaultPlan::default());
        let on = train_1p5d_ft(&net, &x, &labels, &cfg(true), pr, pc, FaultPlan::default());

        prop_assert_eq!(off.losses(), on.losses());
        prop_assert_eq!(on.stats.total_corrupt_detected(), 0, "no false positives");
        for (wa, wb) in off.weights().iter().zip(&on.weights()) {
            prop_assert_eq!(wa.max_abs_diff(wb), 0.0);
        }
        // The defense is not free: the checksum flops must appear on
        // the virtual clock.
        prop_assert!(on.stats.makespan() > off.stats.makespan());
    }
}
