//! Property-based tests for the collective algorithms: every
//! implementation agrees with a naive reference for arbitrary rank
//! counts, payload sizes, and operators — and their executed virtual
//! times match their closed forms for arbitrary α/β.

// Rank-indexed loops mirror the formulas; see collectives/src/lib.rs.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use integrated_parallelism::collectives::bruck::allgather_bruck;
use integrated_parallelism::collectives::cost;
use integrated_parallelism::collectives::ring::{allgather_ring, allreduce_ring};
use integrated_parallelism::collectives::{allgatherv_into, bcast, ReduceOp};
use integrated_parallelism::mpsim::{NetModel, World};

fn contribution(rank: usize, n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((rank as u64 + 1) * 31 + i as u64 * 17 + seed) % 1000) as f64 / 10.0)
        .collect()
}

fn naive_reduce(p: usize, n: usize, seed: u64, op: ReduceOp) -> Vec<f64> {
    let mut acc = contribution(0, n, seed);
    for r in 1..p {
        op.apply(&mut acc, &contribution(r, n, seed));
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ring_allreduce_matches_naive(
        p in 1usize..9,
        n in 1usize..40,
        seed in 0u64..100,
        op_idx in 0usize..3,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_idx];
        let expect = naive_reduce(p, n, seed, op);
        let out = World::run(p, NetModel::free(), |comm| {
            let mut data = contribution(comm.rank(), n, seed);
            allreduce_ring(comm, &mut data, op).unwrap();
            data
        });
        for r in 0..p {
            for (a, b) in out[r].iter().zip(&expect) {
                // The ring reduces in a different association order
                // than the naive fold; sums may differ by rounding.
                prop_assert!((a - b).abs() < 1e-9, "p={} n={} rank={}", p, n, r);
            }
        }
    }

    #[test]
    fn bruck_allgather_matches_concatenation(
        p in 1usize..9,
        m in 1usize..20,
        seed in 0u64..100,
    ) {
        let expect: Vec<f64> =
            (0..p).flat_map(|r| contribution(r, m, seed)).collect();
        let out = World::run(p, NetModel::free(), |comm| {
            let mine = contribution(comm.rank(), m, seed);
            let mut into = vec![0.0; p * m];
            allgatherv_into(comm, mine.clone(), &mut into, |r| r * m..(r + 1) * m).unwrap();
            (allgather_bruck(comm, &mine).unwrap(), into)
        });
        for r in 0..p {
            prop_assert_eq!(&out[r].0, &expect);
            prop_assert_eq!(&out[r].1, &expect);
        }
    }

    #[test]
    fn bcast_from_any_root(
        p in 1usize..9,
        n in 1usize..30,
        root_pick in 0usize..8,
        seed in 0u64..100,
    ) {
        let root = root_pick % p;
        let payload = contribution(root, n, seed);
        let expect = payload.clone();
        let out = World::run(p, NetModel::free(), |comm| {
            let mut data =
                if comm.rank() == root { payload.clone() } else { Vec::new() };
            bcast(comm, &mut data, root).unwrap();
            data
        });
        for r in 0..p {
            prop_assert_eq!(&out[r], &expect);
        }
    }

    #[test]
    fn ring_times_match_closed_forms_for_random_machines(
        logp in 1u32..4,
        blocks in 1usize..30,
        alpha_us in 1u64..100,
        gbps in 1u64..20,
    ) {
        let p = 1usize << logp;
        let n = blocks * p; // divisible so chunking is exact
        let model = NetModel {
            alpha: alpha_us as f64 * 1e-6,
            beta: 1.0 / (gbps as f64 * 1e9),
            flops: f64::INFINITY,
        };
        let reduce_time = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
            comm.now()
        })[0];
        let expect = cost::ring_allreduce_exact(p, n as f64).seconds(&model);
        prop_assert!((reduce_time - expect).abs() < 1e-12 * (1.0 + expect));

        let gather_time = World::run(p, model, |comm| {
            allgather_ring(comm, &vec![1.0; blocks]).unwrap();
            comm.now()
        })[0];
        let expect = cost::ring_allgather_exact(p, n as f64).seconds(&model);
        prop_assert!((gather_time - expect).abs() < 1e-12 * (1.0 + expect));
    }
}
