//! Edge-case properties of the health/retry layer, exercised through
//! the public simulator API (a guarded communicator's receive):
//!
//! 1. A jittered exponential-backoff retry schedule is **bit-identical
//!    across reruns of the same fault-plan seed** — the jitter draw is
//!    a pure function of (plan seed, link, retry count), never of real
//!    time or OS scheduling.
//! 2. Every jittered pause stays inside its declared envelope: the
//!    total elapsed virtual time is bounded by the no-jitter schedule
//!    below and the fully-stretched schedule above.

use integrated_parallelism::mpsim::{Deadline, Error, FaultPlan, FtConfig, NetModel, World};
use proptest::prelude::*;

/// Runs a 2-rank world where the only message rank 1 awaits is dropped,
/// so every retry window expires and every backoff pause is charged.
/// Returns (elapsed virtual seconds on rank 1, retries, timeouts).
fn run_retry_schedule(seed: u64, policy: FtConfig) -> (f64, u64, u64) {
    let model = NetModel {
        alpha: 1e-6,
        beta: 0.0,
        flops: f64::INFINITY,
    };
    let plan = FaultPlan::new(seed).drop_nth(0, 1, 0);
    let (_, stats) = World::run_with_faults(2, model, plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, &[1.0]).unwrap();
        } else {
            let e = comm.guarded(&policy).recv(0, 3).unwrap_err();
            assert!(matches!(e, Error::Timeout { .. }));
        }
    });
    (
        stats.clocks[1].now,
        stats.ranks[1].retries,
        stats.ranks[1].timeouts,
    )
}

/// `attempts` windows of `timeout`, pauses of `backoff · factor^(i−1)`
/// each stretched by up to `jitter`.
fn exponential(timeout: f64, attempts: usize, backoff: f64, factor: f64, jitter: f64) -> FtConfig {
    FtConfig {
        deadline: Deadline::Fixed(timeout),
        attempts,
        backoff,
        backoff_factor: factor,
        jitter,
        speculative: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jittered_backoff_replays_bit_identically(
        seed in 0u64..1_000_000,
        timeout in 0.1f64..2.0,
        attempts in 2usize..6,
        backoff in 0.05f64..1.0,
        factor in 1.0f64..2.5,
    ) {
        // Fixed full jitter: the draw actually matters on every pause.
        let policy = exponential(timeout, attempts, backoff, factor, 1.0);
        let (t_a, retries_a, timeouts_a) = run_retry_schedule(seed, policy);
        let (t_b, retries_b, timeouts_b) = run_retry_schedule(seed, policy);
        prop_assert_eq!(
            t_a.to_bits(),
            t_b.to_bits(),
            "elapsed schedule must replay bitwise: {} vs {}",
            t_a,
            t_b
        );
        prop_assert_eq!(retries_a, retries_b);
        prop_assert_eq!(timeouts_a, timeouts_b);
        prop_assert_eq!(retries_a as usize, attempts - 1);
        prop_assert_eq!(timeouts_a as usize, attempts);
    }

    #[test]
    fn jittered_pauses_stay_inside_their_envelope(
        seed in 0u64..1_000_000,
        timeout in 0.1f64..2.0,
        attempts in 2usize..6,
        backoff in 0.05f64..1.0,
        factor in 1.0f64..2.5,
        jitter in 0.0f64..1.0,
    ) {
        let policy = exponential(timeout, attempts, backoff, factor, jitter);
        let (elapsed, _, _) = run_retry_schedule(seed, policy);

        // Deterministic parts: `attempts` expired windows (each also
        // pays the α of the message-loss observation at most once per
        // window — bounded below by the windows alone) plus the pauses.
        let mut pauses_min = 0.0;
        let mut pause = backoff;
        for _ in 1..attempts {
            pauses_min += pause;
            pause *= factor;
        }
        let pauses_max = pauses_min * (1.0 + jitter);
        let windows = attempts as f64 * timeout;
        // Generous α allowance: one latency charge per window.
        let slack = attempts as f64 * 1e-5;
        prop_assert!(
            elapsed >= windows + pauses_min - 1e-12,
            "elapsed {} below no-jitter floor {}",
            elapsed,
            windows + pauses_min
        );
        prop_assert!(
            elapsed <= windows + pauses_max + slack,
            "elapsed {} above fully-stretched ceiling {}",
            elapsed,
            windows + pauses_max + slack
        );
    }
}
