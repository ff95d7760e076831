//! Model-based tests of the event-driven session executor: a seeded,
//! randomized interleaving of submits, non-blocking `try_submit`s, waits,
//! and mid-stream epoch bumps is driven against the serving layer under
//! tight permits, live (huge) deadlines, and recoverable faults — and
//! every session's embedding count must equal the one-shot `run_fast`
//! oracle, for all four shard planners. The session state machine may
//! park, steal, retry, and re-plan however it likes; the answer may not
//! move by a bit.

use fast::{FastConfig, FaultPlan, ShardPlanner, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Graph, Label, QueryGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{
    DeviceKind, FastService, FaultPolicy, ServeConfig, ServeError, SessionHandle, TenantId,
};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Seeded random connected query (tree skeleton + extra edges).
fn random_query(n: usize, seed: u64) -> QueryGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..2))).collect();
    let mut edges = Vec::new();
    for i in 1..n {
        edges.push((rng.gen_range(0..i), i));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.3) {
                edges.push((a, b));
            }
        }
    }
    QueryGraph::new(labels, &edges).expect("connected by construction")
}

/// Shared workload: one graph, a small distinct query set, and the
/// one-shot `run_fast` oracle count for each query.
fn workload() -> &'static (Arc<Graph>, Vec<QueryGraph>, Vec<u64>) {
    static W: OnceLock<(Arc<Graph>, Vec<QueryGraph>, Vec<u64>)> = OnceLock::new();
    W.get_or_init(|| {
        let g = Arc::new(random_labelled_graph(48, 0.2, 2, 31));
        let queries: Vec<QueryGraph> = (0..4)
            .map(|i| random_query(3 + i % 3, 1000 + i as u64))
            .collect();
        let oracle: Vec<u64> = queries
            .iter()
            .map(|q| {
                fast::run_fast(q, &g, &FastConfig::test_small(Variant::Sep))
                    .expect("oracle run")
                    .embeddings
            })
            .collect();
        assert!(oracle.iter().any(|&e| e > 0), "degenerate workload");
        (g, queries, oracle)
    })
}

/// Service under test: tight permits, a live-but-never-binding deadline
/// (so every state transition runs its deadline re-check without a shed),
/// and one recoverably-faulty device next to a healthy one.
fn session_config(
    planner: ShardPlanner,
    workers: usize,
    max_in_flight: usize,
    fault_seed: u64,
) -> ServeConfig {
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = planner;
    let healthy = DeviceKind::Cpu { threads: 2 };
    let flaky = DeviceKind::Faulty {
        inner: Box::new(DeviceKind::Cpu { threads: 2 }),
        plan: FaultPlan {
            seed: fault_seed,
            transient_rate: 0.25,
            stall_rate: 0.1,
            corrupt_rate: 0.0,
            permanent_after: None,
            panic_after: None,
            slowdown: 1.0,
        },
    };
    ServeConfig {
        fast,
        devices: 0,
        extra_devices: vec![flaky, healthy],
        workers,
        cache_capacity: 16,
        cst_cache_bytes: 16 << 20,
        max_in_flight,
        deadline: Some(Duration::from_secs(3600)),
        fault: FaultPolicy {
            max_attempts: 16,
            cross_check: false,
            cpu_fallback: true,
        },
    }
}

/// One step of the scripted client model.
enum Op {
    /// Blocking-admission submit of query `i` (never rejected).
    Submit(usize),
    /// Non-blocking submit of query `i`; on `Saturated` the model drains
    /// the oldest in-flight session first, then must succeed eventually.
    TrySubmit(usize),
    /// Wait the oldest outstanding session and check it against the
    /// oracle.
    WaitOldest,
    /// Bump the default tenant's snapshot epoch mid-stream, invalidating
    /// both cache tiers under the in-flight sessions.
    Bump,
}

/// Derives a seeded op script: ~16 submissions with waits and epoch
/// bumps interleaved.
fn script(seed: u64, queries: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut submitted = 0usize;
    while submitted < 16 {
        match rng.gen_range(0..10) {
            0..=3 => {
                ops.push(Op::Submit(rng.gen_range(0..queries)));
                submitted += 1;
            }
            4..=6 => {
                ops.push(Op::TrySubmit(rng.gen_range(0..queries)));
                submitted += 1;
            }
            7..=8 => ops.push(Op::WaitOldest),
            _ => ops.push(Op::Bump),
        }
    }
    ops
}

/// Runs one scripted interleaving against one planner and checks every
/// session against the oracle.
fn drive(planner: ShardPlanner, scenario: u64) -> Result<(), TestCaseError> {
    let (g, queries, oracle) = workload();
    let mut rng = StdRng::seed_from_u64(scenario ^ 0x5e55);
    let workers = rng.gen_range(1..=3);
    let max_in_flight = rng.gen_range(1..=4);
    let config = session_config(planner, workers, max_in_flight, scenario);
    let service = FastService::new(Arc::clone(g), config);

    let mut pending: VecDeque<(usize, SessionHandle)> = VecDeque::new();
    let wait_oldest = |pending: &mut VecDeque<(usize, SessionHandle)>| {
        if let Some((qi, handle)) = pending.pop_front() {
            let report = handle.wait().expect("session under recoverable faults");
            prop_assert_eq!(
                report.embeddings,
                oracle[qi],
                "{}: query {} diverged from the run_fast oracle",
                planner,
                qi
            );
        }
        Ok(())
    };
    let mut submitted = 0usize;
    for op in script(scenario, queries.len()) {
        match op {
            Op::Submit(qi) => {
                pending.push_back((qi, service.submit(queries[qi].clone())));
                submitted += 1;
            }
            Op::TrySubmit(qi) => loop {
                match service.try_submit(queries[qi].clone()) {
                    Ok(h) => {
                        pending.push_back((qi, h));
                        submitted += 1;
                        break;
                    }
                    Err(ServeError::Saturated) => {
                        // The model's backpressure reaction: drain the
                        // oldest session, freeing an admitted slot.
                        wait_oldest(&mut pending)?;
                        std::thread::yield_now();
                    }
                    Err(e) => prop_assert!(false, "unexpected try_submit error: {e}"),
                }
            },
            Op::WaitOldest => wait_oldest(&mut pending)?,
            Op::Bump => {
                service.bump_epoch(TenantId::DEFAULT).expect("default tenant");
            }
        }
    }
    while !pending.is_empty() {
        wait_oldest(&mut pending)?;
    }
    let report = service.shutdown();
    prop_assert_eq!(report.completed, submitted as u64);
    prop_assert_eq!(report.failed, 0);
    prop_assert_eq!(report.deadline_misses, 0);
    prop_assert!(
        report.max_in_flight <= max_in_flight,
        "{}: admission exceeded the permit bound: {} > {}",
        planner,
        report.max_in_flight,
        max_in_flight
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The model-based bar: any seeded interleaving of submits, saturated
    /// retries, waits, and mid-stream epoch bumps — under tight permits,
    /// live deadlines, and recoverable faults — serves every session with
    /// the oracle's exact count, for all four planners.
    #[test]
    fn scripted_interleavings_match_the_oracle(scenario in any::<u64>()) {
        for planner in [
            ShardPlanner::Contiguous,
            ShardPlanner::WorkloadBalanced,
            ShardPlanner::OverlapAware,
            ShardPlanner::Auto,
        ] {
            drive(planner, scenario)?;
        }
    }
}
