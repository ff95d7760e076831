//! Chaos property tests: under randomized seeded fault schedules —
//! transient errors, watchdog stalls, silent corruption, permanent device
//! death — the service still serves **bit-identical** embedding counts for
//! every fleet shape, with exactly-once retry accounting
//! and monotone quarantine counters. Degenerate configurations (zero
//! deadline budget, a fleet that is dead on arrival) shed with *typed*
//! errors instead of hanging or panicking.

use fast::{FastConfig, FaultPlan, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, Graph};
use proptest::prelude::*;
use serve::{
    DeviceKind, FastService, FaultPolicy, HealthState, ServeConfig, ServeError, ServeReport,
    SessionHandle,
};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The serving query mix: hub-dominated (q1, q2) and flat (q0, q4) shapes.
const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

/// The shared workload: graph + fault-free reference counts
/// (fleet-independent, witnessed by `prop_backend.rs`).
fn workload() -> &'static (Arc<Graph>, Vec<u64>) {
    static W: OnceLock<(Arc<Graph>, Vec<u64>)> = OnceLock::new();
    W.get_or_init(|| {
        let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
        let baseline: Vec<u64> = QUERY_MIX
            .iter()
            .map(|&i| {
                fast::run_fast(
                    &benchmark_query(i),
                    &g,
                    &FastConfig::test_small(Variant::Sep),
                )
                .expect("fault-free reference")
                .embeddings
            })
            .collect();
        assert!(baseline.iter().any(|&e| e > 0), "degenerate workload");
        (g, baseline)
    })
}

/// A random fault schedule. `corrupt` gates silent corruption — the chaos
/// fleets give corruption to at most one device, so the cross-check always
/// has an honest second opinion within its vote budget.
fn arb_plan(corrupt: bool) -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.35,
        0.0f64..0.2,
        0.0f64..0.25,
        (any::<bool>(), 4u64..64),
    )
        .prop_map(
            move |(seed, transient, stall, corrupt_rate, (dies, dies_at))| FaultPlan {
                seed,
                transient_rate: transient,
                stall_rate: stall,
                corrupt_rate: if corrupt { corrupt_rate } else { 0.0 },
                permanent_after: dies.then_some(dies_at),
                panic_after: None,
                slowdown: 1.0,
            },
        )
}

fn faulty(inner: DeviceKind, plan: FaultPlan) -> DeviceKind {
    DeviceKind::Faulty {
        inner: Box::new(inner),
        plan,
    }
}

/// Fleet shapes under test. Each keeps one unwrapped (always-healthy)
/// device — the ISSUE's correctness bar is "any schedule leaving ≥ 1
/// healthy device" — and puts corruption on at most one device.
fn fleets(fast: &FastConfig, p0: FaultPlan, p1: FaultPlan) -> Vec<(&'static str, Vec<DeviceKind>)> {
    let fpga = || DeviceKind::Fpga(fast.spec.clone());
    vec![
        (
            "fpga-only",
            vec![
                faulty(fpga(), p0.clone()),
                faulty(fpga(), p1.clone()),
                fpga(),
            ],
        ),
        (
            "cpu-only",
            vec![
                faulty(DeviceKind::Cpu { threads: 2 }, p0.clone()),
                DeviceKind::Cpu { threads: 4 },
            ],
        ),
        (
            "mixed",
            vec![
                faulty(fpga(), p0),
                faulty(DeviceKind::Cpu { threads: 4 }, p1),
                fpga(),
            ],
        ),
    ]
}

fn chaos_config(extra: Vec<DeviceKind>) -> ServeConfig {
    ServeConfig {
        fast: FastConfig::test_small(Variant::Sep),
        devices: 0,
        extra_devices: extra,
        workers: 2,
        cst_cache_bytes: 16 << 20,
        max_in_flight: 8,
        fault: FaultPolicy {
            // A deep retry budget: the chaos runs probe accounting and
            // bit-identity, not wall-clock recovery.
            max_attempts: 16,
            cross_check: true,
            cpu_fallback: true,
        },
        ..ServeConfig::default()
    }
}

/// Exactly-once retry accounting plus monotone health counters, asserted
/// against a mid-run snapshot and the final report.
fn assert_fault_invariants(mid: &ServeReport, report: &ServeReport, label: &str) {
    assert_eq!(report.failed, 0, "{label}: no session may fail");
    let device_failures: u64 = report.devices.iter().map(|d| d.failures).sum();
    assert_eq!(
        report.retries, device_failures,
        "{label}: every device failure is retried exactly once"
    );
    let device_corruptions: u64 = report.devices.iter().map(|d| d.corruptions).sum();
    assert_eq!(
        report.corruption_catches, device_corruptions,
        "{label}: every caught corruption is charged to a device"
    );
    assert!(
        report.failovers <= report.retries,
        "{label}: failovers ⊆ retries"
    );
    // Monotonicity: counters only grow from the mid-run snapshot.
    assert!(report.retries >= mid.retries, "{label}: retries monotone");
    assert!(
        report.quarantines >= mid.quarantines,
        "{label}: quarantines monotone"
    );
    assert!(
        report.corruption_catches >= mid.corruption_catches,
        "{label}: corruption catches monotone"
    );
    for (a, b) in mid.devices.iter().zip(&report.devices) {
        assert!(
            b.failures >= a.failures,
            "{label}: per-device failures monotone"
        );
        assert!(
            b.quarantines >= a.quarantines,
            "{label}: per-device quarantines monotone"
        );
    }
    assert!(report.is_finite(), "{label}: report stays finite");
}

/// Serves the query mix on `extra` under the chaos policy and checks the
/// counts against the fault-free run plus the fault invariants.
fn serve_mix(extra: Vec<DeviceKind>, label: &str) -> ServeReport {
    let (g, baseline) = workload();
    let service = FastService::new(Arc::clone(g), chaos_config(extra));
    let counts: Vec<u64> = QUERY_MIX
        .iter()
        .map(|&i| {
            service
                .submit(benchmark_query(i))
                .wait()
                .expect("session")
                .embeddings
        })
        .collect();
    assert_eq!(
        &counts, baseline,
        "{label}: counts diverge from the fault-free run"
    );
    let mid = service.report();
    let report = service.shutdown();
    assert_eq!(report.completed, QUERY_MIX.len() as u64, "{label}");
    assert_fault_invariants(&mid, &report, label);
    report
}

/// Two fixed schedules at the ends of the range: zero-rate wrappers
/// inject nothing, so the fleet never retries; a card that dies on its
/// first call beside a flaky, lying one is evicted, and the service
/// still answers bit-exact.
#[test]
fn zero_rate_fleet_never_retries_and_a_dying_card_is_evicted() {
    let spec = FastConfig::test_small(Variant::Sep).spec.clone();
    let fpga = || DeviceKind::Fpga(spec.clone());
    let zero = serve_mix(
        vec![
            faulty(fpga(), FaultPlan::default()),
            faulty(fpga(), FaultPlan::default()),
            fpga(),
        ],
        "zero-rate",
    );
    assert_eq!(
        (zero.retries, zero.failovers, zero.corruption_catches),
        (0, 0, 0),
        "a zero-rate schedule must fault nothing"
    );
    let heavy = serve_mix(
        vec![
            faulty(fpga(), FaultPlan::dies_at(0xC4A07, 0)),
            faulty(
                fpga(),
                FaultPlan {
                    seed: 0xC4A08,
                    transient_rate: 0.5,
                    corrupt_rate: 0.25,
                    ..FaultPlan::default()
                },
            ),
            fpga(),
        ],
        "heavy",
    );
    assert!(
        heavy.retries > 0 && heavy.failovers > 0,
        "heavy chaos must retry and fail over"
    );
    assert_eq!(
        heavy.devices[0].health,
        HealthState::Evicted,
        "the dying card is evicted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole correctness bar: under any seeded fault schedule that
    /// leaves at least one healthy device, per-query embedding counts are
    /// bit-identical to the fault-free run — across FPGA-only, CPU-only,
    /// and mixed fleets — with exactly-once
    /// retry accounting and monotone quarantine counters.
    #[test]
    fn chaos_serves_are_bit_identical_with_exact_accounting(
        p0 in arb_plan(true),
        p1 in arb_plan(false),
    ) {
        let (g, baseline) = workload();
        for (label, extra) in fleets(&FastConfig::test_small(Variant::Sep), p0.clone(), p1.clone()) {
            let service = FastService::new(Arc::clone(g), chaos_config(extra));
            let handles: Vec<SessionHandle> = QUERY_MIX
                .iter()
                .map(|&i| service.submit(benchmark_query(i)))
                .collect();
            let counts: Vec<u64> = handles
                .into_iter()
                .map(|h| h.wait().expect("chaos session completes").embeddings)
                .collect();
            prop_assert_eq!(
                &counts, baseline,
                "{}: faulted counts diverge from the fault-free run", label
            );
            let mid = service.report();
            // A second wave after the snapshot exercises monotonicity.
            let again = service.submit(benchmark_query(1)).wait().expect("post-snapshot session");
            prop_assert_eq!(again.embeddings, baseline[1]);
            let report = service.shutdown();
            prop_assert_eq!(report.completed, QUERY_MIX.len() as u64 + 1);
            assert_fault_invariants(&mid, &report, label);
        }
    }

    /// A zero deadline budget sheds every session with the typed error —
    /// no hangs, no panics, no partial counts — regardless of the fault
    /// schedule underneath.
    #[test]
    fn zero_deadline_budget_sheds_typed(p0 in arb_plan(true)) {
        let (g, _) = workload();
        let mut config = chaos_config(
            fleets(&FastConfig::test_small(Variant::Sep), p0.clone(), p0)
                .remove(2)
                .1,
        );
        config.deadline = Some(Duration::ZERO);
        let service = FastService::new(Arc::clone(g), config);
        for &i in &QUERY_MIX {
            let err = service.submit(benchmark_query(i)).wait().unwrap_err();
            prop_assert_eq!(err, ServeError::DeadlineExceeded);
        }
        let report = service.shutdown();
        prop_assert_eq!(report.deadline_misses, QUERY_MIX.len() as u64);
        prop_assert_eq!(report.completed, 0);
        prop_assert_eq!(report.failed, 0, "shed by policy, not broken");
        prop_assert!(report.is_finite());
    }

    /// A fleet that is dead on arrival: with the CPU fallback the service
    /// degrades and still answers bit-exact (accounting the degraded
    /// wall); without it every session sheds `Degraded` — typed, not hung.
    #[test]
    fn dead_on_arrival_fleet_degrades_or_sheds(seed in any::<u64>(), fallback in any::<bool>()) {
        let (g, baseline) = workload();
        let spec = FastConfig::test_small(Variant::Sep).spec.clone();
        let dead = vec![
            faulty(DeviceKind::Fpga(spec.clone()), FaultPlan::dies_at(seed, 0)),
            faulty(DeviceKind::Fpga(spec), FaultPlan::dies_at(seed ^ 1, 0)),
        ];
        let mut config = chaos_config(dead);
        config.fault.cpu_fallback = fallback;
        let service = FastService::new(Arc::clone(g), config);
        if fallback {
            let counts: Vec<u64> = QUERY_MIX
                .iter()
                .map(|&i| service.submit(benchmark_query(i)).wait().expect("degraded serve").embeddings)
                .collect();
            prop_assert_eq!(&counts, baseline, "degraded mode diverged");
            let report = service.shutdown();
            prop_assert_eq!(report.completed, QUERY_MIX.len() as u64);
            prop_assert_eq!(report.failed, 0);
            prop_assert!(report.degraded_sec > 0.0, "degraded wall is accounted");
            prop_assert_eq!(report.retries, report.devices.iter().map(|d| d.failures).sum::<u64>());
            prop_assert!(report.is_finite());
        } else {
            let err = service.submit(benchmark_query(0)).wait().unwrap_err();
            prop_assert_eq!(err, ServeError::Degraded);
            let report = service.shutdown();
            prop_assert_eq!(report.failed, 1);
            prop_assert!(report.is_finite());
        }
    }
}
