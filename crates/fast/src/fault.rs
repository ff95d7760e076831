//! Deterministic fault injection: a seeded wrapper backend for chaos
//! testing the serving layer's recovery machinery.
//!
//! A real multi-FPGA deployment of FAST sees transient kernel errors,
//! cards that die mid-stream, kernels that hang past the watchdog, and
//! silently corrupted DMA readback. None of those exist in the emulated
//! backends — so [`FaultInjector`] manufactures them *reproducibly*: it
//! wraps any [`ExecutionBackend`] and, per execution call, draws from a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream keyed on
//! `(plan.seed, call index)`. The schedule is therefore a pure function of
//! the wrapper's own call sequence — independent of thread interleaving,
//! wall time, and what other devices do — which is what lets the chaos
//! property tests (`tests/prop_faults.rs`) assert bit-identical results
//! and exact retry accounting under any schedule.
//!
//! Failure modes, in the order they are drawn per call:
//!
//! 1. **Permanent death** at call index [`FaultPlan::permanent_after`]:
//!    every call from then on returns [`BackendError::Permanent`] (the
//!    device fell off the bus — the pool must evict it).
//! 2. **Injected panic** at [`FaultPlan::panic_after`]: the call panics
//!    (a driver bug), exercising the serving layer's poison tolerance.
//! 3. **Transient error** with probability [`FaultPlan::transient_rate`].
//! 4. **Stall** past the watchdog with probability
//!    [`FaultPlan::stall_rate`] (reported, not slept — the emulation has
//!    no real kernel to hang).
//! 5. **Silent corruption** with probability [`FaultPlan::corrupt_rate`]:
//!    the inner backend executes and its embedding count is XORed with a
//!    nonzero per-call random value — an `Ok` output that is *wrong*, the
//!    failure only a cross-check against a second backend can catch.
//! 6. **Slowdown**: the surviving output's `modeled_sec` is multiplied by
//!    [`FaultPlan::slowdown`] (a degraded card the calibrating scheduler
//!    should learn to avoid).

use crate::backend::{BackendError, BackendOutput, BackendSpec, ExecutionBackend, QueryCtx};
use crate::host::PartitionJob;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A per-device fault schedule. All rates are probabilities in `[0, 1]`
/// drawn independently per execution call from the seeded stream; the
/// default plan injects nothing (a transparent wrapper).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-call SplitMix64 stream. Two injectors with the same
    /// seed and rates inject identical schedules.
    pub seed: u64,
    /// Probability a call fails with [`BackendError::Transient`].
    pub transient_rate: f64,
    /// Probability a call fails with [`BackendError::Stalled`].
    pub stall_rate: f64,
    /// Probability a call's output is silently bit-flipped (wrong `Ok`).
    pub corrupt_rate: f64,
    /// Call index at which the device dies: that call and every later one
    /// return [`BackendError::Permanent`].
    pub permanent_after: Option<u64>,
    /// Call index at which the call panics (an injected driver bug).
    pub panic_after: Option<u64>,
    /// Multiplier on surviving outputs' `modeled_sec` (≥ 1.0 models a
    /// degraded card; 1.0 is neutral).
    pub slowdown: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            stall_rate: 0.0,
            corrupt_rate: 0.0,
            permanent_after: None,
            panic_after: None,
            slowdown: 1.0,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only transient errors at `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// A plan killing the device permanently at call `n`.
    pub fn dies_at(seed: u64, n: u64) -> Self {
        FaultPlan {
            seed,
            permanent_after: Some(n),
            ..FaultPlan::default()
        }
    }
}

/// Monotone counters of what an injector actually injected — the ground
/// truth the chaos tests reconcile the serving layer's retry/corruption
/// accounting against.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Calls that reached the injector.
    pub calls: AtomicU64,
    /// Calls that executed the inner backend and returned `Ok`.
    pub executed: AtomicU64,
    /// Injected [`BackendError::Transient`] failures.
    pub transient: AtomicU64,
    /// Injected [`BackendError::Stalled`] failures.
    pub stalled: AtomicU64,
    /// Injected [`BackendError::Permanent`] failures (one per rejected
    /// call, not one per device).
    pub permanent: AtomicU64,
    /// Outputs silently corrupted before being returned as `Ok`.
    pub corrupted: AtomicU64,
}

impl FaultCounters {
    /// Injected failures that surfaced as an `Err` (everything except
    /// silent corruption): the number of failed execution attempts the
    /// serving layer observed from this device.
    pub fn errors(&self) -> u64 {
        self.transient.load(Ordering::Relaxed)
            + self.stalled.load(Ordering::Relaxed)
            + self.permanent.load(Ordering::Relaxed)
    }
}

/// SplitMix64: the minimal high-quality mixer — dependency-free and stable,
/// so fault schedules reproduce everywhere.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a draw to a uniform probability in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

struct FaultState {
    /// Execution calls seen so far (the schedule index).
    calls: u64,
    /// Set once `permanent_after` fires; every later call is rejected.
    dead: bool,
}

/// A seeded fault-injecting wrapper around any [`ExecutionBackend`].
///
/// Spec, prior, and pricing delegate to the inner backend, so the pool
/// schedules a faulty device exactly like a healthy one — until it starts
/// failing. Counters ([`FaultInjector::counters`]) are shareable, letting
/// a test keep a handle on the injected ground truth after handing the
/// backend to a service.
pub struct FaultInjector {
    inner: Arc<dyn ExecutionBackend>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    counters: Arc<FaultCounters>,
}

impl FaultInjector {
    /// Wraps `inner` under `plan`'s schedule.
    pub fn new(inner: Arc<dyn ExecutionBackend>, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            plan,
            state: Mutex::new(FaultState {
                calls: 0,
                dead: false,
            }),
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// The schedule this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A shared handle on the injected-fault counters.
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }

    /// The per-call draw stream: lane `k` of call `i` under this seed.
    fn draw(&self, call: u64, lane: u64) -> u64 {
        splitmix64(
            self.plan
                .seed
                .wrapping_add(call.wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(lane.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
        )
    }
}

impl ExecutionBackend for FaultInjector {
    fn spec(&self) -> BackendSpec {
        self.inner.spec()
    }

    fn prior_sec_per_workload(&self) -> f64 {
        self.inner.prior_sec_per_workload()
    }

    fn execute(
        &self,
        job: &PartitionJob,
        ctx: &QueryCtx<'_>,
    ) -> Result<BackendOutput, BackendError> {
        // Decide the call's fate under the lock, then drop it before
        // executing (or panicking): the injector's own state must survive
        // an injected panic un-poisoned.
        let call = {
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let call = s.calls;
            s.calls += 1;
            if !s.dead {
                if let Some(n) = self.plan.permanent_after {
                    if call >= n {
                        s.dead = true;
                    }
                }
            }
            if s.dead {
                self.counters.permanent.fetch_add(1, Ordering::Relaxed);
                self.counters.calls.fetch_add(1, Ordering::Relaxed);
                return Err(BackendError::Permanent(format!(
                    "device died at call {}",
                    self.plan.permanent_after.unwrap_or(0)
                )));
            }
            call
        };
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if self.plan.panic_after.is_some_and(|n| call >= n) {
            panic!("injected driver bug at call {call}");
        }
        if unit(self.draw(call, 1)) < self.plan.transient_rate {
            self.counters.transient.fetch_add(1, Ordering::Relaxed);
            return Err(BackendError::Transient(format!(
                "injected transient fault at call {call}"
            )));
        }
        if unit(self.draw(call, 2)) < self.plan.stall_rate {
            self.counters.stalled.fetch_add(1, Ordering::Relaxed);
            return Err(BackendError::Stalled { watchdog_sec: 1.0 });
        }
        let mut out = self.inner.execute(job, ctx)?;
        if unit(self.draw(call, 3)) < self.plan.corrupt_rate {
            // A nonzero 64-bit XOR mask: the corrupted count can never
            // equal the true count, and two independently corrupted calls
            // collide with probability ~2⁻⁶³ — a cross-checking majority
            // vote cannot be fooled by two matching wrong answers.
            out.embeddings ^= self.draw(call, 4) | 1;
            self.counters.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        out.modeled_sec *= self.plan.slowdown.max(0.0);
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("spec", &self.inner.spec())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendClass, CpuBackend, FpgaBackend};
    use crate::config::FastConfig;
    use crate::kernel::CollectMode;
    use crate::plan::KernelPlan;
    use crate::prepare_partitions;
    use crate::variants::Variant;
    use graph_core::{
        generators::random_labelled_graph, path_based_order, select_root, BfsTree, Label,
        QueryGraph,
    };

    fn triangle() -> QueryGraph {
        QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2), (0, 2)],
        )
        .unwrap()
    }

    /// Streams the test query's partitions through `backend`, recording
    /// each call's result.
    fn drive(backend: &dyn ExecutionBackend, rounds: usize) -> Vec<Result<u64, BackendError>> {
        let q = triangle();
        let g = random_labelled_graph(60, 0.25, 2, 97);
        let config = FastConfig::test_small(Variant::Sep);
        let root = select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let order = path_based_order(&q, &tree, &g);
        let kernel_plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let ctx = QueryCtx {
            query: &q,
            graph: &g,
            order: &order,
            kernel_plan: &kernel_plan,
            collect: CollectMode::CountOnly,
        };
        let mut results = Vec::new();
        for _ in 0..rounds {
            prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                results.push(backend.execute(&job, &ctx).map(|o| o.embeddings));
            });
        }
        results
    }

    #[test]
    fn default_plan_is_transparent() {
        let inner = Arc::new(CpuBackend::new(2)) as Arc<dyn ExecutionBackend>;
        let reference = drive(inner.as_ref(), 1);
        let injector = FaultInjector::new(inner, FaultPlan::default());
        let wrapped = drive(&injector, 1);
        assert_eq!(reference, wrapped, "zero rates must inject nothing");
        assert_eq!(injector.counters().errors(), 0);
        assert!(injector.counters().executed.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let plan = FaultPlan {
            seed: 7,
            transient_rate: 0.3,
            stall_rate: 0.1,
            ..FaultPlan::default()
        };
        let make = || {
            FaultInjector::new(
                Arc::new(CpuBackend::new(2)) as Arc<dyn ExecutionBackend>,
                plan.clone(),
            )
        };
        let (a, b) = (make(), make());
        assert_eq!(drive(&a, 3), drive(&b, 3), "same seed, same schedule");
        let c = FaultInjector::new(
            Arc::new(CpuBackend::new(2)) as Arc<dyn ExecutionBackend>,
            FaultPlan { seed: 8, ..plan },
        );
        assert_ne!(
            drive(&a, 3),
            drive(&c, 3),
            "different seed, different schedule"
        );
    }

    #[test]
    fn permanent_death_rejects_every_later_call() {
        let injector = FaultInjector::new(
            Arc::new(CpuBackend::new(2)) as Arc<dyn ExecutionBackend>,
            FaultPlan::dies_at(1, 2),
        );
        let results = drive(&injector, 2);
        assert!(results.len() > 2, "need calls past the death index");
        for (i, r) in results.iter().enumerate() {
            if i < 2 {
                assert!(r.is_ok(), "call {i} precedes death");
            } else {
                assert!(
                    matches!(r, Err(BackendError::Permanent(_))),
                    "call {i} must be rejected: {r:?}"
                );
            }
        }
        assert_eq!(
            injector.counters().permanent.load(Ordering::Relaxed),
            (results.len() - 2) as u64
        );
    }

    #[test]
    fn corruption_flips_counts_but_stays_ok() {
        let inner = Arc::new(CpuBackend::new(2)) as Arc<dyn ExecutionBackend>;
        let truth = drive(inner.as_ref(), 1);
        let injector = FaultInjector::new(
            inner,
            FaultPlan {
                seed: 3,
                corrupt_rate: 1.0,
                ..FaultPlan::default()
            },
        );
        let corrupted = drive(&injector, 1);
        assert_eq!(truth.len(), corrupted.len());
        for (t, c) in truth.iter().zip(&corrupted) {
            assert!(c.is_ok(), "silent corruption must not error");
            assert_ne!(t, c, "a corrupted count can never equal the truth");
        }
        assert_eq!(
            injector.counters().corrupted.load(Ordering::Relaxed),
            truth.len() as u64
        );
    }

    #[test]
    fn slowdown_scales_modeled_seconds_only() {
        let fast = FastConfig::test_small(Variant::Sep);
        let inner = Arc::new(FpgaBackend::from_config(&fast)) as Arc<dyn ExecutionBackend>;
        let slow = FaultInjector::new(
            Arc::clone(&inner),
            FaultPlan {
                slowdown: 4.0,
                ..FaultPlan::default()
            },
        );
        assert_eq!(slow.spec().class, BackendClass::Fpga);
        assert_eq!(
            slow.prior_sec_per_workload(),
            inner.prior_sec_per_workload()
        );
        let q = triangle();
        let g = random_labelled_graph(60, 0.25, 2, 97);
        let config = FastConfig::test_small(Variant::Sep);
        let root = select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let order = path_based_order(&q, &tree, &g);
        let kernel_plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let ctx = QueryCtx {
            query: &q,
            graph: &g,
            order: &order,
            kernel_plan: &kernel_plan,
            collect: CollectMode::CountOnly,
        };
        prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
            let truth = inner.execute(&job, &ctx).unwrap();
            let slowed = slow.execute(&job, &ctx).unwrap();
            assert_eq!(truth.embeddings, slowed.embeddings);
            assert_eq!(truth.kernel_cycles, slowed.kernel_cycles);
            assert!((slowed.modeled_sec - 4.0 * truth.modeled_sec).abs() < 1e-12);
        });
    }

    #[test]
    fn error_display_names_the_failure_mode() {
        let cases = [
            (BackendError::Transient("x".into()).to_string(), "transient"),
            (BackendError::Permanent("x".into()).to_string(), "permanent"),
            (BackendError::Corrupted("x".into()).to_string(), "corrupted"),
            (
                BackendError::Stalled { watchdog_sec: 1.5 }.to_string(),
                "watchdog",
            ),
        ];
        for (msg, needle) in cases {
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
        assert!(BackendError::Permanent("x".into()).is_permanent());
        assert!(!BackendError::Transient("x".into()).is_permanent());
    }
}
