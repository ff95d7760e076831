//! Fault-tolerant partition execution: the recovery policy, bounded retry
//! with rerouting, cross-checked outputs, the emergency CPU fallback, and
//! the per-session fault accounting they feed.

use crate::devices::DevicePool;
use crate::service::{Inner, MutexExt, ServeError, TenantState};
use fast::{BackendClass, BackendOutput, ExecutionBackend, PartitionJob, QueryCtx};
use std::sync::Mutex;
use std::time::Instant;

/// Recovery policy of the serving layer: what happens when a device
/// returns [`fast::BackendError`], lies ([`FaultPolicy::cross_check`]), or
/// when the whole fleet is quarantined/evicted
/// ([`FaultPolicy::cpu_fallback`]).
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Execution attempts per partition before its session fails. Each
    /// failed attempt releases the booking, advances the device's health
    /// state machine, and reroutes to the shortest-expected-completion
    /// healthy device *other than* the one that just failed.
    pub max_attempts: usize,
    /// Re-execute every partition on a *second* device and cross-check the
    /// results (embedding count + collected embeddings); disagreeing
    /// devices are marked suspect (counting toward quarantine) until two
    /// executions agree. Catches silent corruption at ~2× device work.
    pub cross_check: bool,
    /// When every pool device is quarantined or evicted, execute on an
    /// emergency host CPU share (degraded mode) instead of shedding the
    /// session with [`ServeError::Degraded`].
    pub cpu_fallback: bool,
}

/// Threads of the emergency CPU share.
pub(crate) const FALLBACK_THREADS: usize = 4;

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_attempts: 4,
            cross_check: false,
            cpu_fallback: true,
        }
    }
}

/// Per-session fault accounting, accumulated across every partition's
/// attempts and folded into the tenant's ledger whatever the
/// session's outcome.
#[derive(Default, Clone, Copy)]
pub(crate) struct FaultAcc {
    /// Failed execution attempts that were retried — bumps in lockstep
    /// with the failing device's `DeviceStats::failures`, which is the
    /// exactly-once accounting invariant the chaos tests reconcile. (A
    /// backend call that panics charges the device a failure too, but its
    /// session dies, so there is no retry to count.)
    pub(crate) retries: u64,
    /// Retries that landed on a different device (reroutes).
    pub(crate) failovers: u64,
    /// Corrupted outputs caught and outvoted by the cross-check.
    pub(crate) corruption_catches: u64,
    /// Wall seconds executed on the emergency CPU fallback.
    pub(crate) degraded_sec: f64,
    /// Worst modelled device queue any partition joined behind.
    pub(crate) device_queue_sec: f64,
}

/// Releases a device booking when the backend call it covers unwinds (an
/// injected or real driver panic): neither `complete` nor `fail` runs on
/// that path, and a leaked booking would inflate the device's outstanding
/// workload — and every later session's modelled queueing delay — for the
/// life of the pool. Resolves as a failed attempt, so the device also
/// takes its strike.
struct BookingGuard<'a> {
    pool: &'a Mutex<DevicePool>,
    device: usize,
    workload: f64,
}

impl Drop for BookingGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.pool.plock().fail(self.device, self.workload, false);
        }
    }
}

/// One fault-tolerant partition execution: bounded immediate retries,
/// rerouting away from the failing device, and the
/// emergency CPU fallback when no pool device is available. Returns the
/// executing device index (`pool.len()` for the fallback), its class, and
/// the output.
fn execute_resilient(
    inner: &Inner,
    policy: &FaultPolicy,
    job: &PartitionJob,
    ctx: &QueryCtx<'_>,
    avoid: Option<usize>,
    acc: &mut FaultAcc,
) -> Result<(usize, BackendClass, BackendOutput), ServeError> {
    let mut last_failed = avoid;
    let mut rerouting = false;
    for attempt in 1..=policy.max_attempts.max(1) {
        let admitted = inner.devices.plock().admit(job.workload, last_failed);
        let (device, queued_sec, backend) = match admitted {
            Ok(a) => a,
            Err(_) => {
                // No healthy or probationary device left. Degraded mode:
                // the emergency CPU share answers (its wall is the
                // degraded-mode cost), or the session sheds typed.
                let Some(fallback) = inner.fallback.as_ref() else {
                    return Err(ServeError::Degraded);
                };
                obs::event(
                    "degraded",
                    "fault",
                    vec![("partition", obs::ArgValue::U64(job.index as u64))],
                );
                let t0 = Instant::now();
                let out = fallback.execute(job, ctx).map_err(|e| {
                    ServeError::Failed(format!("emergency CPU fallback failed: {e}"))
                })?;
                acc.degraded_sec += t0.elapsed().as_secs_f64();
                let virtual_idx = inner.devices.plock().len();
                return Ok((virtual_idx, fallback.spec().class, out));
            }
        };
        if rerouting && Some(device) != last_failed {
            acc.failovers += 1;
            obs::event(
                "failover",
                "fault",
                vec![("device", obs::ArgValue::U64(device as u64))],
            );
        }
        acc.device_queue_sec = acc.device_queue_sec.max(queued_sec);
        // Execute outside the pool lock: concurrent sessions overlap on
        // different devices.
        let result = {
            let _booking = BookingGuard {
                pool: &inner.devices,
                device,
                workload: job.workload,
            };
            backend.execute(job, ctx)
        };
        match result {
            Ok(out) => {
                inner.devices.plock().complete(
                    device,
                    job.workload,
                    out.modeled_sec,
                    out.kernel_cycles,
                );
                return Ok((device, backend.spec().class, out));
            }
            Err(e) => {
                inner
                    .devices
                    .plock()
                    .fail(device, job.workload, e.is_permanent());
                acc.retries += 1;
                obs::event(
                    "retry",
                    "fault",
                    vec![
                        ("device", obs::ArgValue::U64(device as u64)),
                        ("attempt", obs::ArgValue::U64(attempt as u64)),
                    ],
                );
                last_failed = Some(device);
                rerouting = true;
                if attempt == policy.max_attempts.max(1) {
                    return Err(ServeError::Failed(format!(
                        "partition {} failed after {attempt} attempts: {e}",
                        job.index
                    )));
                }
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// Total executions the cross-check may spend per partition before giving
/// up on agreement (first vote + up to three more).
const CROSS_CHECK_MAX_VOTES: usize = 4;

/// [`execute_resilient`] plus, when [`FaultPolicy::cross_check`] is on,
/// re-execution on a second device until two executions agree on
/// `(embeddings, collected)` — the embedding fingerprint. Disagreeing
/// devices are marked suspect (their corruption counts toward
/// quarantine). Results from the trusted CPU fallback skip the check, and
/// when the vote budget runs out without agreement the fallback (if
/// configured) arbitrates as ground truth.
pub(crate) fn execute_checked(
    inner: &Inner,
    policy: &FaultPolicy,
    job: &PartitionJob,
    ctx: &QueryCtx<'_>,
    acc: &mut FaultAcc,
) -> Result<(usize, BackendClass, BackendOutput), ServeError> {
    let first = execute_resilient(inner, policy, job, ctx, None, acc)?;
    let fallback_idx = inner.devices.plock().len();
    if !policy.cross_check || first.0 == fallback_idx {
        return Ok(first);
    }
    let mut votes = vec![first];
    loop {
        let avoid = votes.last().map(|v| v.0);
        let vote = execute_resilient(inner, policy, job, ctx, avoid, acc)?;
        if vote.0 == fallback_idx {
            // The fleet degraded mid-check: the fallback's answer is
            // ground truth; every disagreeing earlier vote was corrupt.
            for (d, _, o) in &votes {
                if o.embeddings != vote.2.embeddings || o.collected != vote.2.collected {
                    inner.devices.plock().mark_suspect(*d);
                    acc.corruption_catches += 1;
                }
            }
            return Ok(vote);
        }
        let agreed = votes.iter().position(|(_, _, o)| {
            o.embeddings == vote.2.embeddings && o.collected == vote.2.collected
        });
        if let Some(winner) = agreed {
            // Two independent executions agree; corrupted outputs cannot
            // collide (the injected XOR mask is nonzero and per-call), so
            // every *other* vote was wrong — charge its device.
            for (i, (d, _, _)) in votes.iter().enumerate() {
                if i != winner {
                    inner.devices.plock().mark_suspect(*d);
                    acc.corruption_catches += 1;
                }
            }
            return Ok(vote);
        }
        votes.push(vote);
        if votes.len() >= CROSS_CHECK_MAX_VOTES {
            // No two executions agree within the vote budget. Arbitrate on
            // the trusted CPU fallback if there is one — its answer is
            // ground truth, so the session still completes bit-exact even
            // when most of the fleet lies; without a fallback the
            // partition fails typed.
            let Some(fallback) = inner.fallback.as_ref() else {
                return Err(ServeError::Failed(format!(
                    "partition {}: cross-check found no two agreeing executions in {} votes",
                    job.index,
                    votes.len()
                )));
            };
            let truth = fallback
                .execute(job, ctx)
                .map_err(|e| ServeError::Failed(format!("cross-check arbitration failed: {e}")))?;
            for (d, _, o) in &votes {
                if o.embeddings != truth.embeddings || o.collected != truth.collected {
                    inner.devices.plock().mark_suspect(*d);
                    acc.corruption_catches += 1;
                }
            }
            return Ok((fallback_idx, fallback.spec().class, truth));
        }
    }
}

/// Folds one partition's fault accounting into the session total.
pub(crate) fn fold_acc(total: &mut FaultAcc, part: &FaultAcc) {
    total.retries += part.retries;
    total.failovers += part.failovers;
    total.corruption_catches += part.corruption_catches;
    total.degraded_sec += part.degraded_sec;
    // Worst queue any partition joined behind, same as the inline layer.
    total.device_queue_sec = total.device_queue_sec.max(part.device_queue_sec);
}

/// Folds a session's fault accounting into its tenant's ledger.
pub(crate) fn fold_faults(tenant: &TenantState, acc: &FaultAcc) {
    if acc.retries == 0 && acc.corruption_catches == 0 && acc.degraded_sec == 0.0 {
        return;
    }
    let mut m = tenant.metrics.plock();
    m.retries += acc.retries;
    m.failovers += acc.failovers;
    m.corruption_catches += acc.corruption_catches;
    m.degraded_sec += acc.degraded_sec;
}
