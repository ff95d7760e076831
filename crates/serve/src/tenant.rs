//! Tenants: identities, per-tenant configuration, and the weighted
//! round-robin session table.
//!
//! A multi-tenant [`FastService`](crate::FastService) keys everything that
//! used to be service-global — graph, epoch, cache, metrics — by
//! [`TenantId`]. Admission across tenants is **weighted fair**: submissions
//! land in a per-tenant lane of a `WrrQueue` and workers pop lanes in
//! deficit-round-robin order, so under saturation each backlogged tenant is
//! served in proportion to its quota (a 1:3 quota split yields exactly a
//! 1:3 pop ratio), while idle tenants neither accumulate credit nor hold
//! capacity hostage. Sessions waiting in a lane are queue entries, not
//! blocked OS threads — the table is what replaces the old global blocking
//! semaphore as the cross-tenant scheduling point.

use std::collections::VecDeque;

/// The single source of truth for a fresh tenant's graph epoch. The epoch
/// is folded into every cache key ([`cst::PlanKey`]) and bumped on
/// graph mutation so stale entries can never hit.
pub const INITIAL_GRAPH_EPOCH: u64 = 0;

/// Identity of one tenant (one loaded graph + epoch + quota + cache
/// partition) inside a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// The compatibility tenant every service starts with: single-tenant
    /// callers (`submit`, the old examples) implicitly address it.
    pub const DEFAULT: TenantId = TenantId(0);

    pub(crate) fn new(raw: u32) -> Self {
        TenantId(raw)
    }

    /// The raw id (registration order, 0 = default tenant).
    pub fn raw(&self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Per-tenant knobs supplied at registration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Fair-share weight of the admission round-robin. Must be ≥ 1 — a
    /// zero-quota tenant could never be scheduled and is rejected as
    /// [`ServeError::ZeroQuota`](crate::ServeError::ZeroQuota).
    pub quota: u32,
    /// Byte budget of this tenant's cache partition
    /// (`serve::cache::CstCache`); `None` inherits
    /// [`ServeConfig::cst_cache_bytes`](crate::ServeConfig::cst_cache_bytes),
    /// `Some(0)` disables the cache for this tenant alone.
    pub cst_cache_bytes: Option<usize>,
    /// Per-session deadline for this tenant, measured from submission: a
    /// session still queued or executing past it is shed with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded).
    /// `None` inherits [`ServeConfig::deadline`](crate::ServeConfig::deadline).
    pub deadline: Option<std::time::Duration>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            quota: 1,
            cst_cache_bytes: None,
            deadline: None,
        }
    }
}

struct Lane<T> {
    tenant: TenantId,
    weight: u32,
    /// Deficit-round-robin credit: pops remaining in the current round.
    credit: u32,
    queue: VecDeque<T>,
    /// Sessions of this tenant popped from the lane but currently parked —
    /// waiting on a device completion or a build flight — rather than
    /// runnable. Bookkeeping only: parked sessions are *invisible* to the
    /// deficit round (they neither consume nor bank credit), which is what
    /// makes the scheduler readiness-aware — a tenant whose sessions are
    /// all parked on completions cannot hold up other tenants' deficits,
    /// and its own queued sessions keep popping at full weight.
    parked: u32,
}

/// A weighted round-robin multi-queue: one FIFO lane per tenant, popped in
/// deficit-round-robin order.
///
/// Each round grants every *backlogged* lane `weight` credits; a pop takes
/// from the current lane while it has credit and items, then advances.
/// When no backlogged lane has credit left the round restarts. Properties:
///
/// * **Weighted fairness under saturation** — backlogged lanes are served
///   exactly in proportion to their weights, deterministically (lane
///   registration order breaks ties within a round).
/// * **Work conservation** — an empty lane is skipped immediately; its
///   credit resets at the next round rather than banking (an idle tenant
///   cannot burst past its share later at others' expense).
/// * **FIFO within a tenant** — lanes preserve submission order, so
///   per-tenant latency ordering is unchanged from the single-tenant queue.
pub(crate) struct WrrQueue<T> {
    lanes: Vec<Lane<T>>,
    /// Lane the next pop inspects first.
    cursor: usize,
    len: usize,
}

impl<T> WrrQueue<T> {
    pub(crate) fn new() -> Self {
        WrrQueue {
            lanes: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Registers a lane. Weight must be ≥ 1 (validated by the caller —
    /// the service rejects zero quotas before the lane exists).
    pub(crate) fn add_lane(&mut self, tenant: TenantId, weight: u32) {
        debug_assert!(weight >= 1, "zero-weight lanes are rejected upstream");
        self.lanes.push(Lane {
            tenant,
            weight,
            credit: weight,
            queue: VecDeque::new(),
            parked: 0,
        });
    }

    /// Enqueues an item on `tenant`'s lane. Returns `false` (item dropped)
    /// if the lane does not exist — callers validate tenant ids first.
    pub(crate) fn push(&mut self, tenant: TenantId, item: T) -> bool {
        match self.lanes.iter_mut().find(|l| l.tenant == tenant) {
            Some(lane) => {
                lane.queue.push_back(item);
                self.len += 1;
                true
            }
            None => false,
        }
    }

    /// Pops the next item in deficit-round-robin order; `None` when every
    /// lane is empty.
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            let lanes = self.lanes.len();
            for step in 0..lanes {
                let i = (self.cursor + step) % lanes;
                let lane = &mut self.lanes[i];
                if lane.credit > 0 && !lane.queue.is_empty() {
                    lane.credit -= 1;
                    self.len -= 1;
                    let item = lane.queue.pop_front();
                    // Stay on this lane while it has credit and work;
                    // otherwise the next pop starts at the next lane.
                    self.cursor = if lane.credit > 0 && !lane.queue.is_empty() {
                        i
                    } else {
                        (i + 1) % lanes
                    };
                    return item;
                }
            }
            // Round over: replenish backlogged lanes only (idle lanes do
            // not bank credit) and start the next round.
            for lane in &mut self.lanes {
                lane.credit = if lane.queue.is_empty() {
                    0
                } else {
                    lane.weight
                };
            }
        }
    }

    /// Queued items across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Records that one of `tenant`'s sessions left the runnable set —
    /// parked on a device completion or a build flight. Parked sessions are
    /// not lane entries, so the deficit round never waits on them; this
    /// counter only keeps the readiness picture observable.
    pub(crate) fn park(&mut self, tenant: TenantId) {
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.tenant == tenant) {
            lane.parked += 1;
        }
    }

    /// Reverses [`park`](Self::park) when the session resumes (or dies).
    pub(crate) fn unpark(&mut self, tenant: TenantId) {
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.tenant == tenant) {
            lane.parked = lane.parked.saturating_sub(1);
        }
    }

    /// Sessions currently parked across all tenants.
    pub(crate) fn parked_total(&self) -> usize {
        self.lanes.iter().map(|l| l.parked as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_lane_queue(wa: u32, wb: u32) -> WrrQueue<(char, usize)> {
        let mut q = WrrQueue::new();
        q.add_lane(TenantId::new(0), wa);
        q.add_lane(TenantId::new(1), wb);
        q
    }

    #[test]
    fn saturated_lanes_split_by_weight() {
        let mut q = two_lane_queue(1, 3);
        for i in 0..32 {
            q.push(TenantId::new(0), ('a', i));
            q.push(TenantId::new(1), ('b', i));
        }
        let popped: Vec<char> = (0..32).map(|_| q.pop().unwrap().0).collect();
        let b = popped.iter().filter(|&&c| c == 'b').count();
        assert_eq!(b, 24, "1:3 quotas pop exactly 8:24 over 32: {popped:?}");
        // FIFO within each lane.
        let mut q2 = two_lane_queue(1, 3);
        for i in 0..4 {
            q2.push(TenantId::new(1), ('b', i));
        }
        let order: Vec<usize> = (0..4).map(|_| q2.pop().unwrap().1).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn idle_lane_does_not_bank_credit() {
        let mut q = two_lane_queue(4, 1);
        // Lane a idle for many rounds while b drains.
        for i in 0..10 {
            q.push(TenantId::new(1), ('b', i));
        }
        for _ in 0..10 {
            q.pop().unwrap();
        }
        // Now both become backlogged: a gets its weight per round, not
        // 10 rounds of banked credit beyond it — over one round of 5 pops
        // the split is exactly 4:1.
        for i in 0..20 {
            q.push(TenantId::new(0), ('a', i));
            q.push(TenantId::new(1), ('b', i));
        }
        let first_round: Vec<char> = (0..5).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(
            first_round.iter().filter(|&&c| c == 'a').count(),
            4,
            "{first_round:?}"
        );
    }

    #[test]
    fn empty_and_unknown_lanes() {
        let mut q: WrrQueue<u32> = WrrQueue::new();
        assert!(q.pop().is_none());
        q.add_lane(TenantId::new(0), 1);
        assert!(q.pop().is_none());
        assert!(!q.push(TenantId::new(9), 1), "unknown lane is rejected");
        assert!(q.push(TenantId::new(0), 7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(7));
        assert!(q.pop().is_none());
    }

    #[test]
    fn parked_sessions_do_not_hold_up_the_deficit() {
        // Tenant b holds heavy quota but every one of its sessions is
        // parked on device completions (not lane entries): tenant a's
        // queued work must flow without waiting on b's deficit, and the
        // park bookkeeping must not disturb b's weighted share once its
        // own queued work returns.
        let mut q = two_lane_queue(1, 3);
        for _ in 0..5 {
            q.park(TenantId::new(1));
        }
        assert_eq!(q.parked_total(), 5);
        for i in 0..4 {
            q.push(TenantId::new(0), ('a', i));
        }
        let popped: Vec<char> = (0..4).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(popped, vec!['a'; 4], "parked lanes never stall others");
        for _ in 0..5 {
            q.unpark(TenantId::new(1));
        }
        assert_eq!(q.parked_total(), 0);
        q.unpark(TenantId::new(1)); // saturates, never underflows
        assert_eq!(q.parked_total(), 0);
        q.park(TenantId::new(9)); // unknown tenants are ignored
        assert_eq!(q.parked_total(), 0);
        // Weighted split unchanged by the park/unpark churn.
        for i in 0..32 {
            q.push(TenantId::new(0), ('a', i));
            q.push(TenantId::new(1), ('b', i));
        }
        let popped: Vec<char> = (0..32).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(popped.iter().filter(|&&c| c == 'b').count(), 24);
    }

    #[test]
    fn work_conserving_when_one_lane_drains() {
        let mut q = two_lane_queue(1, 1);
        for i in 0..6 {
            q.push(TenantId::new(0), ('a', i));
        }
        q.push(TenantId::new(1), ('b', 0));
        // After b drains, a's items flow without stalls.
        let popped: Vec<char> = (0..7).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(popped.iter().filter(|&&c| c == 'a').count(), 6);
        assert!(q.pop().is_none());
    }
}
