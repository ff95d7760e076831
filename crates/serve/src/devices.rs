//! The heterogeneous device pool and its dispatch policy.
//!
//! The paper's multi-FPGA extension (Section VII-E) assigns each CST — "an
//! independent and complete search space" — to "the FPGA with the minimum
//! total workload" using the `W_CST` estimate. The serving pool generalises
//! that twice. First, from one query's partitions to a concurrent stream:
//! every partition of every in-flight session is booked onto a device,
//! executed by one synchronous backend call, and the booking released by
//! [`DevicePool::complete`] or [`DevicePool::fail`] on the executor that
//! ran it. Second, from homogeneous cards to a
//! **heterogeneous fleet**: each device wraps an
//! [`ExecutionBackend`] — an emulated FPGA card or
//! a CPU fallback share — and the scheduler prices workload in **modelled
//! seconds** under each backend's own cost model, because raw `W_CST` queue
//! lengths are only comparable between identical devices. Dispatch is
//! shortest *expected completion*: the device minimising
//! `(outstanding + new) × sec_per_workload`, where `sec_per_workload` is
//! the device's observed modelled-seconds-per-workload rate (its prior
//! before the first completion calibrates it). For a homogeneous pool the
//! rate divides out and this is exactly the paper's minimum-outstanding
//! rule.
//!
//! Admission also reports the **modelled queueing delay** the partition
//! joins behind — the chosen device's outstanding booked workload at its
//! rate — which the serving layer folds into per-session latency so the
//! throughput–latency curves stay device-faithful at high concurrency (the
//! host wall alone hides contention on the modelled devices).
//!
//! # Health
//!
//! Devices fail ([`fast::BackendError`]), so every device carries a
//! [`HealthState`] the dispatcher honours: only `Healthy` and `Probation`
//! devices are admitted. [`DevicePool::fail`] releases a failed booking
//! *without* feeding the sec-per-workload calibration (pricing stays
//! honest — failed attempts cost wall time but teach nothing about the
//! device's rate) and drives the state machine: `QUARANTINE_THRESHOLD`
//! consecutive failures quarantine the device for a penalty window of
//! admission ticks; an expired quarantine re-admits it **on probation**,
//! where one success restores `Healthy` and one failure re-quarantines
//! with a doubled penalty; a permanent error evicts the device for the
//! pool's lifetime. When every device is quarantined or evicted,
//! admission returns the typed [`ServeError::Degraded`] and the serving
//! layer falls back to an emergency CPU share (or sheds the session).

use crate::service::ServeError;
use fast::{BackendClass, CpuBackend, ExecutionBackend, FastConfig, FaultInjector, FaultPlan, FpgaBackend};
use fpga_sim::FpgaSpec;
use std::sync::Arc;

/// Consecutive failures that quarantine a healthy device.
pub const QUARANTINE_THRESHOLD: u32 = 3;
/// Base quarantine penalty, in admission ticks; doubles on each
/// re-quarantine (capped) — a flapping device is admitted ever more
/// rarely without ever being evicted outright.
pub const QUARANTINE_BASE_TICKS: u64 = 8;
/// Cap on penalty doublings (2⁶ · base = 512 ticks at most).
const QUARANTINE_MAX_SHIFT: u32 = 6;

/// Description of one device in a [`ServeConfig`](crate::ServeConfig)
/// fleet, resolved to an [`ExecutionBackend`] at service construction.
#[derive(Debug, Clone)]
pub enum DeviceKind {
    /// An emulated FPGA card with its own spec (BRAM, clock, ports); runs
    /// the session's variant at that spec.
    Fpga(FpgaSpec),
    /// A CPU fallback share modelling `threads` host workers.
    Cpu { threads: usize },
    /// Any device wrapped in a seeded [`FaultInjector`]: the fleet
    /// vocabulary of the chaos tests. The wrapper delegates
    /// spec and pricing, so scheduling treats it exactly like its inner
    /// kind — until the schedule starts firing.
    Faulty {
        /// The wrapped device description.
        inner: Box<DeviceKind>,
        /// The injected fault schedule.
        plan: FaultPlan,
    },
}

/// Recovery state of one pool device. Only `Healthy` and `Probation`
/// devices are dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Quarantine expired: re-admitted, but one failure re-quarantines
    /// immediately (with a doubled penalty) and one success restores
    /// `Healthy`.
    Probation,
    /// Too many consecutive failures: not admitted until the penalty
    /// window of admission ticks passes.
    Quarantined,
    /// A permanent error: never admitted again.
    Evicted,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Probation => write!(f, "probation"),
            HealthState::Quarantined => write!(f, "quarantined"),
            HealthState::Evicted => write!(f, "evicted"),
        }
    }
}

/// Accumulated counters of one pool device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceStats {
    /// What kind of backend the device wraps.
    pub class: BackendClass,
    /// Workload admitted but not yet completed (the virtual queue length).
    pub outstanding_workload: f64,
    /// Total workload ever booked.
    pub total_workload: f64,
    /// Partitions executed.
    pub partitions: u64,
    /// Modelled kernel cycles executed (0 for CPU devices — their cost
    /// model has no cycle notion; see `busy_sec`).
    pub cycles: u64,
    /// Modelled execution seconds under the device's own cost model — the
    /// cross-backend utilisation currency.
    pub busy_sec: f64,
    /// Execution attempts that failed on this device (transient, stalled,
    /// or permanent). Monotone.
    pub failures: u64,
    /// Corrupted outputs attributed to this device by the serving layer's
    /// cross-check. Monotone.
    pub corruptions: u64,
    /// Times this device entered quarantine. Monotone.
    pub quarantines: u64,
    /// Current recovery state.
    pub health: HealthState,
}

impl DeviceStats {
    fn new(class: BackendClass) -> Self {
        DeviceStats {
            class,
            outstanding_workload: 0.0,
            total_workload: 0.0,
            partitions: 0,
            cycles: 0,
            busy_sec: 0.0,
            failures: 0,
            corruptions: 0,
            quarantines: 0,
            health: HealthState::Healthy,
        }
    }

    /// Counters accumulated since `base` was captured — the rolling-window
    /// delta. Monotone counters subtract (exactly, on the integer fields);
    /// `outstanding_workload` and `health` are point-in-time and carried
    /// over from the current snapshot.
    pub fn delta(&self, base: &DeviceStats) -> DeviceStats {
        DeviceStats {
            class: self.class,
            outstanding_workload: self.outstanding_workload,
            total_workload: (self.total_workload - base.total_workload).max(0.0),
            partitions: self.partitions.saturating_sub(base.partitions),
            cycles: self.cycles.saturating_sub(base.cycles),
            busy_sec: (self.busy_sec - base.busy_sec).max(0.0),
            failures: self.failures.saturating_sub(base.failures),
            corruptions: self.corruptions.saturating_sub(base.corruptions),
            quarantines: self.quarantines.saturating_sub(base.quarantines),
            health: self.health,
        }
    }
}

struct Device {
    backend: Arc<dyn ExecutionBackend>,
    stats: DeviceStats,
    /// Per-device calibration: completed workload and the modelled seconds
    /// it cost, yielding the observed sec-per-workload rate.
    completed_workload: f64,
    completed_sec: f64,
    /// The backend's a-priori rate, used until the first completion.
    prior_sec_per_workload: f64,
    /// Failures since the last success (quarantine trigger).
    consecutive_failures: u32,
    /// Cross-check corruption strikes — see [`DevicePool::mark_suspect`].
    suspect_strikes: u32,
    /// Admission tick at which a quarantine expires into probation.
    quarantined_until: u64,
    /// Penalty doublings applied so far (capped).
    penalty_shift: u32,
}

impl Device {
    /// Observed (or prior) modelled seconds per unit of booked workload.
    fn sec_per_workload(&self) -> f64 {
        if self.completed_workload > 0.0 {
            self.completed_sec / self.completed_workload
        } else {
            self.prior_sec_per_workload
        }
    }

    /// Whether the dispatcher may book work onto this device.
    fn available(&self) -> bool {
        matches!(
            self.stats.health,
            HealthState::Healthy | HealthState::Probation
        )
    }
}

/// A pool of heterogeneous execution backends with
/// shortest-expected-completion dispatch and per-device health tracking.
pub struct DevicePool {
    devices: Vec<Device>,
    /// Admission tick counter: quarantine windows are measured in
    /// admissions, so penalties scale with traffic rather than wall time
    /// (the modelled devices have no wall of their own).
    tick: u64,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePool")
            .field("devices", &self.snapshot())
            .finish()
    }
}

impl DevicePool {
    /// Creates a pool over `backends`; an empty fleet is a typed
    /// [`ServeError::NoDevices`] (there is nothing to schedule onto).
    pub fn new(backends: Vec<Arc<dyn ExecutionBackend>>) -> Result<Self, ServeError> {
        if backends.is_empty() {
            return Err(ServeError::NoDevices);
        }
        let devices = backends
            .into_iter()
            .map(|backend| Device {
                stats: DeviceStats::new(backend.spec().class),
                prior_sec_per_workload: backend.prior_sec_per_workload().max(0.0),
                completed_workload: 0.0,
                completed_sec: 0.0,
                consecutive_failures: 0,
                suspect_strikes: 0,
                quarantined_until: 0,
                penalty_shift: 0,
                backend,
            })
            .collect();
        Ok(DevicePool { devices, tick: 0 })
    }

    /// Resolves a [`ServeConfig`](crate::ServeConfig)-style fleet:
    /// `cards` FPGA devices at `fast`'s spec plus one device per
    /// `extra` entry. A spec with a zero round budget is
    /// [`ServeError::Config`].
    pub fn build(
        fast: &FastConfig,
        cards: usize,
        extra: &[DeviceKind],
    ) -> Result<Self, ServeError> {
        validate(fast)?;
        let mut backends: Vec<Arc<dyn ExecutionBackend>> = (0..cards)
            .map(|_| Arc::new(FpgaBackend::from_config(fast)) as Arc<dyn ExecutionBackend>)
            .collect();
        for kind in extra {
            backends.push(resolve_backend(fast, kind)?);
        }
        Self::new(backends)
    }

    /// Number of devices (any health state).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Devices the dispatcher may currently book onto (healthy or on
    /// probation). Quarantines that would expire at the next admission
    /// tick are not counted — this is a point-in-time view.
    pub fn available(&self) -> usize {
        self.devices.iter().filter(|d| d.available()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The smallest FPGA BRAM across the fleet, if any FPGA device exists —
    /// the partition-size constraint a shared partition stream must respect
    /// (CPU devices accept any partition).
    pub fn min_fpga_bram(&self) -> Option<usize> {
        self.devices
            .iter()
            .map(|d| d.backend.spec())
            .filter(|s| s.class == BackendClass::Fpga)
            .map(|s| s.bram_bytes)
            .min()
    }

    /// Books `workload` onto the *available* device with the shortest
    /// expected completion — minimum
    /// `(outstanding + workload) · sec_per_workload` under each device's
    /// own observed (or prior) rate; ties → lowest index. Returns the
    /// device id, the modelled seconds already queued ahead of this
    /// partition on it, and the backend to execute on (so the kernel runs
    /// outside the pool lock). When every device is quarantined or
    /// evicted, returns the typed [`ServeError::Degraded`].
    ///
    /// `avoid` is the failover path: a retried partition prefers any
    /// available device **other than** the one that just failed it. When
    /// `avoid` is the *only* available device it is used anyway (a lone
    /// survivor still beats shedding the session).
    pub fn admit(
        &mut self,
        workload: f64,
        avoid: Option<usize>,
    ) -> Result<(usize, f64, Arc<dyn ExecutionBackend>), ServeError> {
        self.tick += 1;
        // Expired quarantines re-admit on probation.
        for (i, d) in self.devices.iter_mut().enumerate() {
            if d.stats.health == HealthState::Quarantined && self.tick >= d.quarantined_until {
                d.stats.health = HealthState::Probation;
                obs::event_on(
                    obs::device_track(i),
                    "probation",
                    "health",
                    vec![("device", obs::ArgValue::U64(i as u64))],
                );
            }
        }
        let pick = |pool: &Self, skip: Option<usize>| {
            (0..pool.devices.len())
                .filter(|&i| pool.devices[i].available() && Some(i) != skip)
                .min_by(|&a, &b| {
                    let ca = (pool.devices[a].stats.outstanding_workload + workload)
                        * pool.devices[a].sec_per_workload();
                    let cb = (pool.devices[b].stats.outstanding_workload + workload)
                        * pool.devices[b].sec_per_workload();
                    ca.total_cmp(&cb)
                })
        };
        let device = pick(self, avoid)
            .or_else(|| pick(self, None))
            .ok_or(ServeError::Degraded)?;
        let d = &mut self.devices[device];
        let queued_sec = d.stats.outstanding_workload * d.sec_per_workload();
        d.stats.outstanding_workload += workload;
        d.stats.total_workload += workload;
        Ok((device, queued_sec, Arc::clone(&d.backend)))
    }

    /// Completes a partition previously admitted to `device`: releases its
    /// workload booking, records the modelled seconds/cycles it actually
    /// cost, and feeds the device's sec-per-workload calibration. A
    /// success also resets the failure streak and graduates a probationary
    /// device back to `Healthy`.
    pub fn complete(&mut self, device: usize, workload: f64, modeled_sec: f64, cycles: u64) {
        let d = &mut self.devices[device];
        d.stats.outstanding_workload = (d.stats.outstanding_workload - workload).max(0.0);
        d.stats.partitions += 1;
        d.stats.cycles += cycles;
        d.stats.busy_sec += modeled_sec;
        d.completed_workload += workload;
        d.completed_sec += modeled_sec;
        d.consecutive_failures = 0;
        if d.stats.health == HealthState::Probation {
            d.stats.health = HealthState::Healthy;
            obs::event_on(
                obs::device_track(device),
                "recovered",
                "health",
                vec![("device", obs::ArgValue::U64(device as u64))],
            );
        }
    }

    /// Records a failed execution attempt on `device`: the booking is
    /// released **without** feeding the sec-per-workload calibration
    /// (failed work teaches nothing about the device's true rate), the
    /// failure counter bumps, and the health state machine advances —
    /// permanent errors evict, `QUARANTINE_THRESHOLD` consecutive
    /// failures (or any failure on probation) quarantine with a doubling
    /// penalty window.
    pub fn fail(&mut self, device: usize, workload: f64, permanent: bool) {
        let d = &mut self.devices[device];
        d.stats.outstanding_workload = (d.stats.outstanding_workload - workload).max(0.0);
        d.stats.failures += 1;
        self.note_failure(device, permanent);
    }

    /// Attributes a cross-check-caught corrupted output to `device`. The
    /// partition *completed* (its booking was already released by
    /// [`complete`](Self::complete)) but the answer was wrong — corrupt
    /// results quarantine at the same `QUARANTINE_THRESHOLD`, on a strike
    /// counter of their own: an interleaved successful completion does
    /// **not** clear corruption strikes, because a completion cannot prove
    /// the output was honest (that's exactly what the cross-check is for).
    /// Strikes reset on quarantine.
    pub fn mark_suspect(&mut self, device: usize) {
        let d = &mut self.devices[device];
        d.stats.corruptions += 1;
        d.suspect_strikes += 1;
        obs::event_on(
            obs::device_track(device),
            "corruption_strike",
            "health",
            vec![
                ("device", obs::ArgValue::U64(device as u64)),
                ("strikes", obs::ArgValue::U64(d.suspect_strikes as u64)),
            ],
        );
        let quarantine = match d.stats.health {
            // One strike on probation: straight back to quarantine.
            HealthState::Probation => true,
            HealthState::Healthy => d.suspect_strikes >= QUARANTINE_THRESHOLD,
            HealthState::Quarantined | HealthState::Evicted => false,
        };
        if quarantine {
            self.quarantine(device);
        }
    }

    fn note_failure(&mut self, device: usize, permanent: bool) {
        let d = &mut self.devices[device];
        d.consecutive_failures += 1;
        if permanent {
            d.stats.health = HealthState::Evicted;
            obs::counter(
                "obs_device_evictions_total",
                "Devices permanently evicted from the pool",
            )
            .inc();
            obs::event_on(
                obs::device_track(device),
                "evicted",
                "health",
                vec![("device", obs::ArgValue::U64(device as u64))],
            );
            return;
        }
        let quarantine = match d.stats.health {
            // One strike on probation: straight back to quarantine.
            HealthState::Probation => true,
            HealthState::Healthy => d.consecutive_failures >= QUARANTINE_THRESHOLD,
            HealthState::Quarantined | HealthState::Evicted => false,
        };
        if quarantine {
            self.quarantine(device);
        }
    }

    /// The Healthy/Probation → Quarantined transition: penalty window in
    /// admission ticks doubles per quarantine (capped), both strike
    /// counters reset so the probation verdict starts clean.
    fn quarantine(&mut self, device: usize) {
        let tick = self.tick;
        let d = &mut self.devices[device];
        d.stats.health = HealthState::Quarantined;
        d.stats.quarantines += 1;
        d.quarantined_until = tick + (QUARANTINE_BASE_TICKS << d.penalty_shift);
        d.penalty_shift = (d.penalty_shift + 1).min(QUARANTINE_MAX_SHIFT);
        d.consecutive_failures = 0;
        d.suspect_strikes = 0;
        obs::counter("obs_quarantines_total", "Device quarantine entries").inc();
        obs::event_on(
            obs::device_track(device),
            "quarantine",
            "health",
            vec![
                ("device", obs::ArgValue::U64(device as u64)),
                ("entries", obs::ArgValue::U64(d.stats.quarantines)),
                ("until_tick", obs::ArgValue::U64(d.quarantined_until)),
            ],
        );
    }

    /// Per-device counters.
    pub fn snapshot(&self) -> Vec<DeviceStats> {
        self.devices.iter().map(|d| d.stats).collect()
    }
}

/// A configuration no card can run (`N_o = 0`) as a typed refusal.
fn validate(fast: &FastConfig) -> Result<(), ServeError> {
    fast.validate()
        .map_err(|e| ServeError::Config(e.to_string()))
}

/// Resolves one [`DeviceKind`] to its backend; [`DeviceKind::Faulty`]
/// recurses on the wrapped kind and wraps the result in a
/// [`FaultInjector`].
fn resolve_backend(
    fast: &FastConfig,
    kind: &DeviceKind,
) -> Result<Arc<dyn ExecutionBackend>, ServeError> {
    Ok(match kind {
        DeviceKind::Fpga(spec) => {
            let mut per_card = fast.clone();
            per_card.spec = spec.clone();
            validate(&per_card)?;
            Arc::new(FpgaBackend::from_config(&per_card))
        }
        DeviceKind::Cpu { threads } => Arc::new(CpuBackend::new(*threads)),
        DeviceKind::Faulty { inner, plan } => Arc::new(FaultInjector::new(
            resolve_backend(fast, inner)?,
            plan.clone(),
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast::Variant;

    fn fpga_pool(cards: usize) -> DevicePool {
        DevicePool::build(&FastConfig::test_small(Variant::Sep), cards, &[]).unwrap()
    }

    /// `admit` on an all-healthy pool (every test fleet starts healthy).
    fn admit(pool: &mut DevicePool, workload: f64) -> (usize, f64, Arc<dyn ExecutionBackend>) {
        pool.admit(workload, None).expect("healthy pool admits")
    }

    #[test]
    fn admit_picks_least_loaded_with_low_index_ties() {
        // Homogeneous fleet: equal rates divide out and dispatch reduces
        // to the paper's minimum-outstanding-workload rule.
        let mut pool = fpga_pool(3);
        assert_eq!(admit(&mut pool, 10.0).0, 0, "all idle: lowest index");
        assert_eq!(admit(&mut pool, 1.0).0, 1);
        assert_eq!(admit(&mut pool, 1.0).0, 2);
        // Device 1 and 2 tie at 1.0 < 10.0: lowest index wins.
        assert_eq!(admit(&mut pool, 5.0).0, 1);
        assert_eq!(admit(&mut pool, 0.5).0, 2);
    }

    #[test]
    fn admit_estimates_seconds_queued_ahead() {
        let mut pool = fpga_pool(1);
        let (d, queued, _) = admit(&mut pool, 1.0);
        assert!(queued >= 0.0, "idle device: nothing queued ahead");
        pool.complete(d, 1.0, 0.5, 500); // calibration: 0.5 s per unit workload
        let (_, queued, _) = admit(&mut pool, 2.0);
        assert_eq!(queued, 0.0, "idle device: nothing queued ahead");
        let (_, queued, _) = admit(&mut pool, 1.0);
        assert!((queued - 1.0).abs() < 1e-12, "2.0 workload ahead at 0.5 s/unit: {queued}");
        let (_, queued, _) = admit(&mut pool, 1.0);
        assert!((queued - 1.5).abs() < 1e-12, "{queued}");
    }

    #[test]
    fn calibrated_rates_steer_toward_the_faster_device() {
        // Two devices; device 0 calibrates 10× slower than device 1. The
        // scheduler should keep device 1 ~10× busier.
        let mut pool = fpga_pool(2);
        pool.complete(0, 1.0, 1.0, 0);
        pool.complete(1, 1.0, 0.1, 0);
        let placed: Vec<usize> = (0..22).map(|_| admit(&mut pool, 1.0).0).collect();
        let fast_count = placed.iter().filter(|&&d| d == 1).count();
        assert!(
            fast_count >= 18,
            "fast device should absorb ~10/11 of the stream: {placed:?}"
        );
    }

    #[test]
    fn complete_releases_booking_and_records_costs() {
        let mut pool = fpga_pool(2);
        let (d, _, _) = admit(&mut pool, 7.0);
        pool.complete(d, 7.0, 0.25, 1000);
        let snap = pool.snapshot();
        assert_eq!(snap[d].outstanding_workload, 0.0);
        assert_eq!(snap[d].partitions, 1);
        assert_eq!(snap[d].cycles, 1000);
        assert_eq!(snap[d].busy_sec, 0.25);
        // Calibrate the other device to the same rate: with the booking
        // released and rates equal, dispatch ties back to lowest index.
        pool.complete(1 - d, 7.0, 0.25, 0);
        assert_eq!(admit(&mut pool, 1.0).0, 0);
    }

    #[test]
    fn failed_bookings_release_without_calibrating() {
        let mut pool = fpga_pool(2);
        let (d, _, _) = admit(&mut pool, 5.0);
        let rate_before = pool.snapshot()[d].busy_sec;
        pool.fail(d, 5.0, false);
        let snap = pool.snapshot();
        assert_eq!(snap[d].outstanding_workload, 0.0, "booking released");
        assert_eq!(snap[d].failures, 1);
        assert_eq!(snap[d].partitions, 0, "a failure is not a completion");
        assert_eq!(snap[d].busy_sec, rate_before, "no cost recorded");
        assert_eq!(snap[d].health, HealthState::Healthy, "one strike is not out");
        // A success resets the streak: 2 failures + success + 2 failures
        // never reaches the threshold of 3 consecutive.
        pool.fail(d, 0.0, false);
        pool.complete(d, 1.0, 0.1, 0);
        pool.fail(d, 0.0, false);
        pool.fail(d, 0.0, false);
        assert_eq!(pool.snapshot()[d].health, HealthState::Healthy);
        assert_eq!(pool.snapshot()[d].quarantines, 0);
    }

    #[test]
    fn quarantine_probation_and_requarantine() {
        let mut pool = fpga_pool(2);
        // Three consecutive failures quarantine device 0.
        for _ in 0..QUARANTINE_THRESHOLD {
            pool.fail(0, 0.0, false);
        }
        assert_eq!(pool.snapshot()[0].health, HealthState::Quarantined);
        assert_eq!(pool.snapshot()[0].quarantines, 1);
        // While quarantined, dispatch avoids it entirely.
        for _ in 0..QUARANTINE_BASE_TICKS - 1 {
            assert_eq!(admit(&mut pool, 1.0).0, 1);
        }
        // The penalty window expires: re-admitted on probation, and with
        // device 1 loaded up it wins dispatch again.
        let (d, _, _) = admit(&mut pool, 1.0);
        assert_eq!(d, 0, "expired quarantine re-admits on probation");
        assert_eq!(pool.snapshot()[0].health, HealthState::Probation);
        // One probation failure: straight back to quarantine, penalty
        // doubled (base << 1).
        pool.fail(0, 1.0, false);
        assert_eq!(pool.snapshot()[0].health, HealthState::Quarantined);
        assert_eq!(pool.snapshot()[0].quarantines, 2);
        for _ in 0..2 * QUARANTINE_BASE_TICKS - 1 {
            assert_eq!(admit(&mut pool, 1.0).0, 1, "doubled penalty window");
        }
        let (d, _, _) = admit(&mut pool, 1.0);
        assert_eq!(d, 0);
        // A probation success graduates back to healthy.
        pool.complete(0, 1.0, 0.1, 0);
        assert_eq!(pool.snapshot()[0].health, HealthState::Healthy);
    }

    #[test]
    fn permanent_failure_evicts_for_good() {
        let mut pool = fpga_pool(2);
        pool.fail(0, 0.0, true);
        assert_eq!(pool.snapshot()[0].health, HealthState::Evicted);
        assert_eq!(pool.available(), 1);
        for _ in 0..1000 {
            assert_eq!(admit(&mut pool, 1.0).0, 1, "evicted devices never return");
        }
        // The whole fleet dead: admission is the typed degraded error.
        pool.fail(1, 0.0, true);
        match pool.admit(1.0, None) {
            Err(e) => assert_eq!(e, ServeError::Degraded),
            Ok(_) => panic!("a fully evicted pool must not admit"),
        }
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn admit_avoiding_reroutes_unless_lone_survivor() {
        let mut pool = fpga_pool(2);
        // Load device 1 heavily so plain dispatch would prefer 0.
        let (d, _, _) = admit(&mut pool, 100.0);
        assert_eq!(d, 0);
        // Avoiding 0 lands on 1 even though 0 is cheaper…
        let (d, _, _) = pool.admit(1.0, Some(0)).unwrap();
        assert_eq!(d, 1, "failover avoids the failed device");
        // …but a lone survivor is used anyway.
        pool.fail(1, 1.0, true);
        let (d, _, _) = pool.admit(1.0, Some(0)).unwrap();
        assert_eq!(d, 0, "the only available device beats shedding");
    }

    #[test]
    fn suspect_corruption_counts_toward_quarantine() {
        let mut pool = fpga_pool(2);
        for _ in 0..QUARANTINE_THRESHOLD {
            pool.mark_suspect(0);
        }
        let snap = pool.snapshot();
        assert_eq!(snap[0].corruptions, QUARANTINE_THRESHOLD as u64);
        assert_eq!(snap[0].failures, 0, "corruptions are not failed attempts");
        assert_eq!(snap[0].health, HealthState::Quarantined);
    }

    #[test]
    fn faulty_device_kind_resolves_through_the_wrapper() {
        let fast = FastConfig::test_small(Variant::Sep);
        let pool = DevicePool::build(
            &fast,
            0,
            &[DeviceKind::Faulty {
                inner: Box::new(DeviceKind::Cpu { threads: 4 }),
                plan: fast::FaultPlan::transient(1, 0.5),
            }],
        )
        .unwrap();
        // The wrapper delegates spec and class — scheduling sees a CPU.
        assert_eq!(pool.snapshot()[0].class, BackendClass::Cpu);
        assert_eq!(pool.min_fpga_bram(), None);
    }

    #[test]
    fn heterogeneous_pool_exposes_classes_and_bram_floor() {
        let fast = FastConfig::test_small(Variant::Sep);
        let mut small_spec = fast.spec.clone();
        small_spec.bram_bytes /= 2;
        let pool = DevicePool::build(
            &fast,
            1,
            &[DeviceKind::Fpga(small_spec.clone()), DeviceKind::Cpu { threads: 8 }],
        )
        .unwrap();
        assert_eq!(pool.len(), 3);
        let classes: Vec<BackendClass> = pool.snapshot().iter().map(|d| d.class).collect();
        assert_eq!(
            classes,
            vec![BackendClass::Fpga, BackendClass::Fpga, BackendClass::Cpu]
        );
        assert_eq!(pool.min_fpga_bram(), Some(small_spec.bram_bytes));
        // A CPU-only pool has no FPGA BRAM floor.
        let cpu_only = DevicePool::build(&fast, 0, &[DeviceKind::Cpu { threads: 4 }]).unwrap();
        assert_eq!(cpu_only.min_fpga_bram(), None);
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        let fast = FastConfig::test_small(Variant::Sep);
        let err = DevicePool::build(&fast, 0, &[]).unwrap_err();
        assert_eq!(err, ServeError::NoDevices);
        assert!(err.to_string().contains("no devices"), "{err}");
    }
}
