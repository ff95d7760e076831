//! # serve — multi-tenant concurrent query serving over the FAST pipeline
//!
//! Everything below `serve` executes exactly one query per call. This crate
//! is the layer the ROADMAP's north star asks for: a [`FastService`] owns a
//! registry of **tenants** — each a loaded data graph with its own epoch,
//! fair-share quota, and cache partition — plus a heterogeneous pool
//! of execution backends (emulated FPGA cards and CPU fallback shares) and
//! serves a *stream* of concurrent query submissions, amortising
//! preparation across repeats and keeping the devices saturated:
//!
//! * [`tenant`] — [`TenantId`]/[`TenantConfig`] and the weighted
//!   round-robin session table: under saturation each backlogged tenant is
//!   served in proportion to its quota (deficit round-robin), replacing the
//!   old global blocking semaphore as the cross-tenant scheduling point;
//! * [`cache`] — **one cache**, keyed on [`cst::PlanKey`] (query
//!   fingerprint × tenant graph epoch × build options) and partitioned
//!   per tenant: a size-aware LRU ([`CstCache`]) holding each build's
//!   session plan and partition stream under a **byte budget**
//!   (`Cst::payload_bytes`), so a warm serve is pure dispatch + kernel —
//!   zero derivation, zero build work — and one tenant's entries can never
//!   collide with another's;
//! * [`devices`] — a [`DevicePool`] multiplexing CST partitions across
//!   heterogeneous backends by **shortest expected completion in modelled
//!   seconds**: each backend (FPGA card under the cycle model, CPU share
//!   under the search-cost model) is priced by its own observed rate, so
//!   the scheduler steers work toward whatever drains fastest (the
//!   multi-FPGA regime of Section VII-E, generalised) — with per-device
//!   [`HealthState`] tracking: consecutive failures quarantine a device
//!   for a doubling penalty window, an expired quarantine re-admits on
//!   probation, permanent errors evict for good;
//! * [`service`] (public API) over `executor` (the task-driven session
//!   lifecycle), [`resilience`] (retry, failover, cross-check) and
//!   `reporting` (metrics state, report assembly) — an **event-driven
//!   session executor**: `submit` is a non-blocking enqueue, and a small
//!   fixed pool of executor threads drives each admitted session with
//!   `Start`/`Resume`/`Exec` tasks on work-stealing deques — one
//!   synchronous backend call per partition, the same task retiring the
//!   session or queueing its next partition — so outstanding sessions
//!   cost slab entries rather than OS threads; **bounded execution
//!   permits** cap concurrent execution
//!   ([`FastService::try_submit`] returns the typed
//!   [`ServeError::Saturated`](service::ServeError) instead of queueing),
//!   the decoupled prepare/execute phases (`fast::prepare_partitions`)
//!   run as executor tasks, tenants restore zero-copy from mapped
//!   snapshots ([`FastService::load_tenant_snapshot`] via
//!   `graph_core::load_snapshot_mapped`), [`SessionHandle`]s stream
//!   per-partition results back as backends drain, shutdown drains
//!   in-flight sessions and sheds queued ones with the typed
//!   [`ServeError::ShuttingDown`](service::ServeError), and execution is
//!   **fault-tolerant**
//!   ([`FaultPolicy`]): failed partitions retry immediately, a bounded
//!   number of times, rerouted to the shortest-expected-completion
//!   healthy device, corrupted outputs are caught by cross-checking a second
//!   execution, sessions past their deadline
//!   ([`ServeConfig::deadline`](service::ServeConfig) /
//!   [`TenantConfig::deadline`]) are shed with a typed error, and a fully
//!   quarantined fleet degrades to an emergency CPU share;
//! * [`metrics`] — per-query, per-tenant, and service-level metrics
//!   ([`ServeReport`], [`TenantSummary`]): sustained QPS, the measured
//!   latency and queue-wait distributions, the modelled device queue
//!   beside them, cache hit rate, per-device utilisation. Each tenant
//!   keeps the one ledger its sessions fold into, and the service totals
//!   merge the tenants' ledgers. Distributions are streaming
//!   [`obs::Histogram`]s, so [`FastService::report_window`] serves
//!   rolling-window deltas whose integer counters reconcile bit-exactly
//!   against the lifetime report, and [`FastService::prometheus_text`]
//!   renders a text exposition.
//!
//! # Observability
//!
//! The serving path is instrumented through the [`obs`] crate: per-session
//! trace spans (`session ⊇ build ⊇ execute`, plus `queue_wait`/`plan`),
//! instant events for faults (`retry`, `failover`, `deadline_shed`,
//! `degraded`) and device health transitions (`quarantine`, `probation`,
//! `recovered`, `evicted`, `corruption_strike`), and registry counters for
//! the devices and backends (quarantines, evictions, partitions per
//! backend class); the session counts are rendered from the report as
//! `serve_*` by [`FastService::prometheus_text`]. Tracing is off unless
//! [`obs::enable`] is called; when off, every hook is a single relaxed
//! atomic load. See DESIGN.md §10 and `examples/observability.rs`.
//!
//! # Determinism
//!
//! Every per-query *result* (embedding count, partition sequence,
//! per-partition counts) is a pure function of `(q, g, FastConfig)` —
//! independent of executor count, fleet composition (CPU-only, FPGA-only,
//! mixed), admission interleaving, and cache hits (a cached entry is
//! bit-identical to what a cold run would compute). Only *placement
//! and timing* vary with concurrency. The property tests in
//! `tests/prop_serve.rs`, `tests/prop_sessions.rs`, and
//! `tests/prop_backend.rs` enforce this.
//!
//! # Quickstart
//!
//! ```
//! use graph_core::{benchmark_query, generators::{generate_ldbc, LdbcParams}};
//! use serve::{FastService, ServeConfig, TenantConfig};
//!
//! let g = generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42);
//! let service = FastService::new(g, ServeConfig::default());
//! // A second tenant with triple the fair-share quota and its own graph.
//! let g2 = generate_ldbc(&LdbcParams::with_scale_factor(0.05), 7);
//! let t2 = service
//!     .add_tenant(g2, TenantConfig { quota: 3, ..TenantConfig::default() })
//!     .unwrap();
//! let a = service.submit(benchmark_query(0)); // default tenant
//! let b = service.submit(benchmark_query(0)); // may be served from cache
//! let c = service.submit_for(t2, benchmark_query(0)).unwrap();
//! let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
//! assert_eq!(ra.embeddings, rb.embeddings);
//! assert_eq!(c.wait().unwrap().tenant, t2);
//! let report = service.shutdown();
//! assert_eq!(report.completed, 3);
//! assert_eq!(report.tenants.len(), 2);
//! ```

pub mod cache;
pub mod devices;
mod executor;
mod mailbox;
pub mod metrics;
mod reporting;
pub mod resilience;
pub mod service;
pub mod tenant;

pub use cache::{CacheStats, CstCache};
pub use devices::{
    DeviceKind, DevicePool, DeviceStats, HealthState, QUARANTINE_BASE_TICKS, QUARANTINE_THRESHOLD,
};
pub use metrics::{ServeReport, TenantSummary, WindowInfo};
pub use service::{
    FastService, FaultPolicy, PartitionUpdate, QueryReport, ServeConfig, ServeError, SessionEvent,
    SessionHandle,
};
pub use tenant::{TenantConfig, TenantId, INITIAL_GRAPH_EPOCH};
