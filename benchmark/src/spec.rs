//! The benchmark's fixed vocabulary: workload names, metric names with
//! units and regression bounds, the pinned device, and the serving mix.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

use fast::{FastConfig, ShardPlanner, Variant};
use fpga_sim::FpgaSpec;
use graph_core::generators::random_labelled_graph;
use graph_core::{benchmark_query, DatasetId, Graph, Label, QueryGraph};
use serve::{DeviceKind, ServeConfig};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer only: a work count or modelled value that must repeat
    /// bit-identically between two runs of the same commit and seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with `obs` tracing off.
///
/// The time metrics are raw figures (completions ÷ wall, nearest-rank
/// percentiles over every operation) and carry the largest bound a metric
/// may have: over ten seeds of 20 s on the shared reference box their
/// interquartile spread is 0.04–0.24 of the median, so a tighter bound
/// would sit inside the noise. `VmHWM` spreads by at most 0.017.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_qps", "queries/s", Higher, 0.25),
    e2e("latency_p50_s", "s", Lower, 0.25),
    e2e("latency_p95_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single layers, from the traced run. `sim_s` marks modelled (simulated
/// device) seconds, which are work counts times constants and never stand
/// in for host wall time.
pub const PER_LAYER: [MetricDef; 65] = [
    layer("graph_core.generators.generate_s", "s", Lower),
    layer("graph_core.snapshot.save_s", "s", Lower),
    layer("graph_core.snapshot.load_s", "s", Lower),
    layer("graph_core.snapshot.map_s", "s", Lower),
    exact("graph_core.snapshot.bytes", "bytes"),
    layer("graph_core.order.select_s", "s", Lower),
    layer("cst.construct.build_s", "s", Lower),
    exact("cst.construct.adjacency_entries", "count"),
    exact("cst.construct.topdown_entries", "count"),
    exact("cst.construct.cst_bytes", "bytes"),
    layer("cst.partition.partition_s", "s", Lower),
    exact("cst.partition.partitions", "count"),
    exact("cst.partition.forced", "count"),
    layer("cst.workload.estimate_s", "s", Lower),
    layer("cst.enumerate.cpu_share_s", "s", Lower),
    exact("fast.host.cpu_partitions", "count"),
    exact("fast.host.fpga_partitions", "count"),
    exact("fast.host.stolen", "count"),
    layer("fast.kernel.run_s", "s", Lower),
    layer("fast.kernel.embeddings_per_s", "1/s", Higher),
    exact("fast.kernel.n", "count"),
    exact("fast.kernel.m", "count"),
    exact("fast.kernel.rounds", "count"),
    exact("fast.kernel.cycles", "count"),
    layer("fast.host.prepare_wall_s", "s", Lower),
    layer("fast.host.self_s", "s", Lower),
    layer("fast.host.q0_wall_s", "s", Lower),
    layer("fast.host.q1_wall_s", "s", Lower),
    layer("fast.host.q2_wall_s", "s", Lower),
    layer("fast.host.q3_wall_s", "s", Lower),
    layer("fast.host.q4_wall_s", "s", Lower),
    layer("fast.host.q5_wall_s", "s", Lower),
    layer("fast.host.q6_wall_s", "s", Lower),
    layer("fast.host.q7_wall_s", "s", Lower),
    layer("fast.host.q8_wall_s", "s", Lower),
    exact("fpga_sim.cycles.kernel_s", "sim_s"),
    exact("fpga_sim.cycles.transfer_s", "sim_s"),
    exact("fpga_sim.cycles.transfer_bytes", "bytes"),
    exact("modelled_total_s", "sim_s"),
    layer("cst.planner.plan_p50_s", "s", Lower),
    layer("cst.planner.plan_share", "ratio", Lower),
    layer("cst.pipeline.build_p50_s", "s", Lower),
    layer("cst.pipeline.shards_mean", "count", Lower),
    layer("cst.pipeline.seeded_share", "ratio", Higher),
    layer("matching.engine.backtrack_s", "s", Lower),
    layer("matching.engine.partials_per_s", "1/s", Higher),
    exact("matching.engine.intersection_elements", "count"),
    layer("serve.service.queue_wait_p50_s", "s", Lower),
    layer("serve.service.queue_wait_p95_s", "s", Lower),
    layer("serve.service.service_time_p50_s", "s", Lower),
    layer("serve.service.self_p50_s", "s", Lower),
    layer("serve.service.submit_call_s", "s", Lower),
    layer("serve.service.max_in_flight", "count", Higher),
    layer("serve.cache.plan_hit_rate", "ratio", Higher),
    layer("serve.cache.cst_hit_rate", "ratio", Higher),
    layer("serve.cache.cst_resident_bytes", "bytes", Lower),
    layer("serve.cache.evictions", "count", Lower),
    layer("serve.devices.execute_p50_s", "s", Lower),
    layer("serve.devices.partitions", "count", Lower),
    layer("serve.devices.imbalance", "ratio", Lower),
    layer("serve.devices.queue_p95_s", "sim_s", Lower),
    layer("serve.devices.retries", "count", Lower),
    layer("obs.overhead_share", "ratio", Lower),
    layer("obs.spans", "count", Lower),
    layer("obs.dropped", "count", Lower),
];

/// The pinned device: an Alveo U200 with BRAM scaled with the dataset
/// ladder. Repeated here (not imported from `crates/bench::harness`) so an
/// edit there cannot shift the benchmark.
pub fn device_spec() -> FpgaSpec {
    FpgaSpec {
        bram_bytes: 2 << 20,
        no: 512,
        port_max: 2048,
        fifo_depth: 128,
        ..FpgaSpec::default()
    }
}

/// `snb_skew`: weight (out of 100) of `benchmark_query(i)` in the serving
/// mix — short cheap reads frequent, hub-heavy analytical patterns rare.
pub const SNB_SKEW: [u32; 9] = [8, 3, 6, 5, 30, 14, 10, 20, 4];

/// The `sessions_10k_tiny` query: a labelled triangle, small enough that
/// session machinery, not kernel work, dominates the wall.
pub fn triangle() -> QueryGraph {
    QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .expect("triangle is a valid query")
}

/// Outstanding sessions the `sessions_10k_tiny` driver holds.
pub const SESSION_WINDOW: usize = 10_000;

/// The graphs the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Dg(DatasetId),
    /// `random_labelled_graph(300, 0.04, 3, 7)`.
    Tiny,
}

impl Dataset {
    /// Key of this dataset's rows in `golden_counts.json`.
    pub fn golden_key(self) -> &'static str {
        match self {
            Dataset::Dg(id) => id.name(),
            Dataset::Tiny => "tiny",
        }
    }

    pub fn generate(self) -> Graph {
        match self {
            Dataset::Dg(id) => id.generate(),
            Dataset::Tiny => random_labelled_graph(300, 0.04, 3, 7),
        }
    }

    /// The queries run on this dataset, in golden-row order.
    pub fn queries(self) -> Vec<QueryGraph> {
        match self {
            Dataset::Dg(_) => (0..SNB_SKEW.len()).map(benchmark_query).collect(),
            Dataset::Tiny => vec![triangle()],
        }
    }
}

/// How a workload's operations are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Sequential `run_fast`, one caller, rounds of q0–q8.
    OneShot,
    /// Closed loop: this many clients, each `submit` then `wait`, no think
    /// time, queries drawn from `snb_skew`.
    ClosedLoop { clients: usize },
    /// One driver thread holding `SESSION_WINDOW` non-blocking submits.
    Window,
}

/// Which device fleet serves the sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Two emulated FPGA cards at the pinned spec.
    Fpga,
    /// No cards; two single-thread CPU shares.
    Cpu,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub dataset: Dataset,
    pub shape: Shape,
    pub fleet: Fleet,
    /// Both cache tiers on and primed during set-up.
    pub warm: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "oneshot_dg10",
        why: "The paper's flow: sequential run_fast of q0-q8 on DG10; construct, partition, kernel and CPU share do all the work, planner and serve are bypassed.",
        dataset: Dataset::Dg(DatasetId::Dg10),
        shape: Shape::OneShot,
        fleet: Fleet::Fpga,
        warm: false,
    },
    Workload {
        name: "serve_cold_dg03",
        why: "Closed loop, 2 clients, snb_skew on DG03, both cache tiers off: every session pays probe, plan, build and partition, so planner and pipeline dominate.",
        dataset: Dataset::Dg(DatasetId::Dg03),
        shape: Shape::ClosedLoop { clients: 2 },
        fleet: Fleet::Fpga,
        warm: false,
    },
    Workload {
        name: "serve_warm_dg03",
        why: "Same service, caches primed: sessions are dispatch plus emulated kernel only; planner, construct and partition do nothing (bypass for host-build changes).",
        dataset: Dataset::Dg(DatasetId::Dg03),
        shape: Shape::ClosedLoop { clients: 2 },
        fleet: Fleet::Fpga,
        warm: true,
    },
    Workload {
        name: "serve_warm_cpu_dg03",
        why: "Warm service on two CPU shares: execution goes through matching::run_backtrack instead of run_kernel, so engine changes show here and not on serve_warm_dg03.",
        dataset: Dataset::Dg(DatasetId::Dg03),
        shape: Shape::ClosedLoop { clients: 2 },
        fleet: Fleet::Cpu,
        warm: true,
    },
    Workload {
        name: "sessions_10k_tiny",
        why: "10,000 outstanding microsecond sessions on 2 executors: measures serve::service machinery (slab, deques, wakeups, permits) and RSS, invisible under DG03 kernels.",
        dataset: Dataset::Tiny,
        shape: Shape::Window,
        fleet: Fleet::Fpga,
        warm: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Share of the workload's operations that each of its dataset's
    /// queries makes up: uniform over q0–q8 for the one-shot rounds,
    /// `snb_skew` for the closed loops, the lone triangle for the window.
    pub fn shares(&self) -> Vec<f64> {
        match self.shape {
            Shape::OneShot => vec![1.0 / SNB_SKEW.len() as f64; SNB_SKEW.len()],
            Shape::ClosedLoop { .. } => SNB_SKEW.iter().map(|&w| f64::from(w) / 100.0).collect(),
            Shape::Window => vec![1.0],
        }
    }

    /// The per-call FAST configuration: FAST-SHARE δ = 0.1 on one host
    /// thread for the one-shot flow; FAST-SEP with the auto shard planner
    /// (the planner the caches amortise) for serving.
    pub fn fast_config(&self) -> FastConfig {
        let variant = match self.shape {
            Shape::OneShot => Variant::Share,
            _ => Variant::Sep,
        };
        let mut config = FastConfig {
            spec: device_spec(),
            ..FastConfig::for_variant(variant)
        };
        if self.shape != Shape::OneShot {
            config.shard_planner = ShardPlanner::Auto;
        }
        config
    }

    /// The service the serving workloads run against: 2 executors, 2
    /// devices, permits for every outstanding session.
    pub fn serve_config(&self) -> ServeConfig {
        let defaults = ServeConfig::default();
        let (devices, extra_devices) = match self.fleet {
            Fleet::Fpga => (2, Vec::new()),
            Fleet::Cpu => (0, vec![DeviceKind::Cpu { threads: 1 }; 2]),
        };
        ServeConfig {
            fast: self.fast_config(),
            devices,
            extra_devices,
            workers: 2,
            cache_capacity: if self.warm { 64 } else { 0 },
            cst_cache_bytes: if self.warm {
                defaults.cst_cache_bytes
            } else {
                0
            },
            max_in_flight: match self.shape {
                Shape::Window => SESSION_WINDOW,
                _ => 4,
            },
            ..defaults
        }
    }
}
