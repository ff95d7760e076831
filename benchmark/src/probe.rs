//! Layer probes: each layer measured from outside, by timing calls into its
//! public functions. No spans live inside the program yet, so the traced
//! run decomposes a query here, around the same calls `run_fast` and the
//! service make.

use crate::spans::SpanLog;
use crate::spec::{Fleet, PER_LAYER};
use crate::stats::median;
use cst::{build_cst_with_stats, estimate_workload, partition_cst, Cst};
use fast::{prepare_partitions, run_kernel, CollectMode, FastConfig, FpgaBackend, KernelPlan};
use graph_core::{path_based_order, select_root, BfsTree, Graph, MatchingOrder, QueryGraph};
use matching::{run_backtrack, ExtensionMethod, RunLimits};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer metric values by name. Names outside `PER_LAYER` are a bug.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        *self.0.entry(name).or_default() += v;
    }

    pub fn add_count(&mut self, name: &'static str, v: impl TryInto<u64>) {
        self.add(name, v.try_into().unwrap_or(u64::MAX) as f64);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn extend(&mut self, other: &Layers) {
        for (&name, &v) in &other.0 {
            self.add(name, v);
        }
    }

    /// Per metric, the median of its values across `rounds` (exact counts
    /// are the same in every round, so their median is that count).
    pub fn median_of(rounds: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for &name in rounds.iter().flat_map(|r| r.0.keys()) {
            if !out.0.contains_key(name) {
                let values: Vec<f64> = rounds.iter().map(|r| r.get(name)).collect();
                out.0.insert(name, median(&values));
            }
        }
        out
    }
}

/// One query through the probes: what to weight its times by, where its
/// spans and costs go.
pub struct Probe<'a> {
    pub q: &'a QueryGraph,
    pub g: &'a Graph,
    pub config: &'a FastConfig,
    /// Share of the workload's operations that are this query. Times are
    /// added weighted (seconds per operation of the mix); work counts are
    /// added unweighted, so they stay integers that repeat exactly.
    pub weight: f64,
    /// Operation id of the spans.
    pub op: u64,
    pub log: &'a mut SpanLog,
    pub out: &'a mut Layers,
}

/// What the execution layer found and how long it took, unweighted.
#[derive(Debug, Default, Clone, Copy)]
pub struct Executed {
    pub embeddings: u64,
    pub seconds: f64,
    /// Partial embeddings generated (CPU fleet only).
    pub partials: u64,
}

impl Probe<'_> {
    fn timed<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.log.timed(span, self.op, f)
    }

    fn select(&mut self, report: bool) -> (BfsTree, MatchingOrder) {
        let (q, g) = (self.q, self.g);
        let (out, s) = self.timed("graph_core.order.select", || {
            let tree = BfsTree::new(q, select_root(q, g));
            let order = path_based_order(q, &tree, g);
            (tree, order)
        });
        if report {
            self.out.add("graph_core.order.select_s", s * self.weight);
        }
        out
    }

    fn estimate<'c>(&mut self, parts: impl Iterator<Item = &'c Cst>, tree: &BfsTree) -> f64 {
        self.timed("cst.workload.estimate", || {
            for part in parts {
                black_box(estimate_workload(part, tree).total);
            }
        })
        .1
    }

    /// Runs every partition through the fleet's execution layer: the
    /// emulated kernel (`KernelPlan::new` + `run_kernel`) or the CPU
    /// share's `run_backtrack`.
    fn execute<'c>(
        &mut self,
        fleet: Fleet,
        tree: &BfsTree,
        order: &MatchingOrder,
        parts: impl Iterator<Item = &'c Cst>,
    ) -> Result<Executed, String> {
        let (q, g, config) = (self.q, self.g, self.config);
        let mut done = Executed::default();
        match fleet {
            Fleet::Fpga => {
                let backend = FpgaBackend::from_config(config);
                let (plan, plan_s) =
                    self.timed("fast.plan.new", || KernelPlan::new(q, order, tree));
                let plan = plan.map_err(|e| e.to_string())?;
                done.seconds = plan_s;
                let mut counts = fpga_sim::WorkloadCounts::default();
                let (mut rounds, mut cycles) = (0, 0);
                for part in parts {
                    let (run, s) = self.timed("fast.kernel.run", || {
                        run_kernel(part, &plan, config.spec.no, CollectMode::CountOnly)
                    });
                    done.seconds += s;
                    done.embeddings += run.embeddings;
                    counts.n += run.counts.n;
                    counts.m += run.counts.m;
                    rounds += run.rounds;
                    cycles += backend.price_cycles(run.counts);
                }
                self.out.add_count("fast.kernel.n", counts.n);
                self.out.add_count("fast.kernel.m", counts.m);
                self.out.add_count("fast.kernel.rounds", rounds);
                self.out.add_count("fast.kernel.cycles", cycles);
                self.out
                    .add("fast.kernel.run_s", done.seconds * self.weight);
            }
            Fleet::Cpu => {
                let mut intersected = 0;
                for part in parts {
                    let ((_, stats), s) = self.timed("matching.engine.backtrack", || {
                        let limits = RunLimits::unlimited();
                        run_backtrack(q, g, part, order, ExtensionMethod::Intersection, &limits)
                    });
                    done.seconds += s;
                    done.embeddings += stats.embeddings;
                    done.partials += stats.partials_generated;
                    intersected += stats.intersection_elements;
                }
                self.out
                    .add_count("matching.engine.intersection_elements", intersected);
                self.out
                    .add("matching.engine.backtrack_s", done.seconds * self.weight);
            }
        }
        Ok(done)
    }

    /// The one-shot flow of `run_fast` at `host_threads = 1`, one layer
    /// call at a time: order, `build_cst_with_stats`, `partition_cst`,
    /// `estimate_workload`, then the kernel over **every** partition (no
    /// CPU share — that is read from `FastReport`).
    pub fn sequential(mut self) -> Result<Executed, String> {
        let (q, g, config, w) = (self.q, self.g, self.config, self.weight);
        let (tree, order) = self.select(true);
        let ((cst, build), build_s) = self.timed("cst.construct.build", || {
            build_cst_with_stats(q, g, &tree, config.cst_options)
        });
        let ((parts, split), partition_s) = self.timed("cst.partition.partition", || {
            partition_cst(
                &cst,
                &order,
                &config.partition_config(q.vertex_count(), &cst),
            )
        });
        let estimate_s = self.estimate(parts.iter(), &tree);
        let out = &mut *self.out;
        out.add("cst.construct.build_s", build_s * w);
        out.add_count("cst.construct.adjacency_entries", build.adjacency_entries);
        out.add_count("cst.construct.topdown_entries", build.topdown_entries);
        out.add_count("cst.construct.cst_bytes", cst.size_bytes());
        out.add("cst.partition.partition_s", partition_s * w);
        out.add_count("cst.partition.partitions", split.partitions);
        out.add_count("cst.partition.forced", split.forced);
        out.add("cst.workload.estimate_s", estimate_s * w);
        self.execute(Fleet::Fpga, &tree, &order, parts.iter())
    }

    /// The service's per-session flow: order, then `prepare_partitions`
    /// (the sharded pipeline the service calls; its build/partition split
    /// is read from `PreparePhase`), then the fleet's execution layer over
    /// every partition. `host_layers` is false on warm workloads, whose
    /// sessions replay cached partitions: the preparation still runs here
    /// (the probe needs the partitions) but is not reported.
    pub fn prepared(mut self, fleet: Fleet, host_layers: bool) -> Result<Executed, String> {
        let (q, g, w) = (self.q, self.g, self.weight);
        let (tree, order) = self.select(host_layers);
        let capture = FastConfig {
            capture_prepared: true,
            ..self.config.clone()
        };
        let mut parts = Vec::new();
        let (phase, _) = self.timed("fast.host.prepare_partitions", || {
            prepare_partitions(q, g, &capture, &tree, &order, &mut |job| {
                parts.push(job.cst)
            })
        });
        if host_layers {
            let estimate_s = self.estimate(parts.iter().map(|p| &**p), &tree);
            let shard_bytes: usize = phase
                .prepared
                .iter()
                .flat_map(|p| &p.shard_csts)
                .map(|c| c.size_bytes())
                .sum();
            // `partition_time` includes the per-partition workload estimate.
            let partition_s = (phase.partition_time.as_secs_f64() - estimate_s).max(0.0);
            let out = &mut *self.out;
            out.add("cst.construct.build_s", phase.build_wall.as_secs_f64() * w);
            out.add_count("cst.construct.adjacency_entries", phase.build_entries);
            out.add_count("cst.construct.topdown_entries", phase.build_topdown_entries);
            out.add_count("cst.construct.cst_bytes", shard_bytes);
            out.add("cst.partition.partition_s", partition_s * w);
            out.add_count("cst.partition.partitions", phase.partitions);
            out.add_count("cst.partition.forced", phase.forced);
            out.add("cst.workload.estimate_s", estimate_s * w);
        }
        self.execute(fleet, &tree, &order, parts.iter().map(|p| &**p))
    }
}
