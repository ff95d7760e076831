//! `oneshot_dg10`: the paper's own flow — one caller running `run_fast`
//! over rounds of q0–q8, each round in an order dealt from the seed.

use crate::mix::MixStream;
use crate::probe::{Layers, Probe};
use crate::spans::SpanLog;
use crate::spec::Workload;
use crate::stats::median;
use crate::timed::{Timed, Traced};
use fast::{run_fast, FastReport};
use graph_core::Graph;
use std::time::{Duration, Instant};

const Q_WALL: [&str; 9] = [
    "fast.host.q0_wall_s",
    "fast.host.q1_wall_s",
    "fast.host.q2_wall_s",
    "fast.host.q3_wall_s",
    "fast.host.q4_wall_s",
    "fast.host.q5_wall_s",
    "fast.host.q6_wall_s",
    "fast.host.q7_wall_s",
    "fast.host.q8_wall_s",
];

/// Whole rounds of `run_fast` until `seconds` have passed. Whole rounds,
/// so throughput does not depend on which query the deadline cut off.
pub fn run(w: &Workload, g: &Graph, golden: &[u64], seed: u64, seconds: f64) -> Timed {
    let config = w.fast_config();
    let queries = w.dataset.queries();
    let mut order = MixStream::new(&vec![1; queries.len()], seed, 0);
    let mut timed = Timed::default();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        for _ in 0..queries.len() {
            let qi = order.next_query();
            let t = Instant::now();
            let report = run_fast(&queries[qi], g, &config);
            let wall = t.elapsed().as_secs_f64();
            timed.record(wall, report.map(|r| r.embeddings).ok() == Some(golden[qi]));
        }
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

/// The metrics one round of `FastReport`s yields, summed in query order so
/// the modelled seconds add up bit-identically whatever order the round
/// ran in. Returns the round's metrics and its `run_fast` wall not spent
/// in build, partition or CPU share (kernel emulation plus driver self
/// time), per operation.
fn report_layers(reports: &[(f64, FastReport)]) -> (Layers, f64) {
    let mut out = Layers::default();
    let w = 1.0 / reports.len() as f64;
    let mut residual = 0.0;
    for (qi, (wall, r)) in reports.iter().enumerate() {
        out.add(Q_WALL[qi], *wall);
        out.add(
            "cst.enumerate.cpu_share_s",
            r.cpu_match_time.as_secs_f64() * w,
        );
        out.add(
            "fast.host.prepare_wall_s",
            r.host_prepare_wall.as_secs_f64() * w,
        );
        out.add_count("fast.host.cpu_partitions", r.cpu_partitions);
        out.add_count("fast.host.fpga_partitions", r.fpga_partitions);
        out.add_count("fast.host.stolen", r.stolen);
        out.add("fpga_sim.cycles.kernel_s", r.kernel_time_sec);
        out.add("fpga_sim.cycles.transfer_s", r.transfer_time_sec);
        out.add_count("fpga_sim.cycles.transfer_bytes", r.transfer_bytes);
        out.add("modelled_total_s", r.modeled_total_sec());
        residual += (wall - (r.build_time + r.partition_time + r.cpu_match_time).as_secs_f64()) * w;
    }
    (out, residual)
}

/// Alternates a round of `run_fast` (whose `FastReport`s give the CPU
/// share, the partition split and the modelled seconds) with a round
/// decomposed into direct layer calls under spans, until `seconds` have
/// passed.
pub fn run_traced(
    w: &Workload,
    g: &Graph,
    golden: &[u64],
    seed: u64,
    seconds: f64,
) -> Result<Traced, String> {
    let config = w.fast_config();
    let queries = w.dataset.queries();
    let n = queries.len();
    let mut order = MixStream::new(&vec![1; n], seed, 0);
    let mut timed = Timed::default();
    let mut log = SpanLog::default();
    let (mut whole, mut residuals, mut split, mut overhead) = (vec![], vec![], vec![], vec![]);
    let mut fpga_share = 0.0;
    let mut op = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let round_start = Instant::now();
        let mut reports: Vec<Option<(f64, FastReport)>> = vec![None; n];
        for _ in 0..n {
            let qi = order.next_query();
            let (report, wall) = log.timed("fast.host.run_fast", op, || {
                run_fast(&queries[qi], g, &config)
            });
            op += 1;
            let report = report.map_err(|e| e.to_string())?;
            timed.record(wall, report.embeddings == golden[qi]);
            reports[qi] = Some((wall, report));
        }
        let whole_s = round_start.elapsed().as_secs_f64();
        let reports: Vec<(f64, FastReport)> = reports.into_iter().flatten().collect();
        let (fpga, cpu) = reports.iter().fold((0.0, 0.0), |(f, c), (_, r)| {
            (f + r.workload_fpga, c + r.workload_cpu)
        });
        fpga_share = fpga / (fpga + cpu);
        let (layers, residual) = report_layers(&reports);
        whole.push(layers);
        residuals.push(residual);

        let round_start = Instant::now();
        let mut layers = Layers::default();
        let (mut embeddings, mut kernel_s) = (0u64, 0.0);
        for _ in 0..n {
            let qi = order.next_query();
            let query_start = obs::now_ns();
            let done = Probe {
                q: &queries[qi],
                g,
                config: &config,
                weight: 1.0 / n as f64,
                op,
                log: &mut log,
                out: &mut layers,
            }
            .sequential()?;
            let query_end = obs::now_ns();
            log.record("query", op, query_start, query_end);
            op += 1;
            timed.count(done.embeddings == golden[qi]);
            embeddings += done.embeddings;
            kernel_s += done.seconds;
        }
        layers.add("fast.kernel.embeddings_per_s", embeddings as f64 / kernel_s);
        split.push(layers);
        let split_s = round_start.elapsed().as_secs_f64();
        // Throughputs are n ÷ wall, so the overhead share is 1 − whole/split.
        overhead.push(1.0 - whole_s / split_s);
    }
    timed.wall_s = start.elapsed().as_secs_f64();

    let mut layers = Layers::median_of(&whole);
    layers.extend(&Layers::median_of(&split));
    // Driver self time: the part of `run_fast` that is neither build,
    // partition, CPU share (all from its report) nor kernel emulation (the
    // probe's kernel wall, scaled to the share of workload `run_fast`
    // offloaded rather than matched on the CPU).
    layers.add(
        "fast.host.self_s",
        median(&residuals) - fpga_share * layers.get("fast.kernel.run_s"),
    );
    layers.add("obs.overhead_share", median(&overhead));
    layers.add_count("obs.spans", log.spans.len());
    Ok(Traced { timed, layers, log })
}
