//! Anatomy of the FPGA pipeline: how the paper's optimisation ladder
//! (Equations 1-4) plays out on a real workload, cross-checked against the
//! discrete-event simulator.
//!
//! ```sh
//! cargo run --release --example pipeline_anatomy
//! ```

use fast::des_check::{simulate_sep_cycles, simulate_task_cycles};
use fast::{run_fast, FastConfig, Variant};
use fpga_sim::{CycleModel, StageLatencies};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};

fn main() {
    let graph = generate_ldbc(&LdbcParams::with_scale_factor(0.3), 5);
    let query = benchmark_query(6); // dense: M > N, the regime TASK/SEP love

    // Measure the workload once (N and M are properties of the search).
    let report = run_fast(&query, &graph, &FastConfig::for_variant(Variant::Sep))
        .expect("query fits the kernel");
    let counts = report.counts;
    println!(
        "workload of q6: N = {} partial results, M = {} edge-validation tasks (M/N = {:.2})\n",
        counts.n,
        counts.m,
        counts.m as f64 / counts.n as f64
    );

    // The paper's closed-form ladder at the Alveo's parameters.
    let model = CycleModel::new(StageLatencies::default(), 4096, 1, 8);
    let ladder = [
        ("serial (Eq. 1)", model.serial(counts)),
        ("FAST-DRAM", model.dram(counts)),
        ("FAST-BASIC (Eq. 2)", model.basic(counts)),
        ("FAST-TASK (Eq. 3)", model.task(counts)),
        ("FAST-SEP (Eq. 4)", model.sep(counts)),
    ];
    println!("{:<20} {:>16} {:>12}", "design", "cycles", "at 300 MHz");
    for (name, cycles) in ladder {
        println!(
            "{:<20} {:>16} {:>10.2}ms",
            name,
            cycles,
            cycles as f64 / 300e6 * 1e3
        );
    }

    // Cross-check TASK and SEP against the discrete-event pipeline
    // simulator on a proportional synthetic stream.
    let n = 20_000u64;
    let k = (counts.m as f64 / counts.n as f64).round().max(1.0) as u64;
    let scaled = fpga_sim::WorkloadCounts { n, m: n * k };
    let des_task = simulate_task_cycles(n, k, 512);
    let des_sep = simulate_sep_cycles(n, k, 512);
    println!("\nDES cross-check at N={n}, M={} (fan-out {k}):", scaled.m);
    println!(
        "  TASK: analytic {} vs simulated {} cycles ({:+.0}%)",
        model.task(scaled),
        des_task,
        (des_task as f64 / model.task(scaled) as f64 - 1.0) * 100.0
    );
    println!(
        "  SEP:  analytic {} vs simulated {} cycles ({:+.0}%)",
        model.sep(scaled),
        des_sep,
        (des_sep as f64 / model.sep(scaled) as f64 - 1.0) * 100.0
    );
}
