//! End-to-end integration: every matcher in the workspace must agree on
//! every benchmark query over LDBC-like data.

use fast::{
    prepare_partitions, run_fast, run_kernel, CollectMode, FastConfig, KernelPlan, Variant,
};
use fpga_sim::FpgaSpec;
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{all_benchmark_queries, benchmark_query, path_based_order, select_root, BfsTree};
use join_baselines::{run_join_baseline, DeviceSpec, JoinBaseline};
use matching::{run_baseline, run_baseline_parallel, Baseline, Outcome, RunLimits};

fn tiny_ldbc() -> graph_core::Graph {
    generate_ldbc(&LdbcParams::with_scale_factor(0.05), 1234)
}

#[test]
fn all_engines_agree_on_all_benchmark_queries() {
    let g = tiny_ldbc();
    let limits = RunLimits::unlimited();
    let device = DeviceSpec::default();
    for (qi, q) in all_benchmark_queries().iter().enumerate() {
        let expected = run_fast(q, &g, &FastConfig::default())
            .expect("benchmark query fits kernel")
            .embeddings;
        for b in Baseline::ALL {
            let r = run_baseline(b, q, &g, &limits);
            assert_eq!(r.outcome, Outcome::Completed, "{} q{qi}", b.name());
            assert_eq!(r.embeddings, expected, "{} q{qi}", b.name());
        }
        for jb in JoinBaseline::ALL {
            let r = run_join_baseline(jb, q, &g, &device, &limits);
            assert_eq!(r.outcome, Outcome::Completed, "{} q{qi}", jb.name());
            assert_eq!(r.embeddings, expected, "{} q{qi}", jb.name());
        }
        let par = run_baseline_parallel(Baseline::Ceci, q, &g, &limits, 8);
        assert_eq!(par.embeddings, expected, "CECI-8 q{qi}");
    }
}

/// Every `KernelOutput` field of q0-q8 on [`tiny_ldbc`], summed over each
/// query's partitions under the benchmark's device (`N_o` 512, `Port_max`
/// 2048, 2 MiB BRAM) and the serving decomposition
/// (one build, fanned out into at most `min(16, ⌊W_CST / N_o⌋)` root
/// chunks, so q0, q4 and q7 get 2, 1 and 15), against recorded
/// values. The benchmark's exact
/// checks pin only `n`, `m`, rounds and cycles, and the kernel oracle's
/// graphs have 30-90 vertices; here `run_kernel` resolves q1's last level
/// (the Comment closing the 4-cycle) by sibling runs, adding `cst_reads`,
/// `buffer_reads` and rejections in bulk, on label-blocked LDBC data.
#[test]
fn kernel_counters_are_pinned_on_ldbc_data() {
    let g = tiny_ldbc();
    let config = FastConfig {
        spec: FpgaSpec {
            bram_bytes: 2 << 20,
            no: 512,
            port_max: 2048,
            ..FpgaSpec::default()
        },
        ..FastConfig::for_variant(Variant::Sep)
    };
    // Per query: partitions, then embeddings, n, m, rounds, cst_reads,
    // buffer_reads, buffer_writes, visited and edge rejections, and the
    // buffer high-water marks, each summed over the partitions.
    #[rustfmt::skip]
    let pinned: [[u64; 11]; 9] = [
        [2, 1222, 2756, 0, 12, 4271, 1534, 1534, 0, 0, 992],
        [15, 348, 19462, 15044, 93, 38907, 4443, 4418, 0, 14696, 3012],
        [15, 837, 98059, 85108, 392, 195719, 12594, 12462, 0, 84760, 7394],
        [16, 837, 38814, 27026, 162, 77651, 11830, 11788, 0, 26189, 5733],
        [1, 12, 228, 52, 5, 392, 131, 131, 45, 40, 131],
        [1, 104, 555, 440, 5, 1143, 149, 149, 78, 224, 149],
        [1, 54, 505, 780, 5, 1383, 99, 99, 78, 274, 99],
        [14, 52, 15258, 9686, 112, 32812, 7910, 7904, 694, 6608, 5730],
        [16, 7824, 66031, 91810, 332, 176669, 18873, 18805, 5674, 33728, 5527],
    ];
    for (qi, q) in all_benchmark_queries().iter().enumerate() {
        let tree = BfsTree::new(q, select_root(q, &g));
        let order = path_based_order(q, &tree, &g);
        let plan = KernelPlan::new(q, &order, &tree).expect("benchmark query fits kernel");
        let mut sum = [0u64; 11];
        prepare_partitions(q, &g, &config, &tree, &order, &mut |job| {
            let out = run_kernel(&job.cst, &plan, config.spec.no, CollectMode::CountOnly);
            assert!(out.collected.is_empty());
            let fields = [
                1,
                out.embeddings,
                out.counts.n,
                out.counts.m,
                out.rounds,
                out.cst_reads,
                out.buffer_reads,
                out.buffer_writes,
                out.visited_rejections,
                out.edge_rejections,
                out.buffer_high_water.iter().sum::<usize>() as u64,
            ];
            for (s, f) in sum.iter_mut().zip(fields) {
                *s += f;
            }
        });
        assert_eq!(sum, pinned[qi], "q{qi}");
    }
}

#[test]
fn all_variants_agree_on_dense_query() {
    let g = tiny_ldbc();
    let q = benchmark_query(8);
    let counts: Vec<u64> = Variant::ALL
        .iter()
        .map(|&v| {
            run_fast(&q, &g, &FastConfig::test_small(v))
                .expect("fits")
                .embeddings
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "variants disagree: {counts:?}"
    );
}

#[test]
fn variant_cycle_ladder_holds_end_to_end() {
    let g = tiny_ldbc();
    for qi in [1usize, 2, 6, 8] {
        let q = benchmark_query(qi);
        let cycles: Vec<(Variant, u64)> =
            [Variant::Dram, Variant::Basic, Variant::Task, Variant::Sep]
                .iter()
                .map(|&v| {
                    (
                        v,
                        run_fast(&q, &g, &FastConfig::for_variant(v))
                            .expect("fits")
                            .kernel_cycles,
                    )
                })
                .collect();
        for w in cycles.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "q{qi}: {} ({}) < {} ({})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }
}

#[test]
fn fast_reports_are_internally_consistent() {
    let g = tiny_ldbc();
    let q = benchmark_query(2);
    let r = run_fast(&q, &g, &FastConfig::test_small(Variant::Share)).expect("fits");
    // Workload booked must cover both sides.
    assert!(r.workload_cpu >= 0.0 && r.workload_fpga >= 0.0);
    // Counts only come from FPGA partitions.
    if r.fpga_partitions == 0 {
        assert_eq!(r.counts.n, 0);
    }
    // Modelled total covers its components.
    assert!(r.modeled_total_sec() >= r.modeled_build_sec);
    assert!(r.modeled_total_sec() >= r.kernel_time_sec);
    assert_eq!(r.forced, 0, "partitions should never be force-emitted");
}

#[test]
fn timeout_produces_inf_marker() {
    let g = generate_ldbc(&LdbcParams::with_scale_factor(0.3), 5);
    let q = benchmark_query(1);
    let limits = RunLimits {
        timeout: Some(std::time::Duration::from_micros(1)),
        ..RunLimits::unlimited()
    };
    let r = run_baseline(Baseline::Cfl, &q, &g, &limits);
    assert_eq!(r.outcome, Outcome::Timeout);
    assert_eq!(r.outcome.table_marker(), "INF");
    assert!(r.modeled_total_sec().is_infinite());
}

#[test]
fn memory_caps_produce_oom_markers() {
    let g = generate_ldbc(&LdbcParams::with_scale_factor(0.2), 5);
    let q = benchmark_query(6);
    // CFL's adjacency matrix blows a small cap.
    let limits = RunLimits {
        memory_cap: Some(1 << 20),
        ..RunLimits::unlimited()
    };
    let r = run_baseline(Baseline::Cfl, &q, &g, &limits);
    assert_eq!(r.outcome, Outcome::OutOfMemory);
    // The GPU join with a tiny device OOMs too.
    let device = DeviceSpec {
        memory_bytes: 1 << 10,
    };
    let r = run_join_baseline(JoinBaseline::Gsi, &q, &g, &device, &RunLimits::unlimited());
    assert_eq!(r.outcome, Outcome::OutOfMemory);
}
