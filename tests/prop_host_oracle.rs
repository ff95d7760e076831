//! The host's partition producer against an oracle that shares no code
//! with it.
//!
//! `run_fast`, `run_multi_fpga` and the serving path's `prepare_partitions`
//! all consume one build → shard → partition stream (`fast::host`), so a
//! suite that compares them with each other cannot see a bug in that
//! producer. Here every consumer is held to `matching::vf2_count` — plain
//! backtracking over `(q, g)`, no CST, no partitioner — on generated
//! queries, under a device small enough that the stream really is
//! partitioned, stolen from and shared with the CPU.

use fast::{
    prepare_partitions, run_fast, run_kernel, run_multi_fpga, CollectMode, FastConfig, KernelPlan,
    Variant,
};
use graph_core::generators::random_labelled_graph;
use graph_core::{path_based_order, select_root, BfsTree, Label, QueryGraph};
use matching::vf2_count;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    (3usize..=5, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..2))).collect();
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((rng.gen_range(0..i), i));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.35) {
                    edges.push((a, b));
                }
            }
        }
        QueryGraph::new(labels, &edges).expect("connected by construction")
    })
}

/// A 4 KiB card with a 4-partial round budget and a generous δ: test-sized
/// CSTs split into tens of partitions, some stolen whole, some booked to
/// the CPU (`small_device_forces_partitions_steals_and_cpu_bookings`).
fn small_device(variant: Variant) -> FastConfig {
    let mut config = FastConfig::test_small(variant);
    config.spec.bram_bytes = 4 << 10;
    config.spec.no = 4;
    if variant.shares_with_cpu() {
        config.delta = 0.25;
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_consumer_of_the_partition_stream_agrees_with_vf2(
        q in arb_query(),
        graph_seed in 0u64..400,
        vertices in 50usize..90,
    ) {
        let g = random_labelled_graph(vertices, 0.15, 2, graph_seed);
        let expected = vf2_count(&q, &g);

        for variant in Variant::ALL {
            for host_threads in [1, 3] {
                let mut config = small_device(variant);
                config.host_threads = host_threads;
                let report = run_fast(&q, &g, &config).expect("query fits the kernel");
                prop_assert_eq!(
                    report.embeddings, expected,
                    "run_fast {} host_threads={}", variant, host_threads
                );
                prop_assert_eq!(report.forced, 0);
            }
        }

        let tree = BfsTree::new(&q, select_root(&q, &g));
        let order = path_based_order(&q, &tree, &g);
        let plan = KernelPlan::new(&q, &order, &tree).expect("query fits the kernel");
        for host_threads in [1, 3] {
            let mut config = small_device(Variant::Sep);
            config.host_threads = host_threads;
            let mut streamed = 0u64;
            let mut indices = Vec::new();
            let phase = prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                indices.push(job.index);
                streamed +=
                    run_kernel(&job.cst, &plan, config.spec.no, CollectMode::CountOnly).embeddings;
            });
            prop_assert_eq!(streamed, expected, "prepare_partitions host_threads={}", host_threads);
            prop_assert_eq!(indices, (0..phase.partitions).collect::<Vec<_>>());
        }

        for cards in [1, 3] {
            let report = run_multi_fpga(&q, &g, &small_device(Variant::Sep), cards)
                .expect("query fits the kernel");
            prop_assert_eq!(report.embeddings, expected, "run_multi_fpga cards={}", cards);
        }
    }
}

fn four_cycle() -> QueryGraph {
    let l = Label::new;
    QueryGraph::new(
        vec![l(0), l(1), l(0), l(1)],
        &[(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    .unwrap()
}

/// The property above is only worth its name if the device it runs on
/// exercises every branch of the producer and of Algorithm 3.
#[test]
fn small_device_forces_partitions_steals_and_cpu_bookings() {
    let g = random_labelled_graph(90, 0.15, 2, 9);
    let report = run_fast(&four_cycle(), &g, &small_device(Variant::Share)).unwrap();
    assert_eq!(report.embeddings, vf2_count(&four_cycle(), &g));
    assert!(report.fpga_partitions > 4, "{report:?}");
    assert!(report.cpu_partitions > 0, "{report:?}");
    assert!(report.stolen > 0, "{report:?}");
}

/// `host_threads = 1` is not a second flow: it is the same producer on one
/// contiguous shard, so asking the sharded pipeline for one shard on four
/// threads gives the same run down to the last counter.
#[test]
fn one_host_thread_is_the_one_shard_pipeline() {
    let q = four_cycle();
    let g = random_labelled_graph(120, 0.15, 2, 11);
    let run = |host_threads, pipeline_shards| {
        let mut config = small_device(Variant::Share);
        config.host_threads = host_threads;
        config.pipeline_shards = pipeline_shards;
        let r = run_fast(&q, &g, &config).unwrap();
        assert_eq!(r.pipeline_shards, 1);
        (
            r.embeddings,
            r.fpga_partitions,
            r.cpu_partitions,
            r.stolen,
            r.transfer_bytes,
            r.kernel_cycles,
            r.counts,
        )
    };
    let sequential = run(1, None);
    assert!(sequential.1 > 1 && sequential.2 > 0, "{sequential:?}");
    assert_eq!(sequential, run(4, Some(1)));
    // At T = 1 the shard count is not the configuration's to choose.
    assert_eq!(sequential, run(1, Some(8)));
}
