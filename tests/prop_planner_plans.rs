//! The serving path's shard plans, pinned: `plan_pipeline_shards` for the
//! benchmark queries q0–q8 on DG03 and DG10 under the options the serving
//! benchmark plans with (FAST-SEP, the auto planner, the pinned device's
//! δ_S hint) must keep the root order, boundaries, planned workloads,
//! duplication estimate, ρ and probe visit count recorded before the probe
//! and the scoring were made to do each thing once. A planner that gets
//! faster by deciding differently fails here, not in a throughput number.

use cst::{plan_pipeline_shards, root_candidates, ShardPlan, ShardPlanner};
use fast::{FastConfig, Variant};
use fpga_sim::FpgaSpec;
use graph_core::{benchmark_query, select_root, BfsTree, DatasetId};

/// What a plan decided: `(shards, FNV-1a over order, ranges and planned
/// workloads, estimated_duplication bits, partition_ratio bits,
/// probe_entries)`.
type Fingerprint = (usize, u64, u64, u64, usize);

fn fingerprint(plan: &ShardPlan) -> Fingerprint {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |x: u64| {
        for byte in x.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    plan.order.iter().for_each(|&i| feed(u64::from(i)));
    plan.ranges.iter().for_each(|r| {
        feed(r.start as u64);
        feed(r.end as u64);
    });
    plan.shard_weights.iter().for_each(|w| feed(w.to_bits()));
    (
        plan.shard_count(),
        hash,
        plan.estimated_duplication.to_bits(),
        plan.partition_ratio.to_bits(),
        plan.probe_entries,
    )
}

/// The serving benchmark's configuration (`benchmark/src/spec.rs`).
fn serving_config() -> FastConfig {
    FastConfig {
        spec: FpgaSpec {
            bram_bytes: 2 << 20,
            no: 512,
            port_max: 2048,
            fifo_depth: 128,
            ..FpgaSpec::default()
        },
        shard_planner: ShardPlanner::Auto,
        ..FastConfig::for_variant(Variant::Sep)
    }
}

fn assert_plans(dataset: DatasetId, expected: [Fingerprint; 9]) {
    let g = dataset.generate();
    let config = serving_config();
    for (qi, expected) in expected.into_iter().enumerate() {
        let q = benchmark_query(qi);
        let tree = BfsTree::new(&q, select_root(&q, &g));
        let options = config.pipeline_options(q.vertex_count());
        let roots = root_candidates(&q, &g, &tree, options.cst);
        let plan = plan_pipeline_shards(&q, &g, &tree, &options, &roots);
        assert_eq!(fingerprint(&plan), expected, "{} q{qi}", dataset.name());
    }
}

#[test]
#[rustfmt::skip] // one fingerprint per row
fn dg03_plans_are_the_recorded_ones() {
    assert_plans(
        DatasetId::Dg03,
        [
            (16, 0x5782b3440dd87704, 0x3ff8d47302b91565, 0x3fc999999999999a, 291210),
            (1, 0x096b5a6fc4c15d52, 0x3ff0000000000000, 0x3fc999999999999a, 643803),
            (1, 0x90ac554cf6b01034, 0x3ff0000000000000, 0x3fc999999999999a, 670010),
            (1, 0xde628714a345431f, 0x3ff0000000000000, 0x3fc999999999999a, 670448),
            (16, 0x37833fb0848ca3bc, 0x3ff0000000000000, 0x3fc999999999999a, 187773),
            (16, 0x9c73add19754d97c, 0x3ff0000000000000, 0x3fc999999999999a, 370700),
            (16, 0x9c73add19754d97c, 0x3ff0000000000000, 0x3fc999999999999a, 551606),
            (16, 0xafe256fe105f1258, 0x3ff0000000000000, 0x3fc999999999999a, 550683),
            (1, 0xe8bc4faca6a445d7, 0x3ff0000000000000, 0x3fc999999999999a, 1091889),
        ],
    );
}

#[test]
#[rustfmt::skip] // one fingerprint per row
fn dg10_plans_are_the_recorded_ones() {
    assert_plans(
        DatasetId::Dg10,
        [
            (8, 0x2b768a52bac4ae82, 0x3ff766e15532604b, 0x3fd999999999999a, 968100),
            (2, 0x4f0d12fb4664d229, 0x3ff56391841d1cf3, 0x3fd999999999999a, 2158292),
            (2, 0x2003053ea847e9fe, 0x3ff52ad2d486d927, 0x3fd999999999999a, 2228431),
            (2, 0x44204b468fe8aaa9, 0x3ff612580d14316d, 0x3fe08b33db0cb22a, 2228869),
            (16, 0xc3376c8756493414, 0x3ff0000000000000, 0x3fc999999999999a, 632571),
            (16, 0x15a008423929b74e, 0x3ff0000000000000, 0x3fc999999999999a, 1255162),
            (16, 0x15a008423929b74e, 0x3ff0000000000000, 0x3fd999999999999a, 1868813),
            (16, 0xa144c8b1b7ebf9a6, 0x3ff0000000000000, 0x3fd999999999999a, 1859873),
            (1, 0x2edc16615bfb40bb, 0x3ff0000000000000, 0x3fe08b33db0cb22a, 3691366),
        ],
    );
}
