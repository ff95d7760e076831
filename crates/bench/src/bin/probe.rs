use bench::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

fn main() {
    let mut cache = DatasetCache::new();
    for d in [DatasetId::Dg01, DatasetId::Dg10] {
        let g = cache.get(d);
        for qi in [0usize, 2, 6, 8] {
            let q = benchmark_query(qi);
            let r = run_fast(&q, g, &experiment_config(Variant::Share)).unwrap();
            println!(
                "{} q{qi}: total={:.1}ms build={:.1}ms part={:.1}ms cpu={:.1}ms kern={:.1}ms xfer={:.1}ms N={} M={} parts={}(cpu {}) stolen={}",
                d, r.modeled_total_sec()*1e3, r.modeled_build_sec*1e3, r.modeled_partition_sec*1e3,
                r.modeled_cpu_match_sec*1e3, r.kernel_time_sec*1e3, r.transfer_time_sec*1e3,
                r.counts.n, r.counts.m, r.fpga_partitions + r.cpu_partitions, r.cpu_partitions, r.stolen
            );
        }
    }
}
