//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [targets...] [--quick]
//!
//! targets: all (default) | table3 | fig7 | fig8 | fig9 | fig10 | fig11
//!        | fig12 | fig13 | fig14 | fig15 | fig16 | fig17 | ablation
//!        | serving | sessions | tenants | cstcache | chaos | snapshot
//!        | obsfig
//! --quick: restrict to the smaller datasets (CI-friendly).
//! ```

use bench::figures::*;
use bench::harness::DatasetCache;
use graph_core::DatasetId;
use std::time::Instant;

struct Options {
    targets: Vec<String>,
    quick: bool,
}

fn parse_args() -> Options {
    let mut targets = Vec::new();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [targets...] [--quick]\n\
                     targets: all table3 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 ablation serving sessions tenants cstcache chaos snapshot obsfig"
                );
                std::process::exit(0);
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Options { targets, quick }
}

fn main() {
    let opts = parse_args();
    let run_all = opts.targets.iter().any(|t| t == "all");
    let wants = |t: &str| run_all || opts.targets.iter().any(|x| x == t);
    let mut cache = DatasetCache::new();

    let ladder: Vec<DatasetId> = if opts.quick {
        vec![DatasetId::Dg01, DatasetId::Dg03]
    } else {
        DatasetId::ALL.to_vec()
    };
    let comparison_sets: Vec<DatasetId> = if opts.quick {
        vec![DatasetId::Dg01]
    } else {
        vec![DatasetId::Dg01, DatasetId::Dg03, DatasetId::Dg10]
    };
    let big = if opts.quick {
        DatasetId::Dg03
    } else {
        DatasetId::Dg10
    };
    let huge = if opts.quick {
        DatasetId::Dg03
    } else {
        DatasetId::Dg60
    };

    let t0 = Instant::now();

    if wants("table3") {
        let rows = table3::run(&mut cache);
        println!("{}", table3::render(&rows));
    }
    if wants("fig7") {
        let rows = fig07::run(&mut cache, big);
        println!("{}", fig07::render(big, &rows));
    }
    if wants("fig8") {
        let d = if opts.quick {
            DatasetId::Dg01
        } else {
            DatasetId::Dg03
        };
        let rows = fig08::run(&mut cache, d);
        println!("{}", fig08::render(d, &rows));
    }
    if wants("fig9") {
        let rows = fig09::run(&mut cache, &ladder);
        println!("{}", fig09::render(&rows));
    }
    if wants("fig10") {
        let rows = fig10::run(&mut cache, &ladder);
        println!("{}", fig10::render(&rows));
    }
    if wants("fig11") || wants("fig12") {
        let rows = fig11_12::run(&mut cache, big);
        println!("{}", fig11_12::render(big, &rows));
    }
    if wants("fig13") {
        let rows = fig13::run(&mut cache, &comparison_sets);
        println!("{}", fig13::render(&rows));
    }
    if wants("fig14") {
        let queries: Vec<usize> = (0..9).collect();
        for &d in &comparison_sets {
            let table = fig14::run(&mut cache, d, &queries);
            println!("{}", fig14::render(&table, &queries));
            match fig14::counts_agree(&table, &queries) {
                Ok(()) => println!("[check] all completed algorithms agree on counts\n"),
                Err(e) => println!("[check] COUNT MISMATCH: {e}\n"),
            }
        }
    }
    if wants("fig15") {
        let sets: Vec<DatasetId> = if opts.quick {
            vec![DatasetId::Dg01]
        } else {
            vec![DatasetId::Dg01, DatasetId::Dg03]
        };
        let rows = fig15::run(&mut cache, &sets);
        println!("{}", fig15::render(&rows));
    }
    if wants("fig16") {
        let rows = fig16::run(&mut cache, &ladder, &fig16::QUERIES);
        println!("{}", fig16::render(&rows));
        for &qi in &fig16::QUERIES {
            if let Some(r2) = fig16::linearity_r2(&rows, qi) {
                println!("q{qi}: elapsed-vs-embeddings linear fit R^2 = {r2:.3}");
            }
        }
        println!();
    }
    if wants("fig17") {
        let rows = fig17::run(&mut cache, huge, &fig17::QUERIES);
        println!("{}", fig17::render(huge, &rows));
    }
    if wants("serving") {
        // Cold-vs-warm serving sweep (the `serve` subsystem): quick mode
        // stays at DG01 with a shorter run; the full sweep serves DG03.
        let (d, levels, requests): (DatasetId, &[usize], usize) = if opts.quick {
            (DatasetId::Dg01, &[1, 4], 16)
        } else {
            (DatasetId::Dg03, &[1, 2, 4, 8], 24)
        };
        let rows = serving::run(&mut cache, d, levels, requests);
        println!("{}", serving::render(d, &rows));
    }
    if wants("sessions") {
        // Session-scalability sweep: 64 / 1k / 10k outstanding sessions on
        // 2 executor threads, event-driven vs thread-per-session, with the
        // acceptance bar (oracle-identical counts, QPS within 5% at 64,
        // strictly better at 10k, bounded peak-RSS growth) asserted inside
        // the run.
        let rows = sessions::run(opts.quick);
        println!("{}", sessions::render(&rows));
    }
    if wants("tenants") {
        // Mixed-tenant sweep: fleet composition × cache mode under a 1:3
        // quota split; quick mode stays at DG01 with a shorter run.
        let (d, clients, requests): (DatasetId, usize, usize) = if opts.quick {
            (DatasetId::Dg01, 2, 10)
        } else {
            (DatasetId::Dg03, 4, 16)
        };
        let rows = multi_tenant::run(&mut cache, d, clients, requests);
        println!("{}", multi_tenant::render(d, &rows));
    }
    if wants("cstcache") {
        // Tier-2 byte-budget sweep: warm serving at budgets 0 / tight /
        // generous, self-asserting that tier-2 hits build nothing and
        // resident bytes respect the budget; quick mode stays at DG01.
        let (d, clients, requests): (DatasetId, usize, usize) = if opts.quick {
            (DatasetId::Dg01, 2, 10)
        } else {
            (DatasetId::Dg03, 4, 16)
        };
        let rows = cst_cache::run(&mut cache, d, clients, requests);
        println!("{}", cst_cache::render(d, &rows));
    }
    if wants("chaos") {
        // Fault-tolerance sweep: clean / wrapped-zero-fault / moderate /
        // heavy fleets, self-asserting bit-identity, exactly-once retry
        // accounting, an eviction under heavy chaos, and < 2% fault-free
        // injection overhead; quick mode stays at DG01.
        let (d, clients, requests): (DatasetId, usize, usize) = if opts.quick {
            (DatasetId::Dg01, 2, 10)
        } else {
            (DatasetId::Dg03, 4, 16)
        };
        let rows = chaos::run(&mut cache, d, clients, requests);
        println!("{}", chaos::render(d, &rows));
    }
    if wants("obsfig") {
        // Observability sweep: traced cold/warm serving with stage
        // decomposition from the spans, self-asserting a valid monotonic
        // Chrome trace, session ⊇ build ⊇ execute nesting, and < 2%
        // obs-on overhead on the best interleaved off/on pair. DG03 even
        // in quick mode — the overhead claim needs real work to amortise.
        let (clients, requests): (usize, usize) = if opts.quick { (2, 10) } else { (4, 16) };
        let out = obsfig::run(&mut cache, DatasetId::Dg03, clients, requests);
        println!("{}", obsfig::render(DatasetId::Dg03, &out));
    }
    if wants("snapshot") {
        // Binary CSR snapshot round-trip: load-vs-build wall per dataset.
        let sets: Vec<DatasetId> = if opts.quick {
            vec![DatasetId::Dg01]
        } else {
            vec![DatasetId::Dg01, DatasetId::Dg03, DatasetId::Dg10]
        };
        let rows = snapshot::run(&sets);
        println!("{}", snapshot::render(&rows));
    }
    if wants("ablation") {
        let d = DatasetId::Dg01;
        let no_rows = ablation::sweep_no(&mut cache, d, 2);
        let prune_rows = ablation::sweep_pruning(&mut cache, d, 6);
        println!("{}", ablation::render(&no_rows, &prune_rows));
    }

    eprintln!("[experiments] total wall time: {:?}", t0.elapsed());
}
