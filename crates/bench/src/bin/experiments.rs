//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [targets...] [--quick]
//!
//! targets: all (default) | table3 | fig7 | fig8 | fig9 | fig10 | fig11
//!        | fig12 | fig13 | fig14 | fig15 | fig16 | fig17 | ablation
//! --quick: restrict to the smaller datasets (CI-friendly).
//! ```
//!
//! An unknown target exits with code 2; a Fig. 14 count mismatch exits
//! with code 1 once every requested target has run.

use bench::figures::*;
use bench::harness::DatasetCache;
use graph_core::DatasetId;
use std::time::Instant;

/// Every target name the driver accepts.
const TARGETS: [&str; 14] = [
    "all", "table3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "ablation",
];

struct Options {
    targets: Vec<String>,
    quick: bool,
}

fn usage() -> String {
    format!(
        "usage: experiments [targets...] [--quick]\ntargets: {}",
        TARGETS.join(" ")
    )
}

/// Rejects the first requested name that is not a target.
fn check_targets(targets: &[String]) -> Result<(), String> {
    match targets.iter().find(|t| !TARGETS.contains(&t.as_str())) {
        Some(t) => Err(format!("unknown target `{t}`")),
        None => Ok(()),
    }
}

fn parse_args() -> Options {
    let mut targets = Vec::new();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            t => targets.push(t.to_string()),
        }
    }
    if let Err(e) = check_targets(&targets) {
        eprintln!("experiments: {e}\n{}", usage());
        std::process::exit(2);
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
    let mut count_mismatch = false;

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
                Err(e) => {
                    println!("[check] COUNT MISMATCH: {e}\n");
                    count_mismatch = true;
                }
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
    if wants("ablation") {
        let d = DatasetId::Dg01;
        let no_rows = ablation::sweep_no(&mut cache, d, 2);
        let prune_rows = ablation::sweep_pruning(&mut cache, d, 6);
        println!("{}", ablation::render(&no_rows, &prune_rows));
    }

    eprintln!("[experiments] total wall time: {:?}", t0.elapsed());
    if count_mismatch {
        eprintln!("[experiments] Fig. 14: algorithms disagree on an embedding count");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn only_paper_targets_are_accepted() {
        assert!(check_targets(&names(&["fig14"])).is_ok());
        assert!(check_targets(&names(&["all"])).is_ok());
        assert!(check_targets(&names(&[])).is_ok());
        assert_eq!(
            check_targets(&names(&["fig7", "serving"])),
            Err("unknown target `serving`".to_string())
        );
    }
}
