//! `fastsm` — a command-line subgraph matcher over the reproduction stack.
//!
//! ```text
//! fastsm match  <graph.txt> <query.txt> [--algo fast|cfl|daf|ceci|gpsm|gsi]
//!                                       [--limit N] [--timeout SECS]
//! fastsm gen    <out.txt> [--sf F] [--seed S]     generate an LDBC-like graph
//! fastsm stats  <graph.txt>                        print Table III-style stats
//! fastsm query  <index 0-8> <out.txt>              write a benchmark query
//! ```
//!
//! Graphs and queries use the standard benchmark text format
//! (`t`/`v`/`e` records, see `graph_core::io`).

use fast::{run_fast, CollectMode, FastConfig};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, io, GraphStats};
use join_baselines::{run_join_baseline, DeviceSpec, JoinBaseline};
use matching::{run_baseline, Baseline, RunLimits};
use std::fs::File;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fastsm match <graph.txt> <query.txt> [--algo fast|cfl|daf|ceci|gpsm|gsi] [--limit N] [--timeout SECS]\n  fastsm gen <out.txt> [--sf F] [--seed S]\n  fastsm stats <graph.txt>\n  fastsm query <0-8> <out.txt>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "match" => cmd_match(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "query" => cmd_query(&args[1..]),
        _ => usage(),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_match(args: &[String]) -> ExitCode {
    let (Some(graph_path), Some(query_path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let algo = flag_value(args, "--algo").unwrap_or("fast").to_lowercase();
    let limit: Option<u64> = flag_value(args, "--limit").and_then(|s| s.parse().ok());
    let timeout = flag_value(args, "--timeout")
        .and_then(|s| s.parse().ok())
        .map(Duration::from_secs);

    let graph = match File::open(graph_path)
        .map_err(io::IoError::Io)
        .and_then(io::read_graph_text)
    {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error reading graph {graph_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let query = match File::open(query_path)
        .map_err(io::IoError::Io)
        .and_then(io::read_query_text)
    {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error reading query {query_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "graph: {} vertices / {} edges; query: {} vertices / {} edges; algorithm: {algo}",
        graph.vertex_count(),
        graph.edge_count(),
        query.vertex_count(),
        query.edge_count()
    );

    let limits = RunLimits {
        timeout,
        memory_cap: None,
        max_results: limit,
    };

    match algo.as_str() {
        "fast" => {
            let config = FastConfig {
                collect: match limit {
                    Some(n) => CollectMode::Collect(n as usize),
                    None => CollectMode::CountOnly,
                },
                ..FastConfig::default()
            };
            match run_fast(&query, &graph, &config) {
                Ok(r) => {
                    println!("{} embeddings", r.embeddings);
                    eprintln!(
                        "N={} M={} partitions={} modelled={:.3}ms (kernel {:.3}ms @300MHz)",
                        r.counts.n,
                        r.counts.m,
                        r.fpga_partitions + r.cpu_partitions,
                        r.modeled_total_sec() * 1e3,
                        r.kernel_time_sec * 1e3
                    );
                    for emb in &r.collected {
                        let cells: Vec<String> = emb.iter().map(|v| v.raw().to_string()).collect();
                        println!("{}", cells.join(" "));
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "cfl" | "daf" | "ceci" => {
            let baseline = match algo.as_str() {
                "cfl" => Baseline::Cfl,
                "daf" => Baseline::Daf,
                _ => Baseline::Ceci,
            };
            let r = run_baseline(baseline, &query, &graph, &limits);
            println!("{} embeddings ({})", r.embeddings, r.outcome.table_marker());
            eprintln!(
                "measured {:.3}ms, modelled {:.3}ms",
                r.total_time().as_secs_f64() * 1e3,
                r.modeled_total_sec() * 1e3
            );
            ExitCode::SUCCESS
        }
        "gpsm" | "gsi" => {
            let jb = if algo == "gpsm" {
                JoinBaseline::GpSm
            } else {
                JoinBaseline::Gsi
            };
            let r = run_join_baseline(jb, &query, &graph, &DeviceSpec::default(), &limits);
            println!("{} embeddings ({})", r.embeddings, r.outcome.table_marker());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown algorithm '{other}'");
            usage()
        }
    }
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let Some(out) = args.first() else {
        return usage();
    };
    let sf: f64 = flag_value(args, "--sf")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let g = generate_ldbc(&LdbcParams::with_scale_factor(sf), seed);
    match File::create(out)
        .map_err(io::IoError::Io)
        .and_then(|f| io::write_graph_text(&g, f))
    {
        Ok(()) => {
            eprintln!(
                "wrote {} ({} vertices, {} edges, sf={sf}, seed={seed})",
                out,
                g.vertex_count(),
                g.edge_count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error writing {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    match File::open(path)
        .map_err(io::IoError::Io)
        .and_then(io::read_graph_text)
    {
        Ok(g) => {
            let s = GraphStats::compute(path.as_str(), &g);
            println!("{}", GraphStats::table_header());
            println!("{}", s.table_row());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_query(args: &[String]) -> ExitCode {
    let (Some(idx), Some(out)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Ok(i) = idx.parse::<usize>() else {
        return usage();
    };
    if i >= graph_core::QUERY_COUNT {
        eprintln!("query index must be 0..{}", graph_core::QUERY_COUNT);
        return ExitCode::FAILURE;
    }
    let q = benchmark_query(i);
    match File::create(out)
        .map_err(io::IoError::Io)
        .and_then(|f| io::write_query_text(&q, f))
    {
        Ok(()) => {
            eprintln!("wrote q{i} to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
