//! `fast-bench`: the repo's wall-clock benchmark. See `README.md` beside
//! this package for the workloads, the metrics and how they interact.
//!
//! ```text
//! fast-bench --workload W --seed N --seconds S --trace 0|1   one run, one process
//! fast-bench [--seed N] [--seconds S] [--trace 0|1]          every workload, a fresh process each
//! fast-bench --repeat N                                      N full sets, traced and untraced, compared
//! fast-bench --regen-golden                                  rewrite golden_counts.json from the oracles
//! ```
//!
//! A run prints every metric by name with its unit, then, as the last line
//! of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. It exits non-zero if any operation failed or miscounted.

mod golden;
mod mix;
mod oneshot;
mod probe;
mod serving;
mod setup;
mod spans;
mod spec;
mod stats;
mod timed;

use obs::json::Json;
use spec::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use timed::Traced;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    repeat: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
        repeat: 0,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v.to_string())),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--repeat" => args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// The directory holding this executable: inside the build directory, so
/// inside the checkout. Scratch files and trace output go under it.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.parent().map(Path::to_path_buf).unwrap_or_default())
}

/// `VmHWM` of this process in MiB: the most memory it has ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("cannot read VmHWM {line:?}"))?;
    Ok(kb / 1024.0)
}

/// One finished run: the JSON object of the last output line.
#[derive(Debug)]
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunResult {
    /// Refuses a metric that is not a number (0 ÷ 0 of a phase that
    /// measured nothing): printed as 0 it would read as a measurement.
    fn new(
        attempted: u64,
        failed: u64,
        metrics: Vec<(&'static MetricDef, f64)>,
    ) -> Result<Self, String> {
        match metrics.iter().find(|(_, v)| !v.is_finite()) {
            Some((m, v)) => Err(format!("{} measured {v}, which is not a number", m.name)),
            None => Ok(RunResult {
                attempted,
                failed,
                metrics,
            }),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload in this process.
fn run_one(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let golden = golden::Golden::load()?;
    let golden = golden.counts(w.dataset)?;
    let scratch = exe_dir()?.join("fast-bench-tmp");
    let mut setup = setup::Setup::new(w, golden, args.trace, &scratch)?;
    let env = setup.run_once()?;
    let g = &*env.graph;

    if args.trace {
        let mut traced = match &env.service {
            None => oneshot::run_traced(w, g, golden, args.seed, args.seconds)?,
            Some(service) => serving::run_traced(w, service, g, golden, args.seed, args.seconds)?,
        };
        env.shut_down();
        setup.repeat(args.seconds)?;
        let (layers, times) = (&mut traced.layers, &setup.times);
        layers.add(
            "graph_core.generators.generate_s",
            stats::median(&times.generate),
        );
        layers.add("graph_core.snapshot.save_s", stats::median(&times.save));
        layers.add("graph_core.snapshot.load_s", stats::median(&times.load));
        layers.add("graph_core.snapshot.map_s", stats::median(&times.map));
        layers.add_count("graph_core.snapshot.bytes", times.snapshot_bytes);
        spans::assign_parents(&mut traced.log.spans);
        let result = RunResult::new(
            traced.timed.attempted,
            traced.timed.failed,
            PER_LAYER
                .iter()
                .map(|m| (m, traced.layers.get(m.name)))
                .collect(),
        )?;
        write_trace(w, args, &traced, &result.json())?;
        return Ok(result);
    }

    let mut timed = match &env.service {
        None => oneshot::run(w, g, golden, args.seed, args.seconds),
        Some(service) => serving::run(w, service, golden, args.seed, args.seconds),
    };
    // Read before the set-up repetitions below, which are the benchmark's
    // own and push the mark 3–19 MiB higher than a service that set up once.
    let peak_rss_mb = peak_rss_mb()?;
    env.shut_down();
    setup.repeat(args.seconds)?;

    timed.latencies.sort_by(f64::total_cmp);
    let latencies = &timed.latencies;
    println!(
        "{}: {} operations in {:.3} s, {} failed (failed_share {}); {} set-up repetitions",
        w.name,
        timed.attempted,
        timed.wall_s,
        timed.failed,
        timed.failed as f64 / timed.attempted.max(1) as f64,
        setup.times.total.len(),
    );
    let beyond = stats::samples_beyond(latencies.len(), 0.95);
    println!(
        "{}: {} latency samples, {beyond} beyond latency_p95_s{}",
        w.name,
        latencies.len(),
        if stats::percentile_is_backed(latencies.len(), 0.95) {
            ""
        } else {
            ": fewer than 10, so it is the slowest query's time and not a tail"
        },
    );
    let value = |name: &str| match name {
        "setup_s" => Ok(setup.times.setup_s()),
        "throughput_qps" => Ok(timed.throughput_qps()),
        "latency_p50_s" => Ok(stats::percentile_sorted(latencies, 0.50)),
        "latency_p95_s" => Ok(stats::percentile_sorted(latencies, 0.95)),
        "peak_rss_mb" => Ok(peak_rss_mb),
        other => Err(format!("no measurement for end-to-end metric {other}")),
    };
    RunResult::new(
        timed.attempted,
        timed.failed,
        END_TO_END
            .iter()
            .map(|m| value(m.name).map(|v| (m, v)))
            .collect::<Result<_, String>>()?,
    )
}

/// Writes `<workload>.spans.json` and `<workload>.layers.json` (the result
/// line's object), and prints where each span name's self time went.
fn write_trace(
    w: &Workload,
    args: &Args,
    traced: &Traced,
    layers_json: &str,
) -> Result<(), String> {
    let dir = match &args.trace_dir {
        Some(dir) => dir.clone(),
        None => exe_dir()?.join("fast-bench-trace"),
    };
    let mut spans_json = Vec::new();
    spans::write_json(&mut spans_json, &traced.log.spans).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (kind, body) in [
        ("spans", &spans_json[..]),
        ("layers", layers_json.as_bytes()),
    ] {
        let path = dir.join(format!("{}.{kind}.json", w.name));
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}: spans and layer table in {}", w.name, dir.display());
    println!("{:<34} {:>8} {:>14}", "span", "count", "self time (s)");
    for (name, (count, self_s)) in spans::self_time_by_name(&traced.log.spans) {
        println!("{name:<34} {count:>8} {self_s:>14.6}");
    }
    Ok(())
}

fn print_result(w: &Workload, result: &RunResult) {
    println!("{}: {}", w.name, w.why);
    for (m, v) in &result.metrics {
        let better = m.better.as_str();
        println!(
            "{:<20} {:<40} {v:>18.9} {:<10} {better} is better",
            w.name, m.name, m.unit
        );
    }
    println!("{}", result.json());
}

/// The parsed last line of a child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh process (so the resident set is that workload's
/// own), forwarding what it prints.
fn run_child(w: &Workload, trace: bool, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(dir) = &args.trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("run {}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or_default();
    let doc = obs::json::parse(last).map_err(|e| {
        format!(
            "{}: last line is not a result ({e}); exit {}",
            w.name, out.status
        )
    })?;
    let number = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = doc.get("metrics") {
        for (name, m) in pairs {
            let value = m.get("value").and_then(Json::as_f64);
            metrics.insert(name.clone(), value.ok_or(format!("{name} has no value"))?);
        }
    }
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
    })
}

/// Every workload, each in a fresh process; with `--repeat N`, N full sets
/// of traced and untraced runs in alternating order, then the
/// repeatability check: every end-to-end metric's relative spread against
/// its bound, and every exact layer metric for equality.
fn run_sets(args: &Args) -> Result<bool, String> {
    let modes: Vec<Vec<bool>> = match args.repeat {
        0 => vec![vec![args.trace]],
        n => (0..n).map(|i| vec![i % 2 == 1, i % 2 == 0]).collect(),
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    // (workload, metric) -> one value per set.
    let mut seen: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for set in &modes {
        for &trace in set {
            for w in &WORKLOADS {
                let child = run_child(w, trace, args)?;
                all_correct &= child.correct;
                attempted += child.attempted;
                failed += child.failed;
                for (name, v) in child.metrics {
                    seen.entry((w.name, name)).or_default().push(v);
                }
            }
        }
    }
    let mut steady = true;
    if args.repeat > 0 {
        println!(
            "{:<20} {:<40} {:>10} {:>8}",
            "workload", "metric", "spread", "bound"
        );
        for ((workload, name), values) in &seen {
            let def = END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name);
            let Some(def) = def else { continue };
            let spread = stats::relative_spread(values);
            let verdict = match (def.bound, def.exact) {
                (Some(bound), _) if spread > bound => "EXCEEDS ITS BOUND",
                (_, true) if values.iter().any(|v| v != &values[0]) => "EXACT METRIC DIFFERS",
                (None, false) => continue,
                _ => "",
            };
            steady &= verdict.is_empty();
            let bound = def.bound.map_or("exact".to_string(), |b| format!("{b:.3}"));
            println!("{workload:<20} {name:<40} {spread:>10.4} {bound:>8} {verdict}");
        }
    }
    println!("{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}}}");
    Ok(all_correct && steady)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--regen-golden") => return golden::regenerate().map(|()| true),
        Some("--oracle-vf2") => {
            let query = argv.get(2).and_then(|q| q.parse().ok());
            let (Some(dataset), Some(query)) = (argv.get(1), query) else {
                return Err("--oracle-vf2 <dataset> <query index>".into());
            };
            return golden::oracle_vf2(dataset, query).map(|()| true);
        }
        _ => {}
    }
    let args = parse_args(argv.into_iter())?;
    let Some(name) = &args.workload else {
        return run_sets(&args);
    };
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let result = run_one(w, &args)?;
    print_result(w, &result);
    Ok(result.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fast-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` and the metrics this program prints are one set:
    /// same names, units, directions and bounds, within the contract's
    /// limits.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 << 10);
        let doc = obs::json::parse(text).unwrap();
        let rows = |key: &str| match doc.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            _ => panic!("{key} is not an array"),
        };
        let field =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (row, def) in listed.iter().zip(defs) {
                assert_eq!(field(row, "name"), def.name);
                assert_eq!(field(row, "unit"), def.unit);
                assert_eq!(field(row, "better"), def.better.as_str());
                assert_eq!(row.get("bound").and_then(Json::as_f64), def.bound);
                assert!(name_ok(def.name), "{}", def.name);
                assert!(def.unit.len() <= 16);
                assert!(def
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
                assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));

        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let listed = rows("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (row, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(row, "name"), w.name);
            assert_eq!(field(row, "why"), w.why);
            assert!(name_ok(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
        assert_eq!(rows("paths"), [Json::Str("benchmark".into())]);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = "--workload serve_cold_dg03 --seed 7 --seconds 10 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_cold_dg03"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse_args("--trace 2".split(' ').map(String::from)).is_err());
        assert!(parse_args("--seconds 0".split(' ').map(String::from)).is_err());
        assert!(parse_args("--bogus".split(' ').map(String::from)).is_err());
        assert!(spec::workload("oneshot_dg10").is_some());
        assert!(spec::workload("nope").is_none());
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let result = RunResult::new(3, 1, vec![(&END_TO_END[0], 0.123456789012345)]).unwrap();
        let doc = obs::json::parse(&result.json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.123456789012345)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let nan = RunResult::new(3, 0, vec![(&END_TO_END[1], f64::NAN)]).unwrap_err();
        assert!(nan.contains("throughput_qps"), "{nan}");
    }
}
