//! Golden embedding counts: every timed operation's count is compared with
//! the committed `golden_counts.json`, generated once by an oracle outside
//! the partition, kernel and pool path the workloads measure.

use crate::spec::{Dataset, WORKLOADS};
use matching::{run_baseline, vf2_count, Baseline, Outcome, RunLimits};
use obs::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Compiled in, so a corrupted entry takes effect on the next `run.sh`
/// (cargo rebuilds when the file changes) and the binary needs no path.
const GOLDEN_JSON: &str = include_str!("../golden_counts.json");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden_counts.json");

/// How long VF2 may run on one query before the baselines take over.
const VF2_BUDGET: Duration = Duration::from_secs(60);

/// Dataset key → one count per query, in `Dataset::queries` order.
pub struct Golden(BTreeMap<String, Vec<u64>>);

impl Golden {
    pub fn load() -> Result<Self, String> {
        Self::parse(GOLDEN_JSON)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let Json::Obj(datasets) = obs::json::parse(text)? else {
            return Err("golden counts: top level is not an object".into());
        };
        let mut out = BTreeMap::new();
        for (key, rows) in datasets {
            let Json::Arr(rows) = rows else {
                return Err(format!("golden counts: {key} is not an array"));
            };
            let counts = rows
                .iter()
                .map(|row| row.get("count").and_then(Json::as_f64).map(|c| c as u64))
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| format!("golden counts: a row of {key} has no count"))?;
            out.insert(key, counts);
        }
        Ok(Golden(out))
    }

    /// The counts of `dataset`'s queries.
    pub fn counts(&self, dataset: Dataset) -> Result<&[u64], String> {
        let counts = self
            .0
            .get(dataset.golden_key())
            .ok_or_else(|| format!("golden counts: no rows for {}", dataset.golden_key()))?;
        if counts.len() != dataset.queries().len() {
            return Err(format!(
                "golden counts: {} rows for {}, expected {}",
                counts.len(),
                dataset.golden_key(),
                dataset.queries().len()
            ));
        }
        Ok(counts)
    }
}

/// `--oracle-vf2 <dataset> <query>`: prints one VF2 count. Run as a child
/// of [`regenerate`] so a search that outlives its budget can be killed.
pub fn oracle_vf2(dataset_key: &str, query: usize) -> Result<(), String> {
    let dataset = datasets()
        .into_iter()
        .find(|d| d.golden_key() == dataset_key)
        .ok_or_else(|| format!("unknown dataset {dataset_key}"))?;
    let queries = dataset.queries();
    let q = queries.get(query).ok_or("query index out of range")?;
    println!("{}", vf2_count(q, &dataset.generate()));
    Ok(())
}

fn datasets() -> Vec<Dataset> {
    let mut out: Vec<Dataset> = Vec::new();
    for w in &WORKLOADS {
        if !out.contains(&w.dataset) {
            out.push(w.dataset);
        }
    }
    out
}

fn vf2_in_child(dataset: Dataset, query: usize) -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args(["--oracle-vf2", dataset.golden_key(), &query.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if started.elapsed() < VF2_BUDGET => {
                std::thread::sleep(Duration::from_millis(50))
            }
            _ => {
                child.kill().ok();
                child.wait().ok();
                return None;
            }
        }
    }
    let out = child.wait_with_output().ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn baseline_count(
    b: Baseline,
    q: &graph_core::QueryGraph,
    g: &graph_core::Graph,
) -> Result<u64, String> {
    let r = run_baseline(b, q, g, &RunLimits::unlimited());
    match r.outcome {
        Outcome::Completed => Ok(r.embeddings),
        other => Err(format!("{} did not complete: {other:?}", b.name())),
    }
}

/// `--regen-golden`: recomputes every count and rewrites the committed
/// file. VF2 where it finishes within [`VF2_BUDGET`], else DAF
/// cross-checked against CECI; the oracle used is recorded per row.
pub fn regenerate() -> Result<(), String> {
    let mut text = String::from("{\n");
    let all = datasets();
    for (d, dataset) in all.iter().enumerate() {
        let g = dataset.generate();
        let queries = dataset.queries();
        writeln!(text, "  \"{}\": [", dataset.golden_key()).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let (count, oracle) = match vf2_in_child(*dataset, i) {
                Some(count) => (count, "vf2"),
                None => {
                    let daf = baseline_count(Baseline::Daf, q, &g)?;
                    let ceci = baseline_count(Baseline::Ceci, q, &g)?;
                    if daf != ceci {
                        return Err(format!(
                            "{} query {i}: DAF counts {daf}, CECI counts {ceci}",
                            dataset.golden_key()
                        ));
                    }
                    (daf, "daf+ceci")
                }
            };
            eprintln!("{} query {i}: {count} ({oracle})", dataset.golden_key());
            let name = match dataset {
                Dataset::Dg(_) => format!("q{i}"),
                Dataset::Tiny => "triangle".to_string(),
            };
            let comma = if i + 1 == queries.len() { "" } else { "," };
            writeln!(
                text,
                "    {{\"query\": \"{name}\", \"count\": {count}, \"oracle\": \"{oracle}\"}}{comma}"
            )
            .unwrap();
        }
        let comma = if d + 1 == all.len() { "" } else { "," };
        writeln!(text, "  ]{comma}").unwrap();
    }
    text.push_str("}\n");
    std::fs::write(GOLDEN_PATH, text).map_err(|e| format!("write {GOLDEN_PATH}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::DatasetId;

    #[test]
    fn committed_file_covers_every_workload_dataset() {
        let golden = Golden::load().unwrap();
        for w in &WORKLOADS {
            assert!(golden.counts(w.dataset).unwrap().iter().all(|&c| c > 0));
        }
        // Anchors from the probe that sized the workloads.
        let dg03 = golden.counts(Dataset::Dg(DatasetId::Dg03)).unwrap();
        assert_eq!((dg03[0], dg03[4]), (72838, 800));
        let dg10 = golden.counts(Dataset::Dg(DatasetId::Dg10)).unwrap();
        assert_eq!((dg10[0], dg10[8]), (242614, 18816));
    }

    #[test]
    fn malformed_files_are_errors() {
        assert!(Golden::parse("[]").is_err());
        assert!(Golden::parse("{\"DG03\": 3}").is_err());
        assert!(Golden::parse("{\"DG03\": [{\"query\": \"q0\"}]}").is_err());
        let short = Golden::parse("{\"DG03\": [{\"count\": 1}]}").unwrap();
        assert!(short.counts(Dataset::Dg(DatasetId::Dg03)).is_err());
        assert!(short.counts(Dataset::Tiny).is_err());
    }
}
