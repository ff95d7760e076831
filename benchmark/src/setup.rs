//! Set-up: everything between process start and the first timed operation.
//!
//! One repetition generates the dataset, saves it as a snapshot, maps the
//! snapshot back (the graph served is the one loaded back — the restart
//! path), constructs the service and, on warm workloads, primes both cache
//! tiers. `setup_s` is the median over repetitions so it repeats within
//! its bound. Only the first repetition runs before the timed phase; the
//! rest run after it, so the timed phase (and the `VmHWM` read when it ends)
//! sees a process that set up once, as a restarted service would, not a heap
//! fragmented by rebuilding the service several times.

use crate::spec::{Shape, Workload};
use crate::stats::median;
use graph_core::{load_snapshot, load_snapshot_mapped, save_snapshot, Graph, SnapshotVerify};
use serve::FastService;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions continue until they have run this share of the timed
/// phase's length in total: at 20 s, four repetitions of the slowest set-up
/// (1.3 s of priming) and thousands of the millisecond one on the tiny graph.
const SHARE_OF_TIMED_PHASE: f64 = 0.2;

/// What the timed phase runs against.
pub struct Env {
    pub graph: Arc<Graph>,
    /// `None` for the one-shot workload.
    pub service: Option<FastService>,
}

impl Env {
    pub fn shut_down(self) {
        if let Some(service) = self.service {
            service.shutdown();
        }
    }
}

/// Wall seconds of each repetition's steps.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub save: Vec<f64>,
    pub map: Vec<f64>,
    /// Owned (copying) load of the same file; traced runs only, outside
    /// `total`.
    pub load: Vec<f64>,
    pub snapshot_bytes: u64,
}

impl SetupTimes {
    pub fn setup_s(&self) -> f64 {
        median(&self.total)
    }
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub struct Setup<'a> {
    w: &'a Workload,
    /// The counts priming must reproduce.
    golden: &'a [u64],
    traced: bool,
    path: PathBuf,
    pub times: SetupTimes,
}

impl<'a> Setup<'a> {
    pub fn new(
        w: &'a Workload,
        golden: &'a [u64],
        traced: bool,
        scratch: &Path,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
        Ok(Setup {
            w,
            golden,
            traced,
            path: scratch.join(format!("{}-{}.snap", w.name, std::process::id())),
            times: SetupTimes::default(),
        })
    }

    /// One timed repetition of the set-up sequence.
    pub fn run_once(&mut self) -> Result<Env, String> {
        let (w, path) = (self.w, &self.path);
        let start = Instant::now();
        let (generated, generate_s) = secs(|| w.dataset.generate());
        let (saved, save_s) = secs(|| save_snapshot(&generated, path));
        saved.map_err(|e| format!("save snapshot: {e}"))?;
        drop(generated);
        let (mapped, map_s) = secs(|| load_snapshot_mapped(path, SnapshotVerify::Eager));
        let graph = Arc::new(
            mapped
                .map_err(|e| format!("map snapshot: {e}"))?
                .into_graph(),
        );
        let service = match w.shape {
            Shape::OneShot => None,
            _ => Some(
                FastService::try_new(Arc::clone(&graph), w.serve_config())
                    .map_err(|e| format!("service construction: {e}"))?,
            ),
        };
        if let (Some(service), true) = (&service, w.warm) {
            for (q, &want) in w.dataset.queries().into_iter().zip(self.golden) {
                let report = service
                    .submit(q)
                    .wait()
                    .map_err(|e| format!("priming: {e}"))?;
                if report.embeddings != want {
                    return Err(format!(
                        "priming counted {}, golden count is {want}",
                        report.embeddings
                    ));
                }
            }
        }
        let times = &mut self.times;
        times.total.push(start.elapsed().as_secs_f64());
        times.generate.push(generate_s);
        times.save.push(save_s);
        times.map.push(map_s);
        times.snapshot_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if self.traced {
            let (loaded, load_s) = secs(|| load_snapshot(path));
            loaded.map_err(|e| format!("load snapshot: {e}"))?;
            times.load.push(load_s);
        }
        // The mapping outlives the directory entry.
        std::fs::remove_file(path).ok();
        Ok(Env { graph, service })
    }

    /// Repeats the sequence (discarding what it builds) until all
    /// repetitions together have taken `SHARE_OF_TIMED_PHASE` of `seconds`.
    pub fn repeat(&mut self, seconds: f64) -> Result<(), String> {
        while self.times.total.iter().sum::<f64>() < SHARE_OF_TIMED_PHASE * seconds {
            self.run_once()?.shut_down();
        }
        Ok(())
    }
}
