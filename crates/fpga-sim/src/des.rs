//! A small discrete-event simulator for FPGA-style pipelines.
//!
//! Models what HLS loop pipelining gives the paper's kernel: stages with an
//! initiation interval (II) and a latency, connected by bounded FIFOs
//! (Fig. 5). One token can enter a stage every II cycles; results appear
//! `latency` cycles later and drain into downstream FIFOs at one token per
//! cycle, stalling on backpressure.
//!
//! The engine cross-validates the closed-form cycle model
//! ([`crate::cycles::CycleModel`]) on synthetic task streams — see the tests
//! here and the kernel-level validation in the `fast` crate.

use crate::fifo::Fifo;
use std::collections::VecDeque;

/// Identifies a stage within a [`Pipeline`].
pub type StageId = usize;

/// Identifies a FIFO (edge) within a [`Pipeline`].
pub type EdgeId = usize;

/// A unit of work flowing through the pipeline. The payload is opaque to the
/// engine; stages interpret it.
pub type Token = u64;

/// Stage behaviour: maps an input token to zero or more `(edge, token)`
/// emissions.
pub type StageLogic = Box<dyn FnMut(Token) -> Vec<(EdgeId, Token)>>;

struct Stage {
    name: String,
    latency: u32,
    ii: u32,
    logic: StageLogic,
    /// Input FIFO feeding this stage, if any (sources have none).
    input: Option<EdgeId>,
    /// Cycle at which the next token may be issued (II enforcement).
    next_issue_at: u64,
    /// Operations in flight: (completion_cycle, emissions).
    in_flight: VecDeque<(u64, Vec<(EdgeId, Token)>)>,
    /// Completed emissions waiting to drain into FIFOs (1 per cycle).
    outbox: VecDeque<(EdgeId, Token)>,
    /// Tokens processed.
    processed: u64,
}

/// Construction handle for a pipeline.
#[derive(Default)]
pub struct PipelineBuilder {
    stages: Vec<Stage>,
    fifo_capacities: Vec<usize>,
}

impl PipelineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a FIFO with the given capacity; returns its id.
    pub fn add_fifo(&mut self, capacity: usize) -> EdgeId {
        self.fifo_capacities.push(capacity);
        self.fifo_capacities.len() - 1
    }

    /// Adds a stage reading from `input` (or `None` for a source stage whose
    /// tokens are injected manually); returns its id.
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        input: Option<EdgeId>,
        latency: u32,
        ii: u32,
        logic: StageLogic,
    ) -> StageId {
        assert!(ii >= 1, "initiation interval must be >= 1");
        self.stages.push(Stage {
            name: name.into(),
            latency,
            ii,
            logic,
            input,
            next_issue_at: 0,
            in_flight: VecDeque::new(),
            outbox: VecDeque::new(),
            processed: 0,
        });
        self.stages.len() - 1
    }

    /// Finalises the pipeline.
    pub fn build(self) -> Pipeline {
        let fifos = self.fifo_capacities.iter().map(|&c| Fifo::new(c)).collect();
        Pipeline {
            stages: self.stages,
            fifos,
            now: 0,
        }
    }
}

/// Per-run results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Total cycles until quiescence.
    pub cycles: u64,
    /// Tokens processed per stage.
    pub processed: Vec<u64>,
    /// `(push_stalls, pop_stalls, high_water)` per FIFO.
    pub fifo_stats: Vec<(u64, u64, usize)>,
}

/// An executable pipeline.
pub struct Pipeline {
    stages: Vec<Stage>,
    fifos: Vec<Fifo<Token>>,
    now: u64,
}

impl Pipeline {
    /// Injects a token into a FIFO before or during a run (e.g. the initial
    /// batch of root partial results).
    ///
    /// # Panics
    /// Panics if the FIFO is full — injection is for pre-loading, not flow
    /// control.
    pub fn inject(&mut self, edge: EdgeId, token: Token) {
        self.fifos[edge]
            .push(token)
            .unwrap_or_else(|_| panic!("inject into full FIFO {edge}"));
    }

    /// Steps one cycle. Returns `true` if any work remains.
    pub fn tick(&mut self) -> bool {
        let now = self.now;

        // Phase 1: drain outboxes (one token per stage per cycle) and retire
        // completed operations into outboxes.
        for stage in &mut self.stages {
            if let Some(&(edge, token)) = stage.outbox.front() {
                if self.fifos[edge].push(token).is_ok() {
                    stage.outbox.pop_front();
                }
                // On failure the FIFO recorded a push stall; retry next cycle.
            }
            while let Some(&(done_at, _)) = stage.in_flight.front() {
                if done_at <= now {
                    let (_, emissions) = stage.in_flight.pop_front().expect("front exists");
                    stage.outbox.extend(emissions);
                } else {
                    break;
                }
            }
        }

        // Phase 2: issue new operations (II-gated), popping from input FIFOs.
        for stage in &mut self.stages {
            if stage.next_issue_at > now {
                continue;
            }
            let Some(input) = stage.input else { continue };
            // Keep the in-flight window bounded by the latency (a real
            // pipeline holds at most `latency` overlapped ops).
            if stage.in_flight.len() >= stage.latency.max(1) as usize {
                continue;
            }
            if let Some(token) = self.fifos[input].pop() {
                let emissions = (stage.logic)(token);
                stage.processed += 1;
                stage
                    .in_flight
                    .push_back((now + stage.latency as u64, emissions));
                stage.next_issue_at = now + stage.ii as u64;
            }
        }

        self.now += 1;
        self.has_work()
    }

    /// Whether any FIFO, outbox, or in-flight op still holds work.
    pub fn has_work(&self) -> bool {
        self.fifos.iter().any(|f| !f.is_empty())
            || self
                .stages
                .iter()
                .any(|s| !s.in_flight.is_empty() || !s.outbox.is_empty())
    }

    /// Runs until quiescence or `max_cycles`, returning the report.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        while self.has_work() && self.now < max_cycles {
            self.tick();
        }
        RunReport {
            cycles: self.now,
            processed: self.stages.iter().map(|s| s.processed).collect(),
            fifo_stats: self
                .fifos
                .iter()
                .map(|f| (f.push_stalls(), f.pop_stalls(), f.high_water()))
                .collect(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Name of a stage (for reports).
    pub fn stage_name(&self, id: StageId) -> &str {
        &self.stages[id].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` tokens through one stage with latency `l`, II=1 → ≈ n + l cycles.
    #[test]
    fn single_stage_throughput() {
        let mut b = PipelineBuilder::new();
        let input = b.add_fifo(2048);
        b.add_stage("s", Some(input), 5, 1, Box::new(|_| vec![]));
        let mut p = b.build();
        for i in 0..1000 {
            p.inject(input, i);
        }
        let report = p.run(1 << 20);
        assert!(
            (1000..1020).contains(&report.cycles),
            "cycles {}",
            report.cycles
        );
        assert_eq!(report.processed[0], 1000);
    }

    /// Chained stages overlap: total ≈ n + ΣL, not Σ(n·L).
    #[test]
    fn two_stage_chain_overlaps() {
        let mut b = PipelineBuilder::new();
        let input = b.add_fifo(2048);
        let mid = b.add_fifo(64);
        b.add_stage("a", Some(input), 4, 1, Box::new(move |t| vec![(1, t)]));
        b.add_stage("b", Some(mid), 6, 1, Box::new(|_| vec![]));
        let mut p = b.build();
        for i in 0..500 {
            p.inject(input, i);
        }
        let report = p.run(1 << 20);
        assert!(
            report.cycles < 540,
            "pipeline failed to overlap: {}",
            report.cycles
        );
        assert_eq!(report.processed[1], 500);
    }

    /// A stage with fan-out 3 bottlenecks on its 1-token/cycle outbox.
    #[test]
    fn fan_out_bottleneck() {
        let mut b = PipelineBuilder::new();
        let input = b.add_fifo(2048);
        let out = b.add_fifo(4096);
        b.add_stage(
            "fan",
            Some(input),
            2,
            1,
            Box::new(move |t| vec![(1, t), (1, t), (1, t)]),
        );
        b.add_stage("sink", Some(out), 1, 1, Box::new(|_| vec![]));
        let mut p = b.build();
        for i in 0..400 {
            p.inject(input, i);
        }
        let report = p.run(1 << 20);
        // 1200 emissions at 1/cycle dominate.
        assert!(
            (1200..1260).contains(&report.cycles),
            "cycles {}",
            report.cycles
        );
        assert_eq!(report.processed[1], 1200);
    }

    /// Backpressure: a slow consumer (II=3) with a tiny FIFO stalls the
    /// producer; total ≈ 3n.
    #[test]
    fn backpressure_stalls_producer() {
        let mut b = PipelineBuilder::new();
        let input = b.add_fifo(2048);
        let mid = b.add_fifo(2);
        b.add_stage("fast", Some(input), 1, 1, Box::new(move |t| vec![(1, t)]));
        b.add_stage("slow", Some(mid), 1, 3, Box::new(|_| vec![]));
        let mut p = b.build();
        for i in 0..300 {
            p.inject(input, i);
        }
        let report = p.run(1 << 20);
        assert!(
            (900..960).contains(&report.cycles),
            "cycles {}",
            report.cycles
        );
        let (push_stalls, _, high_water) = report.fifo_stats[1];
        assert!(push_stalls > 0, "expected producer stalls");
        assert_eq!(high_water, 2);
    }

    /// An empty pipeline is immediately quiescent.
    #[test]
    fn empty_run_terminates() {
        let mut b = PipelineBuilder::new();
        let input = b.add_fifo(4);
        b.add_stage("s", Some(input), 1, 1, Box::new(|_| vec![]));
        let mut p = b.build();
        let report = p.run(100);
        assert_eq!(report.cycles, 0);
    }

    /// max_cycles caps runaway pipelines (e.g. a self-loop).
    #[test]
    fn max_cycles_caps_self_loop() {
        let mut b = PipelineBuilder::new();
        let loop_edge = b.add_fifo(16);
        b.add_stage(
            "loop",
            Some(loop_edge),
            1,
            1,
            Box::new(move |t| vec![(0, t)]),
        );
        let mut p = b.build();
        p.inject(loop_edge, 1);
        let report = p.run(500);
        assert_eq!(report.cycles, 500);
    }

    #[test]
    fn stage_names_kept() {
        let mut b = PipelineBuilder::new();
        let input = b.add_fifo(4);
        let id = b.add_stage("generator", Some(input), 1, 1, Box::new(|_| vec![]));
        let p = b.build();
        assert_eq!(p.stage_name(id), "generator");
    }
}
