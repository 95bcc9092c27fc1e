//! What one workload run hands back to `main.rs`.

use serde::Serialize;
use std::time::Instant;

/// Run parameters every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Worker threads, server workers and client connections.
    pub nproc: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A reduced run that only measures this workload's layers, made by
    /// the traced run of another workload.
    pub probe: bool,
}

/// One correctness check and whether it held.
#[derive(Debug, Clone, Serialize)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// A per-layer figure of the traced run.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Warm-up passes made after set-up, before the timed phase.
    pub warmups: u32,
    /// Rate of work (boards, episodes, words, requests per second) of
    /// each round or window of the timed phase.
    pub work_rates: Vec<f64>,
    /// Latency of each user-visible operation of the timed phase, ms.
    pub op_ms: Vec<f64>,
    /// What one operation is (for the printed table).
    pub op_name: &'static str,
    /// Ops attempted and failed; an op is a board, an episode, a DRAM
    /// campaign or kernel, or a request.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The workload's own end-to-end figures under their own names
    /// (`fleet_boards_per_s`, `serve_p99_us`, …).
    pub named: Vec<(String, f64, &'static str)>,
    /// Deterministic simulated statistics.
    pub counts: Vec<(String, u64)>,
    /// Modeled (not measured) figures; printed under `modeled.`.
    pub modeled: Vec<(String, f64)>,
    /// Per-layer figures (traced run only).
    pub layers: Vec<Layer>,
    /// Rounds (or phases) the timed phase repeated.
    pub repeats: u32,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_owned(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Layer {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

/// Runs `setup` `times` times and keeps the last fixture, recording each
/// repetition's wall time.
pub fn repeated_setup<T>(times: usize, setup_s: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup());
        setup_s.push(start.elapsed().as_secs_f64());
    }
    kept.expect("set-up runs at least once")
}

/// Runs `round` back to back until `ctx.seconds` have passed (a probe
/// runs it once), recording each round's wall time in `out.op_ms`.
/// Returns every round's result with its wall time, seconds.
pub fn timed_rounds<R>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut round: impl FnMut() -> R,
) -> Vec<(R, f64)> {
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || (!ctx.probe && started.elapsed().as_secs_f64() < ctx.seconds) {
        let start = Instant::now();
        let result = round();
        let wall = start.elapsed().as_secs_f64();
        out.op_ms.push(wall * 1e3);
        rounds.push((result, wall));
    }
    rounds
}

/// Milliseconds of a nanosecond total.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}
