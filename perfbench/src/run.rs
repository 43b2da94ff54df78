//! Issuing a workload's runs and collecting what each one returned.

use std::time::Instant;

use psharp::prelude::*;

use crate::reference::Speedometer;
use crate::workload::{derive, Plan, RunSpec, Target};

/// The portfolio labels ([`SchedulerKind::label`]) the per-strategy rows are
/// kept for, in default-portfolio order.
pub const LABELS: [&str; 7] = [
    "random",
    "pct",
    "delay",
    "prob",
    "round-robin",
    "sleep-set",
    "dpor",
];

/// The row of [`LABELS`] a strategy label belongs to.
pub fn label_index(label: &str) -> Option<usize> {
    LABELS.iter().position(|l| *l == label)
}

/// Executions and steps one strategy label ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelCount {
    /// Executions completed.
    pub execs: u64,
    /// Machine steps.
    pub steps: u64,
}

/// A found bug, as an engine call reported it.
#[derive(Debug, Clone)]
pub struct Found {
    /// The violation.
    pub bug: Bug,
    /// The reported trace (rehydrated to full mode by the engine).
    pub trace: Trace,
    /// Decisions in the buggy execution.
    pub ndc: usize,
    /// The strategy label that found it.
    pub strategy: &'static str,
    /// The shrink result, when the run shrinks.
    pub shrink: Option<Shrunk>,
}

/// A shrink pass's result.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Decisions in the minimized counterexample.
    pub minimized_ndc: usize,
    /// The minimized counterexample.
    pub trace: Trace,
    /// Candidate executions the shrink pass ran.
    pub candidates: u64,
    /// Seconds the shrink pass took.
    pub seconds: f64,
}

/// What one engine call returned.
pub struct EngineReport {
    /// Executions completed.
    pub iterations: u64,
    /// Machine steps.
    pub steps: u64,
    /// The first bug, when one was found.
    pub bug: Option<Found>,
    /// Executions and steps per label of [`LABELS`].
    pub per_label: [LabelCount; LABELS.len()],
}

/// Something that runs one engine call. The untraced run uses the engine
/// itself; the traced run issues the same iterations through the public API.
pub trait Engine {
    /// Runs `config` on `target`.
    fn run(&mut self, config: &TestConfig, target: &Target) -> EngineReport;

    /// Called before the engine calls of run `index` of the plan.
    fn start_run(&mut self, index: usize) {
        let _ = index;
    }
}

/// The engine as users call it with one worker: the serial [`TestEngine`].
pub struct Untraced;

impl Engine for Untraced {
    fn run(&mut self, config: &TestConfig, target: &Target) -> EngineReport {
        let build = &target.build;
        let report = TestEngine::new(config.clone()).run(|rt| build(rt));
        let mut per_label = [LabelCount::default(); LABELS.len()];
        for row in &report.per_strategy {
            let label = config
                .portfolio
                .iter()
                .flatten()
                .find(|kind| kind.describe() == row.scheduler)
                .map_or(config.scheduler.label(), |kind| kind.label());
            if let Some(index) = label_index(label) {
                per_label[index].execs += row.iterations_run;
                per_label[index].steps += row.total_steps;
            }
        }
        EngineReport {
            iterations: report.iterations_run,
            steps: report.total_steps,
            bug: report.bug.map(|found| Found {
                ndc: found.ndc,
                shrink: found.shrink.map(|s| Shrunk {
                    minimized_ndc: s.minimized_decisions,
                    trace: s.minimized,
                    candidates: s.candidates_tried,
                    seconds: s.elapsed.as_secs_f64(),
                }),
                bug: found.bug,
                trace: found.trace,
                strategy: report.scheduler,
            }),
            per_label,
        }
    }
}

/// One reported bug of a run, with the executions the run had spent when it
/// was reported (counting the buggy one).
#[derive(Debug, Clone)]
pub struct RunBug {
    /// Executions until the bug, counted from the run's start.
    pub executions: u64,
    /// The bug.
    pub found: Found,
    /// The engine seed of the call that found it.
    pub seed: u64,
}

/// What one run (one [`RunSpec`]) did.
pub struct RunResult {
    /// Executions completed.
    pub execs: u64,
    /// Machine steps.
    pub steps: u64,
    /// Seconds around the run's engine calls.
    pub seconds: f64,
    /// Reported bugs, in order. On a hunt, at most one: the hunt stops at
    /// it. On a fixed harness each one is a false alarm.
    pub bugs: Vec<RunBug>,
    /// Executions and steps per label of [`LABELS`].
    pub per_label: [LabelCount; LABELS.len()],
}

impl RunResult {
    /// Whether the run failed: a hunt that missed its bug, or a fixed
    /// harness that reported a violation.
    pub fn failed(&self, hunts: bool) -> bool {
        self.bugs.is_empty() == hunts
    }

    /// The counts a second run of the same spec must reproduce exactly:
    /// executions, steps, per-label executions and steps, and for each bug
    /// its execution index, winning strategy, decision count and minimized
    /// decision count.
    pub fn counts(&self) -> RunCounts {
        RunCounts {
            execs: self.execs,
            steps: self.steps,
            per_label: self.per_label,
            bugs: self
                .bugs
                .iter()
                .map(|b| {
                    (
                        b.executions,
                        b.found.strategy,
                        b.found.ndc,
                        b.found.shrink.as_ref().map(|s| s.minimized_ndc),
                    )
                })
                .collect(),
        }
    }
}

/// The deterministic part of a [`RunResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCounts {
    /// Executions completed.
    pub execs: u64,
    /// Machine steps.
    pub steps: u64,
    /// Executions and steps per label.
    pub per_label: [LabelCount; LABELS.len()],
    /// Per bug: executions until it, strategy, decisions, minimized
    /// decisions.
    pub bugs: Vec<(u64, &'static str, usize, Option<usize>)>,
}

/// Runs one spec. A hunt is one engine call that stops at its bug or its
/// budget. A fixed harness always spends its whole budget: after a false
/// alarm the run continues with a fresh engine call under the next derived
/// seed for the executions left, so the work done does not depend on
/// whether false alarms happen.
fn run_spec(plan: &Plan, spec: &RunSpec, engine: &mut dyn Engine) -> RunResult {
    let target = &plan.targets[spec.target];
    let start = Instant::now();
    let mut result = RunResult {
        execs: 0,
        steps: 0,
        seconds: 0.0,
        bugs: Vec::new(),
        per_label: [LabelCount::default(); LABELS.len()],
    };
    let mut seed = spec.seed;
    let mut restarts = 0;
    while result.execs < plan.executions {
        let config = plan.config(spec, seed, plan.executions - result.execs);
        let report = engine.run(&config, target);
        result.execs += report.iterations;
        result.steps += report.steps;
        for (mine, theirs) in result.per_label.iter_mut().zip(report.per_label) {
            mine.execs += theirs.execs;
            mine.steps += theirs.steps;
        }
        let Some(found) = report.bug else { break };
        result.bugs.push(RunBug {
            executions: result.execs,
            found,
            seed,
        });
        if plan.workload.hunts() {
            break;
        }
        restarts += 1;
        seed = derive(spec.seed, restarts);
    }
    result.seconds = start.elapsed().as_secs_f64();
    result
}

/// One pass over a plan's runs.
pub struct Pass {
    /// Seconds spent in the runs, summed; output checks between runs are
    /// not counted.
    pub seconds: f64,
    /// The host speed factor measured over the pass
    /// ([`Speedometer::factor`]).
    pub speed: f64,
    /// One result per run, in plan order, with its traces dropped.
    pub runs: Vec<RunResult>,
}

impl Pass {
    /// Executions over the pass.
    pub fn execs(&self) -> u64 {
        self.runs.iter().map(|r| r.execs).sum()
    }

    fn shrinks(&self) -> impl Iterator<Item = &Shrunk> {
        self.runs
            .iter()
            .flat_map(|r| &r.bugs)
            .filter_map(|b| b.found.shrink.as_ref())
    }

    /// Executions over the pass, shrink candidates included.
    pub fn all_execs(&self) -> u64 {
        self.execs() + self.shrinks().map(|s| s.candidates).sum::<u64>()
    }

    /// Seconds of the pass outside shrink passes: the time the steps of
    /// [`Pass::steps`] ran in.
    pub fn engine_seconds(&self) -> f64 {
        self.seconds - self.shrinks().map(|s| s.seconds).sum::<f64>()
    }

    /// Machine steps over the pass.
    pub fn steps(&self) -> u64 {
        self.runs.iter().map(|r| r.steps).sum()
    }

    /// The deterministic counts of every run.
    pub fn counts(&self) -> Vec<RunCounts> {
        self.runs.iter().map(RunResult::counts).collect()
    }
}

/// Checks one run's outputs before its traces are dropped.
pub type Check<'a> = &'a dyn Fn(&RunSpec, &RunResult) -> Result<(), String>;

/// Runs every spec of `plan` once, in order, checking each run with `check`
/// as soon as it returns; the first failed check ends the pass. Between
/// runs it samples the host's speed.
pub fn run_pass(plan: &Plan, engine: &mut dyn Engine, check: Check<'_>) -> Result<Pass, String> {
    let mut runs = Vec::with_capacity(plan.runs.len());
    let mut speedometer = Speedometer::new();
    for (index, spec) in plan.runs.iter().enumerate() {
        speedometer.sample();
        engine.start_run(index);
        let mut result = run_spec(plan, spec, engine);
        check(spec, &result)?;
        for bug in &mut result.bugs {
            bug.found.trace = Trace::default();
            if let Some(shrunk) = &mut bug.found.shrink {
                shrunk.trace = Trace::default();
            }
        }
        runs.push(result);
    }
    speedometer.sample();
    Ok(Pass {
        seconds: runs.iter().map(|r| r.seconds).sum(),
        speed: speedometer.factor(),
        runs,
    })
}
