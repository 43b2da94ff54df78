//! The traced run: the per-layer split of a workload.
//!
//! The traced run first runs a share of the workload's rounds untraced, as
//! the baseline, then issues the same iterations again through the public
//! API the engine itself uses, timing each call from outside:
//!
//! * [`TestConfig::strategy_for_iteration`] / [`TestConfig::seed_for_iteration`]
//!   and the strict-replay rehydration of a found bug (engine residual);
//! * [`SchedulerKind::build`], wrapped in a [`TimedScheduler`] that times
//!   every scheduler call and forwards every trait method;
//! * [`Runtime::new`] / [`Runtime::reset`] / [`Runtime::snapshot`] /
//!   [`Runtime::restore_from`] / [`Runtime::run`];
//! * the harness build closure;
//! * [`shrink_trace`].
//!
//! Each coarse call is a [`Span`] (name, start, end, parent, run id) kept in
//! memory and written out at the end; scheduler calls, millions per run, are
//! summed per strategy label instead. A layer's self time is its span time
//! minus its child spans, and scheduler times have the calibrated cost of
//! the timer reads taken off. The traced iterations must reproduce the
//! baseline's counts exactly, or the run fails.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use psharp::error::ReplayError;
use psharp::fault::Fault;
use psharp::prelude::*;
use psharp::runtime::{ExecutionOutcome, Runtime, RuntimeSnapshot};
use psharp::scheduler::{ReplayScheduler, Scheduler};
use psharp::shrink::same_bug;

use crate::check::{check_run, runtime_config};
use crate::run::{
    label_index, run_pass, Engine, EngineReport, Found, LabelCount, Pass, Shrunk, Untraced, LABELS,
};
use crate::stats::{median, peak_rss_mb, Metrics};
use crate::workload::{Plan, Target, Workload};

/// The crates whose harness builds are timed, in report order.
const CRATES: [&str; 5] = ["replsim", "vnext", "chaintable", "fabric", "megakv"];

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start: u64,
    /// End, in ns since the run's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run (index into the plan's runs) the call belongs to.
    pub run: usize,
}

/// Spans in call order, with the stack of open ones.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end - span.start;
            }
        }
        own
    }
}

/// Runs `f` inside a span called `name`.
fn span<R>(recorder: &RefCell<Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    {
        let mut rec = recorder.borrow_mut();
        let start = rec.now();
        let parent = rec.open.last().copied();
        let run = rec.run;
        rec.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            run,
        });
        let index = rec.spans.len() - 1;
        rec.open.push(index);
    }
    let result = f();
    let mut rec = recorder.borrow_mut();
    let end = rec.now();
    let index = rec.open.pop().expect("span stack underflow");
    rec.spans[index].end = end;
    result
}

/// Scheduler calls of one strategy label: counts and measured ns.
#[derive(Debug, Clone, Copy, Default)]
struct CallStats {
    picks: u64,
    pick_ns: u64,
    footprints: u64,
    footprint_ns: u64,
    choices: u64,
    choice_ns: u64,
    probes: u64,
    probe_ns: u64,
    injected: u64,
}

impl CallStats {
    fn absorb(&mut self, other: &CallStats) {
        self.picks += other.picks;
        self.pick_ns += other.pick_ns;
        self.footprints += other.footprints;
        self.footprint_ns += other.footprint_ns;
        self.choices += other.choices;
        self.choice_ns += other.choice_ns;
        self.probes += other.probes;
        self.probe_ns += other.probe_ns;
        self.injected += other.injected;
    }

    fn calls(&self) -> u64 {
        self.picks + self.footprints + self.choices + self.probes
    }

    fn measured_ns(&self) -> u64 {
        self.pick_ns + self.footprint_ns + self.choice_ns + self.probe_ns
    }
}

/// Per-label call statistics; the last row collects labels outside
/// [`LABELS`].
type CallSink = Arc<Mutex<[CallStats; LABELS.len() + 1]>>;

/// Times every call into the wrapped scheduler and forwards every
/// [`Scheduler`] method unchanged. Counts accumulate locally and are added
/// to the shared sink when the scheduler is dropped.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    row: usize,
    local: CallStats,
    sink: CallSink,
}

impl TimedScheduler {
    fn new(inner: Box<dyn Scheduler>, row: usize, sink: CallSink) -> Self {
        TimedScheduler {
            inner,
            row,
            local: CallStats::default(),
            sink,
        }
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink[self.row].absorb(&self.local);
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId {
        let start = Instant::now();
        let picked = self.inner.next_machine(enabled, step);
        self.local.pick_ns += elapsed_ns(start);
        self.local.picks += 1;
        picked
    }

    fn next_bool(&mut self) -> bool {
        let start = Instant::now();
        let choice = self.inner.next_bool();
        self.local.choice_ns += elapsed_ns(start);
        self.local.choices += 1;
        choice
    }

    fn next_int(&mut self, bound: usize) -> usize {
        let start = Instant::now();
        let choice = self.inner.next_int(bound);
        self.local.choice_ns += elapsed_ns(start);
        self.local.choices += 1;
        choice
    }

    fn next_fault(&mut self, candidates: &[Fault], step: usize) -> Option<Fault> {
        let start = Instant::now();
        let fault = self.inner.next_fault(candidates, step);
        self.local.probe_ns += elapsed_ns(start);
        self.local.probes += 1;
        self.local.injected += u64::from(fault.is_some());
        fault
    }

    fn replay_error(&self) -> Option<&ReplayError> {
        self.inner.replay_error()
    }

    fn unfair_prefix_len(&self) -> Option<usize> {
        self.inner.unfair_prefix_len()
    }

    fn fair_step_spacing(&self, machines: usize) -> usize {
        self.inner.fair_step_spacing(machines)
    }

    fn note_footprint(&mut self, footprint: &StepFootprint) {
        let start = Instant::now();
        self.inner.note_footprint(footprint);
        self.local.footprint_ns += elapsed_ns(start);
        self.local.footprints += 1;
    }

    fn pruned_equivalents(&self) -> u64 {
        self.inner.pruned_equivalents()
    }

    fn races_detected(&self) -> u64 {
        self.inner.races_detected()
    }

    fn backtracks_scheduled(&self) -> u64 {
        self.inner.backtracks_scheduled()
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        let inner = self.inner.clone_box()?;
        Some(Box::new(TimedScheduler::new(
            inner,
            self.row,
            Arc::clone(&self.sink),
        )))
    }
}

/// Counts the traced engine takes per execution.
#[derive(Debug, Default)]
struct Tallies {
    executions: u64,
    steps: u64,
    decisions: u64,
    grace_steps: u64,
    restores: u64,
    dirty_machines: u64,
    bugs_won: [u64; LABELS.len()],
    shrink_candidates: u64,
    shrink_accepted: u64,
}

/// Issues the engine's iterations through the public API, timing each call.
struct TracedEngine<'r> {
    recorder: &'r RefCell<Recorder>,
    sink: CallSink,
    tallies: Tallies,
}

fn build_span_name(crate_name: &str) -> &'static str {
    match crate_name {
        "replsim" => "setup.replsim.build",
        "vnext" => "setup.vnext.build",
        "chaintable" => "setup.chaintable.build",
        "fabric" => "setup.fabric.build",
        "megakv" => "setup.megakv.build",
        other => panic!("no build span for crate {other}"),
    }
}

impl Engine for TracedEngine<'_> {
    fn run(&mut self, config: &TestConfig, target: &Target) -> EngineReport {
        let recorder = self.recorder;
        span(recorder, "engine.run", || self.iterate(config, target))
    }

    fn start_run(&mut self, index: usize) {
        self.recorder.borrow_mut().run = index;
    }
}

impl TracedEngine<'_> {
    /// What one single-worker engine call does, iteration by iteration:
    /// pool one runtime, fork from the post-setup snapshot under prefix
    /// sharing, stop at the first bug, rehydrate its trace when the run
    /// recorded decisions only, and shrink it when configured.
    fn iterate(&mut self, config: &TestConfig, target: &Target) -> EngineReport {
        let recorder = self.recorder;
        let build_name = build_span_name(target.crate_name);
        let build = |rt: &mut Runtime| span(recorder, build_name, || (target.build)(rt));
        let runtime_config = runtime_config(config);
        let mut pooled: Option<Runtime> = None;
        let mut snapshot: Option<RuntimeSnapshot> = None;
        let mut snapshot_failed = false;
        let mut steps_total = 0;
        let mut per_label = [LabelCount::default(); LABELS.len()];
        for iteration in 0..config.iterations {
            let strategy = config.strategy_for_iteration(iteration);
            let seed = config.seed_for_iteration(iteration);
            let row = label_index(strategy.label());
            let scheduler = Box::new(TimedScheduler::new(
                strategy.build(seed, config.max_steps),
                row.unwrap_or(LABELS.len()),
                Arc::clone(&self.sink),
            ));
            let share = config.prefix_sharing && !snapshot_failed;
            let (mut runtime, needs_setup) = match (share, &snapshot, pooled.take()) {
                (true, Some(snap), Some(mut runtime)) => {
                    self.tallies.restores += 1;
                    self.tallies.dirty_machines += runtime.dirty_machine_count() as u64;
                    span(recorder, "runtime.restore", || runtime.restore_from(snap));
                    runtime.set_scheduler(scheduler);
                    runtime.reseed(seed);
                    (runtime, false)
                }
                (_, _, Some(mut runtime)) => {
                    span(recorder, "runtime.reset", || {
                        runtime.reset(scheduler, runtime_config.clone(), seed)
                    });
                    (runtime, true)
                }
                (_, _, None) => (
                    span(recorder, "runtime.new", || {
                        Runtime::new(scheduler, runtime_config.clone(), seed)
                    }),
                    true,
                ),
            };
            if needs_setup {
                build(&mut runtime);
                if share {
                    match span(recorder, "runtime.snapshot", || runtime.snapshot()) {
                        Some(taken) => snapshot = Some(taken),
                        None => snapshot_failed = true,
                    }
                }
            }
            let outcome = span(recorder, "runtime.run", || runtime.run());
            let steps = runtime.steps() as u64;
            let ndc = runtime.trace().decision_count();
            steps_total += steps;
            self.tallies.executions += 1;
            self.tallies.steps += steps;
            self.tallies.decisions += ndc as u64;
            self.tallies.grace_steps += steps.saturating_sub(config.max_steps as u64);
            if let Some(row) = row {
                per_label[row].execs += 1;
                per_label[row].steps += steps;
            }
            if let ExecutionOutcome::BugFound(bug) = outcome {
                let mut trace = runtime.take_trace();
                if config.auto_decisions_only() {
                    trace = rehydrate(config, target, trace, &bug);
                }
                if let Some(row) = row {
                    self.tallies.bugs_won[row] += 1;
                }
                let shrink = config.shrink.then(|| {
                    let report = span(recorder, "shrink", || {
                        shrink_trace(&config.shrink_config(), &bug, &trace, &build)
                    });
                    self.tallies.shrink_candidates += report.candidates_tried;
                    self.tallies.shrink_accepted += report.candidates_reproduced;
                    Shrunk {
                        minimized_ndc: report.minimized_decisions,
                        trace: report.minimized,
                        candidates: report.candidates_tried,
                        seconds: report.elapsed.as_secs_f64(),
                    }
                });
                return EngineReport {
                    iterations: iteration + 1,
                    steps: steps_total,
                    bug: Some(Found {
                        bug,
                        trace,
                        ndc,
                        strategy: strategy.label(),
                        shrink,
                    }),
                    per_label,
                };
            }
            pooled = Some(runtime);
        }
        EngineReport {
            iterations: config.iterations,
            steps: steps_total,
            bug: None,
            per_label,
        }
    }
}

/// Re-records a decisions-only bug trace in full by strict replay, as the
/// engine does before it reports the bug; keeps `trace` if the replay does
/// not reproduce the bug.
fn rehydrate(config: &TestConfig, target: &Target, trace: Trace, bug: &Bug) -> Trace {
    let mut replay_config = runtime_config(config);
    replay_config.trace_mode = TraceMode::Full;
    let scheduler = Box::new(ReplayScheduler::from_trace(&trace));
    let mut runtime = Runtime::new(scheduler, replay_config, trace.seed);
    (target.build)(&mut runtime);
    let outcome = runtime.run();
    let reproduced = matches!(&outcome, ExecutionOutcome::BugFound(found) if same_bug(found, bug));
    if reproduced && runtime.replay_error().is_none() {
        runtime.take_trace()
    } else {
        trace
    }
}

/// The cost of the timer reads around one call, in ns: `inside` is what a
/// measured interval adds (one clock read), `outside` what the caller pays
/// beyond the interval. Medians of several batches.
struct Calibration {
    inside: f64,
    outside: f64,
}

fn calibrate() -> Calibration {
    const CALLS: u32 = 200_000;
    let mut inside = Vec::new();
    let mut pair = Vec::new();
    for _ in 0..7 {
        let batch = Instant::now();
        let mut measured = 0u64;
        for _ in 0..CALLS {
            let start = Instant::now();
            measured += elapsed_ns(std::hint::black_box(start));
        }
        let total = elapsed_ns(batch);
        inside.push(std::hint::black_box(measured) as f64 / f64::from(CALLS));
        pair.push(total as f64 / f64::from(CALLS));
    }
    let inside = median(&inside);
    Calibration {
        inside,
        outside: (median(&pair) - inside).max(0.0),
    }
}

/// Rounds of the workload the traced run covers: a third of an untraced
/// run's, so the baseline plus the traced pass fit in one run's time.
fn traced_rounds(rounds: usize) -> usize {
    rounds.div_ceil(3)
}

/// Where the spans are written: `out/` beside the benchmark's manifest.
fn spans_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.tsv", workload.name()))
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from("run\tname\tstart_ns\tend_ns\tparent\n");
    for span in spans {
        let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}",
            span.run, span.name, span.start, span.end
        );
    }
    let dir = path.parent().expect("spans path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the traced run of `workload`, writes its spans, and returns its
/// per-layer metrics with the attempted and failed run counts of the traced
/// work.
pub fn run(workload: Workload, seed: u64, rounds: usize) -> Result<(Metrics, u64, u64), String> {
    let plan = Plan::new(workload, seed, traced_rounds(rounds));
    let (metrics, failed, spans) = trace_plan(&plan)?;
    write_spans(&spans_path(workload, seed), &spans)?;
    Ok((metrics, plan.runs.len() as u64, failed))
}

/// Runs `plan` untraced as the baseline (with output checks), then traced;
/// fails unless the traced iterations reproduce the baseline's counts.
/// Returns the per-layer metrics, the failed runs and the recorded spans.
pub fn trace_plan(plan: &Plan) -> Result<(Metrics, u64, Vec<Span>), String> {
    let calibration = calibrate();
    let baseline = run_pass(plan, &mut Untraced, &|spec, result| {
        check_run(plan, spec, result)
    })?;
    // Read before the traced pass allocates its spans.
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);

    let recorder = RefCell::new(Recorder::new());
    let sink: CallSink = Arc::new(Mutex::new([CallStats::default(); LABELS.len() + 1]));
    let mut engine = TracedEngine {
        recorder: &recorder,
        sink: Arc::clone(&sink),
        tallies: Tallies::default(),
    };
    let traced = run_pass(plan, &mut engine, &|_, _| Ok(()))?;
    if traced.counts() != baseline.counts() {
        return Err("the traced run did not reproduce the untraced run's counts".into());
    }
    let tallies = engine.tallies;
    let recorder = recorder.into_inner();
    let calls = *sink.lock().map_err(|_| "call sink poisoned")?;
    let mut metrics = per_layer(
        &calibration,
        &recorder,
        &calls,
        &tallies,
        &baseline,
        &traced,
    );
    metrics.push("peak_rss_mb", "MB", peak_rss_mb);
    let hunts = plan.workload.hunts();
    let failed = traced.runs.iter().filter(|r| r.failed(hunts)).count() as u64;
    Ok((metrics, failed, recorder.spans))
}

/// Folds spans, scheduler calls and tallies into the per-layer metrics.
fn per_layer(
    calibration: &Calibration,
    recorder: &Recorder,
    calls: &[CallStats; LABELS.len() + 1],
    tallies: &Tallies,
    baseline: &Pass,
    traced: &Pass,
) -> Metrics {
    let own = recorder.self_times();
    let self_ns = |name: &str| -> f64 {
        recorder
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |sum, (_, t)| sum + *t as f64)
    };
    let total_ns = |name: &str| -> f64 {
        recorder
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + (s.end - s.start) as f64)
    };
    // A measured call time minus the clock read inside it.
    let net = |ns: u64, n: u64| (ns as f64 - n as f64 * calibration.inside).max(0.0);
    let mut all = CallStats::default();
    for row in calls {
        all.absorb(row);
    }
    let per_exec = |x: u64| x as f64 / tallies.executions.max(1) as f64;

    let mut m = Metrics::default();
    m.push("scheduler.pick_ns", "ns", net(all.pick_ns, all.picks));
    m.push("scheduler.picks", "count", all.picks as f64);
    m.push(
        "scheduler.footprint_ns",
        "ns",
        net(all.footprint_ns, all.footprints),
    );
    m.push("scheduler.footprints", "count", all.footprints as f64);
    m.push("scheduler.choice_ns", "ns", net(all.choice_ns, all.choices));
    m.push("scheduler.choices", "count", all.choices as f64);
    for (row, label) in LABELS.iter().enumerate() {
        let steps: u64 = traced.runs.iter().map(|r| r.per_label[row].steps).sum();
        let execs: u64 = traced.runs.iter().map(|r| r.per_label[row].execs).sum();
        let c = &calls[row];
        m.push(format!("scheduler.{label}.steps"), "count", steps as f64);
        m.push(format!("scheduler.{label}.execs"), "count", execs as f64);
        m.push(
            format!("scheduler.{label}.pick_ns"),
            "ns",
            net(c.pick_ns, c.picks),
        );
        m.push(
            format!("scheduler.{label}.footprint_ns"),
            "ns",
            net(c.footprint_ns, c.footprints),
        );
        m.push(
            format!("scheduler.{label}.bugs_won"),
            "count",
            tallies.bugs_won[row] as f64,
        );
    }
    m.push("fault.probe_ns", "ns", net(all.probe_ns, all.probes));
    m.push("fault.probes", "count", all.probes as f64);
    m.push("fault.injected", "count", all.injected as f64);

    // Runtime::run minus every scheduler call under it, with the timer
    // reads both inside and outside the measured intervals taken off.
    let runtime_self = (self_ns("runtime.run")
        - all.measured_ns() as f64
        - all.calls() as f64 * calibration.outside)
        .max(0.0);
    m.push(
        "runtime.step_ns",
        "ns",
        runtime_self / tallies.steps.max(1) as f64,
    );
    m.push("runtime.self_ns", "ns", runtime_self);
    m.push(
        "runtime.grace_steps",
        "count",
        per_exec(tallies.grace_steps),
    );
    m.push("runtime.new_ns", "ns", self_ns("runtime.new"));
    m.push("runtime.reset_ns", "ns", self_ns("runtime.reset"));
    m.push("runtime.restore_ns", "ns", self_ns("runtime.restore"));
    m.push("runtime.snapshot_ns", "ns", self_ns("runtime.snapshot"));
    m.push(
        "runtime.dirty_machines",
        "count",
        tallies.dirty_machines as f64 / tallies.restores.max(1) as f64,
    );
    for name in CRATES {
        m.push(
            format!("setup.{name}.build_ns"),
            "ns",
            self_ns(build_span_name(name)),
        );
    }
    m.push(
        "trace.decisions_per_exec",
        "count",
        per_exec(tallies.decisions),
    );
    m.push(
        "shrink.candidates",
        "count",
        tallies.shrink_candidates as f64,
    );
    m.push("shrink.accepted", "count", tallies.shrink_accepted as f64);
    m.push(
        "shrink.accept_ratio",
        "ratio",
        tallies.shrink_accepted as f64 / tallies.shrink_candidates.max(1) as f64,
    );
    m.push(
        "shrink.candidate_ns",
        "ns",
        total_ns("shrink") / tallies.shrink_candidates.max(1) as f64,
    );
    m.push("shrink.pass_s", "s", total_ns("shrink") / 1e9);
    m.push("engine.iterations", "count", tallies.executions as f64);
    m.push("engine.residual_s", "s", self_ns("engine.run") / 1e9);
    m.push(
        "tracing.overhead_ratio",
        "ratio",
        traced.seconds / baseline.seconds,
    );
    m.push(
        "tracing.timer_pair_ns",
        "ns",
        calibration.inside + calibration.outside,
    );
    m
}
