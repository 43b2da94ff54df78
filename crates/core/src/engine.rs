//! The systematic testing engine.
//!
//! A [`TestEngine`] repeatedly executes a test harness from start to
//! completion, each time exploring a potentially different set of
//! nondeterministic choices, until it either reaches a user-supplied bound
//! (number of executions) or it hits a safety or liveness property violation.
//! On a violation it returns a [`BugReport`] containing the replayable
//! [`Trace`] of the buggy execution.
//!
//! Every execution takes the same per-iteration path,
//! [`TestConfig::run_iteration`]: the iteration index determines the seed
//! ([`TestConfig::seed_for_iteration`]) *and*, in portfolio mode, the
//! scheduling strategy ([`TestConfig::strategy_for_iteration`]). With
//! [`TestConfig::workers`] above one, worker threads pull adaptive chunks of
//! the iteration space from a shared work-stealing queue and can run a
//! *portfolio* of scheduling strategies side by side, the parallel testing
//! mode popularized by P#/Coyote. First-bug selection is deterministic: the
//! bug at the lowest iteration index wins, regardless of which worker's
//! execution finished first, and doomed executions above that index are
//! cancelled step-by-step instead of running to their bound. A run therefore
//! reports the identical (iteration, seed, strategy, bug) result at any
//! worker count.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::Bug;
use crate::fault::FaultPlan;
use crate::rng::{mix64, GOLDEN_GAMMA};
use crate::runtime::{CancelToken, ExecutionOutcome, Runtime, RuntimeConfig, RuntimeSnapshot};
use crate::scheduler::{ReplayScheduler, SchedulerKind};
use crate::shrink::{same_bug, shrink_trace, ShrinkConfig, ShrinkReport};
use crate::stats::StrategyStats;
use crate::trace::{Trace, TraceMode};

/// Salt decorrelating the strategy-selection stream from the per-iteration
/// execution seeds: both are derived from [`TestConfig::seed`], but through
/// different streams, so which strategy drives an iteration carries no
/// information about the random choices made inside it.
const STRATEGY_STREAM: u64 = 0xA5A3_1E8F_5C6D_92B7;

/// Configuration of a systematic testing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestConfig {
    /// Maximum number of executions to explore.
    pub iterations: u64,
    /// Step bound per execution (the "infinite execution" approximation for
    /// liveness checking).
    pub max_steps: usize,
    /// Base random seed; each iteration derives its own seed from it.
    pub seed: u64,
    /// Scheduling strategy.
    pub scheduler: SchedulerKind,
    /// Whether liveness monitors are also checked when the system quiesces.
    pub check_liveness_at_quiescence: bool,
    /// Whether machine panics are caught and reported as bugs.
    pub catch_panics: bool,
    /// Number of workers [`TestEngine::run`] lets steal from the shared
    /// iteration queue. The report does not depend on it; `1` (the default)
    /// runs the iterations in order on the caller's thread.
    pub workers: usize,
    /// Optional scheduler portfolio: iteration `i` runs the strategy
    /// [`TestConfig::strategy_for_iteration`] picks from this list (a
    /// seed-derived, worker-count-independent assignment) instead of
    /// [`TestConfig::scheduler`].
    pub portfolio: Option<Vec<SchedulerKind>>,
    /// How much of the human-facing annotated schedule each execution's
    /// trace retains ([`TraceMode::Full`] by default). Replayability is
    /// unaffected: the decision stream is always recorded in full.
    ///
    /// When this field is left untouched (see
    /// [`TestConfig::effective_trace_mode`]), portfolio sweeps without
    /// shrinking automatically record in [`TraceMode::DecisionsOnly`] — the
    /// cheapest mode — and a found bug's annotated schedule is re-recorded
    /// from a strict replay before the report is returned.
    pub trace_mode: TraceMode,
    /// Whether `trace_mode` was set explicitly
    /// ([`TestConfig::with_trace_mode`]); an explicit choice disables the
    /// automatic `DecisionsOnly` selection for portfolio sweeps.
    pub trace_mode_explicit: bool,
    /// Whether a found bug's trace is automatically delta-debugged down to a
    /// minimal replayable counterexample ([`crate::shrink`]) before the
    /// report is returned.
    pub shrink: bool,
    /// Maximum number of candidate executions one shrink pass may spend.
    pub shrink_budget: u64,
    /// Per-execution fault budget ([`FaultPlan::none`] by default): how many
    /// crashes, restarts, message drops and duplications the scheduler may
    /// inject into machines the harness marked crashable / restartable /
    /// lossy. See [`crate::fault`].
    pub faults: FaultPlan,
    /// Whether engines share the post-setup state across iterations via
    /// [`Runtime::snapshot`]: the harness's `setup` closure runs once per
    /// worker, each subsequent iteration forks from the captured snapshot
    /// instead of re-running setup. Requires every machine and monitor the
    /// setup creates to implement `clone_state` (and any event it enqueues
    /// to be [`Event::replicable`](crate::event::Event::replicable));
    /// otherwise the engine silently falls back to straight-line execution.
    /// Results are identical either way, at any worker count.
    pub prefix_sharing: bool,
}

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            iterations: 1_000,
            max_steps: 5_000,
            seed: 0,
            scheduler: SchedulerKind::Random,
            check_liveness_at_quiescence: true,
            catch_panics: true,
            workers: 1,
            portfolio: None,
            trace_mode: TraceMode::Full,
            trace_mode_explicit: false,
            shrink: false,
            shrink_budget: 2_000,
            faults: FaultPlan::none(),
            prefix_sharing: false,
        }
    }
}

impl TestConfig {
    /// Creates a configuration with the default exploration bounds.
    pub fn new() -> Self {
        TestConfig::default()
    }

    /// Sets the number of executions to explore.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the per-execution step bound.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the base random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling strategy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the number of worker threads used by [`TestEngine::run`].
    ///
    /// Zero is treated as one.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Assigns a scheduler portfolio: iteration `i` runs the strategy
    /// [`TestConfig::strategy_for_iteration`] picks from the list. An empty
    /// portfolio is ignored.
    pub fn with_portfolio(mut self, portfolio: Vec<SchedulerKind>) -> Self {
        self.portfolio = if portfolio.is_empty() {
            None
        } else {
            Some(portfolio)
        };
        self
    }

    /// Assigns the default portfolio
    /// ([`SchedulerKind::default_portfolio`]): random, PCT with several
    /// change-point budgets, delay-bounding, a probabilistic random walk,
    /// and round-robin.
    pub fn with_default_portfolio(self) -> Self {
        self.with_portfolio(SchedulerKind::default_portfolio())
    }

    /// Sets how much of the annotated schedule each execution's trace
    /// retains. `TraceMode::RingBuffer(cap)` bounds peak trace memory on
    /// very long executions; replay is unaffected under every mode. An
    /// explicit choice here also disables the automatic `DecisionsOnly`
    /// selection for portfolio sweeps
    /// ([`TestConfig::effective_trace_mode`]).
    pub fn with_trace_mode(mut self, trace_mode: TraceMode) -> Self {
        self.trace_mode = trace_mode;
        self.trace_mode_explicit = true;
        self
    }

    /// Sets the per-execution fault budget: how many crashes, restarts,
    /// message drops and duplications the scheduler may inject into machines
    /// the harness marked crashable / restartable / lossy
    /// ([`crate::fault`]). Injected faults are first-class decisions — they
    /// replay byte-for-byte and the shrink pass reduces a buggy execution to
    /// its minimum fault set.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables (or disables) prefix sharing ([`TestConfig::prefix_sharing`]):
    /// the harness setup executes once per worker and every subsequent
    /// iteration forks from a snapshot of the post-setup state.
    pub fn with_prefix_sharing(mut self, prefix_sharing: bool) -> Self {
        self.prefix_sharing = prefix_sharing;
        self
    }

    /// Enables (or disables) automatic schedule shrinking: a found bug's
    /// trace is delta-debugged down to a minimal replayable counterexample
    /// and attached to the report as [`BugReport::shrink`].
    pub fn with_shrink(mut self, shrink: bool) -> Self {
        self.shrink = shrink;
        self
    }

    /// Bounds the number of candidate executions one shrink pass may spend.
    pub fn with_shrink_budget(mut self, shrink_budget: u64) -> Self {
        self.shrink_budget = shrink_budget;
        self
    }

    /// The shrink-pass parameters derived from this configuration.
    pub fn shrink_config(&self) -> ShrinkConfig {
        ShrinkConfig {
            max_steps: self.max_steps,
            check_liveness_at_quiescence: self.check_liveness_at_quiescence,
            catch_panics: self.catch_panics,
            max_candidates: self.shrink_budget,
            faults: self.faults,
        }
    }

    /// Whether this configuration auto-selects [`TraceMode::DecisionsOnly`]:
    /// a portfolio sweep with no explicit trace-mode choice and no shrink
    /// pass records only the replay-bearing decision stream — peak trace
    /// memory stops scaling with the execution length, and bug-free sweeps
    /// (the common case for portfolio verification runs) never materialize
    /// an annotated schedule at all. When a bug *is* found, the engine
    /// re-records its annotated schedule from a strict replay, so reports
    /// look identical to full-mode runs.
    pub fn auto_decisions_only(&self) -> bool {
        !self.trace_mode_explicit && self.portfolio.is_some() && !self.shrink
    }

    /// The trace mode executions actually record with: the configured
    /// [`TestConfig::trace_mode`], or [`TraceMode::DecisionsOnly`] when
    /// [`TestConfig::auto_decisions_only`] applies.
    pub fn effective_trace_mode(&self) -> TraceMode {
        if self.auto_decisions_only() {
            TraceMode::DecisionsOnly
        } else {
            self.trace_mode
        }
    }

    /// Re-records a found bug's annotated schedule via strict replay when
    /// the run recorded under the auto-selected `DecisionsOnly` mode. The
    /// replay is deterministic, so the rehydrated trace is identical at any
    /// worker count; on the (impossible in practice) chance the replay does
    /// not reproduce the bug, the decisions-only trace is kept as recorded.
    fn rehydrate_report<F>(&self, report: &mut BugReport, setup: &F)
    where
        F: Fn(&mut Runtime),
    {
        if !self.auto_decisions_only() {
            return;
        }
        let mut config = self.runtime_config();
        config.trace_mode = TraceMode::Full;
        let scheduler = Box::new(ReplayScheduler::from_trace(&report.trace));
        let mut runtime = Runtime::new(scheduler, config, report.trace.seed);
        setup(&mut runtime);
        let outcome = runtime.run();
        let reproduced =
            matches!(&outcome, ExecutionOutcome::BugFound(found) if same_bug(found, &report.bug));
        if reproduced && runtime.replay_error().is_none() {
            report.trace = runtime.take_trace();
        }
    }

    /// Runs the configured shrink pass over a found bug and attaches the
    /// result to the report. No-op when shrinking is disabled.
    fn attach_shrink<F>(&self, report: &mut BugReport, setup: &F)
    where
        F: Fn(&mut Runtime),
    {
        if self.shrink {
            report.shrink = Some(shrink_trace(
                &self.shrink_config(),
                &report.bug,
                &report.trace,
                setup,
            ));
        }
    }

    /// The index of the portfolio entry that drives `iteration`, or `None`
    /// when no portfolio is configured.
    ///
    /// The pick is derived from the base seed through its own stream, so the
    /// strategy mix over the iteration space is stable for a given seed,
    /// unbiased across the portfolio, and — because it depends only on the
    /// iteration index — identical at any worker count.
    pub fn portfolio_index_for_iteration(&self, iteration: u64) -> Option<usize> {
        match &self.portfolio {
            Some(portfolio) if !portfolio.is_empty() => {
                let hash = mix64(
                    mix64(self.seed ^ STRATEGY_STREAM)
                        .wrapping_add(iteration.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
                );
                Some((hash % portfolio.len() as u64) as usize)
            }
            _ => None,
        }
    }

    /// The scheduling strategy that drives `iteration`: the seed-derived
    /// portfolio pick when a portfolio is configured, the base scheduler
    /// otherwise.
    pub fn strategy_for_iteration(&self, iteration: u64) -> SchedulerKind {
        match self.portfolio_index_for_iteration(iteration) {
            Some(index) => self.portfolio.as_ref().expect("index implies portfolio")[index],
            None => self.scheduler,
        }
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            max_steps: self.max_steps,
            check_liveness_at_quiescence: self.check_liveness_at_quiescence,
            catch_panics: self.catch_panics,
            trace_mode: self.effective_trace_mode(),
            faults: self.faults,
        }
    }

    /// The seed that drives iteration `iteration` of a run with this
    /// configuration.
    ///
    /// The base seed and the iteration index are combined through the full
    /// SplitMix64 finalizer twice (once over the base seed, once over the
    /// sum): a single XOR-with-multiply left the iteration-seed streams of
    /// nearby base seeds heavily overlapping, so two "independent" runs
    /// explored mostly the same executions.
    pub fn seed_for_iteration(&self, iteration: u64) -> u64 {
        Self::derive_seed(mix64(self.seed), iteration)
    }

    /// Batch seed derivation for a contiguous chunk of the iteration space,
    /// used by the work-stealing engine after each chunk pop: `out` is
    /// cleared and filled with the seeds of `range`, mixing the base seed
    /// once for the whole chunk instead of once per iteration.
    pub fn seeds_for_chunk(&self, range: Range<u64>, out: &mut Vec<u64>) {
        out.clear();
        let base = mix64(self.seed);
        out.extend(range.map(|iteration| Self::derive_seed(base, iteration)));
    }

    fn derive_seed(mixed_base: u64, iteration: u64) -> u64 {
        mix64(mixed_base.wrapping_add(iteration.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Runs one iteration of this configuration's exploration space: builds
    /// the iteration's scheduler ([`TestConfig::strategy_for_iteration`]) and
    /// seed ([`TestConfig::seed_for_iteration`]), executes the harness built
    /// by `setup` once, and classifies the result.
    ///
    /// This is the execution path every [`TestEngine`] iteration takes;
    /// `cancel` is the step-level cancellation handle multi-threaded runs
    /// install.
    pub fn run_iteration<F>(
        &self,
        iteration: u64,
        cancel: Option<CancelToken>,
        setup: &F,
    ) -> IterationOutcome
    where
        F: Fn(&mut Runtime),
    {
        self.run_iteration_seeded(
            iteration,
            self.seed_for_iteration(iteration),
            cancel,
            setup,
            &mut IterationPool::new(),
        )
    }

    /// [`TestConfig::run_iteration`] with the seed precomputed by
    /// [`TestConfig::seeds_for_chunk`] (must equal
    /// `seed_for_iteration(iteration)`) and a worker-local
    /// [`IterationPool`]: engines thread the previous iteration's whole
    /// `Runtime` back in through the pool, so steady-state iterations
    /// [`Runtime::reset`] the pooled instance — machines, mailboxes, name
    /// table, trace and the enabled/fault buffers all keep their grown
    /// storage — instead of constructing a fresh runtime per execution.
    ///
    /// Under [`TestConfig::prefix_sharing`] the pool additionally caches a
    /// snapshot of the post-setup state: the first iteration runs `setup`
    /// and captures it, every later iteration [`Runtime::restore_from`]s the
    /// snapshot (then installs its own scheduler and seed) instead of
    /// re-running setup. Restoring a depth-0 snapshot is observationally
    /// identical to `reset` + `setup` — setup is deterministic and takes no
    /// scheduler decisions — so results stay byte-identical, at any worker
    /// count. When the harness state is not snapshotable the pool remembers
    /// the failure and every iteration takes the straight-line path.
    fn run_iteration_seeded<F>(
        &self,
        iteration: u64,
        seed: u64,
        cancel: Option<CancelToken>,
        setup: &F,
        pool: &mut IterationPool,
    ) -> IterationOutcome
    where
        F: Fn(&mut Runtime),
    {
        debug_assert_eq!(seed, self.seed_for_iteration(iteration));
        let portfolio_entry = self.portfolio_index_for_iteration(iteration);
        let strategy = match portfolio_entry {
            Some(entry) => self.portfolio.as_ref().expect("entry implies portfolio")[entry],
            None => self.scheduler,
        };
        let scheduler = strategy.build(seed, self.max_steps);
        let share = self.prefix_sharing && !pool.snapshot_failed;
        let (mut runtime, needs_setup) = match (share, &pool.snapshot, pool.runtime.take()) {
            (true, Some(snapshot), Some(mut pooled)) => {
                pooled.restore_from(snapshot);
                pooled.set_scheduler(scheduler);
                pooled.reseed(seed);
                (pooled, false)
            }
            (_, _, Some(mut pooled)) => {
                pooled.reset(scheduler, self.runtime_config(), seed);
                (pooled, true)
            }
            (_, _, None) => (Runtime::new(scheduler, self.runtime_config(), seed), true),
        };
        if let Some(token) = cancel {
            runtime.set_cancel_token(token);
        }
        if needs_setup {
            setup(&mut runtime);
            if share {
                match runtime.snapshot() {
                    Some(snapshot) => pool.snapshot = Some(snapshot),
                    None => pool.snapshot_failed = true,
                }
            }
        }
        let status = match runtime.run() {
            ExecutionOutcome::BugFound(bug) => IterationStatus::BugFound {
                bug,
                ndc: runtime.trace().decision_count(),
                trace: Box::new(runtime.take_trace()),
            },
            ExecutionOutcome::Cancelled => IterationStatus::Cancelled,
            ExecutionOutcome::Quiescent | ExecutionOutcome::MaxStepsReached => {
                IterationStatus::Completed
            }
        };
        let steps = runtime.steps() as u64;
        let pruned = runtime.pruned_equivalents();
        let races = runtime.races_detected();
        let backtracks = runtime.backtracks_scheduled();
        // Hand the runtime back for the next iteration. (After a bug the
        // recorded trace went into the outcome and the runtime carries an
        // empty replacement — pooling it is still correct, just cheaper.)
        pool.runtime = Some(runtime);
        IterationOutcome {
            iteration,
            seed,
            strategy,
            portfolio_entry,
            steps,
            pruned,
            races,
            backtracks,
            status,
        }
    }
}

/// Worker-local execution state threaded through consecutive iterations:
/// the pooled [`Runtime`] ([`Runtime::reset`] keeps its grown storage) and,
/// under [`TestConfig::prefix_sharing`], the cached post-setup
/// [`RuntimeSnapshot`] iterations fork from (or the memo that snapshotting
/// failed, so the fallback is decided once, not per iteration).
struct IterationPool {
    runtime: Option<Runtime>,
    snapshot: Option<RuntimeSnapshot>,
    snapshot_failed: bool,
}

impl IterationPool {
    fn new() -> Self {
        IterationPool {
            runtime: None,
            snapshot: None,
            snapshot_failed: false,
        }
    }
}

/// How one iteration of the exploration space ended.
#[derive(Debug)]
pub enum IterationStatus {
    /// The execution ran to quiescence or its step bound without a violation.
    Completed,
    /// A multi-threaded run cancelled the execution mid-flight (a lower
    /// iteration already holds a bug); its partial step count still tallies.
    Cancelled,
    /// The execution violated a property. The trace is boxed so the common
    /// `Completed` outcome stays a few machine words.
    BugFound {
        /// The violation.
        bug: Bug,
        /// Number of nondeterministic choices in the buggy execution.
        ndc: usize,
        /// The replayable trace of the buggy execution.
        trace: Box<Trace>,
    },
}

/// The classified result of [`TestConfig::run_iteration`]: which iteration
/// ran, with which seed and strategy, how many steps it took and how it
/// ended.
#[derive(Debug)]
pub struct IterationOutcome {
    /// The iteration index.
    pub iteration: u64,
    /// The seed that drove the execution
    /// ([`TestConfig::seed_for_iteration`]).
    pub seed: u64,
    /// The strategy that drove the execution
    /// ([`TestConfig::strategy_for_iteration`]).
    pub strategy: SchedulerKind,
    /// The portfolio index the strategy came from
    /// ([`TestConfig::portfolio_index_for_iteration`]), `None` without a
    /// portfolio — carried so attribution never re-derives the selection
    /// hash.
    pub portfolio_entry: Option<usize>,
    /// Machine steps the execution performed (partial for cancelled ones).
    pub steps: u64,
    /// Schedule-equivalents the iteration's scheduler pruned
    /// ([`Scheduler::pruned_equivalents`](crate::scheduler::Scheduler::pruned_equivalents));
    /// zero for non-reducing strategies.
    pub pruned: u64,
    /// Racing step pairs the iteration's scheduler detected
    /// ([`Scheduler::races_detected`](crate::scheduler::Scheduler::races_detected));
    /// zero for strategies without vector-clock tracking.
    pub races: u64,
    /// Scheduling points the iteration's scheduler resolved from a DPOR
    /// backtrack
    /// ([`Scheduler::backtracks_scheduled`](crate::scheduler::Scheduler::backtracks_scheduled)).
    pub backtracks: u64,
    /// How the execution ended.
    pub status: IterationStatus,
}

/// The first property violation found by a testing run, together with
/// everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// The violation.
    pub bug: Bug,
    /// The (0-based) iteration at which it was found.
    pub iteration: u64,
    /// Number of nondeterministic choices made in the buggy execution
    /// (the paper's `#NDC`).
    pub ndc: usize,
    /// The replayable trace of the buggy execution, as originally recorded
    /// (see [`BugReport::original`]).
    pub trace: Trace,
    /// Time elapsed from the start of the run until the bug was found.
    pub time_to_bug: Duration,
    /// The schedule-shrinking result, when the run was configured with
    /// [`TestConfig::with_shrink`]: reduction statistics plus the minimized,
    /// replay-verified counterexample.
    pub shrink: Option<ShrinkReport>,
}

impl BugReport {
    /// The originally recorded trace of the buggy execution.
    pub fn original(&self) -> &Trace {
        &self.trace
    }

    /// The minimized counterexample, when a shrink pass ran.
    pub fn minimized(&self) -> Option<&Trace> {
        self.shrink.as_ref().map(|s| &s.minimized)
    }

    /// The best trace to hand a human: the minimized counterexample when
    /// shrinking ran, the original recording otherwise.
    pub fn best_trace(&self) -> &Trace {
        self.minimized().unwrap_or(&self.trace)
    }
}

/// Outcome of a systematic testing run.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// The first violation found, if any.
    pub bug: Option<BugReport>,
    /// Number of executions explored to completion (including the buggy
    /// one); executions cancelled mid-flight are not counted.
    pub iterations_run: u64,
    /// Total machine steps executed, including the partial work of
    /// executions cancelled mid-flight.
    pub total_steps: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Label of the scheduler that drove the run. For a portfolio run this is
    /// the strategy that found the bug, or `"portfolio"` when no bug was
    /// found.
    pub scheduler: &'static str,
    /// Number of worker threads that explored the iteration space.
    pub workers: usize,
    /// Exploration statistics per scheduling strategy (a single row outside
    /// portfolio mode, one row per distinct portfolio strategy otherwise).
    pub per_strategy: Vec<StrategyStats>,
}

impl TestReport {
    /// Returns `true` when a property violation was found.
    pub fn found_bug(&self) -> bool {
        self.bug.is_some()
    }

    /// Executions explored per second of wall-clock time.
    pub fn executions_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.iterations_run as f64 / secs
        }
    }

    /// Renders the per-strategy attribution as an aligned table, one line per
    /// strategy.
    pub fn strategy_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&StrategyStats::table_header());
        out.push('\n');
        for row in &self.per_strategy {
            out.push_str(&row.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders a short human-readable summary.
    pub fn summary(&self) -> String {
        match &self.bug {
            Some(report) => format!(
                "BUG FOUND ({}) after {} executions in {:.2}s with {} nondeterministic choices: {}",
                self.scheduler,
                report.iteration + 1,
                report.time_to_bug.as_secs_f64(),
                report.ndc,
                report.bug
            ),
            None => format!(
                "no bug found ({}) in {} executions ({:.2}s, {:.0} exec/s)",
                self.scheduler,
                self.iterations_run,
                self.elapsed.as_secs_f64(),
                self.executions_per_second()
            ),
        }
    }
}

/// Systematically tests a harness by exploring many executions.
///
/// Iteration `i` of a run executes with the seed
/// [`TestConfig::seed_for_iteration`] and the strategy
/// [`TestConfig::strategy_for_iteration`] assign it, and the run stops at the
/// lowest buggy iteration. With [`TestConfig::workers`] above one, worker
/// threads claim adaptively sized chunks of the iteration space from a shared
/// atomic counter: a fast worker that drains a cheap stretch of the space
/// simply claims the next chunk, so skewed harnesses (where some seeds run
/// 100× longer than others) do not starve `W - 1` workers the way fixed
/// striping did. An `N`-worker run explores the identical *set* of
/// (iteration, seed) pairs as a one-worker run, just faster.
///
/// Each worker pools one [`Runtime`] across its iterations
/// ([`Runtime::reset`]) and tallies statistics into worker-local
/// [`StrategyStats`] rows merged once at the end, so the per-iteration hot
/// path touches exactly two shared atomics (the work counter, amortized over
/// a chunk, and the bug bound) and allocates nothing in the steady state.
/// Because results are worker-count-independent by construction, the engine
/// caps the OS threads it uses at the host's available parallelism —
/// requesting more workers than cores changes nothing about the report and
/// does not pay for time-sliced thread churn. When only one thread would
/// run, the loop runs on the caller's thread.
///
/// With [`TestConfig::with_portfolio`] the run mixes scheduling strategies
/// (portfolio testing, the parallel testing mode popularized by P#/Coyote):
/// random, PCT with several priority-change budgets, delay-bounding, a
/// probabilistic random walk and round-robin attack the same harness from
/// different angles, and [`TestReport::per_strategy`] shows which strategy
/// earned the bug. Which strategy drives an iteration is decided by the
/// *iteration index*, never by which worker claimed the chunk, so the
/// strategy mix — and therefore every execution — is identical at any worker
/// count.
///
/// # Deterministic first-bug selection
///
/// The reported bug is the one at the **lowest iteration index**, not the one
/// whose worker happened to finish first: a found bug publishes its iteration
/// as a shared bound, iterations above the bound are skipped or cancelled
/// *step-by-step* (the runtime polls a [`CancelToken`] inside its step loop,
/// so a doomed execution stops within one machine step instead of running to
/// its `max_steps` bound), and iterations below it always run to completion.
/// The winning (iteration, seed, strategy, trace) tuple is therefore the same
/// at any worker count, in portfolio mode exactly as in single-strategy mode.
///
/// One caveat: determinism covers the *winning tuple only*. In multi-worker
/// runs that find a bug, aggregate counters ([`TestReport::iterations_run`],
/// [`TestReport::total_steps`], [`BugReport::time_to_bug`]) still depend on
/// how far other workers got before cancellation. Bug-free runs exhaust every
/// iteration, so their counters — including the per-strategy attribution
/// rows — are deterministic too.
///
/// # Examples
///
/// ```
/// use psharp::prelude::*;
///
/// #[derive(Debug)]
/// struct Go;
///
/// struct Flaky;
/// impl Machine for Flaky {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         // A bug that manifests only under one of the controlled choices.
///         let unlucky = ctx.random_bool();
///         ctx.assert(!unlucky, "the unlucky path was taken");
///     }
///     fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
/// }
///
/// let engine = TestEngine::new(TestConfig::new().with_iterations(100));
/// let report = engine.run(|rt| {
///     rt.create_machine(Flaky);
/// });
/// assert!(report.found_bug());
///
/// // The same hunt over four workers and the default portfolio.
/// let config = TestConfig::new()
///     .with_iterations(100)
///     .with_workers(4)
///     .with_default_portfolio();
/// let report = TestEngine::new(config).run(|rt| {
///     rt.create_machine(Flaky);
/// });
/// assert!(report.found_bug());
/// ```
#[derive(Debug, Clone)]
pub struct TestEngine {
    config: TestConfig,
}

impl TestEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: TestConfig) -> Self {
        TestEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TestConfig {
        &self.config
    }

    /// Runs up to `iterations` executions of the harness built by `setup`
    /// across the configured workers, stopping at the first property
    /// violation.
    ///
    /// The `setup` closure is invoked with a fresh (or reset) [`Runtime`]
    /// once per execution — once per worker under
    /// [`TestConfig::prefix_sharing`]; it must create the machines and
    /// monitors of the test and may send initial events. It must be
    /// `Send + Sync` because each worker invokes it from its own thread. Each
    /// individual execution still runs serialized on exactly one thread —
    /// machines never observe intra-execution parallelism.
    pub fn run<F>(&self, setup: F) -> TestReport
    where
        F: Fn(&mut Runtime) + Send + Sync,
    {
        let config = &self.config;
        let workers = config.workers.max(1);
        // The report does not depend on the thread count, so `workers`
        // logical workers run on at most one OS thread per core: more
        // threads than cores only add time-slicing churn (the PR 5 dashboard
        // measured an 8-worker run *below* serial on a small host for
        // exactly this reason). The report still says `workers`.
        let threads = workers.min(
            std::thread::available_parallelism()
                .map(|cores| cores.get())
                .unwrap_or(workers),
        );
        let hunt = Hunt {
            config,
            setup: &setup,
            start: Instant::now(),
            threads: threads as u64,
            next: AtomicU64::new(0),
            bug_bound: Arc::new(AtomicU64::new(u64::MAX)),
            first_bug: Mutex::new(None),
        };
        let tally = if threads == 1 {
            // A lone worker runs the iterations in order, so it never has a
            // doomed one in flight: no thread spawn, no per-step cancel poll.
            hunt.explore(false)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| scope.spawn(|| hunt.explore(true)))
                    .collect();
                let mut merged = StrategyTally::new(config);
                for handle in handles {
                    merged.merge(handle.join().expect("worker thread panicked"));
                }
                merged
            })
        };
        let iterations_run = tally.rows.iter().map(|row| row.iterations_run).sum();
        let total_steps = tally.rows.iter().map(|row| row.total_steps).sum();

        let winner = hunt.first_bug.into_inner().expect("bug slot lock poisoned");
        let scheduler = match &winner {
            Some(first) => first.scheduler,
            None => no_bug_label(config),
        };
        // Rehydration and shrinking run serially over the deterministic
        // winner, so the reported trace and minimized counterexample are
        // identical at any worker count.
        let bug = winner.map(|first| {
            let mut report = first.report;
            config.rehydrate_report(&mut report, &setup);
            config.attach_shrink(&mut report, &setup);
            report
        });
        TestReport {
            bug,
            iterations_run,
            total_steps,
            elapsed: hunt.start.elapsed(),
            scheduler,
            workers,
            per_strategy: tally.rows,
        }
    }

    /// Replays a previously recorded trace against the harness built by
    /// `setup` and returns the violation it reproduces, if any.
    ///
    /// Returns `None` when the replayed execution finds no bug (for example
    /// because the system has been fixed since the trace was recorded).
    pub fn replay<F>(&self, trace: &Trace, setup: F) -> Option<Bug>
    where
        F: Fn(&mut Runtime),
    {
        let scheduler = Box::new(ReplayScheduler::from_trace(trace));
        let mut runtime = Runtime::new(scheduler, self.config.runtime_config(), trace.seed);
        setup(&mut runtime);
        match runtime.run() {
            ExecutionOutcome::BugFound(bug) => Some(bug),
            _ => None,
        }
    }
}

/// The state one [`TestEngine::run`] shares between its workers.
struct Hunt<'a, F> {
    config: &'a TestConfig,
    setup: &'a F,
    start: Instant,
    /// OS threads exploring the iteration space (sizes the chunks).
    threads: u64,
    /// Work-stealing queue: the next unclaimed iteration index.
    next: AtomicU64,
    /// Lowest iteration index known to contain a bug. Doubles as the
    /// step-level cancellation bound polled inside every runtime's step
    /// loop via a [`CancelToken`].
    bug_bound: Arc<AtomicU64>,
    first_bug: Mutex<Option<FirstBug>>,
}

impl<F> Hunt<'_, F>
where
    F: Fn(&mut Runtime),
{
    /// One worker's loop: claims chunks of the iteration space until no
    /// work below the bug bound remains, and returns the worker's tally.
    /// `cancellable` installs a [`CancelToken`] on every execution so a
    /// doomed one stops within a step.
    fn explore(&self, cancellable: bool) -> StrategyTally {
        let config = self.config;
        let total = config.iterations;
        let mut tally = StrategyTally::new(config);
        // Reused per-chunk seed buffer (batch derivation).
        let mut seeds: Vec<u64> = Vec::new();
        // The runtime (and post-setup snapshot, under prefix sharing) pooled
        // across this worker's iterations.
        let mut pool = IterationPool::new();
        loop {
            // Work remains only below the bug bound: once a bug at iteration
            // `k` is published, iterations `>= k` can no longer win.
            let bound = self.bug_bound.load(Ordering::Relaxed).min(total);
            let claimed = self.next.load(Ordering::Relaxed);
            if claimed >= bound {
                break;
            }
            let chunk = chunk_size(bound - claimed, self.threads);
            let chunk_start = self.next.fetch_add(chunk, Ordering::Relaxed);
            if chunk_start >= total {
                break;
            }
            let chunk_end = (chunk_start + chunk).min(total);
            config.seeds_for_chunk(chunk_start..chunk_end, &mut seeds);
            for (iteration, &seed) in (chunk_start..chunk_end).zip(&seeds) {
                if iteration >= self.bug_bound.load(Ordering::Relaxed) {
                    // Doomed, like the rest of the chunk: a lower iteration
                    // already has a bug.
                    break;
                }
                let cancel =
                    cancellable.then(|| CancelToken::new(Arc::clone(&self.bug_bound), iteration));
                let outcome =
                    config.run_iteration_seeded(iteration, seed, cancel, self.setup, &mut pool);
                let row = tally.row_mut(outcome.portfolio_entry);
                row.total_steps += outcome.steps;
                row.pruned_schedules += outcome.pruned;
                row.races_detected += outcome.races;
                row.backtracks_scheduled += outcome.backtracks;
                match outcome.status {
                    // The partial work stays in the step total, but the
                    // iteration did not complete.
                    IterationStatus::Cancelled => {}
                    IterationStatus::Completed => row.iterations_run += 1,
                    IterationStatus::BugFound { bug, ndc, trace } => {
                        row.iterations_run += 1;
                        row.bugs_found += 1;
                        let report = BugReport {
                            bug,
                            iteration,
                            ndc,
                            trace: *trace,
                            time_to_bug: self.start.elapsed(),
                            shrink: None,
                        };
                        self.offer(report, outcome.strategy.label());
                    }
                }
            }
        }
        tally
    }

    /// Installs `report` as the run's first bug unless a lower iteration
    /// owns the slot.
    fn offer(&self, report: BugReport, scheduler: &'static str) {
        let iteration = report.iteration;
        // Publish the bound first so other workers stop wasting steps on
        // higher iterations immediately. The previous bound decides whether
        // the mutex is worth touching at all: a bound already at (or below)
        // this iteration means a lower iteration owns — or will own — the
        // slot.
        let previous = self.bug_bound.fetch_min(iteration, Ordering::Relaxed);
        if previous <= iteration {
            return;
        }
        let mut slot = self.first_bug.lock().expect("bug slot lock poisoned");
        // Re-checked under the lock: two workers can both improve the bound
        // before either installs.
        if slot
            .as_ref()
            .is_none_or(|first| iteration < first.report.iteration)
        {
            *slot = Some(FirstBug { report, scheduler });
        }
    }
}

/// Per-strategy attribution rows in *canonical order* — one row per distinct
/// portfolio strategy in portfolio order ([`SchedulerKind::describe`] keys
/// the rows, so differently-parameterized PCT entries stay separate), or a
/// single row for the base scheduler. Every worker builds the same skeleton,
/// so rows merge index-wise and [`TestReport::per_strategy`] comes out
/// identical at any worker count.
struct StrategyTally {
    rows: Vec<StrategyStats>,
    /// Portfolio index -> row index (entries with equal descriptions share a
    /// row).
    row_of_entry: Vec<usize>,
}

impl StrategyTally {
    fn new(config: &TestConfig) -> Self {
        let mut rows: Vec<StrategyStats> = Vec::new();
        let mut row_of_entry = Vec::new();
        match &config.portfolio {
            Some(portfolio) if !portfolio.is_empty() => {
                for kind in portfolio {
                    let description = kind.describe();
                    let row = match rows.iter().position(|r| r.scheduler == description) {
                        Some(existing) => existing,
                        None => {
                            rows.push(StrategyStats::new(description));
                            rows.len() - 1
                        }
                    };
                    row_of_entry.push(row);
                }
            }
            _ => rows.push(StrategyStats::new(config.scheduler.describe())),
        }
        StrategyTally { rows, row_of_entry }
    }

    /// The attribution row of the portfolio entry an iteration ran
    /// ([`IterationOutcome::portfolio_entry`]).
    fn row_mut(&mut self, portfolio_entry: Option<usize>) -> &mut StrategyStats {
        let row = match portfolio_entry {
            Some(entry) => self.row_of_entry[entry],
            None => 0,
        };
        &mut self.rows[row]
    }

    /// Folds another tally with the identical skeleton into this one.
    fn merge(&mut self, other: StrategyTally) {
        debug_assert_eq!(self.rows.len(), other.rows.len());
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            mine.absorb(theirs);
        }
    }
}

/// The report label of a run that found no bug: the portfolio as a whole, or
/// the single configured strategy.
fn no_bug_label(config: &TestConfig) -> &'static str {
    if config.portfolio.is_some() {
        "portfolio"
    } else {
        config.scheduler.label()
    }
}

/// The lowest-iteration bug found so far, with the strategy that found it.
struct FirstBug {
    report: BugReport,
    scheduler: &'static str,
}

/// Adaptive chunk sizing for the work-stealing iteration queue: claim big
/// chunks while plenty of work remains (amortizing the shared-counter
/// traffic), shrink toward single iterations near the end so the tail
/// balances across workers instead of sitting in one worker's last chunk.
///
/// The divisor keeps ~8 future claims per worker outstanding — with pooled
/// runtimes a chunk claim costs one atomic RMW plus a batched seed
/// derivation, so smaller chunks (better tail balance, tighter reaction to a
/// published bug bound) are cheap — and the cap bounds how much work the
/// last pre-tail claim can hoard.
fn chunk_size(remaining: u64, workers: u64) -> u64 {
    (remaining / (workers * 8)).clamp(1, 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BugKind;
    use crate::event::Event;
    use crate::machine::Machine;
    use crate::runtime::Context;

    /// Two writer machines race to update a shared flag machine. The flag
    /// starts `false` and asserts that it never observes a `SetFlag(false)`
    /// while already `false`, so the bug manifests only in the interleaving
    /// where the `false` writer is scheduled before the `true` writer —
    /// schedule exploration is required to find it.
    struct Flag {
        value: bool,
    }
    impl Machine for Flag {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(set) = event.downcast_ref::<SetFlag>() {
                if !set.0 && !self.value {
                    ctx.assert(false, "cleared a flag that was never set");
                }
                self.value = set.0;
            }
        }
    }

    #[derive(Debug)]
    struct SetFlag(bool);

    struct Writer {
        flag: crate::machine::MachineId,
        value: bool,
    }
    impl Machine for Writer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }

    fn racey_setup(rt: &mut Runtime) {
        let flag = rt.create_machine(Flag { value: false });
        rt.create_machine(Writer { flag, value: true });
        rt.create_machine(Writer { flag, value: false });
    }

    #[test]
    fn engine_finds_order_dependent_bug() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(200).with_seed(1));
        let report = engine.run(racey_setup);
        assert!(report.found_bug());
        let bug = report.bug.as_ref().unwrap();
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert!(bug.ndc > 0);
        assert!(report.iterations_run <= 200);
    }

    #[test]
    fn engine_reports_no_bug_for_correct_system() {
        struct Quiet;
        impl Machine for Quiet {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let engine = TestEngine::new(TestConfig::new().with_iterations(50));
        let report = engine.run(|rt| {
            rt.create_machine(Quiet);
        });
        assert!(!report.found_bug());
        assert_eq!(report.iterations_run, 50);
    }

    #[test]
    fn replay_reproduces_the_same_bug() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(500).with_seed(3));
        let report = engine.run(racey_setup);
        let bug_report = report.bug.expect("bug should be found");
        let replayed = engine
            .replay(&bug_report.trace, racey_setup)
            .expect("replay should reproduce the bug");
        assert_eq!(replayed.kind, bug_report.bug.kind);
        assert_eq!(replayed.message, bug_report.bug.message);
    }

    #[test]
    fn pct_scheduler_also_finds_the_bug() {
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(500)
                .with_seed(5)
                .with_scheduler(SchedulerKind::Pct { change_points: 2 }),
        );
        let report = engine.run(racey_setup);
        assert!(report.found_bug());
        assert_eq!(report.scheduler, "pct");
    }

    #[test]
    fn iteration_seeds_are_distinct() {
        let config = TestConfig::new().with_seed(42);
        let a = config.seed_for_iteration(0);
        let b = config.seed_for_iteration(1);
        assert_ne!(a, b);
    }

    #[test]
    fn nearby_base_seeds_produce_disjoint_seed_streams() {
        // Regression test for the pre-finalizer derivation: base seeds
        // related by the golden-ratio gamma (or simply adjacent) produced
        // heavily overlapping iteration-seed streams, so "independent" runs
        // explored mostly the same executions. 10k-iteration streams of
        // closely related base seeds must not share a single seed.
        const N: u64 = 10_000;
        let base = 2016u64;
        let gamma = 0x9E37_79B9_7F4A_7C15u64;
        let related = [
            base.wrapping_add(1),
            base ^ 1,
            base.wrapping_add(gamma),
            base.wrapping_sub(gamma),
            base ^ gamma,
        ];
        let reference: std::collections::HashSet<u64> = {
            let config = TestConfig::new().with_seed(base);
            (0..N).map(|i| config.seed_for_iteration(i)).collect()
        };
        for other in related {
            let config = TestConfig::new().with_seed(other);
            let collisions = (0..N)
                .filter(|&i| reference.contains(&config.seed_for_iteration(i)))
                .count();
            assert_eq!(
                collisions, 0,
                "base seeds {base} and {other} share {collisions} iteration seeds"
            );
        }
    }

    #[test]
    fn chunk_seed_derivation_matches_per_iteration_derivation() {
        let config = TestConfig::new().with_seed(77);
        let mut seeds = Vec::new();
        config.seeds_for_chunk(13..57, &mut seeds);
        assert_eq!(seeds.len(), 44);
        for (offset, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, config.seed_for_iteration(13 + offset as u64));
        }
        // The buffer is reusable: a second fill replaces the first.
        config.seeds_for_chunk(0..3, &mut seeds);
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], config.seed_for_iteration(0));
    }

    #[test]
    fn strategy_for_iteration_is_stable_and_covers_the_portfolio() {
        let config = TestConfig::new()
            .with_seed(5)
            .with_iterations(1_000)
            .with_default_portfolio();
        let portfolio = SchedulerKind::default_portfolio();
        let mut counts = vec![0u64; portfolio.len()];
        for iteration in 0..1_000 {
            let index = config
                .portfolio_index_for_iteration(iteration)
                .expect("portfolio configured");
            assert_eq!(portfolio[index], config.strategy_for_iteration(iteration));
            // Stable: asking again gives the same answer.
            assert_eq!(
                config.strategy_for_iteration(iteration),
                config.strategy_for_iteration(iteration)
            );
            counts[index] += 1;
        }
        // Unbiased: every strategy gets a substantial share of the space
        // (an exact split of 1000/7 would be ~143 each).
        for (index, &count) in counts.iter().enumerate() {
            assert!(
                count > 70,
                "strategy {index} drives only {count} of 1000 iterations"
            );
        }
        // Different base seeds produce a different mix.
        let other = TestConfig::new().with_seed(6).with_default_portfolio();
        assert!(
            (0..1_000).any(|i| {
                config.portfolio_index_for_iteration(i) != other.portfolio_index_for_iteration(i)
            }),
            "the strategy mix must depend on the base seed"
        );
    }

    #[test]
    fn without_portfolio_the_base_scheduler_drives_every_iteration() {
        let config = TestConfig::new().with_scheduler(SchedulerKind::RoundRobin);
        for iteration in 0..50 {
            assert_eq!(
                config.strategy_for_iteration(iteration),
                SchedulerKind::RoundRobin
            );
            assert_eq!(config.portfolio_index_for_iteration(iteration), None);
        }
    }

    #[test]
    fn serial_portfolio_run_attributes_iterations_per_strategy() {
        struct Quiet;
        impl Machine for Quiet {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let config = TestConfig::new()
            .with_iterations(200)
            .with_seed(3)
            .with_default_portfolio();
        let report = TestEngine::new(config.clone()).run(|rt| {
            rt.create_machine(Quiet);
        });
        assert!(!report.found_bug());
        assert_eq!(report.scheduler, "portfolio");
        // Rows come out in portfolio order and account for every iteration.
        let portfolio = SchedulerKind::default_portfolio();
        assert_eq!(report.per_strategy.len(), portfolio.len());
        for (row, kind) in report.per_strategy.iter().zip(&portfolio) {
            assert_eq!(row.scheduler, kind.describe());
        }
        let attributed: u64 = report.per_strategy.iter().map(|s| s.iterations_run).sum();
        assert_eq!(attributed, 200);
        // And the attribution matches the per-iteration assignment exactly.
        for (index, row) in report.per_strategy.iter().enumerate() {
            let expected = (0..200)
                .filter(|&i| config.portfolio_index_for_iteration(i) == Some(index))
                .count() as u64;
            assert_eq!(row.iterations_run, expected, "row {index}");
        }
    }

    #[test]
    fn run_iteration_classifies_completed_and_buggy_executions() {
        let config = TestConfig::new().with_seed(1);
        struct Quiet;
        impl Machine for Quiet {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let outcome = config.run_iteration(7, None, &|rt: &mut Runtime| {
            rt.create_machine(Quiet);
        });
        assert_eq!(outcome.iteration, 7);
        assert_eq!(outcome.seed, config.seed_for_iteration(7));
        assert!(matches!(outcome.status, IterationStatus::Completed));

        // Find a buggy iteration of the racey harness and check the payload.
        let mut bug_outcome = None;
        for iteration in 0..500 {
            let outcome = config.run_iteration(iteration, None, &racey_setup);
            if matches!(outcome.status, IterationStatus::BugFound { .. }) {
                bug_outcome = Some(outcome);
                break;
            }
        }
        let outcome = bug_outcome.expect("some iteration is buggy");
        let IterationStatus::BugFound { bug, ndc, trace } = outcome.status else {
            unreachable!()
        };
        assert_eq!(bug.kind, BugKind::SafetyViolation);
        assert!(ndc > 0);
        assert_eq!(trace.seed, outcome.seed);
    }

    /// Clonable twin of the racey harness, used by the prefix-sharing tests
    /// (snapshots require `clone_state` on every machine).
    #[derive(Clone)]
    struct CloneFlag {
        value: bool,
    }
    impl Machine for CloneFlag {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(set) = event.downcast_ref::<SetFlag>() {
                if !set.0 && !self.value {
                    ctx.assert(false, "cleared a flag that was never set");
                }
                self.value = set.0;
            }
        }
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    #[derive(Clone)]
    struct CloneWriter {
        flag: crate::machine::MachineId,
        value: bool,
    }
    impl Machine for CloneWriter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    fn clone_racey_setup(rt: &mut Runtime) {
        let flag = rt.create_machine(CloneFlag { value: false });
        rt.create_machine(CloneWriter { flag, value: true });
        rt.create_machine(CloneWriter { flag, value: false });
    }

    #[test]
    fn prefix_sharing_reports_identical_results() {
        let base = TestConfig::new().with_iterations(300).with_seed(7);
        let straight = TestEngine::new(base.clone()).run(clone_racey_setup);
        let shared = TestEngine::new(base.clone().with_prefix_sharing(true)).run(clone_racey_setup);
        let a = straight.bug.as_ref().expect("racey bug is reachable");
        let b = shared.bug.as_ref().expect("racey bug is reachable");
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.trace.decisions, b.trace.decisions);
        assert_eq!(straight.iterations_run, shared.iterations_run);
        assert_eq!(straight.total_steps, shared.total_steps);

        // And byte-identical across worker counts under prefix sharing.
        let parallel = |workers: usize| {
            TestEngine::new(base.clone().with_prefix_sharing(true).with_workers(workers))
                .run(clone_racey_setup)
        };
        let one = parallel(1);
        let four = parallel(4);
        let a = one.bug.as_ref().expect("bug");
        let b = four.bug.as_ref().expect("bug");
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.trace.decisions, b.trace.decisions);
    }

    #[test]
    fn prefix_sharing_falls_back_for_non_snapshotable_harnesses() {
        // `racey_setup` machines keep the default `clone_state` (None).
        let base = TestConfig::new().with_iterations(300).with_seed(7);
        let straight = TestEngine::new(base.clone()).run(racey_setup);
        let shared = TestEngine::new(base.with_prefix_sharing(true)).run(racey_setup);
        let a = straight.bug.as_ref().expect("bug");
        let b = shared.bug.as_ref().expect("bug");
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.trace.decisions, b.trace.decisions);
    }

    #[test]
    fn summary_mentions_result() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(10));
        let report = engine.run(|rt| {
            let _ = rt;
        });
        assert!(report.summary().contains("no bug found"));
        let engine = TestEngine::new(TestConfig::new().with_iterations(200).with_seed(1));
        let report = engine.run(racey_setup);
        assert!(report.summary().contains("BUG FOUND"));
    }

    #[test]
    fn executions_per_second_is_positive_after_run() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(20));
        let report = engine.run(|rt| {
            let _ = rt;
        });
        assert!(report.executions_per_second() >= 0.0);
    }
}
