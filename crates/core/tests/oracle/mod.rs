//! An engine-independent reference for [`TestEngine`] reports.
//!
//! [`Reference::run`] is the paper's first-bug loop written out over the
//! public per-iteration path, [`TestConfig::run_iteration`]: iteration `i`
//! runs with seed `i` and strategy `i` on a fresh runtime, and the loop stops
//! at the first buggy iteration. It has no runtime pool, no prefix-sharing
//! snapshot, no chunk claiming and no workers, so comparing an engine report
//! against it checks the engine against code other than itself.
//!
//! Shared by the integration tests of several crates through `#[path]`.

use psharp::prelude::*;

/// What the reference loop found.
pub struct Reference {
    /// Executions run, the buggy one included.
    pub iterations_run: u64,
    /// Machine steps over all executions run.
    pub total_steps: u64,
    /// The winning strategy's label, or `"portfolio"` / the configured
    /// strategy's label without a bug.
    pub scheduler: &'static str,
    /// One row per distinct strategy description, in portfolio order.
    pub per_strategy: Vec<StrategyStats>,
    /// The first bug, when one was found.
    pub bug: Option<ReferenceBug>,
}

/// The first buggy iteration of a [`Reference`] run.
pub struct ReferenceBug {
    pub iteration: u64,
    pub bug: Bug,
    pub ndc: usize,
    /// The recording, always with the full annotated schedule.
    pub trace: Trace,
    /// The shrink pass over `trace`, when the configuration asks for one.
    pub shrink: Option<ShrinkReport>,
}

impl Reference {
    /// Runs `config`'s iterations in order until the first bug.
    pub fn run<F>(config: &TestConfig, setup: F) -> Reference
    where
        F: Fn(&mut Runtime),
    {
        // The engine re-records a decisions-only bug trace by strict replay;
        // recording the full schedule to begin with must give the same
        // trace. The trace mode changes neither seeds nor strategies.
        let recording = if config.auto_decisions_only() {
            config.clone().with_trace_mode(TraceMode::Full)
        } else {
            config.clone()
        };
        let kinds = config
            .portfolio
            .clone()
            .unwrap_or_else(|| vec![config.scheduler]);
        let mut per_strategy: Vec<StrategyStats> = Vec::new();
        for kind in &kinds {
            if !per_strategy
                .iter()
                .any(|row| row.scheduler == kind.describe())
            {
                per_strategy.push(StrategyStats::new(kind.describe()));
            }
        }
        let mut reference = Reference {
            iterations_run: 0,
            total_steps: 0,
            scheduler: if config.portfolio.is_some() {
                "portfolio"
            } else {
                config.scheduler.label()
            },
            per_strategy,
            bug: None,
        };
        for iteration in 0..config.iterations {
            let outcome = recording.run_iteration(iteration, None, &setup);
            assert_eq!(outcome.strategy, config.strategy_for_iteration(iteration));
            reference.iterations_run += 1;
            reference.total_steps += outcome.steps;
            let row = reference
                .per_strategy
                .iter_mut()
                .find(|row| row.scheduler == outcome.strategy.describe())
                .expect("every strategy has a row");
            row.iterations_run += 1;
            row.total_steps += outcome.steps;
            row.pruned_schedules += outcome.pruned;
            row.races_detected += outcome.races;
            row.backtracks_scheduled += outcome.backtracks;
            if let IterationStatus::BugFound { bug, ndc, trace } = outcome.status {
                row.bugs_found += 1;
                let shrink = config
                    .shrink
                    .then(|| shrink_trace(&config.shrink_config(), &bug, &trace, &setup));
                reference.scheduler = outcome.strategy.label();
                reference.bug = Some(ReferenceBug {
                    iteration,
                    bug,
                    ndc,
                    trace: *trace,
                    shrink,
                });
                break;
            }
        }
        reference
    }

    /// Asserts that `report` found exactly this bug — iteration, seed,
    /// trace, strategy, violation and minimized counterexample — or none.
    /// Counters are compared too when they are deterministic: on bug-free
    /// runs, and on runs with one worker.
    pub fn assert_matches(&self, report: &TestReport, context: &str) {
        assert_eq!(report.scheduler, self.scheduler, "{context}: strategy");
        match (&report.bug, &self.bug) {
            (None, None) => {}
            (Some(found), Some(expected)) => {
                assert_eq!(found.iteration, expected.iteration, "{context}: iteration");
                assert_eq!(found.trace.seed, expected.trace.seed, "{context}: seed");
                assert_eq!(found.trace, expected.trace, "{context}: trace");
                assert_eq!(found.ndc, expected.ndc, "{context}: #NDC");
                assert_eq!(found.bug.kind, expected.bug.kind, "{context}: bug kind");
                assert_eq!(found.bug.message, expected.bug.message, "{context}: bug");
                let minimized = |shrink: Option<&ShrinkReport>| {
                    shrink.map(|s| s.minimized.to_json().expect("serializable"))
                };
                assert_eq!(
                    minimized(found.shrink.as_ref()),
                    minimized(expected.shrink.as_ref()),
                    "{context}: byte-identical minimized trace"
                );
            }
            (found, expected) => panic!(
                "{context}: engine found {:?}, reference found {:?}",
                found.as_ref().map(|b| &b.bug),
                expected.as_ref().map(|b| &b.bug)
            ),
        }
        if report.bug.is_none() || report.workers == 1 {
            assert_eq!(
                report.iterations_run, self.iterations_run,
                "{context}: executions"
            );
            assert_eq!(report.total_steps, self.total_steps, "{context}: steps");
            assert_eq!(
                report.per_strategy, self.per_strategy,
                "{context}: per-strategy"
            );
        }
    }
}
