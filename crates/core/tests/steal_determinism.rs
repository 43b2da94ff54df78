//! Determinism of the work-stealing engine's first-bug selection: whatever
//! the worker count, the reported bug must be the one at the lowest
//! iteration index — i.e. exactly the bug the in-order reference loop in
//! `oracle` finds — with an identical seed, trace and message.

mod oracle;

use oracle::Reference;
use psharp::prelude::*;

/// A harness where many iterations are buggy (≈1 in 8), so under parallel
/// exploration several workers race to find *different* buggy iterations and
/// temporally-first selection would be nondeterministic.
fn frequently_buggy(rt: &mut Runtime) {
    struct Sometimes;
    impl Machine for Sometimes {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if ctx.random_index(8) == 3 {
                ctx.report_bug(BugKind::SafetyViolation, "unlucky draw");
            }
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    rt.create_machine(Sometimes);
}

fn config() -> TestConfig {
    TestConfig::new().with_iterations(400).with_seed(17)
}

#[test]
fn work_stealing_reports_the_serial_first_bug_at_any_worker_count() {
    let reference = Reference::run(&config(), frequently_buggy);
    assert!(reference.bug.is_some(), "the reference loop finds a bug");

    for workers in [1usize, 2, 4, 8] {
        let report = TestEngine::new(config().with_workers(workers)).run(frequently_buggy);
        reference.assert_matches(&report, &format!("{workers} workers"));
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let reference = TestEngine::new(config().with_workers(4)).run(frequently_buggy);
    let reference = reference.bug.expect("bug found");
    for _ in 0..3 {
        let again = TestEngine::new(config().with_workers(4)).run(frequently_buggy);
        let again = again.bug.expect("bug found");
        assert_eq!(again.iteration, reference.iteration);
        assert_eq!(again.trace, reference.trace);
    }
}

/// A harness whose bug only a schedule-sensitive strategy mix surfaces
/// cheaply: any strategy can hit it (a 1-in-12 value draw), so in portfolio
/// mode different strategies race to win different iterations and
/// worker-order-dependent strategy assignment would report different
/// (iteration, strategy, bug) results run to run.
fn occasionally_buggy(rt: &mut Runtime) {
    struct Sometimes;
    impl Machine for Sometimes {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if ctx.random_index(12) == 5 {
                ctx.report_bug(BugKind::SafetyViolation, "unlucky draw");
            }
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    rt.create_machine(Sometimes);
}

fn portfolio_config() -> TestConfig {
    TestConfig::new()
        .with_iterations(400)
        .with_seed(23)
        .with_default_portfolio()
}

#[test]
fn portfolio_run_reports_the_serial_result_at_any_worker_count() {
    // Per-iteration strategy assignment makes the portfolio deterministic,
    // so every worker count must reproduce the in-order reference loop's
    // (iteration, seed, strategy, bug) result exactly. The run records
    // decisions only and rehydrates the winner's trace by replay; the
    // reference records the full schedule directly.
    let reference = Reference::run(&portfolio_config(), occasionally_buggy);
    assert!(reference.bug.is_some(), "the reference loop finds a bug");

    for workers in [1usize, 2, 8] {
        let report =
            TestEngine::new(portfolio_config().with_workers(workers)).run(occasionally_buggy);
        reference.assert_matches(&report, &format!("{workers} workers"));
    }
}

#[test]
fn pooled_runtime_reports_are_identical_at_1_2_4_8_workers() {
    // Per-worker runtime pooling (`Runtime::reset` between iterations) must
    // not leak any state — machines, mailbox contents, fault markings, name
    // table — from one iteration into the next: the full report, including
    // the shrink pass over the winner, matches the reference loop's fresh
    // runtime per iteration at every worker count, and the minimized
    // counterexample is byte-identical.
    let config = || portfolio_config().with_shrink(true);
    let reference = Reference::run(&config(), occasionally_buggy);
    let expected = reference
        .bug
        .as_ref()
        .expect("the reference loop finds a bug");
    assert!(expected.shrink.is_some(), "shrink pass ran");

    for workers in [1usize, 2, 4, 8] {
        let report = TestEngine::new(config().with_workers(workers)).run(occasionally_buggy);
        assert!(report.bug.as_ref().is_some_and(|bug| bug.shrink.is_some()));
        reference.assert_matches(&report, &format!("{workers} workers"));
    }
}

#[test]
fn bug_free_portfolio_reports_are_identical_at_any_worker_count() {
    // Without a bug to race for, the whole TestReport — winning label,
    // counters and the per-strategy attribution rows — must be identical for
    // 1, 2 and 8 workers and match the reference loop.
    fn clean(rt: &mut Runtime) {
        struct Quiet;
        impl Machine for Quiet {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _ = ctx.random_bool();
                let _ = ctx.random_index(4);
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        rt.create_machine(Quiet);
    }
    let base = || {
        TestConfig::new()
            .with_iterations(300)
            .with_seed(41)
            .with_default_portfolio()
    };
    let reference = Reference::run(&base(), clean);
    assert!(reference.bug.is_none());
    assert_eq!(reference.scheduler, "portfolio");

    for workers in [1usize, 2, 8] {
        let report = TestEngine::new(base().with_workers(workers)).run(clean);
        reference.assert_matches(&report, &format!("{workers} workers"));
    }
}
