//! Integration tests for the schedule-shrinking subsystem: reduction
//! quality, replay verification, idempotence, determinism across worker
//! counts and against the reference loop in `oracle`, and the interplay with
//! bounded trace modes.

mod oracle;

use oracle::Reference;
use psharp::json::{FromJson, ToJson};
use psharp::prelude::*;

/// The order-dependent harness used across the engine tests: the bug
/// manifests only when the `false` writer is scheduled before the `true`
/// writer, after a fair amount of irrelevant nondeterministic noise that
/// shrinking should strip away.
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
    fn name(&self) -> &str {
        "Flag"
    }
}

#[derive(Debug)]
struct SetFlag(bool);

#[derive(Debug)]
struct Noise;

struct Writer {
    flag: MachineId,
    value: bool,
    /// Self-messages consumed before the write goes out, so every buggy
    /// execution is long enough to wrap small trace rings.
    delay: usize,
}
impl Machine for Writer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Irrelevant nondeterministic noise that pads the decision stream.
        for _ in 0..4 {
            let _ = ctx.random_bool();
            let _ = ctx.random_index(16);
        }
        ctx.send_to_self(Event::new(Noise));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if !event.is::<Noise>() {
            return;
        }
        if self.delay > 0 {
            self.delay -= 1;
            ctx.send_to_self(Event::new(Noise));
        } else {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
    }
    fn name(&self) -> &str {
        "Writer"
    }
}

/// A bystander that spins for a while, adding schedule decisions that are
/// irrelevant to the bug.
struct Spinner {
    remaining: usize,
}
impl Machine for Spinner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send_to_self(Event::new(Noise));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_to_self(Event::new(Noise));
        }
    }
    fn name(&self) -> &str {
        "Spinner"
    }
}

fn noisy_racey_setup(rt: &mut Runtime) {
    let flag = rt.create_machine(Flag { value: false });
    rt.create_machine(Spinner { remaining: 40 });
    rt.create_machine(Writer {
        flag,
        value: true,
        delay: 6,
    });
    rt.create_machine(Writer {
        flag,
        value: false,
        delay: 6,
    });
}

fn shrinking_config() -> TestConfig {
    TestConfig::new()
        .with_iterations(500)
        .with_seed(11)
        .with_shrink(true)
}

#[test]
fn shrink_produces_a_smaller_replay_verified_counterexample() {
    let engine = TestEngine::new(shrinking_config());
    let report = engine.run(noisy_racey_setup);
    let bug_report = report.bug.expect("the racey bug is reachable");
    let shrink = bug_report.shrink.as_ref().expect("shrink ran");
    assert_eq!(shrink.original_decisions, bug_report.ndc);
    assert!(
        shrink.improved(),
        "shrinking must strip the noise: {}",
        shrink.summary()
    );
    assert!(shrink.minimized_decisions < shrink.original_decisions);
    assert_eq!(
        shrink.minimized.decision_count(),
        shrink.minimized_decisions
    );
    assert_eq!(bug_report.minimized(), Some(&shrink.minimized));
    assert_eq!(bug_report.best_trace(), &shrink.minimized);
    assert_eq!(bug_report.original(), &bug_report.trace);

    // The minimized trace replays, strictly, to the same bug.
    let replayed = engine
        .replay(&shrink.minimized, noisy_racey_setup)
        .expect("the minimized trace replays to a bug");
    assert_eq!(replayed.kind, bug_report.bug.kind);
    assert_eq!(replayed.message, bug_report.bug.message);
    assert_eq!(replayed.source, bug_report.bug.source);
}

#[test]
fn shrink_is_idempotent_on_a_minimized_trace() {
    let config = shrinking_config();
    let report = TestEngine::new(config.clone()).run(noisy_racey_setup);
    let bug_report = report.bug.expect("bug found");
    let shrink = bug_report.shrink.expect("shrink ran");

    let again = shrink_trace(
        &config.shrink_config(),
        &bug_report.bug,
        &shrink.minimized,
        &noisy_racey_setup,
    );
    assert!(
        !again.improved(),
        "re-shrinking a minimized trace must be a no-op: {}",
        again.summary()
    );
    assert_eq!(again.minimized.decisions, shrink.minimized.decisions);
    assert_eq!(again.minimized, shrink.minimized);
}

#[test]
fn shrink_output_is_byte_identical_across_engines_and_worker_counts() {
    let reference = Reference::run(&shrinking_config(), noisy_racey_setup);
    let expected = reference
        .bug
        .as_ref()
        .expect("the reference loop finds the bug");
    assert!(expected.shrink.is_some(), "shrink ran");

    for workers in [1usize, 2, 8] {
        let report =
            TestEngine::new(shrinking_config().with_workers(workers)).run(noisy_racey_setup);
        reference.assert_matches(&report, &format!("{workers} workers"));
    }
}

#[test]
fn shrink_report_round_trips_through_json_from_an_engine_run() {
    let report = TestEngine::new(shrinking_config()).run(noisy_racey_setup);
    let shrink = report.bug.expect("bug found").shrink.expect("shrink ran");
    let json = shrink.to_json_value().to_string_pretty();
    let back = ShrinkReport::from_json_value(&psharp::json::Json::parse(&json).expect("parse"))
        .expect("roundtrip");
    assert_eq!(back.minimized, shrink.minimized);
    assert_eq!(back.original_decisions, shrink.original_decisions);
    assert_eq!(back.minimized_decisions, shrink.minimized_decisions);
}

#[test]
fn ring_buffer_trace_mode_preserves_replay_and_shrink() {
    // Hunt with a tightly bounded annotated schedule: the decision stream
    // stays complete, so both replay and shrinking are unaffected.
    let config = shrinking_config().with_trace_mode(TraceMode::RingBuffer(16));
    let engine = TestEngine::new(config);
    let report = engine.run(noisy_racey_setup);
    let bug_report = report.bug.expect("bug found");
    assert_eq!(bug_report.trace.mode(), TraceMode::RingBuffer(16));
    assert!(bug_report.trace.retained_step_count() <= 16);
    assert!(bug_report.ndc > 0);

    let replayed = engine
        .replay(&bug_report.trace, noisy_racey_setup)
        .expect("ring-buffer trace replays");
    assert_eq!(replayed.message, bug_report.bug.message);

    // The minimized trace is re-recorded in full mode: the human-facing
    // counterexample is complete even when the hunt ran ring-buffered.
    let shrink = bug_report.shrink.as_ref().expect("shrink ran");
    assert_eq!(shrink.minimized.mode(), TraceMode::Full);
    assert!(shrink.improved());
    assert_eq!(
        shrink.minimized.retained_step_count(),
        shrink.minimized.total_step_count()
    );
}

#[test]
fn decisions_only_trace_mode_preserves_replay() {
    let config = shrinking_config()
        .with_shrink(false)
        .with_trace_mode(TraceMode::DecisionsOnly);
    let engine = TestEngine::new(config);
    let report = engine.run(noisy_racey_setup);
    let bug_report = report.bug.expect("bug found");
    assert_eq!(bug_report.trace.retained_step_count(), 0);
    assert!(bug_report.trace.dropped_steps() > 0);
    let replayed = engine
        .replay(&bug_report.trace, noisy_racey_setup)
        .expect("decisions-only trace replays");
    assert_eq!(replayed.message, bug_report.bug.message);
}

#[test]
fn ring_buffer_truncated_bug_trace_round_trips_through_json() {
    let config = shrinking_config()
        .with_shrink(false)
        .with_trace_mode(TraceMode::RingBuffer(8));
    let report = TestEngine::new(config).run(noisy_racey_setup);
    let trace = report.bug.expect("bug found").trace;
    assert!(trace.dropped_steps() > 0, "the ring must have wrapped");
    let back = Trace::from_json(&trace.to_json().expect("serialize")).expect("parse");
    assert_eq!(back, trace);
    assert_eq!(back.mode(), TraceMode::RingBuffer(8));
    assert_eq!(back.dropped_steps(), trace.dropped_steps());
}

#[test]
fn shrink_respects_its_candidate_budget() {
    let config = shrinking_config().with_shrink_budget(3);
    let report = TestEngine::new(config).run(noisy_racey_setup);
    let shrink = report.bug.expect("bug found").shrink.expect("shrink ran");
    assert!(shrink.candidates_tried <= 3);
}
