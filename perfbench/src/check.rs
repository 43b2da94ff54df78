//! Output checks: every reported trace must strictly replay to its bug.

use psharp::prelude::*;
use psharp::runtime::{ExecutionOutcome, Runtime, RuntimeConfig};
use psharp::scheduler::ReplayScheduler;
use psharp::shrink::same_bug;

use crate::run::RunResult;
use crate::workload::{Plan, RunSpec, Target, Workload};

/// The runtime configuration the engine derives from `config`.
pub fn runtime_config(config: &TestConfig) -> RuntimeConfig {
    RuntimeConfig {
        max_steps: config.max_steps,
        check_liveness_at_quiescence: config.check_liveness_at_quiescence,
        catch_panics: config.catch_panics,
        trace_mode: config.effective_trace_mode(),
        faults: config.faults,
    }
}

/// Strictly replays `trace` on `target` (what [`TestEngine::replay`] does,
/// plus its divergence check) and checks that it follows every recorded
/// decision and reproduces `bug`.
fn strict_replay(
    config: &TestConfig,
    target: &Target,
    trace: &Trace,
    bug: &Bug,
) -> Result<(), String> {
    let scheduler = Box::new(ReplayScheduler::from_trace(trace));
    let mut runtime = Runtime::new(scheduler, runtime_config(config), trace.seed);
    (target.build)(&mut runtime);
    let outcome = runtime.run();
    if let Some(error) = runtime.replay_error() {
        return Err(format!("replay diverged: {error:?}"));
    }
    match outcome {
        ExecutionOutcome::BugFound(found) if same_bug(&found, bug) => Ok(()),
        ExecutionOutcome::BugFound(found) => Err(format!("replay found another bug: {found}")),
        _ => Err("replay found no bug".to_string()),
    }
}

/// Checks every bug a run reported: the reported trace replays to the same
/// bug with its reported decision count, and so does the minimized trace,
/// which has no more decisions than the original. Misses and false alarms
/// are not errors here; they are counted as failed runs.
pub fn check_run(plan: &Plan, spec: &RunSpec, result: &RunResult) -> Result<(), String> {
    let target = &plan.targets[spec.target];
    for reported in &result.bugs {
        let found = &reported.found;
        let config = plan.config(spec, reported.seed, plan.executions);
        let context = |what: &str| format!("{} (seed {}): {what}", target.name, spec.seed);
        if found.trace.decision_count() != found.ndc {
            return Err(context("reported trace length differs from its #NDC"));
        }
        strict_replay(&config, target, &found.trace, &found.bug)
            .map_err(|e| context(&format!("original trace: {e}")))?;
        if found.shrink.is_some() != (plan.workload == Workload::Shrink) {
            return Err(context("shrink result present on the wrong workload"));
        }
        if let Some(shrunk) = &found.shrink {
            if shrunk.minimized_ndc > found.ndc {
                return Err(context("minimized trace is longer than the original"));
            }
            if shrunk.trace.decision_count() != shrunk.minimized_ndc {
                return Err(context("minimized trace length differs from its count"));
            }
            strict_replay(&config, target, &shrunk.trace, &found.bug)
                .map_err(|e| context(&format!("minimized trace: {e}")))?;
        }
    }
    Ok(())
}
