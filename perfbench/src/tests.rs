//! The benchmark's own tests: a fixed seed gives identical counts, the
//! traced run reproduces the untraced one, and set-up time and peak memory
//! are measured. Plans are cut down so the tests stay quick in debug builds.

use psharp::prelude::SchedulerKind;

use crate::run::{run_pass, Pass, Untraced};
use crate::stats::{peak_rss_mb, Metrics};
use crate::workload::{rounds, Plan, Workload};
use crate::{check, end_to_end, failures, setup_seconds, traced};

/// Bugs whose hunts and shrinks run long (liveness bugs that run to their
/// step bound); the cut-down plans leave them out.
const SLOW_BUGS: [&str; 3] = [
    "ReplReqLostNoRetransmit",
    "ExtentNodeLivenessViolation",
    "MegaKvSplitForgottenPrimary",
];

/// A quick plan of `workload` for seed `seed`: one round, without the slow
/// bugs, with short verification runs and only cheap strategies on `scale`.
fn small_plan(workload: Workload, seed: u64) -> Plan {
    let mut plan = Plan::new(workload, seed, 1);
    let targets = &plan.targets;
    plan.runs
        .retain(|spec| !SLOW_BUGS.contains(&targets[spec.target].name));
    match workload {
        Workload::Hunt | Workload::Shrink => {}
        Workload::Clean => plan.executions = 30,
        Workload::Scale => plan.runs.retain(|spec| {
            matches!(
                spec.strategy,
                Some(SchedulerKind::Random | SchedulerKind::RoundRobin)
            )
        }),
    }
    plan
}

fn checked_pass(plan: &Plan) -> Pass {
    run_pass(plan, &mut Untraced, &|spec, result| {
        check::check_run(plan, spec, result)
    })
    .expect("output checks pass")
}

/// The metrics that must repeat exactly: counts and ratios of counts.
fn counted(metrics: &Metrics) -> Vec<(String, f64)> {
    metrics
        .0
        .iter()
        .filter(|m| m.unit == "count" || m.name == "minimized_ndc_ratio")
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn a_fixed_seed_repeats_every_count() {
    for workload in Workload::ALL {
        let plan = small_plan(workload, 7);
        let first = checked_pass(&plan);
        let second = checked_pass(&plan);
        assert_eq!(first.counts(), second.counts(), "{}", workload.name());
        assert_eq!(
            failures(&plan, &first),
            failures(&plan, &second),
            "{}",
            workload.name()
        );
        assert_eq!(
            counted(&end_to_end(&plan, &first, 1.0)),
            counted(&end_to_end(&plan, &second, 1.0)),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let a = Plan::new(Workload::Hunt, 1, 2);
    let b = Plan::new(Workload::Hunt, 2, 2);
    assert_eq!(a.runs.len(), 40);
    assert!(a.runs.iter().zip(&b.runs).all(|(x, y)| x.seed != y.seed));
}

#[test]
fn shrink_runs_shrink_and_hunts_find_their_bugs() {
    let plan = small_plan(Workload::Shrink, 3);
    let pass = checked_pass(&plan);
    let shrunk = pass
        .runs
        .iter()
        .flat_map(|r| &r.bugs)
        .filter(|b| b.found.shrink.is_some())
        .count();
    assert!(shrunk > 0);
    assert!(
        pass.all_execs() > pass.execs(),
        "candidates count as executions"
    );
    let ratio = end_to_end(&plan, &pass, 1.0)
        .0
        .into_iter()
        .find(|m| m.name == "minimized_ndc_ratio")
        .expect("reported")
        .value;
    assert!(ratio > 0.0 && ratio <= 1.0, "{ratio}");
}

#[test]
fn the_traced_run_reproduces_the_untraced_counts() {
    for workload in [Workload::Hunt, Workload::Clean, Workload::Scale] {
        let plan = small_plan(workload, 5);
        let (first, _, spans) = traced::trace_plan(&plan).expect("traced run matches");
        let (second, _, _) = traced::trace_plan(&plan).expect("traced run matches");
        assert!(!spans.is_empty());
        assert_eq!(counted(&first), counted(&second), "{}", workload.name());
        let value = |name: &str| {
            first
                .0
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} reported"))
                .value
        };
        assert!(value("scheduler.picks") > 0.0);
        assert!(value("peak_rss_mb") > 0.0);
        assert!(value("trace.decisions_per_exec") > 0.0);
        if workload == Workload::Scale {
            // Prefix sharing forks every later execution from the snapshot.
            assert!(value("runtime.restore_ns") > 0.0);
            assert!(value("runtime.dirty_machines") > 0.0);
        }
    }
}

#[test]
fn setup_time_and_peak_memory_are_measured() {
    for workload in Workload::ALL {
        let seconds = setup_seconds(workload, 9, 1);
        assert!(seconds > 0.0 && seconds < 5.0, "{seconds}");
    }
    let rss = peak_rss_mb().expect("Linux reports VmHWM");
    assert!(rss > 0.0);
}

#[test]
fn run_length_sets_the_rounds() {
    assert_eq!(rounds(Workload::Hunt, 0.01), 1);
    assert!(rounds(Workload::Hunt, 25.0) > rounds(Workload::Hunt, 5.0));
    for workload in Workload::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
    assert_eq!(Workload::parse("nope"), None);
}
