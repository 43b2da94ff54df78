//! Shrink acceptance across the case-study crates: for a seeded bug in
//! each crate, the shrink pass produces a minimized trace that (a) replays
//! to the same bug, (b) has strictly fewer decisions than the original
//! recording, and (c) is byte-identical across worker counts and against the
//! engine-independent reference loop in `oracle`.

#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

use oracle::Reference;
use psharp::prelude::*;

struct Case {
    name: &'static str,
    max_steps: usize,
    iterations: u64,
    seed: u64,
    faults: FaultPlan,
    build: fn(&mut Runtime),
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "replsim/duplicate-counting (safety)",
            max_steps: 2_000,
            iterations: 3_000,
            seed: 1,
            faults: FaultPlan::none(),
            build: |rt| {
                replsim::build_harness(rt, &replsim::ReplConfig::with_duplicate_counting_bug());
            },
        },
        Case {
            name: "vnext/extent-node-liveness",
            max_steps: 3_000,
            iterations: 200,
            seed: 2016,
            // Fault-induced: the bug needs a scheduler-injected EN crash.
            faults: vnext::VnextConfig::with_liveness_bug().fault_plan(),
            build: |rt| {
                vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
            },
        },
        Case {
            name: "chaintable/delete-primary-key (safety)",
            max_steps: 10_000,
            iterations: 500,
            seed: 11,
            faults: FaultPlan::none(),
            build: |rt| {
                let (_, config) = chaintable::named_bugs()
                    .into_iter()
                    .find(|(name, _)| *name == "DeletePrimaryKey")
                    .expect("known seeded bug");
                chaintable::build_harness(rt, &config);
            },
        },
        Case {
            name: "fabric/promote-pending-copy (safety)",
            max_steps: 5_000,
            iterations: 2_000,
            seed: 2016,
            // Fault-induced: the bug needs a scheduler-injected primary crash.
            faults: fabric::FabricConfig::with_promotion_bug().fault_plan(),
            build: |rt| {
                fabric::build_harness(rt, &fabric::FabricConfig::with_promotion_bug());
            },
        },
        Case {
            name: "megakv/rebalance-lost-write (safety)",
            max_steps: 2_000,
            iterations: 2_000,
            seed: 7,
            faults: FaultPlan::none(),
            build: |rt| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::with_rebalance_bug());
            },
        },
    ]
}

fn config_for(case: &Case) -> TestConfig {
    TestConfig::new()
        .with_iterations(case.iterations)
        .with_max_steps(case.max_steps)
        .with_seed(case.seed)
        .with_shrink(true)
        .with_faults(case.faults)
        // Keep the test budget moderate: even a partial pass must strictly
        // reduce these seeded bugs' traces.
        .with_shrink_budget(300)
}

#[test]
fn every_case_study_bug_shrinks_to_a_replayable_smaller_trace() {
    for case in cases() {
        let engine = TestEngine::new(config_for(&case));
        let report = engine.run(case.build);
        let bug_report = report
            .bug
            .unwrap_or_else(|| panic!("{}: seeded bug not found", case.name));
        let shrink = bug_report
            .shrink
            .as_ref()
            .unwrap_or_else(|| panic!("{}: shrink did not run", case.name));

        // (b) strictly fewer decisions.
        assert!(
            shrink.minimized_decisions < shrink.original_decisions,
            "{}: no reduction ({})",
            case.name,
            shrink.summary()
        );

        // (a) the minimized trace replays to the same bug.
        let replayed = engine
            .replay(&shrink.minimized, case.build)
            .unwrap_or_else(|| panic!("{}: minimized trace does not replay", case.name));
        assert_eq!(replayed.kind, bug_report.bug.kind, "{}", case.name);
        assert_eq!(replayed.message, bug_report.bug.message, "{}", case.name);
    }
}

#[test]
fn shrink_output_is_byte_identical_across_worker_counts() {
    // One representative case (the fastest seeded bug) across the reference
    // loop and several worker counts: the whole (bug, iteration, minimized
    // trace) tuple must be reproducible byte for byte.
    let case = &cases()[0];
    let reference = Reference::run(&config_for(case), case.build);
    assert!(reference.bug.is_some(), "the reference loop finds the bug");

    for workers in [1usize, 2, 4] {
        let report = TestEngine::new(config_for(case).with_workers(workers)).run(case.build);
        reference.assert_matches(&report, &format!("{workers} workers"));
    }
}
