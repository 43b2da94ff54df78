//! Schedule-identity pin for the built-in strategies.
//!
//! Every strategy is a deterministic function of its seed and the queries
//! made so far, so a change to how a scheduler *stores* its state (not what
//! it decides) must leave every execution byte-identical. This test runs
//! each of the nine [`SchedulerKind::default_portfolio`] strategies on a
//! set of harnesses and seeds, and folds into one FNV-1a digest per
//! (harness, strategy):
//!
//! - the full recorded decision stream (schedule picks, value choices and
//!   injected faults),
//! - the pruned-equivalents, races-detected and backtracks-scheduled
//!   counters,
//! - the step count.
//!
//! The harnesses are the 256-machine fixed megakv store
//! (`MegaKvConfig::scale(256, 2)`, many more machines than DPOR's clock
//! window, so the dense per-machine tables are exercised well past it) and
//! every fault-budgeted bug case of [`bench::bug_cases`] (faults clear the
//! sleep sets and DPOR's race window).
//!
//! The golden digests below were computed at commit `aefa776`, before the
//! schedulers' per-machine state moved from hash maps and unsorted sleeper
//! lists to dense tables indexed by machine id. A mismatch means some
//! strategy now decides differently; the failure message prints the
//! digests the current code computes.

use bench::bug_cases;
use psharp::prelude::*;
use psharp::runtime::{Runtime, RuntimeConfig};

/// Seeds every (harness, strategy) pair runs under.
const SEEDS: [u64; 3] = [1, 2, 3];

/// Machines in the megakv scale harness.
const SCALE_MACHINES: usize = 256;

/// Golden digests at `aefa776`, one row per harness, one column per
/// `default_portfolio()` entry (in portfolio order).
const GOLDEN: &[(&str, [u64; 9])] = &[
    (
        "megakv-scale-256",
        [
            0x17a2077e923cf5fa,
            0x3d527deed91b19b3,
            0x1260e6b74f0db990,
            0xb4da43ee1d7557f7,
            0xd0fb193df4f2edf3,
            0xac99f4b8827041a4,
            0x23af03426d230845,
            0x5891cabda430116f,
            0xfbeb469e36c37a3d,
        ],
    ),
    (
        "ReplReqLostNoRetransmit",
        [
            0xe7b51e20501da32e,
            0x4cedb336f0f5afca,
            0xb457ae5543d68f80,
            0xc7d0206db36d99b4,
            0x2e4353cc89e48d36,
            0x39da28d86476fdf9,
            0xfe51b31bd7bcf397,
            0xcdd92005f4e88a21,
            0xac98300f567b143f,
        ],
    ),
    (
        "ExtentNodeLivenessViolation",
        [
            0x949fa80120238a9d,
            0x6e496bcabe6e72b5,
            0x36d3a667ffcec66c,
            0x93697c618de3497a,
            0xdf7fb4d6b48d2bc7,
            0x6392441d3658614f,
            0x0e06e60a11516bbb,
            0xab3f9fc77d2b80db,
            0x3e83085686c0324b,
        ],
    ),
    (
        "MigratorRestartSkipsStep",
        [
            0x98aaed009744d0b3,
            0x6e10f769b3601565,
            0x50182a88078f4027,
            0x62e3b905d8bb8e23,
            0xa9dedb843ed8b8fc,
            0xdc8c73cd8ce8724d,
            0x2722d04a7000e5c9,
            0x8b65c2e74226ea43,
            0x42b8e8375237a697,
        ],
    ),
    (
        "FabricPromotePendingCopy",
        [
            0xa683f0bc96522cc7,
            0xd4b802bfb7394250,
            0x54faa82a3933cc56,
            0x723af972ceb22cc5,
            0x79e9356e75f77284,
            0x4c0886c96a9e3ff9,
            0x879dc19fed99460f,
            0x12d1431f555fd820,
            0xa74386d3847cd247,
        ],
    ),
    (
        "MegaKvPromoteLostWrite",
        [
            0xabb4cdffff8774cc,
            0x97f7e5f513be7aa5,
            0xe137ef8c0a6aba31,
            0x19f0bfcd5637e622,
            0x9257be407c58ff3a,
            0xbc46e0a8918e9815,
            0xfbc774054318c6a0,
            0x76392e8cdcbf3f6e,
            0xcd7871cf89830b7e,
        ],
    ),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn decision(&mut self, decision: Decision) {
        let (tag, payload) = match decision {
            Decision::Schedule(id) => (0, id.raw()),
            Decision::Bool(b) => (1, u64::from(b)),
            Decision::Int(v) => (2, v as u64),
            Decision::CrashMachine(id) => (3, id.raw()),
            Decision::RestartMachine(id) => (4, id.raw()),
            Decision::DropMessage(id) => (5, id.raw()),
            Decision::DuplicateMessage(id) => (6, id.raw()),
        };
        self.u64(tag);
        self.u64(payload);
    }
}

/// One harness of the pin: a name, its setup, step bound and fault budget.
struct PinTarget {
    name: String,
    build: Box<dyn Fn(&mut Runtime)>,
    max_steps: usize,
    faults: FaultPlan,
}

fn targets() -> Vec<PinTarget> {
    let scale = megakv::MegaKvConfig::scale(SCALE_MACHINES, 2);
    let mut targets = vec![PinTarget {
        name: format!("megakv-scale-{SCALE_MACHINES}"),
        build: Box::new(move |rt| {
            megakv::build_harness(rt, &scale);
        }),
        max_steps: SCALE_MACHINES + 4_000,
        faults: FaultPlan::none(),
    }];
    for case in bug_cases() {
        if case.faults.is_none() {
            continue;
        }
        targets.push(PinTarget {
            name: case.name.to_string(),
            build: case.build,
            max_steps: case.max_steps,
            faults: case.faults,
        });
    }
    targets
}

/// What the executions behind one digest did, so the pin cannot pass on
/// executions that never exercise the state it guards.
#[derive(Default)]
struct Tally {
    faults: u64,
    pruned: u64,
    races: u64,
}

/// The digest of `kind` on `target` over every seed in [`SEEDS`].
fn digest(target: &PinTarget, kind: SchedulerKind, tally: &mut Tally) -> u64 {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        let config = RuntimeConfig {
            max_steps: target.max_steps,
            trace_mode: TraceMode::DecisionsOnly,
            faults: target.faults,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(kind.build(seed, target.max_steps), config, seed);
        (target.build)(&mut rt);
        rt.run();
        let decisions = &rt.trace().decisions;
        hash.u64(decisions.len() as u64);
        for &decision in decisions {
            hash.decision(decision);
        }
        tally.faults += decisions
            .iter()
            .filter(|&&d| Fault::from_decision(d).is_some())
            .count() as u64;
        tally.pruned += rt.pruned_equivalents();
        tally.races += rt.races_detected();
        hash.u64(rt.pruned_equivalents());
        hash.u64(rt.races_detected());
        hash.u64(rt.backtracks_scheduled());
        hash.u64(rt.steps() as u64);
    }
    hash.0
}

#[test]
fn every_strategy_keeps_its_decision_stream_and_counters() {
    let portfolio = SchedulerKind::default_portfolio();
    let mut totals: Vec<Tally> = portfolio.iter().map(|_| Tally::default()).collect();
    let mut actual: Vec<(String, Vec<u64>)> = Vec::new();
    for target in targets() {
        let faults_before: u64 = totals.iter().map(|t| t.faults).sum();
        let row = portfolio
            .iter()
            .zip(&mut totals)
            .map(|(&kind, tally)| digest(&target, kind, tally))
            .collect();
        let faults: u64 = totals.iter().map(|t| t.faults).sum::<u64>() - faults_before;
        assert_eq!(
            faults > 0,
            !target.faults.is_none(),
            "{}: faults fire exactly on the fault-budgeted targets",
            target.name
        );
        actual.push((target.name, row));
    }
    for (kind, tally) in portfolio.iter().zip(&totals) {
        if matches!(kind, SchedulerKind::SleepSet { .. } | SchedulerKind::Dpor) {
            assert!(tally.pruned > 0, "{kind:?} never pruned");
        }
        if *kind == SchedulerKind::Dpor {
            assert!(tally.races > 0, "dpor saw no race");
        }
    }
    let golden: Vec<(String, Vec<u64>)> = GOLDEN
        .iter()
        .map(|(name, row)| (name.to_string(), row.to_vec()))
        .collect();
    if actual != golden {
        let mut table = String::new();
        for (name, row) in &actual {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", cells.join(", ")));
        }
        let columns: Vec<String> = portfolio.iter().map(|k| k.describe()).collect();
        panic!(
            "decision streams changed (columns: {}); current digests:\n{table}",
            columns.join(", ")
        );
    }
}
