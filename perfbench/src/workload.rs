//! The four workloads, each built from the `--seed` argument.
//!
//! A workload is a fixed list of *runs*: one engine call on one harness under
//! one base seed, issued by a single caller in a closed loop (the next run
//! starts only after the previous one returned). One pass over the list is
//! the workload's fixed work; the same `--seed` always yields the same list.

use psharp::prelude::*;
use psharp::runtime::Runtime;

/// Builds a harness into a fresh runtime.
pub type Build = Box<dyn Fn(&mut Runtime) + Send + Sync>;

/// Executions a hunt may spend before it counts as a miss.
pub const HUNT_BUDGET: u64 = 2_000;
/// Executions per fixed harness and seed on `clean`.
pub const CLEAN_EXECUTIONS: u64 = 300;
/// Machines in the `scale` harness.
pub const SCALE_MACHINES: usize = 1_024;
/// Executions per portfolio strategy and seed on `scale`.
pub const SCALE_EXECUTIONS: u64 = 2;

/// Which workload a run of the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every seeded bug, hunted under the default portfolio.
    Hunt,
    /// The same hunts with the shrink pass on.
    Shrink,
    /// The five fixed harnesses, verified under the default portfolio.
    Clean,
    /// The 1,024-machine fixed megakv store with prefix sharing on.
    Scale,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Hunt,
        Workload::Shrink,
        Workload::Clean,
        Workload::Scale,
    ];

    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hunt => "hunt",
            Workload::Shrink => "shrink",
            Workload::Clean => "clean",
            Workload::Scale => "scale",
        }
    }

    /// Seconds one round (one seed for every target) takes on a 2-core
    /// x86-64 container; [`rounds`] sizes a run's fixed work from it.
    fn round_seconds(self) -> f64 {
        match self {
            Workload::Hunt => 0.16,
            Workload::Shrink => 4.2,
            Workload::Clean => 1.3,
            Workload::Scale => 1.25,
        }
    }

    /// Whether the workload's harnesses carry a bug to find. On the fixed
    /// harnesses a reported violation is a false alarm.
    pub fn hunts(self) -> bool {
        matches!(self, Workload::Hunt | Workload::Shrink)
    }
}

/// One harness a workload tests.
pub struct Target {
    /// The seeded bug's or the fixed harness's name.
    pub name: &'static str,
    /// The case-study crate whose `build_harness` builds it.
    pub crate_name: &'static str,
    /// Builds the harness.
    pub build: Build,
    /// Per-execution step bound.
    pub max_steps: usize,
    /// Per-execution fault budget.
    pub faults: FaultPlan,
}

/// One engine call: a target under one base seed.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Index into [`Plan::targets`].
    pub target: usize,
    /// The engine's base seed.
    pub seed: u64,
    /// The one portfolio strategy the call runs, or `None` for the whole
    /// default portfolio.
    pub strategy: Option<SchedulerKind>,
}

/// The rounds a run of `workload` does in about `seconds`: the fixed work
/// depends only on the arguments, never on how fast the machine is.
pub fn rounds(workload: Workload, seconds: f64) -> usize {
    ((seconds / workload.round_seconds()).round() as usize).max(1)
}

/// A workload's fixed work.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The harnesses.
    pub targets: Vec<Target>,
    /// The runs of one pass, in issue order.
    pub runs: Vec<RunSpec>,
    /// Executions each run may spend (the hunt budget, or the verification
    /// length on the fixed harnesses).
    pub executions: u64,
}

impl Plan {
    /// The fixed work of `workload` for the benchmark seed `seed`: `rounds`
    /// rounds, each giving every target one fresh base seed. On `scale` a
    /// round runs each default-portfolio strategy in turn for
    /// [`SCALE_EXECUTIONS`] executions, so every round has the portfolio's
    /// exact strategy mix (`README.md` says why).
    pub fn new(workload: Workload, seed: u64, rounds: usize) -> Plan {
        let (targets, executions) = match workload {
            Workload::Hunt | Workload::Shrink => (bug_targets(), HUNT_BUDGET),
            Workload::Clean => (fixed_targets(), CLEAN_EXECUTIONS),
            Workload::Scale => (vec![scale_target()], SCALE_EXECUTIONS),
        };
        let strategies: Vec<Option<SchedulerKind>> = match workload {
            Workload::Scale => SchedulerKind::default_portfolio()
                .into_iter()
                .map(Some)
                .collect(),
            _ => vec![None],
        };
        let mut runs = Vec::new();
        for round in 0..rounds {
            for target in 0..targets.len() {
                let seed = derive(seed, (round * targets.len() + target) as u64);
                for &strategy in &strategies {
                    runs.push(RunSpec {
                        target,
                        seed,
                        strategy,
                    });
                }
            }
        }
        Plan {
            workload,
            targets,
            runs,
            executions,
        }
    }

    /// The engine configuration of one run: one worker, the run's portfolio
    /// (the default one, or the one strategy of a `scale` run), the target's
    /// step bound and fault budget, shrinking on `shrink` and prefix sharing
    /// on `scale`.
    pub fn config(&self, spec: &RunSpec, seed: u64, executions: u64) -> TestConfig {
        let target = &self.targets[spec.target];
        let portfolio = match spec.strategy {
            Some(kind) => vec![kind],
            None => SchedulerKind::default_portfolio(),
        };
        TestConfig::new()
            .with_iterations(executions)
            .with_max_steps(target.max_steps)
            .with_seed(seed)
            .with_workers(1)
            .with_portfolio(portfolio)
            .with_faults(target.faults)
            .with_shrink(self.workload == Workload::Shrink)
            .with_prefix_sharing(self.workload == Workload::Scale)
    }
}

/// The `index`-th seed derived from the benchmark seed (SplitMix64).
pub fn derive(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The crate a bug case's harness lives in, by the case-study index of
/// [`bench::BugCase::case_study`].
fn case_crate(case_study: u8) -> &'static str {
    match case_study {
        0 => "replsim",
        1 => "vnext",
        2 => "chaintable",
        3 => "fabric",
        4 => "megakv",
        other => panic!("unknown case study {other}"),
    }
}

fn bug_targets() -> Vec<Target> {
    bench::bug_cases()
        .into_iter()
        .map(|case| Target {
            name: case.name,
            crate_name: case_crate(case.case_study),
            build: case.build,
            max_steps: case.max_steps,
            faults: case.faults,
        })
        .collect()
}

/// The fixed harnesses with their step bounds and designed fault budgets,
/// as `fixed_check --portfolio --faults default` verifies them.
fn fixed_targets() -> Vec<Target> {
    vec![
        Target {
            name: "replsim",
            crate_name: "replsim",
            build: Box::new(|rt| {
                replsim::build_harness(rt, &replsim::ReplConfig::default());
            }),
            max_steps: 2_500,
            faults: replsim::ReplConfig::default().fault_plan(),
        },
        Target {
            name: "vnext",
            crate_name: "vnext",
            build: Box::new(|rt| {
                vnext::build_harness(rt, &vnext::VnextConfig::default());
            }),
            max_steps: 3_000,
            faults: vnext::VnextConfig::default().fault_plan(),
        },
        Target {
            name: "chaintable",
            crate_name: "chaintable",
            build: Box::new(|rt| {
                chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
            }),
            max_steps: 10_000,
            faults: chaintable::ChainConfig::fixed().fault_plan(),
        },
        Target {
            name: "fabric",
            crate_name: "fabric",
            build: Box::new(|rt| {
                fabric::build_harness(rt, &fabric::FabricConfig::default());
            }),
            max_steps: 5_000,
            faults: fabric::FabricConfig::default().fault_plan(),
        },
        Target {
            name: "megakv",
            crate_name: "megakv",
            build: Box::new(|rt| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::default());
            }),
            max_steps: 4_000,
            faults: megakv::MegaKvConfig::default().fault_plan(),
        },
    ]
}

/// The fixed megakv store at [`SCALE_MACHINES`] machines, on a reliable
/// network (no fault plan).
fn scale_target() -> Target {
    let config = megakv::MegaKvConfig::scale(SCALE_MACHINES, 2);
    Target {
        name: "megakv-scale",
        crate_name: "megakv",
        build: Box::new(move |rt| {
            megakv::build_harness(rt, &config);
        }),
        // The bound covers the start step every machine owes plus the
        // client workload.
        max_steps: SCALE_MACHINES + 4_000,
        faults: FaultPlan::none(),
    }
}
