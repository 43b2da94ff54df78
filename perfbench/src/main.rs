//! Time-to-bug benchmark of the systematic tester.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hunt|shrink|clean|scale|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one engine worker, one caller in a closed loop. The
//! workload's fixed work (see [`workload`]) is made from `--seed` and sized
//! from `--seconds`; every bug it reports must strictly replay. With
//! `--trace 0` the last line of standard output is the end-to-end result;
//! with `--trace 1` a separate traced run reports the per-layer split (see
//! [`traced`]). `--workload all` runs every workload in turn, each printing
//! its own result line. A failed check exits with code 1 and prints no
//! result for the failing workload.

mod check;
mod reference;
mod run;
mod stats;
mod traced;
mod workload;

#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::Instant;

use psharp::runtime::Runtime;

use crate::reference::Speedometer;
use crate::run::{run_pass, Pass, Untraced};
use crate::stats::{median, quantile, Metrics, Sample};
use crate::workload::{Plan, Workload};

/// Set-up batches; `setup_s` is the median batch time per set-up.
const SETUP_ROUNDS: usize = 51;
/// Set-ups timed together in one batch: one set-up lasts about 0.1 ms,
/// close to the clock's jitter.
const SETUP_BATCH: usize = 10;

struct Args {
    /// `None` runs every workload in turn (`--workload all`).
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => workload = Some(Some(Workload::parse(&value).ok_or_else(bad)?)),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                // The fixed work grows with the run length: bound it.
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The median over [`SETUP_ROUNDS`] batches of [`SETUP_BATCH`] set-ups of
/// the time per set-up, in seconds, scaled by the host speed measured
/// between the batches. A set-up is what comes before the first timed
/// execution: building the plan (the case list and the run seeds), then one
/// runtime per target with its harness built into it, snapshotted on
/// `scale`. It runs first in the process: after the timed work the heap's
/// state, and with it the set-up's cost, differed from run to run by half.
/// Each batch is followed by one reference sample, because the host's speed
/// over the whole run says little about its speed in the millisecond a
/// batch lasts.
fn setup_seconds(workload: Workload, seed: u64, rounds: usize) -> f64 {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    let mut speedometer = Speedometer::new();
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            set_up(workload, seed, rounds);
        }
        times.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        speedometer.sample_now();
    }
    median(&times) * speedometer.factor()
}

/// One set-up: the plan, then one runtime per target with its harness
/// built into it, snapshotted under prefix sharing.
fn set_up(workload: Workload, seed: u64, rounds: usize) {
    let plan = Plan::new(workload, seed, rounds);
    for spec in plan.runs.iter().take(plan.targets.len()) {
        let target = &plan.targets[spec.target];
        let config = plan.config(spec, spec.seed, plan.executions);
        let scheduler = config
            .strategy_for_iteration(0)
            .build(config.seed_for_iteration(0), config.max_steps);
        let mut runtime = Runtime::new(
            scheduler,
            check::runtime_config(&config),
            config.seed_for_iteration(0),
        );
        (target.build)(&mut runtime);
        if config.prefix_sharing {
            std::hint::black_box(runtime.snapshot());
        }
        std::hint::black_box(&runtime);
    }
}

/// Executions each run spent before its verdict: on a hunt, up to the
/// buggy execution plus the shrink candidates that minimized it; on a fixed
/// harness, the whole budget. A missed hunt is marked as a miss of the
/// budget it spent.
fn execs_to_verdict(plan: &Plan, pass: &Pass) -> Vec<Sample> {
    pass.runs
        .iter()
        .map(|r| match (plan.workload.hunts(), r.bugs.first()) {
            (true, Some(bug)) => {
                let candidates = bug.found.shrink.as_ref().map_or(0, |s| s.candidates);
                Sample::hit((bug.executions + candidates) as f64)
            }
            (true, None) => Sample::miss(r.execs as f64),
            (false, _) => Sample::hit(r.execs as f64),
        })
        .collect()
}

/// Seconds each run took; a missed hunt is marked as a miss of the time it
/// spent.
fn time_to_verdict(plan: &Plan, pass: &Pass) -> Vec<Sample> {
    pass.runs
        .iter()
        .map(|r| {
            if plan.workload.hunts() && r.bugs.is_empty() {
                Sample::miss(r.seconds)
            } else {
                Sample::hit(r.seconds)
            }
        })
        .collect()
}

/// Σ minimized decisions ÷ Σ original decisions over the shrunk bugs; 1
/// where nothing is shrunk.
fn minimized_ndc_ratio(pass: &Pass) -> f64 {
    let (mut minimized, mut original) = (0usize, 0usize);
    for bug in pass.runs.iter().flat_map(|r| &r.bugs) {
        if let Some(shrunk) = &bug.found.shrink {
            minimized += shrunk.minimized_ndc;
            original += bug.found.ndc;
        }
    }
    if original == 0 {
        1.0
    } else {
        minimized as f64 / original as f64
    }
}

/// The end-to-end metrics of an untraced run. Times are scaled by the
/// pass's host speed factor and rates divided by it, so they read as on the
/// reference host (see [`reference`]); `setup_s` comes scaled already.
fn end_to_end(plan: &Plan, pass: &Pass, setup_s: f64) -> Metrics {
    let speed = pass.speed;
    let execs_to_bug = execs_to_verdict(plan, pass);
    let mut m = Metrics::default();
    m.push("wall_s", "s", pass.seconds * speed);
    m.push(
        "execs_per_s",
        "1/s",
        pass.all_execs() as f64 / (pass.seconds * speed),
    );
    m.push(
        "steps_per_s",
        "1/s",
        pass.steps() as f64 / (pass.engine_seconds() * speed),
    );
    m.push("execs_to_bug.p50", "count", quantile(&execs_to_bug, 0.5));
    m.push("execs_to_bug.p90", "count", quantile(&execs_to_bug, 0.9));
    m.push(
        "time_to_bug_s.p90",
        "s",
        quantile(&time_to_verdict(plan, pass), 0.9) * speed,
    );
    m.push("minimized_ndc_ratio", "ratio", minimized_ndc_ratio(pass));
    m.push("setup_s", "s", setup_s);
    m
}

/// The failed runs of one pass.
fn failures(plan: &Plan, pass: &Pass) -> u64 {
    let hunts = plan.workload.hunts();
    pass.runs.iter().filter(|r| r.failed(hunts)).count() as u64
}

/// Runs one workload: the untraced run with its end-to-end metrics, or the
/// traced run with its per-layer metrics. Returns the metrics with the runs
/// attempted and failed.
fn run_workload(args: &Args, workload: Workload) -> Result<(Metrics, u64, u64), String> {
    let rounds = workload::rounds(workload, args.seconds);
    if args.trace {
        return traced::run(workload, args.seed, rounds);
    }
    let setup_s = setup_seconds(workload, args.seed, rounds);
    let plan = Plan::new(workload, args.seed, rounds);
    let pass = run_pass(&plan, &mut Untraced, &|spec, result| {
        check::check_run(&plan, spec, result)
    })?;
    println!(
        "perfbench {}: {:.3} s in the runs as measured, host speed factor {:.4}",
        workload.name(),
        pass.seconds,
        pass.speed
    );
    let metrics = end_to_end(&plan, &pass, setup_s);
    Ok((metrics, plan.runs.len() as u64, failures(&plan, &pass)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = match args.workload {
        Some(workload) => vec![workload],
        None => Workload::ALL.to_vec(),
    };
    for workload in workloads {
        match run_workload(&args, workload) {
            Ok((metrics, attempted, failed)) => {
                println!(
                    "perfbench {} seed {}: {failed} of {attempted} runs failed \
                     (failure_rate {:.6})",
                    workload.name(),
                    args.seed,
                    failed as f64 / attempted as f64,
                );
                print!("{}", metrics.table());
                println!("{}", metrics.result_line(attempted, failed));
            }
            Err(e) => {
                eprintln!("perfbench {}: check failed: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
