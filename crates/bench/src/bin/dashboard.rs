//! Cross-PR perf dashboard: reads every `BENCH_*.json` report in a
//! directory (the series the scheduler bench has emitted since PR 2) and
//! renders the perf trajectory as a markdown trend table.
//!
//! Usage: `dashboard [--dir PATH] [--out PATH]` (defaults: current
//! directory, `BENCH_DASHBOARD.md`). The committed `BENCH_DASHBOARD.md` at
//! the repo root is generated by exactly this command; CI regenerates it
//! from the current checkout plus the fresh bench-smoke report and uploads
//! the result as an artifact.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use psharp::json::Json;

/// One measurement row of a report: (group, name, execs/s, median ms, steps).
type ResultRow = (String, String, f64, f64, u64);

/// One worker-count scaling row: (workers, execs/s, per-core efficiency).
type ScalingRow = (u64, f64, f64);

/// The worker-count scaling block a report may carry (PR 6 onward).
struct Scaling {
    cores_available: u64,
    serial_portfolio_execs_per_sec: f64,
    rows: Vec<ScalingRow>,
}

/// The mega-scale machine-count sweep a report may carry (PR 8 onward):
/// steps/s of the fixed megakv workload per total machine count, plus the
/// 4096-vs-256 ratio the CI smoke warns on.
struct MegaScale {
    /// (total machines, steps/s) per sweep point.
    rows: Vec<(u64, f64)>,
    steps_per_sec_ratio_4096_vs_256: f64,
}

/// One fork-cost row: (total machines, dirty machines, COW restores/s,
/// full restores/s, speedup).
type ForkRow = (u64, u64, f64, f64, f64);

/// The copy-on-write fork-cost sweep a report may carry (PR 9 onward):
/// restores/s of the O(dirty) COW rewind vs the O(machines) full rebuild,
/// per total machine count.
struct ForkCost {
    rows: Vec<ForkRow>,
    speedup_at_10240: f64,
}

/// The schedule-reduction block a report may carry (PR 7 onward).
struct Reduction {
    redundancy_ratio: f64,
    sleep_set_execs_per_sec: f64,
    effective_equivalents_per_sec: f64,
    effective_speedup_vs_random: f64,
    prefix_sharing_speedup: f64,
}

/// The DPOR-vs-sleep-set block a report may carry (PR 10 onward): both
/// strategies' redundancy ratios on the wide all-local workload, from the
/// same run.
struct DporReduction {
    sleep_set_redundancy_ratio: f64,
    dpor_redundancy_ratio: f64,
    dpor_vs_sleep_set: f64,
    sleep_set_effective_equivalents_per_sec: f64,
    dpor_effective_equivalents_per_sec: f64,
    races_detected: u64,
    backtracks_scheduled: u64,
}

/// One parsed `BENCH_*.json` report.
struct Report {
    /// File stem, used as the column/row label ("BENCH_pr3").
    label: String,
    /// The PR number the report was committed with (sort key).
    pr: u64,
    quick_mode: bool,
    serial_execs_per_sec: f64,
    parallel_execs_per_sec: f64,
    speedup_vs_baseline: f64,
    results: Vec<ResultRow>,
    scaling: Option<Scaling>,
    /// Fixed-work calibration probe (PR 7 onward): exec/s of a pinned
    /// round-robin workload, measuring the container rather than the engine.
    calibration_execs_per_sec: Option<f64>,
    reduction: Option<Reduction>,
    dpor_reduction: Option<DporReduction>,
    mega_scale: Option<MegaScale>,
    fork_cost: Option<ForkCost>,
}

impl Report {
    fn parse(path: &Path) -> Option<Report> {
        let text = fs::read_to_string(path).ok()?;
        let json = Json::parse(&text).ok()?;
        let results = json
            .opt("results")
            .and_then(|r| r.as_array().ok())
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        Some((
                            row.get("group").ok()?.as_str().ok()?.to_string(),
                            row.get("name").ok()?.as_str().ok()?.to_string(),
                            row.get("execs_per_sec").ok()?.as_f64().ok()?,
                            row.get("median_ms").ok()?.as_f64().ok()?,
                            row.get("steps").ok()?.as_u64().ok()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let f64_of = |key: &str| json.opt(key).and_then(|v| v.as_f64().ok()).unwrap_or(0.0);
        let scaling = json.opt("scaling").map(|block| Scaling {
            cores_available: block
                .opt("cores_available")
                .and_then(|v| v.as_u64().ok())
                .unwrap_or(0),
            serial_portfolio_execs_per_sec: block
                .opt("serial_portfolio_execs_per_sec")
                .and_then(|v| v.as_f64().ok())
                .unwrap_or(0.0),
            rows: block
                .opt("rows")
                .and_then(|rows| rows.as_array().ok())
                .map(|rows| {
                    rows.iter()
                        .filter_map(|row| {
                            Some((
                                row.get("workers").ok()?.as_u64().ok()?,
                                row.get("execs_per_sec").ok()?.as_f64().ok()?,
                                row.get("per_core_efficiency").ok()?.as_f64().ok()?,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default(),
        });
        let reduction_f64 =
            |block: &Json, key: &str| block.opt(key).and_then(|v| v.as_f64().ok()).unwrap_or(0.0);
        let mega_scale = json.opt("megakv_scaling").map(|block| MegaScale {
            rows: block
                .opt("rows")
                .and_then(|rows| rows.as_array().ok())
                .map(|rows| {
                    rows.iter()
                        .filter_map(|row| {
                            Some((
                                row.get("machines").ok()?.as_u64().ok()?,
                                row.get("steps_per_sec").ok()?.as_f64().ok()?,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default(),
            steps_per_sec_ratio_4096_vs_256: block
                .opt("steps_per_sec_ratio_4096_vs_256")
                .and_then(|v| v.as_f64().ok())
                .unwrap_or(0.0),
        });
        let fork_cost = json.opt("fork_cost").map(|block| ForkCost {
            rows: block
                .opt("rows")
                .and_then(|rows| rows.as_array().ok())
                .map(|rows| {
                    rows.iter()
                        .filter_map(|row| {
                            Some((
                                row.get("machines").ok()?.as_u64().ok()?,
                                row.get("dirty_machines").ok()?.as_u64().ok()?,
                                row.get("cow_restores_per_sec").ok()?.as_f64().ok()?,
                                row.get("full_restores_per_sec").ok()?.as_f64().ok()?,
                                row.get("speedup").ok()?.as_f64().ok()?,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default(),
            speedup_at_10240: block
                .opt("speedup_at_10240")
                .and_then(|v| v.as_f64().ok())
                .unwrap_or(0.0),
        });
        let reduction = json.opt("schedule_reduction").map(|block| Reduction {
            redundancy_ratio: reduction_f64(block, "redundancy_ratio"),
            sleep_set_execs_per_sec: reduction_f64(block, "sleep_set_execs_per_sec"),
            effective_equivalents_per_sec: reduction_f64(
                block,
                "effective_schedule_equivalents_per_sec",
            ),
            effective_speedup_vs_random: reduction_f64(block, "effective_speedup_vs_random"),
            prefix_sharing_speedup: reduction_f64(block, "prefix_sharing_speedup"),
        });
        let block_u64 =
            |block: &Json, key: &str| block.opt(key).and_then(|v| v.as_u64().ok()).unwrap_or(0);
        let dpor_reduction = json.opt("dpor_reduction").map(|block| DporReduction {
            sleep_set_redundancy_ratio: reduction_f64(block, "sleep_set_redundancy_ratio"),
            dpor_redundancy_ratio: reduction_f64(block, "dpor_redundancy_ratio"),
            dpor_vs_sleep_set: reduction_f64(block, "dpor_vs_sleep_set"),
            sleep_set_effective_equivalents_per_sec: reduction_f64(
                block,
                "sleep_set_effective_equivalents_per_sec",
            ),
            dpor_effective_equivalents_per_sec: reduction_f64(
                block,
                "dpor_effective_equivalents_per_sec",
            ),
            races_detected: block_u64(block, "races_detected"),
            backtracks_scheduled: block_u64(block, "backtracks_scheduled"),
        });
        Some(Report {
            label: path.file_stem()?.to_string_lossy().into_owned(),
            pr: json.opt("pr").and_then(|v| v.as_u64().ok()).unwrap_or(0),
            quick_mode: json
                .opt("quick_mode")
                .and_then(|v| v.as_bool().ok())
                .unwrap_or(false),
            serial_execs_per_sec: f64_of("serial_random_execs_per_sec"),
            parallel_execs_per_sec: f64_of("parallel_execs_per_sec"),
            speedup_vs_baseline: f64_of("speedup_vs_baseline"),
            results,
            scaling,
            calibration_execs_per_sec: json
                .opt("calibration_execs_per_sec")
                .and_then(|v| v.as_f64().ok()),
            reduction,
            dpor_reduction,
            mega_scale,
            fork_cost,
        })
    }

    fn strategy_rows(&self) -> Vec<(&str, f64)> {
        self.results
            .iter()
            .filter(|(group, ..)| group == "portfolio_per_strategy")
            .map(|(_, name, execs, ..)| (name.as_str(), *execs))
            .collect()
    }
}

fn collect_reports(dir: &Path) -> Vec<Report> {
    let mut reports: Vec<Report> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .filter_map(|path| Report::parse(&path))
        .collect();
    reports.sort_by_key(|report| (report.pr, report.label.clone()));
    reports
}

fn render(reports: &[Report]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Bench dashboard");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Perf trajectory across the committed `BENCH_*.json` series. \
         Regenerate with `cargo run --release -p bench --bin dashboard`; \
         figures are only comparable when measured on comparable hardware \
         (quick-mode CI reports are marked)."
    );

    let _ = writeln!(out, "\n## Engine throughput trend\n");
    let _ = writeln!(
        out,
        "The *normalized serial* column divides serial exec/s by the report's \
         fixed-work calibration probe (PR 7 onward), cancelling out how fast \
         the measuring container happens to be — it makes figures taken on \
         different machines comparable. Reports predating the probe show `-`."
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| report | PR | mode | serial exec/s | parallel exec/s | speedup vs pre-PR2 baseline \
         | calibration exec/s | normalized serial |"
    );
    let _ = writeln!(out, "|---|---:|---|---:|---:|---:|---:|---:|");
    for report in reports {
        let mode = if report.quick_mode { "quick" } else { "full" };
        let (calibration, normalized) = match report.calibration_execs_per_sec {
            Some(probe) if probe > 0.0 => (
                format!("{probe:.0}"),
                format!("{:.2}x", report.serial_execs_per_sec / probe),
            ),
            _ => ("-".to_string(), "-".to_string()),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {:.0} | {:.2}x | {} | {} |",
            report.label,
            report.pr,
            mode,
            report.serial_execs_per_sec,
            report.parallel_execs_per_sec,
            report.speedup_vs_baseline,
            calibration,
            normalized
        );
    }

    // Per-strategy exec/s: rows = strategies (in first-seen order), one
    // column per report that carries the group (PR 3 onward).
    let with_strategies: Vec<&Report> = reports
        .iter()
        .filter(|r| !r.strategy_rows().is_empty())
        .collect();
    if !with_strategies.is_empty() {
        let mut strategies: Vec<&str> = Vec::new();
        for report in &with_strategies {
            for (name, _) in report.strategy_rows() {
                if !strategies.contains(&name) {
                    strategies.push(name);
                }
            }
        }
        let _ = writeln!(out, "\n## Portfolio per-strategy exec/s\n");
        let mut header = "| strategy |".to_string();
        let mut rule = "|---|".to_string();
        for report in &with_strategies {
            let _ = write!(header, " {} |", report.label);
            rule.push_str("---:|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for strategy in strategies {
            let mut line = format!("| {strategy} |");
            for report in &with_strategies {
                match report
                    .strategy_rows()
                    .iter()
                    .find(|(name, _)| *name == strategy)
                {
                    Some((_, execs)) => {
                        let _ = write!(line, " {execs:.0} |");
                    }
                    None => line.push_str(" - |"),
                }
            }
            let _ = writeln!(out, "{line}");
        }
    }

    // Worker-count scaling (PR 6 onward): exec/s of the parallel portfolio
    // engine at 1/2/4/8 workers, normalized into a per-core efficiency.
    let with_scaling: Vec<&Report> = reports.iter().filter(|r| r.scaling.is_some()).collect();
    if !with_scaling.is_empty() {
        let _ = writeln!(out, "\n## Parallel scaling\n");
        let _ = writeln!(
            out,
            "Worker-count scaling of the engine on the bug-free portfolio \
             hunt (PR 6 onward). Each worker pools one `Runtime` across its \
             iterations (`Runtime::reset` recycles machines, mailboxes, the name \
             table and all trace/enabled/fault buffers), tallies statistics into \
             worker-local rows merged once at the end, and the engine caps its OS \
             threads at the host's available parallelism. *Per-core efficiency* is \
             `exec/s ÷ (serial portfolio exec/s × min(workers, cores))` — workers \
             beyond the core count share time slices, so they are not counted as \
             capacity; 1.00x means the run adds cores at zero overhead."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| report | cores | serial portfolio exec/s | workers | exec/s | per-core efficiency |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
        for report in &with_scaling {
            let scaling = report.scaling.as_ref().expect("filtered on is_some");
            for (workers, execs, efficiency) in &scaling.rows {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.0} | {} | {:.0} | {:.2}x |",
                    report.label,
                    scaling.cores_available,
                    scaling.serial_portfolio_execs_per_sec,
                    workers,
                    execs,
                    efficiency
                );
            }
        }
    }

    // Schedule reduction (PR 7 onward): sleep-set POR redundancy ratio and
    // the effective schedule-equivalents/s it buys, plus the prefix-sharing
    // speedup on the setup-heavy chaintable harness.
    let with_reduction: Vec<&Report> = reports.iter().filter(|r| r.reduction.is_some()).collect();
    if !with_reduction.is_empty() {
        let _ = writeln!(out, "\n## Schedule reduction\n");
        let _ = writeln!(
            out,
            "Exploring *fewer* schedules instead of faster ones (PR 7 onward). \
             The sleep-set scheduler prunes interleavings equivalent under \
             independence; *redundancy ratio* is `(explored + pruned) ÷ \
             explored`, so effective schedule-equivalents/s is its exec/s \
             times that ratio. *Prefix sharing* forks each iteration from a \
             post-setup snapshot instead of rebuilding the harness, measured \
             on a setup-heavy chaintable configuration."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| report | redundancy ratio | sleep-set exec/s | effective equivalents/s \
             | vs random baseline | prefix-sharing speedup |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
        for report in &with_reduction {
            let r = report.reduction.as_ref().expect("filtered on is_some");
            let _ = writeln!(
                out,
                "| {} | {:.2}x | {:.0} | {:.0} | {:.2}x | {:.2}x |",
                report.label,
                r.redundancy_ratio,
                r.sleep_set_execs_per_sec,
                r.effective_equivalents_per_sec,
                r.effective_speedup_vs_random,
                r.prefix_sharing_speedup
            );
        }
    }

    // DPOR vs sleep sets (PR 10 onward): both redundancy ratios on the wide
    // all-local workload, from the same run.
    let with_dpor: Vec<&Report> = reports
        .iter()
        .filter(|r| r.dpor_reduction.is_some())
        .collect();
    if !with_dpor.is_empty() {
        let _ = writeln!(out, "\n## DPOR vs sleep sets\n");
        let _ = writeln!(
            out,
            "Vector-clock DPOR against the sleep-set scheduler on the *wide* \
             all-local workload — 20 sinks, so the enabled set is far wider \
             than the sleep window (PR 10 onward). Sleep-set pruning is capped \
             by that window while DPOR's sticky run-to-completion prunes \
             against every concurrently-enabled local machine; the acceptance \
             bar is a DPOR redundancy ratio ≥ 1.5x the sleep-set figure from \
             the same run."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| report | sleep-set ratio | DPOR ratio | DPOR vs sleep-set \
             | sleep-set equivalents/s | DPOR equivalents/s | races | backtracks |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|");
        for report in &with_dpor {
            let d = report.dpor_reduction.as_ref().expect("filtered on is_some");
            let _ = writeln!(
                out,
                "| {} | {:.2}x | {:.2}x | {:.2}x | {:.0} | {:.0} | {} | {} |",
                report.label,
                d.sleep_set_redundancy_ratio,
                d.dpor_redundancy_ratio,
                d.dpor_vs_sleep_set,
                d.sleep_set_effective_equivalents_per_sec,
                d.dpor_effective_equivalents_per_sec,
                d.races_detected,
                d.backtracks_scheduled
            );
        }
    }

    // Mega-scale sweep (PR 8 onward): steps/s of the fixed megakv workload
    // as the total machine count grows from 256 to 10,240.
    let with_mega: Vec<&Report> = reports.iter().filter(|r| r.mega_scale.is_some()).collect();
    if !with_mega.is_empty() {
        let _ = writeln!(out, "\n## Scaling to 10\u{2074} machines\n");
        let _ = writeln!(
            out,
            "Per-step throughput of the megakv sharded-KV harness (PR 8 onward): \
             the *same* fixed client workload embedded in systems of growing total \
             size, so almost every added machine is cold. With the O(active) \
             scheduling core (incremental enabled index + lazy mailboxes) steps/s \
             must stay essentially flat; the *4096 vs 256* ratio is the figure the \
             CI bench-smoke job warns on (must stay ≥ 0.5x). Harness construction \
             and the one-time startup drain are untimed."
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| report | machines | steps/s | 4096 vs 256 |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        for report in &with_mega {
            let mega = report.mega_scale.as_ref().expect("filtered on is_some");
            for (machines, steps_per_sec) in &mega.rows {
                let ratio = if *machines == 4_096 {
                    format!("{:.2}x", mega.steps_per_sec_ratio_4096_vs_256)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.0} | {} |",
                    report.label, machines, steps_per_sec, ratio
                );
            }
        }
    }

    // Fork cost (PR 9 onward): the copy-on-write restore vs the full
    // rebuild, per total machine count.
    let with_fork: Vec<&Report> = reports.iter().filter(|r| r.fork_cost.is_some()).collect();
    if !with_fork.is_empty() {
        let _ = writeln!(out, "\n## Fork cost\n");
        let _ = writeln!(
            out,
            "Cost of rewinding a runtime to a snapshot after a low-dirty \
             excursion — the per-iteration operation of prefix-sharing \
             execution (PR 9 onward). The snapshot holds every machine behind \
             an `Arc`; *COW restores/s* rewinds through the O(dirty) \
             incremental path that re-clones only machines touched since the \
             fork, *full restores/s* through the historical from-scratch \
             rebuild that walks every slot. The *speedup* at 10,240 machines \
             is the acceptance figure (must stay ≥ 5x)."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| report | machines | dirty | COW restores/s | full restores/s | speedup |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
        for report in &with_fork {
            let fork = report.fork_cost.as_ref().expect("filtered on is_some");
            for (machines, dirty, cow, full, speedup) in &fork.rows {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.0} | {:.0} | {:.1}x |",
                    report.label, machines, dirty, cow, full, speedup
                );
            }
        }
        let _ = writeln!(out);
        for report in &with_fork {
            let fork = report.fork_cost.as_ref().expect("filtered on is_some");
            let _ = writeln!(
                out,
                "- {}: {:.1}x at 10,240 machines (acceptance ≥ 5x)",
                report.label, fork.speedup_at_10240
            );
        }
    }

    // Shrink rows (PR 4 onward): median shrink time plus reduction quality
    // (the row's steps column carries the minimized decision count).
    let shrink_rows: Vec<(&Report, &ResultRow)> = reports
        .iter()
        .flat_map(|report| {
            report
                .results
                .iter()
                .filter(|(group, ..)| group == "shrink")
                .map(move |row| (report, row))
        })
        .collect();
    if !shrink_rows.is_empty() {
        let _ = writeln!(out, "\n## Schedule shrinking\n");
        let _ = writeln!(
            out,
            "| report | case | median shrink time (ms) | minimized decisions |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|");
        for (report, (_, name, _, median_ms, steps)) in shrink_rows {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {} |",
                report.label, name, median_ms, steps
            );
        }
    }

    // Fault-injection rows (PR 5 onward): probe overhead on the hot path
    // and the end-to-end cost of a crash budget on the fabric failover
    // harness.
    let fault_rows: Vec<(&Report, &ResultRow)> = reports
        .iter()
        .flat_map(|report| {
            report
                .results
                .iter()
                .filter(|(group, ..)| group == "fault_injection")
                .map(move |row| (report, row))
        })
        .collect();
    if !fault_rows.is_empty() {
        let _ = writeln!(out, "\n## Fault injection\n");
        let _ = writeln!(out, "| report | case | exec/s | median (ms) |");
        let _ = writeln!(out, "|---|---|---:|---:|");
        for (report, (_, name, execs, median_ms, _)) in fault_rows {
            let _ = writeln!(
                out,
                "| {} | {} | {:.0} | {:.1} |",
                report.label, name, execs, median_ms
            );
        }
    }

    out
}

fn main() {
    let mut dir = PathBuf::from(".");
    let mut out_path = PathBuf::from("BENCH_DASHBOARD.md");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--dir" => dir = PathBuf::from(argv.next().expect("--dir requires a path")),
            "--out" => out_path = PathBuf::from(argv.next().expect("--out requires a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    let reports = collect_reports(&dir);
    if reports.is_empty() {
        panic!("no BENCH_*.json reports found in {}", dir.display());
    }
    let markdown = render(&reports);
    fs::write(&out_path, &markdown).expect("write dashboard");
    println!(
        "dashboard over {} report(s) written to {}",
        reports.len(),
        out_path.display()
    );
    print!("{markdown}");
}
