//! End-to-end and per-layer benchmark of the BeBoP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-baseline|bebop-eole|warm-window|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest BENCHMARK.json
//! ```
//!
//! A single workload prints its human-readable lines and, as the last line
//! of standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). `--workload all` runs every workload untraced
//! and traced and prints every metric with its unit. See `README.md` for the
//! workloads, the metrics and the layer map.

#![forbid(unsafe_code)]

mod metrics;
mod runner;
mod table2;
mod tracer;
mod workloads;

use std::process::ExitCode;
use workloads::{Scale, Workload, DEFAULT_SEED};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_manifest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        write_manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {v:?}: expected 0..=3600"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: expected 0 or 1")),
                }
            }
            "--write-manifest" => args.write_manifest = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn manifest() -> String {
    let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    metrics::manifest_json(&workloads)
}

/// Prints one run's lines and metrics; returns whether it was correct.
fn print_report(workload: Workload, seed: u64, traced: bool, report: &runner::Report) -> bool {
    let mode = if traced { "traced" } else { "untraced" };
    println!("== {} ({mode}, seed {seed})", workload.name());
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "digest: {} seed={seed} {:#018x}",
        workload.name(),
        report.digest
    );
    for m in metrics::catalogue(traced) {
        if let Some(v) = report.values.get(m.name) {
            println!("{:<32} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    println!(
        "simulations: attempted {} failed {} ({:.2}%)",
        report.attempted,
        report.failed,
        metrics::ratio(report.failed as f64 * 100.0, report.attempted as f64)
    );
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    report.correct()
}

/// Runs every workload untraced and traced, each in a child process of its
/// own so that `peak_rss_mb` is that run's peak, and waits for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: locating the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output();
            let correct = match out {
                Ok(out) => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    print!("{stdout}");
                    out.status.success()
                        && stdout
                            .lines()
                            .last()
                            .is_some_and(|l| l.starts_with("{\"correct\": true,"))
                }
                Err(e) => {
                    eprintln!("perfbench: running {} --trace {trace}: {e}", w.name());
                    false
                }
            };
            all_correct &= correct;
        }
    }
    println!(
        "all workloads: {}",
        if all_correct { "correct" } else { "INCORRECT" }
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_manifest {
        return match std::fs::write(path, manifest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // One worker thread: on a small box the numbers must measure the
    // simulator, not the scheduler.
    bebop::par::set_threads(1);
    let Some(name) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    if name == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(name) else {
        eprintln!("perfbench: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    let report = runner::run(workload, &Scale::FULL, args.seed, args.seconds, args.trace);
    let correct = print_report(workload, args.seed, args.trace, &report);
    println!(
        "{}",
        metrics::result_json(
            correct,
            report.attempted,
            report.failed,
            args.trace,
            &report.values
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            super::manifest(),
            "regenerate BENCHMARK.json with --write-manifest"
        );
    }
}
