//! Statistical differential harness for SimPoint-style phase sampling.
//!
//! The sampler (`bebop_bench::sampling`) is a *lossy estimator*: it simulates
//! a handful of representative slices and extrapolates whole-run metrics from
//! phase weights. That is only trustworthy if (a) the estimate lands inside
//! the error bound the reporter itself declares, for every predictor kind,
//! and (b) the whole pipeline — BBV profiling, k-means clustering, functional
//! warming, weighted combination — is exactly deterministic, so a sampled
//! figure in a paper or a perf report can be reproduced bit-for-bit.
//!
//! The tests here check both properties differentially against full-run
//! goldens produced by the ordinary driver, at the same µ-op budgets the
//! `figures` front end uses.

use std::sync::Mutex;

use bebop::{configs, par, PipelineConfig, PredictorKind, Run, UopSource};
use bebop_bench::sampling::{run_sampled, run_sampled_with, SamplingConfig};
use bebop_bench::workloads;

/// `par::set_threads` is process-global; tests that change it must not
/// interleave with each other (the harness runs tests on multiple threads).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn pipe() -> PipelineConfig {
    PipelineConfig::baseline_vp_6_60()
}

/// The ISSUE acceptance check, verbatim: sampled D-VTAGE accuracy/coverage
/// (and IPC) within the declared confidence interval of the full-run golden
/// for **all** benchmark specs at 200 K µops, under both a serial and a
/// parallel fan-out — and the two fan-outs bit-identical to each other.
#[test]
fn dvtage_within_declared_bounds_on_every_benchmark_serial_and_par() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let specs = workloads(false);
    let uops = 200_000;
    let cfg = SamplingConfig::for_budget(uops);
    let goldens = par::par_map(&specs, |s| {
        Run::new(UopSource::Live(s), &pipe(), &PredictorKind::DVtage, uops).stats()
    });

    par::set_threads(1);
    let serial = run_sampled(&specs, uops, &cfg);
    par::set_threads(0);
    let parallel = run_sampled(&specs, uops, &cfg);

    assert_eq!(
        serial.rows, parallel.rows,
        "serial and parallel sampled runs must be bit-identical"
    );
    assert_eq!(serial.simulated_uops, parallel.simulated_uops);
    assert!(
        serial.simulated_uops * 5 <= serial.full_uops,
        "sampling must simulate at most 1/5 of the full budget: {} vs {}",
        serial.simulated_uops,
        serial.full_uops
    );
    for (row, golden) in serial.rows.iter().zip(&goldens) {
        let violations = row.sampled.bound_violations(golden);
        assert!(
            violations.is_empty(),
            "{}: sampled estimate outside its declared bound: {violations:?}",
            row.name
        );
    }
}

/// Every `PredictorKind` — including the block-based BeBoP configuration —
/// must estimate within its declared bounds on the representative subset at
/// the 200 K µop budget. The bounds are calibrated constants, so a predictor
/// whose warm-up behaviour the sampler cannot capture fails here loudly
/// instead of silently reporting a wrong figure.
#[test]
fn every_predictor_kind_within_declared_bounds_on_the_subset() {
    let specs = workloads(true);
    let uops = 200_000;
    let cfg = SamplingConfig::for_budget(uops);
    let kinds: Vec<PredictorKind> = vec![
        PredictorKind::None,
        PredictorKind::Perfect,
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::VtageStrideHybrid,
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::medium()),
    ];
    for kind in &kinds {
        let goldens = par::par_map(&specs, |s| {
            Run::new(UopSource::Live(s), &pipe(), kind, uops).stats()
        });
        let out = run_sampled_with(&specs, uops, &cfg, &pipe(), kind);
        assert!(out.simulated_uops * 5 <= out.full_uops);
        for (row, golden) in out.rows.iter().zip(&goldens) {
            let violations = row.sampled.bound_violations(golden);
            assert!(
                violations.is_empty(),
                "{kind:?} on {}: {violations:?}",
                row.name
            );
        }
    }
}

/// Phases, weights, and per-phase `SimStats` must be bit-identical whether
/// the slice population fans out over 1, 2, or 8 worker threads (and the
/// auto default). One test covers all counts so the comparisons cannot race
/// on the global thread override.
#[test]
fn phase_tables_weights_and_stats_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let specs = workloads(true);
    let uops = 50_000;
    let cfg = SamplingConfig::for_budget(uops);
    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 8, 0] {
        par::set_threads(threads);
        outcomes.push((threads, run_sampled(&specs, uops, &cfg)));
    }
    par::set_threads(0);
    let (_, reference) = &outcomes[0];
    for (threads, out) in &outcomes[1..] {
        assert_eq!(
            reference.rows, out.rows,
            "rows diverged at --threads {threads}"
        );
        assert_eq!(reference.simulated_uops, out.simulated_uops);
        assert_eq!(reference.full_uops, out.full_uops);
    }
    // The rows really carry phase structure worth comparing.
    for row in &reference.rows {
        assert!(row.phases >= 1);
        assert_eq!(row.weights.len(), row.phases);
        assert_eq!(row.per_phase.len(), row.phases);
        assert!((row.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

/// Two invocations of the `figures` binary in `--sample` mode must agree on
/// every output byte apart from wall-clock timings: the human-readable table
/// (filtered exactly like CI filters it) and the JSON report with its timing
/// fields dropped.
#[test]
fn figures_sample_output_is_byte_identical_across_runs() {
    let tmp = std::env::temp_dir().join(format!("bebop-sampling-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create tmp dir");

    let run = |tag: &str| -> (String, String) {
        let json = tmp.join(format!("{tag}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([
                "--sample",
                "--subset",
                "--uops",
                "20000",
                "--json",
                json.to_str().expect("utf-8 tmp path"),
            ])
            .output()
            .expect("run figures --sample");
        assert!(
            out.status.success(),
            "figures --sample failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Drop the banner/timing lines, exactly as the CI determinism jobs do
        // (`grep -vE '^(BeBoP|Trace)'`), and the timing fields of the JSON.
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let body: String = stdout
            .lines()
            .filter(|l| !l.starts_with("BeBoP") && !l.starts_with("Trace"))
            .collect::<Vec<_>>()
            .join("\n");
        let report = std::fs::read_to_string(&json).expect("json written");
        let stable: String = report
            .lines()
            .filter(|l| !l.contains("wall_s") && !l.contains("uops_per_sec"))
            .collect::<Vec<_>>()
            .join("\n");
        (body, stable)
    };

    let (body_a, json_a) = run("a");
    let (body_b, json_b) = run("b");
    assert_eq!(body_a, body_b, "sample table must be byte-identical");
    assert_eq!(json_a, json_b, "sample JSON must be byte-identical");
    assert!(json_a.contains("\"sampled_slices\""));
    assert!(json_a.contains("\"sampled_phases\""));
    assert!(
        body_a.contains("declared error bound"),
        "sample output must declare its error bound:\n{body_a}"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
