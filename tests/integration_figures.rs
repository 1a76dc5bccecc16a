//! Integration tests asserting the *shape* of the paper's headline results on a
//! reduced scale: who wins, roughly by how much, and where the crossovers are.

use bebop::{configs, BenchResult, PredictorKind, SpeedupSummary};
use bebop_bench::{run_fig5a, run_fig7a, run_sweep, TraceCachePolicy, TraceSet};
use bebop_trace::{benchmark_class, spec_benchmark, BenchClass, WorkloadSpec};
use bebop_uarch::PipelineConfig;

// Long enough for the forward-probabilistic confidence counters (~130 correct
// predictions to saturate) to leave their warm-up phase.
const UOPS: u64 = 120_000;

/// A representative slice of Table II: two of each gain class.
fn slice() -> Vec<WorkloadSpec> {
    [
        "171.swim",
        "173.applu",
        "401.bzip2",
        "403.gcc",
        "429.mcf",
        "186.crafty",
    ]
    .iter()
    .map(|n| spec_benchmark(n))
    .collect()
}

fn recorded(specs: &[WorkloadSpec]) -> TraceSet {
    TraceSet::build(specs, UOPS, &TraceCachePolicy::default())
}

/// Figure 8's headline comparison: EOLE_4_60 with BeBoP D-VTAGE (Medium) over
/// Baseline_6_60.
fn medium_over_baseline() -> Vec<BenchResult> {
    let medium = (
        "Medium".to_string(),
        PipelineConfig::eole_4_60(),
        PredictorKind::BlockDVtage(configs::medium()),
    );
    let baseline = PipelineConfig::baseline_6_60();
    let set = recorded(&slice());
    let mut out = run_sweep(&set, &baseline, &PredictorKind::None, &[medium], UOPS);
    out.groups.remove(0).1
}

/// Figure 5a on the slice: each predictor's speedup summary, by label.
fn fig5a_summaries() -> Vec<(String, SpeedupSummary)> {
    let out = run_fig5a(&recorded(&slice()), UOPS);
    out.groups
        .iter()
        .map(|(label, results)| (label.clone(), SpeedupSummary::from_results(results)))
        .collect()
}

#[test]
fn figure8_shape_final_configs_beat_the_baseline_on_average() {
    let results = medium_over_baseline();
    let summary = SpeedupSummary::from_results(&results);
    // Paper: ~1.11 gmean over all 36, with up to ~1.6 peaks; on this slice the
    // gmean must clearly exceed 1 and the best benchmark must gain substantially.
    assert!(
        summary.gmean() > 1.05,
        "Medium + EOLE_4_60 should beat Baseline_6_60 on average, got {:.3}",
        summary.gmean()
    );
    assert!(
        summary.max() > 1.2,
        "at least one benchmark should gain substantially, got max {:.3}",
        summary.max()
    );
}

#[test]
fn figure8_shape_high_gain_class_outperforms_low_gain_class() {
    let results = medium_over_baseline();
    let mut high = Vec::new();
    let mut low = Vec::new();
    for r in &results {
        match benchmark_class(&r.name) {
            BenchClass::HighVpGain => high.push(r.speedup()),
            BenchClass::LowVpGain => low.push(r.speedup()),
            BenchClass::ModerateVpGain => {}
        }
    }
    let high_g = bebop_uarch::gmean(&high);
    let low_g = bebop_uarch::gmean(&low);
    assert!(
        high_g > low_g,
        "high-VP-gain benchmarks ({high_g:.3}) must gain more than low-gain ones ({low_g:.3})"
    );
}

#[test]
fn figure5a_shape_dvtage_is_at_least_as_good_as_2d_stride_on_average() {
    let summaries = fig5a_summaries();
    let gmean = |label: &str| {
        summaries
            .iter()
            .find(|(l, _)| l == label)
            .unwrap()
            .1
            .gmean()
    };
    let (stride, dvtage) = (gmean("2d-Stride"), gmean("D-VTAGE"));
    // The paper reports D-VTAGE on par with or better than 2d-Stride; on this
    // reduced slice and µ-op budget allow a small tolerance for warm-up noise.
    assert!(
        dvtage >= stride - 0.08,
        "D-VTAGE ({dvtage:.3}) should not lose to 2d-Stride ({stride:.3})"
    );
}

#[test]
fn figure5a_shape_no_predictor_causes_a_large_slowdown() {
    // "First, no slowdown is observed with D-VTAGE" — D-VTAGE must stay close to or
    // above 1.0 on every benchmark of the slice; the simpler predictors are allowed
    // slightly more noise but must not collapse either.
    let summaries = fig5a_summaries();
    for (label, floor) in [("2d-Stride", 0.85), ("VTAGE", 0.85), ("D-VTAGE", 0.93)] {
        let summary = &summaries.iter().find(|(l, _)| l == label).unwrap().1;
        assert!(
            summary.min() > floor,
            "{label} caused a large slowdown: min {:.3}",
            summary.min()
        );
    }
}

#[test]
fn figure7a_shape_recovery_policies_are_close_to_each_other() {
    // Paper: "the differences between the realistic policies are marginal".
    let specs = vec![spec_benchmark("401.bzip2"), spec_benchmark("173.applu")];
    let gmeans: Vec<f64> = run_fig7a(&recorded(&specs), UOPS)
        .groups
        .iter()
        .map(|(_, results)| SpeedupSummary::from_results(results).gmean())
        .collect();
    let max = gmeans.iter().cloned().fold(f64::MIN, f64::max);
    let min = gmeans.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.12,
        "recovery policies should be within a few percent of each other: {gmeans:?}"
    );
}

#[test]
fn table3_storage_and_ordering() {
    let rows: Vec<(String, f64)> = configs::table3_configs()
        .into_iter()
        .map(|(n, c)| (n.to_string(), c.storage_kb()))
        .collect();
    // Small < Medium < Large, and Medium is the ~32 KB headline budget.
    assert!(rows[0].1 < rows[2].1 && rows[1].1 < rows[2].1 && rows[2].1 < rows[3].1);
    assert!((28.0..38.0).contains(&rows[2].1));
}
