//! Replay-fidelity suite: simulating from a recorded [`TraceBuffer`] must be
//! indistinguishable from simulating the live [`TraceGenerator`] stream.
//!
//! The figure harness leans on this equivalence — every config sweep replays
//! shared recordings instead of regenerating workloads — so it is asserted at
//! the strongest level available: bit-identical `SimStats`, for every built-in
//! predictor kind, on both the serial path and the parallel fan-out (where all
//! worker threads replay one shared buffer concurrently).

use bebop::{
    configs, par, PipelineConfig, PredictorKind, Run, SimStats, TraceBuffer, UopSource,
    WorkloadSpec,
};

const UOPS: u64 = 30_000;

fn run(source: UopSource<'_>, cfg: &PipelineConfig, kind: &PredictorKind, n: u64) -> SimStats {
    Run::new(source, cfg, kind, n).stats()
}

/// Every built-in predictor kind, including a block-based BeBoP configuration
/// per recovery-relevant storage point.
fn all_kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::None,
        PredictorKind::Perfect,
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::VtageStrideHybrid,
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::small_4p()),
        PredictorKind::BlockDVtage(configs::medium()),
        PredictorKind::BlockDVtage(configs::optimistic_6p()),
    ]
}

fn specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::named_demo("replay-demo"),
        WorkloadSpec::new("replay-mixed", 42),
    ]
}

#[test]
fn replayed_stats_are_bit_identical_for_every_predictor_kind_serial() {
    par::set_threads(1);
    for spec in specs() {
        let buf = TraceBuffer::record(&spec, UOPS);
        for kind in all_kinds() {
            let pipeline = PipelineConfig::eole_4_60();
            let live = run(UopSource::Live(&spec), &pipeline, &kind, UOPS);
            let replayed = run(UopSource::Replay(&buf), &pipeline, &kind, UOPS);
            assert_eq!(
                live,
                replayed,
                "{} diverged under serial replay on {}",
                kind.label(),
                spec.name
            );
        }
    }
    par::set_threads(0);
}

#[test]
fn replayed_stats_are_bit_identical_for_every_predictor_kind_parallel() {
    // All predictor kinds replay ONE shared buffer from concurrent worker
    // threads; every result must still match its serial live-generation twin.
    let spec = WorkloadSpec::named_demo("replay-par");
    let buf = TraceBuffer::record(&spec, UOPS);
    let kinds = all_kinds();

    par::set_threads(1);
    let live: Vec<SimStats> = kinds
        .iter()
        .map(|kind| {
            run(
                UopSource::Live(&spec),
                &PipelineConfig::baseline_vp_6_60(),
                kind,
                UOPS,
            )
        })
        .collect();

    // Force real worker threads even on a single-core machine.
    par::set_threads(4);
    let replayed: Vec<SimStats> = par::par_map(&kinds, |kind| {
        run(
            UopSource::Replay(&buf),
            &PipelineConfig::baseline_vp_6_60(),
            kind,
            UOPS,
        )
    });
    par::set_threads(0);

    for ((kind, l), r) in kinds.iter().zip(&live).zip(&replayed) {
        assert_eq!(
            l,
            r,
            "{} diverged under parallel shared-buffer replay",
            kind.label()
        );
    }
}

#[test]
fn replay_is_prefix_stable() {
    // A recording longer than the simulation budget must still match: the
    // pipeline takes its µ-op budget off the front of either stream.
    let spec = WorkloadSpec::new("replay-prefix", 7);
    let buf = TraceBuffer::record(&spec, UOPS * 2);
    let kind = PredictorKind::BlockDVtage(configs::medium());
    let live = run(
        UopSource::Live(&spec),
        &PipelineConfig::eole_4_60(),
        &kind,
        UOPS,
    );
    let replayed = run(
        UopSource::Replay(&buf),
        &PipelineConfig::eole_4_60(),
        &kind,
        UOPS,
    );
    assert_eq!(live, replayed);
}
