//! Micro-benchmarks: simulator and predictor throughput (plain timing harness;
//! the offline build environment has no criterion, so this measures best-of-N
//! wall clock with `std::time::Instant`).
//!
//! ```text
//! cargo bench -p bebop-bench --bench predictor_micro
//! ```

use bebop::{configs, PredictorKind, Run, UopSource};
use bebop_trace::spec_benchmark;
use bebop_uarch::PipelineConfig;
use std::time::Instant;

fn bench(name: &str, uops: u64, mut f: impl FnMut()) {
    const WARMUP: usize = 1;
    const SAMPLES: usize = 5;
    for _ in 0..WARMUP {
        f();
    }
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        f();
        let s = start.elapsed().as_secs_f64();
        best = best.min(s);
        total += s;
    }
    println!(
        "{name:<24} best {best_ms:8.2} ms  avg {avg_ms:8.2} ms  {mups:8.2} Muops/s",
        best_ms = best * 1e3,
        avg_ms = total / SAMPLES as f64 * 1e3,
        mups = uops as f64 / best / 1e6,
    );
}

fn main() {
    let spec = spec_benchmark("171.swim");
    let uops = 20_000u64;
    println!("pipeline_throughput ({uops} uops per run, 171.swim)");

    let cases: Vec<(&str, PipelineConfig, PredictorKind)> = vec![
        (
            "baseline_6_60",
            PipelineConfig::baseline_6_60(),
            PredictorKind::None,
        ),
        (
            "baseline_vp_dvtage",
            PipelineConfig::baseline_vp_6_60(),
            PredictorKind::DVtage,
        ),
        (
            "eole_bebop_medium",
            PipelineConfig::eole_4_60(),
            PredictorKind::BlockDVtage(configs::medium()),
        ),
    ];
    for (name, pipe, pred) in cases {
        bench(name, uops, || {
            let stats = Run::new(UopSource::Live(&spec), &pipe, &pred, uops).stats();
            assert_eq!(stats.uops, uops);
        });
    }

    // The same headline configuration behind a trait object, to quantify what the
    // statically dispatched `AnyPredictor` hot loop buys over `Box<dyn ...>`.
    let pipe = PipelineConfig::eole_4_60();
    let pred = PredictorKind::BlockDVtage(configs::medium());
    bench("eole_bebop_medium_dyn", uops, || {
        let mut boxed: Box<dyn bebop_uarch::ValuePredictor> = Box::new(pred.build());
        let stats = bebop_uarch::Pipeline::new(pipe.clone()).run(
            bebop_trace::TraceGenerator::new(&spec),
            &mut *boxed,
            uops,
        );
        assert_eq!(stats.uops, uops);
    });
}
