//! Microbenchmark of the trace fast path: live generation vs recorded-buffer
//! replay, at the raw stream level and under real simulations.
//!
//! ```text
//! cargo run --release -p bebop --example replay_micro
//! ```
//!
//! Each simulation pair also asserts that live and replayed `SimStats` are
//! bit-identical, so this doubles as a quick replay-fidelity check.

use bebop::{configs, PipelineConfig, PredictorKind, Run, TraceBuffer, UopSource, WorkloadSpec};
use bebop_trace::TraceGenerator;
use std::time::Instant;

fn bench(
    label: &str,
    spec: &WorkloadSpec,
    buf: &TraceBuffer,
    kind: &PredictorKind,
    n: u64,
    reps: u32,
) {
    let cfg = PipelineConfig::eole_4_60();
    let t = Instant::now();
    let mut s = None;
    for _ in 0..reps {
        s = Some(Run::new(UopSource::Live(spec), &cfg, kind, n).stats());
    }
    let live = (reps as u64 * n) as f64 / t.elapsed().as_secs_f64() / 1e6;
    let t = Instant::now();
    let mut s2 = None;
    for _ in 0..reps {
        s2 = Some(Run::new(UopSource::Replay(buf), &cfg, kind, n).stats());
    }
    assert_eq!(s, s2);
    let rep = (reps as u64 * n) as f64 / t.elapsed().as_secs_f64() / 1e6;
    println!("sim {label:<14} live {live:.2} / replay {rep:.2} Muops/s");
}

fn main() {
    let spec = WorkloadSpec::named_demo("micro");
    let n = 200_000u64;
    let reps = 10;

    let t = Instant::now();
    let c: u64 = TraceGenerator::new(&spec)
        .take(n as usize)
        .map(|u| u.value & 1)
        .sum();
    println!(
        "gen drain:    {:.1} Muops/s (chk {c})",
        n as f64 / t.elapsed().as_secs_f64() / 1e6
    );
    let buf = TraceBuffer::record(&spec, n);
    let t = Instant::now();
    let c: u64 = buf.replay().map(|u| u.value & 1).sum();
    println!(
        "replay drain: {:.1} Muops/s (chk {c})",
        n as f64 / t.elapsed().as_secs_f64() / 1e6
    );

    bench("none", &spec, &buf, &PredictorKind::None, n, reps);
    bench("D-VTAGE", &spec, &buf, &PredictorKind::DVtage, n, reps);
    bench(
        "BeBoP medium",
        &spec,
        &buf,
        &PredictorKind::BlockDVtage(configs::medium()),
        n,
        reps,
    );
    bench(
        "BeBoP opt",
        &spec,
        &buf,
        &PredictorKind::BlockDVtage(configs::optimistic_6p()),
        n,
        reps,
    );
}
