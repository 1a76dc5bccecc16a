//! Outside-in tracing: wrappers around the public calls into each layer, and
//! standalone replays of the layers the pipeline owns privately.
//!
//! Nothing here reaches inside the simulator. The value-predictor layer is
//! timed through a pass-through [`ValuePredictor`], the trace layer through a
//! timed [`Iterator`] around its replay cursor, and the branch and cache
//! layers — which `Pipeline` keeps as private fields — by driving fresh
//! `BranchPredictorUnit`/`MemoryHierarchy` instances over the same committed
//! stream. Each span costs a clock read on entry and one on exit, so traced
//! times include roughly one clock read per call (`tracing.clock_read_ns`).

use bebop_isa::{BranchInfo, DynUop};
use bebop_trace::TraceBuffer;
use bebop_uarch::{
    BranchPredictorUnit, BranchStats, MemStats, MemoryHierarchy, PipelineConfig, PredictCtx,
    SquashInfo, TageConfig, ValuePredictor,
};
use std::hint::black_box;
use std::time::Instant;

/// Calls into one layer entry point and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    fn close(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += elapsed_ns(start);
    }

    pub fn add(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Value-predictor layer counters of one traced simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct VpTrace {
    pub predict: Span,
    pub train: Span,
    pub squash: Span,
    /// Predictions returned (`Some`) by `predict`.
    pub used: u64,
}

impl VpTrace {
    pub fn add(&mut self, o: &VpTrace) {
        self.predict.add(o.predict);
        self.train.add(o.train);
        self.squash.add(o.squash);
        self.used += o.used;
    }

    pub fn ns(&self) -> u64 {
        self.predict.ns + self.train.ns + self.squash.ns
    }
}

/// What the wrappers saw during one traced simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTrace {
    pub replay: Span,
    pub vp: VpTrace,
}

/// A pass-through [`ValuePredictor`] that times every call into `inner`.
#[derive(Debug)]
pub struct TimedVp<P> {
    pub inner: P,
    pub trace: VpTrace,
}

impl<P> TimedVp<P> {
    pub fn new(inner: P) -> Self {
        TimedVp {
            inner,
            trace: VpTrace::default(),
        }
    }
}

impl<P: ValuePredictor> ValuePredictor for TimedVp<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        let t = Instant::now();
        let r = self.inner.predict(ctx, uop);
        self.trace.predict.close(t);
        self.trace.used += u64::from(r.is_some());
        r
    }

    fn train(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        let t = Instant::now();
        self.inner.train(uop, actual, predicted);
        self.trace.train.close(t);
    }

    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        let t = Instant::now();
        self.inner.train_wrong_path(uop, actual, predicted);
        self.trace.train.close(t);
    }

    fn squash(&mut self, info: &SquashInfo) {
        let t = Instant::now();
        self.inner.squash(info);
        self.trace.squash.close(t);
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }
}

/// A timed [`Iterator`] around a trace replay cursor: one span per `next()`.
#[derive(Debug)]
pub struct TimedIter<I> {
    inner: I,
    pub span: Span,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I) -> Self {
        TimedIter {
            inner,
            span: Span::default(),
        }
    }
}

impl<I: Iterator<Item = DynUop>> Iterator for TimedIter<I> {
    type Item = DynUop;

    fn next(&mut self) -> Option<DynUop> {
        let t = Instant::now();
        let r = self.inner.next();
        self.span.close(t);
        r
    }
}

/// The branch unit `Pipeline::new` builds for `cfg`.
fn branch_unit(cfg: &PipelineConfig) -> BranchPredictorUnit {
    let tage = TageConfig {
        log_base: cfg.tage_log_base,
        num_tagged: cfg.tage_tagged_components,
        log_tagged: cfg.tage_log_tagged,
        ..TageConfig::default()
    };
    BranchPredictorUnit::new(tage, cfg.btb_entries, cfg.ras_entries)
}

/// A standalone replay of one layer: its calls, their host time and the
/// layer's own statistics afterwards.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay<S> {
    pub span: Span,
    pub stats: S,
}

/// Replays every committed branch of the first `uops` committed µ-ops of
/// `buf` through a fresh branch unit, in program order — the exact call
/// sequence the pipeline makes, detailed or functionally warmed. The stream
/// is gathered first so only `predict_and_update` is timed.
pub fn replay_branches(buf: &TraceBuffer, cfg: &PipelineConfig, uops: u64) -> Replay<BranchStats> {
    let branches: Vec<(u64, u64, BranchInfo)> = committed(buf, uops)
        .filter_map(|u| u.branch.map(|b| (u.pc, u.fallthrough_pc(), b)))
        .collect();
    let mut bpu = branch_unit(cfg);
    let t = Instant::now();
    for &(pc, fallthrough, info) in &branches {
        black_box(bpu.predict_and_update(pc, fallthrough, info));
    }
    let ns = elapsed_ns(t);
    Replay {
        span: Span {
            calls: branches.len() as u64,
            ns,
        },
        stats: bpu.stats(),
    }
}

/// Replays every committed load of the first `uops` committed µ-ops of `buf`
/// through a fresh memory hierarchy, in program order (stores do not access
/// the hierarchy in the pipeline model).
pub fn replay_loads(buf: &TraceBuffer, cfg: &PipelineConfig, uops: u64) -> Replay<MemStats> {
    let loads: Vec<(u64, u64)> = committed(buf, uops)
        .filter(|u| u.uop.kind() == bebop_isa::UopKind::Load)
        .map(|u| (u.pc, u.mem.map(|m| m.addr).unwrap_or(0)))
        .collect();
    let mut mem = MemoryHierarchy::new(cfg.mem);
    let t = Instant::now();
    for &(pc, addr) in &loads {
        black_box(mem.access(pc, addr));
    }
    let ns = elapsed_ns(t);
    Replay {
        span: Span {
            calls: loads.len() as u64,
            ns,
        },
        stats: mem.stats(),
    }
}

fn committed(buf: &TraceBuffer, uops: u64) -> impl Iterator<Item = DynUop> + '_ {
    let n = usize::try_from(uops).unwrap_or(usize::MAX);
    buf.replay().filter(|u| !u.wrong_path).take(n)
}

/// The host cost of one `Instant::now()`, in ns: the median over batches.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut per_read = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        per_read.push(elapsed_ns(t) as f64 / f64::from(READS));
    }
    crate::metrics::median(&per_read)
}
