//! The pieces a simulation run is assembled from: the predictor kinds, the
//! µ-op sources, and the per-benchmark comparison results the paper's
//! figures aggregate. The run itself is [`crate::Run`].

use crate::block_dvtage::{BlockDVtage, BlockDVtageConfig};
use bebop_isa::DynUop;
use bebop_trace::{RangeError, TraceBuffer, TraceCursor, TraceGenerator, WorkloadSpec};
use bebop_uarch::{
    gmean, NoValuePredictor, PerfectValuePredictor, PredictCtx, SimStats, SquashInfo,
    ValuePredictor,
};
use bebop_vp::{
    DVtage, LastValuePredictor, StridePredictor, TwoDeltaStridePredictor, Vtage, VtageStrideHybrid,
};

/// The value predictors that can be plugged into a simulation run.
#[derive(Debug, Clone)]
pub enum PredictorKind {
    /// No value prediction (baseline pipelines).
    None,
    /// Oracle: always predicts correctly (limit study).
    Perfect,
    /// Last Value Predictor.
    LastValue,
    /// Baseline stride predictor.
    Stride,
    /// 2-delta stride predictor (Figure 5a "2d-Stride").
    TwoDeltaStride,
    /// VTAGE (Figure 5a "VTAGE").
    Vtage,
    /// Naive VTAGE + 2-delta stride hybrid (Figure 5a "VTAGE-2d-Stride").
    VtageStrideHybrid,
    /// Instruction-based D-VTAGE (Figure 5a / 5b "D-VTAGE").
    DVtage,
    /// Block-based D-VTAGE with BeBoP (Figures 6–8), with an explicit configuration.
    BlockDVtage(BlockDVtageConfig),
}

impl PredictorKind {
    /// Instantiates the predictor as the statically dispatched [`AnyPredictor`]
    /// enum, which is what the simulation hot loop runs against.
    pub fn build(&self) -> AnyPredictor {
        match self {
            PredictorKind::None => AnyPredictor::None(NoValuePredictor),
            PredictorKind::Perfect => AnyPredictor::Perfect(PerfectValuePredictor),
            PredictorKind::LastValue => {
                AnyPredictor::LastValue(LastValuePredictor::default_config())
            }
            PredictorKind::Stride => AnyPredictor::Stride(StridePredictor::default_config()),
            PredictorKind::TwoDeltaStride => {
                AnyPredictor::TwoDeltaStride(TwoDeltaStridePredictor::default_config())
            }
            PredictorKind::Vtage => AnyPredictor::Vtage(Vtage::default_config()),
            PredictorKind::VtageStrideHybrid => {
                AnyPredictor::VtageStrideHybrid(VtageStrideHybrid::default_config())
            }
            PredictorKind::DVtage => AnyPredictor::DVtage(DVtage::default_config()),
            PredictorKind::BlockDVtage(cfg) => {
                AnyPredictor::BlockDVtage(BlockDVtage::new(cfg.clone()))
            }
        }
    }

    /// The display label used in reports and figures.
    pub fn label(&self) -> String {
        match self {
            PredictorKind::None => "none".to_string(),
            PredictorKind::Perfect => "perfect".to_string(),
            PredictorKind::LastValue => "LVP".to_string(),
            PredictorKind::Stride => "Stride".to_string(),
            PredictorKind::TwoDeltaStride => "2d-Stride".to_string(),
            PredictorKind::Vtage => "VTAGE".to_string(),
            PredictorKind::VtageStrideHybrid => "VTAGE-2d-Stride".to_string(),
            PredictorKind::DVtage => "D-VTAGE".to_string(),
            PredictorKind::BlockDVtage(_) => "BeBoP D-VTAGE".to_string(),
        }
    }
}

/// The statically dispatched union of every built-in value predictor.
///
/// # Example
///
/// ```
/// use bebop::{AnyPredictor, PredictorKind};
/// use bebop_uarch::ValuePredictor;
///
/// let mut predictor: AnyPredictor = PredictorKind::TwoDeltaStride.build();
/// assert_eq!(predictor.name(), "2d-Stride");
/// assert!(predictor.storage_bits() > 0);
/// ```
///
/// The per-µop hot loop of [`Pipeline::run`] calls the predictor three times per
/// eligible µ-op; going through `Box<dyn ValuePredictor>` made every one of those
/// calls virtual. `AnyPredictor` keeps the [`ValuePredictor`] trait for
/// extensibility (it implements the trait itself, so it composes with external
/// predictors behind `dyn`) while giving the driver a concrete type: the match
/// below compiles to a jump table and the per-variant bodies inline into the
/// monomorphised pipeline loop.
///
/// [`Pipeline::run`]: bebop_uarch::Pipeline::run
// One predictor instance exists per simulation run; its inline size is
// irrelevant next to the indirection a Box per variant would add to every call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyPredictor {
    /// No value prediction (baseline pipelines).
    None(NoValuePredictor),
    /// Oracle predictor.
    Perfect(PerfectValuePredictor),
    /// Last Value Predictor.
    LastValue(LastValuePredictor),
    /// Baseline stride predictor.
    Stride(StridePredictor),
    /// 2-delta stride predictor.
    TwoDeltaStride(TwoDeltaStridePredictor),
    /// VTAGE.
    Vtage(Vtage),
    /// Naive VTAGE + 2-delta stride hybrid.
    VtageStrideHybrid(VtageStrideHybrid),
    /// Instruction-based D-VTAGE.
    DVtage(DVtage),
    /// Block-based D-VTAGE with BeBoP.
    BlockDVtage(BlockDVtage),
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPredictor::None($p) => $body,
            AnyPredictor::Perfect($p) => $body,
            AnyPredictor::LastValue($p) => $body,
            AnyPredictor::Stride($p) => $body,
            AnyPredictor::TwoDeltaStride($p) => $body,
            AnyPredictor::Vtage($p) => $body,
            AnyPredictor::VtageStrideHybrid($p) => $body,
            AnyPredictor::DVtage($p) => $body,
            AnyPredictor::BlockDVtage($p) => $body,
        }
    };
}

impl AnyPredictor {
    /// The inner block-based BeBoP predictor, when this is one — used by
    /// harnesses that read its sharding counters (per-shard occupancy, cross-
    /// context steals) after a run.
    pub fn as_block_dvtage(&self) -> Option<&BlockDVtage> {
        match self {
            AnyPredictor::BlockDVtage(p) => Some(p),
            _ => None,
        }
    }
}

impl ValuePredictor for AnyPredictor {
    fn name(&self) -> &str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn predict(&mut self, ctx: &PredictCtx, uop: &DynUop) -> Option<u64> {
        dispatch!(self, p => p.predict(ctx, uop))
    }

    #[inline]
    fn train(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        dispatch!(self, p => p.train(uop, actual, predicted))
    }

    #[inline]
    fn train_wrong_path(&mut self, uop: &DynUop, actual: u64, predicted: Option<u64>) {
        dispatch!(self, p => p.train_wrong_path(uop, actual, predicted))
    }

    #[inline]
    fn squash(&mut self, info: &SquashInfo) {
        dispatch!(self, p => p.squash(info))
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => p.storage_bits())
    }

    fn save_state(&self) -> Vec<u8> {
        dispatch!(self, p => p.save_state())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        dispatch!(self, p => p.restore_state(bytes))
    }
}

/// Where a simulation draws its dynamic µ-op stream from.
///
/// `Live` and `Replay` yield bit-identical streams for the same workload (the
/// `integration_replay` suite asserts `SimStats` equality for every
/// [`PredictorKind`]); the difference is pure cost. `Live` pays trace
/// generation inside the simulation loop, which is the right trade for a
/// one-off run. `Replay` walks a pre-recorded [`TraceBuffer`], which is the
/// right trade for config sweeps: the buffer is recorded once and shared by
/// reference across every configuration and worker thread. `ReplaySlice` is
/// one phase-sampling slice of a recording (see [`crate::Run`]).
#[derive(Debug, Clone, Copy)]
pub enum UopSource<'a> {
    /// Generate the stream live from the workload specification.
    Live(&'a WorkloadSpec),
    /// Replay a shared pre-recorded trace.
    Replay(&'a TraceBuffer),
    /// One phase-sampling slice of a shared recording. A [`crate::Run`] over
    /// it functionally warms the recording up to `warmup` committed µ-ops
    /// before `start` (clamped at the recording start), simulates those
    /// µ-ops in detail, then the `start..end` lane-index measurement window,
    /// and reports the window's statistics alone. Construct with
    /// [`UopSource::replay_slice`], which validates the bounds up front.
    ReplaySlice {
        /// The shared recording.
        buf: &'a TraceBuffer,
        /// First lane index of the measurement window (a committed µ-op).
        start: usize,
        /// One-past-last lane index of the measurement window.
        end: usize,
        /// Committed µ-ops simulated in detail before `start` but not
        /// reported.
        warmup: u64,
    },
}

impl<'a> UopSource<'a> {
    /// A validated slice of `buf`: measurement window `start..end` behind
    /// `warmup` committed µ-ops of detailed warm-up.
    ///
    /// The errors of [`TraceBuffer::replay_range`] apply to `start..end`:
    /// inverted or out-of-bounds ranges, empty ranges, and slices starting
    /// inside a wrong-path burst are rejected here, once, so
    /// [`UopSource::stream`] can never fail later (e.g. mid-sweep on a worker
    /// thread).
    pub fn replay_slice(
        buf: &'a TraceBuffer,
        start: usize,
        end: usize,
        warmup: u64,
    ) -> Result<Self, RangeError> {
        buf.replay_range(start, end)?;
        Ok(UopSource::ReplaySlice {
            buf,
            start,
            end,
            warmup,
        })
    }

    /// Opens the stream the pipeline simulates in detail: the whole stream,
    /// or for a slice its detailed warm-up followed by its measurement
    /// window.
    pub fn stream(&self) -> UopStream<'a> {
        match self {
            UopSource::Live(spec) => UopStream::Live(TraceGenerator::new(spec)),
            UopSource::Replay(buf) => UopStream::Replay(buf.replay()),
            UopSource::ReplaySlice {
                buf,
                start,
                end,
                warmup,
            } => UopStream::Replay(
                buf.replay_range(buf.warmup_start(*start, *warmup).0, *end)
                    // INVARIANT: `start..end` was validated by
                    // `UopSource::replay_slice`, and `warmup_start` only
                    // widens it to an earlier committed µ-op.
                    .expect("slice bounds validated at construction"),
            ),
        }
    }
}

/// The iterator behind a [`UopSource`]: a live generator or a replay cursor.
///
/// An enum rather than `Box<dyn Iterator>` so the pipeline's monomorphised run
/// loop keeps a concrete item-producing type (the match compiles to a branch,
/// not a virtual call per µ-op).
// One stream instance exists per simulation run; its inline size is irrelevant
// next to an indirection on every `next` call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum UopStream<'a> {
    /// Live trace generation.
    Live(TraceGenerator),
    /// Zero-copy replay of a recorded trace.
    Replay(TraceCursor<'a>),
}

impl Iterator for UopStream<'_> {
    type Item = DynUop;

    #[inline]
    fn next(&mut self) -> Option<DynUop> {
        match self {
            UopStream::Live(g) => g.next(),
            UopStream::Replay(c) => c.next(),
        }
    }
}

/// Renders a panic payload as a one-line reason string (the payload of
/// `panic!` is a `&str` or `String` in practice; anything else gets a
/// placeholder rather than a second panic).
pub fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The speedup of one benchmark under a variant configuration relative to a
/// baseline configuration (same trace, same µ-op count).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Baseline statistics.
    pub baseline: SimStats,
    /// Variant statistics.
    pub variant: SimStats,
}

impl BenchResult {
    /// Speedup of the variant over the baseline (cycles ratio, > 1 is faster).
    pub fn speedup(&self) -> f64 {
        self.variant.speedup_over(&self.baseline)
    }
}

/// A population of per-benchmark speedups with the aggregates the paper reports:
/// geometric mean plus the [min, max] box and quartiles used in the box plots.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupSummary {
    /// `(benchmark name, speedup)` pairs, in input order.
    pub per_bench: Vec<(String, f64)>,
}

impl SpeedupSummary {
    /// Builds a summary from per-benchmark results.
    pub fn from_results(results: &[BenchResult]) -> Self {
        SpeedupSummary {
            per_bench: results
                .iter()
                .map(|r| (r.name.clone(), r.speedup()))
                .collect(),
        }
    }

    /// Geometric mean speedup.
    pub fn gmean(&self) -> f64 {
        gmean(&self.per_bench.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    }

    /// Minimum speedup (worst benchmark).
    pub fn min(&self) -> f64 {
        self.per_bench
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum speedup (best benchmark).
    pub fn max(&self) -> f64 {
        self.per_bench
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `q`-quantile (0.0..=1.0) of the speedup distribution (nearest rank).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.per_bench.iter().map(|(_, s)| *s).collect();
        if v.is_empty() {
            return 1.0;
        }
        v.sort_by(f64::total_cmp);
        // CAST: nearest-rank result is clamped to 0..len by the q clamp.
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{configs, Run};
    use bebop_uarch::{Pipeline, PipelineConfig};

    fn demo() -> WorkloadSpec {
        WorkloadSpec::named_demo("driver-demo")
    }

    /// Every predictor kind, BeBoP in its Medium configuration.
    pub(crate) fn all_kinds() -> [PredictorKind; 9] {
        [
            PredictorKind::None,
            PredictorKind::Perfect,
            PredictorKind::LastValue,
            PredictorKind::Stride,
            PredictorKind::TwoDeltaStride,
            PredictorKind::Vtage,
            PredictorKind::VtageStrideHybrid,
            PredictorKind::DVtage,
            PredictorKind::BlockDVtage(configs::medium()),
        ]
    }

    fn run(source: UopSource<'_>, cfg: &PipelineConfig, kind: &PredictorKind, n: u64) -> SimStats {
        Run::new(source, cfg, kind, n).stats()
    }

    #[test]
    fn run_one_produces_stats() {
        let stats = run(
            UopSource::Live(&demo()),
            &PipelineConfig::baseline_6_60(),
            &PredictorKind::None,
            5_000,
        );
        assert_eq!(stats.uops, 5_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn every_predictor_kind_builds_and_runs() {
        let spec = demo();
        for kind in all_kinds() {
            let stats = run(
                UopSource::Live(&spec),
                &PipelineConfig::baseline_vp_6_60(),
                &kind,
                2_000,
            );
            assert_eq!(stats.uops, 2_000, "{} failed to run", kind.label());
        }
    }

    #[test]
    fn replay_source_matches_live_source() {
        let spec = demo();
        let buf = TraceBuffer::record(&spec, 8_000);
        let cfg = PipelineConfig::baseline_vp_6_60();
        for kind in [
            PredictorKind::None,
            PredictorKind::DVtage,
            PredictorKind::BlockDVtage(configs::medium()),
        ] {
            let live = run(UopSource::Live(&spec), &cfg, &kind, 8_000);
            let replayed = run(UopSource::Replay(&buf), &cfg, &kind, 8_000);
            assert_eq!(live, replayed, "{} diverged under replay", kind.label());
        }
    }

    #[test]
    fn slice_source_replays_exactly_its_window() {
        let spec = demo();
        let buf = TraceBuffer::record(&spec, 8_000);
        let full: Vec<_> = UopSource::Replay(&buf).stream().collect();
        let src = UopSource::replay_slice(&buf, 2_000, 5_000, 0).expect("valid slice");
        let got: Vec<_> = src.stream().collect();
        assert_eq!(got, full[2_000..5_000]);
        // A detailed warm-up widens the stream backwards by that many µ-ops.
        let src = UopSource::replay_slice(&buf, 2_000, 5_000, 500).expect("valid slice");
        let got: Vec<_> = src.stream().collect();
        assert_eq!(got, full[1_500..5_000]);
        // Invalid bounds surface the structured error at construction.
        assert!(matches!(
            UopSource::replay_slice(&buf, 0, 9_000, 0),
            Err(bebop_trace::RangeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn run_slice_reports_the_measurement_window_only() {
        let spec = demo();
        let buf = TraceBuffer::record(&spec, 8_000);
        let cfg = PipelineConfig::baseline_vp_6_60();
        let kind = PredictorKind::DVtage;
        let slice = |start, end, warmup| {
            let src = UopSource::replay_slice(&buf, start, end, warmup).expect("valid slice");
            run(src, &cfg, &kind, u64::MAX)
        };
        let stats = slice(3_000, 6_000, 1_000);
        assert_eq!(stats.uops, 3_000, "window µ-ops only");
        assert!(stats.cycles > 0);
        // The slice semantics spelled out on the bare pipeline: functionally
        // warm the prefix, simulate the warm-up in detail, report the delta
        // across the window.
        let mut pipe = Pipeline::new(cfg.clone());
        let mut p = kind.build();
        let mut pos = 0u64;
        let mut prefix = buf.replay_range(0, 2_000).unwrap();
        pipe.warm_functional(&mut prefix, &mut p, u64::MAX, &mut pos);
        let mut detailed = buf.replay_range(2_000, 6_000).unwrap();
        pipe.run_segment(&mut detailed, &mut p, 1_000, &mut pos);
        let warm = pipe.stats_snapshot();
        pipe.run_segment(&mut detailed, &mut p, u64::MAX, &mut pos);
        assert_eq!(stats, pipe.finish(&mut p).delta_since(&warm));
        // Warm-up clamps at the recording start without failing.
        assert_eq!(slice(0, 2_000, 1_000).uops, 2_000);
        // With zero warm-up from position 0, a slice over the whole recording
        // is exactly a full run.
        let full = run(UopSource::Replay(&buf), &cfg, &kind, 8_000);
        assert_eq!(slice(0, 8_000, 0), full);
        // Errors are structured, not panics.
        assert!(UopSource::replay_slice(&buf, 5, 5, 0).is_err());
    }

    #[test]
    fn summary_aggregates() {
        let results = vec![
            BenchResult {
                name: "a".into(),
                baseline: SimStats {
                    uops: 10,
                    cycles: 100,
                    ..Default::default()
                },
                variant: SimStats {
                    uops: 10,
                    cycles: 50,
                    ..Default::default()
                },
            },
            BenchResult {
                name: "b".into(),
                baseline: SimStats {
                    uops: 10,
                    cycles: 100,
                    ..Default::default()
                },
                variant: SimStats {
                    uops: 10,
                    cycles: 200,
                    ..Default::default()
                },
            },
        ];
        let summary = SpeedupSummary::from_results(&results);
        assert!((summary.max() - 2.0).abs() < 1e-12);
        assert!((summary.min() - 0.5).abs() < 1e-12);
        assert!((summary.gmean() - 1.0).abs() < 1e-12);
        assert!((summary.quantile(0.0) - 0.5).abs() < 1e-12);
        assert!((summary.quantile(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_vp_beats_no_vp_on_the_demo_workload() {
        let spec = demo();
        let result = BenchResult {
            name: spec.name.clone(),
            baseline: run(
                UopSource::Live(&spec),
                &PipelineConfig::baseline_6_60(),
                &PredictorKind::None,
                20_000,
            ),
            variant: run(
                UopSource::Live(&spec),
                &PipelineConfig::baseline_vp_6_60(),
                &PredictorKind::Perfect,
                20_000,
            ),
        };
        assert!(result.speedup() > 1.0);
    }
}
