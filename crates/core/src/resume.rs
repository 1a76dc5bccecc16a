//! The single simulation run path.
//!
//! Every simulation — a figure cell, a sampled slice, a supervised sweep
//! cell — is a [`Run`], and every [`Run`] goes through one loop that
//! advances the pipeline in chunks of [`CHUNK_UOPS`] committed µ-ops. Between
//! chunks it publishes a progress heartbeat, honours cooperative
//! cancellation and SIGINT/SIGTERM, and periodically snapshots the complete
//! simulation state to a [`SimCheckpoint`] file; on startup it restores a
//! valid snapshot by replaying the deterministic µ-op stream up to it, so a
//! resumed run's final `SimStats` are bit-identical to an uninterrupted
//! run's. Chunking is invisible: an unsupervised run equals one
//! `Pipeline::run` over the same stream, bit for bit.

use crate::checkpoint::{CheckpointError, SimCheckpoint};
use crate::driver::{AnyPredictor, PredictorKind, UopSource};
use crate::shutdown;
use bebop_trace::{fnv1a, spec_fingerprint, FNV_OFFSET_BASIS};
use bebop_uarch::{Pipeline, PipelineConfig, SimStats, ValuePredictor};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Committed µ-ops simulated between control-plane checks (heartbeat bump,
/// cancellation poll, checkpoint-interval test). Large enough that the checks
/// are amortised to noise; small enough that a stalled cell is detected and a
/// cancellation honoured within milliseconds of simulated work.
pub const CHUNK_UOPS: u64 = 1024;

/// Shared progress/cancellation channel between a simulation run and its
/// supervisor (the sweep watchdog, a signal handler, a test harness).
#[derive(Debug, Default)]
pub struct RunControl {
    /// Monotonically increasing count of committed µ-ops, stored by the run
    /// once per chunk. A supervisor that sees it unchanged across a wall-
    /// clock budget declares the run stalled.
    pub heartbeat: AtomicU64,
    /// Set by a supervisor to request cooperative cancellation; the run
    /// stops at the next chunk boundary.
    pub cancel: AtomicBool,
}

impl RunControl {
    /// A fresh control block (heartbeat 0, not cancelled).
    pub fn new() -> Self {
        Self::default()
    }

    /// The last published committed-µop count.
    pub fn committed(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Requests cooperative cancellation.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// One simulation: a µ-op source on one pipeline configuration with one
/// predictor for a committed-µop budget, optionally checkpointed and
/// supervised.
///
/// [`Run::new`] sets the four simulation values and leaves checkpointing
/// and supervision off; set the remaining fields with struct-update syntax.
///
/// # Example
///
/// ```
/// use bebop::{PredictorKind, Run, RunControl, RunOutcome, UopSource};
/// use bebop_trace::WorkloadSpec;
/// use bebop_uarch::PipelineConfig;
///
/// let spec = WorkloadSpec::named_demo("run-demo");
/// let cfg = PipelineConfig::baseline_vp_6_60();
/// let control = RunControl::new();
/// let report = Run {
///     control: Some(&control),
///     ..Run::new(UopSource::Live(&spec), &cfg, &PredictorKind::DVtage, 2_000)
/// }
/// .execute()
/// .expect("a live run is never refused");
/// assert!(matches!(report.outcome, RunOutcome::Complete(_)));
/// assert_eq!(control.committed(), 2_000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Where the µ-op stream comes from.
    pub source: UopSource<'a>,
    /// The pipeline configuration.
    pub pipeline: &'a PipelineConfig,
    /// The value predictor, built fresh for the run.
    pub predictor: &'a PredictorKind,
    /// Committed µ-ops to simulate; the run also ends when the stream does.
    /// For a slice source the count starts at the detailed warm-up, so
    /// `u64::MAX` runs the slice to its end.
    pub max_uops: u64,
    /// Checkpoint file location. `None` disables persistence entirely.
    pub checkpoint_path: Option<&'a Path>,
    /// Snapshot every this many committed µ-ops (rounded up to chunk
    /// granularity). 0 with a path set means "no periodic snapshots, but
    /// still resume from / final-checkpoint to the file".
    pub checkpoint_every: u64,
    /// Supervisor channel for heartbeat publication and cancellation.
    pub control: Option<&'a RunControl>,
    /// Poll [`shutdown::shutdown_requested`] and stop (with a final
    /// checkpoint) when a termination signal has arrived.
    pub react_to_signals: bool,
}

/// How a run ended.
// One value exists per run, so the size skew between `Complete` and the
// early-stop variants costs nothing; boxing would only tax every caller.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Ran to its µ-op budget or the end of its stream; the statistics are
    /// final.
    Complete(SimStats),
    /// Stopped early by cooperative cancellation ([`RunControl::cancel`]).
    Cancelled {
        /// Committed µ-ops at the stop point.
        committed: u64,
    },
    /// Stopped early by SIGINT/SIGTERM (with a final checkpoint written when
    /// a checkpoint path was configured).
    Interrupted {
        /// Committed µ-ops at the stop point.
        committed: u64,
    },
}

/// The result of [`Run::execute`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Committed µ-ops restored from a checkpoint (`None` = from-zero run).
    /// A resumed run re-simulates at most `checkpoint_every + CHUNK_UOPS`
    /// µ-ops of lost progress.
    pub resumed_from: Option<u64>,
    /// Why an existing checkpoint file was rejected and discarded, if one
    /// was (`Missing` is not recorded — a first run is not a rejection).
    pub rejected_checkpoint: Option<String>,
    /// The predictor instance as the run left it, for harnesses that read
    /// predictor-internal state (sharding counters, window hit rates).
    pub predictor: AnyPredictor,
}

/// Why [`Run::execute`] refused a run before simulating anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A slice source with a checkpoint path: a [`SimCheckpoint`] does not
    /// carry a slice's warm-up boundary statistics.
    CheckpointedSlice,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CheckpointedSlice => write!(f, "slice runs cannot be checkpointed"),
        }
    }
}

impl std::error::Error for RunError {}

/// The configuration fingerprint binding a checkpoint to one (source,
/// pipeline, predictor, budget) tuple. Derived from the workload fingerprint
/// (or the recording's content) and the `Debug` renderings of the
/// configuration — exhaustive-by-construction: any config field change
/// re-fingerprints.
pub fn run_fingerprint(
    source: &UopSource<'_>,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    max_uops: u64,
) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    match source {
        UopSource::Live(spec) => {
            h = fnv1a(h, b"live");
            h = fnv1a(h, &spec_fingerprint(spec).to_le_bytes());
        }
        UopSource::Replay(buf) => {
            h = fnv1a(h, b"replay");
            h = fnv1a(h, &buf.content_fingerprint().to_le_bytes());
        }
        UopSource::ReplaySlice {
            buf,
            start,
            end,
            warmup,
        } => {
            h = fnv1a(h, b"slice");
            h = fnv1a(h, &buf.content_fingerprint().to_le_bytes());
            h = fnv1a(h, &(*start as u64).to_le_bytes());
            h = fnv1a(h, &(*end as u64).to_le_bytes());
            h = fnv1a(h, &warmup.to_le_bytes());
        }
    }
    h = fnv1a(h, format!("{pipeline:?}").as_bytes());
    h = fnv1a(h, format!("{predictor:?}").as_bytes());
    fnv1a(h, &max_uops.to_le_bytes())
}

/// Attempts to restore `pipeline`/`predictor` from the checkpoint at `path`.
/// On success returns the committed count and stream position to
/// fast-forward to; on any failure the (possibly partially mutated)
/// components are rebuilt from scratch and the offending file is discarded.
fn try_restore(
    path: &Path,
    fingerprint: u64,
    run: &Run<'_>,
    pipeline: &mut Pipeline,
    predictor: &mut AnyPredictor,
) -> Result<(u64, u64), Option<String>> {
    let ckpt = match SimCheckpoint::load(path, fingerprint) {
        Ok(c) => c,
        Err(CheckpointError::Missing) => return Err(None),
        Err(e) => {
            SimCheckpoint::discard(path);
            return Err(Some(e.to_string()));
        }
    };
    let mut restore = || -> Result<(), String> {
        pipeline
            .restore_state(&ckpt.pipeline)
            .map_err(|e| format!("pipeline: {e}"))?;
        predictor.restore_state(&ckpt.predictor)
    };
    match restore() {
        Ok(()) => Ok((ckpt.committed, ckpt.stream_pos)),
        Err(e) => {
            // A failed restore may have partially mutated the components:
            // rebuild both from configuration before the from-zero run.
            *pipeline = Pipeline::new(run.pipeline.clone());
            *predictor = run.predictor.build();
            SimCheckpoint::discard(path);
            Err(Some(CheckpointError::Restore(e).to_string()))
        }
    }
}

impl<'a> Run<'a> {
    /// An unsupervised, uncheckpointed run of `source` on `pipeline` with a
    /// fresh `predictor` for `max_uops` committed µ-ops.
    pub fn new(
        source: UopSource<'a>,
        pipeline: &'a PipelineConfig,
        predictor: &'a PredictorKind,
        max_uops: u64,
    ) -> Self {
        Run {
            source,
            pipeline,
            predictor,
            max_uops,
            checkpoint_path: None,
            checkpoint_every: 0,
            control: None,
            react_to_signals: false,
        }
    }

    /// Executes the run without checkpointing or supervision (those fields
    /// are ignored) and returns its final statistics.
    pub fn stats(self) -> SimStats {
        let plain = Run::new(self.source, self.pipeline, self.predictor, self.max_uops);
        let Ok(RunOutcome::Complete(stats)) = plain.execute().map(|r| r.outcome) else {
            // INVARIANT: with no checkpoint path, control or signal polling a
            // run is never refused and never stops early.
            unreachable!("an unsupervised run always completes")
        };
        stats
    }

    /// Executes the run: restores from the checkpoint file when a valid one
    /// exists, then simulates chunk by chunk until the budget, the end of
    /// the stream, a cancellation or a termination signal.
    ///
    /// Refuses (with [`RunError`]) a slice source with a checkpoint path.
    pub fn execute(&self) -> Result<RunReport, RunError> {
        let mut pipeline = Pipeline::new(self.pipeline.clone());
        let mut predictor = self.predictor.build();
        let mut stream_pos = 0u64;
        // A slice functionally warms the whole recording before its detailed
        // warm-up (predictor, branch and cache state only, no cycle timing,
        // not counted against the budget), then reports only the statistics
        // gathered past `measure_from` committed µ-ops.
        let mut measure_from = None;
        if let UopSource::ReplaySlice {
            buf, start, warmup, ..
        } = self.source
        {
            if self.checkpoint_path.is_some() {
                return Err(RunError::CheckpointedSlice);
            }
            let (warm_start, warm_committed) = buf.warmup_start(start, warmup);
            if warm_start > 0 {
                let mut prefix = buf
                    .replay_range(0, warm_start)
                    // INVARIANT: a recording starts on the correct path
                    // (bursts only ever follow a mispredicted branch) and
                    // `warmup_start` returns a committed in-bounds index, so
                    // the prefix window is valid.
                    .expect("recording prefix is a valid replay window");
                pipeline.warm_functional(&mut prefix, &mut predictor, u64::MAX, &mut stream_pos);
            }
            measure_from = Some(warm_committed);
        }
        let mut stream = self.source.stream();

        let checkpoint = self.checkpoint_path.map(|path| {
            let fingerprint =
                run_fingerprint(&self.source, self.pipeline, self.predictor, self.max_uops);
            (path, fingerprint)
        });
        let mut resumed_from = None;
        let mut rejected_checkpoint = None;
        if let Some((path, fingerprint)) = checkpoint {
            match try_restore(path, fingerprint, self, &mut pipeline, &mut predictor) {
                Ok((committed, pos)) => {
                    // Fast-forward the fresh stream to the snapshot position:
                    // generation is deterministic, so skipping `pos` µ-ops
                    // reproduces the exact suffix the interrupted run would
                    // have consumed.
                    for _ in 0..pos {
                        if stream.next().is_none() {
                            break;
                        }
                    }
                    stream_pos = pos;
                    resumed_from = Some(committed);
                }
                Err(why) => rejected_checkpoint = why,
            }
        }
        let write_checkpoint = |pipeline: &Pipeline, predictor: &AnyPredictor, stream_pos| {
            if let Some((path, fingerprint)) = checkpoint {
                let ckpt = SimCheckpoint {
                    fingerprint,
                    committed: pipeline.committed_uops(),
                    stream_pos,
                    pipeline: pipeline.save_state(),
                    predictor: predictor.save_state(),
                };
                let _ = ckpt.write_atomic(path);
            }
        };

        let mut next_checkpoint_at = if self.checkpoint_every > 0 {
            pipeline.committed_uops() + self.checkpoint_every
        } else {
            u64::MAX
        };
        let mut warm_snapshot = None;
        let stopped = loop {
            let committed = pipeline.committed_uops();
            if let Some(control) = self.control {
                control.heartbeat.store(committed, Ordering::Relaxed);
                if control.cancelled() {
                    break Some(RunOutcome::Cancelled { committed });
                }
            }
            if self.react_to_signals && shutdown::shutdown_requested() {
                break Some(RunOutcome::Interrupted { committed });
            }
            let mut stop_at = (committed + CHUNK_UOPS).min(self.max_uops);
            if warm_snapshot.is_none() {
                if let Some(boundary) = measure_from {
                    if committed >= boundary {
                        warm_snapshot = Some(pipeline.stats_snapshot());
                    } else {
                        stop_at = stop_at.min(boundary);
                    }
                }
            }
            if committed >= self.max_uops {
                break None;
            }
            if committed >= next_checkpoint_at {
                write_checkpoint(&pipeline, &predictor, stream_pos);
                next_checkpoint_at = committed + self.checkpoint_every;
            }
            pipeline.run_segment(&mut stream, &mut predictor, stop_at, &mut stream_pos);
            if pipeline.committed_uops() == committed {
                break None; // stream exhausted before the budget
            }
        };

        let outcome = match stopped {
            Some(early) => {
                write_checkpoint(&pipeline, &predictor, stream_pos);
                early
            }
            None => {
                if let Some(control) = self.control {
                    control
                        .heartbeat
                        .store(pipeline.committed_uops(), Ordering::Relaxed);
                }
                // The run completed: the snapshot is stale the moment the
                // final stats exist, so drop it rather than let a later run
                // resurrect it.
                if let Some(path) = self.checkpoint_path {
                    SimCheckpoint::discard(path);
                }
                let stats = pipeline.finish(&mut predictor);
                RunOutcome::Complete(match warm_snapshot {
                    Some(warm) => stats.delta_since(&warm),
                    None => stats,
                })
            }
        };
        Ok(RunReport {
            outcome,
            resumed_from,
            rejected_checkpoint,
            predictor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_trace::WorkloadSpec;

    fn demo() -> WorkloadSpec {
        WorkloadSpec::named_demo("resume-unit")
    }

    /// Chunking is invisible: for every predictor kind, over a live and a
    /// replayed stream, an unsupervised [`Run`] equals one unchunked
    /// `Pipeline::run` bit for bit — including a budget past the end of a
    /// recording, where both stop with the stream.
    #[test]
    fn unsupervised_runs_match_the_unchunked_pipeline() {
        let spec = demo();
        let cfg = PipelineConfig::baseline_vp_6_60();
        let buf = bebop_trace::TraceBuffer::record(&spec, 5_000);
        for kind in &crate::driver::tests::all_kinds() {
            for (source, n) in [
                (UopSource::Live(&spec), 5_000),
                (UopSource::Replay(&buf), 5_000),
                (UopSource::Replay(&buf), 6_000),
            ] {
                let direct = Pipeline::new(cfg.clone()).run(source.stream(), &mut kind.build(), n);
                let report = Run::new(source, &cfg, kind, n).execute().unwrap();
                assert_eq!(
                    report.outcome,
                    RunOutcome::Complete(direct),
                    "{} over {source:?}",
                    kind.label()
                );
                assert_eq!(report.resumed_from, None);
                assert_eq!(report.rejected_checkpoint, None);
            }
        }
    }

    #[test]
    fn cancellation_stops_at_a_chunk_boundary() {
        let spec = demo();
        let control = RunControl::new();
        control.request_cancel();
        let cfg = PipelineConfig::baseline_vp_6_60();
        let report = Run {
            control: Some(&control),
            ..Run::new(
                UopSource::Live(&spec),
                &cfg,
                &PredictorKind::LastValue,
                1_000_000,
            )
        }
        .execute()
        .unwrap();
        assert!(matches!(report.outcome, RunOutcome::Cancelled { .. }));
    }

    /// Guards the two properties resumability rests on, at many cut points:
    /// stopping `run_segment` and continuing is invisible to the simulation,
    /// and a save/restore cycle at the stop point is byte-lossless (the LFSR
    /// low-bit coercion bug hid here — an even RNG state was perturbed by
    /// restore, so resumed runs diverged only for cuts with even states).
    #[test]
    fn segment_stop_and_restore_are_state_transparent() {
        let spec = WorkloadSpec::named_demo("ckpt-roundtrip");
        let cfg = PipelineConfig::baseline_vp_6_60();
        let kind = PredictorKind::VtageStrideHybrid;
        const TOTAL: u64 = 6_000;

        // Monolithic reference state.
        let mut pa = Pipeline::new(cfg.clone());
        let mut qa = kind.build();
        let mut sa = UopSource::Live(&spec).stream();
        let mut posa = 0u64;
        pa.run_segment(&mut sa, &mut qa, TOTAL, &mut posa);
        let ref_pipeline = pa.save_state();
        let ref_predictor = qa.save_state();

        for cut in (800..5400).step_by(400) {
            let cut = cut as u64;
            // B: stop at the cut and continue (no restore).
            let mut pb = Pipeline::new(cfg.clone());
            let mut qb = kind.build();
            let mut sb = UopSource::Live(&spec).stream();
            let mut posb = 0u64;
            pb.run_segment(&mut sb, &mut qb, cut, &mut posb);
            let pb_bytes = pb.save_state();
            let qb_bytes = qb.save_state();
            let cut_pos = posb;
            pb.run_segment(&mut sb, &mut qb, TOTAL, &mut posb);
            assert_eq!(
                pb.save_state(),
                ref_pipeline,
                "cut {cut}: stop/continue perturbs the pipeline"
            );
            assert_eq!(
                qb.save_state(),
                ref_predictor,
                "cut {cut}: stop/continue perturbs the predictor"
            );

            // C: restore from the cut snapshot and continue.
            let mut pc = Pipeline::new(cfg.clone());
            let mut qc = kind.build();
            pc.restore_state(&pb_bytes).unwrap();
            qc.restore_state(&qb_bytes).unwrap();
            assert_eq!(
                pc.save_state(),
                pb_bytes,
                "cut {cut}: pipeline restore lossy"
            );
            let qc_bytes = qc.save_state();
            if qc_bytes != qb_bytes {
                // Report the first differing offset instead of dumping two
                // ~half-megabyte blobs into the failure message.
                let diff = qc_bytes
                    .iter()
                    .zip(&qb_bytes)
                    .position(|(x, y)| x != y)
                    .unwrap_or(qc_bytes.len().min(qb_bytes.len()));
                panic!(
                    "cut {cut}: predictor restore lossy: lens {} vs {}, first diff at byte {diff}",
                    qc_bytes.len(),
                    qb_bytes.len(),
                );
            }
            let mut sc = UopSource::Live(&spec).stream();
            for _ in 0..cut_pos {
                sc.next();
            }
            let mut posc = cut_pos;
            pc.run_segment(&mut sc, &mut qc, TOTAL, &mut posc);
            assert_eq!(posc, posb, "cut {cut}: restored stream cursor diverged");
            assert_eq!(
                pc.save_state(),
                ref_pipeline,
                "cut {cut}: restore/continue perturbs the pipeline"
            );
            assert_eq!(
                qc.save_state(),
                ref_predictor,
                "cut {cut}: restore/continue perturbs the predictor"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let spec = demo();
        let cfg = PipelineConfig::baseline_vp_6_60();
        let a = run_fingerprint(
            &UopSource::Live(&spec),
            &cfg,
            &PredictorKind::DVtage,
            10_000,
        );
        let b = run_fingerprint(
            &UopSource::Live(&spec),
            &cfg,
            &PredictorKind::LastValue,
            10_000,
        );
        let c = run_fingerprint(
            &UopSource::Live(&spec),
            &cfg,
            &PredictorKind::DVtage,
            20_000,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
