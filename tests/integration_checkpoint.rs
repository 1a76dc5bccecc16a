//! End-to-end checkpoint/restore tests of the robustness layer.
//!
//! The headline property: a run snapshotted at an *arbitrary* commit point
//! and resumed through [`bebop::Run::execute`] finishes with
//! `SimStats` bit-identical to an uninterrupted run — for every
//! [`PredictorKind`], serial and parallel. Alongside it: corrupt, truncated
//! and mismatched checkpoints are rejected-and-discarded with a clean
//! fall-back to a from-zero run, and signal interruption leaves a resumable
//! snapshot behind.

use bebop::{
    configs, par, run_fingerprint, set_shutdown_requested, PipelineConfig, PredictorKind, Run,
    RunControl, RunError, RunOutcome, RunReport, SimCheckpoint, SimStats, UopSource, WorkloadSpec,
};
use bebop_trace::TraceBuffer;
use bebop_uarch::{Pipeline, ValuePredictor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

const TOTAL: u64 = 6_000;

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
        PredictorKind::BlockDVtage(configs::medium()),
    ]
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bebop-ckpt-it-{tag}-{}.bbpckpt",
        std::process::id()
    ))
}

fn stats(source: UopSource<'_>, cfg: &PipelineConfig, kind: &PredictorKind, n: u64) -> SimStats {
    Run::new(source, cfg, kind, n).stats()
}

/// Runs `source` to `n` µ-ops, resuming from the checkpoint at `path` when a
/// valid one is there.
fn resume(
    source: UopSource<'_>,
    cfg: &PipelineConfig,
    kind: &PredictorKind,
    n: u64,
    path: &Path,
) -> RunReport {
    Run {
        checkpoint_path: Some(path),
        ..Run::new(source, cfg, kind, n)
    }
    .execute()
    .expect("whole-stream runs accept a checkpoint path")
}

/// Snapshots a `TOTAL`-µop run of `source` at `cut` committed µ-ops exactly
/// as the run loop would, writes the checkpoint to `path`, and returns it.
fn snapshot_at(
    source: UopSource<'_>,
    cfg: &PipelineConfig,
    kind: &PredictorKind,
    cut: u64,
    path: &Path,
) -> SimCheckpoint {
    let mut pipeline = Pipeline::new(cfg.clone());
    let mut predictor = kind.build();
    let mut stream = source.stream();
    let mut stream_pos = 0u64;
    pipeline.run_segment(&mut stream, &mut predictor, cut, &mut stream_pos);
    let ckpt = SimCheckpoint {
        fingerprint: run_fingerprint(&source, cfg, kind, TOTAL),
        committed: pipeline.committed_uops(),
        stream_pos,
        pipeline: pipeline.save_state(),
        predictor: predictor.save_state(),
    };
    ckpt.write_atomic(path).expect("write checkpoint");
    ckpt
}

/// The round-trip check for one predictor kind: save at a seeded-random
/// commit point, resume through the production path, require bit-identical
/// final statistics and checkpoint cleanup.
fn check_roundtrip(kind: &PredictorKind, tag: &str, seed: u64) {
    let spec = WorkloadSpec::named_demo("ckpt-roundtrip");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let source = UopSource::Live(&spec);
    let reference = stats(source, &cfg, kind, TOTAL);

    let cut = SmallRng::seed_from_u64(seed).gen_range(TOTAL / 8..TOTAL - TOTAL / 8);
    let path = tmp_path(&format!("{tag}-{seed:x}-{:x}", cut));
    let ckpt = snapshot_at(source, &cfg, kind, cut, &path);
    assert_eq!(ckpt.committed, cut, "run_segment stops exactly at the cut");

    let resumed = resume(source, &cfg, kind, TOTAL, &path);
    assert_eq!(
        resumed.resumed_from,
        Some(cut),
        "{tag}: must resume from the snapshot, not restart"
    );
    assert_eq!(resumed.rejected_checkpoint, None);
    assert_eq!(
        resumed.outcome,
        RunOutcome::Complete(reference),
        "{tag}: resumed SimStats must be bit-identical to an uninterrupted run"
    );
    assert!(!path.exists(), "{tag}: completed runs discard the snapshot");
}

#[test]
fn every_predictor_kind_resumes_bit_identically_serial() {
    for (i, kind) in all_kinds().iter().enumerate() {
        check_roundtrip(kind, &format!("serial-{i}"), 0x5eed + i as u64);
    }
}

#[test]
fn every_predictor_kind_resumes_bit_identically_parallel() {
    let kinds = all_kinds();
    let checks: Vec<(usize, &PredictorKind)> = kinds.iter().enumerate().collect();
    // The same property under the worker pool: restores racing in parallel
    // threads must not share or corrupt any state.
    par::par_map(&checks, |(i, kind)| {
        check_roundtrip(kind, &format!("par-{i}"), 0xfee1 + *i as u64)
    });
}

/// A phase-sampling slice reports the delta past its warm-up boundary, which
/// a checkpoint does not carry: a slice run with a checkpoint path is refused
/// before it simulates or touches the file.
#[test]
fn slice_runs_refuse_a_checkpoint_path() {
    let spec = WorkloadSpec::named_demo("ckpt-slice");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let buf = TraceBuffer::record(&spec, 12_000);
    let slice = UopSource::replay_slice(&buf, 4_000, 9_000, 1_000).expect("valid slice");
    let path = tmp_path("slice");
    let refused = Run {
        checkpoint_path: Some(&path),
        ..Run::new(slice, &cfg, &PredictorKind::DVtage, u64::MAX)
    }
    .execute();
    assert_eq!(refused.err(), Some(RunError::CheckpointedSlice));
    assert!(!path.exists(), "a refused run writes no checkpoint");
}

/// Two workloads recorded to the same length replay different streams, so a
/// checkpoint of one must never resume the other. The fingerprint hashes the
/// recording itself: `named_demo` streams do not depend on the name, so only
/// a different seed makes the second recording a different stream.
#[test]
fn replay_checkpoints_are_bound_to_the_recording() {
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::DVtage;
    let fingerprint =
        |buf: &TraceBuffer| run_fingerprint(&UopSource::Replay(buf), &cfg, &kind, TOTAL);
    let a = TraceBuffer::record(&WorkloadSpec::named_demo("ckpt-rec-a"), TOTAL);
    let same = TraceBuffer::record(&WorkloadSpec::named_demo("ckpt-rec-a2"), TOTAL);
    let b = TraceBuffer::record(
        &WorkloadSpec {
            seed: 0xB,
            ..WorkloadSpec::named_demo("ckpt-rec-b")
        },
        TOTAL,
    );
    assert_eq!((a.len(), a.committed_len()), (b.len(), b.committed_len()));
    assert_eq!(fingerprint(&a), fingerprint(&same), "identical streams");
    assert_ne!(fingerprint(&a), fingerprint(&b));
    let (src_a, src_b) = (UopSource::Replay(&a), UopSource::Replay(&b));

    let path = tmp_path("recording");
    snapshot_at(src_a, &cfg, &kind, TOTAL / 2, &path);
    let run = resume(src_b, &cfg, &kind, TOTAL, &path);
    assert_eq!(
        run.resumed_from, None,
        "b must not resume from a's snapshot"
    );
    assert!(run
        .rejected_checkpoint
        .as_deref()
        .is_some_and(|r| r.contains("different configuration")));
    assert_eq!(
        run.outcome,
        RunOutcome::Complete(stats(src_b, &cfg, &kind, TOTAL))
    );
    assert!(!path.exists());
}

#[test]
fn corrupt_truncated_and_mismatched_checkpoints_fall_back_to_zero() {
    let spec = WorkloadSpec::named_demo("ckpt-reject");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::DVtage;
    let source = UopSource::Live(&spec);
    let reference = stats(source, &cfg, &kind, TOTAL);
    let path = tmp_path("reject");

    type Mutation = Box<dyn Fn(Vec<u8>) -> Vec<u8>>;
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "flipped byte",
            Box::new(|mut b: Vec<u8>| {
                let at = b.len() / 2;
                b[at] ^= 0x40;
                b
            }),
        ),
        (
            "truncated file",
            Box::new(|b: Vec<u8>| {
                let keep = b.len() * 2 / 3;
                b[..keep].to_vec()
            }),
        ),
        (
            "wrong magic",
            Box::new(|mut b: Vec<u8>| {
                b[0] = b'X';
                b
            }),
        ),
    ];
    for (what, mutate) in mutations {
        snapshot_at(source, &cfg, &kind, TOTAL / 2, &path);
        let bytes = fs::read(&path).expect("checkpoint bytes");
        fs::write(&path, mutate(bytes)).expect("write mutated checkpoint");

        let run = resume(source, &cfg, &kind, TOTAL, &path);
        assert_eq!(run.resumed_from, None, "{what}: must not resume");
        assert!(
            run.rejected_checkpoint.is_some(),
            "{what}: the rejection must be reported"
        );
        assert_eq!(
            run.outcome,
            RunOutcome::Complete(reference),
            "{what}: the from-zero fall-back must still be bit-identical"
        );
        assert!(!path.exists(), "{what}: the bad file must be discarded");
    }

    // A checkpoint from a *different* configuration (here: another µ-op
    // budget, which changes the fingerprint) is rejected the same way.
    let mut other = snapshot_at(source, &cfg, &kind, TOTAL / 2, &path);
    other.fingerprint ^= 1;
    other.write_atomic(&path).expect("write foreign checkpoint");
    let run = resume(source, &cfg, &kind, TOTAL, &path);
    assert_eq!(run.resumed_from, None);
    assert!(run
        .rejected_checkpoint
        .as_deref()
        .is_some_and(|r| r.contains("different configuration")));
    assert_eq!(run.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());
}

#[test]
fn cancelled_run_writes_a_final_checkpoint_and_resumes_bit_identically() {
    let spec = WorkloadSpec::named_demo("ckpt-cancel");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::DVtage;
    // Under simcheck every committed µ-op pays for full invariant scans, so
    // a smaller budget keeps the sanitizer CI job inside its time box while
    // still crossing several checkpoint intervals before the cancel lands.
    const BUDGET: u64 = if cfg!(feature = "simcheck") {
        60_000
    } else {
        200_000
    };
    let source = UopSource::Live(&spec);
    let reference = stats(source, &cfg, &kind, BUDGET);
    let path = tmp_path("cancel");
    SimCheckpoint::discard(&path);

    // A supervisor cancels once the run is demonstrably mid-flight; the
    // heartbeat makes "mid-flight" observable without guessing at timing.
    let control = RunControl::new();
    let interrupted = std::thread::scope(|s| {
        s.spawn(|| {
            while control.committed() < BUDGET / 4 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            control.request_cancel();
        });
        Run {
            checkpoint_path: Some(&path),
            checkpoint_every: 10_000,
            control: Some(&control),
            ..Run::new(source, &cfg, &kind, BUDGET)
        }
        .execute()
        .expect("whole-stream runs accept a checkpoint path")
    });
    let committed = match interrupted.outcome {
        RunOutcome::Cancelled { committed } => committed,
        other => panic!("expected cancellation, got {other:?}"),
    };
    assert!(
        (BUDGET / 4..BUDGET).contains(&committed),
        "cancellation must land mid-run (committed {committed})"
    );
    assert!(path.exists(), "a cancelled run leaves its final checkpoint");

    let resumed = resume(source, &cfg, &kind, BUDGET, &path);
    assert_eq!(resumed.resumed_from, Some(committed));
    assert_eq!(resumed.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());
}

#[test]
fn signal_interruption_leaves_a_resumable_checkpoint() {
    let spec = WorkloadSpec::named_demo("ckpt-signal");
    let cfg = PipelineConfig::baseline_vp_6_60();
    let kind = PredictorKind::LastValue;
    let source = UopSource::Live(&spec);
    let reference = stats(source, &cfg, &kind, TOTAL);
    let path = tmp_path("signal");
    SimCheckpoint::discard(&path);

    // The flag is what the SIGINT/SIGTERM handlers set; driving it directly
    // keeps the test in-process and signal-free.
    set_shutdown_requested(true);
    let interrupted = Run {
        checkpoint_path: Some(&path),
        react_to_signals: true,
        ..Run::new(source, &cfg, &kind, TOTAL)
    }
    .execute()
    .expect("whole-stream runs accept a checkpoint path");
    set_shutdown_requested(false);
    assert!(matches!(
        interrupted.outcome,
        RunOutcome::Interrupted { .. }
    ));
    assert!(path.exists(), "interruption must leave a checkpoint behind");

    let resumed = resume(source, &cfg, &kind, TOTAL, &path);
    assert!(resumed.resumed_from.is_some());
    assert_eq!(resumed.outcome, RunOutcome::Complete(reference));
    assert!(!path.exists());
}
