//! Crash-safe, resumable design-space sweeps.
//!
//! The ROADMAP's north star is a service-scale search over predictor
//! geometries (10⁴–10⁶ cells). A sweep that long *will* be killed, meet
//! transient I/O errors, and hit the odd configuration that panics the
//! simulator — so this module treats a sweep as a durable job set rather than
//! one in-memory loop:
//!
//! * A [`SweepRequest`] (workloads × variants × µ-op budget) expands into a
//!   content-addressed job set: every cell's [`JobKey`] fingerprints the
//!   workload specification, the pipeline configuration, the predictor and
//!   the budget, so a job's identity survives process restarts and
//!   reorderings of the grid.
//! * Completed cells persist *incrementally* to an append-only, per-record
//!   checksummed journal (`journal.bbl`). Each record is one self-validating
//!   line; on resume the journal is replayed and a torn tail — the signature
//!   of `kill -9` mid-append — is salvaged away, so only in-flight cells are
//!   re-run and completed cells are never re-simulated.
//! * When every cell is present, a compacted ledger (`ledger.bbl`) is written
//!   via temporary-file + atomic rename, in job order with a trailing
//!   whole-file checksum: byte-identical no matter how many times the sweep
//!   was killed and resumed on the way there.
//! * Every job runs panic-isolated (`catch_unwind` around
//!   [`bebop::Run::execute`]); a poisoned configuration is
//!   *quarantined* (recorded with a reason, reported, excluded from
//!   aggregates) instead of aborting the sweep. Transient journal and ledger
//!   write errors are retried with exponential backoff and counted in the
//!   [`SweepReport`].
//! * Cells run supervised: each publishes a committed-µop heartbeat through a
//!   [`RunControl`], and when [`SweepOptions::cell_timeout`] is set a watchdog
//!   thread cancels any cell whose heartbeat stalls past the budget. A stalled
//!   cell is journaled as quarantined with [`ReasonKind::Timeout`] — distinct
//!   from a panic — and the sweep completes around it.
//! * With [`SweepOptions::checkpoint_every`] set, each cell periodically
//!   snapshots its full simulation state to `<dir>/ckpt/<jobkey>.bbpckpt`
//!   (see `bebop::SimCheckpoint`); a `kill -9` mid-cell then costs only the
//!   work since the last snapshot, and SIGINT/SIGTERM write a final snapshot
//!   before the cell returns unjournaled (to be resumed later).
//! * A [`FaultPlan`] makes the quarantine and watchdog paths testable
//!   in-tree: deterministic per-job panics and per-job stalls.
//!
//! The failure matrix, in one place:
//!
//! | failure | class | response |
//! | ------- | ----- | -------- |
//! | journal append error | transient | retry with backoff, then count (cell re-runs on resume) |
//! | job panic | permanent (config) | quarantine the cell, `reason_kind = panic` |
//! | stalled cell (heartbeat flat past `cell_timeout`) | permanent (config) | watchdog cancels → quarantine, `reason_kind = timeout`, checkpoint discarded |
//! | SIGINT / SIGTERM mid-sweep | — | in-flight cells final-checkpoint and return unjournaled (`skipped_on_shutdown`); resume re-runs them from their snapshots |
//! | `kill -9` mid-sweep | — | resume: journal replay + torn-tail salvage; mid-cell snapshot restores the interrupted cell |
//! | corrupt / stale / mismatched cell checkpoint | permanent (file) | rejected and discarded; the cell re-runs from zero |

use crate::SweepVariant;
use bebop::{
    configs, panic_reason, par, shutdown_requested, PredictorKind, Run, RunControl, RunOutcome,
    SimStats, UopSource,
};
use bebop_trace::{
    fnv1a, spec_fingerprint, FaultPlan, TraceBuffer, WorkloadSpec, FNV_OFFSET_BASIS,
};
use bebop_uarch::{gmean, PipelineConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version of the sweep directory layout (manifest, journal and ledger).
/// Part of every [`JobKey`] and of the manifest line, so a directory written
/// by an incompatible engine is rejected rather than misread.
pub const SWEEP_FORMAT_VERSION: u32 = 1;

/// File names inside a sweep directory.
const MANIFEST_FILE: &str = "MANIFEST.bbsweep";
const JOURNAL_FILE: &str = "journal.bbl";
const LEDGER_FILE: &str = "ledger.bbl";

// ---------------------------------------------------------------------------
// Job identity
// ---------------------------------------------------------------------------

/// The content-addressed identity of one sweep cell: a fingerprint over the
/// sweep format version, the µ-op budget, the workload specification (via
/// [`spec_fingerprint`], which already covers every field and the generator
/// seed) and the variant (label, pipeline configuration, predictor).
///
/// Change anything that could change the cell's result and the key changes
/// with it, orphaning — never poisoning — old journal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey(pub u64);

impl JobKey {
    fn compute(uops: u64, spec: &WorkloadSpec, variant: &SweepVariant) -> JobKey {
        let (label, pipeline, predictor) = variant;
        let mut enc: Vec<u8> = Vec::with_capacity(256);
        enc.extend_from_slice(b"BBPJOB\0\0");
        enc.extend_from_slice(&SWEEP_FORMAT_VERSION.to_le_bytes());
        enc.extend_from_slice(&uops.to_le_bytes());
        enc.extend_from_slice(&spec_fingerprint(spec).to_le_bytes());
        enc.extend_from_slice(&(label.len() as u64).to_le_bytes());
        enc.extend_from_slice(label.as_bytes());
        // The pipeline and predictor configurations are plain-old-data structs
        // whose `Debug` rendering covers every field; hashing it gives a
        // fingerprint that changes whenever any knob changes, with no
        // hand-maintained field list to fall out of date.
        enc.extend_from_slice(format!("{pipeline:?}").as_bytes());
        enc.push(0);
        enc.extend_from_slice(format!("{predictor:?}").as_bytes());
        JobKey(fnv1a(FNV_OFFSET_BASIS, &enc))
    }
}

/// One cell of the expanded grid: its position plus its content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepJob {
    /// Position in expansion order (`variant * workloads + workload`).
    pub index: u64,
    /// Content-addressed identity.
    pub key: JobKey,
    /// Index into [`SweepRequest::workloads`].
    pub workload: usize,
    /// Index into [`SweepRequest::variants`].
    pub variant: usize,
}

/// A sweep request: the (workloads × variants) grid and the per-cell µ-op
/// budget. Variant 0 is the baseline every other variant's speedup is
/// reported against.
#[derive(Debug)]
pub struct SweepRequest {
    /// Display name (recorded in the manifest).
    pub name: String,
    /// Workload population (one trace per entry, shared across variants).
    pub workloads: Vec<WorkloadSpec>,
    /// Variant groups; index 0 is the speedup baseline.
    pub variants: Vec<SweepVariant>,
    /// Committed µ-ops simulated per cell.
    pub uops: u64,
}

impl SweepRequest {
    /// The default predictor-geometry grid of the BeBoP evaluation: D-VTAGE
    /// on the EOLE pipeline as the reference (variant 0), the four Table III
    /// block-based budget points, and the Figure 6a entry-count sweep — 11
    /// variants per workload.
    pub fn bebop_geometry(workloads: Vec<WorkloadSpec>, uops: u64) -> Self {
        let pipe = PipelineConfig::eole_4_60();
        let mut variants: Vec<SweepVariant> =
            vec![("D-VTAGE".to_string(), pipe.clone(), PredictorKind::DVtage)];
        for (label, cfg) in configs::table3_configs() {
            variants.push((
                label.to_string(),
                pipe.clone(),
                PredictorKind::BlockDVtage(cfg),
            ));
        }
        for (label, cfg) in configs::fig6a_sweep() {
            variants.push((label, pipe.clone(), PredictorKind::BlockDVtage(cfg)));
        }
        SweepRequest {
            name: "bebop-geometry".to_string(),
            workloads,
            variants,
            uops,
        }
    }

    /// A fingerprint of the whole request (every job key folded in expansion
    /// order). Recorded in the manifest; a resume against a directory whose
    /// manifest carries a different fingerprint is refused — mixing two
    /// different grids in one journal could otherwise go unnoticed until the
    /// cell counts stop adding up.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET_BASIS, b"BBPSWEEPREQ");
        h = fnv1a(h, &SWEEP_FORMAT_VERSION.to_le_bytes());
        h = fnv1a(h, &self.uops.to_le_bytes());
        h = fnv1a(h, &(self.workloads.len() as u64).to_le_bytes());
        h = fnv1a(h, &(self.variants.len() as u64).to_le_bytes());
        for job in self.expand() {
            h = fnv1a(h, &job.key.0.to_le_bytes());
        }
        h
    }

    /// Expands the grid into its job set, variant-major (`index = variant *
    /// workloads + workload`) so the final ledger groups each variant's cells
    /// together.
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(self.workloads.len() * self.variants.len());
        for (v, variant) in self.variants.iter().enumerate() {
            for (w, spec) in self.workloads.iter().enumerate() {
                jobs.push(SweepJob {
                    index: (v * self.workloads.len() + w) as u64,
                    key: JobKey::compute(self.uops, spec, variant),
                    workload: w,
                    variant: v,
                });
            }
        }
        jobs
    }

    /// Human-readable `workload × variant` label of one cell.
    pub fn cell_label(&self, workload: usize, variant: usize) -> String {
        format!(
            "{} × {}",
            self.workloads[workload].name, self.variants[variant].0
        )
    }

    /// The manifest line this request writes (and checks on resume).
    fn manifest_line(&self) -> String {
        format!(
            "BBPSWEEP v{SWEEP_FORMAT_VERSION} {:016x} {} cells\n",
            self.fingerprint(),
            self.workloads.len() * self.variants.len()
        )
    }
}

// ---------------------------------------------------------------------------
// Cell records
// ---------------------------------------------------------------------------

/// Outcome of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The simulation completed; the scalar counters are valid.
    Ok,
    /// The job panicked (or was poisoned by a [`FaultPlan`]); the reason is a
    /// sanitised one-token rendering of the panic message and the scalar
    /// counters are zero.
    Quarantined(String),
}

/// Failure class of a quarantined cell, persisted alongside the reason token
/// so post-mortems can separate "this configuration crashes the simulator"
/// (re-file a bug) from "this cell stopped making progress" (raise the
/// timeout, or suspect the machine) from "this cell's I/O failed permanently".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasonKind {
    /// The job panicked inside its isolation boundary.
    Panic,
    /// The watchdog saw no committed-µop progress within the cell timeout and
    /// cooperatively cancelled the job.
    Timeout,
    /// The job was lost to a permanent I/O failure.
    Io,
}

impl ReasonKind {
    fn as_str(self) -> &'static str {
        match self {
            ReasonKind::Panic => "panic",
            ReasonKind::Timeout => "timeout",
            ReasonKind::Io => "io",
        }
    }

    fn parse(s: &str) -> Option<ReasonKind> {
        match s {
            "panic" => Some(ReasonKind::Panic),
            "timeout" => Some(ReasonKind::Timeout),
            "io" => Some(ReasonKind::Io),
            _ => None,
        }
    }
}

/// One completed (or quarantined) sweep cell, as persisted in the journal and
/// the ledger: the job's content address and grid position, its status and
/// the scalar counters the front end aggregates, plus a digest of the full
/// [`SimStats`] so resumed cells can be compared bit-for-bit against a rerun.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Content-addressed identity of the job that produced this record.
    pub key: JobKey,
    /// Workload index in the request.
    pub workload: u32,
    /// Variant index in the request.
    pub variant: u32,
    /// Outcome.
    pub status: CellStatus,
    /// Committed µ-ops.
    pub uops: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Value-prediction-eligible µ-ops.
    pub vp_eligible: u64,
    /// Predictions supplied.
    pub vp_predicted: u64,
    /// Predictions that were correct.
    pub vp_correct: u64,
    /// FNV-1a digest of the full `Debug` rendering of the [`SimStats`] (zero
    /// for quarantined cells): a change anywhere in the statistics — not just
    /// the scalars above — changes the digest, so bit-identity of resumed
    /// results is checkable without persisting every counter.
    pub digest: u64,
    /// Failure class of a quarantined cell; `None` for completed cells.
    /// Journal lines written before this field existed decode as
    /// [`ReasonKind::Panic`] — the only kind the old engine could produce.
    pub reason_kind: Option<ReasonKind>,
}

/// Reduces a panic reason to one filesystem- and parser-safe token.
fn sanitize_reason(reason: &str) -> String {
    let mut out: String = reason
        .chars()
        .take(80)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | ':') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl CellRecord {
    /// The record of a successfully simulated cell.
    pub fn from_stats(job: &SweepJob, stats: &SimStats) -> CellRecord {
        CellRecord {
            key: job.key,
            workload: job.workload as u32,
            variant: job.variant as u32,
            status: CellStatus::Ok,
            uops: stats.uops,
            cycles: stats.cycles,
            vp_eligible: stats.vp.eligible,
            vp_predicted: stats.vp.predicted,
            vp_correct: stats.vp.correct,
            digest: fnv1a(FNV_OFFSET_BASIS, format!("{stats:?}").as_bytes()),
            reason_kind: None,
        }
    }

    /// The record of a quarantined cell (panicked, timed out or lost to I/O).
    pub fn quarantined(job: &SweepJob, kind: ReasonKind, reason: &str) -> CellRecord {
        CellRecord {
            key: job.key,
            workload: job.workload as u32,
            variant: job.variant as u32,
            status: CellStatus::Quarantined(sanitize_reason(reason)),
            uops: 0,
            cycles: 0,
            vp_eligible: 0,
            vp_predicted: 0,
            vp_correct: 0,
            digest: 0,
            reason_kind: Some(kind),
        }
    }

    /// Encodes the record as one self-validating line (no trailing newline):
    /// space-separated fields followed by an FNV-1a checksum of everything
    /// before it. The whole journal stays valid if and only if every line
    /// does, so a torn tail is detectable line-by-line.
    fn encode(&self) -> String {
        let (status, reason) = match &self.status {
            CellStatus::Ok => ("ok", "-"),
            CellStatus::Quarantined(r) => ("bad", r.as_str()),
        };
        let kind = self.reason_kind.map_or("-", ReasonKind::as_str);
        let body = format!(
            "C {:016x} {} {} {status} {} {} {} {} {} {:016x} {reason} {kind}",
            self.key.0,
            self.workload,
            self.variant,
            self.uops,
            self.cycles,
            self.vp_eligible,
            self.vp_predicted,
            self.vp_correct,
            self.digest
        );
        let cksum = fnv1a(FNV_OFFSET_BASIS, body.as_bytes());
        format!("{body} {cksum:016x}")
    }

    /// Decodes one journal/ledger line; `None` for anything malformed —
    /// wrong field count, unparsable numbers, or a checksum mismatch.
    ///
    /// Both line generations are accepted: 12-field lines predate the
    /// `reason_kind` field (their quarantines decode as [`ReasonKind::Panic`],
    /// the only kind that engine could produce), 13-field lines carry it
    /// explicitly. The format version is unchanged — old journals resume
    /// losslessly under the new engine.
    fn decode(line: &str) -> Option<CellRecord> {
        let (body, cksum_str) = line.rsplit_once(' ')?;
        let cksum = u64::from_str_radix(cksum_str, 16).ok()?;
        if cksum_str.len() != 16 || fnv1a(FNV_OFFSET_BASIS, body.as_bytes()) != cksum {
            return None;
        }
        let fields: Vec<&str> = body.split(' ').collect();
        if !matches!(fields.len(), 12 | 13) || fields[0] != "C" {
            return None;
        }
        let key = JobKey(u64::from_str_radix(fields[1], 16).ok()?);
        let workload = fields[2].parse().ok()?;
        let variant = fields[3].parse().ok()?;
        let (status, reason_kind) = match fields[4] {
            "ok" if fields[11] == "-" => {
                // A completed cell never carries a failure class.
                if fields.len() == 13 && fields[12] != "-" {
                    return None;
                }
                (CellStatus::Ok, None)
            }
            "bad" => {
                let kind = match fields.get(12) {
                    Some(s) => ReasonKind::parse(s)?,
                    None => ReasonKind::Panic,
                };
                (CellStatus::Quarantined(fields[11].to_string()), Some(kind))
            }
            _ => return None,
        };
        Some(CellRecord {
            key,
            workload,
            variant,
            status,
            uops: fields[5].parse().ok()?,
            cycles: fields[6].parse().ok()?,
            vp_eligible: fields[7].parse().ok()?,
            vp_predicted: fields[8].parse().ok()?,
            vp_correct: fields[9].parse().ok()?,
            digest: u64::from_str_radix(fields[10], 16).ok()?,
            reason_kind,
        })
    }
}

// ---------------------------------------------------------------------------
// Journal + ledger
// ---------------------------------------------------------------------------

/// What journal replay found on open.
#[derive(Debug, Default)]
pub struct JournalSalvage {
    /// Valid records, in append order (duplicates included; the engine keeps
    /// the first occurrence per key).
    pub records: Vec<CellRecord>,
    /// Bytes truncated off the journal tail (a torn append from a crash).
    pub salvaged_bytes: u64,
}

/// The durable state of one sweep directory: an append-only journal of cell
/// records plus, once complete, the compacted atomic ledger.
#[derive(Debug)]
pub struct SweepLedger {
    dir: PathBuf,
    journal: Mutex<fs::File>,
}

impl SweepLedger {
    /// Opens (creating if needed) the journal inside `dir`, replaying what it
    /// already holds. A torn tail — any suffix starting at the first line
    /// that fails its checksum — is truncated away, never trusted: after a
    /// `kill -9` mid-append the journal heals to its last fully-written
    /// record.
    pub fn open(dir: &Path) -> io::Result<(SweepLedger, JournalSalvage)> {
        let path = dir.join(JOURNAL_FILE);
        let mut salvage = JournalSalvage::default();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // Replay: valid newline-terminated lines up to the first torn or
        // corrupt one; everything after it is unrecoverable tail.
        let mut good = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let parsed = line
                .strip_suffix(b"\n")
                .and_then(|body| std::str::from_utf8(body).ok())
                .and_then(CellRecord::decode);
            match parsed {
                Some(rec) => {
                    salvage.records.push(rec);
                    good += line.len();
                }
                None => break,
            }
        }
        salvage.salvaged_bytes = (bytes.len() - good) as u64;
        let journal = fs::File::options().create(true).append(true).open(&path)?;
        if salvage.salvaged_bytes > 0 {
            journal.set_len(good as u64)?;
        }
        Ok((
            SweepLedger {
                dir: dir.to_path_buf(),
                journal: Mutex::new(journal),
            },
            salvage,
        ))
    }

    /// Appends one record durably: a single `write_all` of one checksummed
    /// line, serialised under the journal lock so concurrent workers never
    /// interleave bytes.
    pub fn append(&self, rec: &CellRecord) -> io::Result<()> {
        let line = format!("{}\n", rec.encode());
        // A worker that panicked while holding the lock poisons it, but the
        // file itself stays sound: each append is one atomic-enough line and
        // torn lines are salvaged on open. Keep journaling for the healthy
        // cells rather than cascading the poison into every later append.
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        journal.write_all(line.as_bytes())
    }

    /// Writes the compacted ledger — header, every record in job order, and a
    /// trailing whole-file checksum — via temporary file + atomic rename.
    /// Called only when every cell is present, so the file is byte-identical
    /// regardless of how many kill/resume cycles produced the records.
    pub fn finalize(&self, fingerprint: u64, records: &[CellRecord]) -> io::Result<PathBuf> {
        let mut out = format!(
            "BBPLEDGER v{SWEEP_FORMAT_VERSION} {fingerprint:016x} {} cells\n",
            records.len()
        );
        for rec in records {
            out.push_str(&rec.encode());
            out.push('\n');
        }
        out.push_str(&format!(
            "END {:016x}\n",
            fnv1a(FNV_OFFSET_BASIS, out.as_bytes())
        ));
        let path = self.ledger_path();
        let tmp = self.dir.join(format!(".tmp-ledger-{}", std::process::id()));
        fs::write(&tmp, &out)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Path of the append-only journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Path the compacted ledger is (or will be) written to.
    pub fn ledger_path(&self) -> PathBuf {
        self.dir.join(LEDGER_FILE)
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Failure-handling policy of one engine run.
#[derive(Debug)]
pub struct SweepOptions {
    /// Attempts per transient-I/O operation (journal appends, ledger writes).
    pub retries: u32,
    /// Backoff before retry `k` is `backoff_ms << k` milliseconds.
    pub backoff_ms: u64,
    /// Stop after this many newly executed cells (used by tests and the CI
    /// smoke to create genuinely partial sweeps; `None` = run to completion).
    pub max_cells: Option<usize>,
    /// Deterministic fault injection for this run's jobs (per-job panics and
    /// stalls). Stall injection needs `cell_timeout`, or the stalled cell
    /// spins until the process is signalled.
    pub faults: Option<FaultPlan>,
    /// Watchdog budget: a running cell whose committed-µop heartbeat does not
    /// advance for this long is cooperatively cancelled and quarantined as
    /// timed out ([`ReasonKind::Timeout`]). `None` disables supervision.
    pub cell_timeout: Option<Duration>,
    /// Intra-cell checkpoint interval in committed µ-ops (0 = off). Each cell
    /// then snapshots its full simulation state to `<dir>/ckpt/<jobkey>` every
    /// interval, and a killed run resumes mid-cell from the last snapshot
    /// (bit-identical final statistics) instead of restarting the cell.
    pub checkpoint_every: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            retries: 3,
            backoff_ms: 1,
            max_cells: None,
            faults: None,
            cell_timeout: None,
            checkpoint_every: 0,
        }
    }
}

/// Retries `op` up to `opts.retries` times with exponential backoff, counting
/// every retry. Transient faults (injected or real) get absorbed here;
/// persistent ones surface as the last error for the caller to degrade on.
fn retry_io<T>(
    opts: &SweepOptions,
    retries: &AtomicU64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt >= opts.retries {
                    return Err(e);
                }
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(
                    opts.backoff_ms << attempt.min(10),
                ));
                attempt += 1;
            }
        }
    }
}

/// The outcome of one engine run over a sweep directory.
#[derive(Debug)]
pub struct SweepReport {
    /// Total cells in the request.
    pub total: usize,
    /// Cells restored from the journal (not re-simulated).
    pub resumed: usize,
    /// Cells newly simulated by this run.
    pub executed: usize,
    /// Completed cells that were simulated again anyway. Structurally zero —
    /// the engine skips every journaled cell — and reported so the invariant
    /// is visible (and asserted) end to end.
    pub resimulated: usize,
    /// `(cell label, failure class, reason)` of every quarantined cell in the
    /// final state.
    pub quarantined: Vec<(String, ReasonKind, String)>,
    /// Cells this run left unrun because SIGINT/SIGTERM arrived mid-sweep;
    /// they are not journaled and re-run on the next resume.
    pub skipped_on_shutdown: usize,
    /// Cells this run resumed mid-simulation from an intra-cell checkpoint.
    pub checkpoint_resumes: u64,
    /// Committed µ-ops those checkpoints carried (work a from-zero restart
    /// would have re-simulated).
    pub checkpoint_resumed_uops: u64,
    /// Transient-I/O retries this run performed (journal appends, ledger
    /// writes).
    pub io_retries: u64,
    /// Journal appends that failed even after retrying: the cells' results
    /// are lost and will re-run on the next resume — counted, not fatal.
    pub ledger_writes_failed: u64,
    /// Bytes of torn journal tail truncated on open.
    pub salvaged_bytes: u64,
    /// Whether every cell is now recorded (quarantined cells count: they are
    /// a terminal outcome, not missing work).
    pub complete: bool,
    /// Path of the compacted ledger, once complete.
    pub ledger_path: Option<PathBuf>,
    /// µ-ops simulated by this run (excludes resumed cells).
    pub simulated_uops: u64,
    /// Every known cell record, in job (ledger) order.
    pub cells: Vec<CellRecord>,
}

impl SweepReport {
    /// The one-line summary the front end prints and CI greps.
    pub fn summary_line(&self) -> String {
        let timed_out = self
            .quarantined
            .iter()
            .filter(|(_, kind, _)| *kind == ReasonKind::Timeout)
            .count();
        format!(
            "resumed {} completed cell(s), newly executed {}, re-simulated {} previously completed cell(s), quarantined {} ({} timed out), skipped {} on shutdown, io retries {}, salvaged {} journal byte(s)",
            self.resumed,
            self.executed,
            self.resimulated,
            self.quarantined.len(),
            timed_out,
            self.skipped_on_shutdown,
            self.io_retries,
            self.salvaged_bytes,
        )
    }

    /// Per-variant geometric-mean speedup over variant 0, computed from the
    /// recorded cycle counts. A workload contributes to a variant's mean only
    /// when both its baseline and variant cells completed; the returned tuple
    /// is `(label, gmean speedup, contributing workloads)`.
    pub fn variant_speedups(&self, req: &SweepRequest) -> Vec<(String, f64, usize)> {
        let w = req.workloads.len();
        let cell = |v: usize, wl: usize| {
            self.cells
                .iter()
                .find(|c| c.variant as usize == v && c.workload as usize == wl)
        };
        (1..req.variants.len())
            .map(|v| {
                let speedups: Vec<f64> = (0..w)
                    .filter_map(|wl| match (cell(0, wl), cell(v, wl)) {
                        (Some(b), Some(c))
                            if b.status == CellStatus::Ok
                                && c.status == CellStatus::Ok
                                && c.cycles > 0 =>
                        {
                            Some(b.cycles as f64 / c.cycles as f64)
                        }
                        _ => None,
                    })
                    .collect();
                (req.variants[v].0.clone(), gmean(&speedups), speedups.len())
            })
            .collect()
    }
}

/// Runs (or resumes) `req` inside `dir`, returning the report. See the module
/// docs for the durability and failure-handling contract; the short version:
///
/// * a fresh directory starts a sweep, an existing one resumes it (a
///   directory holding a *different* sweep is refused via the manifest);
/// * journaled cells are never re-simulated;
/// * the call fails only when the sweep directory itself is unusable —
///   individual cell failures degrade or quarantine instead.
pub fn run_sweep_jobs(
    req: &SweepRequest,
    dir: &Path,
    opts: &SweepOptions,
) -> io::Result<SweepReport> {
    let jobs = req.expand();
    fs::create_dir_all(dir)?;

    // Manifest: written atomically on first run, checked verbatim on resume.
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = req.manifest_line();
    match fs::read_to_string(&manifest_path) {
        Ok(existing) if existing == manifest => {}
        Ok(_) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "sweep directory {} holds a different sweep (manifest mismatch); \
                     refusing to mix results — use a fresh directory",
                    dir.display()
                ),
            ));
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let tmp = dir.join(format!(".tmp-manifest-{}", std::process::id()));
            fs::write(&tmp, &manifest)?;
            if let Err(e) = fs::rename(&tmp, &manifest_path) {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        }
        Err(e) => return Err(e),
    }

    let (ledger, salvage) = SweepLedger::open(dir)?;

    // Replay: keep the first valid record per key; drop records that do not
    // match this request's job set (foreign keys or stale grid positions).
    let by_pos: BTreeMap<u64, &SweepJob> = jobs.iter().map(|j| (j.key.0, j)).collect();
    let mut done: BTreeMap<u64, CellRecord> = BTreeMap::new();
    for rec in salvage.records {
        match by_pos.get(&rec.key.0) {
            Some(job)
                if job.workload as u32 == rec.workload && job.variant as u32 == rec.variant =>
            {
                done.entry(rec.key.0).or_insert(rec);
            }
            _ => {}
        }
    }
    let resumed = done.len();

    let remaining: Vec<&SweepJob> = jobs
        .iter()
        .filter(|j| !done.contains_key(&j.key.0))
        .collect();
    let to_run = match opts.max_cells {
        Some(cap) => &remaining[..cap.min(remaining.len())],
        None => &remaining[..],
    };

    let io_retries = AtomicU64::new(0);
    let ledger_writes_failed = AtomicU64::new(0);

    // Record the traces the cells replay: one recording per workload, shared
    // by reference across its variants.
    let needed: Vec<usize> = to_run
        .iter()
        .map(|j| j.workload)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let buffers: Vec<TraceBuffer> = par::par_map(&needed, |&w| {
        TraceBuffer::record(&req.workloads[w], req.uops)
    });
    let buffer_of: BTreeMap<usize, &TraceBuffer> =
        needed.iter().copied().zip(buffers.iter()).collect();

    // Simulate the remaining cells, panic-isolated and watchdog-supervised,
    // journaling each result as it lands. The fan-out is `par_map`, so any
    // panic escaping the isolation boundary would abort the whole process —
    // the `catch_unwind` below is what keeps one poisoned cell from costing
    // the sweep. Each cell publishes a committed-µop heartbeat through its
    // `RunControl`; the watchdog thread cancels any *started* cell whose
    // heartbeat stops advancing for `cell_timeout`, and the cell journals
    // itself as timed out — distinct from panicked — on the way out.
    let cell_ids: Vec<usize> = (0..to_run.len()).collect();
    let controls: Vec<RunControl> = cell_ids.iter().map(|_| RunControl::new()).collect();
    let started: Vec<AtomicBool> = cell_ids.iter().map(|_| AtomicBool::new(false)).collect();
    let finished: Vec<AtomicBool> = cell_ids.iter().map(|_| AtomicBool::new(false)).collect();
    let watchdog_stop = AtomicBool::new(false);
    let checkpoint_resumes = AtomicU64::new(0);
    let checkpoint_resumed_uops = AtomicU64::new(0);

    let run_cell = |&i: &usize| -> Option<CellRecord> {
        let job = to_run[i];
        started[i].store(true, Ordering::Release);
        let outcome = (|| -> Option<Result<SimStats, (ReasonKind, String)>> {
            // A termination signal mid-sweep: leave the cell unjournaled so
            // the next resume re-runs it — an orderly shrink, not a failure.
            if shutdown_requested() {
                return None;
            }
            let faults = opts.faults.as_ref();
            if faults.is_some_and(|f| f.should_panic(job.index)) {
                let caught = std::panic::catch_unwind(|| -> SimStats {
                    // INVARIANT: deliberate — this exercises the quarantine
                    // path; the panic is caught on the line above.
                    panic!("injected fault-plan panic in job {}", job.index)
                });
                return Some(caught.map_err(|p| (ReasonKind::Panic, panic_reason(p))));
            }
            if faults.is_some_and(|f| f.should_stall(job.index)) {
                // The injected stall never touches the heartbeat, exactly
                // like a simulator loop that stopped committing: the only
                // ways out are the watchdog's cancellation or a signal.
                loop {
                    if controls[i].cancelled() {
                        return Some(Err((ReasonKind::Timeout, "timed_out".to_string())));
                    }
                    if shutdown_requested() {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let (_, pipeline, predictor) = &req.variants[job.variant];
            // Intra-cell checkpoints live next to the journal, keyed by the
            // cell's content address: a `kill -9` mid-cell resumes from the
            // last snapshot, and a completed cell's snapshot is deleted by
            // the run itself.
            let ckpt_path = (opts.checkpoint_every > 0)
                .then(|| dir.join("ckpt").join(format!("{:016x}.bbpckpt", job.key.0)));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Run {
                    checkpoint_path: ckpt_path.as_deref(),
                    checkpoint_every: opts.checkpoint_every,
                    control: Some(&controls[i]),
                    react_to_signals: true,
                    ..Run::new(
                        UopSource::Replay(buffer_of[&job.workload]),
                        pipeline,
                        predictor,
                        req.uops,
                    )
                }
                .execute()
                // INVARIANT: sweep cells replay whole recordings, never
                // slices, so checkpointing is never refused.
                .expect("whole-recording runs accept a checkpoint path")
            }));
            match caught {
                Err(p) => Some(Err((ReasonKind::Panic, panic_reason(p)))),
                Ok(run) => {
                    if let Some(why) = &run.rejected_checkpoint {
                        eprintln!(
                            "[sweep] discarded stale checkpoint for {}: {why} (restarting the cell from zero)",
                            req.cell_label(job.workload, job.variant)
                        );
                    }
                    if let Some(from) = run.resumed_from {
                        checkpoint_resumes.fetch_add(1, Ordering::Relaxed);
                        checkpoint_resumed_uops.fetch_add(from, Ordering::Relaxed);
                        eprintln!(
                            "[sweep] resumed {} from checkpoint at {from} committed µ-ops",
                            req.cell_label(job.workload, job.variant)
                        );
                    }
                    match run.outcome {
                        RunOutcome::Complete(stats) => Some(Ok(stats)),
                        RunOutcome::Cancelled { .. } => {
                            // A terminal quarantine orphans the cell's
                            // snapshot: drop it with the cell.
                            if let Some(p) = &ckpt_path {
                                bebop::SimCheckpoint::discard(p);
                            }
                            Some(Err((ReasonKind::Timeout, "timed_out".to_string())))
                        }
                        RunOutcome::Interrupted { .. } => None,
                    }
                }
            }
        })();
        finished[i].store(true, Ordering::Release);
        let rec = match outcome? {
            Ok(stats) => CellRecord::from_stats(job, &stats),
            Err((kind, reason)) => {
                eprintln!(
                    "[sweep] quarantining {}: {}: {reason}",
                    req.cell_label(job.workload, job.variant),
                    kind.as_str(),
                );
                CellRecord::quarantined(job, kind, &reason)
            }
        };
        if let Err(e) = retry_io(opts, &io_retries, || ledger.append(&rec)) {
            ledger_writes_failed.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[sweep] journal append failed for {}: {e} (the cell will re-run on resume)",
                req.cell_label(job.workload, job.variant)
            );
        }
        Some(rec)
    };

    let cell_outcomes: Vec<Option<CellRecord>> = std::thread::scope(|scope| {
        if let Some(timeout) = opts.cell_timeout {
            // `timeout` is a per-iteration local, so the thread takes a
            // `move` closure; everything shared moves in as a reference.
            let (controls, started, finished) = (&controls, &started, &finished);
            let (watchdog_stop, to_run) = (&watchdog_stop, &to_run);
            scope.spawn(move || {
                // Scan at a fraction of the budget so a stall is caught within
                // ~1.25× the timeout. Cells are tracked from the first scan
                // that sees them *started* — a cell still queued behind the
                // worker pool must not burn its budget waiting for a slot.
                let poll = (timeout / 4).max(Duration::from_millis(2));
                let mut last: Vec<Option<(u64, Instant)>> = vec![None; to_run.len()];
                while !watchdog_stop.load(Ordering::Acquire) {
                    std::thread::sleep(poll);
                    let now = Instant::now();
                    for i in 0..to_run.len() {
                        if !started[i].load(Ordering::Acquire)
                            || finished[i].load(Ordering::Acquire)
                            || controls[i].cancelled()
                        {
                            continue;
                        }
                        let beat = controls[i].committed();
                        match last[i] {
                            Some((prev, since)) if beat == prev => {
                                if now.duration_since(since) >= timeout {
                                    let job = to_run[i];
                                    eprintln!(
                                        "[sweep] watchdog: no progress from {} for {:?}, cancelling",
                                        req.cell_label(job.workload, job.variant),
                                        timeout
                                    );
                                    controls[i].request_cancel();
                                }
                            }
                            _ => last[i] = Some((beat, now)),
                        }
                    }
                }
            });
        }
        let outcomes = par::par_map(&cell_ids, run_cell);
        watchdog_stop.store(true, Ordering::Release);
        outcomes
    });
    let skipped_on_shutdown = cell_outcomes.iter().filter(|r| r.is_none()).count();
    let new_records: Vec<CellRecord> = cell_outcomes.into_iter().flatten().collect();
    let executed = new_records.len();
    let simulated_uops = new_records
        .iter()
        .filter(|r| r.status == CellStatus::Ok)
        .map(|r| r.uops)
        .sum();
    for rec in new_records {
        done.insert(rec.key.0, rec);
    }

    let complete = done.len() == jobs.len();
    let cells: Vec<CellRecord> = jobs
        .iter()
        .filter_map(|j| done.get(&j.key.0).cloned())
        .collect();
    let quarantined: Vec<(String, ReasonKind, String)> = cells
        .iter()
        .filter_map(|c| match &c.status {
            CellStatus::Quarantined(reason) => Some((
                req.cell_label(c.workload as usize, c.variant as usize),
                c.reason_kind.unwrap_or(ReasonKind::Panic),
                reason.clone(),
            )),
            CellStatus::Ok => None,
        })
        .collect();
    let ledger_path = if complete {
        Some(retry_io(opts, &io_retries, || {
            ledger.finalize(req.fingerprint(), &cells)
        })?)
    } else {
        None
    };

    Ok(SweepReport {
        total: jobs.len(),
        resumed,
        executed,
        resimulated: 0, // structural: journaled cells are filtered out above
        quarantined,
        skipped_on_shutdown,
        checkpoint_resumes: checkpoint_resumes.load(Ordering::Relaxed),
        checkpoint_resumed_uops: checkpoint_resumed_uops.load(Ordering::Relaxed),
        io_retries: io_retries.load(Ordering::Relaxed),
        ledger_writes_failed: ledger_writes_failed.load(Ordering::Relaxed),
        salvaged_bytes: salvage.salvaged_bytes,
        complete,
        ledger_path,
        simulated_uops,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(index: u64) -> SweepJob {
        SweepJob {
            index,
            key: JobKey(0x1234_5678_9abc_def0 ^ index),
            workload: (index % 3) as usize,
            variant: (index / 3) as usize,
        }
    }

    #[test]
    fn cell_record_round_trips_through_its_line_format() {
        let stats = SimStats {
            uops: 1_000,
            cycles: 420,
            ..Default::default()
        };
        let ok = CellRecord::from_stats(&job(4), &stats);
        assert_eq!(CellRecord::decode(&ok.encode()), Some(ok.clone()));

        for kind in [ReasonKind::Panic, ReasonKind::Timeout, ReasonKind::Io] {
            let bad = CellRecord::quarantined(&job(5), kind, "index out of bounds: the len is 4");
            let decoded = CellRecord::decode(&bad.encode()).expect("round trip");
            assert_eq!(decoded, bad);
            assert!(matches!(decoded.status, CellStatus::Quarantined(_)));
            assert_eq!(decoded.reason_kind, Some(kind));
        }
    }

    #[test]
    fn legacy_12_field_lines_decode_as_panic_quarantines() {
        // A quarantine line exactly as the pre-`reason_kind` engine wrote it:
        // 12 fields, checksum last. It must decode — resumes over old
        // journals are lossless — and classify as a panic, the only failure
        // class that engine could record.
        let body = "C 0123456789abcdef 1 2 bad 0 0 0 0 0 0000000000000000 boom";
        let line = format!("{body} {:016x}", fnv1a(FNV_OFFSET_BASIS, body.as_bytes()));
        let rec = CellRecord::decode(&line).expect("legacy line must decode");
        assert_eq!(rec.status, CellStatus::Quarantined("boom".to_string()));
        assert_eq!(rec.reason_kind, Some(ReasonKind::Panic));

        // Same vintage, completed cell: no failure class.
        let body = "C 0123456789abcdef 1 2 ok 10 20 3 2 1 00000000deadbeef -";
        let line = format!("{body} {:016x}", fnv1a(FNV_OFFSET_BASIS, body.as_bytes()));
        let rec = CellRecord::decode(&line).expect("legacy ok line must decode");
        assert_eq!(rec.status, CellStatus::Ok);
        assert_eq!(rec.reason_kind, None);

        // A completed cell claiming a failure class is malformed.
        let body = "C 0123456789abcdef 1 2 ok 10 20 3 2 1 00000000deadbeef - panic";
        let line = format!("{body} {:016x}", fnv1a(FNV_OFFSET_BASIS, body.as_bytes()));
        assert_eq!(CellRecord::decode(&line), None);
    }

    #[test]
    fn mangled_lines_are_rejected() {
        let rec = CellRecord::from_stats(&job(1), &SimStats::default());
        let line = rec.encode();
        // Any single-character mutation must fail the line checksum (or the
        // field grammar) — this is what makes torn-tail salvage sound.
        for at in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
            let mangled = String::from_utf8(bytes).unwrap();
            if mangled != line {
                assert_eq!(CellRecord::decode(&mangled), None, "mutation at {at}");
            }
        }
        // And so must every strict prefix (a torn append).
        for cut in 0..line.len() {
            assert_eq!(CellRecord::decode(&line[..cut]), None, "prefix {cut}");
        }
    }

    #[test]
    fn job_keys_are_content_addressed() {
        let specs = vec![
            WorkloadSpec::named_demo("jk-a"),
            WorkloadSpec::named_demo("jk-b"),
        ];
        let pipe = PipelineConfig::baseline_vp_6_60();
        let req = SweepRequest {
            name: "jk".to_string(),
            workloads: specs.clone(),
            variants: vec![
                ("base".to_string(), pipe.clone(), PredictorKind::DVtage),
                (
                    "blk".to_string(),
                    pipe.clone(),
                    PredictorKind::BlockDVtage(configs::small_4p()),
                ),
            ],
            uops: 5_000,
        };
        let jobs = req.expand();
        assert_eq!(jobs.len(), 4);
        let keys: BTreeSet<u64> = jobs.iter().map(|j| j.key.0).collect();
        assert_eq!(keys.len(), 4, "every cell must have a distinct key");
        // Identity is stable across re-expansion…
        assert_eq!(jobs, req.expand());
        // …and sensitive to the budget, the workload and the variant config.
        let mut other = SweepRequest { uops: 5_001, ..req };
        assert_ne!(jobs[0].key, other.expand()[0].key);
        other.uops = 5_000;
        other.variants[1].2 = PredictorKind::BlockDVtage(configs::medium());
        assert_eq!(jobs[0].key, other.expand()[0].key, "variant 0 unchanged");
        assert_ne!(jobs[2].key, other.expand()[2].key, "variant 1 changed");
    }

    #[test]
    fn journal_salvages_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("bebop-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let recs: Vec<CellRecord> = (0..3)
            .map(|i| CellRecord::from_stats(&job(i), &SimStats::default()))
            .collect();
        {
            let (ledger, salvage) = SweepLedger::open(&dir).unwrap();
            assert_eq!(salvage.records.len(), 0);
            for r in &recs {
                ledger.append(r).unwrap();
            }
        }
        // Tear the last append: drop some of its tail bytes.
        let path = dir.join(JOURNAL_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let (ledger, salvage) = SweepLedger::open(&dir).unwrap();
        assert_eq!(salvage.records, recs[..2].to_vec());
        assert!(salvage.salvaged_bytes > 0);
        // The torn tail is physically truncated, so a new append produces a
        // journal whose every line is valid again.
        ledger.append(&recs[2]).unwrap();
        drop(ledger);
        let (_, salvage) = SweepLedger::open(&dir).unwrap();
        assert_eq!(salvage.records, recs);
        assert_eq!(salvage.salvaged_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
