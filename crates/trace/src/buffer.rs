//! Replayable packed trace buffers.
//!
//! The figure sweeps of the evaluation simulate dozens of predictor
//! configurations over the *same* dynamic µ-op stream. Regenerating the stream
//! with [`TraceGenerator`] for every configuration pays the generator cost
//! (pattern sampling, RNG draws, hash-map walks) once per run; a [`TraceBuffer`]
//! pays it once per workload and lets every configuration — and every worker
//! thread — replay the identical stream from shared memory.
//!
//! The buffer is a structure-of-arrays recording: one flat `Vec` lane per
//! [`DynUop`] field group (pc, static µ-op, produced value, packed per-µop
//! metadata) plus *sparse* lanes for memory addresses and branch targets, which
//! only memory/branch µ-ops consume. There is no per-µop allocation and no
//! `Option` padding in the hot lanes, so a 200K-µop trace costs a few megabytes
//! (see [`TraceBuffer::footprint_bytes`]) and replay is a linear scan.
//!
//! Replay is zero-copy: [`TraceCursor`] borrows the buffer and materialises each
//! [`DynUop`] from the lanes on the fly, yielding a stream that is bit-identical
//! to live generation (asserted by the `replay_*` tests here and the
//! `integration_replay` suite).

use crate::fingerprint::{FnvHasher, FNV_OFFSET_BASIS};
use crate::generator::TraceGenerator;
use crate::workload::WorkloadSpec;
use bebop_isa::{BranchKind, DynUop, MemAccess, Uop};
use std::hash::{Hash, Hasher};

/// Packed per-µop metadata lane layout (one `u32` per µ-op).
pub(crate) mod meta {
    /// Bits 0..8: macro-instruction byte length.
    pub const INST_LEN_SHIFT: u32 = 0;
    /// Bits 8..16: µ-op index within the macro-instruction.
    pub const UOP_IDX_SHIFT: u32 = 8;
    /// Bits 16..24: µ-op count of the macro-instruction.
    pub const NUM_UOPS_SHIFT: u32 = 16;
    /// Bit 24: µ-op has a memory access (consumes the sparse mem lanes).
    pub const HAS_MEM: u32 = 1 << 24;
    /// Bit 25: µ-op has a branch outcome (consumes the sparse branch lane).
    pub const HAS_BRANCH: u32 = 1 << 25;
    /// Bits 26..29: branch kind (see `encode_kind`).
    pub const BRANCH_KIND_SHIFT: u32 = 26;
    /// Bit 29: branch taken.
    pub const BRANCH_TAKEN: u32 = 1 << 29;
    /// Bit 30: the immediate is available at decode.
    pub const IMM_AT_DECODE: u32 = 1 << 30;
    /// Bit 31: µ-op lies on the wrong path of a mispredicted branch.
    pub const WRONG_PATH: u32 = 1 << 31;
}

fn encode_kind(kind: BranchKind) -> u32 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

fn decode_kind(bits: u32) -> BranchKind {
    match bits {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        _ => BranchKind::Indirect,
    }
}

/// A packed structure-of-arrays recording of a dynamic µ-op stream.
///
/// # Example
///
/// ```
/// use bebop_trace::{TraceBuffer, TraceGenerator, WorkloadSpec};
/// let spec = WorkloadSpec::named_demo("replay");
/// let buf = TraceBuffer::record(&spec, 1_000);
/// let live: Vec<_> = TraceGenerator::new(&spec).take(1_000).collect();
/// let replayed: Vec<_> = buf.replay().collect();
/// assert_eq!(live, replayed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    /// PC of each µ-op's macro-instruction.
    pc: Vec<u64>,
    /// The static µ-op (kind, destination, sources).
    uop: Vec<Uop>,
    /// Architectural value produced.
    value: Vec<u64>,
    /// Packed lengths/indices/flags (see the `meta` module).
    meta: Vec<u32>,
    /// Effective addresses, one per µ-op with `meta::HAS_MEM`, in stream order.
    mem_addr: Vec<u64>,
    /// Access sizes, parallel to `mem_addr`.
    mem_size: Vec<u8>,
    /// Branch targets, one per µ-op with `meta::HAS_BRANCH`, in stream order.
    br_target: Vec<u64>,
    /// Per-µop context tags for multi-programmed (mix) recordings. Either one
    /// entry per µ-op, or — the overwhelmingly common single-context case —
    /// empty, meaning "every µ-op carries ASID 0": recordings of plain
    /// workloads pay zero bytes for the lane.
    asid: Vec<u8>,
    /// Number of recorded µ-ops carrying `meta::WRONG_PATH` (cached so the
    /// committed-µ-op count is O(1) rather than a meta-lane scan).
    wrong_path_count: usize,
}

impl TraceBuffer {
    /// An empty buffer with room for `n` µ-ops in the dense lanes.
    pub fn with_capacity(n: usize) -> Self {
        TraceBuffer {
            pc: Vec::with_capacity(n),
            uop: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
            // Sparse lanes grow on demand; memory/branch density is workload
            // dependent (~10-35% of µ-ops each for the SPEC-like mixes).
            mem_addr: Vec::new(),
            mem_size: Vec::new(),
            br_target: Vec::new(),
            asid: Vec::new(),
            wrong_path_count: 0,
        }
    }

    /// Records a live generation of `spec` covering `n` *committed* µ-ops.
    ///
    /// The budget counts correct-path µ-ops only: wrong-path burst µ-ops
    /// (emitted by specs with [`crate::WrongPathProfile`] enabled) ride along
    /// in the recording without consuming budget, so a recording of `n`
    /// always covers a pipeline run committing `n` µ-ops — the same contract
    /// as [`TraceBuffer::committed_len`]. For wrong-path-free specs this is
    /// exactly "the first `n` µ-ops" as before.
    ///
    /// The recorded stream starts at sequence number 0, so replay can derive
    /// sequence numbers from lane indices instead of storing them.
    ///
    /// The µ-op budget is counted in `u64` (not truncated through
    /// `Iterator::take(n as usize)`), so it is never *silently* shortened on
    /// 32-bit targets: a budget past the address space fails to allocate
    /// loudly instead of recording a 32-bit-wrapped fraction of it. The lanes
    /// are shrunk to their exact lengths at the end so
    /// [`TraceBuffer::footprint_bytes`] reports what the recording actually
    /// occupies rather than doubled-growth capacities.
    ///
    /// # Panics
    ///
    /// Panics if the generator ends before `n` µ-ops were recorded (the
    /// synthetic generators are unbounded, so this indicates a logic error).
    pub fn record(spec: &WorkloadSpec, n: u64) -> Self {
        Self::record_stream(TraceGenerator::new(spec), n)
    }

    /// Records `n` committed µ-ops from an arbitrary unbounded µ-op stream —
    /// the generalisation of [`TraceBuffer::record`] that multi-programmed
    /// mixes ([`crate::MixSpec::record`]) record through. The same budget
    /// contract applies: wrong-path µ-ops ride along for free.
    ///
    /// # Panics
    ///
    /// Panics if the stream ends before `n` committed µ-ops were recorded.
    pub fn record_stream(stream: impl Iterator<Item = DynUop>, n: u64) -> Self {
        // Capacity is only a hint: when `n` overflows usize (32-bit targets)
        // start small and let the lanes grow until allocation fails loudly.
        let mut buf = TraceBuffer::with_capacity(usize::try_from(n).unwrap_or(0));
        let mut stream = stream;
        let mut committed: u64 = 0;
        while committed < n {
            let u = stream
                .next()
                // INVARIANT: callers pass unbounded generators (or streams
                // pre-sized to the budget); ending early is a caller bug.
                .expect("µ-op stream ended before the recording budget was honoured");
            buf.push(&u);
            if !u.wrong_path {
                committed += 1;
            }
        }
        assert_eq!(committed, n, "recording budget not honoured");
        buf.shrink_to_fit();
        buf
    }

    /// Shrinks every lane to its exact length.
    ///
    /// The sparse `mem_addr`/`mem_size`/`br_target` lanes grow by doubling
    /// during recording, so their capacity can exceed their length by up to
    /// 2×; callers that size caches from [`TraceBuffer::footprint_bytes`]
    /// (e.g. the `--trace-cache-mb` cap math) need the exact number.
    pub fn shrink_to_fit(&mut self) {
        self.pc.shrink_to_fit();
        self.uop.shrink_to_fit();
        self.value.shrink_to_fit();
        self.meta.shrink_to_fit();
        self.mem_addr.shrink_to_fit();
        self.mem_size.shrink_to_fit();
        self.br_target.shrink_to_fit();
        self.asid.shrink_to_fit();
    }

    /// A lower bound on the heap footprint of an `n`-µop recording: the dense
    /// lanes alone, before any sparse memory/branch entries. Useful as a cheap
    /// "can this possibly fit?" estimate before paying for a recording.
    pub fn dense_estimate_bytes(n: u64) -> u64 {
        n * (std::mem::size_of::<u64>()      // pc
            + std::mem::size_of::<Uop>()     // uop
            + std::mem::size_of::<u64>()     // value
            + std::mem::size_of::<u32>())    // meta
            as u64
    }

    /// Appends one µ-op to the recording.
    ///
    /// # Panics
    ///
    /// Panics if `u.seq` is not the next sequence number of the recording
    /// (replay regenerates `seq` from the lane index, so gaps would make the
    /// replayed stream diverge from the recorded one).
    pub fn push(&mut self, u: &DynUop) {
        assert_eq!(
            u.seq,
            self.pc.len() as u64,
            "trace recordings must be contiguous from seq 0"
        );
        let mut m = (u32::from(u.inst_len) << meta::INST_LEN_SHIFT)
            | (u32::from(u.uop_idx) << meta::UOP_IDX_SHIFT)
            | (u32::from(u.inst_num_uops) << meta::NUM_UOPS_SHIFT);
        if u.imm_available_at_decode {
            m |= meta::IMM_AT_DECODE;
        }
        if u.wrong_path {
            m |= meta::WRONG_PATH;
            self.wrong_path_count += 1;
        }
        if let Some(mem) = u.mem {
            m |= meta::HAS_MEM;
            self.mem_addr.push(mem.addr);
            self.mem_size.push(mem.size);
        }
        if let Some(b) = u.branch {
            m |= meta::HAS_BRANCH | (encode_kind(b.kind) << meta::BRANCH_KIND_SHIFT);
            if b.taken {
                m |= meta::BRANCH_TAKEN;
            }
            self.br_target.push(b.target);
        }
        // The ASID lane stays empty (implicitly all-zero) until the first
        // non-zero tag, then is backfilled and kept dense: single-context
        // recordings pay nothing, mixes pay one byte per µ-op.
        if u.asid != 0 && self.asid.is_empty() {
            self.asid = vec![0; self.pc.len()];
        }
        if !self.asid.is_empty() || u.asid != 0 {
            self.asid.push(u.asid);
        }
        self.pc.push(u.pc);
        self.uop.push(u.uop);
        self.value.push(u.value);
        self.meta.push(m);
    }

    /// Number of recorded µ-ops (wrong-path µ-ops included).
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Number of recorded *committed* (correct-path) µ-ops: the count a
    /// pipeline run over this recording can commit, and the budget
    /// [`TraceBuffer::record`] honours.
    pub fn committed_len(&self) -> usize {
        self.pc.len() - self.wrong_path_count
    }

    /// Number of recorded wrong-path µ-ops (0 unless the workload was
    /// specified with a [`crate::WrongPathProfile`]).
    pub fn wrong_path_len(&self) -> usize {
        self.wrong_path_count
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Heap footprint of the recording in bytes (lane capacities).
    ///
    /// [`TraceBuffer::record`] shrinks every lane on completion, so for
    /// recorded buffers this is the exact lane-length sum; for buffers still
    /// being pushed to it includes the doubling-growth slack of the sparse
    /// lanes (call [`TraceBuffer::shrink_to_fit`] to drop it).
    pub fn footprint_bytes(&self) -> usize {
        self.pc.capacity() * std::mem::size_of::<u64>()
            + self.uop.capacity() * std::mem::size_of::<Uop>()
            + self.value.capacity() * std::mem::size_of::<u64>()
            + self.meta.capacity() * std::mem::size_of::<u32>()
            + self.mem_addr.capacity() * std::mem::size_of::<u64>()
            + self.mem_size.capacity()
            + self.br_target.capacity() * std::mem::size_of::<u64>()
            + self.asid.capacity()
    }

    /// Raw lane views, in recording order
    /// `(pc, uop, value, meta, mem_addr, mem_size, br_target, asid)`. The
    /// ASID lane is either empty (single-context recording, every µ-op is
    /// ASID 0) or one entry per µ-op.
    #[allow(clippy::type_complexity)]
    pub(crate) fn lanes(&self) -> (&[u64], &[Uop], &[u64], &[u32], &[u64], &[u8], &[u64], &[u8]) {
        (
            &self.pc,
            &self.uop,
            &self.value,
            &self.meta,
            &self.mem_addr,
            &self.mem_size,
            &self.br_target,
            &self.asid,
        )
    }

    /// A zero-copy cursor replaying the recording from the start. Any number of
    /// cursors (on any number of threads) can replay one shared buffer.
    pub fn replay(&self) -> TraceCursor<'_> {
        TraceCursor {
            buf: self,
            i: 0,
            end: self.pc.len(),
            mem_i: 0,
            br_i: 0,
        }
    }

    /// A hash of every lane of the recording: two recordings share it only
    /// if they replay the same stream. Binds a checkpoint of a replayed run
    /// to its recording; one pass over the lanes, so it is computed only
    /// when a checkpoint is.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = FnvHasher(FNV_OFFSET_BASIS);
        (&self.pc, &self.uop, &self.value, &self.meta).hash(&mut h);
        (&self.mem_addr, &self.mem_size, &self.br_target, &self.asid).hash(&mut h);
        h.finish()
    }

    /// A zero-copy cursor replaying only the sub-range `start..end` of the
    /// recording (lane indices, wrong-path µ-ops included) — the replay
    /// primitive behind phase-sampled simulation, where each representative
    /// slice is simulated in isolation.
    ///
    /// The cursor yields µ-ops bit-identical to what a full replay yields over
    /// the same positions: sequence numbers keep their absolute lane indices
    /// and the sparse memory/branch lanes are entered at the correct offsets
    /// (computed by one metadata prefix scan, paid once per cursor).
    ///
    /// Invalid ranges are rejected with a structured [`RangeError`] instead of
    /// panicking: out-of-bounds or inverted bounds, empty ranges, and ranges
    /// whose first µ-op lies on the wrong path of a mispredicted branch — a
    /// slice must never start inside a wrong-path burst, because the burst
    /// belongs to the slice that contains its mispredicted branch.
    pub fn replay_range(&self, start: usize, end: usize) -> Result<TraceCursor<'_>, RangeError> {
        let len = self.pc.len();
        if start > len || end > len || start > end {
            return Err(RangeError::OutOfBounds { start, end, len });
        }
        if start == end {
            return Err(RangeError::Empty { start });
        }
        if self.meta[start] & meta::WRONG_PATH != 0 {
            return Err(RangeError::WrongPathStart { start });
        }
        // Enter the sparse lanes at the offsets the skipped prefix consumed.
        let mut mem_i = 0;
        let mut br_i = 0;
        for &m in &self.meta[..start] {
            mem_i += usize::from(m & meta::HAS_MEM != 0);
            br_i += usize::from(m & meta::HAS_BRANCH != 0);
        }
        Ok(TraceCursor {
            buf: self,
            i: start,
            end,
            mem_i,
            br_i,
        })
    }

    /// The lane index at most `warmup` *committed* µ-ops before `start`, and
    /// the committed µ-op count actually covered — clamped at the recording
    /// start, so early slices get whatever warm-up prefix exists.
    ///
    /// The returned index is always itself a committed µ-op (or `start`
    /// unchanged when `warmup` is 0), making `warmup_start(s, w).0 .. end` a
    /// valid [`TraceBuffer::replay_range`] window whenever `s..end` is one:
    /// this is how a slice run widens its replay window to include warm-up.
    pub fn warmup_start(&self, start: usize, warmup: u64) -> (usize, u64) {
        let mut committed = 0u64;
        let mut pos = start.min(self.meta.len());
        let mut i = pos;
        while i > 0 && committed < warmup {
            i -= 1;
            if self.meta[i] & meta::WRONG_PATH == 0 {
                committed += 1;
                pos = i;
            }
        }
        (pos, committed)
    }
}

/// Why a requested replay sub-range was rejected by
/// [`TraceBuffer::replay_range`].
///
/// These are caller errors a sampler can hit with untrusted slice tables
/// (e.g. stale phase metadata against a re-recorded trace), so they surface
/// as structured values rather than panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeError {
    /// The bounds are inverted or extend past the recording.
    OutOfBounds {
        /// Requested first lane index.
        start: usize,
        /// Requested one-past-last lane index.
        end: usize,
        /// Number of recorded µ-ops.
        len: usize,
    },
    /// The range covers zero µ-ops.
    Empty {
        /// The (equal) start and end lane index.
        start: usize,
    },
    /// The first µ-op of the range lies on the wrong path of a mispredicted
    /// branch: the slice boundary straddles a wrong-path burst.
    WrongPathStart {
        /// Requested first lane index.
        start: usize,
    },
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeError::OutOfBounds { start, end, len } => write!(
                f,
                "replay range {start}..{end} out of bounds for a {len}-µop recording"
            ),
            RangeError::Empty { start } => {
                write!(f, "replay range {start}..{start} covers no µ-ops")
            }
            RangeError::WrongPathStart { start } => write!(
                f,
                "replay range starts at {start}, inside a wrong-path burst"
            ),
        }
    }
}

impl std::error::Error for RangeError {}

/// A sequential replay cursor over a [`TraceBuffer`].
///
/// Yields µ-ops bit-identical to the live generation the buffer recorded. The
/// sparse memory/branch lanes are consumed with their own cursors, so each
/// `next` is O(1) with no searching.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    buf: &'a TraceBuffer,
    i: usize,
    end: usize,
    mem_i: usize,
    br_i: usize,
}

impl Iterator for TraceCursor<'_> {
    type Item = DynUop;

    fn next(&mut self) -> Option<DynUop> {
        let b = self.buf;
        let i = self.i;
        if i >= self.end {
            return None;
        }
        self.i += 1;
        let m = b.meta[i];
        let mut u = DynUop::new(
            i as u64,
            b.pc[i],
            // CAST: each meta field is an 8-bit-packed lane (shift + u8).
            (m >> meta::INST_LEN_SHIFT) as u8,
            (m >> meta::UOP_IDX_SHIFT) as u8,
            (m >> meta::NUM_UOPS_SHIFT) as u8,
            b.uop[i],
            b.value[i],
        );
        // `DynUop::new` derives this from the µ-op kind; restore the recorded
        // bit so replay is faithful even for hand-built streams.
        u.imm_available_at_decode = m & meta::IMM_AT_DECODE != 0;
        u.wrong_path = m & meta::WRONG_PATH != 0;
        // An absent ASID lane means a single-context recording: every µ-op
        // keeps the default ASID 0.
        if let Some(&asid) = b.asid.get(i) {
            u.asid = asid;
        }
        if m & meta::HAS_MEM != 0 {
            u.mem = Some(MemAccess {
                addr: b.mem_addr[self.mem_i],
                size: b.mem_size[self.mem_i],
            });
            self.mem_i += 1;
        }
        if m & meta::HAS_BRANCH != 0 {
            u = u.with_branch(
                decode_kind((m >> meta::BRANCH_KIND_SHIFT) & 0x7),
                m & meta::BRANCH_TAKEN != 0,
                b.br_target[self.br_i],
            );
            self.br_i += 1;
        }
        Some(u)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TraceCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop_isa::{ArchReg, UopKind};

    fn specs() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::named_demo("buf-demo"),
            WorkloadSpec::new("buf-mixed", 99),
        ]
    }

    #[test]
    fn replay_is_bit_identical_to_live_generation() {
        for spec in specs() {
            let live: Vec<_> = TraceGenerator::new(&spec).take(20_000).collect();
            let buf = TraceBuffer::record(&spec, 20_000);
            assert_eq!(buf.len(), 20_000);
            let replayed: Vec<_> = buf.replay().collect();
            assert_eq!(live, replayed, "replay diverged for {}", spec.name);
        }
    }

    #[test]
    fn multiple_cursors_replay_independently() {
        let buf = TraceBuffer::record(&WorkloadSpec::named_demo("multi"), 5_000);
        let a: Vec<_> = buf.replay().collect();
        let mut c1 = buf.replay();
        let mut c2 = buf.replay();
        let _ = c1.by_ref().take(100).count();
        let b: Vec<_> = c2.by_ref().collect();
        assert_eq!(a, b);
        // The partially consumed cursor continues from where it stopped.
        assert_eq!(c1.next().unwrap(), a[100]);
    }

    #[test]
    fn sparse_lanes_only_hold_mem_and_branch_uops() {
        let spec = WorkloadSpec::new("sparse", 7);
        let buf = TraceBuffer::record(&spec, 10_000);
        let live: Vec<_> = TraceGenerator::new(&spec).take(10_000).collect();
        let mems = live.iter().filter(|u| u.mem.is_some()).count();
        let brs = live.iter().filter(|u| u.branch.is_some()).count();
        assert_eq!(buf.mem_addr.len(), mems);
        assert_eq!(buf.mem_size.len(), mems);
        assert_eq!(buf.br_target.len(), brs);
        assert!(mems > 0 && brs > 0);
    }

    #[test]
    fn footprint_is_reported_and_bounded() {
        let buf = TraceBuffer::record(&WorkloadSpec::named_demo("foot"), 10_000);
        let bytes = buf.footprint_bytes();
        // Dense lanes alone are 20 bytes + sizeof(Uop) per µ-op; the whole
        // recording must stay well under a naive Vec<DynUop>.
        let dense_min = 10_000 * (20 + std::mem::size_of::<Uop>());
        let aos = 10_000 * std::mem::size_of::<DynUop>() * 2;
        assert!(bytes >= dense_min, "footprint {bytes} under dense minimum");
        assert!(bytes < aos, "footprint {bytes} not better than 2x AoS");
    }

    #[test]
    fn recorded_footprint_is_the_exact_lane_length_sum() {
        // The sparse lanes grow by doubling; `record` must shrink them so the
        // `--trace-cache-mb` cap math does not over-estimate per-trace cost by
        // up to 2x and cache fewer workloads than fit.
        for spec in specs() {
            let buf = TraceBuffer::record(&spec, 10_000);
            let exact = buf.pc.len() * std::mem::size_of::<u64>()
                + buf.uop.len() * std::mem::size_of::<Uop>()
                + buf.value.len() * std::mem::size_of::<u64>()
                + buf.meta.len() * std::mem::size_of::<u32>()
                + buf.mem_addr.len() * std::mem::size_of::<u64>()
                + buf.mem_size.len()
                + buf.br_target.len() * std::mem::size_of::<u64>()
                + buf.asid.len();
            assert_eq!(
                buf.footprint_bytes(),
                exact,
                "footprint not exact after recording {}",
                spec.name
            );
            assert!(buf.footprint_bytes() as u64 >= TraceBuffer::dense_estimate_bytes(10_000));
        }
    }

    #[test]
    fn exact_size_cursor() {
        let buf = TraceBuffer::record(&WorkloadSpec::named_demo("len"), 1_234);
        let mut c = buf.replay();
        assert_eq!(c.len(), 1_234);
        c.next();
        assert_eq!(c.len(), 1_233);
    }

    #[test]
    fn imm_at_decode_flag_round_trips() {
        // A hand-built stream whose flag disagrees with what `DynUop::new`
        // would derive must still replay bit-identically.
        let mut buf = TraceBuffer::default();
        let li = Uop::new(UopKind::LoadImm, Some(ArchReg::int(1)), &[]);
        let mut u = DynUop::new(0, 0x100, 4, 0, 1, li, 7);
        u.imm_available_at_decode = false;
        buf.push(&u);
        assert_eq!(buf.replay().next().unwrap(), u);
    }

    #[test]
    fn wrong_path_traces_replay_bit_identically_and_count_committed() {
        let spec = WorkloadSpec::new("buf-wp", 11).with_wrong_path(6);
        let buf = TraceBuffer::record(&spec, 8_000);
        assert_eq!(buf.committed_len(), 8_000, "budget counts committed µ-ops");
        assert!(buf.wrong_path_len() > 0, "bursts must be recorded");
        assert_eq!(buf.len(), buf.committed_len() + buf.wrong_path_len());
        let live: Vec<_> = TraceGenerator::new(&spec).take(buf.len()).collect();
        let replayed: Vec<_> = buf.replay().collect();
        assert_eq!(live, replayed, "wrong-path replay diverged");
    }

    #[test]
    fn asid_lane_is_absent_for_single_context_and_dense_for_mixes() {
        // Plain recordings pay zero bytes for the lane.
        let plain = TraceBuffer::record(&WorkloadSpec::named_demo("asid-plain"), 2_000);
        assert!(plain.asid.is_empty(), "single-context lane must be absent");
        assert!(plain.replay().all(|u| u.asid == 0));

        // A hand-built tagged stream backfills and stays dense.
        let alu = Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[]);
        let mut buf = TraceBuffer::default();
        buf.push(&DynUop::new(0, 0x100, 4, 0, 1, alu, 1));
        buf.push(&DynUop::new(1, 0x104, 4, 0, 1, alu, 2).with_asid(1));
        buf.push(&DynUop::new(2, 0x108, 4, 0, 1, alu, 3));
        assert_eq!(buf.asid, vec![0, 1, 0]);
        let asids: Vec<u8> = buf.replay().map(|u| u.asid).collect();
        assert_eq!(asids, vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_recording_is_rejected() {
        let mut buf = TraceBuffer::default();
        let alu = Uop::new(UopKind::Alu, Some(ArchReg::int(1)), &[]);
        buf.push(&DynUop::new(5, 0x100, 4, 0, 1, alu, 0));
    }

    #[test]
    fn range_replay_matches_the_full_replay_window() {
        for spec in specs() {
            let buf = TraceBuffer::record(&spec, 10_000);
            let full: Vec<_> = buf.replay().collect();
            for (start, end) in [(0, 10_000), (0, 1), (1_234, 5_678), (9_999, 10_000)] {
                let ranged: Vec<_> = buf.replay_range(start, end).expect("valid range").collect();
                assert_eq!(
                    ranged,
                    full[start..end],
                    "range {start}..{end} diverged for {}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn range_replay_enters_sparse_lanes_at_the_correct_offsets() {
        // Start mid-trace right after a dense run of memory/branch µ-ops: a
        // cursor that mis-seeded `mem_i`/`br_i` would yield shifted addresses
        // and targets rather than failing loudly.
        let spec = WorkloadSpec::new("range-sparse", 7);
        let buf = TraceBuffer::record(&spec, 10_000);
        let full: Vec<_> = buf.replay().collect();
        let start = full
            .iter()
            .position(|u| u.mem.is_some())
            .expect("workload has memory µ-ops")
            + 1;
        let got: Vec<_> = buf.replay_range(start, 10_000).expect("valid").collect();
        assert_eq!(got, full[start..]);
        // Sequence numbers keep their absolute lane indices.
        assert_eq!(got[0].seq, start as u64);
    }

    #[test]
    fn range_replay_rejects_invalid_bounds_with_structured_errors() {
        let buf = TraceBuffer::record(&WorkloadSpec::named_demo("range-err"), 1_000);
        assert_eq!(
            buf.replay_range(0, 1_001).unwrap_err(),
            RangeError::OutOfBounds {
                start: 0,
                end: 1_001,
                len: 1_000
            }
        );
        assert_eq!(
            buf.replay_range(1_001, 1_001).unwrap_err(),
            RangeError::OutOfBounds {
                start: 1_001,
                end: 1_001,
                len: 1_000
            }
        );
        assert_eq!(
            buf.replay_range(500, 400).unwrap_err(),
            RangeError::OutOfBounds {
                start: 500,
                end: 400,
                len: 1_000
            }
        );
        assert_eq!(
            buf.replay_range(42, 42).unwrap_err(),
            RangeError::Empty { start: 42 }
        );
        // The error values render human-readable descriptions.
        let msg = buf.replay_range(0, 1_001).unwrap_err().to_string();
        assert!(msg.contains("out of bounds"), "unhelpful message: {msg}");
    }

    #[test]
    fn range_replay_rejects_wrong_path_straddling_starts() {
        let spec = WorkloadSpec::new("range-wp", 11).with_wrong_path(6);
        let buf = TraceBuffer::record(&spec, 8_000);
        let full: Vec<_> = buf.replay().collect();
        let wp = full
            .iter()
            .position(|u| u.wrong_path)
            .expect("bursts recorded");
        assert_eq!(
            buf.replay_range(wp, buf.len()).unwrap_err(),
            RangeError::WrongPathStart { start: wp }
        );
        // The committed µ-op just before the burst is a valid slice start and
        // replays the burst bit-identically as part of its range.
        let ok: Vec<_> = buf
            .replay_range(wp - 1, buf.len())
            .expect("valid")
            .collect();
        assert_eq!(ok, full[wp - 1..]);
    }
}
