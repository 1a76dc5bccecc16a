//! Per-slice basic-block-vector (BBV) profiling over a [`TraceBuffer`].
//!
//! SimPoint-style phase sampling rests on one observation: a program's
//! behaviour within an interval is governed by *which code* it executes, and
//! the cheapest faithful proxy for "which code" is the distribution of fetch
//! blocks touched. This module partitions a recording into fixed-length
//! slices (counted in *committed* µ-ops, matching the simulation budget
//! contract of [`TraceBuffer::record`]) and summarises each slice as a
//! projected, L1-normalised basic-block vector:
//!
//! * the **block key** of a µ-op is its fetch-block PC
//!   ([`bebop_isa::fetch_block_pc`] at [`DEFAULT_FETCH_BLOCK_BYTES`]) — the
//!   same granularity BeBoP's block-based predictor indexes on;
//! * keys are **projected** into [`BBV_DIMS`] dimensions with the workspace
//!   FNV-1a hash ([`crate::fnv1a`]) — the random-projection step of SimPoint,
//!   made deterministic by using a fixed hash instead of a random matrix;
//! * each vector is **L1-normalised** so slices compare by behaviour, not by
//!   the (identical anyway) slice length, and so a truncated tail slice is
//!   directly comparable to its full-length siblings.
//!
//! Slice boundaries follow the recording's committed-µop structure: a slice
//! *starts* on a committed µ-op and *ends* immediately before the next
//! slice's first committed µ-op, so trailing wrong-path bursts belong to the
//! slice containing the mispredicted branch that spawned them. Every lane
//! index of the recording falls in exactly one slice (asserted by the
//! `integration_properties` suite), and every slice start is by construction
//! a valid [`TraceBuffer::replay_range`] start.

use crate::buffer::{meta, TraceBuffer};
use crate::fingerprint::{fnv1a, FNV_OFFSET_BASIS};
use bebop_isa::{fetch_block_pc, DEFAULT_FETCH_BLOCK_BYTES};

/// Number of projected BBV dimensions.
///
/// SimPoint projects down to ~15 dimensions; 32 keeps clustering cheap
/// (distances are 32 multiply-adds) while leaving headroom for the synthetic
/// workloads' block populations.
pub const BBV_DIMS: usize = 32;

/// One profiled slice of a recording: its lane-index span, its committed
/// µ-op count and its projected, L1-normalised basic-block vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceBbv {
    /// Slice position within the recording (0-based).
    pub index: usize,
    /// First lane index of the slice — always a committed µ-op, so always a
    /// valid [`TraceBuffer::replay_range`] start.
    pub start: usize,
    /// One past the last lane index of the slice; equals the next slice's
    /// `start` (or the recording length for the last slice).
    pub end: usize,
    /// Committed µ-ops inside the slice (wrong-path riders excluded). Equal
    /// to the requested slice length for every slice but a possibly shorter
    /// final tail.
    pub committed: u64,
    /// Projected basic-block vector, L1-normalised over committed µ-ops:
    /// entries are non-negative and sum to 1 (within float rounding).
    pub vector: [f64; BBV_DIMS],
}

/// Projects a fetch-block PC into a BBV dimension.
fn project(block_pc: u64) -> usize {
    // CAST: reduced modulo BBV_DIMS, so the value fits any index width.
    (fnv1a(FNV_OFFSET_BASIS, &block_pc.to_le_bytes()) % BBV_DIMS as u64) as usize
}

/// Partitions `buf` into slices of `slice_uops` committed µ-ops and profiles
/// each slice's basic-block vector.
///
/// Deterministic: the slice table depends only on the recording contents and
/// `slice_uops`. The final slice may be shorter than `slice_uops` (its
/// `committed` field says by how much); an empty recording yields no slices.
///
/// # Panics
///
/// Panics if `slice_uops` is zero.
pub fn profile_slices(buf: &TraceBuffer, slice_uops: u64) -> Vec<SliceBbv> {
    assert!(slice_uops > 0, "slice length must be positive");
    let (pc, _, _, meta_lane, _, _, _, _) = buf.lanes();
    let mut slices = Vec::new();
    let mut counts = [0u64; BBV_DIMS];
    let mut start = 0usize;
    let mut committed = 0u64;
    for (i, (&upc, &m)) in pc.iter().zip(meta_lane).enumerate() {
        if m & meta::WRONG_PATH != 0 {
            // Wrong-path riders stay with the current slice and do not
            // contribute to its behaviour vector: they never commit.
            continue;
        }
        if committed == slice_uops {
            // This committed µ-op opens the next slice; everything before it
            // (trailing wrong-path bursts included) closes the current one.
            slices.push(finish_slice(slices.len(), start, i, committed, &counts));
            counts = [0u64; BBV_DIMS];
            start = i;
            committed = 0;
        }
        counts[project(fetch_block_pc(upc, DEFAULT_FETCH_BLOCK_BYTES))] += 1;
        committed += 1;
    }
    if committed > 0 {
        slices.push(finish_slice(
            slices.len(),
            start,
            pc.len(),
            committed,
            &counts,
        ));
    }
    slices
}

fn finish_slice(
    index: usize,
    start: usize,
    end: usize,
    committed: u64,
    counts: &[u64; BBV_DIMS],
) -> SliceBbv {
    let total = committed as f64;
    let mut vector = [0.0f64; BBV_DIMS];
    for (v, &c) in vector.iter_mut().zip(counts) {
        *v = c as f64 / total;
    }
    SliceBbv {
        index,
        start,
        end,
        committed,
        vector,
    }
}

/// Squared Euclidean distance between two projected BBVs — the clustering
/// metric of the phase clusterer (monotone with the Euclidean distance, so
/// nearest-centroid decisions are identical and the square root is saved).
pub fn bbv_distance_sq(a: &[f64; BBV_DIMS], b: &[f64; BBV_DIMS]) -> f64 {
    let mut d = 0.0;
    for (x, y) in a.iter().zip(b) {
        let diff = x - y;
        d += diff * diff;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    #[test]
    fn slices_partition_the_recording() {
        let buf = TraceBuffer::record(&WorkloadSpec::named_demo("bbv-part"), 10_000);
        let slices = profile_slices(&buf, 1_024);
        assert_eq!(slices.len(), 10); // 9 full + tail of 784
        assert_eq!(slices[0].start, 0);
        assert_eq!(slices.last().unwrap().end, buf.len());
        for w in slices.windows(2) {
            assert_eq!(w[0].end, w[1].start, "slices must tile the recording");
        }
        let committed: u64 = slices.iter().map(|s| s.committed).sum();
        assert_eq!(committed, buf.committed_len() as u64);
        assert_eq!(slices.last().unwrap().committed, 10_000 % 1_024);
    }

    #[test]
    fn vectors_are_l1_normalised() {
        let buf = TraceBuffer::record(&WorkloadSpec::new("bbv-norm", 5), 8_000);
        for s in profile_slices(&buf, 1_000) {
            let sum: f64 = s.vector.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "slice {} L1 sum {sum}", s.index);
            assert!(s.vector.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn slice_starts_are_committed_uops_even_with_wrong_path_riders() {
        let spec = WorkloadSpec::new("bbv-wp", 11).with_wrong_path(6);
        let buf = TraceBuffer::record(&spec, 8_000);
        assert!(buf.wrong_path_len() > 0);
        let slices = profile_slices(&buf, 1_000);
        for s in &slices {
            // Every start is accepted by the validated range-replay
            // constructor, i.e. in bounds and not inside a burst.
            assert!(
                buf.replay_range(s.start, s.end).is_ok(),
                "slice {}",
                s.index
            );
        }
        let committed: u64 = slices.iter().map(|s| s.committed).sum();
        assert_eq!(committed, buf.committed_len() as u64);
        assert_eq!(slices.last().unwrap().end, buf.len());
    }

    #[test]
    fn profiling_is_deterministic() {
        let spec = WorkloadSpec::new("bbv-det", 3);
        let a = profile_slices(&TraceBuffer::record(&spec, 6_000), 512);
        let b = profile_slices(&TraceBuffer::record(&spec, 6_000), 512);
        assert_eq!(a, b);
    }

    #[test]
    fn distance_is_zero_on_self_and_positive_across_phases() {
        let buf = TraceBuffer::record(&WorkloadSpec::new("bbv-dist", 9), 4_000);
        let slices = profile_slices(&buf, 500);
        assert_eq!(bbv_distance_sq(&slices[0].vector, &slices[0].vector), 0.0);
        let d = bbv_distance_sq(&slices[0].vector, &slices[1].vector);
        assert!(d >= 0.0);
    }
}
