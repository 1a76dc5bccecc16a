//! Stable content hashes: FNV-1a and the workload-specification fingerprint.
//!
//! Everything that must recognise "the same workload" across processes hashes
//! through here: sweep job keys, simulation checkpoints, the BBV projection
//! of phase sampling and its clustering seeds. The values are part of those
//! on-disk formats, so none of them may change without a version bump.

use crate::value::ValueProfile;
use crate::workload::{
    BranchProfile, InstMix, LoopProfile, MemoryProfile, WorkloadSpec, WrongPathProfile,
};

/// The FNV-1a offset basis: the initial hash state for [`fnv1a`].
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a round over `bytes`, continuing from hash state `h` (seed with
/// [`FNV_OFFSET_BASIS`]). Shared by the BBV projection, the sweep journal and
/// job keys, the sampling seeds and the simulation checkpoint codec.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a`] as a [`std::hash::Hasher`], for hashing values through their
/// derived `Hash` implementations (a recording's lanes, see
/// [`crate::TraceBuffer::content_fingerprint`]).
pub(crate) struct FnvHasher(pub(crate) u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// Version of the *generation behaviour*: the mapping from a [`WorkloadSpec`]
/// to a µ-op stream. Bump it whenever `TraceGenerator` (or anything it calls —
/// program construction, value/address pattern sampling, RNG consumption
/// order) changes the stream produced for an unchanged specification, so
/// sweep cells and checkpoints recorded under the old behaviour stop matching
/// instead of being silently resumed as if nothing changed.
pub const TRACE_STREAM_VERSION: u32 = 1;

/// A stable fingerprint of every field of a [`WorkloadSpec`], salted with
/// [`TRACE_STREAM_VERSION`].
///
/// Two specifications collide only if they describe the identical workload
/// (name, seed and every profile parameter) *under the same generation
/// behaviour*, so the fingerprint is the workload identity that sweep job
/// keys and simulation checkpoints are bound to: change any parameter (or
/// bump the stream version) and old journal records and snapshots are
/// orphaned instead of wrongly reused.
///
/// Every struct is destructured exhaustively so that adding a field to any of
/// them is a compile error here rather than a silently incomplete identity.
pub fn spec_fingerprint(spec: &WorkloadSpec) -> u64 {
    let WorkloadSpec {
        name,
        seed,
        parallel_chains,
        is_fp,
        mix,
        loops,
        values,
        branches,
        memory,
        wrong_path,
    } = spec;
    let WrongPathProfile { burst_uops } = *wrong_path;
    let InstMix {
        load,
        store,
        fp,
        mul,
        div,
        load_imm,
        load_op_frac,
    } = *mix;
    let LoopProfile {
        regions,
        body_insts,
        trip_count,
        diamond_prob,
    } = *loops;
    let ValueProfile {
        constant,
        strided,
        periodic_strided,
        branch_correlated,
        branch_correlated_stride,
        random,
        stride_magnitude,
    } = *values;
    let BranchProfile {
        pattern_frac,
        biased_frac,
        random_frac,
        taken_bias,
    } = *branches;
    let MemoryProfile {
        working_set_bytes,
        streaming_frac,
        random_frac: mem_random_frac,
        pointer_chase_frac,
        stream_stride,
    } = *memory;

    let mut enc: Vec<u8> = Vec::with_capacity(256);
    let put_u64 = |enc: &mut Vec<u8>, x: u64| enc.extend_from_slice(&x.to_le_bytes());
    let put_f64 = |enc: &mut Vec<u8>, x: f64| enc.extend_from_slice(&x.to_bits().to_le_bytes());

    enc.extend_from_slice(&TRACE_STREAM_VERSION.to_le_bytes());
    put_u64(&mut enc, name.len() as u64);
    enc.extend_from_slice(name.as_bytes());
    put_u64(&mut enc, *seed);
    put_u64(&mut enc, *parallel_chains as u64);
    enc.push(u8::from(*is_fp));

    for x in [load, store, fp, mul, div, load_imm, load_op_frac] {
        put_f64(&mut enc, x);
    }

    put_u64(&mut enc, regions as u64);
    put_u64(&mut enc, body_insts as u64);
    put_u64(&mut enc, trip_count);
    put_f64(&mut enc, diamond_prob);

    for x in [
        constant,
        strided,
        periodic_strided,
        branch_correlated,
        branch_correlated_stride,
        random,
    ] {
        put_f64(&mut enc, x);
    }
    put_u64(&mut enc, stride_magnitude as u64);

    for x in [pattern_frac, biased_frac, random_frac, taken_bias] {
        put_f64(&mut enc, x);
    }

    put_u64(&mut enc, working_set_bytes);
    for x in [streaming_frac, mem_random_frac, pointer_chase_frac] {
        put_f64(&mut enc, x);
    }
    put_u64(&mut enc, stream_stride);

    put_u64(&mut enc, u64::from(burst_uops));

    fnv1a(FNV_OFFSET_BASIS, &enc)
}

/// The folded seed of a mix: an order-sensitive fold of the quantum and the
/// context seeds (see [`crate::MixSpec::seed`]).
pub(crate) fn mix_seed(mix: &crate::MixSpec) -> u64 {
    let mut enc: Vec<u8> = Vec::with_capacity(8 + 8 * mix.contexts.len());
    enc.extend_from_slice(&mix.quantum.to_le_bytes());
    for spec in &mix.contexts {
        enc.extend_from_slice(&spec.seed.to_le_bytes());
    }
    fnv1a(FNV_OFFSET_BASIS, &enc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_every_spec_field() {
        let base = WorkloadSpec::new("fp", 1);
        let fp = spec_fingerprint(&base);
        let mut renamed = base.clone();
        renamed.name = "fp2".to_string();
        assert_ne!(fp, spec_fingerprint(&renamed));
        let mut reseeded = base.clone();
        reseeded.seed = 2;
        assert_ne!(fp, spec_fingerprint(&reseeded));
        let mut remixed = base.clone();
        remixed.mix.load += 0.01;
        assert_ne!(fp, spec_fingerprint(&remixed));
        let mut rememoried = base.clone();
        rememoried.memory.working_set_bytes *= 2;
        assert_ne!(fp, spec_fingerprint(&rememoried));
        let mut revalued = base.clone();
        revalued.values.stride_magnitude += 1;
        assert_ne!(fp, spec_fingerprint(&revalued));
        // And it is stable for identical specs.
        assert_eq!(fp, spec_fingerprint(&base.clone()));
    }
}
