//! Multi-programmed trace mixes.
//!
//! A [`MixSpec`] interleaves the µ-op streams of several [`WorkloadSpec`]
//! contexts round-robin by *fetch quantum*: each context runs for
//! `quantum` committed µ-ops, then the next context takes over, modelling
//! several programs time-sharing one core (and, critically for BeBoP, one
//! shared value-prediction infrastructure). Every emitted µ-op is tagged with
//! its context's [`bebop_isa::DynUop::asid`] and renumbered into one global
//! sequence, so the pipeline sees a single stream with quantum-boundary
//! context switches.
//!
//! Two invariants make mixes safe to adopt incrementally (the
//! `integration_mix` suite asserts both):
//!
//! * **Single-context identity** — a mix of one context is *bit-identical* to
//!   the plain [`TraceGenerator`] stream of its spec (ASID 0 is the
//!   single-program default, and the renumbered sequence equals the
//!   original), so everything built on plain traces is the 1-context special
//!   case of a mix.
//! * **Per-context conservation** — filtering a mix stream by ASID recovers
//!   each context's plain stream exactly (order and every field except the
//!   global sequence number): interleaving never reorders, drops or mutates
//!   a context's µ-ops.
//!
//! Wrong-path burst µ-ops (see [`crate::WrongPathProfile`]) ride along with
//! the quantum of the branch that spawned them — the quantum counts
//! *committed* µ-ops only, consistent with every budget in the stack — so a
//! burst is never orphaned on the far side of a context switch.

use crate::buffer::TraceBuffer;
use crate::fingerprint::mix_seed;
use crate::generator::TraceGenerator;
use crate::workload::WorkloadSpec;
use bebop_isa::{DynUop, SeqNum};

/// Maximum contexts per mix: ASIDs are `u8` and the top value is reserved as
/// the sharded tables' free-slot marker.
pub const MAX_MIX_CONTEXTS: usize = 254;

/// A multi-programmed workload: several [`WorkloadSpec`] contexts
/// time-sharing one simulated core, interleaved round-robin by fetch quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// Human-readable mix name (reports).
    pub name: String,
    /// Committed µ-ops each context runs for before the next takes over.
    pub quantum: u64,
    /// The interleaved contexts; context `i`'s µ-ops carry ASID `i`.
    pub contexts: Vec<WorkloadSpec>,
}

impl MixSpec {
    /// Creates a mix of `contexts` with the given per-turn quantum.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is empty or holds more than
    /// [`MAX_MIX_CONTEXTS`] specs, or if `quantum` is zero.
    pub fn new(name: impl Into<String>, quantum: u64, contexts: Vec<WorkloadSpec>) -> Self {
        assert!(!contexts.is_empty(), "a mix needs at least one context");
        assert!(
            contexts.len() <= MAX_MIX_CONTEXTS,
            "at most {MAX_MIX_CONTEXTS} contexts are supported"
        );
        assert!(quantum > 0, "the fetch quantum must be positive");
        MixSpec {
            name: name.into(),
            quantum,
            contexts,
        }
    }

    /// A mix of two benchmarks — the standard pairing of the `figures --mix`
    /// experiment. The name is `a+b`.
    pub fn pair(quantum: u64, a: WorkloadSpec, b: WorkloadSpec) -> Self {
        let name = format!("{}+{}", a.name, b.name);
        MixSpec::new(name, quantum, vec![a, b])
    }

    /// The folded seed of the mix: an order-sensitive fold of the quantum
    /// and every context's seed.
    pub fn seed(&self) -> u64 {
        mix_seed(self)
    }

    /// Opens the interleaved µ-op stream at its start.
    pub fn generator(&self) -> MixGenerator {
        MixGenerator::new(self)
    }

    /// Records `n` committed µ-ops of the interleaved stream into a
    /// [`TraceBuffer`] (wrong-path burst µ-ops ride along without consuming
    /// budget, as with [`TraceBuffer::record`]).
    pub fn record(&self, n: u64) -> TraceBuffer {
        TraceBuffer::record_stream(self.generator(), n)
    }
}

/// The round-robin interleaver behind a [`MixSpec`]: an unbounded iterator of
/// ASID-tagged, globally renumbered [`DynUop`]s.
#[derive(Debug, Clone)]
pub struct MixGenerator {
    gens: Vec<TraceGenerator>,
    /// A µ-op pulled past a quantum boundary, parked until its context's next
    /// turn (one slot per context; only the current context's can be filled).
    parked: Vec<Option<DynUop>>,
    quantum: u64,
    cur: usize,
    /// Committed µ-ops emitted in the current turn.
    in_quantum: u64,
    /// Next global sequence number.
    seq: SeqNum,
}

impl MixGenerator {
    /// Builds the per-context generators and positions the round-robin at
    /// context 0.
    pub fn new(mix: &MixSpec) -> Self {
        MixGenerator {
            gens: mix.contexts.iter().map(TraceGenerator::new).collect(),
            parked: vec![None; mix.contexts.len()],
            quantum: mix.quantum,
            cur: 0,
            in_quantum: 0,
            seq: 0,
        }
    }
}

impl Iterator for MixGenerator {
    type Item = DynUop;

    fn next(&mut self) -> Option<DynUop> {
        loop {
            let u = match self.parked[self.cur].take() {
                Some(u) => u,
                None => self.gens[self.cur]
                    .next()
                    // INVARIANT: TraceGenerator is an endless iterator.
                    .expect("TraceGenerator is unbounded"),
            };
            if !u.wrong_path && self.in_quantum == self.quantum {
                // Quantum exhausted: this committed µ-op opens its context's
                // *next* turn. Park it and rotate. (Wrong-path µ-ops never
                // trigger the rotation, so a burst stays with its branch.)
                self.parked[self.cur] = Some(u);
                self.cur = (self.cur + 1) % self.gens.len();
                self.in_quantum = 0;
                continue;
            }
            if !u.wrong_path {
                self.in_quantum += 1;
            }
            let mut u = u.with_asid(self.cur as u8);
            u.seq = self.seq;
            self.seq += 1;
            return Some(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_benchmark;

    #[test]
    fn single_context_mix_is_bit_identical_to_the_plain_stream() {
        let spec = WorkloadSpec::named_demo("mix-solo");
        let mix = MixSpec::new("solo", 500, vec![spec.clone()]);
        let plain: Vec<_> = TraceGenerator::new(&spec).take(10_000).collect();
        let mixed: Vec<_> = mix.generator().take(10_000).collect();
        assert_eq!(plain, mixed, "a 1-context mix must be the plain stream");
    }

    #[test]
    fn round_robin_rotates_every_quantum() {
        let mix = MixSpec::pair(100, spec_benchmark("171.swim"), spec_benchmark("429.mcf"));
        let stream: Vec<_> = mix.generator().take(1_000).collect();
        // Contiguous global numbering.
        for (i, u) in stream.iter().enumerate() {
            assert_eq!(u.seq, i as u64);
            assert!(u.asid < 2);
        }
        // Exactly `quantum` committed µ-ops per turn, alternating contexts.
        let mut turn_lengths: Vec<(u8, u64)> = Vec::new();
        for u in &stream {
            match turn_lengths.last_mut() {
                Some((asid, n)) if *asid == u.asid => *n += 1,
                _ => turn_lengths.push((u.asid, 1)),
            }
        }
        assert!(turn_lengths.len() >= 9, "expected ~10 turns in 1000 µ-ops");
        for (i, &(asid, n)) in turn_lengths.iter().enumerate() {
            assert_eq!(asid as usize, i % 2, "round robin must alternate");
            if i + 1 < turn_lengths.len() {
                assert_eq!(n, 100, "every full turn is one quantum");
            }
        }
    }

    #[test]
    fn per_context_streams_are_conserved() {
        let a = spec_benchmark("403.gcc");
        let b = WorkloadSpec::named_demo("mix-b");
        let mix = MixSpec::new("cons", 77, vec![a.clone(), b.clone()]);
        let stream: Vec<_> = mix.generator().take(8_000).collect();
        for (asid, spec) in [(0u8, &a), (1u8, &b)] {
            let got: Vec<_> = stream.iter().filter(|u| u.asid == asid).collect();
            let want: Vec<_> = TraceGenerator::new(spec).take(got.len()).collect();
            for (g, w) in got.iter().zip(&want) {
                // Identical apart from the global renumbering and the tag.
                let mut w2 = *w;
                w2.seq = g.seq;
                w2.asid = asid;
                assert_eq!(**g, w2, "context {asid} diverged");
            }
        }
    }

    #[test]
    fn wrong_path_bursts_stay_with_their_quantum() {
        let a = WorkloadSpec::new("wp-mix-a", 3).with_wrong_path(6);
        let b = WorkloadSpec::new("wp-mix-b", 4).with_wrong_path(6);
        let mix = MixSpec::new("wp", 50, vec![a, b]);
        let stream: Vec<_> = mix.generator().take(10_000).collect();
        assert!(stream.iter().any(|u| u.wrong_path));
        // A wrong-path µ-op always carries the ASID of the preceding
        // committed branch: bursts never leak across a context switch.
        for w in stream.windows(2) {
            if w[1].wrong_path {
                assert_eq!(w[1].asid, w[0].asid, "burst crossed a context switch");
            }
        }
        // Quanta count committed µ-ops only.
        let committed0 = stream
            .iter()
            .filter(|u| u.asid == 0 && !u.wrong_path)
            .count() as i64;
        let committed1 = stream
            .iter()
            .filter(|u| u.asid == 1 && !u.wrong_path)
            .count() as i64;
        assert!(
            (committed0 - committed1).abs() <= 50,
            "round robin must stay fair within one quantum: {committed0} vs {committed1}"
        );
    }

    #[test]
    fn recording_honours_the_committed_budget() {
        let mix = MixSpec::pair(
            64,
            WorkloadSpec::new("rec-a", 1).with_wrong_path(4),
            WorkloadSpec::new("rec-b", 2),
        );
        let buf = mix.record(5_000);
        assert_eq!(buf.committed_len(), 5_000);
        assert!(buf.wrong_path_len() > 0);
        let live: Vec<_> = mix.generator().take(buf.len()).collect();
        let replayed: Vec<_> = buf.replay().collect();
        assert_eq!(live, replayed, "mix replay diverged");
    }

    #[test]
    fn seed_folds_the_quantum_and_every_context_seed_in_order() {
        let base = MixSpec::pair(100, spec_benchmark("171.swim"), spec_benchmark("429.mcf"));
        let seed = base.seed();
        let mut requantumed = base.clone();
        requantumed.quantum = 200;
        assert_ne!(seed, requantumed.seed());
        let reordered = MixSpec::pair(100, spec_benchmark("429.mcf"), spec_benchmark("171.swim"));
        assert_ne!(seed, reordered.seed());
        let mut reseeded = base.clone();
        reseeded.contexts[0].seed ^= 1;
        assert_ne!(seed, reseeded.seed());
        assert_eq!(seed, base.clone().seed());
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn empty_mixes_are_rejected() {
        let _ = MixSpec::new("empty", 10, Vec::new());
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_is_rejected() {
        let _ = MixSpec::new("zq", 0, vec![WorkloadSpec::new("a", 1)]);
    }
}
