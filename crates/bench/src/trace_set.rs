//! Shared trace recordings for config sweeps.
//!
//! A figure experiment simulates many (pipeline, predictor) configurations over
//! the *same* workload population. A [`TraceSet`] records each workload's µ-op
//! stream into a [`TraceBuffer`] exactly once — fanned out across cores — and
//! then hands every simulation a borrowed [`UopSource`], so a sweep of `k`
//! configurations pays trace generation once instead of `k` times, and all
//! worker threads replay the same shared, read-only buffers.
//!
//! Memory is bounded by a [`TraceCachePolicy`]: each 200K-µop trace costs
//! roughly 8 MiB (the structure-of-arrays lanes of
//! [`TraceBuffer::footprint_bytes`]; the full 36-benchmark population is about
//! 284 MiB, growing linearly with the µ-op budget). Runs on memory-constrained
//! machines can cap the cache (`--trace-cache-mb`; 0 records nothing), in
//! which case the uncached workloads fall back to streaming live generation —
//! results are bit-identical either way, only the cost moves.

use bebop::{par, UopSource, WorkloadSpec};
use bebop_trace::TraceBuffer;

/// How much memory a [`TraceSet`] may spend on recorded traces.
#[derive(Debug, Clone, Default)]
pub struct TraceCachePolicy {
    /// Optional cap on the total recorded footprint, in bytes (`None` =
    /// unbounded). Workloads that do not fit under the cap stream live
    /// instead, so a cap of 0 streams everything.
    pub cap_bytes: Option<u64>,
}

impl TraceCachePolicy {
    /// A cache capped at `mb` mebibytes (the `--trace-cache-mb` flag).
    pub fn capped_mb(mb: u64) -> Self {
        TraceCachePolicy {
            cap_bytes: Some(mb * 1024 * 1024),
        }
    }
}

struct TraceSetEntry {
    spec: WorkloadSpec,
    buf: Option<TraceBuffer>,
}

impl std::fmt::Debug for TraceSetEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSetEntry")
            .field("spec", &self.spec.name)
            .field("cached", &self.buf.is_some())
            .finish()
    }
}

/// A workload population with per-workload trace recordings (where the cache
/// policy allows), handing out [`UopSource`]s for simulations.
#[derive(Debug)]
pub struct TraceSet {
    uops: u64,
    entries: Vec<TraceSetEntry>,
    /// µ-ops generated into recordings during the build, including a probe
    /// that turned out not to fit under the cap.
    generated: u64,
}

impl TraceSet {
    /// Records up to `uops` µ-ops per workload under `policy`, fanning the
    /// recordings out across cores with [`par::par_map`].
    ///
    /// When a footprint cap is set, the dense-lane lower bound is checked
    /// first — a cap no recording could fit under streams everything without
    /// paying for a probe — then one workload is recorded to measure the real
    /// per-trace cost (all workloads share the µ-op budget, so one recording
    /// is representative). The probe is kept whenever it fits under the cap;
    /// only as many traces as fit are cached and the rest stream.
    pub fn build(specs: &[WorkloadSpec], uops: u64, policy: &TraceCachePolicy) -> Self {
        if specs.is_empty() {
            return Self::streaming(specs);
        }
        let (probe, cached) = match policy.cap_bytes {
            None => (None, specs.len()),
            Some(cap) => {
                // The dense lanes alone are a lower bound on any recording's
                // footprint: a cap under that bound cannot hold a single
                // trace, so stream without recording a probe at all.
                if cap < TraceBuffer::dense_estimate_bytes(uops) {
                    return Self::streaming(specs);
                }
                let probe = TraceBuffer::record(&specs[0], uops);
                let per_trace = (probe.footprint_bytes() as u64).max(1);
                // CAST: min() with specs.len() bounds the result to a
                // real collection size even if the u64 quotient is huge.
                let fit = ((cap / per_trace) as usize).min(specs.len());
                if fit == 0 {
                    // The sparse lanes pushed the probe past the dense lower
                    // bound and over the cap: nothing fits. The probe is
                    // dropped, but its generation cost is real and reported.
                    let mut set = Self::streaming(specs);
                    set.generated = uops;
                    return set;
                }
                (Some(probe), fit)
            }
        };

        let mut entries: Vec<TraceSetEntry> = Vec::with_capacity(specs.len());
        if let Some(buf) = probe {
            entries.push(TraceSetEntry {
                spec: specs[0].clone(),
                buf: Some(buf),
            });
        }
        let first = entries.len();
        entries.extend(par::par_map(&specs[first..cached], |spec| TraceSetEntry {
            spec: spec.clone(),
            buf: Some(TraceBuffer::record(spec, uops)),
        }));
        entries.extend(specs[cached..].iter().map(|spec| TraceSetEntry {
            spec: spec.clone(),
            buf: None,
        }));
        TraceSet {
            uops,
            entries,
            generated: cached as u64 * uops,
        }
    }

    /// A set with no recordings: every source streams live generation.
    pub fn streaming(specs: &[WorkloadSpec]) -> Self {
        TraceSet {
            uops: 0,
            entries: specs
                .iter()
                .map(|spec| TraceSetEntry {
                    spec: spec.clone(),
                    buf: None,
                })
                .collect(),
            generated: 0,
        }
    }

    /// Number of workloads in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the set holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The benchmark name of workload `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.entries[i].spec.name
    }

    /// The µ-op source for workload `i`: a replay of the shared recording when
    /// one exists, live generation otherwise.
    pub fn source(&self, i: usize) -> UopSource<'_> {
        match &self.entries[i].buf {
            Some(buf) => UopSource::Replay(buf),
            None => UopSource::Live(&self.entries[i].spec),
        }
    }

    /// Number of workloads with a recorded trace.
    pub fn cached_count(&self) -> usize {
        self.entries.iter().filter(|e| e.buf.is_some()).count()
    }

    /// Total heap footprint of the recordings, in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| e.buf.as_ref())
            .map(|b| b.footprint_bytes() as u64)
            .sum()
    }

    /// Total µ-ops held in the set's recordings (the one-time cost the
    /// replay fast path amortises).
    pub fn materialised_uops(&self) -> u64 {
        self.cached_count() as u64 * self.uops
    }

    /// Total µ-ops generated into recordings when the set was built; exceeds
    /// [`TraceSet::materialised_uops`] only by a probe dropped for not
    /// fitting under the cap.
    pub fn generated_uops(&self) -> u64 {
        self.generated
    }

    /// Asserts that every recorded trace covers a `max_uops` simulation.
    ///
    /// A cursor over a too-short recording would exhaust early and silently
    /// commit fewer µ-ops than the live path; the experiment runners call this
    /// so a budget/recording mismatch fails loudly instead.
    ///
    /// # Panics
    ///
    /// Panics if the set holds recordings shorter than `max_uops`.
    pub fn assert_covers(&self, max_uops: u64) {
        assert!(
            self.cached_count() == 0 || self.uops >= max_uops,
            "trace set was recorded with {} uops per workload but the run asks for {max_uops}",
            self.uops
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop::{PipelineConfig, PredictorKind, Run};

    fn tiny_specs() -> Vec<WorkloadSpec> {
        ["ts-a", "ts-b", "ts-c"]
            .iter()
            .map(|n| WorkloadSpec::named_demo(*n))
            .collect()
    }

    #[test]
    fn full_cache_records_every_workload() {
        let specs = tiny_specs();
        let set = TraceSet::build(&specs, 2_000, &TraceCachePolicy::default());
        assert_eq!(set.len(), 3);
        assert_eq!(set.cached_count(), 3);
        assert_eq!(set.generated_uops(), 6_000);
        assert!(set.footprint_bytes() > 0);
        assert!(matches!(set.source(0), UopSource::Replay(_)));
    }

    #[test]
    fn disabled_cache_streams_everything() {
        let specs = tiny_specs();
        let set = TraceSet::build(&specs, 2_000, &TraceCachePolicy::capped_mb(0));
        assert_eq!(set.cached_count(), 0);
        assert_eq!(set.footprint_bytes(), 0);
        assert_eq!(set.generated_uops(), 0);
        assert!(matches!(set.source(0), UopSource::Live(_)));
    }

    #[test]
    fn cap_limits_the_number_of_recordings() {
        let specs = tiny_specs();
        let full = TraceSet::build(&specs, 2_000, &TraceCachePolicy::default());
        let per_trace = full.footprint_bytes() / 3;
        // Room for roughly two traces: the third must fall back to streaming.
        let set = TraceSet::build(
            &specs,
            2_000,
            &TraceCachePolicy {
                cap_bytes: Some(per_trace * 2 + per_trace / 2),
            },
        );
        assert_eq!(set.cached_count(), 2);
        assert!(matches!(set.source(0), UopSource::Replay(_)));
        assert!(matches!(set.source(2), UopSource::Live(_)));
        // A cap below one trace streams everything.
        let none = TraceSet::build(
            &specs,
            2_000,
            &TraceCachePolicy {
                cap_bytes: Some(16),
            },
        );
        assert_eq!(none.cached_count(), 0);
    }

    #[test]
    fn tiny_cap_streams_without_recording_a_probe() {
        // A cap below the dense-lane lower bound cannot hold any trace: the
        // build must not waste seconds and MiB recording a probe it will
        // silently discard. Zero generated µ-ops proves no probe was paid.
        let specs = tiny_specs();
        let set = TraceSet::build(
            &specs,
            2_000,
            &TraceCachePolicy {
                cap_bytes: Some(16),
            },
        );
        assert_eq!(set.cached_count(), 0);
        assert_eq!(set.generated_uops(), 0, "no probe may be recorded");
        assert_eq!(set.materialised_uops(), 0);
    }

    #[test]
    fn cap_that_fits_only_the_probe_keeps_it() {
        let specs = tiny_specs();
        let full = TraceSet::build(&specs, 2_000, &TraceCachePolicy::default());
        let per_trace = full.footprint_bytes() / 3;
        // Room for exactly one trace: the probe must be kept, not discarded.
        let set = TraceSet::build(
            &specs,
            2_000,
            &TraceCachePolicy {
                cap_bytes: Some(per_trace + per_trace / 2),
            },
        );
        assert_eq!(set.cached_count(), 1);
        assert!(matches!(set.source(0), UopSource::Replay(_)));
        assert!(matches!(set.source(1), UopSource::Live(_)));
        assert_eq!(set.generated_uops(), 2_000);
    }

    #[test]
    fn cached_and_streaming_sources_simulate_identically() {
        let specs = tiny_specs();
        let cached = TraceSet::build(&specs, 3_000, &TraceCachePolicy::default());
        let streaming = TraceSet::streaming(&specs);
        let cfg = PipelineConfig::eole_4_60();
        for i in 0..specs.len() {
            let a = Run::new(cached.source(i), &cfg, &PredictorKind::DVtage, 3_000).stats();
            let b = Run::new(streaming.source(i), &cfg, &PredictorKind::DVtage, 3_000).stats();
            assert_eq!(a, b, "replay diverged for {}", cached.name(i));
        }
    }
}
