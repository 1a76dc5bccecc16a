//! The three workloads: what they record, which simulations they run, and
//! how one simulation runs — untraced, or through the tracer's wrappers.

use crate::tracer::{elapsed_ns, LayerTrace, TimedIter, TimedVp};
use bebop::{configs, PredictorKind};
use bebop_isa::DynUop;
use bebop_trace::{TraceBuffer, WorkloadSpec};
use bebop_uarch::{Pipeline, PipelineConfig, SimStats, ValuePredictor};
use std::time::Instant;

/// The seed that keeps the canonical `spec_benchmark` seeds. Any other seed
/// re-seeds every workload and keeps its parameters.
pub const DEFAULT_SEED: u64 = 0;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdBaseline,
    BebopEole,
    WarmWindow,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdBaseline,
        Workload::BebopEole,
        Workload::WarmWindow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBaseline => "cold-baseline",
            Workload::BebopEole => "bebop-eole",
            Workload::WarmWindow => "warm-window",
        }
    }

    /// Why the workload is in the benchmark (one line, for the manifest).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdBaseline => "Table II on Baseline_6_60 without VP from a cold machine: pipeline, branch and cache do all the work, VP none",
            Workload::BebopEole => "EOLE_4_60 with D-VTAGE and the four Table III BeBoP configs, trained by a warmed prefix: the paper's product, where predict/train/squash are ~40% of time",
            Workload::WarmWindow => "six long recordings functionally warmed then a short detailed window: trace write-then-read and warming cost, warm IPC",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulation budgets, in committed µ-ops.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Per-benchmark budget of cold-baseline (the `figures table2` default).
    pub cold: u64,
    /// Functionally warmed prefix of each bebop-eole simulation, which
    /// trains its predictor before the detailed part.
    pub eole_warm: u64,
    /// Detailed budget of each bebop-eole simulation.
    pub eole: u64,
    /// Functionally warmed prefix of each warm-window replay.
    pub warm: u64,
    /// Detailed window after the warmed prefix.
    pub window: u64,
}

impl Scale {
    /// The scale every benchmark run measures.
    pub const FULL: Scale = Scale {
        cold: 200_000,
        eole_warm: 60_000,
        eole: 20_000,
        warm: 400_000,
        window: 50_000,
    };

    /// A scale small enough for unit tests in a debug build.
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        cold: 1_500,
        eole_warm: 1_000,
        eole: 1_500,
        warm: 3_000,
        window: 1_000,
    };
}

/// Mixes a benchmark's canonical seed with the workload seed (SplitMix64
/// finaliser): the same pair always gives the same stream.
fn reseed(canonical: u64, seed: u64) -> u64 {
    let mut z = canonical ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark specifications of `workload` under `seed`.
pub fn specs(workload: Workload, seed: u64) -> Vec<WorkloadSpec> {
    let mut specs = match workload {
        Workload::ColdBaseline | Workload::BebopEole => bebop_bench::workloads(false),
        Workload::WarmWindow => bebop_bench::workloads(true),
    };
    if seed != DEFAULT_SEED {
        for s in &mut specs {
            s.seed = reseed(s.seed, seed);
        }
    }
    specs
}

/// One benchmark's recorded input.
#[derive(Debug)]
pub struct Input {
    pub name: String,
    pub buf: TraceBuffer,
}

/// The recording length of each benchmark of `workload`.
fn record_len(workload: Workload, scale: &Scale) -> u64 {
    match workload {
        Workload::ColdBaseline => scale.cold,
        Workload::BebopEole => scale.eole_warm + scale.eole,
        Workload::WarmWindow => scale.warm + scale.window,
    }
}

/// The workload's set-up: its recorded inputs, and the host time of
/// recording each one at its fastest. Inputs can be recorded again, so that
/// set-up is timed like the simulations: from each input's fastest of
/// recordings spread over the run, not from one stretch of host speed.
#[derive(Debug)]
pub struct Setup {
    specs: Vec<WorkloadSpec>,
    len: u64,
    pub inputs: Vec<Input>,
    fastest: Vec<u64>,
    next: usize,
    /// Recordings made so far, the first of each input included.
    pub recordings: u64,
}

impl Setup {
    /// Records every benchmark of `specs` once.
    pub fn record(workload: Workload, scale: &Scale, specs: Vec<WorkloadSpec>) -> Setup {
        let n = specs.len();
        let mut setup = Setup {
            inputs: specs
                .iter()
                .map(|s| Input {
                    name: s.name.clone(),
                    buf: TraceBuffer::default(),
                })
                .collect(),
            specs,
            len: record_len(workload, scale),
            fastest: vec![u64::MAX; n],
            next: 0,
            recordings: 0,
        };
        setup.rerecord(n);
        setup
    }

    /// Records the next `k` inputs again, round-robin. Each recording
    /// replaces its predecessor before it is made, so peak memory stays at
    /// one set plus one recording. Recording is deterministic: the inputs do
    /// not change.
    pub fn rerecord(&mut self, k: usize) {
        for _ in 0..k.min(self.specs.len()) {
            let i = self.next;
            self.next = (i + 1) % self.specs.len();
            drop(std::mem::take(&mut self.inputs[i].buf));
            let t = Instant::now();
            self.inputs[i].buf = TraceBuffer::record(&self.specs[i], self.len);
            self.fastest[i] = self.fastest[i].min(elapsed_ns(t));
            self.recordings += 1;
        }
    }

    /// Host ns of recording the whole set, each input at its fastest.
    pub fn ns(&self) -> f64 {
        self.fastest.iter().map(|&ns| ns as f64).sum()
    }
}

/// One simulation: an input replayed on a configuration with a predictor,
/// optionally after a functionally warmed prefix.
#[derive(Debug, Clone)]
pub struct Sim {
    pub input: usize,
    pub cfg: PipelineConfig,
    pub predictor: PredictorKind,
    pub label: String,
    /// Committed µ-ops functionally warmed before the detailed part.
    pub warm: u64,
    /// Committed µ-ops simulated in detail (and reported).
    pub window: u64,
}

impl Sim {
    /// Committed µ-ops the simulation consumes in total.
    pub fn uops(&self) -> u64 {
        self.warm + self.window
    }

    /// Whether this is a `Baseline_6_60` run without VP, whose IPC is
    /// compared with Table II.
    pub fn is_table2_baseline(&self) -> bool {
        self.cfg.name == "Baseline_6_60" && matches!(self.predictor, PredictorKind::None)
    }
}

/// The simulations `workload` times, in a fixed order.
pub fn sims(workload: Workload, scale: &Scale, inputs: &[Input]) -> Vec<Sim> {
    let mut out = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let mut push =
            |cfg: PipelineConfig, predictor: PredictorKind, label: &str, warm, window| {
                out.push(Sim {
                    input: i,
                    label: format!("{}/{}/{label}", input.name, cfg.name),
                    cfg,
                    predictor,
                    warm,
                    window,
                })
            };
        match workload {
            Workload::ColdBaseline => push(
                PipelineConfig::baseline_6_60(),
                PredictorKind::None,
                "none",
                0,
                scale.cold,
            ),
            Workload::BebopEole => {
                push(
                    PipelineConfig::eole_4_60(),
                    PredictorKind::DVtage,
                    "D-VTAGE",
                    scale.eole_warm,
                    scale.eole,
                );
                for (name, cfg) in configs::table3_configs() {
                    push(
                        PipelineConfig::eole_4_60(),
                        PredictorKind::BlockDVtage(cfg),
                        name,
                        scale.eole_warm,
                        scale.eole,
                    );
                }
            }
            Workload::WarmWindow => {
                push(
                    PipelineConfig::baseline_6_60(),
                    PredictorKind::None,
                    "none",
                    scale.warm,
                    scale.window,
                );
                push(
                    PipelineConfig::eole_4_60(),
                    PredictorKind::BlockDVtage(configs::medium()),
                    "Medium",
                    scale.warm,
                    scale.window,
                );
            }
        }
    }
    out
}

/// The `Baseline_6_60` runs without VP that bebop-eole does not time but
/// measures `ipc_err_table2` on (the paper's speedup reference): each over
/// its whole recording, from a cold machine.
pub fn table2_reference(scale: &Scale, inputs: &[Input]) -> Vec<Sim> {
    sims(
        Workload::ColdBaseline,
        &Scale {
            cold: record_len(Workload::BebopEole, scale),
            ..*scale
        },
        inputs,
    )
}

/// What one simulation produced.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The reported statistics: the whole run, or the detailed window alone.
    pub stats: SimStats,
    /// The pipeline's statistics over everything it consumed (prefix too).
    pub total: SimStats,
    /// Committed µ-ops functionally warmed.
    pub warm_uops: u64,
    /// Host time of the warmed prefix and of the detailed part.
    pub warm_ns: u64,
    pub detailed_ns: u64,
}

/// Runs `sim` over `stream` with `predictor`: warm the prefix, snapshot, run
/// the detailed window, finish.
pub fn simulate<I, P>(sim: &Sim, stream: &mut I, predictor: &mut P) -> Outcome
where
    I: Iterator<Item = DynUop>,
    P: ValuePredictor,
{
    let mut pipe = Pipeline::new(sim.cfg.clone());
    let mut pos = 0u64;
    let t0 = Instant::now();
    let warm_uops = if sim.warm > 0 {
        pipe.warm_functional(stream, predictor, sim.warm, &mut pos)
    } else {
        0
    };
    let warm_ns = elapsed_ns(t0);
    let t1 = Instant::now();
    let before = pipe.stats_snapshot();
    // The detailed budget is absolute and functional warming commits
    // nothing, so the window ends at `window` committed µ-ops.
    pipe.run_segment(stream, predictor, sim.window, &mut pos);
    let total = pipe.finish(predictor);
    let detailed_ns = elapsed_ns(t1);
    let stats = if sim.warm > 0 {
        total.delta_since(&before)
    } else {
        total
    };
    Outcome {
        stats,
        total,
        warm_uops,
        warm_ns,
        detailed_ns,
    }
}

/// One untraced simulation: the predictor built by `PredictorKind::build`,
/// the input replayed through its bare cursor.
pub fn run_untraced(sim: &Sim, inputs: &[Input]) -> Outcome {
    let mut p = sim.predictor.build();
    simulate(sim, &mut inputs[sim.input].buf.replay(), &mut p)
}

/// One traced simulation: the same run with the replay cursor and the
/// predictor wrapped.
pub fn run_traced(sim: &Sim, inputs: &[Input]) -> (Outcome, LayerTrace) {
    let mut p = TimedVp::new(sim.predictor.build());
    let mut stream = TimedIter::new(inputs[sim.input].buf.replay());
    let o = simulate(sim, &mut stream, &mut p);
    (
        o,
        LayerTrace {
            replay: stream.span,
            vp: p.trace,
        },
    )
}

/// Output checks of one simulation; an empty list means it passed.
pub fn check_outcome(sim: &Sim, o: &Outcome) -> Vec<String> {
    let mut problems = Vec::new();
    if o.stats.uops != sim.window {
        problems.push(format!(
            "{}: committed {} µ-ops in the detailed part, budget {}",
            sim.label, o.stats.uops, sim.window
        ));
    }
    if o.warm_uops != sim.warm {
        problems.push(format!(
            "{}: warmed {} µ-ops, budget {}",
            sim.label, o.warm_uops, sim.warm
        ));
    }
    for (what, s) in [("reported", &o.stats), ("total", &o.total)] {
        if s.vp.correct + s.vp.incorrect != s.vp.predicted {
            problems.push(format!(
                "{}: {what} vp.correct {} + vp.incorrect {} != vp.predicted {}",
                sim.label, s.vp.correct, s.vp.incorrect, s.vp.predicted
            ));
        }
        if !s.context_totals_consistent() {
            problems.push(format!(
                "{}: {what} per-context totals inconsistent",
                sim.label
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_the_canonical_specs() {
        assert_eq!(
            specs(Workload::ColdBaseline, DEFAULT_SEED),
            bebop_trace::all_spec_benchmarks()
        );
        let other = specs(Workload::ColdBaseline, 7);
        let canonical = bebop_trace::all_spec_benchmarks();
        for (a, b) in other.iter().zip(&canonical) {
            assert_ne!(a.seed, b.seed, "{} keeps its canonical seed", a.name);
            let mut same = a.clone();
            same.seed = b.seed;
            assert_eq!(&same, b, "re-seeding must keep every other parameter");
        }
        assert_eq!(
            specs(Workload::ColdBaseline, 7),
            other,
            "same seed, same inputs"
        );
    }

    #[test]
    fn recording_again_keeps_the_inputs_and_the_fastest_time() {
        let w = Workload::WarmWindow;
        let mut setup = Setup::record(w, &Scale::TINY, specs(w, DEFAULT_SEED));
        let before: Vec<Vec<DynUop>> = setup
            .inputs
            .iter()
            .map(|i| i.buf.replay().collect())
            .collect();
        let ns = setup.ns();
        setup.rerecord(setup.inputs.len() + 1);
        let after: Vec<Vec<DynUop>> = setup
            .inputs
            .iter()
            .map(|i| i.buf.replay().collect())
            .collect();
        assert_eq!(before, after);
        assert!(setup.ns() <= ns && setup.ns() > 0.0);
    }

    #[test]
    fn workloads_have_the_documented_shape() {
        let scale = Scale::TINY;
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            let specs = specs(w, DEFAULT_SEED);
            let inputs: Vec<Input> = specs
                .iter()
                .map(|s| Input {
                    name: s.name.clone(),
                    buf: TraceBuffer::default(),
                })
                .collect();
            let sims = sims(w, &scale, &inputs);
            let expected = match w {
                Workload::ColdBaseline => 36,
                Workload::BebopEole => 36 * 5,
                Workload::WarmWindow => 6 * 2,
            };
            assert_eq!(sims.len(), expected, "{}", w.name());
        }
    }
}
