//! One benchmark run: set up a workload, measure it untraced (end-to-end
//! metrics) or traced (per-layer metrics), and check every output.
//!
//! Every simulation is repeated for the whole measured phase. Host
//! interference on a shared machine only ever slows a run down, so host
//! times are taken from each simulation's fastest repeat: the run-to-run
//! spread of the median pass was about six times wider on the reference
//! machine (see `README.md`). Set-up is timed the same way: inputs are
//! recorded again between passes, and each one's fastest recording counts.

use crate::metrics::{self, gmean, median, ratio, tail, Digest, Values};
use crate::table2;
use crate::tracer::{self, elapsed_ns, LayerTrace, Replay, Span};
use crate::workloads::{self, check_outcome, Input, Outcome, Scale, Setup, Sim, Workload};
use bebop_uarch::{BranchStats, MemStats, SimStats};
use std::time::{Duration, Instant};

/// After every pass, inputs are recorded again, round-robin, for this share
/// of the pass's host time.
const RERECORD_SHARE: f64 = 0.1;

/// Problems beyond this many are counted but not listed.
const MAX_LISTED_PROBLEMS: usize = 20;

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: Values,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Digest of every simulation's statistics, in simulation order.
    pub digest: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < MAX_LISTED_PROBLEMS {
            self.problems.push(p);
        } else if self.problems.len() == MAX_LISTED_PROBLEMS {
            self.problems
                .push("further problems not listed".to_string());
        }
    }

    /// Counts one failed simulation with its reasons.
    fn fail(&mut self, reasons: Vec<String>) {
        self.failed += 1;
        for r in reasons {
            self.problem(r);
        }
    }
}

/// Runs `f`, turning a panic into `Err(reason)`: one simulation that panics
/// is one failed operation, not a failed benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(bebop::panic_reason)
}

/// Per simulation, the fastest repeat's host ns and what it recorded.
#[derive(Debug)]
struct Fastest<T>(Vec<Option<(u64, T)>>);

impl<T> Fastest<T> {
    fn new(n: usize) -> Self {
        Fastest(std::iter::repeat_with(|| None).take(n).collect())
    }

    fn offer(&mut self, i: usize, ns: u64, what: T) {
        if self.0[i].as_ref().map_or(true, |(best, _)| ns < *best) {
            self.0[i] = Some((ns, what));
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, T)> {
        self.0.iter().flatten()
    }

    fn ns(&self) -> u64 {
        self.iter().map(|(ns, _)| ns).sum()
    }
}

/// Per-simulation reference outcomes: the first successful run of each
/// simulation, against which every later run of it is compared.
struct Runs<'a> {
    sims: &'a [Sim],
    reference: Vec<Option<Outcome>>,
    /// Untraced: fastest repeat per simulation, with its outcome.
    untraced: Fastest<Outcome>,
    /// Traced: fastest repeat per simulation, with its layer spans.
    traced: Fastest<LayerTrace>,
    traced_passes: u64,
    /// Standalone replays: fastest per simulation. Their statistics equal
    /// the pipeline's on every repeat, so any one repeat's will do.
    branch: Fastest<Replay<BranchStats>>,
    cache: Fastest<Replay<MemStats>>,
}

impl<'a> Runs<'a> {
    fn new(sims: &'a [Sim]) -> Self {
        let n = sims.len();
        Runs {
            sims,
            reference: vec![None; n],
            untraced: Fastest::new(n),
            traced: Fastest::new(n),
            traced_passes: 0,
            branch: Fastest::new(n),
            cache: Fastest::new(n),
        }
    }

    /// Checks `o` and records or compares it; returns whether it passed.
    fn accept(&mut self, report: &mut Report, i: usize, o: &Outcome, how: &str) -> bool {
        let sim = &self.sims[i];
        let mut bad = check_outcome(sim, o);
        match &self.reference[i] {
            None => self.reference[i] = Some(*o),
            Some(r) if r.stats != o.stats || r.total != o.total => bad.push(format!(
                "{}: {how} run's SimStats differ from the first run's",
                sim.label
            )),
            Some(_) => {}
        }
        let ok = bad.is_empty();
        if !ok {
            report.fail(bad);
        }
        ok
    }

    fn untraced_pass(&mut self, report: &mut Report, inputs: &[Input]) {
        for i in 0..self.sims.len() {
            let sim = &self.sims[i];
            report.attempted += 1;
            let t = Instant::now();
            let r = guarded(|| workloads::run_untraced(sim, inputs));
            let ns = elapsed_ns(t);
            match r {
                Err(reason) => report.fail(vec![format!("{}: panicked: {reason}", sim.label)]),
                Ok(o) => {
                    if self.accept(report, i, &o, "untraced") {
                        self.untraced.offer(i, ns, o);
                    }
                }
            }
        }
    }

    /// Runs every simulation through the tracer's wrappers, checks it
    /// against its untraced run, and replays its branch and load streams
    /// through standalone units checked against the pipeline's counters.
    fn traced_pass(&mut self, report: &mut Report, inputs: &[Input]) {
        self.traced_passes += 1;
        for i in 0..self.sims.len() {
            let sim = &self.sims[i];
            report.attempted += 1;
            let t = Instant::now();
            let r = guarded(|| workloads::run_traced(sim, inputs));
            let ns = elapsed_ns(t);
            let (o, layers) = match r {
                Err(reason) => {
                    report.fail(vec![format!(
                        "{}: traced run panicked: {reason}",
                        sim.label
                    )]);
                    continue;
                }
                Ok(x) => x,
            };
            if !self.accept(report, i, &o, "traced") {
                continue;
            }
            self.traced.offer(i, ns, layers);

            let buf = &inputs[sim.input].buf;
            let branches = tracer::replay_branches(buf, &sim.cfg, sim.uops());
            let loads = tracer::replay_loads(buf, &sim.cfg, sim.uops());
            let mut bad = Vec::new();
            if branches.stats != o.total.branch {
                bad.push(format!(
                    "{}: standalone branch replay {:?} != pipeline {:?}",
                    sim.label, branches.stats, o.total.branch
                ));
            }
            if loads.stats != o.total.mem {
                bad.push(format!(
                    "{}: standalone cache replay {:?} != pipeline {:?}",
                    sim.label, loads.stats, o.total.mem
                ));
            }
            if !bad.is_empty() {
                report.fail(bad);
                continue;
            }
            self.branch.offer(i, branches.span.ns, branches);
            self.cache.offer(i, loads.span.ns, loads);
        }
    }

    /// Reference outcomes of the simulations that succeeded at least once.
    fn outcomes(&self) -> impl Iterator<Item = (&Sim, &Outcome)> {
        self.sims
            .iter()
            .zip(&self.reference)
            .filter_map(|(s, o)| o.as_ref().map(|o| (s, o)))
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (sim, o) in self.sims.iter().zip(&self.reference) {
            d.update(sim.label.as_bytes());
            match o {
                Some(o) => d.update(format!("{:?}{:?}", o.stats, o.total).as_bytes()),
                None => d.update(b"failed"),
            }
        }
        d.value()
    }
}

/// Runs `workload` at `scale` under `seed` for about `seconds` of measured
/// time, untraced or traced.
pub fn run(workload: Workload, scale: &Scale, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut setup = Setup::record(workload, scale, workloads::specs(workload, seed));
    let sims = workloads::sims(workload, scale, &setup.inputs);
    run_sims(workload, scale, &mut setup, &sims, seconds, traced)
}

/// The measured part of [`run`], over prepared inputs and simulations.
pub fn run_sims(
    workload: Workload,
    scale: &Scale,
    setup: &mut Setup,
    sims: &[Sim],
    seconds: f64,
    traced: bool,
) -> Report {
    let mut report = Report::default();
    let table = match table2::rows() {
        Ok(t) => t,
        Err(e) => {
            report.problem(e);
            Vec::new()
        }
    };
    let mut runs = Runs::new(sims);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut passes = 0;
    loop {
        let pass = Instant::now();
        runs.untraced_pass(&mut report, &setup.inputs);
        if traced {
            runs.traced_pass(&mut report, &setup.inputs);
        }
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
        let budget = pass.elapsed().mul_f64(RERECORD_SHARE);
        let recording = Instant::now();
        loop {
            setup.rerecord(1);
            if recording.elapsed() >= budget {
                break;
            }
        }
    }
    let inputs = &setup.inputs;
    let setup_ns = setup.ns();
    report.digest = runs.digest();
    report.lines.push(format!(
        "passes: {passes} over {} simulation(s), host times from each simulation's fastest repeat",
        sims.len()
    ));
    report.lines.push(format!(
        "setup: {} recordings of {} input(s), set-up time from each input's fastest",
        setup.recordings,
        setup.inputs.len()
    ));
    if traced {
        layer_metrics(&mut report, &runs, inputs, setup_ns);
    } else {
        end_to_end_metrics(
            &mut report,
            &runs,
            workload,
            scale,
            inputs,
            setup_ns,
            &table,
        );
    }
    for p in metrics::check_values(traced, &report.values) {
        report.problem(p);
    }
    report
}

fn end_to_end_metrics(
    report: &mut Report,
    runs: &Runs<'_>,
    workload: Workload,
    scale: &Scale,
    inputs: &[Input],
    setup_ns: f64,
    table: &[(&str, f64)],
) {
    let uops: u64 = runs
        .untraced
        .0
        .iter()
        .zip(runs.sims)
        .filter(|(f, _)| f.is_some())
        .map(|(_, s)| s.uops())
        .sum();
    let mut slowest: Vec<(f64, &str)> = runs
        .untraced
        .0
        .iter()
        .zip(runs.sims)
        .filter_map(|(f, s)| {
            f.as_ref()
                .map(|(ns, _)| (*ns as f64 / s.uops() as f64, &*s.label))
        })
        .collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (ns_per_uop, label) in slowest.iter().take(5) {
        report
            .lines
            .push(format!("slowest: {label:<40} {ns_per_uop:8.1} ns/uop"));
    }
    let v = &mut report.values;
    v.insert(
        "sim_muops_per_s",
        ratio(uops as f64 * 1e3, runs.untraced.ns() as f64),
    );
    v.insert("setup_s", setup_ns / 1e9);
    match metrics::peak_rss_mb() {
        Some(mb) => {
            v.insert("peak_rss_mb", mb);
        }
        None => report.problem("VmHWM not readable from /proc/self/status".to_string()),
    }

    // Table II accuracy: on the workload's own Baseline_6_60 runs, or —
    // bebop-eole runs none — on untimed reference runs of its inputs.
    let reference = if workload == Workload::BebopEole {
        workloads::table2_reference(scale, inputs)
    } else {
        Vec::new()
    };
    let mut ref_runs = Runs::new(&reference);
    if !reference.is_empty() {
        ref_runs.untraced_pass(report, inputs);
    }
    let measured: Vec<(&str, f64)> = runs
        .outcomes()
        .chain(ref_runs.outcomes())
        .filter(|(s, _)| s.is_table2_baseline())
        .map(|(s, o)| (inputs[s.input].name.as_str(), o.stats.inst_ipc()))
        .collect();
    for (name, sim_ipc) in &measured {
        if let Some(paper) = table2::ipc(table, name) {
            report.lines.push(format!(
                "table2: {name:<16} ipc {sim_ipc:.3} paper {paper:.3} ratio {:.3}",
                sim_ipc / paper
            ));
        }
    }
    match table2::ipc_err(table, &measured) {
        Ok(e) => {
            report.values.insert("ipc_err_table2", e);
        }
        Err(e) => report.problem(e),
    }
}

fn layer_metrics(report: &mut Report, runs: &Runs<'_>, inputs: &[Input], setup_ns: f64) {
    let recorded: u64 = inputs.iter().map(|i| i.buf.len() as u64).sum();
    let footprint: u64 = inputs.iter().map(|i| i.buf.footprint_bytes() as u64).sum();
    let uops_of = |i: usize| runs.sims[i].uops() as f64;

    // Traced simulation time and its layer spans, fastest repeat per sim.
    let traced_ns = runs.traced.ns() as f64;
    let traced_uops: f64 = indexed_sum(&runs.traced, uops_of);
    let mut replay = Span::default();
    let mut vp = tracer::VpTrace::default();
    for (_, l) in runs.traced.iter() {
        replay.add(l.replay);
        vp.add(&l.vp);
    }
    // The untraced repeats of the same simulations, for the overhead ratio.
    let untraced_same: u64 = runs
        .traced
        .0
        .iter()
        .zip(&runs.untraced.0)
        .filter(|(t, _)| t.is_some())
        .filter_map(|(_, u)| u.as_ref().map(|(ns, _)| *ns))
        .sum();

    let v = &mut report.values;
    v.insert("trace.record_ns_per_uop", ratio(setup_ns, recorded as f64));
    v.insert(
        "trace.bytes_per_uop",
        ratio(footprint as f64, recorded as f64),
    );
    v.insert(
        "trace.replay_ns_per_uop",
        ratio(replay.ns as f64, replay.calls as f64),
    );
    v.insert("trace.replay_share", ratio(replay.ns as f64, traced_ns));
    v.insert("vp.predict_calls", vp.predict.calls as f64);
    v.insert(
        "vp.predict_ns",
        ratio(vp.predict.ns as f64, vp.predict.calls as f64),
    );
    v.insert("vp.train_calls", vp.train.calls as f64);
    v.insert(
        "vp.train_ns",
        ratio(vp.train.ns as f64, vp.train.calls as f64),
    );
    v.insert("vp.squash_calls", vp.squash.calls as f64);
    v.insert(
        "vp.squash_ns",
        ratio(vp.squash.ns as f64, vp.squash.calls as f64),
    );
    v.insert("vp.share", ratio(vp.ns() as f64, traced_ns));
    v.insert(
        "vp.used_ratio",
        ratio(vp.used as f64, vp.predict.calls as f64),
    );
    let stats: Vec<&SimStats> = runs.outcomes().map(|(_, o)| &o.stats).collect();
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    v.insert(
        "vp.accuracy",
        ratio(sum(|s| s.vp.correct), sum(|s| s.vp.predicted)),
    );

    let mut branch = Span::default();
    runs.branch.iter().for_each(|(_, r)| branch.add(r.span));
    let replayed: f64 = indexed_sum(&runs.branch, uops_of);
    let b = |f: fn(&BranchStats) -> u64| {
        runs.branch.iter().map(|(_, r)| f(&r.stats)).sum::<u64>() as f64
    };
    v.insert("branch.calls", branch.calls as f64);
    v.insert(
        "branch.ns_per_call",
        ratio(branch.ns as f64, branch.calls as f64),
    );
    v.insert(
        "branch.mpku",
        ratio(
            (b(|s| s.cond_mispredicts) + b(|s| s.target_mispredicts)) * 1e3,
            replayed,
        ),
    );
    let mut cache = Span::default();
    runs.cache.iter().for_each(|(_, r)| cache.add(r.span));
    let m =
        |f: fn(&MemStats) -> u64| runs.cache.iter().map(|(_, r)| f(&r.stats)).sum::<u64>() as f64;
    v.insert("cache.accesses", cache.calls as f64);
    v.insert(
        "cache.ns_per_access",
        ratio(cache.ns as f64, cache.calls as f64),
    );
    v.insert(
        "cache.l1d_miss_ratio",
        ratio(m(|s| s.l1d_misses), m(|s| s.l1d_accesses)),
    );
    v.insert(
        "cache.l2_miss_ratio",
        ratio(m(|s| s.l2_misses), m(|s| s.l2_accesses)),
    );
    v.insert("cache.prefetches", m(|s| s.prefetches));

    let self_ns = traced_ns - replay.ns as f64 - vp.ns() as f64;
    v.insert(
        "pipeline.self_ns_per_uop",
        ratio(self_ns.max(0.0), traced_uops),
    );
    let (mut warm_ns, mut warm_uops, mut detailed_ns, mut detailed_uops) = (0u64, 0u64, 0u64, 0u64);
    for (_, o) in runs.untraced.iter() {
        if o.warm_uops > 0 {
            warm_ns += o.warm_ns;
            warm_uops += o.warm_uops;
        }
        detailed_ns += o.detailed_ns;
        detailed_uops += o.stats.uops;
    }
    v.insert(
        "pipeline.warm_ns_per_uop",
        ratio(warm_ns as f64, warm_uops as f64),
    );
    v.insert(
        "pipeline.detailed_ns_per_uop",
        ratio(detailed_ns as f64, detailed_uops as f64),
    );
    // One value per simulation, its fastest untraced repeat, so the
    // percentile depends on the workload alone.
    let per_sim: Vec<f64> = runs
        .untraced
        .0
        .iter()
        .zip(runs.sims)
        .filter_map(|(f, s)| f.as_ref().map(|(ns, _)| ratio(*ns as f64, s.uops() as f64)))
        .collect();
    v.insert("pipeline.sim_ns_per_uop_p50", median(&per_sim));
    let (tail_ns, pct, n) = tail(&per_sim);
    v.insert("pipeline.sim_ns_per_uop_tail", tail_ns);
    let ipcs: Vec<f64> = stats.iter().map(|s| s.uop_ipc()).collect();
    v.insert("pipeline.uop_ipc_gmean", gmean(&ipcs));
    let uops = sum(|s| s.uops);
    v.insert(
        "pipeline.branch_flushes_pku",
        ratio(sum(|s| s.branch_flushes) * 1e3, uops),
    );
    v.insert(
        "pipeline.vp_flushes_pku",
        ratio(sum(|s| s.vp_flushes) * 1e3, uops),
    );
    v.insert(
        "pipeline.eole_early_frac",
        ratio(sum(|s| s.eole.early_executed), uops),
    );
    v.insert(
        "pipeline.eole_late_frac",
        ratio(sum(|s| s.eole.late_executed), uops),
    );
    v.insert(
        "tracing.overhead_ratio",
        ratio(traced_ns, untraced_same as f64),
    );
    v.insert("tracing.clock_read_ns", tracer::clock_read_ns());
    report.lines.push(format!(
        "tail: pipeline.sim_ns_per_uop_tail is p{pct:.1} of n={n} simulations, each at its fastest untraced repeat"
    ));
    report.lines.push(format!(
        "checks: {} traced pass(es) compared bit-for-bit with untraced; standalone branch and cache replays compared with SimStats.branch/SimStats.mem",
        runs.traced_passes
    ));
}

/// Sum of `f(i)` over the simulations `f` has a fastest repeat for.
fn indexed_sum<T>(fastest: &Fastest<T>, f: impl Fn(usize) -> f64) -> f64 {
    fastest
        .0
        .iter()
        .enumerate()
        .filter(|(_, x)| x.is_some())
        .map(|(i, _)| f(i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::DEFAULT_SEED;
    use bebop::PredictorKind;
    use bebop_uarch::PipelineConfig;

    #[test]
    fn every_named_metric_is_emitted_for_every_workload() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let report = run(w, &Scale::TINY, DEFAULT_SEED, 0.0, traced);
                assert!(
                    report.correct(),
                    "{} traced={traced}: {:?}",
                    w.name(),
                    report.problems
                );
                assert!(report.attempted > 0);
                assert_eq!(
                    report.values.len(),
                    metrics::catalogue(traced).len(),
                    "{} traced={traced}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn only_a_non_default_seed_changes_the_digest() {
        let w = Workload::ColdBaseline;
        let scale = Scale::TINY;
        let mut canonical = Setup::record(w, &scale, bebop_trace::all_spec_benchmarks());
        let sims = workloads::sims(w, &scale, &canonical.inputs);
        let from_canonical = run_sims(w, &scale, &mut canonical, &sims, 0.0, false).digest;
        let default = run(w, &scale, DEFAULT_SEED, 0.0, false).digest;
        let reseeded = run(w, &scale, 1, 0.0, false).digest;
        assert_eq!(
            default, from_canonical,
            "the default seed keeps the canonical inputs"
        );
        assert_ne!(reseeded, default, "another seed gives other inputs");
        assert_eq!(
            run(w, &scale, 1, 0.0, false).digest,
            reseeded,
            "same seed, same outputs"
        );
    }

    #[test]
    fn a_panicking_simulation_is_counted_as_failed_not_propagated() {
        let w = Workload::ColdBaseline;
        let scale = Scale::TINY;
        let specs = workloads::specs(w, DEFAULT_SEED);
        let mut setup = Setup::record(w, &scale, specs[..1].to_vec());
        let mut sims = workloads::sims(w, &scale, &setup.inputs);
        // `Pipeline::new` rejects more fetch blocks per cycle than a fetch
        // group can hold.
        let mut poisoned = PipelineConfig::baseline_6_60();
        poisoned.fetch_blocks_per_cycle = 200;
        sims.push(Sim {
            cfg: poisoned,
            predictor: PredictorKind::None,
            label: "poisoned".to_string(),
            ..sims[0].clone()
        });
        for traced in [false, true] {
            let report = run_sims(w, &scale, &mut setup, &sims, 0.0, traced);
            let runs = if traced { 2 } else { 1 };
            assert_eq!(report.attempted, 2 * runs);
            assert_eq!(report.failed, runs, "{:?}", report.problems);
            assert!(!report.correct());
            assert!(report.problems.iter().all(|p| p.starts_with("poisoned")));
        }
    }
}
