//! Reading and diffing the `figures --json` perf reports.
//!
//! The report format is this repository's own (`bebop-bench-figures/v1`,
//! written by the `figures` binary), so a dependency-free field scanner is
//! enough: no external JSON crate is available in the offline build image, and
//! none is needed. The `perf_gate` binary uses [`diff`] in CI to fail pull
//! requests whose aggregate µops/sec regresses more than the tolerance against
//! the committed `BENCH_figures.json` baseline.

/// One parsed perf report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Worker threads the run fanned out over.
    pub threads: u64,
    /// µ-ops simulated per run (`--uops`).
    pub uops_per_run: u64,
    /// Aggregate simulation throughput over every experiment.
    pub total_uops_per_sec: f64,
    /// Wrong-path µ-ops fetched by the `--wrong-path` experiment (0 when it
    /// did not run, and for reports from before the mode existed).
    pub wrong_path_fetched: u64,
    /// Wrong-path µ-ops that were speculatively executed.
    pub wrong_path_executed: u64,
    /// Polluting wrong-path predictor updates delivered by the experiment.
    pub wrong_path_vp_trains: u64,
    /// Heuristically attributed pollution-induced value mispredictions.
    pub wrong_path_pollution_mispredicts: u64,
    /// Quantum-boundary context switches simulated by the `--mix` experiment
    /// (0 when it did not run, and for reports from before the mode existed).
    pub mix_context_switches: u64,
    /// Cross-context predictor-entry steals observed by the `--mix`
    /// experiment's sharded tables.
    pub mix_shard_steals: u64,
    /// Cells in the `--sweep` request (0 when no sweep ran, and for reports
    /// from before the sweep engine existed).
    pub sweep_cells_total: u64,
    /// Sweep cells restored from the journal instead of re-simulated.
    pub sweep_cells_resumed: u64,
    /// Sweep cells newly simulated by the run.
    pub sweep_cells_executed: u64,
    /// Sweep cells quarantined (panicked configuration).
    pub sweep_cells_quarantined: u64,
    /// Transient-I/O retries the sweep engine performed.
    pub sweep_io_retries: u64,
    /// Profiling slices in the `--sample` experiment, summed over benchmarks
    /// (0 when it did not run, and for reports from before sampling existed).
    pub sampled_slices: u64,
    /// Phases (representative slices) the `--sample` experiment simulated,
    /// summed over benchmarks.
    pub sampled_phases: u64,
    /// Detailed µ-ops the `--sample` experiment actually simulated.
    pub sampled_simulated_uops: u64,
    /// µ-ops a full (unsampled) run of the same budget would simulate.
    pub sampled_full_uops: u64,
    /// `(experiment name, µops/sec)` rows, in report order.
    pub experiments: Vec<(String, f64)>,
}

/// Writes `text` to `path` via a temporary file in the same directory plus an
/// atomic rename, so a crash mid-write can never leave a torn report for the
/// perf gate (or a watching dashboard) to choke on.
pub fn write_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let mut tmp = dir.map_or_else(std::path::PathBuf::new, |d| d.to_path_buf());
    tmp.push(format!(
        ".tmp-{}-{}",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("perf-report"),
        std::process::id()
    ));
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Extracts the JSON number following `"key":` in `text`, starting at `from`.
fn number_after(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let pat = format!("\"{key}\"");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start_matches([':', ' ', '\t']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    let value: f64 = rest[..end].parse().ok()?;
    Some((value, at))
}

/// Extracts the JSON string following `"key":` in `text`, starting at `from`.
fn string_after(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let pat = format!("\"{key}\"");
    let at = text[from..].find(&pat)? + from + pat.len();
    let open = text[at..].find('"')? + at + 1;
    let close = text[open..].find('"')? + open;
    Some((text[open..close].to_string(), close))
}

/// Parses a `bebop-bench-figures/v1` report.
///
/// Returns `None` when the schema marker or any required field is missing, so
/// callers fail loudly on truncated or foreign files instead of gating on
/// garbage.
pub fn parse(text: &str) -> Option<PerfReport> {
    if !text.contains("bebop-bench-figures/v1") {
        return None;
    }
    let threads = number_after(text, "threads", 0)?.0 as u64;
    let uops_per_run = number_after(text, "uops_per_run", 0)?.0 as u64;
    let total_uops_per_sec = number_after(text, "total_uops_per_sec", 0)?.0;
    // Optional: reports written before the wrong-path mode read as 0.
    let wrong_path_fetched =
        number_after(text, "wrong_path_fetched", 0).map_or(0, |(v, _)| v as u64);
    let wrong_path_executed =
        number_after(text, "wrong_path_executed", 0).map_or(0, |(v, _)| v as u64);
    let wrong_path_vp_trains =
        number_after(text, "wrong_path_vp_trains", 0).map_or(0, |(v, _)| v as u64);
    let wrong_path_pollution_mispredicts =
        number_after(text, "wrong_path_pollution_mispredicts", 0).map_or(0, |(v, _)| v as u64);
    // Optional: reports written before the multi-programmed mode read as 0.
    let mix_context_switches =
        number_after(text, "mix_context_switches", 0).map_or(0, |(v, _)| v as u64);
    let mix_shard_steals = number_after(text, "mix_shard_steals", 0).map_or(0, |(v, _)| v as u64);
    // Optional: reports written before the sweep engine read as 0.
    let sweep_cells_total = number_after(text, "sweep_cells_total", 0).map_or(0, |(v, _)| v as u64);
    let sweep_cells_resumed =
        number_after(text, "sweep_cells_resumed", 0).map_or(0, |(v, _)| v as u64);
    let sweep_cells_executed =
        number_after(text, "sweep_cells_executed", 0).map_or(0, |(v, _)| v as u64);
    let sweep_cells_quarantined =
        number_after(text, "sweep_cells_quarantined", 0).map_or(0, |(v, _)| v as u64);
    let sweep_io_retries = number_after(text, "sweep_io_retries", 0).map_or(0, |(v, _)| v as u64);
    // Optional: reports written before phase sampling read as 0.
    let sampled_slices = number_after(text, "sampled_slices", 0).map_or(0, |(v, _)| v as u64);
    let sampled_phases = number_after(text, "sampled_phases", 0).map_or(0, |(v, _)| v as u64);
    let sampled_simulated_uops =
        number_after(text, "sampled_simulated_uops", 0).map_or(0, |(v, _)| v as u64);
    let sampled_full_uops = number_after(text, "sampled_full_uops", 0).map_or(0, |(v, _)| v as u64);

    let exp_at = text.find("\"experiments\"")?;
    let mut experiments = Vec::new();
    let mut cursor = exp_at;
    while let Some((name, after_name)) = string_after(text, "name", cursor) {
        let (ups, after_ups) = number_after(text, "uops_per_sec", after_name)?;
        experiments.push((name, ups));
        cursor = after_ups;
    }
    if experiments.is_empty() {
        return None;
    }
    Some(PerfReport {
        threads,
        uops_per_run,
        total_uops_per_sec,
        wrong_path_fetched,
        wrong_path_executed,
        wrong_path_vp_trains,
        wrong_path_pollution_mispredicts,
        mix_context_switches,
        mix_shard_steals,
        sweep_cells_total,
        sweep_cells_resumed,
        sweep_cells_executed,
        sweep_cells_quarantined,
        sweep_io_retries,
        sampled_slices,
        sampled_phases,
        sampled_simulated_uops,
        sampled_full_uops,
        experiments,
    })
}

/// The verdict of a baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Human-readable comparison rows (one per experiment plus the total).
    pub lines: Vec<String>,
    /// `Some(message)` when the aggregate throughput (or, in per-experiment
    /// mode, any single experiment) regressed beyond its tolerance — the
    /// CI-failing condition.
    pub failure: Option<String>,
}

fn ratio_row(name: &str, base: f64, cur: f64, tolerance: f64) -> (String, bool) {
    if base <= 0.0 {
        return (format!("  {name:<12} baseline unusable ({base})"), false);
    }
    let ratio = cur / base;
    let regressed = ratio < 1.0 - tolerance;
    let marker = if regressed { "  << REGRESSION" } else { "" };
    (
        format!("  {name:<12} {base:>12.0} -> {cur:>12.0} uops/s  ({ratio:.2}x){marker}",),
        regressed,
    )
}

/// Compares `current` against `baseline` with a relative `tolerance`
/// (0.20 = fail on a >20% drop). The gate fires on the *aggregate*
/// µops/sec only; per-experiment regressions are reported as context (single
/// experiments are noisy on shared CI runners, the aggregate is not).
///
/// This is the aggregate-only mode kept for existing callers;
/// [`diff_gated`] adds per-experiment gating on top.
pub fn diff(baseline: &PerfReport, current: &PerfReport, tolerance: f64) -> PerfDiff {
    diff_gated(baseline, current, tolerance, None)
}

/// Like [`diff`], but when `per_experiment` is `Some(t)` every experiment
/// also gates individually with relative tolerance `t`. A single experiment
/// is far noisier than the aggregate on a shared CI runner, so `t` should be
/// looser than the aggregate tolerance (the historical bug this closes: a
/// one-experiment cliff — e.g. one figure falling to a third of its siblings
/// — hides inside an aggregate that still passes). An experiment present in
/// the baseline but missing from the current report also fails in this mode.
pub fn diff_gated(
    baseline: &PerfReport,
    current: &PerfReport,
    tolerance: f64,
    per_experiment: Option<f64>,
) -> PerfDiff {
    let mut lines = Vec::new();
    if baseline.threads != current.threads || baseline.uops_per_run != current.uops_per_run {
        lines.push(format!(
            "  note: baseline ran {} thread(s) x {} uops, current {} thread(s) x {} uops",
            baseline.threads, baseline.uops_per_run, current.threads, current.uops_per_run
        ));
    }
    if baseline.wrong_path_fetched > 0 || current.wrong_path_fetched > 0 {
        lines.push(format!(
            "  wrong path: {} fetched / {} executed / {} polluting train(s) / {} attributed mispredict(s) (baseline {} / {} / {} / {})",
            current.wrong_path_fetched,
            current.wrong_path_executed,
            current.wrong_path_vp_trains,
            current.wrong_path_pollution_mispredicts,
            baseline.wrong_path_fetched,
            baseline.wrong_path_executed,
            baseline.wrong_path_vp_trains,
            baseline.wrong_path_pollution_mispredicts
        ));
    }
    if baseline.mix_context_switches > 0 || current.mix_context_switches > 0 {
        lines.push(format!(
            "  mix: {} context switch(es) / {} shard steal(s) (baseline {} / {})",
            current.mix_context_switches,
            current.mix_shard_steals,
            baseline.mix_context_switches,
            baseline.mix_shard_steals
        ));
    }
    if baseline.sweep_cells_total > 0 || current.sweep_cells_total > 0 {
        lines.push(format!(
            "  sweep: {} cell(s), {} resumed / {} executed / {} quarantined, {} io retry(ies) (baseline {} / {} / {} / {} / {})",
            current.sweep_cells_total,
            current.sweep_cells_resumed,
            current.sweep_cells_executed,
            current.sweep_cells_quarantined,
            current.sweep_io_retries,
            baseline.sweep_cells_total,
            baseline.sweep_cells_resumed,
            baseline.sweep_cells_executed,
            baseline.sweep_cells_quarantined,
            baseline.sweep_io_retries
        ));
    }
    if baseline.sampled_phases > 0 || current.sampled_phases > 0 {
        lines.push(format!(
            "  sample: {} slice(s), {} phase(s), {} of {} µops simulated (baseline {} / {} / {} / {})",
            current.sampled_slices,
            current.sampled_phases,
            current.sampled_simulated_uops,
            current.sampled_full_uops,
            baseline.sampled_slices,
            baseline.sampled_phases,
            baseline.sampled_simulated_uops,
            baseline.sampled_full_uops
        ));
    }
    let exp_tolerance = per_experiment.unwrap_or(tolerance);
    let mut exp_failures: Vec<String> = Vec::new();
    for (name, base_ups) in &baseline.experiments {
        if let Some((_, cur_ups)) = current.experiments.iter().find(|(n, _)| n == name) {
            let (line, regressed) = ratio_row(name, *base_ups, *cur_ups, exp_tolerance);
            lines.push(line);
            if regressed && per_experiment.is_some() {
                exp_failures.push(format!(
                    "{name} regressed >{:.0}%: {base_ups:.0} -> {cur_ups:.0} uops/s",
                    exp_tolerance * 100.0
                ));
            }
        } else {
            lines.push(format!("  {name:<12} missing from the current report"));
            if per_experiment.is_some() {
                exp_failures.push(format!("{name} missing from the current report"));
            }
        }
    }
    let (total_line, regressed) = ratio_row(
        "TOTAL",
        baseline.total_uops_per_sec,
        current.total_uops_per_sec,
        tolerance,
    );
    lines.push(total_line);
    let mut failures: Vec<String> = Vec::new();
    if regressed {
        failures.push(format!(
            "aggregate throughput regressed >{:.0}%: {:.0} -> {:.0} uops/s",
            tolerance * 100.0,
            baseline.total_uops_per_sec,
            current.total_uops_per_sec
        ));
    }
    failures.extend(exp_failures);
    let failure = (!failures.is_empty()).then(|| failures.join("; "));
    PerfDiff { lines, failure }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total: f64, fig8: f64) -> String {
        format!(
            r#"{{
  "schema": "bebop-bench-figures/v1",
  "threads": 4,
  "uops_per_run": 200000,
  "benchmarks": 36,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": {total},
  "experiments": [
    {{"name": "table2", "wall_s": 1.0, "uops": 500, "uops_per_sec": 500.0}},
    {{"name": "fig8", "wall_s": 9.5, "uops": 500, "uops_per_sec": {fig8}}}
  ]
}}
"#
        )
    }

    #[test]
    fn parses_the_report_shape_figures_emits() {
        let r = parse(&report(2843903.0, 3491105.2)).expect("parse");
        assert_eq!(r.threads, 4);
        assert_eq!(r.uops_per_run, 200_000);
        assert!((r.total_uops_per_sec - 2843903.0).abs() < 1e-6);
        assert_eq!(r.experiments.len(), 2);
        assert_eq!(r.experiments[0].0, "table2");
        assert!((r.experiments[1].1 - 3491105.2).abs() < 1e-6);
    }

    #[test]
    fn parses_the_committed_baseline() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_figures.json"
        ))
        .expect("committed baseline exists");
        let r = parse(&text).expect("baseline parses");
        assert!(r.total_uops_per_sec > 0.0);
        assert!(!r.experiments.is_empty());
    }

    #[test]
    fn reports_with_retired_store_counters_still_parse() {
        // Reports written while the on-disk trace store existed (the
        // committed baseline among them) carry `trace_store_*` keys; the
        // scanner must read every other field around them and the gate must
        // still compare them.
        let with_store = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 1,
  "uops_per_run": 200000,
  "benchmarks": 36,
  "trace_store_hits": 36,
  "trace_store_misses": 2,
  "trace_generated_uops": 400000,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "fig8", "wall_s": 9.5, "uops": 500, "uops_per_sec": 1000.0}
  ]
}
"#;
        let old = parse(with_store).expect("a report with store counters parses");
        assert_eq!((old.threads, old.uops_per_run), (1, 200_000));
        assert!((old.total_uops_per_sec - 1000.0).abs() < 1e-9);
        assert_eq!(old.experiments, vec![("fig8".to_string(), 1000.0)]);
        let cur = parse(&report(1000.0, 1000.0)).unwrap();
        let d = diff(&old, &cur, 0.20);
        assert!(d.failure.is_none(), "{:?}", d.lines);
        assert!(d.lines.iter().any(|l| l.contains("fig8")), "{:?}", d.lines);
    }

    #[test]
    fn wrong_path_counters_parse_and_default_to_zero() {
        // Old reports (no wrong-path fields) parse as zero traffic.
        let old = parse(&report(1000.0, 1000.0)).expect("parse");
        assert_eq!(old.wrong_path_fetched, 0);
        assert_eq!(old.wrong_path_executed, 0);
        assert_eq!(old.wrong_path_vp_trains, 0);
        assert_eq!(old.wrong_path_pollution_mispredicts, 0);

        let with_wp = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 1,
  "uops_per_run": 200000,
  "benchmarks": 36,
  "wrong_path_fetched": 1234,
  "wrong_path_executed": 1000,
  "wrong_path_vp_trains": 321,
  "wrong_path_pollution_mispredicts": 7,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "wrongpath", "wall_s": 9.5, "uops": 500, "uops_per_sec": 1000.0}
  ]
}
"#;
        let cur = parse(with_wp).expect("parse");
        assert_eq!(cur.wrong_path_fetched, 1234);
        assert_eq!(cur.wrong_path_executed, 1000);
        assert_eq!(cur.wrong_path_vp_trains, 321);
        assert_eq!(cur.wrong_path_pollution_mispredicts, 7);
        let d = diff(&old, &cur, 0.20);
        assert!(
            d.lines
                .iter()
                .any(|l| l.contains("1234 fetched / 1000 executed / 321 polluting")),
            "{:?}",
            d.lines
        );
        // No wrong-path traffic on either side: no wrong-path line.
        let quiet = diff(&old, &old, 0.20);
        assert!(!quiet.lines.iter().any(|l| l.contains("wrong path")));
    }

    #[test]
    fn mix_counters_parse_and_default_to_zero() {
        // Old reports (no mix fields) parse as zero traffic.
        let old = parse(&report(1000.0, 1000.0)).expect("parse");
        assert_eq!(old.mix_context_switches, 0);
        assert_eq!(old.mix_shard_steals, 0);

        let with_mix = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 1,
  "uops_per_run": 200000,
  "benchmarks": 36,
  "mix_context_switches": 57,
  "mix_shard_steals": 12,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "mix", "wall_s": 9.5, "uops": 500, "uops_per_sec": 1000.0}
  ]
}
"#;
        let cur = parse(with_mix).expect("parse");
        assert_eq!(cur.mix_context_switches, 57);
        assert_eq!(cur.mix_shard_steals, 12);
        let d = diff(&old, &cur, 0.20);
        assert!(
            d.lines
                .iter()
                .any(|l| l.contains("57 context switch(es) / 12 shard steal(s)")),
            "{:?}",
            d.lines
        );
        // No mix traffic on either side: no mix line.
        let quiet = diff(&old, &old, 0.20);
        assert!(!quiet.lines.iter().any(|l| l.contains("mix:")));
    }

    #[test]
    fn sweep_counters_parse_and_default_to_zero() {
        // Old reports (no sweep fields) parse as zero traffic.
        let old = parse(&report(1000.0, 1000.0)).expect("parse");
        assert_eq!(old.sweep_cells_total, 0);
        assert_eq!(old.sweep_cells_resumed, 0);
        assert_eq!(old.sweep_cells_executed, 0);
        assert_eq!(old.sweep_cells_quarantined, 0);
        assert_eq!(old.sweep_io_retries, 0);

        let with_sweep = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 1,
  "uops_per_run": 200000,
  "benchmarks": 6,
  "sweep_cells_total": 66,
  "sweep_cells_resumed": 40,
  "sweep_cells_executed": 26,
  "sweep_cells_quarantined": 1,
  "sweep_io_retries": 3,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "sweep", "wall_s": 9.5, "uops": 500, "uops_per_sec": 1000.0}
  ]
}
"#;
        let cur = parse(with_sweep).expect("parse");
        assert_eq!(cur.sweep_cells_total, 66);
        assert_eq!(cur.sweep_cells_resumed, 40);
        assert_eq!(cur.sweep_cells_executed, 26);
        assert_eq!(cur.sweep_cells_quarantined, 1);
        assert_eq!(cur.sweep_io_retries, 3);
        let d = diff(&old, &cur, 0.20);
        assert!(
            d.lines
                .iter()
                .any(|l| l.contains("66 cell(s), 40 resumed / 26 executed / 1 quarantined")),
            "{:?}",
            d.lines
        );
        // No sweep traffic on either side: no sweep line.
        let quiet = diff(&old, &old, 0.20);
        assert!(!quiet.lines.iter().any(|l| l.contains("sweep:")));
    }

    #[test]
    fn sampled_counters_parse_and_default_to_zero() {
        // Old reports (no sampling fields) parse as zero traffic.
        let old = parse(&report(1000.0, 1000.0)).expect("parse");
        assert_eq!(old.sampled_slices, 0);
        assert_eq!(old.sampled_phases, 0);
        assert_eq!(old.sampled_simulated_uops, 0);
        assert_eq!(old.sampled_full_uops, 0);

        let with_sample = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 1,
  "uops_per_run": 200000,
  "benchmarks": 6,
  "sampled_slices": 300,
  "sampled_phases": 48,
  "sampled_simulated_uops": 240000,
  "sampled_full_uops": 1200000,
  "total_wall_s": 10.5,
  "total_uops": 1000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "sample", "wall_s": 9.5, "uops": 500, "uops_per_sec": 1000.0}
  ]
}
"#;
        let cur = parse(with_sample).expect("parse");
        assert_eq!(cur.sampled_slices, 300);
        assert_eq!(cur.sampled_phases, 48);
        assert_eq!(cur.sampled_simulated_uops, 240_000);
        assert_eq!(cur.sampled_full_uops, 1_200_000);
        let d = diff(&old, &cur, 0.20);
        assert!(
            d.lines
                .iter()
                .any(|l| l.contains("300 slice(s), 48 phase(s), 240000 of 1200000")),
            "{:?}",
            d.lines
        );
        // No sampling traffic on either side: no sample line.
        let quiet = diff(&old, &old, 0.20);
        assert!(!quiet.lines.iter().any(|l| l.contains("sample:")));
    }

    #[test]
    fn write_atomic_replaces_the_file_in_one_step() {
        let dir = std::env::temp_dir().join(format!("bebop-perfjson-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        // No temporary debris left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // A missing parent directory is a clean error, not a panic.
        assert!(write_atomic(&dir.join("no/such/dir/r.json"), "x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_foreign_or_truncated_files() {
        assert!(parse("{}").is_none());
        assert!(parse("{\"schema\": \"bebop-bench-figures/v1\"}").is_none());
        assert!(parse("not json at all").is_none());
    }

    #[test]
    fn diff_passes_within_tolerance() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(900.0, 500.0)).unwrap();
        // Total dropped 10% (within 20%); fig8 dropped 50% but only informs.
        let d = diff(&base, &cur, 0.20);
        assert!(d.failure.is_none(), "{:?}", d.lines);
        assert!(d.lines.iter().any(|l| l.contains("REGRESSION")));
    }

    #[test]
    fn diff_fails_on_aggregate_regression() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(700.0, 1000.0)).unwrap();
        let d = diff(&base, &cur, 0.20);
        assert!(d.failure.is_some());
    }

    #[test]
    fn per_experiment_gate_catches_a_single_outlier() {
        // One experiment falls to half while the aggregate stays within
        // tolerance — the exact shape the aggregate-only gate waved through.
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(950.0, 500.0)).unwrap();
        assert!(diff(&base, &cur, 0.20).failure.is_none());
        let gated = diff_gated(&base, &cur, 0.20, Some(0.35));
        let msg = gated.failure.expect("per-experiment gate must fire");
        assert!(msg.contains("fig8"), "{msg}");
        assert!(!msg.contains("aggregate"), "{msg}");
    }

    #[test]
    fn per_experiment_gate_tolerates_runner_noise() {
        // A 30% single-experiment wobble stays inside the looser 35%
        // per-experiment tolerance even though it would trip the 20%
        // aggregate tolerance if applied per row.
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(980.0, 700.0)).unwrap();
        assert!(diff_gated(&base, &cur, 0.20, Some(0.35)).failure.is_none());
    }

    #[test]
    fn per_experiment_gate_fails_on_missing_experiment() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let one_exp = r#"{
  "schema": "bebop-bench-figures/v1",
  "threads": 4,
  "uops_per_run": 200000,
  "total_uops_per_sec": 1000.0,
  "experiments": [
    {"name": "table2", "wall_s": 1.0, "uops": 500, "uops_per_sec": 500.0}
  ]
}
"#;
        let cur = parse(one_exp).unwrap();
        // Aggregate-only mode reports the hole but does not gate on it.
        assert!(diff(&base, &cur, 0.20).failure.is_none());
        let msg = diff_gated(&base, &cur, 0.20, Some(0.35))
            .failure
            .expect("missing experiment must fail the per-experiment gate");
        assert!(msg.contains("fig8 missing"), "{msg}");
    }

    #[test]
    fn per_experiment_gate_reports_aggregate_and_experiment_failures_together() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(500.0, 100.0)).unwrap();
        let msg = diff_gated(&base, &cur, 0.20, Some(0.35)).failure.unwrap();
        assert!(msg.contains("aggregate"), "{msg}");
        assert!(msg.contains("fig8"), "{msg}");
    }

    #[test]
    fn diff_improvements_never_fail() {
        let base = parse(&report(1000.0, 1000.0)).unwrap();
        let cur = parse(&report(5000.0, 5000.0)).unwrap();
        assert!(diff(&base, &cur, 0.20).failure.is_none());
    }
}
