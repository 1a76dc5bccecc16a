//! The benchmark's metric catalogue, the `BENCHMARK.json` it renders, and the
//! small statistics and output helpers every workload shares.
//!
//! The catalogue is the single source of truth: the benchmark's manifest is
//! generated from it (`--write-manifest`), a test keeps the committed file in
//! step, and every run checks that it emitted exactly the catalogued names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures, as recorded in the manifest.
pub const RUN_SECONDS: u64 = 35;

/// One named metric: its unit, which direction is better, and (end-to-end
/// metrics only) the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the simulator sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("sim_muops_per_s", "Muops/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("ipc_err_table2", "ln", "lower", 0.25),
];

/// Metrics of single layers, measured by the separate traced run.
pub const PER_LAYER: [MetricDef; 33] = [
    layer("trace.record_ns_per_uop", "ns/uop", "lower"),
    layer("trace.bytes_per_uop", "B/uop", "lower"),
    layer("trace.replay_ns_per_uop", "ns/uop", "lower"),
    layer("trace.replay_share", "ratio", "lower"),
    layer("vp.predict_calls", "count", "lower"),
    layer("vp.predict_ns", "ns/call", "lower"),
    layer("vp.train_calls", "count", "lower"),
    layer("vp.train_ns", "ns/call", "lower"),
    layer("vp.squash_calls", "count", "lower"),
    layer("vp.squash_ns", "ns/call", "lower"),
    layer("vp.share", "ratio", "lower"),
    layer("vp.used_ratio", "ratio", "higher"),
    layer("vp.accuracy", "ratio", "higher"),
    layer("branch.calls", "count", "lower"),
    layer("branch.ns_per_call", "ns/call", "lower"),
    layer("branch.mpku", "1/kuop", "lower"),
    layer("cache.accesses", "count", "lower"),
    layer("cache.ns_per_access", "ns/access", "lower"),
    layer("cache.l1d_miss_ratio", "ratio", "lower"),
    layer("cache.l2_miss_ratio", "ratio", "lower"),
    layer("cache.prefetches", "count", "lower"),
    layer("pipeline.self_ns_per_uop", "ns/uop", "lower"),
    layer("pipeline.warm_ns_per_uop", "ns/uop", "lower"),
    layer("pipeline.detailed_ns_per_uop", "ns/uop", "lower"),
    layer("pipeline.sim_ns_per_uop_p50", "ns/uop", "lower"),
    layer("pipeline.sim_ns_per_uop_tail", "ns/uop", "lower"),
    layer("pipeline.uop_ipc_gmean", "uop/cycle", "higher"),
    layer("pipeline.branch_flushes_pku", "1/kuop", "lower"),
    layer("pipeline.vp_flushes_pku", "1/kuop", "lower"),
    layer("pipeline.eole_early_frac", "ratio", "higher"),
    layer("pipeline.eole_late_frac", "ratio", "higher"),
    layer("tracing.overhead_ratio", "ratio", "lower"),
    layer("tracing.clock_read_ns", "ns/read", "lower"),
];

/// The catalogued metrics of one mode: end-to-end untraced, per-layer traced.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Renders the benchmark manifest `BENCHMARK.json` from the catalogue.
pub fn manifest_json(workloads: &[(&str, &str)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(name),
            json_str(why)
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound.unwrap_or(0.0)
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// A JSON string literal (the catalogue and workload texts are plain ASCII;
/// quotes, backslashes and control characters are escaped regardless).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Values of one run, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Looks a catalogued metric up by name.
pub fn def(traced: bool, name: &str) -> Option<&'static MetricDef> {
    catalogue(traced).iter().find(|m| m.name == name)
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, the metrics in catalogue order with their units.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    traced: bool,
    values: &Values,
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    let mut first = true;
    for m in catalogue(traced) {
        if let Some(v) = values.get(m.name) {
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(*v),
                json_str(m.unit)
            );
        }
    }
    s.push_str("}}");
    s
}

/// A finite number with every digit `f64` carries (`Display` prints the
/// shortest representation that round-trips). Non-finite values cannot occur
/// in a passing run — `check_values` rejects them — and render as 0 so the
/// line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Names the catalogue expects but `values` lacks, names it has that the
/// catalogue does not know, and non-finite or negative values.
pub fn check_values(traced: bool, values: &Values) -> Vec<String> {
    let mut problems = Vec::new();
    for m in catalogue(traced) {
        match values.get(m.name) {
            None => problems.push(format!("metric {} not emitted", m.name)),
            Some(v) if !v.is_finite() || *v < 0.0 => {
                problems.push(format!("metric {} has invalid value {v}", m.name))
            }
            Some(_) => {}
        }
    }
    for name in values.keys() {
        if def(traced, name).is_none() {
            problems.push(format!("metric {name} is not catalogued"));
        }
    }
    problems
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `xs`: the highest percentile with at least ten samples beyond
/// it, as `(value, percentile, n)`. With twenty samples or fewer that
/// percentile would not lie above the median, so the maximum (percentile
/// 100) is returned.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    if n <= 20 {
        return (v[n - 1], 100.0, n);
    }
    // Rank k (1-based) leaves n - k samples beyond it.
    let k = n - 10;
    (v[k - 1], 100.0 * k as f64 / n as f64, n)
}

/// Geometric mean of positive values (0 if any is not positive).
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over a byte stream: the digest of a workload's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=36).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!(n, 36);
        assert_eq!(v, 26.0);
        assert_eq!(xs.iter().filter(|x| **x > v).count(), 10);
        assert!((p - 72.22).abs() < 0.01);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&twelve), (12.0, 100.0, 12));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        let setup = def(false, "setup_s").expect("setup_s is catalogued");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::new();
        v.insert("setup_s", 0.5);
        let line = result_json(true, 3, 0, false, &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(check_values(false, &v)
            .iter()
            .any(|p| p.contains("sim_muops_per_s")));
    }
}
