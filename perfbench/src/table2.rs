//! The paper's Table II baseline IPCs, read from `data/table2_ipc.tsv`.

use bebop_trace::SPEC_BENCHMARK_NAMES;

const TABLE2_TSV: &str = include_str!("../data/table2_ipc.tsv");

/// `(benchmark, paper IPC)` rows in Table II order, or why the data file is
/// unusable: it must hold 36 rows whose names match `SPEC_BENCHMARK_NAMES`
/// in order, each with a positive IPC.
pub fn rows() -> Result<Vec<(&'static str, f64)>, String> {
    let mut rows = Vec::new();
    for (n, line) in TABLE2_TSV.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let (Some(name), Some(ipc), None) = (cols.next(), cols.next(), cols.next()) else {
            return Err(format!("table2_ipc.tsv:{}: expected `name<TAB>ipc`", n + 1));
        };
        let ipc: f64 = ipc
            .parse()
            .map_err(|e| format!("table2_ipc.tsv:{}: bad IPC {ipc:?}: {e}", n + 1))?;
        if !(ipc.is_finite() && ipc > 0.0) {
            return Err(format!(
                "table2_ipc.tsv:{}: IPC {ipc} is not positive",
                n + 1
            ));
        }
        rows.push((name, ipc));
    }
    let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    if names != SPEC_BENCHMARK_NAMES {
        return Err(format!(
            "table2_ipc.tsv lists {} benchmarks that do not match SPEC_BENCHMARK_NAMES in order",
            rows.len()
        ));
    }
    Ok(rows)
}

/// The paper's IPC of `name`.
pub fn ipc(rows: &[(&str, f64)], name: &str) -> Option<f64> {
    rows.iter().find(|r| r.0 == name).map(|r| r.1)
}

/// Mean over benchmarks of |ln(simulated IPC / Table II IPC)|.
pub fn ipc_err(rows: &[(&str, f64)], measured: &[(&str, f64)]) -> Result<f64, String> {
    if measured.is_empty() {
        return Err("no Baseline_6_60 runs to compare with Table II".to_string());
    }
    let mut sum = 0.0;
    for (name, sim_ipc) in measured {
        let paper = ipc(rows, name).ok_or_else(|| format!("{name} is not in Table II"))?;
        if *sim_ipc <= 0.0 {
            return Err(format!("{name}: simulated IPC {sim_ipc} is not positive"));
        }
        sum += (sim_ipc / paper).ln().abs();
    }
    Ok(sum / measured.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_36_rows_in_spec_order() {
        let rows = rows().expect("data file parses");
        assert_eq!(rows.len(), 36);
        for ((name, _), expected) in rows.iter().zip(SPEC_BENCHMARK_NAMES) {
            assert_eq!(*name, expected);
        }
        assert_eq!(ipc(&rows, "429.mcf"), Some(0.113));
    }

    #[test]
    fn error_is_zero_on_the_paper_and_symmetric_in_log_space() {
        let rows = rows().expect("data file parses");
        let exact: Vec<(&str, f64)> = rows.clone();
        assert_eq!(ipc_err(&rows, &exact), Ok(0.0));
        let half = [("164.gzip", 0.845 / 2.0)];
        let double = [("164.gzip", 0.845 * 2.0)];
        let a = ipc_err(&rows, &half).expect("known benchmark");
        let b = ipc_err(&rows, &double).expect("known benchmark");
        assert!((a - std::f64::consts::LN_2).abs() < 1e-12 && (a - b).abs() < 1e-12);
        assert!(ipc_err(&rows, &[("999.nope", 1.0)]).is_err());
    }
}
