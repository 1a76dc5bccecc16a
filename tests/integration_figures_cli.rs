//! Command-line contract of the `figures` binary: unknown flags and `--help`.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for flag in ["--trace-dir", "--no-trace-cache", "--fault-seed"] {
        let out = figures(&[flag, "x"]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{flag}: {stderr}"
        );
    }
    // A bare word is still an experiment name, and an unknown one says so.
    let out = figures(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'fig99'"));
}

#[test]
fn help_prints_the_flag_list_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = figures(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} must succeed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: figures"), "{flag}: {stdout}");
        for listed in ["--uops", "--trace-cache-mb", "--sweep", "--fault-panic-job"] {
            assert!(stdout.contains(listed), "{flag} output lacks {listed}");
        }
    }
}

#[test]
fn dashed_experiment_names_still_select_experiments() {
    // `--table1` prints a static table: no trace is recorded or simulated.
    let out = figures(&["--table1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table I"));
}
