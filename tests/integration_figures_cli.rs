//! Command-line contract of the `figures` binary: unknown flags, `--help` and
//! termination signals.

use std::process::{Command, Output, Stdio};
use std::time::Duration;

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

#[cfg(unix)]
#[test]
fn sigterm_stops_a_run_outside_the_sweep() {
    // Only `--sweep` polls the shutdown flag, so any other run must keep the
    // default SIGTERM action and die instead of finishing its tables.
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["table2", "--uops", "3000000", "--serial"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn figures");
    std::thread::sleep(Duration::from_millis(500));
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    assert!(kill.expect("run kill").success());
    // Poll for up to 5 s, then make sure no straggler outlives the test.
    let status = (0..250).find_map(|_| {
        std::thread::sleep(Duration::from_millis(20));
        child.try_wait().expect("poll figures")
    });
    let _ = child.kill();
    let status = status.expect("figures ignored SIGTERM for 5 s");
    assert!(!status.success(), "a terminated run must not exit 0");
}
