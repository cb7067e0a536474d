//! The `puffer` CLI rejects out-of-range flag values right after parsing:
//! exit code 2, the flag named on stderr, and no work done — never a panic
//! (exit 101) in a library assert, and never a silent run with a clamped or
//! ignored value.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, not-yet-created output directory for one case.
fn out_dir(case: usize) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_range_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn out_of_range_values_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["run-rct", "--sessions", "0"], "--sessions"),
        (&["run-rct", "--days", "0"], "--days"),
        (&["run-rct", "--fault-rate", "7"], "--fault-rate"),
        (&["run-rct", "--fault-rate", "-1"], "--fault-rate"),
        (&["run-rct", "--fault-rate", "nan"], "--fault-rate"),
        (&["collect", "--sessions", "0"], "--sessions"),
        (&["collect", "--days", "0"], "--days"),
        (&["power-analysis", "--sessions", "0"], "--sessions"),
        (&["power-analysis", "--days", "0"], "--days"),
        (&["power-analysis", "--cuts", "50,5"], "--cuts"),
        (&["power-analysis", "--improvement", "1.5"], "--improvement"),
        (&["power-analysis", "--boot", "0"], "--boot"),
        (&["archive", "--sessions", "0"], "--sessions"),
        (&["simulate", "--seconds", "nan"], "--seconds"),
        (&["simulate", "--seconds", "inf"], "--seconds"),
        (&["simulate", "--seconds", "1e12"], "--seconds"),
        (&["simulate", "--seconds", "0"], "--seconds"),
        (&["simulate", "--seconds", "-5"], "--seconds"),
    ];
    for (case, &(args, flag)) in cases.iter().enumerate() {
        let dir = out_dir(case);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_puffer"));
        cmd.args(args);
        // `collect`, `power-analysis` and `archive` need an output; nothing
        // may reach it.
        match args[0] {
            "collect" => cmd.arg("--out").arg(dir.join("data.txt")),
            "power-analysis" | "archive" => cmd.arg("--out").arg(&dir),
            _ => &mut cmd,
        };
        let out = cmd.output().expect("runs the puffer binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let shown = format!("{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{shown}");
        assert!(stderr.contains(flag), "{shown}");
        assert!(out.stdout.is_empty(), "{shown}");
        assert!(!dir.exists(), "wrote output before rejecting, {shown}");
    }
}
