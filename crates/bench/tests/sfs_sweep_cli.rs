//! `sfs_sweep` answers `--help` and bad input with its usage text and an
//! exit status, never a panic.  No case here runs the sweep itself.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sfs_sweep"))
        .args(args)
        .output()
        .expect("spawn sfs_sweep")
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: sfs_sweep"), "{stdout}");
    assert!(stdout.contains("--threads N"), "{stdout}");
    assert!(!stdout.contains("--sim-threads"), "{stdout}");
}

#[test]
fn bad_input_prints_the_usage_and_exits_2() {
    for (args, why) in [
        (&["--bogus"][..], "unknown argument --bogus"),
        // A flag the sweep does not have, with a numeric value behind it.
        (
            &["--sim-threads", "2"][..],
            "unknown argument --sim-threads",
        ),
        (&["--clients", "four"][..], "--clients needs a number"),
        (&["--threads"][..], "--threads needs a number"),
        (
            &["--dirty-ratio", "half"][..],
            "--dirty-ratio needs a number",
        ),
        (
            &["--loads", "300,lots"][..],
            "--loads needs comma-separated numbers",
        ),
        (
            &["--stability", "maybe"][..],
            "--stability needs stable|unstable|all",
        ),
        (&["--out"][..], "--out needs a path"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sfs_sweep"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
