//! `writepath_bench` answers `--help` and bad input with its usage text and
//! an exit status, never a panic.  No case here runs the benchmark itself.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_writepath_bench"))
        .args(args)
        .output()
        .expect("spawn writepath_bench")
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: writepath_bench"), "{stdout}");
    assert!(stdout.contains("--record-baseline"), "{stdout}");
}

#[test]
fn bad_input_prints_the_usage_and_exits_2() {
    for (args, why) in [
        (&["--bogus"][..], "unknown argument --bogus"),
        (&["--file-mb", "ten"][..], "--file-mb needs a number"),
        (&["--sfs-secs"][..], "--sfs-secs needs a number"),
        (&["--out"][..], "--out needs a path"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: writepath_bench"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
