//! The command-line contract of the bench binaries, one table row per
//! binary: `--help` prints the usage and exits 0, and bad input — an unknown
//! flag, a missing or non-numeric value — prints the problem and the usage
//! and exits 2, never a panic.  No check runs a benchmark: the binaries
//! parse their whole command line before doing any work.

use std::process::{Command, Output};

/// One binary's contract: the text its usage must contain, and bad command
/// lines with the problem each must report.
pub struct Case {
    pub name: &'static str,
    exe: &'static str,
    usage_mentions: &'static [&'static str],
    bad: &'static [(&'static [&'static str], &'static str)],
}

pub const CASES: &[Case] = &[
    Case {
        name: "tables",
        exe: env!("CARGO_BIN_EXE_tables"),
        usage_mentions: &["--table N", "--json"],
        bad: &[
            (&["--table", "three"], "--table needs a number"),
            (&["--table", "7"], "--table needs a number 1-6, not 7"),
            (&["--file-mb"], "--file-mb needs a number"),
        ],
    },
    Case {
        name: "figure1",
        exe: env!("CARGO_BIN_EXE_figure1"),
        usage_mentions: &["--kb N"],
        bad: &[(&["--kb", "lots"], "--kb needs a number")],
    },
    Case {
        name: "figure2_3",
        exe: env!("CARGO_BIN_EXE_figure2_3"),
        usage_mentions: &["--figure 2|3", "--secs N"],
        bad: &[
            (&["--secs", "long"], "--secs needs a number"),
            (&["--figure", "4"], "--figure needs 2 or 3, not 4"),
        ],
    },
    Case {
        name: "ablations",
        exe: env!("CARGO_BIN_EXE_ablations"),
        usage_mentions: &["--file-mb N"],
        bad: &[(&["--file-mb", "four"], "--file-mb needs a number")],
    },
    Case {
        name: "scale_sweep",
        exe: env!("CARGO_BIN_EXE_scale_sweep"),
        usage_mentions: &["--mb-per-client A,B,C", "--overlap"],
        bad: &[
            (&["--shards", "x"], "--shards needs a number"),
            (
                &["--clients", "1,two"],
                "--clients needs comma-separated numbers",
            ),
            (&["--out"], "--out needs a path"),
        ],
    },
    Case {
        name: "fault_sweep",
        exe: env!("CARGO_BIN_EXE_fault_sweep"),
        usage_mentions: &["--secs N", "--load N"],
        bad: &[
            (&["--secs", "x"], "--secs needs a number"),
            (&["--load"], "--load needs a number"),
        ],
    },
    Case {
        name: "state_sweep",
        exe: env!("CARGO_BIN_EXE_state_sweep"),
        usage_mentions: &["--storm-clients N"],
        bad: &[(
            &["--storm-clients", "many"],
            "--storm-clients needs a number",
        )],
    },
    Case {
        name: "writepath_bench",
        exe: env!("CARGO_BIN_EXE_writepath_bench"),
        usage_mentions: &["--record-baseline"],
        bad: &[
            (&["--file-mb", "ten"], "--file-mb needs a number"),
            (&["--sfs-secs"], "--sfs-secs needs a number"),
            (&["--out"], "--out needs a path"),
        ],
    },
    Case {
        name: "sfs_sweep",
        exe: env!("CARGO_BIN_EXE_sfs_sweep"),
        usage_mentions: &["--threads N"],
        bad: &[
            // A flag the sweep does not have, with a numeric value behind it.
            (&["--sim-threads", "2"], "unknown argument --sim-threads"),
            (&["--clients", "four"], "--clients needs a number"),
            (&["--threads"], "--threads needs a number"),
            (&["--dirty-ratio", "half"], "--dirty-ratio needs a number"),
            (
                &["--loads", "300,lots"],
                "--loads needs comma-separated numbers",
            ),
            (
                &["--stability", "maybe"],
                "--stability needs stable|unstable|all",
            ),
            (&["--out"], "--out needs a path"),
        ],
    },
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn row(name: &str) -> &'static Case {
    CASES
        .iter()
        .find(|case| case.name == name)
        .unwrap_or_else(|| panic!("no row for {name}"))
}

/// `--help` (or `-h`, which wins over anything else on the line) prints the
/// usage of binary `name` with everything its row mentions and exits 0.
pub fn assert_help(name: &str) {
    let case = row(name);
    for args in [&["--help"][..], &["-h"], &["--bogus", "--help"]] {
        let out = run(case.exe, args);
        assert_eq!(out.status.code(), Some(0), "{name} {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");
        for mention in case.usage_mentions {
            assert!(stdout.contains(mention), "{name}: {stdout}");
        }
    }
}

/// An unknown flag and every bad command line of the row make binary `name`
/// report the problem and its usage on stderr and exit 2 without panicking.
pub fn assert_bad_input(name: &str) {
    let case = row(name);
    let unknown: &[(&[&str], &str)] = &[(&["--bogus"], "unknown argument --bogus")];
    for (args, why) in unknown.iter().chain(case.bad) {
        let out = run(case.exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let at = format!("{name} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{at}");
        assert!(stderr.contains(why), "{at}");
        assert!(stderr.contains(&format!("usage: {name}")), "{at}");
        assert!(!stderr.contains("panicked"), "{at}");
    }
}
