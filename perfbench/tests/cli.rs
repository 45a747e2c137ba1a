//! The benchmark's command line, end to end: every workload prints every
//! declared metric with its declared unit, and bad input is reported
//! without a panic.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// `(name, unit)` of every metric in the result line.
fn printed(stdout: &str) -> Vec<(String, String)> {
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "last line is not a correct result: {last}"
    );
    let metrics = last.split_once("\"metrics\": {").expect("metrics").1;
    metrics
        .split("}, \"")
        .map(|entry| {
            let name = entry
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            (name, unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty());
        for workload in ["paper_copy", "sfs_knee", "fanin_unstable", "lease_storm"] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--smoke",
                "--seconds",
                "0",
                "--seed",
                "7",
                "--trace",
                trace,
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.starts_with("fingerprint: {\"nproc\": "), "{stdout}");
            assert_eq!(printed(&stdout), want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn bad_input_prints_usage_and_exits_2_without_panicking() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--bogus"],
        &["--workload", "paper_copy", "--trace", "yes"],
        &[],
    ] {
        let out = perfbench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perfbench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let help = perfbench(&["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("--workload NAME"));
}

#[test]
fn compare_refuses_results_from_different_hosts() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let run = perfbench(&["--workload", "fanin_unstable", "--smoke", "--seconds", "0"]);
    assert!(run.status.success());
    let text = String::from_utf8(run.stdout).unwrap();
    let same = dir.join("same.txt");
    let other = dir.join("other.txt");
    std::fs::write(&same, &text).unwrap();
    std::fs::write(&other, text.replacen("\"nproc\": ", "\"nproc\": 9", 1)).unwrap();
    let ok = perfbench(&["--compare", same.to_str().unwrap(), same.to_str().unwrap()]);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("wall_s"));
    let refused = perfbench(&["--compare", same.to_str().unwrap(), other.to_str().unwrap()]);
    assert_eq!(refused.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&refused.stdout).starts_with("incomparable"));
    std::fs::remove_dir_all(&dir).unwrap();
}
