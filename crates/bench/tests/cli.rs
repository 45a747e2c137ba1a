//! Every bench binary without a test file of its own keeps the command-line
//! contract of its row in `common::CASES`; `sfs_sweep_cli.rs` and
//! `writepath_bench_cli.rs` check the other two rows.

mod common;

/// Binaries whose rows are checked in their own test files.
const OWN_FILE: &[&str] = &["sfs_sweep", "writepath_bench"];

fn shared_rows() -> impl Iterator<Item = &'static str> {
    common::CASES
        .iter()
        .map(|case| case.name)
        .filter(|name| !OWN_FILE.contains(name))
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    shared_rows().for_each(common::assert_help);
}

#[test]
fn bad_input_prints_the_usage_and_exits_2() {
    shared_rows().for_each(common::assert_bad_input);
}
