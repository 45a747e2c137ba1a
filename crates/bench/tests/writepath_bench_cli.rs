//! `writepath_bench` answers `--help` and bad input with its usage text and
//! an exit status, never a panic.  No case here runs the benchmark itself.

mod common;

#[test]
fn help_prints_the_usage_and_succeeds() {
    common::assert_help("writepath_bench");
}

#[test]
fn bad_input_prints_the_usage_and_exits_2() {
    common::assert_bad_input("writepath_bench");
}
