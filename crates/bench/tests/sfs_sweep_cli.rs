//! `sfs_sweep` answers `--help` and bad input with its usage text and an
//! exit status, never a panic.  No case here runs the sweep itself.

mod common;

#[test]
fn help_prints_the_usage_and_succeeds() {
    common::assert_help("sfs_sweep");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sfs_sweep"))
        .arg("--help")
        .output()
        .expect("spawn sfs_sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("--sim-threads"), "{stdout}");
}

#[test]
fn bad_input_prints_the_usage_and_exits_2() {
    common::assert_bad_input("sfs_sweep");
}
