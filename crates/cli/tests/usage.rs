//! `agilewatts help` is pinned byte for byte: the usage text is rendered
//! from the flag table, so any drift in a flag's metavar, help lines or
//! section placement fails here.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn help_matches_golden_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_agilewatts")).arg("help").output().expect("runs");
    assert!(out.status.success());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/usage.txt");
    let expected = std::fs::read_to_string(&path).expect("read usage golden");
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), expected);
}
