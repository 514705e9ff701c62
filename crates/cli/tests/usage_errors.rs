//! A command line `fhdnn` does not understand ends the process with exit
//! code 2 and names what was not understood; it never runs with defaults.

use std::process::Command;

#[test]
fn an_unknown_flag_exits_2_and_is_named() {
    let run = Command::new(env!("CARGO_BIN_EXE_fhdnn"))
        .args(["simulate", "--execution", "reference"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.starts_with("error: simulate: unknown argument '--execution'"),
        "{stderr}"
    );
    assert!(run.stdout.is_empty());
}
