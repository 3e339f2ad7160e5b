//! Command-line behaviour of the `figures` binary.

use std::process::Command;

#[test]
fn unknown_target_fails_before_rendering_any() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["table1", "bogus"])
        .output()
        .expect("figures binary runs");
    assert!(!out.status.success(), "exit status {}", out.status);
    assert!(
        out.stdout.is_empty(),
        "rendered before rejecting the target:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown target 'bogus'"));
}
