//! `rbsim` whose reader has gone away exits quietly.
//!
//! `rbsim audit capability | head -1` closes the pipe after one line. The
//! test closes it before the first line, which makes the failure the
//! pipeline only sometimes hits happen on every run.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rbsim"))
        .args(["audit", "capability"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rbsim starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("rbsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
