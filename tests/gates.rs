//! The byte-identity gates under `cargo test`: the golden digests
//! (`tests/golden.sh check`) and the churn ledger
//! (`tests/churn_ledger.sh`), each run against the CLI binary this test
//! build made. Both scripts print what differs; a failure here carries
//! their output.

use std::process::Command;

/// Runs `tests/<script> <args>… <binary>` and fails with its output
/// unless it exits 0.
fn gate(script: &str, args: &[&str]) {
    let path = format!("{}/tests/{script}", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new("sh")
        .arg(&path)
        .args(args)
        .arg(env!("CARGO_BIN_EXE_asi-fabric-sim"))
        .output()
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        out.status.success(),
        "tests/{script} failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn golden_digests_match() {
    gate("golden.sh", &["check"]);
}

#[test]
fn churn_ledger_matches() {
    gate("churn_ledger.sh", &[]);
}
