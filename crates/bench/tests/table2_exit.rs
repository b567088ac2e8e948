//! `table2` fails loudly when a circuit fails outright.

use std::process::Command;

/// A zero-cycle simulation horizon leaves s27's sweep without a single
/// evaluated configuration, so its row fails with an evaluation error.
/// The run must exit 1 and name the circuit, like a lost proof does.
#[test]
fn table2_exits_1_and_names_a_circuit_that_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--only", "s27", "--max-edges", "20", "--horizon", "0"])
        .output()
        .expect("table2 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("error: 1 circuit(s) failed: s27"),
        "stderr:\n{stderr}"
    );
}
