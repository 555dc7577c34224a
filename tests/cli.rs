//! Integration tests for the `rfn` command-line tool.

use std::io::Write;
use std::process::Command;

const RING: &str = "\
design token_ring
input want0
input want1
reg tok0 1 tok1
reg tok1 0 tok0
gate tx0_n and want0 tok0
gate tx1_n and want1 tok1
reg tx0 0 tx0_n
reg tx1 0 tx1_n
gate clash and tx0 tx1
gate w_next or w clash
reg w 0 w_next
output clash clash
";

/// A buggy ring where both stations can hold the token.
const BROKEN_RING: &str = "\
design broken_ring
input want0
input want1
reg tok0 1 tok1
reg tok1 1 tok0
gate tx0_n and want0 tok0
gate tx1_n and want1 tok1
reg tx0 0 tx0_n
reg tx1 0 tx1_n
gate clash and tx0 tx1
gate w_next or w clash
reg w 0 w_next
";

fn write_netlist(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rfn_cli_test_{name}_{}.rtl", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(text.as_bytes()).expect("write netlist");
    path
}

fn rfn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rfn"))
}

#[test]
fn info_prints_coi() {
    let path = write_netlist("info", RING);
    let out = rfn().arg("info").arg(&path).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 registers"), "got: {stdout}");
    assert!(stdout.contains("COI 4 registers"), "got: {stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn verify_proves_and_exits_zero() {
    let path = write_netlist("verify_ok", RING);
    let out = rfn()
        .args(["verify"])
        .arg(&path)
        .args(["--watch", "w"])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PROVED"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn verify_falsifies_and_exits_one() {
    let path = write_netlist("verify_bad", BROKEN_RING);
    let out = rfn()
        .args(["verify"])
        .arg(&path)
        .args(["--watch", "w", "--name", "mutex"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FALSIFIED `mutex`"), "got: {stdout}");
    assert!(stdout.contains("cycle 0"), "trace missing: {stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn coverage_reports_counts() {
    let path = write_netlist("coverage", RING);
    let out = rfn()
        .args(["coverage"])
        .arg(&path)
        .args(["--signals", "tok0,tok1", "--bfs", "60"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One-hot token: states 00 and 11 are unreachable.
    assert!(stdout.contains("4 states | 2 unreachable"), "got: {stdout}");
    assert!(stdout.contains("BFS(60):  2 unreachable"), "got: {stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn bad_usage_exits_two() {
    let out = rfn().arg("verify").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = rfn()
        .args(["frobnicate", "/nonexistent"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    // Unknown flags, typos and flags of another subcommand are usage
    // errors, never silently dropped settings.
    let path = write_netlist("bad_usage", RING);
    for (cmd, args, culprit) in [
        ("verify", "--watch w --bogus-flag 7", "--bogus-flag"),
        ("verify", "--watch w --time-limt 5", "--time-limt"),
        ("verify", "--watch w extra", "extra"),
        ("verify", "--watch w --time-limit", "--time-limit"),
        ("coverage", "--signals tok0 --threads 2", "--threads"),
        ("info", "--watch w", "--watch"),
    ] {
        let out = rfn()
            .arg(cmd)
            .arg(&path)
            .args(args.split(' '))
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{cmd} {args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(culprit), "{cmd} {args}: {stderr}");
        assert!(stderr.contains("usage:"), "{cmd} {args}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_signal_is_reported() {
    let path = write_netlist("unknown_sig", RING);
    let out = rfn()
        .args(["verify"])
        .arg(&path)
        .args(["--watch", "nonexistent"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nonexistent"));
    let _ = std::fs::remove_file(path);
}
