//! The `repro` binary's argument check: a misspelt subcommand must fail
//! loudly instead of printing the header and exiting 0.

use std::process::Command;

fn repro(arg: &str) -> std::process::Output {
    let bin = env!("CARGO_BIN_EXE_repro");
    Command::new(bin).arg(arg).output().expect("repro runs")
}

#[test]
fn unknown_subcommand_prints_the_usage_and_exits_2() {
    let out = repro("tabel1");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no header before the check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand `tabel1`"), "{err}");
    assert!(err.contains("usage: repro [all|table1|"), "{err}");
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = repro("--help");
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ablations|summary|disasm"), "{err}");
}
