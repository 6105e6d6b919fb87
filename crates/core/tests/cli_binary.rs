//! End-to-end tests of the compiled `cas-offinder` binary.

use std::path::PathBuf;
use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cas-offinder"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("casoff-bin-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = binary().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: cas-offinder"));
}

#[test]
fn missing_input_exits_nonzero_with_usage() {
    let out = binary().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage error"));
    assert!(err.contains("usage: cas-offinder"));
}

#[test]
fn full_run_writes_the_output_file() {
    let dir = scratch_dir("run");
    let input = dir.join("input.txt");
    std::fs::write(
        &input,
        "hg38-mini:0.005\nNNNNNNNNNNNNNNNNNNNNNRG\nGGCCGACCTGTCGCTGACGCNNN 5\n",
    )
    .unwrap();
    let output = dir.join("out.txt");

    let out = binary()
        .arg(&input)
        .arg(&output)
        .args(["--chunk", "16384", "--device", "MI60", "--opt", "opt3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let written = std::fs::read_to_string(&output).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), written);
    assert!(written.contains("GGCCGACCTGTCGCTGACGC"), "hits expected");
    assert!(written.contains("# "), "summary comments expected");
    assert!(written.contains("MI60"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fasta_genome_on_disk_is_searchable() {
    let dir = scratch_dir("fasta");
    let fasta = dir.join("toy.fa");
    std::fs::write(&fasta, ">chrT\nTTTTACGTACGTACGTACGTACGTAGGTTTT\n").unwrap();
    let input = dir.join("input.txt");
    std::fs::write(
        &input,
        format!(
            "{}\nNNNNNNNNNNNNNNNNNNNNNGG\nACGTACGTACGTACGTACGTNNN 2\n",
            fasta.display()
        ),
    )
    .unwrap();

    let out = binary().arg(&input).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("chrT"),
        "the planted site must be found:\n{text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = binary()
        .args(["in.txt", "--api", "vulkan"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown api"));
}

#[test]
fn opencl_api_flag_runs_the_opencl_pipeline() {
    let dir = scratch_dir("ocl");
    let input = dir.join("input.txt");
    std::fs::write(
        &input,
        "hg19-mini:0.004\nNNNNNNNNNNNNNNNNNNNNNRG\nCGCCAGCGTCAGCGACAGGTNNN 4\n",
    )
    .unwrap();
    let out = binary()
        .arg(&input)
        .args(["--api", "opencl", "--chunk", "8192"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("OpenCL"));
    std::fs::remove_dir_all(&dir).unwrap();
}
