//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [all|table1|table8|table9|table10|fig2|shares|ablations|summary|disasm]... [--scale FRACTION] [--chunk N]
//! ```
//!
//! `--scale` sets the miniature-genome scale (default 0.05 ≈ 300–375 kbp
//! per assembly); `--chunk` the chunk size in scan positions (default 2^17).
//! An unknown subcommand prints the usage and exits 2.

use cas_offinder::{Api, OptLevel};
use casoff_bench::experiments::{
    ablations::Ablations, fig2::Fig2, summary::Summary, table1::Table1, table10::Table10,
    table8::Table8, table9::Table9,
};
use casoff_bench::{paper, Runner, SearchKey, TextTable, Workload};

/// Every subcommand `repro` accepts; `all` runs each but `summary` and
/// `disasm`.
const SUBCOMMANDS: &str = "all|table1|table8|table9|table10|fig2|shares|ablations|summary|disasm";

struct Args {
    which: Vec<String>,
    scale: f64,
    chunk: usize,
}

fn parse_args() -> Args {
    let mut which = Vec::new();
    let mut scale = 0.05;
    let mut chunk = 1 << 17;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"));
            }
            "--chunk" => {
                chunk = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--chunk needs an integer"));
            }
            "-h" | "--help" => usage(""),
            other if SUBCOMMANDS.split('|').any(|s| s == other) => which.push(other.to_owned()),
            other => usage(&format!("unknown subcommand `{other}`")),
        }
    }
    if which.is_empty() {
        which.push("all".to_owned());
    }
    Args {
        which,
        scale,
        chunk,
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: repro [{SUBCOMMANDS}]... [--scale F] [--chunk N]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The memoised searches the experiments in `which` read: Table VIII
/// both APIs at the baseline, Fig. 2 every SYCL opt level (which covers
/// Table IX and the shares), the summary all of those.
fn searches(which: &[String]) -> Vec<SearchKey> {
    let wants = |names: &[&str]| which.iter().any(|w| names.contains(&w.as_str()));
    let cells = || (0..2).flat_map(|d| (0..3).map(move |g| (g, d)));
    let mut keys = Vec::new();
    if wants(&["all", "table8", "summary"]) {
        keys.extend(cells().map(|(g, d)| (g, d, Api::OpenCl, OptLevel::Base)));
    }
    if wants(&["all", "fig2", "summary"]) {
        keys.extend(cells().flat_map(|(g, d)| OptLevel::ALL.map(|opt| (g, d, Api::Sycl, opt))));
    }
    if wants(&["table8", "table9", "shares"]) {
        keys.extend(cells().map(|(g, d)| (g, d, Api::Sycl, OptLevel::Base)));
    }
    if wants(&["table9"]) {
        keys.extend(cells().map(|(g, d)| (g, d, Api::Sycl, OptLevel::Opt3)));
    }
    keys
}

fn shares_table(runner: &mut Runner) -> TextTable {
    let mut t = TextTable::new(
        "Hotspot shares (§IV.B) — comparer fraction of kernel and elapsed time \
         (paper: ~98% of kernel, 50-80% of elapsed)",
        &["dataset", "device", "kernel share", "elapsed share"],
    );
    for d in 0..2 {
        for g in 0..3 {
            let timing = runner
                .report(g, d, Api::Sycl, OptLevel::Base)
                .timing
                .clone();
            t.row(vec![
                paper::DATASETS[d].into(),
                paper::DEVICES[g].into(),
                format!("{:.1}%", timing.comparer_kernel_share() * 100.0),
                format!("{:.1}%", timing.comparer_elapsed_share() * 100.0),
            ]);
        }
    }
    t
}

fn main() {
    let args = parse_args();
    let wants = |name: &str| args.which.iter().any(|w| w == name || w == "all");

    println!(
        "# Reproduction run: scale {} (hg19-mini/hg38-mini), chunk {}\n",
        args.scale, args.chunk
    );
    let mut runner = Runner::new(Workload::new(args.scale), args.chunk);
    // The searches are independent, so they run side by side before any
    // table renders; the rendering then reads them from the cache.
    runner.precompute(&searches(&args.which));
    println!(
        "datasets: hg19-mini {} bp ({} searchable), hg38-mini {} bp ({} searchable)\n",
        runner.workload().hg19.total_len(),
        runner.workload().hg19.searchable_len(),
        runner.workload().hg38.total_len(),
        runner.workload().hg38.searchable_len(),
    );

    if wants("table1") {
        println!("{}", Table1::run().render());
    }
    if wants("table10") {
        println!("{}", Table10::run().render());
    }
    if wants("table8") {
        println!("{}", Table8::run(&mut runner).render());
    }
    if wants("fig2") {
        let fig2 = Fig2::run(&mut runner);
        println!("{}", fig2.render());
        if std::fs::write("fig2.csv", fig2.to_csv()).is_ok() {
            println!("(series written to fig2.csv)\n");
        }
    }
    if wants("table9") {
        println!("{}", Table9::run(&mut runner).render());
    }
    if wants("shares") {
        println!("{}", shares_table(&mut runner));
    }
    if wants("ablations") {
        for table in Ablations::run(&mut runner).render() {
            println!("{table}");
        }
    }
    if args.which.iter().any(|w| w == "summary") {
        let summary = Summary::run(&mut runner);
        println!("{}", summary.render());
        if !summary.all_pass() {
            std::process::exit(1);
        }
    }
    if args.which.iter().any(|w| w == "disasm") {
        use cas_offinder::kernels::ComparerKernel;
        for opt in cas_offinder::OptLevel::ALL {
            let program = gpu_sim::isa::compile_program(&ComparerKernel::code_model_for(opt));
            println!("{}", program.disassemble());
        }
    }
}
