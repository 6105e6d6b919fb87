//! What a run reports: the metric tables with each metric's unit and
//! clock, the statistics taken over samples, the stamps every record
//! carries, and the two machine-readable result lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::trace::Tracer;
use crate::{Args, HELD_OUT_SEED};

/// The clock (or kind of count) a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time of the benchmark process.
    Host,
    /// The simulated device clock of `gpu-sim`.
    Sim,
    /// A count, or a ratio of counts.
    Count,
    /// Bytes computed from the simulator's access counters.
    Computed,
    /// Resident memory of the benchmark process.
    Memory,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
            Clock::Computed => "computed",
            Clock::Memory => "memory",
        }
    }
}

/// One metric of the benchmark: its name, unit, clock and better direction.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock, higher: bool) -> Def {
    Def {
        name,
        unit,
        clock,
        higher_is_better: higher,
    }
}

use Clock::{Computed, Count, Host, Memory, Sim};

/// End-to-end metrics; every untraced run prints each of them.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Host, false),
    def("scan_mbp_per_s", "guide_Mbp/s", Host, true),
    def("jobs_per_s", "1/s", Host, true),
    def("latency_p50_ms", "ms", Host, false),
    def("latency_p99_ms", "ms", Host, false),
    def("sim_elapsed_s", "sim_s", Sim, false),
    def("sim_device_s", "sim_s", Sim, false),
    def("peak_rss_mb", "MiB", Memory, false),
];

/// Per-layer metrics; every traced run prints each of them. A layer the
/// workload does not run reads 0 and is listed under `not_exercised`.
pub const PER_LAYER: &[Def] = &[
    def("genome.synth_s", "s", Host, false),
    def("genome.encode_2bit_ns_per_base", "ns/base", Host, false),
    def("genome.encode_4bit_ns_per_base", "ns/base", Host, false),
    def("gpu_sim.launch_overhead_us", "us", Host, false),
    def("gpu_sim.host_ns_per_global_load", "ns", Host, false),
    def("kernels.finder.host_ns_per_item", "ns", Host, false),
    def("kernels.comparer.host_ns_per_item", "ns", Host, false),
    def("kernels.comparer_2bit.host_ns_per_item", "ns", Host, false),
    def("kernels.comparer_4bit.host_ns_per_item", "ns", Host, false),
    def("kernels.comparer_multi.host_ns_per_item", "ns", Host, false),
    def("sim.finder.total_s", "sim_s", Sim, false),
    def("sim.finder.calls", "count", Count, false),
    def("sim.finder.occupancy", "waves", Count, true),
    def("sim.finder.global_load_bytes", "B", Computed, false),
    def("sim.finder.arith_ops", "count", Count, false),
    def("sim.comparer.total_s", "sim_s", Sim, false),
    def("sim.comparer.calls", "count", Count, false),
    def("sim.comparer.occupancy", "waves", Count, true),
    def("sim.comparer.global_load_bytes", "B", Computed, false),
    def("sim.comparer.arith_ops", "count", Count, false),
    def("sim.comparer_2bit.total_s", "sim_s", Sim, false),
    def("sim.comparer_2bit.calls", "count", Count, false),
    def("sim.comparer_2bit.occupancy", "waves", Count, true),
    def("sim.comparer_2bit.global_load_bytes", "B", Computed, false),
    def("sim.comparer_2bit.arith_ops", "count", Count, false),
    def("sim.comparer_4bit.total_s", "sim_s", Sim, false),
    def("sim.comparer_4bit.calls", "count", Count, false),
    def("sim.comparer_4bit.occupancy", "waves", Count, true),
    def("sim.comparer_4bit.global_load_bytes", "B", Computed, false),
    def("sim.comparer_4bit.arith_ops", "count", Count, false),
    def("sim.comparer_multi.total_s", "sim_s", Sim, false),
    def("sim.comparer_multi.calls", "count", Count, false),
    def("sim.comparer_multi.occupancy", "waves", Count, true),
    def("sim.comparer_multi.global_load_bytes", "B", Computed, false),
    def("sim.comparer_multi.arith_ops", "count", Count, false),
    def("specialize.compiles", "count", Count, false),
    def("specialize.hit_rate", "ratio", Count, true),
    def("specialize.compile_p95_us", "us", Host, false),
    def("pipeline.opencl.runner_new_ms", "ms", Host, false),
    def("pipeline.sycl.runner_new_ms", "ms", Host, false),
    def("pipeline.opencl.run_chunk_p50_ms", "ms", Host, false),
    def("pipeline.opencl.run_chunk_p95_ms", "ms", Host, false),
    def("pipeline.sycl.run_chunk_p50_ms", "ms", Host, false),
    def("pipeline.sycl.run_chunk_p95_ms", "ms", Host, false),
    def("sim.opencl.transfer_s", "sim_s", Sim, false),
    def("sim.opencl.finder_s", "sim_s", Sim, false),
    def("sim.opencl.comparer_s", "sim_s", Sim, false),
    def("sim.sycl.transfer_s", "sim_s", Sim, false),
    def("sim.sycl.finder_s", "sim_s", Sim, false),
    def("sim.sycl.comparer_s", "sim_s", Sim, false),
    def("sim.comparer_kernel_share", "ratio", Sim, false),
    def("frontend.submit_p50_us", "us", Host, false),
    def("frontend.submit_p99_us", "us", Host, false),
    def("queue.depth_high_water", "count", Count, false),
    def("queue.sheds", "count", Count, false),
    def("results.hit_rate", "ratio", Count, true),
    def("results.repeat_latency_p50_us", "us", Host, false),
    def("results.fresh_latency_p50_ms", "ms", Host, false),
    def("batcher.coalescing_ratio", "ratio", Count, true),
    def("batcher.batches_formed", "count", Count, false),
    def("cache.hit_rate", "ratio", Count, true),
    def("cache.evictions", "count", Count, false),
    def("scheduler.resident_hit_rate", "ratio", Count, true),
    def("scheduler.prediction_error", "ratio", Sim, false),
    def("scheduler.steals", "count", Count, false),
    def("scheduler.busy_imbalance", "ratio", Sim, false),
    def("device.h2d_bytes_per_batch", "B", Computed, false),
    def("candidates.hit_rate", "ratio", Count, true),
    def("candidates.evictions", "count", Count, false),
    def("service.finder_launches_skipped", "count", Count, true),
    def("service.comparer_launch_ratio", "ratio", Count, false),
    def("service.fused_launches", "count", Count, true),
    def("service.comparer_char_batches", "count", Count, false),
    def("service.comparer_2bit_batches", "count", Count, false),
    def("service.comparer_4bit_batches", "count", Count, false),
    def("service.kernel_launches_per_job", "ratio", Count, false),
    def("service.start_s", "s", Host, false),
    def("trace.throughput_overhead_pct", "%", Host, false),
    def("trace.latency_overhead_pct", "%", Host, false),
    def("trace.span_coverage_pct", "%", Host, true),
    def("trace.uncovered_pct", "%", Host, false),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: searches, jobs and screens, each checked
    /// against the CPU oracle.
    pub attempted: u64,
    /// Failures: an oracle mismatch, a typed error, a shed, a job that
    /// never completed, or simulated time that did not repeat.
    pub failed: u64,
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Set metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Add a free-form field to the stamped record.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.insert(key.to_owned(), value.to_string());
    }

    /// Count one attempted operation; a false `ok` counts it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Count a failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
    }
}

/// Nearest-rank quantile `q` of `samples`; 0 when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// What completed in one window of a measured phase: a round of
/// `paper_search`, a one-second slice of `serve_mixed`, a screen of
/// `library_screen`.
pub struct WindowStat {
    pub seconds: f64,
    pub jobs: f64,
    pub mbp: f64,
    pub latencies_ms: Vec<f64>,
}

/// Host-clock statistics of a run, taken over the faster half of its
/// windows by jobs per second.
pub struct Quiet {
    pub jobs_per_s: f64,
    pub mbp_per_s: f64,
    pub latency_p50_ms: f64,
    pub latencies_ms: Vec<f64>,
}

/// Other load on the host slows whole stretches of a run, by up to half
/// on a shared machine; the faster half of the windows is the part it
/// disturbed least, so medians over it repeat from run to run where
/// medians over every window do not. A slower program slows every window.
pub fn quiet(windows: &[WindowStat]) -> Quiet {
    let rate = |w: &WindowStat| w.jobs / w.seconds;
    let mut kept: Vec<&WindowStat> = windows.iter().collect();
    kept.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    kept.truncate(windows.len().div_ceil(2));
    let over =
        |f: &dyn Fn(&WindowStat) -> f64| median(&kept.iter().map(|w| f(w)).collect::<Vec<f64>>());
    let p50s: Vec<f64> = kept
        .iter()
        .filter(|w| !w.latencies_ms.is_empty())
        .map(|w| median(&w.latencies_ms))
        .collect();
    Quiet {
        jobs_per_s: over(&rate),
        mbp_per_s: over(&|w| w.mbp / w.seconds),
        latency_p50_ms: median(&p50s),
        latencies_ms: kept
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect(),
    }
}

/// The host-clock end-to-end metrics from a run's windows, with the
/// window and sample counts, the tail quantile and how many samples lie
/// above it in the record.
///
/// `latency_p99_ms` is the p99 when at least ten samples lie above it.
/// With fewer samples the quantile drops toward p90 instead: the slowest
/// of a few dozen samples is one disturbance, not a tail.
pub fn host_metrics(out: &mut Outcome, windows: &[WindowStat]) {
    let q = quiet(windows);
    let tail_q = (1.0 - 10.0 / q.latencies_ms.len() as f64).clamp(0.9, 0.99);
    let tail = quantile(&q.latencies_ms, tail_q);
    out.set("scan_mbp_per_s", q.mbp_per_s);
    out.set("jobs_per_s", q.jobs_per_s);
    out.set("latency_p50_ms", q.latency_p50_ms);
    out.set("latency_p99_ms", tail);
    out.note("windows", windows.len());
    out.note("latency_samples", q.latencies_ms.len());
    out.note("latency_tail_quantile", tail_q);
    out.note(
        "latency_samples_above_tail",
        q.latencies_ms.iter().filter(|&&l| l > tail).count(),
    );
}

/// `trace.*_overhead_pct`: the traced windows against the untraced ones.
pub fn overhead_metrics(out: &mut Outcome, traced: &[WindowStat], plain: &[WindowStat]) {
    let (traced, plain) = (quiet(traced), quiet(plain));
    out.set(
        "trace.throughput_overhead_pct",
        100.0 * (1.0 - traced.jobs_per_s / plain.jobs_per_s),
    );
    out.set(
        "trace.latency_overhead_pct",
        100.0 * (traced.latency_p50_ms / plain.latency_p50_ms - 1.0),
    );
}

/// `peak_rss_mb`: the peak resident set of this process (`VmHWM`).
pub fn peak_rss(out: &mut Outcome) {
    let kb = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    if let Some(kb) = kb {
        out.set("peak_rss_mb", kb / 1024.0);
    }
}

/// `setup_s`: the median of this process's own set-up and four more, each
/// in a fresh child process. The program memoizes its device calibration
/// and kernel variants per process, so only a new process sets up cold.
pub fn setup_metric(out: &mut Outcome, args: &Args, own: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut samples = vec![own];
    for _ in 0..4 {
        let child = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.as_secs_f64().to_string()])
            .args(["--trace", "0", "--setup-only"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        if !child.status.success() {
            return Err(format!("set-up process exited with {}", child.status));
        }
        let text = String::from_utf8_lossy(&child.stdout);
        let seconds = text
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("set-up process printed {text:?}: {e}"))?;
        samples.push(seconds);
    }
    out.set("setup_s", median(&samples));
    out.note("setup_samples_s", format!("{samples:?}"));
    Ok(())
}

/// Write the run's spans beside the benchmark binary, inside the build
/// directory, and name the file in the record.
pub fn write_trace(out: &mut Outcome, args: &Args, tracer: &Tracer) {
    let path: Option<PathBuf> = std::env::current_exe().ok().and_then(|exe| {
        let name = format!("perfbench-trace-{}-seed{}.jsonl", args.workload, args.seed);
        Some(exe.parent()?.join(name))
    });
    match path.map(|p| tracer.write(&p).map(|()| p)) {
        Some(Ok(p)) => out.note("trace_file", p.display()),
        Some(Err(e)) => out.note("trace_file_error", e),
        None => out.note("trace_file_error", "no build directory"),
    }
}

/// Print every metric of the run's table by name with its value, unit,
/// clock and better direction; then the stamped record; then the
/// machine-readable result line. Exits non-zero when any check failed.
pub fn emit(args: &Args, outcome: &Outcome) -> ExitCode {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    for name in outcome.values.keys() {
        if !END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name) {
            eprintln!("perfbench: {name} is not in the metric table");
            correct = false;
        }
    }
    let mut not_exercised = Vec::new();
    let mut rows = Vec::new();
    for d in table {
        let value = match outcome.values.get(d.name) {
            Some(v) if v.is_finite() => *v,
            _ if args.trace => {
                not_exercised.push(d.name);
                0.0
            }
            _ => {
                eprintln!("perfbench: end-to-end metric {} was not measured", d.name);
                correct = false;
                0.0
            }
        };
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!(
            "{:<42} {:>22} {:<12} {:<9} {better}",
            d.name,
            value,
            d.unit,
            d.clock.label()
        );
        rows.push((d, value));
    }

    let error_rate = if outcome.attempted == 0 {
        0.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut record = format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\
         \"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"commit\":{},\"build_profile\":\"{profile}\",\
         \"attempted\":{},\"failed\":{},\"error_rate\":{error_rate},\"metrics\":[",
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace,
        json_str(&commit()),
        outcome.attempted,
        outcome.failed,
    );
    for (i, (d, value)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            record,
            "{sep}{{\"name\":{},\"value\":{value},\"unit\":{},\"clock\":\"{}\"}}",
            json_str(d.name),
            json_str(d.unit),
            d.clock.label()
        );
    }
    record.push_str("],\"not_exercised\":[");
    let skipped: Vec<String> = not_exercised.iter().map(|n| json_str(n)).collect();
    record.push_str(&skipped.join(","));
    record.push_str("],\"notes\":{");
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    record.push_str(&notes.join(","));
    record.push_str("}}}");
    println!("{record}");

    let metrics: Vec<String> = rows
        .iter()
        .map(|(d, value)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(d.name),
                json_str(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit under test: git's when the checkout has its metadata,
/// otherwise an FNV-1a digest of the sources the benchmark builds.
fn commit() -> String {
    if Path::new(".git").exists() {
        let head = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(Stdio::null())
            .output();
        if let Ok(head) = head {
            if head.status.success() {
                return format!("git:{}", String::from_utf8_lossy(&head.stdout).trim());
            }
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-fnv64:{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        for entry in fs::read_dir(path).into_iter().flatten().flatten() {
            collect_files(&entry.path(), out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}
