//! `paper_search`: the paper's serial application (Tables VIII and IX),
//! with no serving stack involved. Every round runs the catalog — the
//! OpenCL and SYCL applications at the baseline comparer and the SYCL
//! application at opt3, over both miniature assemblies — so every host
//! second goes to the gpu-sim executor running the generic finder and
//! comparer through opencl-rt and sycl-rt. Simulated times repeat exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{cpu, Api, OffTarget, OptLevel, SearchInput, SearchReport};
use genome::rng::Xoshiro256;
use genome::synth::{hg19_mini, hg38_mini};
use genome::Assembly;
use gpu_sim::{DeviceSpec, ExecMode};

use crate::layers::{self, KernelProbe};
use crate::record::{self, Outcome, WindowStat};
use crate::trace::Tracer;
use crate::Args;

/// Miniature scale: 0.60 Mbp (hg19) and 0.74 Mbp (hg38), a fraction of a
/// host second per search.
const SCALE: f64 = 0.1;

/// One search of the catalog.
struct Search {
    assembly: usize,
    api: Api,
    opt: OptLevel,
}

const fn search(assembly: usize, api: Api, opt: OptLevel) -> Search {
    Search { assembly, api, opt }
}

/// Table VIII (both applications, baseline comparer) and Table IX (SYCL
/// at opt3), over hg19-mini (0) and hg38-mini (1).
const CATALOG: [Search; 6] = [
    search(0, Api::OpenCl, OptLevel::Base),
    search(0, Api::Sycl, OptLevel::Base),
    search(0, Api::Sycl, OptLevel::Opt3),
    search(1, Api::OpenCl, OptLevel::Base),
    search(1, Api::Sycl, OptLevel::Base),
    search(1, Api::Sycl, OptLevel::Opt3),
];

fn synthesize() -> Vec<Assembly> {
    vec![hg19_mini(SCALE), hg38_mini(SCALE)]
}

fn config(opt: OptLevel) -> PipelineConfig {
    PipelineConfig::new(DeviceSpec::mi100())
        .opt(opt)
        .exec_mode(ExecMode::Sequential)
}

/// The order of each round's searches: a fresh seeded shuffle per round.
/// This is all the seed decides; the paper's inputs are fixed.
pub fn round_orders(seed: u64) -> impl Iterator<Item = [usize; CATALOG.len()]> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    std::iter::repeat_with(move || {
        let mut order = [0, 1, 2, 3, 4, 5];
        rng.shuffle(&mut order);
        order
    })
}

/// One cold set-up: synthesizing both assemblies. Each search builds its
/// own runner, so that cost is part of the search.
pub fn setup_once() -> f64 {
    let start = Instant::now();
    black_box(synthesize());
    start.elapsed().as_secs_f64()
}

fn run_search(
    search: &Search,
    assembly: &Assembly,
    input: &SearchInput,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<SearchReport, String> {
    let config = config(search.opt);
    match (tracer, search.api) {
        (Some((tracer, request)), api) => {
            layers::replay_search(api, assembly, input, &config, tracer, request)
        }
        (None, Api::OpenCl) => {
            pipeline::ocl::run(assembly, input, &config).map_err(|e| e.to_string())
        }
        (None, Api::Sycl) => {
            pipeline::sycl::run(assembly, input, &config).map_err(|e| e.to_string())
        }
    }
}

/// One pass over the catalog.
struct Round {
    traced: bool,
    wall: Duration,
    latencies_ms: Vec<f64>,
    /// Reports in catalog order.
    reports: Vec<Option<SearchReport>>,
}

impl Round {
    /// Summed simulated elapsed and device-busy seconds, added in catalog
    /// order so the sums of every round compare bit for bit.
    fn simulated(&self) -> Option<(f64, f64)> {
        self.reports
            .iter()
            .try_fold((0.0, 0.0), |(elapsed, busy), report| {
                let t = &report.as_ref()?.timing;
                Some((
                    elapsed + t.elapsed_s,
                    busy + t.transfer_s + t.finder_s + t.comparer_s,
                ))
            })
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // The oracle is computed before set-up and kept out of it.
    let oracle: Vec<Vec<OffTarget>> = synthesize()
        .iter()
        .map(|a| cpu::search_sequential(a, &SearchInput::canonical_example(a.name())))
        .collect();
    let setup = Instant::now();
    let assemblies = synthesize();
    let own_setup = setup.elapsed().as_secs_f64();
    let inputs: Vec<SearchInput> = assemblies
        .iter()
        .map(|a| SearchInput::canonical_example(a.name()))
        .collect();

    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut orders = round_orders(args.seed);
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut request = 0;
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed() < args.seconds {
        // A traced run alternates untraced and traced rounds.
        let traced = args.trace && rounds.len() % 2 == 1;
        let order = orders.next().expect("the round orders never end");
        let round_start = Instant::now();
        let mut round = Round {
            traced,
            wall: Duration::ZERO,
            latencies_ms: Vec::new(),
            reports: vec![None; CATALOG.len()],
        };
        for index in order {
            let search = &CATALOG[index];
            let began = Instant::now();
            let result = run_search(
                search,
                &assemblies[search.assembly],
                &inputs[search.assembly],
                traced.then_some((&mut tracer, request)),
            );
            round.latencies_ms.push(began.elapsed().as_secs_f64() * 1e3);
            request += 1;
            match result {
                Ok(report) => {
                    out.check(report.offtargets == oracle[search.assembly], || {
                        format!("search {index} differs from the CPU oracle")
                    });
                    round.reports[index] = Some(report);
                }
                Err(why) => out.check(false, || format!("search {index} failed: {why}")),
            }
        }
        round.wall = round_start.elapsed();
        if traced {
            tracer.window(round_start, Instant::now());
        }
        rounds.push(round);
    }

    // Simulated time is deterministic: every round must read the same.
    let simulated = rounds[0].simulated();
    for (i, round) in rounds.iter().enumerate().skip(1) {
        if round.simulated() != simulated {
            out.fail(format!(
                "round {i} simulated {:?}, round 0 {simulated:?}",
                round.simulated()
            ));
        }
    }

    let round_mbp: f64 = CATALOG
        .iter()
        .map(|s| {
            let guides = inputs[s.assembly].queries.len();
            (guides * assemblies[s.assembly].total_len()) as f64 / 1e6
        })
        .sum();
    // Rounds are the windows of the host-clock statistics.
    let (plain, traced): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| !r.traced);
    let windows = |rs: &[&Round]| -> Vec<WindowStat> {
        rs.iter()
            .map(|r| WindowStat {
                seconds: r.wall.as_secs_f64(),
                jobs: CATALOG.len() as f64,
                mbp: round_mbp,
                latencies_ms: r.latencies_ms.clone(),
            })
            .collect()
    };

    if args.trace {
        record::overhead_metrics(&mut out, &windows(&traced), &windows(&plain));
        let coverage = tracer.coverage();
        out.set("trace.span_coverage_pct", 100.0 * coverage);
        out.set("trace.uncovered_pct", 100.0 * (1.0 - coverage));
        let reports: Vec<SearchReport> = rounds[0].reports.iter().flatten().cloned().collect();
        layers::pipeline_metrics(&mut out, &tracer, &reports);
        let chunk_size = config(OptLevel::Base).chunk_size;
        layers::genome_metrics(&mut out, synthesize, chunk_size, inputs[1].pattern_len());
        layers::launch_overhead(&mut out)?;
        let guides: Vec<Vec<u8>> = inputs[1].queries.iter().map(|q| q.seq.clone()).collect();
        layers::kernel_metrics(
            &mut out,
            &KernelProbe {
                assembly: &assemblies[1],
                chunk_size,
                pattern: &inputs[1].pattern,
                guides: &guides,
                threshold: inputs[1].queries[0].max_mismatches,
                opt: OptLevel::Base,
            },
        )?;
        record::write_trace(&mut out, args, &tracer);
    } else {
        let (sim_elapsed, sim_device) = simulated.unwrap_or((f64::NAN, f64::NAN));
        record::host_metrics(&mut out, &windows(&plain));
        out.set("sim_elapsed_s", sim_elapsed);
        out.set("sim_device_s", sim_device);
        record::peak_rss(&mut out);
        record::setup_metric(&mut out, args, own_setup)?;
    }
    Ok(out)
}
