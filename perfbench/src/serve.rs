//! The serving workloads, on a two-device pool with one device per API
//! (the host has two cores): `serve_mixed`, sixteen closed-loop clients
//! of single-guide jobs, and `library_screen`, one closed-loop client of
//! library screens.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cas_offinder::kernels::GUIDE_BLOCK;
use cas_offinder::pipeline::PipelineConfig;
use cas_offinder::{cpu, Api, OffTarget, OptLevel, Query, SearchInput};
use casoff_serve::{DeviceSlot, JobId, JobSpec, MetricsReport, Poll, Service, ServiceConfig};
use genome::rng::Xoshiro256;
use genome::synth::{hg38_masked_mini, hg38_mini};
use genome::Assembly;
use gpu_sim::{DeviceSpec, ExecMode};

use crate::layers::{self, KernelProbe};
use crate::record::{self, quantile, Outcome, WindowStat};
use crate::trace::Tracer;
use crate::Args;

/// The PAM patterns jobs search with: SpCas9's NRG and NGG over 8-nt
/// spacers.
const PATTERNS: [&[u8]; 2] = [b"NNNNNNNNNRG", b"NNNNNNNNNGG"];
/// Mismatch threshold of every job. Hits stay rare next to candidates,
/// as in a genome-wide search, so the comparer's scan dominates and the
/// oracle's records stay small.
const THRESHOLD: u16 = 1;

/// `serve_mixed` assemblies: the clean miniature (2-bit chunks) and the
/// soft-masked one (4-bit chunks).
const MIXED_ASSEMBLIES: [&str; 2] = ["hg38-mini", "hg38-masked"];
const MIXED_SCALE: f64 = 0.05;
/// Clients in flight. Fixed: coalescing, and so every metric, follows it.
const MIXED_CLIENTS: usize = 16;
/// Share of submissions repeating an earlier spec. A quarter keeps the
/// median job in the computed class; near a half, p50 flips between
/// result-store hits and computed jobs from run to run.
const REPEAT_SHARE: f64 = 0.25;
/// Repeats draw from this many most recent distinct specs, so most of
/// them are still in the result store.
const REPEAT_WINDOW: usize = 32;
/// Submissions in the seeded sequence: more than a run gets through.
const MIXED_SUBMISSIONS: usize = 10_000;

const LIBRARY_SCALE: f64 = 0.05;
/// Guides per screen.
const LIBRARY_GUIDES: usize = 256;
/// Screens in the seeded sequence: more than a run gets through.
const LIBRARY_SCREENS: usize = 48;

/// How long a job may go without completing before it counts as lost.
const STALL: Duration = Duration::from_secs(60);

/// One entry of the seeded submission sequence: which spec, and whether
/// the generator drew it as a repeat of an earlier one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    pub spec: usize,
    pub repeat: bool,
}

/// A serving workload's seeded inputs: its distinct specs, the order the
/// clients submit them in, and the specs set-up runs to warm the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    pub specs: Vec<JobSpec>,
    pub order: Vec<Submission>,
    pub warmup: Vec<JobSpec>,
}

/// A guide not drawn before: 8 random bases and the PAM's `NNN`.
fn fresh_guide(rng: &mut Xoshiro256, used: &mut HashSet<Vec<u8>>) -> Vec<u8> {
    loop {
        let mut guide: Vec<u8> = (0..8).map(|_| b"ACGT"[rng.gen_below(4)]).collect();
        guide.extend_from_slice(b"NNN");
        if used.insert(guide.clone()) {
            return guide;
        }
    }
}

/// `serve_mixed` inputs: single-guide jobs over both assemblies and both
/// patterns, about a quarter of them repeats of a recent spec. Warm-up
/// runs one job per (assembly, pattern).
pub fn mixed_catalog(seed: u64) -> Catalog {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut used = HashSet::new();
    let mut warmup = Vec::new();
    for assembly in MIXED_ASSEMBLIES {
        for pattern in PATTERNS {
            let guide = fresh_guide(&mut rng, &mut used);
            warmup.push(JobSpec::new(assembly, pattern, guide, THRESHOLD));
        }
    }
    let mut specs = Vec::new();
    let mut order = Vec::with_capacity(MIXED_SUBMISSIONS);
    for _ in 0..MIXED_SUBMISSIONS {
        if !specs.is_empty() && rng.gen_bool(REPEAT_SHARE) {
            let oldest = specs.len().saturating_sub(REPEAT_WINDOW);
            let spec = rng.gen_range(oldest, specs.len());
            order.push(Submission { spec, repeat: true });
        } else {
            let assembly = MIXED_ASSEMBLIES[rng.gen_below(2)];
            let pattern = PATTERNS[rng.gen_below(2)];
            let guide = fresh_guide(&mut rng, &mut used);
            specs.push(JobSpec::new(assembly, pattern, guide, THRESHOLD));
            order.push(Submission {
                spec: specs.len() - 1,
                repeat: false,
            });
        }
    }
    Catalog {
        specs,
        order,
        warmup,
    }
}

/// `library_screen` inputs: distinct screens of fresh guides under one
/// pattern. Warm-up runs one more screen: it sweeps every chunk once, so
/// the measured screens replay the candidate cache, and it builds the
/// fused kernels a full screen uses.
pub fn library_catalog(seed: u64) -> Catalog {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut used = HashSet::new();
    let mut screen = |guides: usize| {
        let guides = (0..guides)
            .map(|_| fresh_guide(&mut rng, &mut used))
            .collect();
        JobSpec::library(MIXED_ASSEMBLIES[0], PATTERNS[0], guides, THRESHOLD)
    };
    let warmup = vec![screen(LIBRARY_GUIDES)];
    let specs: Vec<JobSpec> = (0..LIBRARY_SCREENS)
        .map(|_| screen(LIBRARY_GUIDES))
        .collect();
    let order = (0..specs.len())
        .map(|spec| Submission {
            spec,
            repeat: false,
        })
        .collect();
    Catalog {
        specs,
        order,
        warmup,
    }
}

/// MI60 under OpenCL and MI100 under SYCL; everything else the
/// `paper_pool` defaults, with no pacing.
fn pool() -> ServiceConfig {
    let mut config = ServiceConfig::paper_pool();
    config.devices = vec![
        DeviceSlot {
            spec: DeviceSpec::mi60(),
            api: Api::OpenCl,
        },
        DeviceSlot {
            spec: DeviceSpec::mi100(),
            api: Api::Sycl,
        },
    ];
    config
}

/// The pool for screens: guide-block-sized batches, so each coalesced
/// batch is one fused launch, and an admission budget a whole screen fits
/// in (it is charged `total_len × guides` cost units).
fn library_pool() -> ServiceConfig {
    let mut config = pool();
    config.max_batch = GUIDE_BLOCK;
    config.queue_cost_limit = 1 << 40;
    config
}

fn mixed_assemblies() -> Vec<Assembly> {
    vec![hg38_mini(MIXED_SCALE), hg38_masked_mini(MIXED_SCALE)]
}

fn library_assemblies() -> Vec<Assembly> {
    vec![hg38_mini(LIBRARY_SCALE)]
}

/// How the measured phase divides into windows. The host-clock metrics
/// are taken over the faster half of them (`record::quiet`); a traced run
/// traces every second window, so the tracing overhead is measured within
/// one run.
#[derive(Debug, Clone, Copy)]
enum Windows {
    /// Fixed time slices of the measured phase.
    Slices(Duration),
    /// One window per submission, up to the next one (one client).
    Submissions,
}

/// One window of the measured phase.
struct Window {
    from: Instant,
    to: Instant,
    traced: bool,
}

impl Windows {
    /// Whether submission `index`, made now, falls in a traced window.
    fn traced(self, start: Instant, index: usize) -> bool {
        match self {
            Windows::Slices(slice) => (start.elapsed().as_nanos() / slice.as_nanos()) % 2 == 1,
            Windows::Submissions => index % 2 == 1,
        }
    }

    /// The windows of a measured phase. Slices stop at the deadline, so
    /// the drain after it, with fewer clients busy, is in none of them.
    fn of(self, run: &Loop) -> Vec<Window> {
        match self {
            Windows::Slices(slice) => (0..)
                .map(|k| (k, run.start + slice * k))
                .take_while(|&(_, from)| from + slice <= run.deadline)
                .map(|(k, from)| Window {
                    from,
                    to: from + slice,
                    traced: k % 2 == 1,
                })
                .collect(),
            Windows::Submissions => {
                let mut starts: Vec<(Instant, bool)> = run
                    .samples
                    .iter()
                    .map(|s| (s.submitted, s.traced))
                    .collect();
                starts.sort();
                (0..starts.len())
                    .map(|i| Window {
                        from: starts[i].0,
                        to: starts.get(i + 1).map_or(run.end, |next| next.0),
                        traced: starts[i].1,
                    })
                    .collect()
            }
        }
    }
}

/// What differs between the two serving workloads.
struct Serving {
    config: fn() -> ServiceConfig,
    synthesize: fn() -> Vec<Assembly>,
    catalog: fn(u64) -> Catalog,
    clients: usize,
    windows: Windows,
}

const MIXED: Serving = Serving {
    config: pool,
    synthesize: mixed_assemblies,
    catalog: mixed_catalog,
    clients: MIXED_CLIENTS,
    windows: Windows::Slices(Duration::from_secs(1)),
};

const LIBRARY: Serving = Serving {
    config: library_pool,
    synthesize: library_assemblies,
    catalog: library_catalog,
    clients: 1,
    windows: Windows::Submissions,
};

pub fn run_mixed(args: &Args) -> Result<Outcome, String> {
    run(args, &MIXED)
}

pub fn run_library(args: &Args) -> Result<Outcome, String> {
    run(args, &LIBRARY)
}

pub fn setup_mixed(seed: u64) -> Result<f64, String> {
    setup_once(seed, &MIXED)
}

pub fn setup_library(seed: u64) -> Result<f64, String> {
    setup_once(seed, &LIBRARY)
}

fn setup_once(seed: u64, workload: &Serving) -> Result<f64, String> {
    let catalog = (workload.catalog)(seed);
    let ready = set_up(workload, &catalog.warmup)?;
    ready.service.shutdown();
    Ok(ready.setup_s)
}

/// A started, warmed service.
struct Ready {
    service: Service,
    /// Host seconds inside `Service::start` (device calibration included).
    start_s: f64,
    /// Host seconds of the whole set-up.
    setup_s: f64,
    /// The warm-up jobs' records.
    warm: Vec<Vec<OffTarget>>,
}

/// Set-up: synthesize the assemblies, start the service, and run the
/// warm-up jobs to completion.
fn set_up(workload: &Serving, warmup: &[JobSpec]) -> Result<Ready, String> {
    let setup = Instant::now();
    let assemblies = (workload.synthesize)();
    let start = Instant::now();
    let service = Service::start((workload.config)(), assemblies);
    let start_s = start.elapsed().as_secs_f64();
    let warm = warmup
        .iter()
        .map(|spec| service.submit(spec.clone()))
        .collect::<Result<Vec<JobId>, _>>()
        .map_err(|e| format!("warm-up job refused: {e}"))
        .and_then(|ids| {
            ids.into_iter()
                .map(|id| {
                    service
                        .wait(id)
                        .map_err(|e| format!("warm-up job lost: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        });
    match warm {
        Ok(warm) => Ok(Ready {
            service,
            start_s,
            setup_s: setup.elapsed().as_secs_f64(),
            warm,
        }),
        Err(why) => {
            service.shutdown();
            Err(why)
        }
    }
}

/// The CPU oracle's records for every spec. Single-guide specs sharing an
/// assembly, pattern and threshold are answered by one sequential search
/// over all their guides and split by guide afterwards: a canonically
/// sorted list, filtered, stays canonically sorted. The searches run on
/// every core; each one is `cpu::search_sequential`.
fn oracle(assemblies: &[Assembly], specs: &[JobSpec]) -> Result<Vec<Vec<OffTarget>>, String> {
    let find = |name: &str| {
        assemblies
            .iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("no assembly named {name}"))
    };
    let input = |spec: &JobSpec, guides: &[Vec<u8>]| SearchInput {
        genome: spec.assembly.clone(),
        pattern: spec.pattern.clone(),
        queries: guides
            .iter()
            .map(|g| Query::new(g.clone(), spec.max_mismatches))
            .collect(),
    };
    // One search per library screen, and one per group of single guides.
    let mut groups: BTreeMap<(&str, &[u8], u16), Vec<usize>> = BTreeMap::new();
    let mut searches = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        match &spec.library {
            Some(guides) => searches.push((vec![i], find(&spec.assembly)?, input(spec, guides))),
            None => groups
                .entry((&spec.assembly, &spec.pattern, spec.max_mismatches))
                .or_default()
                .push(i),
        }
    }
    for ((assembly, _, _), members) in groups {
        let guides: Vec<Vec<u8>> = members.iter().map(|&i| specs[i].guide.clone()).collect();
        let input = input(&specs[members[0]], &guides);
        searches.push((members, find(assembly)?, input));
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let found: Vec<(usize, Vec<OffTarget>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let searches = &searches;
                scope.spawn(move || {
                    (t..searches.len())
                        .step_by(threads)
                        .map(|k| (k, cpu::search_sequential(searches[k].1, &searches[k].2)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an oracle thread panicked"))
            .collect()
    });

    let mut out = vec![Vec::new(); specs.len()];
    for (k, records) in found {
        let members = &searches[k].0;
        if specs[members[0]].library.is_some() {
            out[members[0]] = records;
            continue;
        }
        let slot: HashMap<&[u8], usize> = members
            .iter()
            .map(|&i| (specs[i].guide.as_slice(), i))
            .collect();
        for record in records {
            let i = slot
                .get(record.query.as_slice())
                .copied()
                .ok_or("the oracle returned a guide nobody asked for")?;
            out[i].push(record);
        }
    }
    Ok(out)
}

/// One completed job of the measured phase.
struct Sample {
    spec: usize,
    repeat: bool,
    traced: bool,
    submitted: Instant,
    completed: Instant,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        (self.completed - self.submitted).as_secs_f64()
    }
}

/// The measured phase of a closed loop.
struct Loop {
    samples: Vec<Sample>,
    start: Instant,
    /// When clients stopped submitting: the end of `seconds`, or earlier
    /// if the catalog ran out.
    deadline: Instant,
    /// The last completion.
    end: Instant,
    exhausted: bool,
}

/// What completed in each of `windows`.
fn window_stats<'a>(
    run: &Loop,
    windows: impl Iterator<Item = &'a Window>,
    work_mbp: impl Fn(&Sample) -> f64,
) -> Vec<WindowStat> {
    windows
        .map(|w| {
            let done: Vec<&Sample> = run
                .samples
                .iter()
                .filter(|s| w.from <= s.completed && s.completed < w.to)
                .collect();
            WindowStat {
                seconds: (w.to - w.from).as_secs_f64(),
                jobs: done.len() as f64,
                mbp: done.iter().map(|s| work_mbp(s)).sum(),
                latencies_ms: done.iter().map(|s| s.latency_s() * 1e3).collect(),
            }
        })
        .collect()
}

/// One closed-loop phase: each of `clients` clients submits its next job
/// only after its previous one completed, until `seconds` have passed;
/// jobs still in flight then are drained and counted. Every job's records
/// are compared with the oracle's.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    service: &Service,
    catalog: &Catalog,
    oracle: &[Vec<OffTarget>],
    clients: usize,
    seconds: Duration,
    windows: Windows,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Loop {
    let (done_tx, done_rx) = mpsc::channel::<(JobId, Instant)>();
    let mut inflight: HashMap<JobId, (usize, Instant, bool)> = HashMap::new();
    let mut samples = Vec::new();
    let mut next = 0;
    let mut idle = clients;
    let start = Instant::now();
    let deadline = start + seconds;
    let mut end = start;
    let mut last_submit = start;
    loop {
        while idle > 0 && next < catalog.order.len() && Instant::now() < deadline {
            idle -= 1;
            let index = next;
            next += 1;
            let spec = catalog.specs[catalog.order[index].spec].clone();
            let traced = tracer.is_some() && windows.traced(start, index);
            let submitted = Instant::now();
            last_submit = submitted;
            let ticket = service.submit_ticket(spec);
            let submit_end = Instant::now();
            let ticket = match ticket {
                Ok(ticket) => ticket,
                Err(why) => {
                    out.check(false, || format!("submission {index} refused: {why}"));
                    idle += 1;
                    continue;
                }
            };
            if let (true, Some(t)) = (traced, tracer.as_deref_mut()) {
                t.record(
                    "frontend.submit_ticket",
                    ticket.id,
                    None,
                    submitted,
                    submit_end,
                );
            }
            inflight.insert(ticket.id, (index, submitted, traced));
            let done = done_tx.clone();
            let registered = service.on_complete(ticket.id, move |id| {
                let _ = done.send((id, Instant::now()));
            });
            if let Err(why) = registered {
                inflight.remove(&ticket.id);
                out.check(false, || format!("job {index}: callback refused: {why}"));
                idle += 1;
            }
        }
        if inflight.is_empty() {
            break;
        }
        let Ok((id, completed)) = done_rx.recv_timeout(STALL) else {
            for (index, ..) in inflight.values() {
                out.check(false, || format!("job {index} never completed"));
            }
            break;
        };
        let Some((index, submitted, traced)) = inflight.remove(&id) else {
            continue;
        };
        let submission = &catalog.order[index];
        let polled = Instant::now();
        let records = service.poll(id);
        if let (true, Some(t)) = (traced, tracer.as_deref_mut()) {
            t.record("service.job", id, None, submitted, completed);
            t.record("frontend.poll", id, None, polled, Instant::now());
        }
        match records {
            Ok(Poll::Ready(records)) => out.check(records == oracle[submission.spec], || {
                format!("job {index} differs from the CPU oracle")
            }),
            other => out.check(false, || {
                format!("job {index} completed but polled {other:?}")
            }),
        }
        samples.push(Sample {
            spec: submission.spec,
            repeat: submission.repeat,
            traced,
            submitted,
            completed,
        });
        end = end.max(completed);
        idle += 1;
    }
    let exhausted = next == catalog.order.len();
    Loop {
        samples,
        start,
        deadline: if exhausted {
            last_submit.min(deadline)
        } else {
            deadline
        },
        end,
        exhausted,
    }
}

fn run(args: &Args, workload: &Serving) -> Result<Outcome, String> {
    let catalog = (workload.catalog)(args.seed);
    // The oracle is computed before set-up and kept out of it.
    let assemblies = (workload.synthesize)();
    let oracle_records = oracle(&assemblies, &catalog.specs)?;
    let warm_records = oracle(&assemblies, &catalog.warmup)?;

    let mut out = Outcome::default();
    let ready = set_up(workload, &catalog.warmup)?;
    for (i, (got, want)) in ready.warm.iter().zip(&warm_records).enumerate() {
        out.check(got == want, || {
            format!("warm-up job {i} differs from the CPU oracle")
        });
    }
    let service = ready.service;
    let before = service.metrics();
    let mut tracer = Tracer::default();
    let run = closed_loop(
        &service,
        &catalog,
        &oracle_records,
        workload.clients,
        args.seconds,
        workload.windows,
        args.trace.then_some(&mut tracer),
        &mut out,
    );
    let after = service.metrics();
    service.shutdown();

    let jobs = run.samples.len() as f64;
    let busy: Vec<f64> = after
        .devices
        .iter()
        .zip(&before.devices)
        .map(|(a, b)| a.busy_s - b.busy_s)
        .collect();
    out.note("jobs", jobs);
    out.note(
        "repeat_share",
        run.samples.iter().filter(|s| s.repeat).count() as f64 / jobs,
    );
    if run.exhausted {
        out.note("catalog_exhausted", true);
    }

    let mbp: HashMap<&str, f64> = assemblies
        .iter()
        .map(|a| (a.name(), a.total_len() as f64 / 1e6))
        .collect();
    let work_mbp = |s: &Sample| {
        let spec = &catalog.specs[s.spec];
        spec.library.as_ref().map_or(1, Vec::len) as f64 * mbp[spec.assembly.as_str()]
    };
    let windows = workload.windows.of(&run);

    if args.trace {
        record::overhead_metrics(
            &mut out,
            &window_stats(&run, windows.iter().filter(|w| w.traced), work_mbp),
            &window_stats(&run, windows.iter().filter(|w| !w.traced), work_mbp),
        );
        for w in windows.iter().filter(|w| w.traced) {
            tracer.window(w.from, w.to);
        }
        let coverage = tracer.coverage();
        out.set("trace.span_coverage_pct", 100.0 * coverage);
        out.set("trace.uncovered_pct", 100.0 * (1.0 - coverage));
        service_metrics(&mut out, &after, &busy, &run, &tracer, ready.start_s);

        let config = (workload.config)();
        let guides = probe_guides(&catalog);
        pipeline_probe(&mut out, &mut tracer, &config, &assemblies[0], &guides)?;
        layers::genome_metrics(
            &mut out,
            workload.synthesize,
            config.chunk_size,
            PATTERNS[0].len(),
        );
        layers::launch_overhead(&mut out)?;
        layers::kernel_metrics(
            &mut out,
            &KernelProbe {
                assembly: &assemblies[0],
                chunk_size: config.chunk_size,
                pattern: PATTERNS[0],
                guides: &guides,
                threshold: THRESHOLD,
                opt: config.opt,
            },
        )?;
        record::write_trace(&mut out, args, &tracer);
    } else {
        record::host_metrics(&mut out, &window_stats(&run, windows.iter(), work_mbp));
        out.set("sim_device_s", busy.iter().sum::<f64>() / jobs);
        out.set(
            "sim_elapsed_s",
            busy.iter().copied().fold(0.0, f64::max) / jobs,
        );
        record::peak_rss(&mut out);
        record::setup_metric(&mut out, args, ready.setup_s)?;
    }
    Ok(out)
}

/// Guides of the workload on `hg38-mini` under the first pattern, up to
/// one fused block: what the kernel and pipeline probes run.
fn probe_guides(catalog: &Catalog) -> Vec<Vec<u8>> {
    catalog
        .specs
        .iter()
        .filter(|s| s.assembly == MIXED_ASSEMBLIES[0] && s.pattern == PATTERNS[0])
        .flat_map(|s| s.library.clone().unwrap_or_else(|| vec![s.guide.clone()]))
        .take(GUIDE_BLOCK)
        .collect()
}

/// Replay one serial search per pool device — its API on its spec, at the
/// serving chunk size — for the `pipeline.*` and `sim.<api>.*` metrics.
fn pipeline_probe(
    out: &mut Outcome,
    tracer: &mut Tracer,
    config: &ServiceConfig,
    assembly: &Assembly,
    guides: &[Vec<u8>],
) -> Result<(), String> {
    let input = SearchInput {
        genome: assembly.name().to_owned(),
        pattern: PATTERNS[0].to_vec(),
        queries: guides
            .iter()
            .take(2)
            .map(|g| Query::new(g.clone(), THRESHOLD))
            .collect(),
    };
    let oracle = cpu::search_sequential(assembly, &input);
    let mut reports = Vec::new();
    for (request, slot) in (u64::MAX - 1..).zip(&config.devices) {
        let pipeline = PipelineConfig::new(slot.spec.clone())
            .chunk_size(config.chunk_size)
            .opt(OptLevel::Base)
            .exec_mode(ExecMode::Sequential);
        let report = layers::replay_search(slot.api, assembly, &input, &pipeline, tracer, request)?;
        out.check(report.offtargets == oracle, || {
            format!("{} replay differs from the CPU oracle", slot.api)
        });
        reports.push(report);
    }
    layers::pipeline_metrics(out, tracer, &reports);
    Ok(())
}

/// The serving layers' per-layer metrics: counters from the service's
/// `MetricsReport`, submit times from the trace, and job latencies split
/// by the generator's own repeat label.
fn service_metrics(
    out: &mut Outcome,
    m: &MetricsReport,
    busy: &[f64],
    run: &Loop,
    tracer: &Tracer,
    start_s: f64,
) {
    let submits: Vec<f64> = tracer
        .durations_ms("frontend.submit_ticket")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.set("frontend.submit_p50_us", quantile(&submits, 0.5));
    out.set("frontend.submit_p99_us", quantile(&submits, 0.99));
    out.set("queue.depth_high_water", m.queue_depth_high_water as f64);
    out.set("queue.sheds", m.jobs_shed as f64);
    out.set("results.hit_rate", m.result_cache_hit_rate());
    for (repeat, name, scale) in [
        (true, "results.repeat_latency_p50_us", 1e6),
        (false, "results.fresh_latency_p50_ms", 1e3),
    ] {
        let latencies: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.repeat == repeat)
            .map(Sample::latency_s)
            .collect();
        if !latencies.is_empty() {
            out.set(name, quantile(&latencies, 0.5) * scale);
        }
    }
    out.set("batcher.coalescing_ratio", m.coalescing_ratio());
    out.set("batcher.batches_formed", m.batches_formed as f64);
    out.set("cache.hit_rate", m.cache_hit_rate());
    out.set("cache.evictions", m.cache.evictions as f64);
    out.set("scheduler.resident_hit_rate", m.resident_hit_rate());
    out.set("scheduler.prediction_error", m.mean_prediction_error());
    out.set(
        "scheduler.steals",
        m.devices.iter().map(|d| d.steals).sum::<u64>() as f64,
    );
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    out.set(
        "scheduler.busy_imbalance",
        busy.iter().copied().fold(0.0, f64::max) / mean_busy,
    );
    let batches: u64 = m.devices.iter().map(|d| d.batches).sum();
    let h2d: u64 = m.devices.iter().map(|d| d.h2d_bytes).sum();
    out.set("device.h2d_bytes_per_batch", h2d as f64 / batches as f64);
    out.set("candidates.hit_rate", m.candidate_hit_rate());
    out.set("candidates.evictions", m.candidates.evictions as f64);
    out.set(
        "service.finder_launches_skipped",
        m.finder_launches_skipped as f64,
    );
    out.set("service.comparer_launch_ratio", m.comparer_launch_ratio());
    out.set("service.fused_launches", m.fused_launches as f64);
    out.set(
        "service.comparer_char_batches",
        m.comparer_char_batches as f64,
    );
    out.set(
        "service.comparer_2bit_batches",
        m.comparer_2bit_batches as f64,
    );
    out.set(
        "service.comparer_4bit_batches",
        m.comparer_4bit_batches as f64,
    );
    let launches: u64 = m.devices.iter().map(|d| d.kernel_launches).sum();
    out.set(
        "service.kernel_launches_per_job",
        launches as f64 / m.jobs_completed as f64,
    );
    out.set("specialize.compiles", m.variants.compiles as f64);
    out.set("specialize.hit_rate", m.variants.hit_rate());
    out.set(
        "specialize.compile_p95_us",
        m.variants.compile_p95_ns as f64 / 1e3,
    );
    out.set("service.start_s", start_s);
}
