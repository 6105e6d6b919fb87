//! The batch-serving subsystem end to end: four submitter threads push a
//! batch of query jobs at a heterogeneous 4-device pool, the coalescer
//! shares chunk uploads between jobs with the same PAM pattern, the genome
//! cache keeps the hot chunks resident as 2-bit packed payloads, and the
//! cost-aware scheduler places each batch on the device with the earliest
//! predicted completion. Every job's results are verified byte-identical
//! to the serial pipelines.
//!
//! Three generations of the serving path are compared at the same cache
//! byte budget and written to `BENCH_serve.json`:
//!
//! * **raw + shortest-queue** — the PR 2 baseline: one-byte-per-base
//!   cache payloads, shortest-queue placement, fixed in-flight depth.
//! * **packed + cost-aware** — the PR 3 path: adaptive payloads (2-bit
//!   packed, 4-bit nibbles on chunks with degenerate codes) and
//!   earliest-predicted-completion placement, every batch still paying
//!   its chunk upload and every duplicate job its compute.
//! * **affinity** — the PR 4 path: devices keep resident chunk payloads
//!   (the scheduler steers repeat chunks back to their holder and the
//!   runner skips the upload) and a content-addressed result store serves
//!   repeat specs without any compute. Measured by serving several
//!   fresh-guide workloads through one service — every round computes,
//!   but on chunks the pool already holds — then replaying the first
//!   workload verbatim: the replay must finish with **zero** kernel
//!   launches.
//!
//! A further pair of runs replays the same tenant load against an
//! **exception-dense** soft-masked assembly, where 2-bit-with-exceptions
//! is off the table: the char-comparer fallback (raw payloads) against
//! the PR 5 adaptive cache, which flips dense chunks to 4-bit nibble
//! payloads so **zero** batches fall back to the char comparer and every
//! chunk still uploads packed, at half a byte per base.
//!
//! Finally, **this PR's** generation: the adaptive workload served again
//! with per-(pattern, threshold) constant-folded kernel variants — on the
//! nibble path both the PAM finder and the comparer fold — once with a
//! cold process-wide variant cache (every variant compiles) and once warm
//! (every variant is a cache hit), plus a per-variant ISA table — code
//! bytes, SGPRs, VGPRs, occupancy — generic vs folded.
//!
//! The closing pass is the **trace-driven load harness**: a seeded,
//! replayable open-loop trace (diurnal ramp → on/off burst → quiet tail,
//! with tenant-mix shifts and a hot-spot phase) is replayed twice — once
//! against the peak-static 4-device pool, once against an elastic pool
//! that starts at one device under an autoscaler watching predicted
//! queue delay. Both replays must fold byte-identical result digests,
//! the autoscaled pool must hold the end-to-end p99 SLO while
//! provisioning materially fewer device-seconds than the static fleet,
//! and every scale event replans the shard plan minimally.
//!
//! Each pass prints its progress and its metrics snapshot as it runs.
//! The outcome is rendered once: the demo writes `BENCH_serve.json`,
//! prints it, and then asserts its gates on the unrounded values.
//!
//! ```text
//! cargo run --release --example serve_demo
//! CASOFF_SERVE_JOBS=200 cargo run --release --example serve_demo
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cas_offinder::kernels::specialize::{generic_model, specialized_model};
use cas_offinder::kernels::{OptLevel, VariantKind};
use cas_offinder::pipeline::{ocl, PipelineConfig};
use cas_offinder::{OffTarget, SearchInput};
use casoff_serve::trace::{fold_results, schedule_digest, RESULT_DIGEST_SEED};
use casoff_serve::{
    ArrivalShape, AutoscaleConfig, AutoscaleReport, Autoscaler, ChunkEncoding, HotSpot, JobSpec,
    MetricsReport, PhaseSpec, Placement, Poll, ScaleDirection, Service, ServiceConfig, SubmitError,
    TenantConfig, TenantId, Ticket, TraceEvent, TraceSpec,
};
use genome::rng::Xoshiro256;
use genome::Assembly;
use gpu_sim::isa::{compile, ResourceUsage};
use gpu_sim::occupancy::occupancy;
use gpu_sim::{DeviceSpec, ExecMode, NdRange};

const SUBMITTERS: usize = 4;
const CHUNK_SIZE: usize = 1 << 13;
/// Genome scale: ~18.6k bases per chromosome, so most chunks fill the full
/// 8 KiB and the chunk payload dominates the per-batch query tables.
const GENOME_SCALE: f64 = 0.02;
/// Cache byte budget shared by both runs: holds the packed working set
/// with room to spare, but not the raw one — the equal-budget comparison
/// the cache redesign is about.
const CACHE_BYTES: usize = 128 * 1024;
/// Virtual-time pacing: workers hold each batch for its simulated duration
/// (scaled), so queue drain — and therefore placement quality — follows
/// device speed rather than host speed.
const PACING: f64 = 1500.0;
/// Distinct tenant requests in the closed-loop passes; the submitted jobs
/// cycle through them, so the coalescer always has same-pattern company.
const TENANT_SPECS: usize = 20;
/// Compute rounds through the affinity service, each with fresh guides.
/// Round 0 pays the genome's chunk uploads; later rounds find the chunks
/// resident. The replay round after these is served without compute.
const AFFINITY_ROUNDS: usize = 4;
/// Residency budget per device for the affinity run: generous next to the
/// ~12 chunks-per-pattern each device settles on for this genome, so
/// steering — not capacity — decides the hit rate.
const RESIDENT_CHUNKS: usize = 32;
/// Chunk size for the exception-dense comparison: large enough that the
/// chunk payload dominates the per-batch query tables, so the measured
/// upload ratio reflects the encodings (1 B/base vs half a byte).
const MASKED_CHUNK_SIZE: usize = 1 << 14;
/// Genome scale for the sharding pass: ~130 kb per chromosome, so the
/// primary assembly spans ~128 production-sized chunks — enough for the
/// range partition to give every device a real share.
const SHARD_SCALE: f64 = 0.14;
/// Residency budget per device for the sharding pass: comfortably above
/// the largest partition share across both assemblies and both PAM
/// patterns, so the one-pass warmup never evicts its own uploads.
const SHARD_RESIDENT_CHUNKS: usize = 512;
/// Distinct guides per assembly in the measured sharding scan, cycling
/// over the two PAM patterns (two full scans per pattern).
const SHARD_GUIDES: usize = 4;

/// Jobs per closed-loop pass: `CASOFF_SERVE_JOBS` when set, else 400.
/// Anything but a positive integer exits before any work starts, since a
/// malformed value would otherwise run the default unnoticed and `0`
/// would serve every pass empty.
fn jobs_from_env() -> usize {
    let Some(value) = std::env::var_os("CASOFF_SERVE_JOBS") else {
        return 400;
    };
    match value.to_str().and_then(|v| v.parse::<usize>().ok()) {
        Some(jobs) if jobs > 0 => jobs,
        _ => {
            eprintln!("CASOFF_SERVE_JOBS must be a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

fn spec_text(spec: &JobSpec) -> String {
    format!(
        "{}\n{}\n{} {}\n",
        spec.assembly,
        std::str::from_utf8(&spec.pattern).unwrap(),
        std::str::from_utf8(&spec.guide).unwrap(),
        spec.max_mismatches
    )
}

/// Eight random bases, then the `NNN` the PAM pattern covers.
fn random_guide(rng: &mut Xoshiro256) -> Vec<u8> {
    let mut guide: Vec<u8> = (0..8).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
    guide.extend_from_slice(b"NNN");
    guide
}

/// `count` distinct tenant requests against `assembly`, alternating two
/// PAM patterns. Different seeds give disjoint tenant sets over the same
/// genome — what the affinity rounds rely on.
fn guide_specs(seed: u64, assembly: &str, count: usize) -> Vec<JobSpec> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let patterns: [&[u8]; 2] = [b"NNNNNNNNNRG", b"NNNNNNNNNGG"];
    (0..count)
        .map(|i| {
            JobSpec::new(
                assembly,
                patterns[i % 2].to_vec(),
                random_guide(&mut rng),
                3,
            )
        })
        .collect()
}

/// Each spec through the serial OpenCL pipeline, cross-checked against
/// the scalar CPU search: the records every served job must equal.
fn serial_oracle(assembly: &Assembly, specs: &[JobSpec]) -> Vec<Vec<OffTarget>> {
    let config = PipelineConfig::new(DeviceSpec::mi100())
        .chunk_size(CHUNK_SIZE)
        .exec_mode(ExecMode::Sequential);
    specs
        .iter()
        .map(|spec| {
            let input = SearchInput::parse(&spec_text(spec)).unwrap();
            let serial = ocl::run(assembly, &input, &config).unwrap().offtargets;
            assert_eq!(
                serial,
                cas_offinder::cpu::search_sequential(assembly, &input),
                "serial pipeline vs scalar oracle on {}",
                spec.assembly
            );
            serial
        })
        .collect()
}

/// The configuration every pass starts from: the paper pool at the demo's
/// cache budget and pacing, with every layer that postdates the packed
/// cost-aware generation switched off. Each pass states its deltas.
fn demo_config() -> ServiceConfig {
    ServiceConfig {
        chunk_size: CHUNK_SIZE,
        cache_bytes: CACHE_BYTES,
        pacing: PACING,
        // The raw/packed generations predate both reuse layers; they pay
        // every upload and every duplicate compute.
        resident_chunks: 0,
        result_cache_bytes: 0,
        // The earlier generations also predate kernel specialization; the
        // dedicated specialized-vs-generic comparison flips this on.
        specialize: false,
        // And they predate the library fast path; the dedicated library
        // pass flips both layers on.
        multi_guide: false,
        candidate_cache_bytes: 0,
        ..ServiceConfig::paper_pool()
    }
}

/// Shut down a service once every other handle to it is gone.
fn shutdown(service: Arc<Service>) {
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => unreachable!("submitters joined and watchers stopped"),
    }
}

/// Submit `jobs` jobs cycling through `specs` from racing submitter
/// threads, wait for all of them, and verify each against `oracle`.
/// Returns the total number of result sites, for the progress line.
fn serve_jobs(
    service: &Arc<Service>,
    jobs: usize,
    specs: &[JobSpec],
    oracle: &[Vec<OffTarget>],
) -> usize {
    // Submitters race the pool; a full queue means back off and retry, so
    // every job is eventually admitted but rejections are counted.
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let service = Arc::clone(service);
            let specs = specs.to_vec();
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in (s..jobs).step_by(SUBMITTERS) {
                    let spec = specs[i % specs.len()].clone();
                    loop {
                        match service.submit(spec.clone()) {
                            Ok(id) => {
                                ids.push((id, i % specs.len()));
                                break;
                            }
                            Err(SubmitError::Shed { .. }) => {
                                std::thread::sleep(Duration::from_micros(500));
                            }
                            Err(err) => panic!("unexpected rejection: {err}"),
                        }
                    }
                }
                ids
            })
        })
        .collect();
    let ids: Vec<(u64, usize)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("submitter panicked"))
        .collect();
    assert_eq!(ids.len(), jobs);

    let results: HashMap<u64, Vec<OffTarget>> = ids
        .iter()
        .map(|&(id, _)| (id, service.wait(id).expect("job was admitted")))
        .collect();
    let mut sites = 0;
    for &(id, spec_index) in &ids {
        assert_eq!(results[&id], oracle[spec_index], "job {id}");
        sites += results[&id].len();
    }
    sites
}

/// Serve `jobs` jobs through a fresh service started with `config` and
/// return the metrics snapshot.
fn serve_run(
    label: &str,
    config: ServiceConfig,
    assembly: &Assembly,
    jobs: usize,
    specs: &[JobSpec],
    oracle: &[Vec<OffTarget>],
) -> MetricsReport {
    let service = Arc::new(Service::start(config, vec![assembly.clone()]));
    let sites = serve_jobs(&service, jobs, specs, oracle);
    println!(
        "[{label}] {jobs} jobs served, {sites} sites total, all byte-identical to the serial pipeline"
    );

    let report = service.metrics();
    print!("{report}");
    assert_eq!(report.jobs_completed, jobs as u64);
    if report.jobs_shed > 0 {
        println!(
            "backpressure: {} submissions were shed off the full queue before admission",
            report.jobs_shed
        );
    }
    println!();
    shutdown(service);
    report
}

fn total_kernel_launches(report: &MetricsReport) -> u64 {
    report.devices.iter().map(|d| d.kernel_launches).sum()
}

/// Per-device busy seconds accrued between `since` and `report`.
fn busy_since(report: &MetricsReport, since: &MetricsReport) -> Vec<f64> {
    report
        .devices
        .iter()
        .zip(&since.devices)
        .map(|(a, b)| a.busy_s - b.busy_s)
        .collect()
}

/// The affinity generation: `AFFINITY_ROUNDS` fresh-guide workloads
/// through one long-lived service, then a verbatim replay of round 0.
/// Returns the cumulative report and the replay's result-store hit rate.
fn affinity_run(
    assembly: &Assembly,
    jobs: usize,
    round0_specs: &[JobSpec],
    round0_oracle: &[Vec<OffTarget>],
) -> (MetricsReport, f64) {
    let config = ServiceConfig {
        resident_chunks: RESIDENT_CHUNKS,
        result_cache_bytes: 1 << 23, // all rounds' results stay resident
        ..demo_config()
    };
    let service = Arc::new(Service::start(config, vec![assembly.clone()]));

    for round in 0..AFFINITY_ROUNDS {
        let (specs, oracle) = if round == 0 {
            (round0_specs.to_vec(), round0_oracle.to_vec())
        } else {
            let seed = 0x5E4E + round as u64 * 0x9E37_79B9;
            let specs = guide_specs(seed, "hg38-mini", TENANT_SPECS);
            let oracle = serial_oracle(assembly, &specs);
            (specs, oracle)
        };
        let sites = serve_jobs(&service, jobs, &specs, &oracle);
        let r = service.metrics();
        println!(
            "[affinity round {round}] {jobs} jobs, {sites} sites; cumulative: \
             {:.1}% of batches reused a resident chunk, {} B uploads skipped, \
             {:.1}% of jobs served without compute",
            100.0 * r.resident_hit_rate(),
            r.h2d_skipped_bytes(),
            100.0 * r.result_cache_hit_rate(),
        );
    }

    // Replay round 0 verbatim: the result store must serve every job with
    // no new batches and no new kernel launches.
    let before = service.metrics();
    let sites = serve_jobs(&service, jobs, round0_specs, round0_oracle);
    let report = service.metrics();
    let launches = total_kernel_launches(&report) - total_kernel_launches(&before);
    let served = (report.results.hits + report.results.merges)
        - (before.results.hits + before.results.merges);
    let replay_hit_rate = served as f64 / jobs as f64;
    println!(
        "[affinity replay] {jobs} jobs, {sites} sites; {served} served from the \
         result store, {} new batches, {launches} new kernel launches\n",
        report.batches_formed - before.batches_formed,
    );
    print!("{report}");
    println!();

    assert_eq!(
        launches, 0,
        "a replayed workload must not launch any kernels"
    );
    assert_eq!(
        report.batches_formed, before.batches_formed,
        "a replayed workload must not form any batches"
    );
    assert_eq!(
        served as usize, jobs,
        "every replayed job must be served from the result store"
    );

    shutdown(service);
    (report, replay_hit_rate)
}

/// Per-tenant goodput-cost quota, in whole jobs, for the QoS overload run:
/// tenant 3 (weight 1) admits `QOS_QUOTA_JOBS` jobs per burst, tenants 2
/// and 1 proportionally more.
const QOS_QUOTA_JOBS: u64 = 8;
/// Open-loop overload bursts through the QoS service. Each burst offers
/// far more work than the quotas admit; goodput accumulates across bursts.
const QOS_ROUNDS: usize = 3;

/// The multi-tenant QoS front end under sustained open-loop overload:
/// three tenants with weights 4/2/1 each flood the service with more work
/// than their quotas admit, every admitted job is collected by *polling*
/// (never a blocking `wait`), completions are counted through registered
/// callbacks, and each result is verified byte-identical to the serial
/// oracle. Deadline admission is exercised on top: generous (feasible)
/// deadlines ride along and must all be met; impossible ones must be
/// rejected up front. Every job computes, so goodput is real device work,
/// not result-store hits. Returns the report plus the deadline-rejection
/// count.
fn qos_run(
    assembly: &Assembly,
    specs: &[JobSpec],
    oracle: &[Vec<OffTarget>],
) -> (MetricsReport, u64) {
    let weights: [(TenantId, u32); 3] = [(TenantId(1), 4), (TenantId(2), 2), (TenantId(3), 1)];
    let job_cost = assembly.total_len() as u64;
    let config = ServiceConfig {
        // Budget = Σ quotas = 7 weight-shares of QOS_QUOTA_JOBS jobs each,
        // so derived quotas land on whole job counts (4/2/1 ×
        // QOS_QUOTA_JOBS) and the budget can never bind before a tenant's
        // quota.
        queue_cost_limit: 7 * QOS_QUOTA_JOBS * job_cost,
        tenants: weights
            .iter()
            .map(|&(id, w)| TenantConfig::weighted(id, w))
            .collect(),
        ..demo_config()
    };
    let service = Arc::new(Service::start(config, vec![assembly.clone()]));

    let done_callbacks = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut admitted: Vec<(Ticket, usize)> = Vec::new();
    let mut offered = 0u64;
    for round in 0..QOS_ROUNDS {
        // Open-loop burst, one racing submitter per tenant: each offers
        // every spec twice (far beyond any quota) with no backoff — a shed
        // job is simply dropped, as a front end under overload would.
        let handles: Vec<_> = weights
            .iter()
            .map(|&(tenant, _)| {
                let service = Arc::clone(&service);
                let specs = specs.to_vec();
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    let mut offered = 0u64;
                    for rep in 0..2 {
                        for (i, spec) in specs.iter().enumerate() {
                            // Feasible SLO on half the jobs: generous next
                            // to the paced drain of one burst.
                            let mut spec = spec.clone().for_tenant(tenant);
                            if (i + rep) % 2 == 0 {
                                spec = spec.with_deadline(Duration::from_secs(600));
                            }
                            offered += 1;
                            match service.submit_ticket(spec) {
                                Ok(ticket) => tickets.push((ticket, i)),
                                Err(SubmitError::Shed { retry_after_cost }) => {
                                    assert!(retry_after_cost > 0, "typed hint is actionable");
                                }
                                Err(err) => panic!("unexpected rejection: {err}"),
                            }
                        }
                    }
                    (tickets, offered)
                })
            })
            .collect();
        let mut round_admitted = Vec::new();
        for h in handles {
            let (tickets, n) = h.join().expect("submitter panicked");
            round_admitted.extend(tickets);
            offered += n;
        }
        // Register completion callbacks, then drain the burst by polling —
        // no thread ever parks in `wait`.
        for (ticket, _) in &round_admitted {
            let done = Arc::clone(&done_callbacks);
            service
                .on_complete(ticket.id, move |_| {
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                })
                .expect("admitted jobs accept callbacks");
        }
        let mut pending: Vec<usize> = (0..round_admitted.len()).collect();
        while !pending.is_empty() {
            pending.retain(|&k| {
                match service
                    .poll(round_admitted[k].0.id)
                    .expect("admitted jobs poll cleanly")
                {
                    Poll::Ready(records) => {
                        assert_eq!(
                            records, oracle[round_admitted[k].1],
                            "polled results must be byte-identical to the serial oracle"
                        );
                        false
                    }
                    Poll::Pending => true,
                }
            });
            if !pending.is_empty() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let r = service.metrics();
        println!(
            "[qos round {round}] {} admitted of {} offered so far; \
             fairness deviation {:.1}%, {} quota sheds / {} budget sheds",
            r.jobs_admitted,
            offered,
            100.0 * r.fairness_max_deviation(),
            r.sheds_quota,
            r.sheds_budget,
        );
        admitted.extend(round_admitted);
    }

    // Deadline admission, on the now-idle service: an impossible SLO is
    // rejected up front with the model's predicted completion.
    let mut deadline_rejections = 0u64;
    for spec in specs.iter().take(4) {
        match service.submit_ticket(
            spec.clone()
                .for_tenant(TenantId(3))
                .with_deadline(Duration::from_micros(1)),
        ) {
            Err(SubmitError::DeadlineInfeasible { predicted }) => {
                assert!(predicted > Duration::from_micros(1));
                deadline_rejections += 1;
            }
            Ok(ticket) => {
                // The model may price an empty queue under 1 µs of wall
                // time only if pacing were off; with pacing on this arm is
                // unreachable, but drain it defensively.
                let _ = service.wait(ticket.id);
                panic!("a 1 µs deadline must be infeasible under pacing");
            }
            Err(err) => panic!("unexpected rejection: {err}"),
        }
    }

    // Callbacks fire from the workers' settle path *after* the entry is
    // marked done, so a poll can collect a job an instant before its
    // callback lands — give stragglers a bounded moment to quiesce before
    // holding the count to exactly-once.
    for _ in 0..10_000 {
        if done_callbacks.load(std::sync::atomic::Ordering::Relaxed) >= admitted.len() as u64 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let report = service.metrics();
    print!("{report}");
    println!();
    assert_eq!(
        done_callbacks.load(std::sync::atomic::Ordering::Relaxed),
        admitted.len() as u64,
        "every admitted job fired its completion callback exactly once"
    );
    assert_eq!(
        report.blocking_waits, 0,
        "the poll/callback harness must never park a thread in wait"
    );
    assert_eq!(report.jobs_completed, admitted.len() as u64);
    assert_eq!(
        report.sheds_budget, 0,
        "derived quotas must bind before the budget, so every shed is \
         attributable to an over-quota tenant"
    );
    assert!(report.jobs_shed > 0, "the overload must actually shed");
    assert_eq!(report.deadline_misses, 0, "every feasible SLO was met");
    let deviation = report.fairness_max_deviation();
    assert!(
        deviation <= 0.15,
        "per-tenant goodput must match the 4/2/1 weights within 15%, \
         got {:.1}%",
        100.0 * deviation
    );

    shutdown(service);
    (report, deadline_rejections)
}

/// What the sharding pass hands back for the JSON and the gates.
struct ShardingOutcome {
    report: MetricsReport,
    jobs: usize,
    chunks: usize,
    resident_hit_rate: f64,
    predicted_makespan_s: f64,
    measured_makespan_s: f64,
    plan_prediction_error: f64,
    migrated_out: usize,
}

/// Up-front planned placement. A `Placement::Planned` service partitions
/// both assemblies' chunk spaces across the fleet by calibrated admission
/// rate, a one-pass warmup prefetches every device's partition on first
/// touch, and then a multi-assembly workload — one full scan of the
/// ~128-chunk `hg38_mini` per guide plus the masked assembly alongside —
/// runs post-warmup. The pass holds dispatch accountable to the plan
/// twice over: near-every batch must find its chunk resident on its
/// planned owner, and the measured makespan must land within 10% of the
/// plan's pre-run prediction. A fleet change at the end demonstrates
/// minimal migration (out and back are the same chunk set, and the
/// restored plan is the original).
fn sharding_run() -> ShardingOutcome {
    let assembly = genome::synth::hg38_mini(SHARD_SCALE);
    let masked_assembly = genome::synth::hg38_masked_mini(GENOME_SCALE);
    // Paced drain (inherited from `demo_config`) keeps queue depth
    // following simulated device speed, so owners saturate only when the
    // plan mispredicts. Single-job batches match the prediction's per-pass
    // unit, and the raised admission budget lets the whole measured
    // workload queue at once.
    let config = ServiceConfig {
        placement: Placement::Planned,
        max_batch: 1,
        resident_chunks: SHARD_RESIDENT_CHUNKS,
        cache_bytes: 1 << 21,
        queue_cost_limit: 100_000_000,
        ..demo_config()
    };
    let service = Arc::new(Service::start(
        config,
        vec![assembly.clone(), masked_assembly.clone()],
    ));
    let plan = service.plan().expect("planned placement installs a plan");
    let hg_chunks = plan.chunk_count("hg38-mini").expect("registered assembly");
    let masked_chunks = plan
        .chunk_count("hg38-masked")
        .expect("registered assembly");
    let shares: Vec<usize> = (0..service.metrics().devices.len())
        .map(|d| {
            (0..hg_chunks)
                .filter(|&i| plan.owner_of("hg38-mini", i) == d)
                .count()
        })
        .collect();
    println!(
        "[sharding] plan: {hg_chunks} + {masked_chunks} chunks partitioned, \
         hg38-mini shares per device: {shares:?}"
    );

    let specs = guide_specs(0xD157, "hg38-mini", SHARD_GUIDES);
    let masked_specs = guide_specs(0x51AB, "hg38-masked", SHARD_GUIDES);
    let oracle = serial_oracle(&assembly, &specs);
    let masked_oracle = serial_oracle(&masked_assembly, &masked_specs);

    // One-pass warmup: one job per (assembly, pattern) pair. Each worker's
    // first batch of a pair triggers the prefetch of its whole partition,
    // so by the end of these four jobs every planned chunk is resident on
    // its owner (residency is keyed per pattern).
    let warm_specs = vec![
        specs[0].clone(),
        specs[1].clone(),
        masked_specs[0].clone(),
        masked_specs[1].clone(),
    ];
    let warm_oracle = vec![
        oracle[0].clone(),
        oracle[1].clone(),
        masked_oracle[0].clone(),
        masked_oracle[1].clone(),
    ];
    serve_jobs(&service, warm_specs.len(), &warm_specs, &warm_oracle);
    let warmed = service.metrics();
    println!(
        "[sharding] warmup: {} partition uploads prefetched, {} planned hits / {} spills",
        warmed.prefetch_uploads, warmed.planned_hits, warmed.spill_fallbacks
    );

    for (d, b) in service.bias_corrections().iter().enumerate() {
        println!(
            "[sharding] bias corrections[{}]: 2bit {:.3}, char {:.3} (decayed measured/model ratio)",
            d, b[1], b[2]
        );
    }

    // The pre-run promise, priced after warmup so the converged bias is
    // in: per-device busy seconds with every chunk resident on its owner,
    // summed over both assemblies and both patterns.
    let devices = warmed.devices.len();
    let mut predicted = vec![0.0f64; devices];
    for (name, group) in [("hg38-mini", &specs), ("hg38-masked", &masked_specs)] {
        for pattern in [b"NNNNNNNNNRG".as_slice(), b"NNNNNNNNNGG".as_slice()] {
            let passes = group.iter().filter(|s| s.pattern == pattern).count();
            let busy = service
                .plan_scan_prediction(name, pattern, passes, true)
                .expect("plan + registered assembly");
            for (d, b) in busy.iter().enumerate() {
                predicted[d] += b;
            }
        }
    }
    let predicted_makespan_s = predicted.iter().cloned().fold(0.0, f64::max);
    println!("[sharding] predicted: makespan {predicted_makespan_s:.6} s post-warmup");

    // The measured scan: every distinct guide once, against both
    // assemblies — 8 full-genome scans over prefetched partitions.
    let all_specs: Vec<JobSpec> = specs.iter().chain(&masked_specs).cloned().collect();
    let all_oracle: Vec<Vec<OffTarget>> = oracle.iter().chain(&masked_oracle).cloned().collect();
    let jobs = all_specs.len();
    let sites = serve_jobs(&service, jobs, &all_specs, &all_oracle);
    let report = service.metrics();
    println!(
        "[sharding] {jobs} jobs served post-warmup, {sites} sites, all byte-identical \
         to the serial pipeline"
    );

    let residency = |r: &MetricsReport| {
        r.devices.iter().fold((0, 0), |(hits, misses), d| {
            (hits + d.resident_hits, misses + d.resident_misses)
        })
    };
    let ((hits_after, misses_after), (hits_before, misses_before)) =
        (residency(&report), residency(&warmed));
    let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);
    let resident_hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let measured = busy_since(&report, &warmed);
    let measured_makespan_s = measured.iter().cloned().fold(0.0, f64::max);
    let plan_prediction_error =
        (measured_makespan_s - predicted_makespan_s).abs() / predicted_makespan_s;
    for (d, device) in report.devices.iter().enumerate() {
        println!(
            "[sharding]   {} [{}]: predicted {:.6} s, measured {:.6} s",
            device.name, device.api, predicted[d], measured[d]
        );
    }
    println!(
        "[sharding] measured: makespan {measured_makespan_s:.6} s ({:.1}% off the plan), \
         {:.1}% of post-warmup batches found their chunk resident on the planned owner",
        100.0 * plan_prediction_error,
        100.0 * resident_hit_rate,
    );

    // Fleet change on the now-idle service: dropping a device migrates
    // only its chunks; bringing it back restores the original plan — the
    // same chunk set moves, and nothing else ever does.
    let migrated_out = service.set_device_active(3, false);
    let migrated_back = service.set_device_active(3, true);
    assert_eq!(
        migrated_out, migrated_back,
        "the chunks that migrate out are exactly the ones that come back"
    );
    assert_eq!(
        service
            .plan()
            .expect("plan still installed")
            .migrated_from(&plan),
        0,
        "re-activation must restore the original plan"
    );
    println!(
        "[sharding] fleet change: device 3 out migrates {migrated_out} of {} chunks, \
         back in restores the original plan\n",
        hg_chunks + masked_chunks
    );

    let report = service.metrics();
    print!("{report}");
    println!();

    shutdown(service);
    ShardingOutcome {
        report,
        jobs,
        chunks: hg_chunks + masked_chunks,
        resident_hit_rate,
        predicted_makespan_s,
        measured_makespan_s,
        plan_prediction_error,
        migrated_out,
    }
}

/// Guides per library screen — production pooled-library scale.
const LIBRARY_GUIDES: usize = 2000;
/// Genome scale for the library pass: ~4.7k bases per chromosome keeps the
/// 125-sweep screen tractable while the assembly still spans a couple
/// dozen chunks for the candidate cache to manage.
const LIBRARY_SCALE: f64 = 0.005;
/// Guide-block-sized groups: each coalesced batch carries exactly one
/// fused comparer launch, so the launch ratio lands at 1/16.
const LIBRARY_MAX_BATCH: usize = 16;

/// What the library pass hands back for the JSON and the gates.
struct LibraryOutcome {
    report: MetricsReport,
    sites: usize,
    baseline_makespan_s: f64,
    warm_makespan_s: f64,
    screen_speedup: f64,
}

/// A pooled-library screen — one PAM pattern, [`LIBRARY_GUIDES`] guides —
/// as a single [`JobSpec::library`] job. The baseline service predates
/// the fast path (no fused comparers, no candidate cache): every guide
/// block pays one comparer launch per guide and every sweep re-runs the
/// finder. The fast service screens the same library with fused
/// multi-guide launches, then screens it *again* post-warmup, where the
/// content-addressed candidate cache holds every chunk's finder output
/// and the dispatch prices every sweep with its finder skipped. Both
/// screens' unions must be byte-identical to the baseline's, and the
/// speedup is measured warm-screen vs baseline on simulated device time.
/// Repeat screens recompute, because the result store stays off: the
/// point is the candidate cache and fused launches, not result-store
/// dedup (the affinity replay measures that path).
fn library_run() -> LibraryOutcome {
    let assembly = genome::synth::hg38_mini(LIBRARY_SCALE);
    let mut rng = Xoshiro256::seed_from_u64(0x11B2);
    let guides: Vec<Vec<u8>> = (0..LIBRARY_GUIDES)
        .map(|_| random_guide(&mut rng))
        .collect();
    let spec = JobSpec::library("hg38-mini", b"NNNNNNNNNRG".to_vec(), guides, 3);

    let base_config = ServiceConfig {
        max_batch: LIBRARY_MAX_BATCH,
        // One screen costs total_len x guides admission units; let it queue.
        queue_cost_limit: 1 << 31,
        // The pass measures simulated device seconds; pacing would only
        // stretch the wall clock of the ~3000-batch screens.
        pacing: 0.0,
        ..demo_config()
    };
    // The baseline predates the fast path; the fast service gets both
    // layers at the paper-pool budget.
    let config = ServiceConfig {
        multi_guide: true,
        candidate_cache_bytes: 1 << 20,
        ..base_config.clone()
    };

    // Baseline: the pre-fast-path service screens the library with
    // per-guide comparer launches and a finder sweep per batch. Its union
    // — per-guide compute on the path the earlier passes verified against
    // the serial pipeline — is the oracle for the fast screens.
    let baseline_service = Arc::new(Service::start(base_config, vec![assembly.clone()]));
    let oracle = baseline_service
        .wait(
            baseline_service
                .submit(spec.clone())
                .expect("screen admits"),
        )
        .expect("screen completes");
    assert!(!oracle.is_empty(), "the screen must find sites");
    let baseline = baseline_service.metrics();
    let baseline_makespan_s = makespan_s(&baseline);
    shutdown(baseline_service);
    println!(
        "[library baseline] {LIBRARY_GUIDES} guides, {} sites; {} finder / {} comparer \
         launches, makespan {baseline_makespan_s:.6} s",
        oracle.len(),
        baseline.finder_launches,
        baseline.comparer_launches,
    );

    // Fast path, cold: the first screen leads every (chunk, pattern)
    // candidate list into the cache while its guide blocks already ride
    // fused launches.
    let service = Arc::new(Service::start(config, vec![assembly]));
    let warmup = service
        .wait(service.submit(spec.clone()).expect("screen admits"))
        .expect("screen completes");
    assert_eq!(warmup, oracle, "fused launches must not change the union");
    let warmed = service.metrics();
    println!(
        "[library cold]     same screen fused: {} comparer launches ({} fused), \
         {} candidate lists published",
        warmed.comparer_launches, warmed.fused_launches, warmed.candidates.inserts,
    );

    // Fast path, warm: every sweep finds its candidate list published, so
    // dispatch prices the finder at zero and the workers replay the lists.
    let measured = service
        .wait(service.submit(spec).expect("screen admits"))
        .expect("screen completes");
    assert_eq!(
        measured, oracle,
        "cached candidates must not change the union"
    );
    let report = service.metrics();
    let warm_makespan_s = busy_since(&report, &warmed).into_iter().fold(0.0, f64::max);
    let screen_speedup = baseline_makespan_s / warm_makespan_s;
    println!(
        "[library warm]     {} finder launches skipped, {:.1}% candidate hit rate, \
         {:.3} comparer launches per job-chunk, makespan {warm_makespan_s:.6} s \
         ({screen_speedup:.2}x the baseline screen)\n",
        report.finder_launches_skipped,
        100.0 * report.candidate_hit_rate(),
        report.comparer_launch_ratio(),
    );
    print!("{report}");
    println!();

    shutdown(service);
    LibraryOutcome {
        report,
        sites: measured.len(),
        baseline_makespan_s,
        warm_makespan_s,
        screen_speedup,
    }
}

/// End-to-end completion-latency SLO for the trace pass: generous next
/// to one job's paced service time, tight next to the backlog a late
/// scale-up would leave behind — the number the p99 violation gate
/// holds both pools to.
const TRACE_SLO: Duration = Duration::from_millis(2500);

/// The demo trace: a diurnal ramp that a single device cannot quite
/// hold, an on/off burst whose on-phase needs most of the fleet, and a
/// quiet tail that earns the scale-downs. The tenant mix shifts each
/// phase and the burst concentrates on a four-spec hot spot.
fn demo_trace() -> TraceSpec {
    TraceSpec {
        seed: 0x7ACE,
        phases: vec![
            PhaseSpec {
                duration_s: 5.0,
                shape: ArrivalShape::Diurnal {
                    base_rate_per_s: 8.0,
                    amplitude: 0.5,
                    period_s: 5.0,
                },
                tenants: vec![(TenantId(1), 3), (TenantId(2), 1)],
                hot_spot: None,
            },
            PhaseSpec {
                duration_s: 8.0,
                shape: ArrivalShape::Bursty {
                    on_rate_per_s: 30.0,
                    period_s: 3.0,
                    duty: 0.5,
                },
                tenants: vec![(TenantId(2), 2), (TenantId(3), 1)],
                hot_spot: Some(HotSpot {
                    fraction: 0.6,
                    span: 4,
                }),
            },
            PhaseSpec {
                duration_s: 4.0,
                shape: ArrivalShape::Steady { rate_per_s: 5.0 },
                tenants: vec![(TenantId(3), 1)],
                hot_spot: None,
            },
        ],
    }
}

/// One pool's replay of the trace, plus the autoscaler's report when the
/// pool was elastic.
struct TracePoolRun {
    digest: u64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    violation_rate: f64,
    device_seconds: f64,
    prediction_error: f64,
    max_window_depth: usize,
    scale: Option<AutoscaleReport>,
}

/// Replay `events` open-loop — each submission at its trace timestamp,
/// never waiting for completions — against a fresh planned-placement
/// service, optionally elastic: the pool starts at one active device and
/// an [`Autoscaler`] earns the rest against its predicted-delay SLO.
/// Results are verified against the serial oracle and folded into a
/// digest in event order; latency quantiles and SLO violations come from
/// the service's windowed metrics ring.
fn trace_pool_run(
    label: &str,
    assembly: &Assembly,
    events: &[TraceEvent],
    specs: &[JobSpec],
    oracle: &[Vec<OffTarget>],
    autoscale: Option<AutoscaleConfig>,
) -> TracePoolRun {
    let config = ServiceConfig {
        placement: Placement::Planned,
        // Open-loop: the generator never blocks on the pool, so the queue
        // must absorb the whole burst and backpressure shows up as
        // latency, not sheds.
        queue_cost_limit: 1 << 40,
        ..demo_config()
    };
    let service = Arc::new(Service::start(config, vec![assembly.clone()]));
    let devices = service.metrics().devices.len();
    let scaler = autoscale.map(|cfg| {
        // The elastic pool starts at the floor; demand earns the rest.
        for d in 1..devices {
            service.set_device_active(d, false);
        }
        Autoscaler::watch(Arc::clone(&service), cfg)
    });

    let start = Instant::now();
    let mut ids: Vec<(u64, usize)> = Vec::with_capacity(events.len());
    for ev in events {
        let target = Duration::from_secs_f64(ev.at_s);
        loop {
            let elapsed = start.elapsed();
            if elapsed >= target {
                break;
            }
            std::thread::sleep(target - elapsed);
        }
        let spec = specs[ev.spec_index].clone().for_tenant(ev.tenant);
        loop {
            match service.submit(spec.clone()) {
                Ok(id) => {
                    ids.push((id, ev.spec_index));
                    break;
                }
                Err(SubmitError::Shed { .. }) => std::thread::sleep(Duration::from_micros(500)),
                Err(err) => panic!("unexpected rejection: {err}"),
            }
        }
    }
    let mut digest = RESULT_DIGEST_SEED;
    for &(id, spec_index) in &ids {
        let records = service.wait(id).expect("job was admitted");
        assert_eq!(records, oracle[spec_index], "job {id}");
        digest = fold_results(digest, &records);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let scale = scaler.map(|s| s.stop());
    let report = service.metrics();
    assert_eq!(report.jobs_completed, events.len() as u64);
    let windows = service.latency_windows();
    let max_window_depth = windows.iter().map(|w| w.queue_depth_max).max().unwrap_or(0);

    let run = TracePoolRun {
        digest,
        p50: service.latency_quantile(0.5),
        p95: service.latency_quantile(0.95),
        p99: service.latency_quantile(0.99),
        violation_rate: service.slo_violation_rate(TRACE_SLO),
        device_seconds: scale
            .as_ref()
            .map_or(devices as f64 * elapsed_s, |r| r.device_seconds),
        prediction_error: report.mean_prediction_error(),
        max_window_depth,
        scale,
    };
    println!(
        "[{label}] {} jobs in {elapsed_s:.1} s wall; latency p50/p95/p99 \
         {:.0}/{:.0}/{:.0} ms, {:.2}% over the {} ms SLO; {} metric windows, \
         max queue depth {}, {:.1} device-seconds provisioned; result digest {:016x}",
        events.len(),
        run.p50.as_secs_f64() * 1e3,
        run.p95.as_secs_f64() * 1e3,
        run.p99.as_secs_f64() * 1e3,
        100.0 * run.violation_rate,
        TRACE_SLO.as_millis(),
        windows.len(),
        run.max_window_depth,
        run.device_seconds,
        run.digest,
    );
    if let Some(r) = &run.scale {
        for e in &r.events {
            println!(
                "[{label}]   t+{:.2}s scale {} device {} -> {} active \
                 (predicted delay {:.0} ms, queue depth {}, {} chunks replanned)",
                e.at.as_secs_f64(),
                match e.direction {
                    ScaleDirection::Up => "up:",
                    ScaleDirection::Down => "down:",
                },
                e.device,
                e.active_after,
                e.predicted_delay.as_secs_f64() * 1e3,
                e.queue_depth,
                e.migrated_chunks,
            );
        }
    }
    shutdown(service);
    run
}

/// Simulated makespan: the busiest device bounds the pool's throughput.
fn makespan_s(report: &MetricsReport) -> f64 {
    report.devices.iter().map(|d| d.busy_s).fold(0.0, f64::max)
}

fn upload_bytes_per_batch(report: &MetricsReport) -> f64 {
    let h2d: u64 = report.devices.iter().map(|d| d.h2d_bytes).sum();
    h2d as f64 / report.batches_formed.max(1) as f64
}

/// One kernel's pseudo-ISA costs: the generic kernel at the pool's opt
/// level against its constant-folded variant.
struct VariantRow {
    name: &'static str,
    generic: ResourceUsage,
    folded: ResourceUsage,
    generic_waves: u32,
    folded_waves: u32,
}

/// Per-variant ISA costs at pattern length `plen` on `device`, priced by
/// the same pseudo-ISA compiler the simulator runs.
fn variant_rows(plen: usize, device: &DeviceSpec) -> Vec<VariantRow> {
    let nd = NdRange::linear(CHUNK_SIZE, 64);
    VariantKind::ALL
        .iter()
        .map(|kind| {
            let generic = compile(&generic_model(*kind, OptLevel::Base));
            let folded = compile(&specialized_model(*kind, plen));
            VariantRow {
                name: kind.kernel_name(),
                generic_waves: occupancy(&generic, &nd, device).waves_per_simd,
                folded_waves: occupancy(&folded, &nd, device).waves_per_simd,
                generic,
                folded,
            }
        })
        .collect()
}

/// A JSON value: just what `BENCH_serve.json` holds.
enum Json {
    Int(u64),
    /// A float written with a fixed number of decimal places.
    Fixed(f64, usize),
    Bool(bool),
    /// Written with Rust's `Debug` escapes, which are JSON's for the
    /// printable ASCII of kernel names.
    Str(&'static str),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

/// `obj! { "key": value, ... }`: a [`Json::Object`] with its keys in the
/// order written.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        Json::Object(vec![$(($key, $value)),*])
    };
}

fn int<T: TryInto<u64>>(n: T) -> Json
where
    T::Error: std::fmt::Debug,
{
    Json::Int(n.try_into().expect("counts fit in u64"))
}

fn fixed(x: f64, decimals: usize) -> Json {
    Json::Fixed(x, decimals)
}

impl Json {
    /// Append `self` to `out`. An object of scalars goes on one line; any
    /// other container puts each element on a line of its own, indented
    /// past `indent`. `key` names the value in the panic on a non-finite
    /// float.
    fn write(&self, key: &str, indent: usize, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Int(n) => return write!(out, "{n}").unwrap(),
            Json::Fixed(x, decimals) => {
                assert!(x.is_finite(), "BENCH_serve.json: \"{key}\" is {x}");
                return write!(out, "{x:.decimals$}").unwrap();
            }
            Json::Bool(b) => return write!(out, "{b}").unwrap(),
            Json::Str(s) => return write!(out, "{s:?}").unwrap(),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(entries) => (
                '{',
                '}',
                entries.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let flat = open == '{'
            && items
                .iter()
                .all(|(_, v)| !matches!(v, Json::Array(_) | Json::Object(_)));
        let pad = " ".repeat(indent);
        let (sep, end) = if flat {
            (" ".to_string(), " ".to_string())
        } else {
            (format!("\n{pad}  "), format!("\n{pad}"))
        };
        out.push(open);
        for (i, (k, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&sep);
            if let Some(k) = k {
                write!(out, "\"{k}\": ").unwrap();
            }
            v.write(k.unwrap_or(key), indent + 2, out);
        }
        out.push_str(&end);
        out.push(close);
    }
}

fn main() {
    let jobs = jobs_from_env();
    let config = demo_config();
    println!(
        "pool: {}",
        config
            .devices
            .iter()
            .map(|d| format!("{} [{}]", d.spec.name, d.api))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let assembly = genome::synth::hg38_mini(GENOME_SCALE);
    let specs = guide_specs(0x5E4E, "hg38-mini", TENANT_SPECS);
    let oracle = serial_oracle(&assembly, &specs);
    let run = |label: &str, config: ServiceConfig| {
        serve_run(label, config, &assembly, jobs, &specs, &oracle)
    };
    let packed = run("packed + cost-aware", config.clone());
    let raw = run(
        "raw + shortest-queue baseline",
        ServiceConfig {
            cache_encoding: ChunkEncoding::Raw,
            placement: Placement::ShortestQueue,
            ..config.clone()
        },
    );
    let (affinity, replay_hit_rate) = affinity_run(&assembly, jobs, &specs, &oracle);

    // Exception-dense assembly: the same tenant load against soft-mask
    // runs and degenerate bases. Raw payloads put every batch on the char
    // comparer; the adaptive cache flips dense chunks to 4-bit nibbles.
    let masked_assembly = genome::synth::hg38_masked_mini(GENOME_SCALE);
    let masked_specs = guide_specs(0x3A5C, "hg38-masked", TENANT_SPECS);
    let masked_oracle = serial_oracle(&masked_assembly, &masked_specs);
    let masked_run = |label: &str, config: ServiceConfig| {
        serve_run(
            label,
            config,
            &masked_assembly,
            jobs,
            &masked_specs,
            &masked_oracle,
        )
    };
    let masked_config = ServiceConfig {
        chunk_size: MASKED_CHUNK_SIZE,
        ..config
    };
    let masked_char = masked_run(
        "masked + char fallback",
        ServiceConfig {
            cache_encoding: ChunkEncoding::Raw,
            ..masked_config.clone()
        },
    );
    let masked = masked_run("masked + adaptive 4-bit", masked_config.clone());

    // The same adaptive workload served with per-(pattern, threshold)
    // constant-folded kernel variants — on the nibble path both the PAM
    // finder and the comparer fold, so this is where specialization pays
    // most. The first specialized service pays every variant compile into
    // the process-wide cache; a second, freshly started service finds all
    // of them already compiled. Throughput is simulated device time, so
    // the speedup comes from the folded kernels' smaller instruction
    // streams — host-side compile cost shows up only in the variant-cache
    // stats.
    let plen = masked_specs[0].pattern.len();
    let table_spec = DeviceSpec::mi100();
    println!(
        "kernel specialization ({} tenants, pattern length {plen}; per-variant ISA \
         priced on {} at work-group size 64):",
        masked_specs.len(),
        table_spec.name
    );
    let specialized = ServiceConfig {
        specialize: true,
        ..masked_config
    };
    let spec_cold = masked_run(
        "adaptive + specialized kernels, cold variant cache",
        specialized.clone(),
    );
    let spec_warm = masked_run(
        "adaptive + specialized kernels, warm variant cache",
        specialized,
    );
    let rows = variant_rows(plen, &table_spec);

    // The multi-tenant QoS front end under sustained open-loop overload —
    // weighted fair queuing, quota-ordered shedding, deadline admission,
    // and fully non-blocking poll/callback completion.
    println!("multi-tenant QoS front end (weights 4/2/1, open-loop overload):");
    let (qos, deadline_rejections) = qos_run(&assembly, &specs, &oracle);

    // Up-front planned placement over a production-scale chunk space,
    // with a one-pass partition warmup and a makespan the plan predicted
    // before dispatch.
    println!("planned placement (range partition + one-pass warmup):");
    let sharding = sharding_run();

    // The library-screen fast path — one PAM, LIBRARY_GUIDES guides as a
    // single screen job, fused multi-guide comparer launches, and a
    // content-addressed candidate cache that lets repeat sweeps skip the
    // finder entirely.
    println!("library screens ({LIBRARY_GUIDES} guides, fused comparers + candidate cache):");
    let library = library_run();

    // The trace-driven load harness against fixed and elastic pools. The
    // same seeded schedule replays twice; the digest equality below is
    // the determinism claim end to end.
    println!("trace-driven load harness (diurnal -> burst -> quiet, fixed vs autoscaled):");
    let trace_spec = demo_trace();
    let events = trace_spec.generate(specs.len());
    assert_eq!(
        schedule_digest(&events),
        schedule_digest(&trace_spec.generate(specs.len())),
        "the seeded trace must generate byte-identical schedules"
    );
    let trace_oracle_digest = events.iter().fold(RESULT_DIGEST_SEED, |d, ev| {
        fold_results(d, &oracle[ev.spec_index])
    });
    println!(
        "[trace] {} events over {:.0} s (schedule digest {:016x}, oracle result digest {:016x})",
        events.len(),
        trace_spec.horizon_s(),
        schedule_digest(&events),
        trace_oracle_digest,
    );
    let trace_fixed = trace_pool_run("trace fixed", &assembly, &events, &specs, &oracle, None);
    let trace_auto = trace_pool_run(
        "trace autoscaled",
        &assembly,
        &events,
        &specs,
        &oracle,
        Some(AutoscaleConfig {
            // Predicted *queue delay* SLO — deliberately a fraction of
            // the end-to-end TRACE_SLO so the controller reacts while a
            // burst's backlog is still cheap to clear.
            slo: Duration::from_millis(700),
            window: Duration::from_millis(250),
            samples_per_window: 5,
            scale_up_windows: 2,
            // Eager enough that the burst's 1.5 s off-phases earn
            // retirements; the 2-window scale-up wins them back in 0.5 s
            // when the next on-phase lands.
            scale_down_windows: 4,
            low_utilization: 0.45,
            headroom: 0.5,
            min_devices: 1,
            max_devices: 4,
        }),
    );
    let trace_scale = trace_auto
        .scale
        .as_ref()
        .expect("the autoscaled run carries a report");
    let device_seconds_saved = 1.0 - trace_auto.device_seconds / trace_fixed.device_seconds;

    let packed_jobs_per_s = jobs as f64 / makespan_s(&packed);
    let raw_jobs_per_s = jobs as f64 / makespan_s(&raw);
    let transfer_reduction = upload_bytes_per_batch(&raw) / upload_bytes_per_batch(&packed);
    let affinity_transfer_reduction =
        upload_bytes_per_batch(&packed) / upload_bytes_per_batch(&affinity);
    let masked_jobs_per_s = jobs as f64 / makespan_s(&masked);
    let masked_upload_ratio =
        upload_bytes_per_batch(&masked) / upload_bytes_per_batch(&masked_char);
    let spec_warm_jobs_per_s = jobs as f64 / makespan_s(&spec_warm);
    let specialize_speedup = spec_warm_jobs_per_s / masked_jobs_per_s;
    let generation = |report: &MetricsReport, jobs_per_s: f64| {
        obj! {
            "jobs_per_s": fixed(jobs_per_s, 2),
            "cache_hit_rate": fixed(report.cache_hit_rate(), 4),
            "upload_bytes_per_batch": fixed(upload_bytes_per_batch(report), 1),
            "mean_prediction_error": fixed(report.mean_prediction_error(), 4),
            "makespan_s": fixed(makespan_s(report), 6),
        }
    };
    let ms = |d: Duration| fixed(d.as_secs_f64() * 1e3, 1);

    let json = obj! {
        "jobs": int(jobs),
        "chunk_size": int(CHUNK_SIZE),
        "cache_bytes": int(CACHE_BYTES),
        "packed": generation(&packed, packed_jobs_per_s),
        "raw_baseline": generation(&raw, raw_jobs_per_s),
        "affinity": obj! {
            "jobs": int(affinity.jobs_completed),
            "jobs_per_s": fixed(affinity.jobs_completed as f64 / makespan_s(&affinity), 2),
            "upload_bytes_per_batch": fixed(upload_bytes_per_batch(&affinity), 1),
            "mean_prediction_error": fixed(affinity.mean_prediction_error(), 4),
            "makespan_s": fixed(makespan_s(&affinity), 6),
            "resident_hit_rate": fixed(affinity.resident_hit_rate(), 4),
            "h2d_skipped_bytes": int(affinity.h2d_skipped_bytes()),
            "result_cache_hit_rate": fixed(affinity.result_cache_hit_rate(), 4),
            "second_pass_result_cache_hit_rate": fixed(replay_hit_rate, 4),
        },
        "masked": obj! {
            "jobs": int(jobs),
            "char_fallback_batches": int(masked.comparer_char_batches),
            "comparer_4bit_batches": int(masked.comparer_4bit_batches),
            "upload_bytes_per_batch": fixed(upload_bytes_per_batch(&masked), 1),
            "char_upload_bytes_per_batch": fixed(upload_bytes_per_batch(&masked_char), 1),
            "upload_ratio_vs_char": fixed(masked_upload_ratio, 3),
            "jobs_per_s": fixed(masked_jobs_per_s, 2),
            "char_jobs_per_s": fixed(jobs as f64 / makespan_s(&masked_char), 2),
            "cache_hit_rate": fixed(masked.cache_hit_rate(), 4),
            "mean_prediction_error": fixed(masked.mean_prediction_error(), 4),
        },
        "specialized": obj! {
            "jobs_per_s": fixed(spec_warm_jobs_per_s, 2),
            "cold_jobs_per_s": fixed(jobs as f64 / makespan_s(&spec_cold), 2),
            "generic_jobs_per_s": fixed(masked_jobs_per_s, 2),
            "specialize_speedup": fixed(specialize_speedup, 3),
            "warm_variant_hit_rate": fixed(spec_warm.variants.hit_rate(), 4),
            "cold_variant_hit_rate": fixed(spec_cold.variants.hit_rate(), 4),
            "cold_variant_compiles": int(spec_cold.variants.compiles),
            "warm_variant_compiles": int(spec_warm.variants.compiles),
            "warm_variant_evictions": int(spec_warm.variants.evictions),
            "compile_p50_ns": int(spec_cold.variants.compile_p50_ns),
            "compile_p95_ns": int(spec_cold.variants.compile_p95_ns),
            "spec_mean_prediction_error": fixed(spec_warm.mean_prediction_error(), 4),
            "variants": Json::Array(rows.iter().map(|row| obj! {
                "kernel": Json::Str(row.name),
                "generic_code_bytes": int(row.generic.code_bytes),
                "spec_code_bytes": int(row.folded.code_bytes),
                "generic_sgprs": int(row.generic.sgprs),
                "spec_sgprs": int(row.folded.sgprs),
                "generic_vgprs": int(row.generic.vgprs),
                "spec_vgprs": int(row.folded.vgprs),
                "generic_waves": int(row.generic_waves),
                "spec_waves": int(row.folded_waves),
            }).collect()),
        },
        "qos": obj! {
            "fairness_max_deviation": fixed(qos.fairness_max_deviation(), 4),
            "sheds_quota": int(qos.sheds_quota),
            "sheds_budget": int(qos.sheds_budget),
            "deadline_misses": int(qos.deadline_misses),
            "deadline_rejections": int(deadline_rejections),
            "blocking_waits": int(qos.blocking_waits),
            "jobs_admitted": int(qos.jobs_admitted),
            "jobs_shed": int(qos.jobs_shed),
            "tenants": Json::Array(qos.tenants.iter().map(|t| obj! {
                "tenant": int(t.id.0),
                "weight": int(t.weight),
                "admitted": int(t.admitted),
                "shed": int(t.shed),
                "completed": int(t.completed),
                "goodput_cost": int(t.goodput_cost),
                "shed_rate": fixed(t.shed_rate(), 4),
                "deadline_misses": int(t.deadline_misses),
                "latency_p50_ns": int(t.latency_p50_ns),
                "latency_p95_ns": int(t.latency_p95_ns),
                "latency_p99_ns": int(t.latency_p99_ns),
            }).collect()),
        },
        "sharding": obj! {
            "jobs": int(sharding.jobs),
            "chunks": int(sharding.chunks),
            "resident_hit_rate": fixed(sharding.resident_hit_rate, 4),
            "plan_prediction_error": fixed(sharding.plan_prediction_error, 4),
            "predicted_makespan_s": fixed(sharding.predicted_makespan_s, 6),
            "measured_makespan_s": fixed(sharding.measured_makespan_s, 6),
            "planned_hits": int(sharding.report.planned_hits),
            "spill_fallbacks": int(sharding.report.spill_fallbacks),
            "prefetch_uploads": int(sharding.report.prefetch_uploads),
            "migrated_chunks": int(sharding.report.migrated_chunks),
        },
        "library": obj! {
            "guides": int(LIBRARY_GUIDES),
            "sites": int(library.sites),
            "screen_speedup": fixed(library.screen_speedup, 4),
            "baseline_makespan_s": fixed(library.baseline_makespan_s, 6),
            "warm_makespan_s": fixed(library.warm_makespan_s, 6),
            "candidate_hit_rate": fixed(library.report.candidate_hit_rate(), 4),
            "finder_launches_skipped": int(library.report.finder_launches_skipped),
            "comparer_launch_ratio": fixed(library.report.comparer_launch_ratio(), 4),
            "fused_launches": int(library.report.fused_launches),
            "candidate_evictions": int(library.report.candidates.evictions),
        },
        "trace": obj! {
            "events": int(events.len()),
            "horizon_s": fixed(trace_spec.horizon_s(), 1),
            "slo_ms": int(TRACE_SLO.as_millis()),
            "fixed": obj! {
                "latency_p50_ms": ms(trace_fixed.p50),
                "latency_p95_ms": ms(trace_fixed.p95),
                "latency_p99_ms": ms(trace_fixed.p99),
                "fixed_slo_violation_rate": fixed(trace_fixed.violation_rate, 4),
                "fixed_device_seconds": fixed(trace_fixed.device_seconds, 2),
                "fixed_max_queue_depth": int(trace_fixed.max_window_depth),
            },
            "autoscaled": obj! {
                "latency_p50_ms": ms(trace_auto.p50),
                "latency_p95_ms": ms(trace_auto.p95),
                "latency_p99_ms": ms(trace_auto.p99),
                "p99_slo_violation_rate": fixed(trace_auto.violation_rate, 4),
                "autoscaled_device_seconds": fixed(trace_auto.device_seconds, 2),
                "autoscaled_max_queue_depth": int(trace_auto.max_window_depth),
                "scale_ups": int(trace_scale.scale_ups()),
                "scale_downs": int(trace_scale.scale_downs()),
                "trace_migrated_chunks": int(trace_scale.migrated_chunks()),
                "peak_active": int(trace_scale.peak_active),
                "min_active": int(trace_scale.min_active),
                "trace_prediction_error": fixed(trace_auto.prediction_error, 4),
            },
            "device_seconds_saved": fixed(device_seconds_saved, 4),
            "digests_match": Json::Bool(
                trace_fixed.digest == trace_oracle_digest
                    && trace_auto.digest == trace_oracle_digest
            ),
        },
        "transfer_reduction_per_batch": fixed(transfer_reduction, 3),
        "affinity_transfer_reduction_per_batch": fixed(affinity_transfer_reduction, 3),
        "jobs_per_s_improvement": fixed(packed_jobs_per_s / raw_jobs_per_s, 3),
    };
    let mut text = String::new();
    json.write("BENCH_serve.json", 0, &mut text);
    text.push('\n');
    std::fs::write("BENCH_serve.json", &text).expect("write BENCH_serve.json");
    print!("{text}");
    println!("wrote BENCH_serve.json");

    assert!(
        packed.coalescing_ratio() > 1.5,
        "coalescing ratio {:.2} must exceed 1.5",
        packed.coalescing_ratio()
    );
    assert!(
        packed.cache_hit_rate() > 0.5,
        "packed cache hit rate {:.1}% must exceed 50%",
        100.0 * packed.cache_hit_rate()
    );
    assert!(
        packed.cache_hit_rate() > raw.cache_hit_rate(),
        "packed must out-hit raw at the same byte budget"
    );
    assert!(
        transfer_reduction >= 2.0,
        "packed chunks must cut per-batch upload bytes at least 2x, got {transfer_reduction:.2}x"
    );
    assert!(
        packed_jobs_per_s > raw_jobs_per_s,
        "the packed cost-aware path must out-serve the PR 2 baseline: \
         {packed_jobs_per_s:.0} vs {raw_jobs_per_s:.0} jobs/s"
    );
    assert!(
        affinity.resident_hit_rate() > 0.0 && affinity.h2d_skipped_bytes() > 0,
        "affinity must reuse resident chunks"
    );
    assert!(
        affinity_transfer_reduction >= 2.0,
        "resident chunks + result dedup must cut per-batch upload bytes at least \
         2x beyond the packed path, got {affinity_transfer_reduction:.2}x"
    );
    assert!(
        replay_hit_rate >= 1.0,
        "the replayed workload must be fully served from the result store"
    );
    assert_eq!(
        masked.comparer_char_batches, 0,
        "the adaptive cache must keep every exception-dense batch off the char comparer"
    );
    assert!(
        masked.comparer_4bit_batches > 0,
        "dense chunks must be served by the 4-bit nibble comparer"
    );
    assert!(
        masked_upload_ratio <= 0.55,
        "nibble payloads must cut per-batch upload bytes to at most 0.55x the \
         char baseline, got {masked_upload_ratio:.3}x"
    );
    assert!(
        masked.mean_prediction_error() <= 0.10,
        "the calibrated cost model must stay within 10% on the masked workload, \
         got {:.1}%",
        100.0 * masked.mean_prediction_error()
    );
    assert!(
        spec_cold.variants.compiles > 0,
        "the cold specialized run must compile kernel variants"
    );
    assert!(
        spec_warm.variants.hit_rate() >= 0.9,
        "the warm variant cache must hit >= 90%, got {:.1}% ({} hits / {} misses)",
        100.0 * spec_warm.variants.hit_rate(),
        spec_warm.variants.hits,
        spec_warm.variants.misses,
    );
    assert!(
        specialize_speedup >= 1.15,
        "specialized kernels must serve >= 1.15x the generic adaptive path, \
         got {specialize_speedup:.3}x"
    );
    assert!(
        spec_warm.mean_prediction_error() <= 0.10,
        "the specialized cost model must stay within 10%, got {:.1}%",
        100.0 * spec_warm.mean_prediction_error()
    );
    for row in &rows {
        assert!(
            row.folded.code_bytes < row.generic.code_bytes,
            "{}: folding must shrink the instruction stream",
            row.name
        );
        assert!(
            row.folded_waves >= row.generic_waves,
            "{}: folding must not lower occupancy",
            row.name
        );
    }
    assert!(
        sharding.resident_hit_rate >= 0.95,
        "post-warmup, nearly every batch must find its chunk resident on its \
         planned owner, got {:.1}%",
        100.0 * sharding.resident_hit_rate
    );
    assert!(
        sharding.plan_prediction_error <= 0.10,
        "the measured makespan must land within 10% of the plan's pre-run \
         prediction, got {:.1}%",
        100.0 * sharding.plan_prediction_error
    );
    assert!(
        sharding.report.planned_hits > 0 && sharding.report.prefetch_uploads > 0,
        "the planned path must steer to owners and prefetch their partitions"
    );
    assert!(
        sharding.migrated_out > 0 && sharding.migrated_out < sharding.chunks,
        "a fleet change must migrate some chunks but never the whole space, \
         got {} of {}",
        sharding.migrated_out,
        sharding.chunks
    );
    assert!(
        library.screen_speedup >= 1.5,
        "the warm library screen must run at least 1.5x the per-guide \
         baseline, got {:.2}x",
        library.screen_speedup
    );
    assert!(
        library.report.candidate_hit_rate() >= 0.9,
        "post-warmup, nearly every sweep must find its candidate list \
         cached, got {:.1}%",
        100.0 * library.report.candidate_hit_rate()
    );
    assert!(
        library.report.comparer_launch_ratio() <= 0.1,
        "fused launches must cover at least 10 guides per comparer launch, \
         got {:.3} launches per job-chunk",
        library.report.comparer_launch_ratio()
    );
    assert!(
        library.report.finder_launches_skipped > 0 && library.report.fused_launches > 0,
        "the fast path must actually skip finders and fuse comparers"
    );
    assert_eq!(
        trace_fixed.digest, trace_oracle_digest,
        "the fixed-pool replay must fold the oracle digest"
    );
    assert_eq!(
        trace_auto.digest, trace_oracle_digest,
        "the autoscaled replay must fold the same digest as the fixed pool"
    );
    assert!(
        trace_auto.violation_rate <= 0.01,
        "the autoscaled pool must hold the end-to-end p99 SLO to a <= 1% \
         violation rate, got {:.2}%",
        100.0 * trace_auto.violation_rate
    );
    assert!(
        device_seconds_saved >= 0.15,
        "the elastic pool must provision >= 15% fewer device-seconds than \
         the peak-static fleet, got {:.1}%",
        100.0 * device_seconds_saved
    );
    assert!(
        trace_auto.prediction_error <= 0.10,
        "the cost model must stay within 10% through the scale events, \
         got {:.1}%",
        100.0 * trace_auto.prediction_error
    );
    assert!(
        trace_scale.scale_ups() >= 1 && trace_scale.scale_downs() >= 1,
        "the trace must exercise both scale directions, got {} up / {} down",
        trace_scale.scale_ups(),
        trace_scale.scale_downs()
    );
    assert!(
        trace_scale.migrated_chunks() > 0,
        "every scale event must replan the shard plan minimally"
    );
}
