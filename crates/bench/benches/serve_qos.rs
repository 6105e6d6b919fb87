//! Micro-benchmark: the multi-tenant QoS front end.
//!
//! Three groups of measurements around `casoff_serve`'s admission path:
//! the weighted-deficit-round-robin queue draining a proportional 4/2/1
//! burst (pure submit/pop throughput), the same queue under 2x overload
//! where every excess submission must be quota-shed in O(1), and the
//! non-blocking ticket/poll front end riding the result-store hit path
//! through a live service — the steady-state overhead a repeat tenant
//! pays per job when no compute happens at all.

use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use casoff_serve::{
    FairJobQueue, Job, JobSpec, Poll, Service, ServiceConfig, TenantConfig, TenantId,
};

/// Uniform per-job admission cost for the queue-level groups.
const JOB_COST: u64 = 1_000;
/// Jobs per weight unit in one burst: tenant weights 4/2/1 submit
/// 64/32/16 jobs against a budget that exactly fits the mix.
const PER_WEIGHT: u64 = 16;

const WEIGHTS: [(TenantId, u32); 3] = [(TenantId(1), 4), (TenantId(2), 2), (TenantId(3), 1)];

fn tenant_configs() -> Vec<TenantConfig> {
    WEIGHTS
        .iter()
        .map(|&(id, w)| TenantConfig::weighted(id, w))
        .collect()
}

fn spec_for(tenant: TenantId) -> JobSpec {
    JobSpec::new(
        "hg38-mini",
        b"NNNNNNNNNRG".to_vec(),
        b"ACGTACGTNNN".to_vec(),
        3,
    )
    .for_tenant(tenant)
}

/// Submit `overload`x the proportional 4/2/1 mix, then drain whatever was
/// admitted through the DRR scheduler. Returns (admitted, quota sheds,
/// budget sheds).
fn burst_and_drain(overload: u64) -> (u64, u64, u64) {
    let total_weight: u64 = WEIGHTS.iter().map(|&(_, w)| w as u64).sum();
    let budget = JOB_COST * PER_WEIGHT * total_weight;
    let queue = FairJobQueue::new(budget, &tenant_configs());
    let mut id = 0;
    let mut admitted = 0;
    for &(tenant, w) in &WEIGHTS {
        let spec = spec_for(tenant);
        for _ in 0..(w as u64 * PER_WEIGHT * overload) {
            id += 1;
            let job = Job {
                id,
                spec: spec.clone(),
                cost: JOB_COST,
            };
            if queue.try_submit(job).is_ok() {
                admitted += 1;
            }
        }
    }
    while let Some(job) = queue.try_pop() {
        queue.job_finished(job.spec.tenant, job.cost);
    }
    let (quota, over_budget) = queue.shed_counts();
    (admitted, quota, over_budget)
}

/// Pop counts per tenant over the first 35 DRR pops of a full mix —
/// printed so a fairness regression in the drain order is visible in the
/// bench log next to the throughput numbers.
fn drain_order_counts() -> [u64; 3] {
    let total_weight: u64 = WEIGHTS.iter().map(|&(_, w)| w as u64).sum();
    let queue = FairJobQueue::new(JOB_COST * PER_WEIGHT * total_weight, &tenant_configs());
    let mut id = 0;
    for &(tenant, w) in &WEIGHTS {
        let spec = spec_for(tenant);
        for _ in 0..(w as u64 * PER_WEIGHT) {
            id += 1;
            queue
                .try_submit(Job {
                    id,
                    spec: spec.clone(),
                    cost: JOB_COST,
                })
                .unwrap();
        }
    }
    let mut counts = [0u64; 3];
    for _ in 0..35 {
        let job = queue.try_pop().unwrap();
        counts[(job.spec.tenant.0 - 1) as usize] += 1;
    }
    counts
}

fn bench_serve_qos(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve-qos");
    group.sample_size(10);

    let (admitted, quota, over_budget) = burst_and_drain(1);
    let counts = drain_order_counts();
    println!(
        "serve-qos/queue: proportional burst admits {admitted} \
         ({quota} quota sheds / {over_budget} budget sheds); first 35 DRR pops \
         split {}/{}/{} across weights 4/2/1",
        counts[0], counts[1], counts[2]
    );
    group.bench_function("queue/drr-burst-drain", |b| b.iter(|| burst_and_drain(1)));

    let (admitted, quota, over_budget) = burst_and_drain(2);
    println!(
        "serve-qos/queue: 2x overload admits {admitted}, sheds {quota} on quota \
         and {over_budget} on budget"
    );
    group.bench_function("queue/overload-shed", |b| b.iter(|| burst_and_drain(2)));

    // Non-blocking front end on the result-store hit path: a live service,
    // every spec already cached, so each iteration measures the pure
    // ticket/poll overhead per job — admission, fair-queue accounting,
    // completion hub, ledger — with zero compute and zero blocking waits.
    let mut config = ServiceConfig::paper_pool();
    config.chunk_size = 512;
    config.tenants = tenant_configs();
    let service = Service::start(config, vec![genome::synth::hg38_mini(0.001)]);
    let specs: Vec<JobSpec> = WEIGHTS
        .iter()
        .flat_map(|&(tenant, _)| {
            (0..3).map(move |i| {
                let mut guide = vec![b"ACGT"[(tenant.0 as usize + i) % 4]; 8];
                guide.extend_from_slice(b"NNN");
                JobSpec::new("hg38-mini", b"NNNNNNNNNRG".to_vec(), guide, 3).for_tenant(tenant)
            })
        })
        .collect();
    let submit_and_poll = |specs: &[JobSpec]| {
        let mut pending: Vec<u64> = specs
            .iter()
            .map(|s| service.submit_ticket(s.clone()).unwrap().id)
            .collect();
        while !pending.is_empty() {
            pending.retain(|&id| !matches!(service.poll(id), Ok(Poll::Ready(_))));
        }
    };
    // Warm pass: computes each distinct spec once and fills the result
    // store; every bench iteration after this is hit-path only.
    submit_and_poll(&specs);
    group.bench_function("service/ticket-poll-hit", |b| {
        b.iter(|| submit_and_poll(&specs))
    });
    group.finish();

    let report = service.metrics();
    println!(
        "serve-qos/service: {} jobs admitted, {} blocking waits, \
         {:.1}% served from the result store",
        report.jobs_admitted,
        report.blocking_waits,
        100.0 * report.results.hits as f64
            / (report.results.hits + report.results.merges + report.results.misses).max(1) as f64,
    );
    service.shutdown();
}

criterion_group!(benches, bench_serve_qos);
criterion_main!(benches);
