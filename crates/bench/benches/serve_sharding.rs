//! Micro-benchmark: planned placement (`serve::shard`) against the
//! emergent residency affinity it replaces.
//!
//! Two services over the same assembly, differing only in placement
//! policy: `EarliestCompletion`, where residency discounts steer repeat
//! chunks back to whichever device happened to serve them first, and
//! `Planned`, where a `ShardPlan` partitions the chunk space up front,
//! workers prefetch their partitions on first touch, and batches go to
//! their planned owner. Cold measures a first whole-genome scan on a
//! fresh service (plan + prefetch overhead included); post-warmup
//! measures the steady state the plan exists for, where every chunk
//! should already sit on its owner. The printed resident-hit rates are
//! the comparison that matters: emergent affinity converges to whatever
//! the first race produced, the plan converges to its partition.

use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use casoff_serve::{JobSpec, MetricsReport, Placement, Service, ServiceConfig};
use genome::synth::hg38_mini;

/// Assembly scale: enough chunks that every device owns a partition worth
/// prefetching, small enough that a cold service start stays cheap.
const GENOME_SCALE: f64 = 0.02;
/// Whole-genome scans per measured pass, one distinct guide each.
const SCANS: usize = 4;

fn service_with(placement: Placement) -> Service {
    let mut config = ServiceConfig::paper_pool();
    config.placement = placement;
    config.max_batch = 1;
    config.resident_chunks = 64;
    config.cache_bytes = 1 << 21;
    // Every scan must compute: a result-store hit would measure the cache,
    // not the placement.
    config.result_cache_bytes = 0;
    Service::start(config, vec![hg38_mini(GENOME_SCALE)])
}

/// Submit `SCANS` whole-genome jobs with distinct guides and wait for all.
fn scan(service: &Service) {
    let ids: Vec<u64> = (0..SCANS)
        .map(|i| {
            let mut guide = vec![b"ACGT"[i % 4]; 8];
            guide.extend_from_slice(b"NNN");
            service
                .submit(JobSpec::new("hg38-mini", b"NNNNNNNNNRG".to_vec(), guide, 3))
                .expect("bench service accepts every submission")
        })
        .collect();
    for id in ids {
        service.wait(id).expect("bench jobs complete");
    }
}

/// Resident hits and misses summed over the fleet since `since`.
fn hit_rate_since(report: &MetricsReport, since: &MetricsReport) -> f64 {
    let hits: u64 = report.devices.iter().map(|d| d.resident_hits).sum::<u64>()
        - since.devices.iter().map(|d| d.resident_hits).sum::<u64>();
    let misses: u64 = report
        .devices
        .iter()
        .map(|d| d.resident_misses)
        .sum::<u64>()
        - since.devices.iter().map(|d| d.resident_misses).sum::<u64>();
    hits as f64 / (hits + misses).max(1) as f64
}

fn bench_serve_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve-sharding");
    group.sample_size(5);

    // Cold: fresh service, one scan, shutdown — the plan computation and
    // one-pass prefetch are part of the planned bill here.
    for (label, placement) in [
        ("emergent", Placement::EarliestCompletion),
        ("planned", Placement::Planned),
    ] {
        group.bench_function(format!("cold-scan/{label}"), |b| {
            b.iter(|| {
                let service = service_with(placement);
                scan(&service);
                service.shutdown();
            })
        });
    }

    // Post-warmup: one warm scan settles residency (and, under the plan,
    // runs the one-pass prefetch), then every measured pass scans a fully
    // resident fleet.
    for (label, placement) in [
        ("emergent", Placement::EarliestCompletion),
        ("planned", Placement::Planned),
    ] {
        let service = service_with(placement);
        scan(&service);
        let warmed = service.metrics();
        group.bench_function(format!("warm-scan/{label}"), |b| b.iter(|| scan(&service)));
        let report = service.metrics();
        print!(
            "serve-sharding/{label}: {:.1}% post-warmup resident hits",
            100.0 * hit_rate_since(&report, &warmed)
        );
        if placement == Placement::Planned {
            print!(
                " ({} planned hits / {} spills, {} prefetch uploads)",
                report.planned_hits, report.spill_fallbacks, report.prefetch_uploads
            );
        }
        println!();
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_serve_sharding);
criterion_main!(benches);
