//! Micro-benchmark: the library-screen fast path (`serve::candidates` +
//! fused `comparer_multi` launches) against per-guide serving.
//!
//! Two services over the same assembly, differing only in the fast-path
//! switches: the baseline runs a screen as per-guide comparer launches
//! with a finder sweep per batch; the fast service fuses each
//! guide-block into one `comparer_multi` launch and replays cached
//! candidate lists once the first sweep has published them. Cold
//! measures a first screen on a fresh service (every chunk's finder pass
//! included); post-warmup measures the steady state a screening portal
//! lives in, where every sweep's candidate list is already cached. The
//! printed counters are the comparison that matters: the fast screen's
//! comparer launches collapse by the guide-block factor and its repeat
//! finder launches disappear outright.

use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use casoff_serve::{JobSpec, Service, ServiceConfig};
use genome::rng::Xoshiro256;
use genome::synth::hg38_mini;

/// Assembly scale: a couple dozen chunks, so a screen is a real sweep but
/// a cold service start stays cheap.
const GENOME_SCALE: f64 = 0.005;
/// Guides per screen: enough guide blocks that the fused-launch ratio and
/// the candidate hit rate both converge.
const GUIDES: usize = 256;

fn screen_spec() -> JobSpec {
    let mut rng = Xoshiro256::seed_from_u64(0x11B2);
    let guides: Vec<Vec<u8>> = (0..GUIDES)
        .map(|_| {
            let mut g: Vec<u8> = (0..8).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
            g.extend_from_slice(b"NNN");
            g
        })
        .collect();
    JobSpec::library("hg38-mini", b"NNNNNNNNNRG".to_vec(), guides, 3)
}

fn service_with(fast: bool) -> Service {
    let mut config = ServiceConfig::paper_pool();
    // Guide-block-sized groups: one fused launch per coalesced batch.
    config.max_batch = 16;
    config.queue_cost_limit = 1 << 31;
    // Every screen must compute: a result-store hit would measure the
    // result cache, not the candidate cache and fused launches.
    config.result_cache_bytes = 0;
    config.multi_guide = fast;
    config.candidate_cache_bytes = if fast { 1 << 20 } else { 0 };
    Service::start(config, vec![hg38_mini(GENOME_SCALE)])
}

/// Submit one whole-library screen and wait for its union.
fn screen(service: &Service, spec: &JobSpec) {
    let id = service
        .submit(spec.clone())
        .expect("bench service accepts every submission");
    service.wait(id).expect("bench screens complete");
}

fn bench_serve_library(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve-library");
    group.sample_size(5);
    let spec = screen_spec();

    // Cold: fresh service, one screen, shutdown — the fast path's first
    // sweep pays every finder launch into the candidate cache here.
    for (label, fast) in [("per-guide", false), ("fused", true)] {
        group.bench_function(format!("cold-screen/{label}"), |b| {
            b.iter(|| {
                let service = service_with(fast);
                screen(&service, &spec);
                service.shutdown();
            })
        });
    }

    // Post-warmup: one screen publishes every chunk's candidate list,
    // then every measured screen replays them with its finders skipped.
    for (label, fast) in [("per-guide", false), ("fused", true)] {
        let service = service_with(fast);
        screen(&service, &spec);
        group.bench_function(format!("warm-screen/{label}"), |b| {
            b.iter(|| screen(&service, &spec))
        });
        let report = service.metrics();
        print!(
            "serve-library/{label}: {:.3} comparer launches per job-chunk",
            report.comparer_launch_ratio()
        );
        if fast {
            print!(
                " ({} fused, {} finder launches skipped, {:.1}% candidate hits)",
                report.fused_launches,
                report.finder_launches_skipped,
                100.0 * report.candidate_hit_rate()
            );
        }
        println!();
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_serve_library);
criterion_main!(benches);
