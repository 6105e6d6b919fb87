//! Arrival order must not change results: 200 jobs submitted in several
//! shuffled orders through a heterogeneous 4-device pool produce, job for
//! job, the same bytes as the serial OpenCL pipeline.

use std::collections::HashMap;
use std::time::Duration;

use cas_offinder::pipeline::{ocl, PipelineConfig};
use cas_offinder::{OffTarget, SearchInput};
use casoff_serve::{JobSpec, Placement, Service, ServiceConfig, TenantConfig, TenantId};
use genome::rng::Xoshiro256;
use genome::Assembly;
use gpu_sim::DeviceSpec;

const CHUNK_SIZE: usize = 512;

fn assembly() -> Assembly {
    genome::synth::hg38_mini(0.001)
}

/// Ten distinct specs, duplicated to 200 jobs. Two PAM patterns so the
/// coalescer has both same-pattern and cross-pattern work.
fn distinct_specs() -> Vec<JobSpec> {
    let mut rng = Xoshiro256::seed_from_u64(0x0DE7);
    let patterns: [&[u8]; 2] = [b"NNNNNNNNNRG", b"NNNNNNNNNGG"];
    (0..10)
        .map(|i| {
            let mut guide: Vec<u8> = (0..8).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
            guide.extend_from_slice(b"NNN");
            JobSpec::new(
                "hg38-mini",
                patterns[i % 2].to_vec(),
                guide,
                3 + (i as u16 % 2),
            )
        })
        .collect()
}

/// The exception-dense variant of [`distinct_specs`]: same guides, aimed
/// at the soft-masked assembly so every dense chunk rides the 4-bit path.
fn masked_specs() -> Vec<JobSpec> {
    distinct_specs()
        .into_iter()
        .map(|mut s| {
            s.assembly = "hg38-masked".into();
            s
        })
        .collect()
}

fn serial_ocl(assembly: &Assembly, spec: &JobSpec) -> Vec<OffTarget> {
    let text = format!(
        "{}\n{}\n{} {}\n",
        spec.assembly,
        std::str::from_utf8(&spec.pattern).unwrap(),
        std::str::from_utf8(&spec.guide).unwrap(),
        spec.max_mismatches
    );
    let input = SearchInput::parse(&text).unwrap();
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(CHUNK_SIZE);
    ocl::run(assembly, &input, &config).unwrap().offtargets
}

fn submit_with_backoff(service: &Service, spec: JobSpec) -> u64 {
    loop {
        match service.submit(spec.clone()) {
            Ok(id) => return id,
            Err(casoff_serve::SubmitError::Shed { .. }) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(err) => panic!("unexpected rejection: {err}"),
        }
    }
}

#[test]
fn shuffled_arrival_orders_reproduce_the_serial_pipeline() {
    let specs = distinct_specs();
    let oracle: Vec<Vec<OffTarget>> = {
        let asm = assembly();
        specs.iter().map(|s| serial_ocl(&asm, s)).collect()
    };
    assert!(
        oracle.iter().any(|o| !o.is_empty()),
        "fixture must produce hits somewhere"
    );

    // 200 jobs: every distinct spec twenty times.
    let jobs: Vec<usize> = (0..200).map(|i| i % specs.len()).collect();

    for order_seed in [0x0001u64, 0xBEEF, 0x5EED5] {
        let mut order = jobs.clone();
        Xoshiro256::seed_from_u64(order_seed).shuffle(&mut order);

        let mut config = ServiceConfig::paper_pool();
        config.chunk_size = CHUNK_SIZE;
        // Small on purpose: ~32 jobs' worth of cost, exercises backpressure.
        config.queue_cost_limit = 250_000;
        config.cache_bytes = 16 * 1024;
        // Result dedup off so all 200 jobs really flow through the batcher
        // and device pool; chunk affinity stays on at its default budget.
        config.result_cache_bytes = 0;
        assert_eq!(config.devices.len(), 4, "the pool the issue asks for");
        let service = Service::start(config, vec![assembly()]);

        let ids: Vec<(u64, usize)> = order
            .iter()
            .map(|&spec_index| {
                (
                    submit_with_backoff(&service, specs[spec_index].clone()),
                    spec_index,
                )
            })
            .collect();
        let mut results: HashMap<u64, Vec<OffTarget>> = ids
            .iter()
            .map(|&(id, _)| (id, service.wait(id).unwrap()))
            .collect();
        for (id, spec_index) in ids {
            assert_eq!(
                results.remove(&id).unwrap(),
                oracle[spec_index],
                "order seed {order_seed:#x}, job {id} (spec {spec_index})"
            );
        }

        let report = service.metrics();
        assert_eq!(report.jobs_admitted, 200);
        assert_eq!(report.jobs_completed, 200);
        assert!(
            report.coalescing_ratio() > 1.5,
            "batches should coalesce: {report}"
        );
        assert!(
            report.cache_hit_rate() > 0.5,
            "repeat chunks should hit the cache: {report}"
        );
        service.shutdown();
    }
}

/// Both reuse layers on at deliberately hostile settings — a residency
/// budget of two chunks (constant evictions and re-uploads under a
/// shuffled arrival order) and a live result store serving nineteen of
/// every twenty duplicates without compute — must still hand every job
/// bytes identical to the serial pipeline.
#[test]
fn result_dedup_and_forced_evictions_stay_byte_identical() {
    let specs = distinct_specs();
    let oracle: Vec<Vec<OffTarget>> = {
        let asm = assembly();
        specs.iter().map(|s| serial_ocl(&asm, s)).collect()
    };

    let mut order: Vec<usize> = (0..200).map(|i| i % specs.len()).collect();
    Xoshiro256::seed_from_u64(0xCAC4E).shuffle(&mut order);

    let mut config = ServiceConfig::paper_pool();
    config.chunk_size = CHUNK_SIZE;
    config.queue_cost_limit = 250_000;
    config.cache_bytes = 16 * 1024;
    config.max_batch = 2;
    config.resident_chunks = 2;
    config.result_cache_bytes = 64 * 1024;
    let service = Service::start(config, vec![assembly()]);

    let ids: Vec<(u64, usize)> = order
        .iter()
        .map(|&spec_index| {
            (
                submit_with_backoff(&service, specs[spec_index].clone()),
                spec_index,
            )
        })
        .collect();
    let mut results: HashMap<u64, Vec<OffTarget>> = ids
        .iter()
        .map(|&(id, _)| (id, service.wait(id).unwrap()))
        .collect();
    for (id, spec_index) in ids {
        assert_eq!(
            results.remove(&id).unwrap(),
            oracle[spec_index],
            "job {id} (spec {spec_index})"
        );
    }

    let report = service.metrics();
    assert_eq!(report.jobs_completed, 200);
    assert_eq!(
        report.results.misses,
        specs.len() as u64,
        "each distinct spec computes exactly once: {report}"
    );
    assert_eq!(
        report.results.hits + report.results.merges,
        (200 - specs.len()) as u64,
        "every duplicate is served from the store: {report}"
    );
    service.shutdown();
}

/// The tentpole guarantee on an exception-dense assembly: with the
/// adaptive cache default, every dense chunk is served by the 4-bit
/// nibble comparer — zero batches fall back to the char path — and the
/// results stay byte-identical to the serial char-comparer pipeline even
/// while a two-chunk residency budget forces constant evictions and
/// re-uploads of the nibble payloads.
#[test]
fn masked_chunks_ride_the_nibble_path_and_stay_byte_identical() {
    let specs = masked_specs();
    let asm = genome::synth::hg38_masked_mini(0.001);
    let oracle: Vec<Vec<OffTarget>> = specs.iter().map(|s| serial_ocl(&asm, s)).collect();
    assert!(
        oracle.iter().any(|o| !o.is_empty()),
        "fixture must produce hits somewhere"
    );

    let mut order: Vec<usize> = (0..120).map(|i| i % specs.len()).collect();
    Xoshiro256::seed_from_u64(0x4B17).shuffle(&mut order);

    let mut config = ServiceConfig::paper_pool();
    config.chunk_size = CHUNK_SIZE;
    config.queue_cost_limit = 250_000;
    config.cache_bytes = 16 * 1024;
    config.max_batch = 2;
    config.resident_chunks = 2;
    // Dedup off so all 120 jobs exercise the nibble runners.
    config.result_cache_bytes = 0;
    let service = Service::start(config, vec![asm]);

    let ids: Vec<(u64, usize)> = order
        .iter()
        .map(|&spec_index| {
            (
                submit_with_backoff(&service, specs[spec_index].clone()),
                spec_index,
            )
        })
        .collect();
    let mut results: HashMap<u64, Vec<OffTarget>> = ids
        .iter()
        .map(|&(id, _)| (id, service.wait(id).unwrap()))
        .collect();
    for (id, spec_index) in ids {
        assert_eq!(
            results.remove(&id).unwrap(),
            oracle[spec_index],
            "job {id} (spec {spec_index})"
        );
    }

    let report = service.metrics();
    assert_eq!(report.jobs_completed, 120);
    assert_eq!(
        report.comparer_char_batches, 0,
        "no batch may fall back to the char comparer: {report}"
    );
    assert!(
        report.comparer_4bit_batches > 0,
        "dense chunks must select the nibble comparer: {report}"
    );
    service.shutdown();
}

/// Fleet changes under planned placement must migrate only the chunks
/// whose owner actually changed — removing a device mid-workload moves
/// its partition (plus any boundary shifts) and nothing else, re-adding
/// it restores the original cuts — and the results of every job, before,
/// during and after the changes, stay byte-identical to the serial
/// pipeline.
#[test]
fn mid_workload_fleet_changes_migrate_minimally_and_stay_byte_identical() {
    let specs = distinct_specs();
    let oracle: Vec<Vec<OffTarget>> = {
        let asm = assembly();
        specs.iter().map(|s| serial_ocl(&asm, s)).collect()
    };

    let mut config = ServiceConfig::paper_pool();
    config.chunk_size = CHUNK_SIZE;
    config.placement = Placement::Planned;
    config.queue_cost_limit = 250_000;
    config.cache_bytes = 16 * 1024;
    config.result_cache_bytes = 0;
    let service = Service::start(config, vec![assembly()]);
    let n = service
        .plan()
        .expect("planned placement installs a plan")
        .chunk_count("hg38-mini")
        .expect("the served assembly is registered");

    let order: Vec<usize> = (0..120).map(|i| i % specs.len()).collect();
    let original = service.plan().unwrap();
    let mut ids: Vec<(u64, usize)> = Vec::new();
    let mut total_migrated = 0usize;
    for (k, &spec_index) in order.iter().enumerate() {
        // Shrink the fleet a third of the way in, grow it back at two
        // thirds — both while batches are in flight.
        if k == 40 || k == 80 {
            let before = service.plan().unwrap();
            let migrated = service.set_device_active(3, k == 80);
            let after = service.plan().unwrap();
            let by_hand = (0..n)
                .filter(|&c| before.owner_of("hg38-mini", c) != after.owner_of("hg38-mini", c))
                .count();
            assert_eq!(migrated, by_hand, "only owner-changed chunks migrate");
            assert!(
                migrated > 0 && migrated < n,
                "a fleet change reassigns a strict subset: {migrated}/{n}"
            );
            total_migrated += migrated;
        }
        ids.push((
            submit_with_backoff(&service, specs[spec_index].clone()),
            spec_index,
        ));
    }
    // Re-adding device 3 with the same weight restores the original cuts.
    assert_eq!(service.plan().unwrap().migrated_from(&original), 0);

    let mut results: HashMap<u64, Vec<OffTarget>> = ids
        .iter()
        .map(|&(id, _)| (id, service.wait(id).unwrap()))
        .collect();
    for (id, spec_index) in ids {
        assert_eq!(
            results.remove(&id).unwrap(),
            oracle[spec_index],
            "job {id} (spec {spec_index})"
        );
    }
    let report = service.metrics();
    assert_eq!(report.jobs_completed, 120);
    assert!(report.planned_hits > 0, "{report}");
    assert_eq!(
        report.migrated_chunks, total_migrated as u64,
        "the metric sums exactly the per-change migrations: {report}"
    );
    service.shutdown();
}

/// QoS must never leak into results: a fixed 3-tenant overload mix (weights
/// 4/2/1 on a queue budget far smaller than the offered load, so jobs
/// really shed and retry) produces, run after run, results byte-identical
/// to the serial pipeline — and every shed is attributable to an over-quota
/// tenant, never to global budget pressure, because the derived quotas sum
/// to the budget and bind first.
#[test]
fn tenant_overload_shedding_is_deterministic_and_byte_identical() {
    let specs = distinct_specs();
    let oracle: Vec<Vec<OffTarget>> = {
        let asm = assembly();
        specs.iter().map(|s| serial_ocl(&asm, s)).collect()
    };

    // Fixed mix: job i belongs to tenant 1/2/3 cyclically, spec i mod 10.
    let jobs: Vec<(usize, TenantId)> = (0..90)
        .map(|i| (i % specs.len(), TenantId(1 + (i % 3) as u32)))
        .collect();

    let run = || {
        let mut config = ServiceConfig::paper_pool();
        config.chunk_size = CHUNK_SIZE;
        // ~8 jobs' worth of cost against 90 offered jobs: heavy overload.
        config.queue_cost_limit = 64_000;
        config.cache_bytes = 16 * 1024;
        config.result_cache_bytes = 0;
        config.tenants = vec![
            TenantConfig::weighted(TenantId(1), 4),
            TenantConfig::weighted(TenantId(2), 2),
            TenantConfig::weighted(TenantId(3), 1),
        ];
        let service = Service::start(config, vec![assembly()]);
        let ids: Vec<(u64, usize)> = jobs
            .iter()
            .map(|&(spec_index, tenant)| {
                let spec = specs[spec_index].clone().for_tenant(tenant);
                (submit_with_backoff(&service, spec), spec_index)
            })
            .collect();
        let results: Vec<Vec<OffTarget>> = ids
            .iter()
            .map(|&(id, _)| service.wait(id).unwrap())
            .collect();
        let report = service.metrics();
        assert_eq!(report.jobs_completed, 90);
        assert_eq!(
            report.sheds_budget, 0,
            "derived quotas must bind before the budget: {report}"
        );
        service.shutdown();
        (ids, results, report.jobs_shed > 0)
    };

    let (ids_a, results_a, shed_a) = run();
    let (_ids_b, results_b, _) = run();
    assert!(shed_a, "the overload mix must actually shed");
    assert_eq!(results_a, results_b, "byte-identical across runs");
    for ((id, spec_index), got) in ids_a.iter().zip(&results_a) {
        assert_eq!(got, &oracle[*spec_index], "job {id} (spec {spec_index})");
    }
}
