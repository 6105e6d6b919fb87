//! The elastic-pool guarantees: a replayed trace produces byte-identical
//! result digests whether the pool is fixed or scaled under it, a
//! scale-down drains the retiring device without losing or duplicating a
//! single job, and an idle autoscaler actually retires capacity.

use std::time::Duration;

use cas_offinder::pipeline::{ocl, PipelineConfig};
use cas_offinder::{OffTarget, SearchInput};
use casoff_serve::trace::{fold_results, schedule_digest, RESULT_DIGEST_SEED};
use casoff_serve::{
    ArrivalShape, AutoscaleConfig, Autoscaler, HotSpot, JobSpec, PhaseSpec, Placement, Service,
    ServiceConfig, TenantId, TraceSpec,
};
use genome::rng::Xoshiro256;
use genome::Assembly;
use gpu_sim::DeviceSpec;

const CHUNK_SIZE: usize = 512;

fn assembly() -> Assembly {
    genome::synth::hg38_mini(0.001)
}

/// Ten distinct specs over two PAM patterns — the trace's job catalog.
fn catalog() -> Vec<JobSpec> {
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

fn trace() -> TraceSpec {
    TraceSpec {
        seed: 0x7E5CA1E,
        phases: vec![
            PhaseSpec {
                duration_s: 1.0,
                shape: ArrivalShape::Diurnal {
                    base_rate_per_s: 60.0,
                    amplitude: 0.5,
                    period_s: 1.0,
                },
                tenants: vec![(TenantId(1), 2), (TenantId(2), 1)],
                hot_spot: None,
            },
            PhaseSpec {
                duration_s: 1.0,
                shape: ArrivalShape::Bursty {
                    on_rate_per_s: 150.0,
                    period_s: 0.5,
                    duty: 0.5,
                },
                tenants: vec![(TenantId(2), 1), (TenantId(3), 1)],
                hot_spot: Some(HotSpot {
                    fraction: 0.7,
                    span: 3,
                }),
            },
        ],
    }
}

fn pool_config(placement: Placement) -> ServiceConfig {
    let mut config = ServiceConfig::paper_pool();
    config.chunk_size = CHUNK_SIZE;
    config.placement = placement;
    config.cache_bytes = 16 * 1024;
    // Every submission must really compute: digest equality has to come
    // from deterministic execution, not from one run's cache feeding the
    // other run's answers.
    config.result_cache_bytes = 0;
    config.candidate_cache_bytes = 0;
    config
}

/// The tentpole determinism claim, end to end: the same seeded
/// `TraceSpec` generates byte-identical schedules, and replaying that
/// schedule against a fixed 4-device pool and against a pool scaled
/// down and back up mid-trace folds every job's records into the same
/// digest — which also matches the serial-pipeline oracle.
#[test]
fn trace_replay_digests_match_fixed_vs_scaled_pools() {
    let spec = trace();
    let events = spec.generate(10);
    assert_eq!(
        schedule_digest(&events),
        schedule_digest(&spec.generate(10)),
        "the generator must replay byte-identically"
    );
    assert!(
        events.len() > 50,
        "fixture needs real traffic, got {}",
        events.len()
    );

    let specs = catalog();
    let oracle_digest = {
        let asm = assembly();
        events.iter().fold(RESULT_DIGEST_SEED, |d, ev| {
            fold_results(d, &serial_ocl(&asm, &specs[ev.spec_index]))
        })
    };

    // Replay 1: the peak-sized fixed pool.
    let fixed = Service::start(pool_config(Placement::Planned), vec![assembly()]);
    let ids: Vec<u64> = events
        .iter()
        .map(|ev| submit_with_backoff(&fixed, specs[ev.spec_index].clone().for_tenant(ev.tenant)))
        .collect();
    let fixed_digest = ids.iter().fold(RESULT_DIGEST_SEED, |d, &id| {
        fold_results(d, &fixed.wait(id).unwrap())
    });
    fixed.shutdown();

    // Replay 2: same schedule, elastic fleet — two devices retired a
    // third of the way in, one re-activated at two thirds, all while
    // batches are in flight.
    let scaled = Service::start(pool_config(Placement::Planned), vec![assembly()]);
    let (third, two_thirds) = (events.len() / 3, 2 * events.len() / 3);
    let mut ids: Vec<u64> = Vec::with_capacity(events.len());
    for (k, ev) in events.iter().enumerate() {
        if k == third {
            scaled.set_device_active(3, false);
            scaled.set_device_active(1, false);
        }
        if k == two_thirds {
            scaled.set_device_active(3, true);
        }
        ids.push(submit_with_backoff(
            &scaled,
            specs[ev.spec_index].clone().for_tenant(ev.tenant),
        ));
    }
    let scaled_digest = ids.iter().fold(RESULT_DIGEST_SEED, |d, &id| {
        fold_results(d, &scaled.wait(id).unwrap())
    });
    let report = scaled.metrics();
    assert_eq!(report.jobs_completed, events.len() as u64);
    assert!(
        report.migrated_chunks > 0,
        "scale events must replan: {report}"
    );
    scaled.shutdown();

    assert_eq!(fixed_digest, oracle_digest, "fixed pool vs serial oracle");
    assert_eq!(scaled_digest, oracle_digest, "scaled pool vs serial oracle");
}

/// Drain-before-retire: a device deactivated with batches still queued
/// on it finishes that work before leaving — every admitted job
/// completes exactly once with oracle-identical bytes, none is lost and
/// none re-runs, and the survivor fleet keeps serving afterwards.
#[test]
fn scale_down_drains_the_retiring_device_without_losing_jobs() {
    let specs = catalog();
    let oracle: Vec<Vec<OffTarget>> = {
        let asm = assembly();
        specs.iter().map(|s| serial_ocl(&asm, s)).collect()
    };

    let service = Service::start(pool_config(Placement::Planned), vec![assembly()]);
    // Load the whole fleet first so the retiring device has in-flight
    // and queued batches when it leaves.
    let first: Vec<(u64, usize)> = (0..60)
        .map(|i| {
            let spec_index = i % specs.len();
            (
                submit_with_backoff(&service, specs[spec_index].clone()),
                spec_index,
            )
        })
        .collect();
    service.set_device_active(3, false);
    let after: Vec<(u64, usize)> = (0..60)
        .map(|i| {
            let spec_index = i % specs.len();
            (
                submit_with_backoff(&service, specs[spec_index].clone()),
                spec_index,
            )
        })
        .collect();

    for &(id, spec_index) in first.iter().chain(&after) {
        assert_eq!(
            service.wait(id).unwrap(),
            oracle[spec_index],
            "job {id} (spec {spec_index})"
        );
    }
    let report = service.metrics();
    assert_eq!(report.jobs_admitted, 120, "{report}");
    assert_eq!(
        report.jobs_completed, 120,
        "every admitted job completes exactly once"
    );
    let active = service.active_devices();
    assert!(!active[3] && active.iter().filter(|&&a| a).count() == 3);
    // The retired device took no work placed after the retirement: its
    // queue is empty and stays empty.
    assert_eq!(
        service.device_queue_depths()[3],
        0,
        "retired device fully drained"
    );
    service.shutdown();
}

/// Watch-loop smoke: over an idle (then lightly loaded) service the
/// autoscaler retires capacity down to the floor, reports the events
/// with their replan sizes, and the shrunk fleet still serves correctly.
#[test]
fn idle_autoscaler_retires_to_the_floor_and_keeps_serving() {
    let specs = catalog();
    let service = std::sync::Arc::new(Service::start(
        pool_config(Placement::Planned),
        vec![assembly()],
    ));
    let scaler = Autoscaler::watch(
        std::sync::Arc::clone(&service),
        AutoscaleConfig {
            slo: Duration::from_millis(50),
            window: Duration::from_millis(20),
            samples_per_window: 2,
            scale_up_windows: 2,
            scale_down_windows: 2,
            low_utilization: 0.5,
            headroom: 0.5,
            min_devices: 1,
            max_devices: 4,
        },
    );
    // Idle long enough for three retirement decisions (2 windows each).
    std::thread::sleep(Duration::from_millis(400));
    let report = scaler.stop();
    assert_eq!(
        report.scale_downs(),
        3,
        "4-device pool retires to the floor"
    );
    assert_eq!(report.scale_ups(), 0);
    assert_eq!(report.min_active, 1);
    assert!(report.device_seconds > 0.0);
    assert!(report.windows >= 6, "got {} windows", report.windows);
    assert!(
        report.migrated_chunks() > 0,
        "planned placement replans on every retirement"
    );
    let mut actives: Vec<usize> = report.events.iter().map(|e| e.active_after).collect();
    actives.sort_unstable();
    assert_eq!(actives, vec![1, 2, 3], "one device per event, in order");
    assert_eq!(service.active_devices().iter().filter(|&&a| a).count(), 1);

    // The floor fleet still serves byte-identical results.
    let asm = assembly();
    for spec in &specs {
        let id = submit_with_backoff(&service, spec.clone());
        assert_eq!(service.wait(id).unwrap(), serial_ocl(&asm, spec));
    }
    std::sync::Arc::into_inner(service)
        .expect("stop() joined the watcher, so this is the last handle")
        .shutdown();
}
