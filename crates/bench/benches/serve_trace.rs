//! Micro-benchmark: the trace-driven load harness.
//!
//! Four costs on the serving hot paths the load harness adds: generating
//! a seeded multi-phase arrival schedule (thinned Poisson draws per
//! event), folding result digests for replay verification, feeding the
//! time-bucketed latency window ring and rolling its quantiles up, and
//! the autoscale controller's per-window decision (pure streak
//! arithmetic — this runs inside the watch loop every 250 ms in
//! production, so it had better be nanoseconds).

use std::time::Duration;

use cas_offinder::{OffTarget, Strand};
use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use casoff_serve::trace::{fold_results, schedule_digest, RESULT_DIGEST_SEED};
use casoff_serve::{
    ArrivalShape, AutoscaleConfig, Controller, HotSpot, LatencyWindows, PhaseSpec, TenantId,
    TraceSpec, WindowObservation,
};

/// Catalog size the generator draws spec indices from.
const CATALOG: usize = 32;

/// A three-phase spec shaped like the demo trace but denser, so one
/// generate() call is a real workload (~2k events).
fn dense_trace() -> TraceSpec {
    TraceSpec {
        seed: 0xBE9C4,
        phases: vec![
            PhaseSpec {
                duration_s: 10.0,
                shape: ArrivalShape::Diurnal {
                    base_rate_per_s: 60.0,
                    amplitude: 0.5,
                    period_s: 10.0,
                },
                tenants: vec![(TenantId(1), 3), (TenantId(2), 1)],
                hot_spot: None,
            },
            PhaseSpec {
                duration_s: 10.0,
                shape: ArrivalShape::Bursty {
                    on_rate_per_s: 200.0,
                    period_s: 2.0,
                    duty: 0.5,
                },
                tenants: vec![(TenantId(2), 2), (TenantId(3), 1)],
                hot_spot: Some(HotSpot {
                    fraction: 0.6,
                    span: 4,
                }),
            },
            PhaseSpec {
                duration_s: 5.0,
                shape: ArrivalShape::Steady { rate_per_s: 40.0 },
                tenants: vec![(TenantId(3), 1)],
                hot_spot: None,
            },
        ],
    }
}

/// A small, fixed result set standing in for one job's records.
fn sample_records() -> Vec<OffTarget> {
    (0..16)
        .map(|i| OffTarget {
            query: format!("ACGTACGT{i:03}").into_bytes(),
            chrom: "chr1".into(),
            position: 1000 + i * 37,
            strand: if i % 2 == 0 {
                Strand::Forward
            } else {
                Strand::Reverse
            },
            mismatches: (i % 4) as u16,
            site: format!("TTGCACGT{i:03}AGG").into_bytes(),
        })
        .collect()
}

/// One pass over the window ring: 512 completions bucketed across ~16
/// windows, then the rollup every report consumer pays.
fn fill_and_report(window_ns: u64) -> usize {
    let windows = LatencyWindows::new(Duration::from_nanos(window_ns), 64);
    for i in 0..512u64 {
        let now = i * window_ns / 32;
        windows.note_admitted(now);
        windows.note_depth(now, (i % 7) as usize);
        windows.note_completion(now, 1_000_000 + (i * 37_000) % 900_000);
    }
    windows.reports().len()
}

/// Drive the controller through a synthetic breach/recover cycle and
/// count the non-hold decisions.
fn controller_cycle(controller: &mut Controller) -> usize {
    let mut actions = 0;
    for step in 0..64u64 {
        let breach = (step / 8) % 2 == 0;
        let obs = WindowObservation {
            peak_predicted_delay: if breach {
                Duration::from_millis(900)
            } else {
                Duration::from_millis(40)
            },
            utilization: if breach { 0.95 } else { 0.2 },
            active_devices: 2,
        };
        if !matches!(controller.decide(&obs), casoff_serve::Decision::Hold) {
            actions += 1;
        }
    }
    actions
}

fn bench_serve_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve-trace");
    group.sample_size(10);

    let spec = dense_trace();
    let events = spec.generate(CATALOG);
    assert_eq!(
        schedule_digest(&events),
        schedule_digest(&spec.generate(CATALOG)),
        "the generator must replay byte-identically"
    );
    println!(
        "serve-trace/generate: {} events over {:.0} s, schedule digest {:016x}",
        events.len(),
        spec.horizon_s(),
        schedule_digest(&events),
    );
    group.bench_function("trace/generate-2k-events", |b| {
        b.iter(|| spec.generate(CATALOG).len())
    });
    group.bench_function("trace/schedule-digest", |b| {
        b.iter(|| schedule_digest(&events))
    });

    let records = sample_records();
    group.bench_function("trace/fold-256-result-sets", |b| {
        b.iter(|| (0..256).fold(RESULT_DIGEST_SEED, |d, _| fold_results(d, &records)))
    });

    let reports = fill_and_report(1_000_000);
    println!("serve-trace/windows: 512 completions roll up into {reports} windows");
    group.bench_function("metrics/window-ring-fill-report", |b| {
        b.iter(|| fill_and_report(1_000_000))
    });

    let mut controller = Controller::new(AutoscaleConfig::default());
    let actions = controller_cycle(&mut controller);
    println!("serve-trace/controller: 64-window breach/recover cycle emits {actions} actions");
    group.bench_function("autoscale/controller-64-windows", |b| {
        b.iter(|| controller_cycle(&mut controller))
    });

    group.finish();
}

criterion_group!(benches, bench_serve_trace);
criterion_main!(benches);
