//! Micro-benchmark: the host-side baselines — the scalar oracle and the
//! multithreaded search (the OpenMP-style optimization of related work
//! [21]) — measured in real wall time, plus their thread scaling.

use cas_offinder::{cpu, SearchInput};
use casoff_bench::microbench::{BenchmarkId, Criterion, Throughput};
use casoff_bench::{criterion_group, criterion_main};
use genome::synth;

fn bench_cpu(c: &mut Criterion) {
    let assembly = synth::hg19_mini(0.02);
    let input = SearchInput::canonical_example("hg19-mini");
    let bases = assembly.total_len() as u64;

    let mut group = c.benchmark_group("cpu");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bases));
    group.bench_function("sequential", |b| {
        b.iter(|| cpu::search_sequential(&assembly, &input).len())
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| cpu::search_parallel(&assembly, &input, t).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cpu);
criterion_main!(benches);
