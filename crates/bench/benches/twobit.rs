//! Micro-benchmark: char vs 2-bit packed comparer (the related-work [21]
//! optimization), the packed arm run as `repro ablations` runs it.

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{OptLevel, SearchInput};
use casoff_bench::experiments::ablations::packed_search;
use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use genome::synth;
use gpu_sim::DeviceSpec;

fn bench_variants(c: &mut Criterion) {
    let assembly = synth::hg19_mini(0.01);
    let input = SearchInput::canonical_example("hg19-mini");
    let config = PipelineConfig::new(DeviceSpec::mi100())
        .chunk_size(1 << 15)
        .opt(OptLevel::Opt3);

    let chars = pipeline::sycl::run(&assembly, &input, &config).unwrap();
    let (sites, packed, nibbles) = packed_search(&assembly, &input, &config).unwrap();
    assert_eq!(chars.offtargets, sites);
    println!(
        "simulated comparer: char {:.6}s, 2-bit {:.6}s (speedup {:.2}; {nibbles} of {} chunks 4-bit)",
        chars.timing.comparer_s,
        packed.comparer_s,
        chars.timing.comparer_s / packed.comparer_s,
        packed.finder_launches,
    );

    let mut group = c.benchmark_group("variants");
    group.sample_size(10);
    group.bench_function("comparer-char", |b| {
        b.iter(|| {
            pipeline::sycl::run(&assembly, &input, &config)
                .unwrap()
                .timing
                .comparer_s
        })
    });
    group.bench_function("comparer-2bit", |b| {
        b.iter(|| {
            let (_, timing, _) = packed_search(&assembly, &input, &config).unwrap();
            timing.comparer_s
        })
    });
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
