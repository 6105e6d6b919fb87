//! Micro-benchmark: end-to-end pipelines (regenerates the relative shape of
//! Tables VIII and IX — OpenCL vs SYCL, and base vs opt3).

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{OptLevel, SearchInput};
use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use genome::synth;
use gpu_sim::DeviceSpec;

fn bench_pipelines(c: &mut Criterion) {
    let assembly = synth::hg19_mini(0.01);
    let input = SearchInput::canonical_example("hg19-mini");
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 15);

    // Print the simulated elapsed times once (the quantity the paper's
    // tables report).
    let ocl = pipeline::ocl::run(&assembly, &input, &config).unwrap();
    let sycl = pipeline::sycl::run(&assembly, &input, &config).unwrap();
    let opt3 = pipeline::sycl::run(&assembly, &input, &config.clone().opt(OptLevel::Opt3)).unwrap();
    println!(
        "simulated elapsed: OpenCL {:.6}s, SYCL {:.6}s (speedup {:.2}), SYCL opt3 {:.6}s (speedup {:.2})",
        ocl.timing.elapsed_s,
        sycl.timing.elapsed_s,
        ocl.timing.elapsed_s / sycl.timing.elapsed_s,
        opt3.timing.elapsed_s,
        sycl.timing.elapsed_s / opt3.timing.elapsed_s,
    );

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("opencl-base", |b| {
        b.iter(|| {
            pipeline::ocl::run(&assembly, &input, &config)
                .unwrap()
                .timing
                .elapsed_s
        })
    });
    group.bench_function("sycl-base", |b| {
        b.iter(|| {
            pipeline::sycl::run(&assembly, &input, &config)
                .unwrap()
                .timing
                .elapsed_s
        })
    });
    let opt3_cfg = config.clone().opt(OptLevel::Opt3);
    group.bench_function("sycl-opt3", |b| {
        b.iter(|| {
            pipeline::sycl::run(&assembly, &input, &opt3_cfg)
                .unwrap()
                .timing
                .elapsed_s
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
