//! Micro-benchmark: the comparer kernel at every optimization stage
//! (regenerates the relative shape of the paper's Fig. 2, and the opt3
//! local-staging ablation called out in DESIGN.md).
//!
//! Criterion measures host wall time of the simulation; the simulated
//! kernel seconds (what Fig. 2 plots) are printed once per variant.

use cas_offinder::kernels::{ComparerKernel, ComparerOutput};
use cas_offinder::{CompiledSeq, OptLevel};
use casoff_bench::microbench::{BenchmarkId, Criterion};
use casoff_bench::{criterion_group, criterion_main};
use gpu_sim::{Device, DeviceSpec, NdRange};

struct Fixture {
    device: Device,
    kernel: ComparerKernel,
    nd: NdRange,
}

fn fixture(opt: OptLevel) -> Fixture {
    let device = Device::new(DeviceSpec::mi100());
    let query = CompiledSeq::compile(b"GGCCGACCTGTCGCTGACGCNNN");
    let seq: Vec<u8> = (0..1 << 16u32)
        .map(|i| b"ACGT"[((i as usize).wrapping_mul(2654435761) >> 13) % 4])
        .collect();
    let candidates: Vec<u32> = (0..1 << 14).map(|i| (i * 3) as u32).collect();
    let flags = vec![0u8; candidates.len()];

    let chr = device.alloc_from_slice(&seq).unwrap();
    let loci = device.alloc_from_slice(&candidates).unwrap();
    let flags = device.alloc_from_slice(&flags).unwrap();
    let comp = device.alloc_from_slice(query.comp()).unwrap();
    let comp_index = device.alloc_from_slice(query.comp_index()).unwrap();
    let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
    let n = candidates.len();
    let (kernel, _) =
        ComparerKernel::new(opt, chr, loci, flags, comp, comp_index, n, 4, out, &query);
    let nd = NdRange::linear_cover(n, 256);
    Fixture { device, kernel, nd }
}

fn bench_comparer(c: &mut Criterion) {
    let mut group = c.benchmark_group("comparer");
    group.sample_size(10);
    for opt in OptLevel::ALL {
        let f = fixture(opt);
        let report = f.device.launch(&f.kernel, f.nd).unwrap();
        println!(
            "comparer {}: simulated {:.6}s, occupancy {}, {} wave-kcycles",
            opt,
            report.sim_time_s,
            report.occupancy.waves_per_simd,
            (report.wave_cycles / 1e3) as u64
        );
        group.bench_with_input(BenchmarkId::from_parameter(opt), &f, |b, f| {
            b.iter(|| {
                f.kernel.out.count.fill(0);
                f.device.launch(&f.kernel, f.nd).unwrap().sim_time_s
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_comparer);
criterion_main!(benches);
