//! Cross-crate checks on the performance model: the relationships the
//! paper's evaluation observes must hold for the composed system, not just
//! for isolated kernels.

use cas_offinder::kernels::ComparerKernel;
use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{OptLevel, SearchInput, TimingBreakdown};
use gpu_sim::isa::compile;
use gpu_sim::occupancy::occupancy;
use gpu_sim::{DeviceSpec, NdRange};

fn run(spec: DeviceSpec, opt: OptLevel, assembly: &genome::Assembly) -> cas_offinder::SearchReport {
    let input = SearchInput::canonical_example(assembly.name());
    let config = PipelineConfig::new(spec).chunk_size(1 << 18).opt(opt);
    pipeline::sycl::run(assembly, &input, &config).expect("pipeline")
}

#[test]
fn comparer_dominates_kernel_time() {
    let assembly = genome::synth::hg19_mini(0.01);
    let report = run(DeviceSpec::mi100(), OptLevel::Base, &assembly);
    let share = report.timing.comparer_kernel_share();
    assert!(
        share > 0.8,
        "comparer share of kernel time {share:.3}; the paper reports ~98%"
    );
}

#[test]
fn mi100_outruns_the_older_gpus() {
    let assembly = genome::synth::hg19_mini(0.01);
    let rvii = run(DeviceSpec::radeon_vii(), OptLevel::Base, &assembly);
    let mi100 = run(DeviceSpec::mi100(), OptLevel::Base, &assembly);
    assert!(
        mi100.timing.kernel_s() < rvii.timing.kernel_s(),
        "MI100 has twice the CUs: kernels must run faster"
    );
}

#[test]
fn hg38_mini_takes_longer_than_hg19_mini() {
    let hg19 = genome::synth::hg19_mini(0.01);
    let hg38 = genome::synth::hg38_mini(0.01);
    let a = run(DeviceSpec::mi60(), OptLevel::Base, &hg19);
    let b = run(DeviceSpec::mi60(), OptLevel::Base, &hg38);
    let ratio = b.timing.elapsed_s / a.timing.elapsed_s;
    assert!(
        (1.05..=1.6).contains(&ratio),
        "hg38/hg19 elapsed ratio {ratio:.2} outside the paper's shape"
    );
}

#[test]
fn table_x_occupancy_emerges_from_the_model_chain() {
    // CodeModel -> pseudo-ISA -> occupancy must land the Table X row.
    let spec = DeviceSpec::mi100();
    let nd = NdRange::linear(1 << 18, 256);
    let occupancies: Vec<u32> = OptLevel::ALL
        .iter()
        .map(|&opt| {
            let mut r = compile(&ComparerKernel::code_model_for(opt));
            r.lds_bytes = 230;
            occupancy(&r, &nd, &spec).waves_per_simd
        })
        .collect();
    assert_eq!(occupancies, vec![10, 10, 10, 10, 9]);
}

#[test]
fn work_group_size_sweep_shows_the_staging_amortization() {
    // The DESIGN.md ablation: with the baseline comparer's serial staging,
    // smaller work-groups pay the per-group costs more often.
    let assembly = genome::synth::hg19_mini(0.01);
    let input = SearchInput::canonical_example(assembly.name());
    let mut times = Vec::new();
    for wgs in [64usize, 256] {
        let config = PipelineConfig::new(DeviceSpec::mi100())
            .chunk_size(1 << 18)
            .work_group_size(Some(wgs));
        let report = pipeline::sycl::run(&assembly, &input, &config).unwrap();
        times.push(report.timing.comparer_s);
    }
    assert!(
        times[0] > times[1] * 1.02,
        "64-wide groups must pay more staging+dispatch: {times:?}"
    );
}

/// Every simulated field of a timing breakdown, as bit patterns and counts;
/// only the host wall-clock time is left out.
fn simulated_fields(t: &TimingBreakdown) -> [u64; 10] {
    let TimingBreakdown {
        elapsed_s,
        transfer_s,
        finder_s,
        comparer_s,
        finder_launches,
        finder_launches_skipped,
        comparer_launches,
        fused_launches,
        candidates,
        entries,
        wall: _,
    } = *t;
    [
        elapsed_s.to_bits(),
        transfer_s.to_bits(),
        finder_s.to_bits(),
        comparer_s.to_bits(),
        finder_launches as u64,
        finder_launches_skipped as u64,
        comparer_launches as u64,
        fused_launches as u64,
        candidates,
        entries,
    ]
}

#[test]
fn repeated_searches_are_bit_identical() {
    // The comparer reads the finder's atomically compacted candidates in
    // landing order, which decides which candidates share a wavefront; the
    // simulator fixes that order, so its simulated times repeat exactly.
    let assembly = genome::synth::hg19_mini(0.02);
    let input = SearchInput::canonical_example(assembly.name());
    let config = PipelineConfig::new(DeviceSpec::mi100());
    let first = pipeline::sycl::run(&assembly, &input, &config).unwrap();
    assert!(first.timing.candidates > 0 && !first.offtargets.is_empty());
    for _ in 0..2 {
        let again = pipeline::sycl::run(&assembly, &input, &config).unwrap();
        assert_eq!(
            simulated_fields(&again.timing),
            simulated_fields(&first.timing)
        );
        assert_eq!(again.offtargets, first.offtargets);
    }
}

#[test]
fn simulated_time_is_independent_of_host_parallelism() {
    // Searches that run side by side on host threads, as the serving stack
    // runs them, must report the same simulated times as one run alone.
    let assembly = genome::synth::hg19_mini(0.004);
    let input = SearchInput::canonical_example(assembly.name());
    let config = PipelineConfig::new(DeviceSpec::mi60()).chunk_size(1 << 14);
    let alone = pipeline::sycl::run(&assembly, &input, &config).unwrap();
    let side_by_side: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| pipeline::sycl::run(&assembly, &input, &config).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for report in &side_by_side {
        assert_eq!(
            simulated_fields(&report.timing),
            simulated_fields(&alone.timing)
        );
    }
}

#[test]
fn transfers_scale_with_genome_size() {
    let small = genome::synth::hg19_mini(0.004);
    let large = genome::synth::hg19_mini(0.04);
    let a = run(DeviceSpec::mi100(), OptLevel::Base, &small);
    let b = run(DeviceSpec::mi100(), OptLevel::Base, &large);
    assert!(b.timing.transfer_s > a.timing.transfer_s * 1.5);
    assert!(b.timing.candidates > a.timing.candidates * 5);
}
