//! The central correctness property of the reproduction: the OpenCL
//! application, the SYCL application, the multithreaded CPU baseline and
//! the scalar oracle all find exactly the same off-target sites.

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{cpu, OptLevel, SearchInput};
use gpu_sim::DeviceSpec;

fn canonical(scale: f64) -> (genome::Assembly, SearchInput) {
    let assembly = genome::synth::hg19_mini(scale);
    let input = SearchInput::canonical_example(assembly.name());
    (assembly, input)
}

#[test]
fn all_four_implementations_agree_on_the_canonical_workload() {
    let (assembly, input) = canonical(0.01);
    let oracle = cpu::search_sequential(&assembly, &input);
    assert!(
        oracle.len() >= 10,
        "the implanted guides must produce a meaningful result set, got {}",
        oracle.len()
    );

    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 14);
    let ocl = pipeline::ocl::run(&assembly, &input, &config).expect("opencl pipeline");
    let sycl = pipeline::sycl::run(&assembly, &input, &config).expect("sycl pipeline");
    let parallel = cpu::search_parallel(&assembly, &input, 4);

    assert_eq!(ocl.offtargets, oracle, "OpenCL vs oracle");
    assert_eq!(sycl.offtargets, oracle, "SYCL vs oracle");
    assert_eq!(parallel, oracle, "parallel CPU vs oracle");
}

#[test]
fn agreement_holds_across_chunk_sizes() {
    let (assembly, input) = canonical(0.005);
    let oracle = cpu::search_sequential(&assembly, &input);
    for chunk_bits in [10usize, 12, 16, 20] {
        let config = PipelineConfig::new(DeviceSpec::mi60()).chunk_size(1 << chunk_bits);
        let report = pipeline::sycl::run(&assembly, &input, &config).expect("sycl pipeline");
        assert_eq!(
            report.offtargets, oracle,
            "chunk size 2^{chunk_bits} changed the result set"
        );
    }
}

#[test]
fn agreement_holds_at_every_opt_level_and_device() {
    let (assembly, input) = canonical(0.003);
    let oracle = cpu::search_sequential(&assembly, &input);
    for spec in DeviceSpec::paper_devices() {
        for opt in OptLevel::ALL {
            let config = PipelineConfig::new(spec.clone())
                .chunk_size(1 << 13)
                .opt(opt);
            let report = pipeline::ocl::run(&assembly, &input, &config).expect("ocl pipeline");
            assert_eq!(
                report.offtargets, oracle,
                "device {} opt {opt} diverged",
                spec.name
            );
        }
    }
}

#[test]
fn sequential_and_parallel_execution_find_the_same_sites() {
    // The same searches run one after another and then side by side on
    // host threads find the same sites in the same simulated time.
    let (assembly, input) = canonical(0.005);
    let configs: Vec<_> = [DeviceSpec::mi100(), DeviceSpec::radeon_vii()]
        .into_iter()
        .map(|spec| PipelineConfig::new(spec).chunk_size(1 << 14))
        .collect();
    let sequential: Vec<_> = configs
        .iter()
        .map(|config| pipeline::sycl::run(&assembly, &input, config).unwrap())
        .collect();
    let parallel: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|config| s.spawn(|| pipeline::sycl::run(&assembly, &input, config).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (a, b) in sequential.iter().zip(&parallel) {
        assert!(!a.offtargets.is_empty());
        assert_eq!(a.offtargets, b.offtargets);
        assert_eq!(a.timing.elapsed_s.to_bits(), b.timing.elapsed_s.to_bits());
    }
}

#[test]
fn threshold_zero_returns_only_exact_sites() {
    let assembly = genome::synth::hg38_mini(0.005);
    let input = SearchInput::parse(&format!(
        "{}\nNNNNNNNNNNNNNNNNNNNNNRG\nGGCCGACCTGTCGCTGACGCNNN 0\n",
        assembly.name()
    ))
    .unwrap();
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 14);
    let report = pipeline::sycl::run(&assembly, &input, &config).unwrap();
    assert!(!report.offtargets.is_empty(), "an exact implant must exist");
    assert!(report.offtargets.iter().all(|h| h.mismatches == 0));
    assert_eq!(report.offtargets, cpu::search_sequential(&assembly, &input));
}

#[test]
fn every_reported_site_verifies_against_the_genome() {
    use genome::base::{is_mismatch, reverse_complement};

    let (assembly, input) = canonical(0.005);
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 14);
    let report = pipeline::sycl::run(&assembly, &input, &config).unwrap();
    assert!(!report.offtargets.is_empty());

    for hit in &report.offtargets {
        let chrom = assembly.chromosome(&hit.chrom).expect("chromosome exists");
        let window = &chrom.seq[hit.position..hit.position + input.pattern_len()];
        let oriented = match hit.strand {
            cas_offinder::Strand::Forward => window.to_vec(),
            cas_offinder::Strand::Reverse => reverse_complement(window),
        };
        let mm = oriented
            .iter()
            .zip(&hit.query)
            .filter(|&(&g, &q)| is_mismatch(q, g))
            .count();
        assert_eq!(
            mm as u16, hit.mismatches,
            "reported mismatch count must match a recount at {}:{}",
            hit.chrom, hit.position
        );
        assert!(mm as u16 <= input.queries[0].max_mismatches);
    }
}
