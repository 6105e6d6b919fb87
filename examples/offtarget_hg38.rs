//! The paper's evaluation workload end to end: both assemblies, both host
//! applications (OpenCL and SYCL), all three GPUs — a miniature Table VIII.
//!
//! ```text
//! cargo run --release --example offtarget_hg38 [scale]
//! ```

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::SearchInput;
use gpu_sim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);

    let assemblies = [
        genome::synth::hg19_mini(scale),
        genome::synth::hg38_mini(scale),
    ];

    println!("dataset      device      api     elapsed(s)   kernels(s)   sites");
    println!("-------      ------      ---     ----------   ----------   -----");
    for assembly in &assemblies {
        let input = SearchInput::canonical_example(assembly.name());
        for spec in DeviceSpec::paper_devices() {
            let config = PipelineConfig::new(spec.clone()).chunk_size(1 << 18);

            let ocl = pipeline::ocl::run(assembly, &input, &config)?;
            let sycl = pipeline::sycl::run(assembly, &input, &config)?;
            assert_eq!(
                ocl.offtargets, sycl.offtargets,
                "both applications must find the same sites"
            );

            for report in [&ocl, &sycl] {
                println!(
                    "{:<12} {:<11} {:<7} {:<12.6} {:<12.6} {}",
                    assembly.name(),
                    report.device,
                    report.api.to_string(),
                    report.timing.elapsed_s,
                    report.timing.kernel_s(),
                    report.offtargets.len()
                );
            }
            println!(
                "{:<12} {:<11} SYCL speedup over OpenCL: {:.2}x",
                "",
                spec.name,
                ocl.timing.elapsed_s / sycl.timing.elapsed_s
            );
        }
    }
    Ok(())
}
