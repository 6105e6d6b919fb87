//! Quickstart: search a miniature genome for off-target sites of one guide.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::SearchInput;
use gpu_sim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deterministic miniature of the hg38 assembly (~75 kbp at 1% scale).
    let assembly = genome::synth::hg38_mini(0.01);
    println!(
        "genome: {} ({} bp over {} chromosomes)",
        assembly.name(),
        assembly.total_len(),
        assembly.chromosomes().len()
    );

    // The canonical Cas-OFFinder input: SpCas9 NRG PAM, two 20-nt guides,
    // up to 5 mismatches.
    let input = SearchInput::canonical_example(assembly.name());
    println!("pattern: {}", String::from_utf8_lossy(&input.pattern));

    // Run the SYCL application on a simulated AMD MI100.
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 16);
    let report = pipeline::sycl::run(&assembly, &input, &config)?;

    println!(
        "\n{} off-target sites found in {:.6} simulated seconds on {}",
        report.offtargets.len(),
        report.timing.elapsed_s,
        report.device
    );
    println!("{}", report.timing);

    println!("\nfirst hits (query  chrom  position  site  strand  mismatches):");
    for hit in report.offtargets.iter().take(10) {
        println!("  {hit}");
    }

    println!("\nresult statistics:");
    print!(
        "{}",
        cas_offinder::stats::SearchStats::from_hits(&report.offtargets)
    );

    println!("\nkernel profile (the paper's §IV.B hotspot view):");
    print!("{}", report.profile);
    Ok(())
}
