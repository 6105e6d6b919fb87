//! The paper's §IV.B workflow end to end: profile the application to find
//! the hotspot, inspect the hotspot kernel's compiled form, and read the
//! occupancy trade-off off the disassembly headers — the full
//! rocprof-then-ISA loop the authors describe.
//!
//! ```text
//! cargo run --release --example hotspot_analysis
//! ```

use cas_offinder::kernels::ComparerKernel;
use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{OptLevel, SearchInput};
use gpu_sim::isa::compile_program;
use gpu_sim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: run the application and profile it (the rocprof pass).
    let assembly = genome::synth::hg19_mini(0.02);
    let input = SearchInput::canonical_example(assembly.name());
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 17);
    let report = pipeline::sycl::run(&assembly, &input, &config)?;

    println!(
        "profile of the baseline SYCL application on {}:\n",
        report.device
    );
    print!("{}", report.profile);

    let (hotspot, stats) = report.profile.hotspots()[0];
    println!(
        "\nhotspot: `{hotspot}` at {:.1}% of kernel time — the paper measures ~98% \
         for the comparer (§IV.B).\n",
        report.profile.share(hotspot) * 100.0
    );
    assert_eq!(hotspot, "comparer");
    assert!(stats.calls > 0);

    // Step 2: inspect the hotspot's compiled form per optimization stage.
    println!("compiled comparer variants (headers of the pseudo-ISA listings):");
    for opt in OptLevel::ALL {
        let program = compile_program(&ComparerKernel::code_model_for(opt));
        let header = program.disassemble().lines().next().unwrap().to_owned();
        println!("  {header}");
    }

    // Step 3: the interesting sections of the baseline vs opt3 vs opt4.
    let base = compile_program(&ComparerKernel::code_model_for(OptLevel::Base));
    let opt4 = compile_program(&ComparerKernel::code_model_for(OptLevel::Opt4));
    println!("\nbaseline staging section (the serial copy loop opt3 removes):");
    for line in base
        .disassemble()
        .lines()
        .skip_while(|l| !l.starts_with("staging_serial"))
        .take(8)
    {
        println!("  {line}");
    }
    println!("\nopt4 register-caching prologue (the 25 VGPRs that cost occupancy 10 -> 9):");
    for line in opt4
        .disassemble()
        .lines()
        .skip_while(|l| !l.starts_with("register_cached_pattern"))
        .take(6)
    {
        println!("  {line}");
    }

    println!(
        "\nconclusion (the paper's): \"there is a performance trade-off between \
         register usage and occupancy on the GPUs.\""
    );
    Ok(())
}
