//! The paper's §IV.B optimization study in miniature: sweep the comparer
//! kernel through opt1–opt4 and print kernel time, static resources and
//! occupancy (Fig. 2 + Table X side by side).
//!
//! ```text
//! cargo run --release --example kernel_tuning
//! ```

use cas_offinder::kernels::ComparerKernel;
use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{OptLevel, SearchInput};
use gpu_sim::isa::compile;
use gpu_sim::occupancy::occupancy;
use gpu_sim::{DeviceSpec, NdRange};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let assembly = genome::synth::hg38_mini(0.02);
    let input = SearchInput::canonical_example(assembly.name());
    let spec = DeviceSpec::mi100();

    println!(
        "comparer kernel on {} over {} ({} bp):\n",
        spec.name,
        assembly.name(),
        assembly.total_len()
    );
    println!("level  kernel(s)   vs base  code(B)  SGPR  VGPR  occupancy");
    println!("-----  ---------   -------  -------  ----  ----  ---------");

    let mut base_time = None;
    for opt in OptLevel::ALL {
        let config = PipelineConfig::new(spec.clone())
            .chunk_size(1 << 18)
            .opt(opt);
        let report = pipeline::sycl::run(&assembly, &input, &config)?;
        let kernel_s = report.timing.comparer_s;
        let base = *base_time.get_or_insert(kernel_s);

        let mut resources = compile(&ComparerKernel::code_model_for(opt));
        resources.lds_bytes = (2 * input.pattern_len() * 5) as u64;
        let occ = occupancy(&resources, &NdRange::linear(1 << 20, 256), &spec);

        println!(
            "{:<6} {:<11.6} {:<8.2} {:<8} {:<5} {:<5} {}",
            opt.label(),
            kernel_s,
            kernel_s / base,
            resources.code_bytes,
            resources.sgprs,
            resources.vgprs,
            occ.waves_per_simd
        );
    }

    println!(
        "\nthe opt4 row shows the paper's occupancy cliff: less code, more \
         registers, occupancy 10 -> 9, and the kernel time nearly doubles."
    );
    Ok(())
}
