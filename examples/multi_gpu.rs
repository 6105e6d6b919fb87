//! Multi-GPU scaling — the extension the paper leaves as future work ("The
//! SYCL application currently executes on a single GPU device").
//!
//! ```text
//! cargo run --release --example multi_gpu
//! ```

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::SearchInput;
use gpu_sim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let assembly = genome::synth::hg38_mini(0.05);
    let input = SearchInput::canonical_example(assembly.name());
    let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 15);

    let single = pipeline::sycl::run(&assembly, &input, &config)?;
    println!(
        "1 x MI100:             {:.6}s simulated, {} sites",
        single.timing.elapsed_s,
        single.offtargets.len()
    );

    for n in [2usize, 3, 4] {
        let fleet = vec![DeviceSpec::mi100(); n];
        let (multi, per_device) = pipeline::multi::run(&assembly, &input, &config, &fleet)?;
        assert_eq!(multi.offtargets, single.offtargets);
        println!(
            "{n} x MI100:             {:.6}s simulated, scaling {:.2}x  (per-device: {})",
            multi.timing.elapsed_s,
            single.timing.elapsed_s / multi.timing.elapsed_s,
            per_device
                .iter()
                .map(|t| format!("{:.6}s", t.elapsed_s))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    let (hetero, per_device) =
        pipeline::multi::run(&assembly, &input, &config, &DeviceSpec::paper_devices())?;
    assert_eq!(hetero.offtargets, single.offtargets);
    println!(
        "RVII+MI60+MI100:       {:.6}s simulated (slowest device bounds the run; per-device: {})",
        hetero.timing.elapsed_s,
        per_device
            .iter()
            .map(|t| format!("{:.6}s", t.elapsed_s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}
