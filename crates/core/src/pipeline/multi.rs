//! Multi-GPU execution — the extension the paper leaves open ("The SYCL
//! application currently executes on a single GPU device", §IV.A).
//!
//! Chunks are distributed round-robin across one SYCL queue per device;
//! each device runs the complete finder→comparer interaction for its
//! chunks, and the simulated elapsed time of the whole search is the
//! slowest device's queue time (the devices run concurrently).

use genome::Assembly;
use gpu_sim::DeviceSpec;
use sycl_rt::SyclResult;

use crate::input::SearchInput;
use crate::report::{Api, SearchReport, TimingBreakdown};

use super::PipelineConfig;

/// Run the SYCL application across `devices`, returning the merged report
/// plus the per-device timing breakdowns. Each device gets its own runner:
/// its own queue plus its own copy of the constant pattern tables and query
/// tables.
///
/// # Errors
///
/// Propagates SYCL exceptions. At least one device is required.
pub fn run(
    assembly: &Assembly,
    input: &SearchInput,
    config: &PipelineConfig,
    devices: &[DeviceSpec],
) -> SyclResult<(SearchReport, Vec<TimingBreakdown>)> {
    assert!(!devices.is_empty(), "at least one device is required");
    super::search::<super::chunk::Sycl>(Api::Sycl, assembly, input, config, devices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> (Assembly, SearchInput) {
        let assembly = genome::synth::hg38_mini(0.01);
        let input = SearchInput::canonical_example(assembly.name());
        (assembly, input)
    }

    #[test]
    fn multi_gpu_finds_the_same_sites_as_single_gpu() {
        let (assembly, input) = workload();
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 13);
        let single = super::super::sycl::run(&assembly, &input, &config).unwrap();
        let (multi, per_device) = run(
            &assembly,
            &input,
            &config,
            &[
                DeviceSpec::mi100(),
                DeviceSpec::mi100(),
                DeviceSpec::mi100(),
            ],
        )
        .unwrap();
        assert_eq!(multi.offtargets, single.offtargets);
        assert_eq!(per_device.len(), 3);
        assert!(per_device.iter().all(|t| t.finder_launches > 0));
    }

    #[test]
    fn three_gpus_beat_one_on_elapsed_time() {
        let (assembly, input) = workload();
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 13);
        let single = super::super::sycl::run(&assembly, &input, &config).unwrap();
        let (multi, _) = run(
            &assembly,
            &input,
            &config,
            &[
                DeviceSpec::mi100(),
                DeviceSpec::mi100(),
                DeviceSpec::mi100(),
            ],
        )
        .unwrap();
        assert!(
            multi.timing.elapsed_s < single.timing.elapsed_s * 0.6,
            "3 devices must be well below 1 device: {} vs {}",
            multi.timing.elapsed_s,
            single.timing.elapsed_s
        );
    }

    #[test]
    fn heterogeneous_fleet_is_supported() {
        let (assembly, input) = workload();
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 13);
        let (multi, per_device) =
            run(&assembly, &input, &config, &DeviceSpec::paper_devices()).unwrap();
        assert_eq!(multi.device, "Radeon VII+MI60+MI100");
        // The slowest device defines the elapsed time.
        let max = per_device.iter().map(|t| t.elapsed_s).fold(0.0, f64::max);
        assert_eq!(multi.timing.elapsed_s, max);
        let oracle = crate::cpu::search_sequential(&assembly, &input);
        assert_eq!(multi.offtargets, oracle);
    }

    #[test]
    fn merged_timing_sums_every_counter() {
        let (assembly, input) = workload();
        assert!(input.queries.len() >= 2, "fusion needs several queries");
        let config = PipelineConfig::new(DeviceSpec::mi100())
            .chunk_size(1 << 13)
            .multi_guide(true);
        let fleet = [DeviceSpec::mi100(), DeviceSpec::mi60()];
        let (multi, per_device) = run(&assembly, &input, &config, &fleet).unwrap();
        let sum = |count: fn(&TimingBreakdown) -> u64| per_device.iter().map(count).sum::<u64>();
        let t = &multi.timing;
        assert!(t.fused_launches > 0, "multi-guide searches fuse");
        assert_eq!(t.fused_launches as u64, sum(|d| d.fused_launches as u64));
        assert_eq!(t.finder_launches as u64, sum(|d| d.finder_launches as u64));
        assert_eq!(
            t.finder_launches_skipped as u64,
            sum(|d| d.finder_launches_skipped as u64)
        );
        assert_eq!(
            t.comparer_launches as u64,
            sum(|d| d.comparer_launches as u64)
        );
        assert_eq!(t.candidates, sum(|d| d.candidates));
        assert_eq!(t.entries, sum(|d| d.entries));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_panics() {
        let (assembly, input) = workload();
        let config = PipelineConfig::new(DeviceSpec::mi100());
        let _ = run(&assembly, &input, &config, &[]);
    }
}
