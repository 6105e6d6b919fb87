//! The OpenCL host application: the original Cas-OFFinder, driven through
//! the thirteen programming steps of Table I.

use genome::{Assembly, Chunker};
use opencl_rt::{ClResult, StepLog};

use crate::input::SearchInput;
use crate::report::{Api, SearchReport};

use super::chunk::{OclChunkRunner, OpenCl};
use super::PipelineConfig;

/// Run the OpenCL application over `assembly` with `input`: steps 1-8 and
/// the step-5 scratch allocations once, steps 9-12 per chunk (upload,
/// finder, comparer per query, read back), step 13 explicit release. The
/// comparer's query tables are plain global buffers (Listing 1 takes
/// `const char* comp`, not `__constant`).
///
/// Returns the off-target records plus the simulated timing breakdown; the
/// elapsed time excludes environment setup and input parsing, matching the
/// paper's measurement protocol (§IV.A).
///
/// # Errors
///
/// Propagates OpenCL-level failures (allocation, argument binding, launch).
pub fn run(
    assembly: &Assembly,
    input: &SearchInput,
    config: &PipelineConfig,
) -> ClResult<SearchReport> {
    let devices = std::slice::from_ref(&config.device);
    super::search::<OpenCl>(Api::OpenCl, assembly, input, config, devices).map(|(report, _)| report)
}

/// The context step log of a one-chunk run through the chunk runner,
/// release included — exposed for the Table I experiment, which checks that
/// the OpenCL application exercises all thirteen steps.
///
/// # Errors
///
/// Propagates OpenCL-level failures.
pub fn step_log_of(
    assembly: &Assembly,
    input: &SearchInput,
    config: &PipelineConfig,
) -> ClResult<StepLog> {
    let runner = OclChunkRunner::new(config, &input.pattern)?;
    let log = runner.step_log();
    let tables = runner.prepare_queries(&input.queries)?;
    if let Some(chunk) = Chunker::new(assembly, config.chunk_size, runner.plen()).next() {
        let (timing, profile) = &mut Default::default();
        runner.run_chunk(chunk.seq, chunk.scan_len, &tables, timing, profile)?;
    }
    tables.release();
    runner.release();
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::Chromosome;
    use gpu_sim::DeviceSpec;

    fn toy() -> (Assembly, SearchInput) {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new(
            "chr1",
            b"ACGTACGTAGGTTTACGTACGAAGCCCCCACGTACGTCGG".to_vec(),
        ));
        let input = SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\n").unwrap();
        (asm, input)
    }

    fn config() -> PipelineConfig {
        PipelineConfig::new(DeviceSpec::mi100()).chunk_size(16)
    }

    #[test]
    fn matches_the_cpu_oracle_across_chunk_boundaries() {
        let (asm, input) = toy();
        let report = run(&asm, &input, &config()).unwrap();
        let oracle = crate::cpu::search_sequential(&asm, &input);
        assert_eq!(report.offtargets, oracle);
        assert!(!oracle.is_empty(), "fixture must produce hits");
        assert!(report.timing.finder_launches >= 2, "chunking exercised");
    }

    #[test]
    fn timing_is_accounted() {
        let (asm, input) = toy();
        let report = run(&asm, &input, &config()).unwrap();
        let t = &report.timing;
        assert!(t.elapsed_s > 0.0);
        assert!(t.transfer_s > 0.0);
        assert!(t.finder_s > 0.0);
        assert!(t.comparer_s > 0.0);
        assert!(t.kernel_s() + t.transfer_s <= t.elapsed_s + 1e-9);
        assert_eq!(report.api, Api::OpenCl);
        assert_eq!(report.device, "MI100");
        assert!(t.candidates >= t.entries / 2);
    }

    #[test]
    fn all_thirteen_steps_are_exercised() {
        let (asm, input) = toy();
        let log = step_log_of(&asm, &input, &config()).unwrap();
        let mut steps = log.steps();
        steps.sort();
        let mut all = opencl_rt::steps::ALL_STEPS.to_vec();
        all.sort();
        assert_eq!(steps, all);
    }

    #[test]
    fn every_opt_level_agrees_with_the_oracle() {
        let (asm, input) = toy();
        let oracle = crate::cpu::search_sequential(&asm, &input);
        for opt in crate::kernels::OptLevel::ALL {
            let report = run(&asm, &input, &config().opt(opt)).unwrap();
            assert_eq!(report.offtargets, oracle, "opt level {opt}");
        }
    }
}
