//! Table I: programming steps in OpenCL and SYCL.
//!
//! Runs both host pipelines once and reads back their step logs: the OpenCL
//! application must exercise all thirteen logical steps, the SYCL
//! application all eight.

use cas_offinder::pipeline::{ocl, sycl, PipelineConfig};
use genome::synth;
use gpu_sim::DeviceSpec;

use crate::{paper, TextTable};

/// Result of the Table I experiment.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The distinct OpenCL steps, in first-occurrence order.
    pub opencl_steps: Vec<String>,
    /// The distinct SYCL steps, in first-occurrence order.
    pub sycl_steps: Vec<String>,
}

impl Table1 {
    /// Run the experiment.
    ///
    /// # Panics
    ///
    /// Panics if either pipeline fails on the tiny probe workload.
    pub fn run() -> Table1 {
        let assembly = synth::hg19_mini(0.002);
        let input = cas_offinder::SearchInput::canonical_example("hg19-mini");
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 14);

        let ocl_log =
            ocl::step_log_of(&assembly, &input, &config).expect("opencl probe pipeline failed");
        let sycl_log =
            sycl::step_log_of(&assembly, &input, &config).expect("sycl probe pipeline failed");

        Table1 {
            opencl_steps: ocl_log.steps().iter().map(|s| s.to_string()).collect(),
            sycl_steps: sycl_log.steps().iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Render paper-vs-measured.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table I — logical programming steps (paper: OpenCL 13, SYCL 8)",
            &["model", "paper", "measured", "steps exercised"],
        );
        t.row(vec![
            "OpenCL".into(),
            paper::OPENCL_STEPS.to_string(),
            self.opencl_steps.len().to_string(),
            self.opencl_steps.join("; "),
        ]);
        t.row(vec![
            "SYCL".into(),
            paper::SYCL_STEPS.to_string(),
            self.sycl_steps.len().to_string(),
            self.sycl_steps.join("; "),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_match_table_i() {
        let t = Table1::run();
        assert_eq!(t.opencl_steps.len(), paper::OPENCL_STEPS);
        assert_eq!(t.sycl_steps.len(), paper::SYCL_STEPS);
        let rendered = t.render().to_string();
        assert!(rendered.contains("platform query"));
        assert!(rendered.contains("device selector class"));
    }
}
