//! The paper's published numbers, used as the comparison baseline by every
//! experiment.

/// Device names in the order of the paper's tables.
pub const DEVICES: [&str; 3] = ["Radeon VII", "MI60", "MI100"];

/// Dataset names in the order of the paper's tables.
pub const DATASETS: [&str; 2] = ["hg19", "hg38"];

/// Table I: logical programming steps.
pub const OPENCL_STEPS: usize = 13;
/// Table I: logical programming steps.
pub const SYCL_STEPS: usize = 8;

/// Table VIII: elapsed seconds `[dataset][device]` for the OpenCL
/// application.
pub const TABLE8_OPENCL_S: [[f64; 3]; 2] = [[54.0, 51.0, 49.0], [71.0, 63.0, 61.0]];
/// Table VIII: elapsed seconds for the SYCL application.
pub const TABLE8_SYCL_S: [[f64; 3]; 2] = [[48.0, 50.0, 41.0], [61.0, 63.0, 58.0]];

/// Table IX: elapsed seconds for the baseline SYCL application.
pub const TABLE9_BASE_S: [[f64; 3]; 2] = [[48.0, 50.0, 41.0], [61.0, 63.0, 58.0]];
/// Table IX: elapsed seconds for the optimized (opt3) SYCL application.
pub const TABLE9_OPT_S: [[f64; 3]; 2] = [[39.0, 42.0, 36.0], [52.0, 57.0, 53.0]];

/// Fig. 2: fraction of the baseline comparer kernel time remaining at opt3,
/// `[dataset][device]` (the paper reports the reductions: hg19
/// 27.8/23.4/23.1%, hg38 22.9/21.1/21.7%).
pub const FIG2_OPT3_REMAINING: [[f64; 3]; 2] = [
    [1.0 - 0.278, 1.0 - 0.234, 1.0 - 0.231],
    [1.0 - 0.229, 1.0 - 0.211, 1.0 - 0.217],
];

/// Fig. 2: opt4 "almost doubles" the opt3 kernel time.
pub const FIG2_OPT4_OVER_OPT3: f64 = 1.9;

/// Table X: code length in bytes per comparer variant (base, opt1..opt4).
pub const TABLE10_CODE_BYTES: [u32; 5] = [6064, 5852, 5408, 4408, 3660];
/// Table X: vector GPRs per variant (the paper's text: "the number of
/// vector GPRs decrease from 64 to 57"; opt4 rises to 82).
pub const TABLE10_VGPRS: [u32; 5] = [64, 64, 64, 57, 82];
/// Table X: scalar GPRs per variant ("the number of scalar GPRs from 22 to
/// 10").
pub const TABLE10_SGPRS: [u32; 5] = [22, 22, 22, 10, 10];
/// Table X: occupancy (waves per SIMD) per variant.
pub const TABLE10_OCCUPANCY: [u32; 5] = [10, 10, 10, 10, 9];

/// §IV.B: the comparer accounts for ~98% of total kernel time.
pub const COMPARER_KERNEL_SHARE: f64 = 0.98;
/// §IV.B: ... and 50% to 80% of the elapsed time.
pub const COMPARER_ELAPSED_SHARE: (f64, f64) = (0.5, 0.8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_speedups_are_in_the_reported_band() {
        // The paper: "the performance speedup of the SYCL application over
        // the OpenCL application across the GPUs ranges from 1 to 1.19".
        for d in 0..2 {
            for g in 0..3 {
                let speedup = TABLE8_OPENCL_S[d][g] / TABLE8_SYCL_S[d][g];
                assert!((1.0..=1.20).contains(&speedup), "{speedup}");
            }
        }
    }

    #[test]
    fn table9_speedups_are_in_the_reported_band() {
        // "the performance speedup from the kernel optimizations (opt3)
        // ranges from 1.09 to 1.23" (48/39 rounds to 1.231).
        for d in 0..2 {
            for g in 0..3 {
                let speedup = TABLE9_BASE_S[d][g] / TABLE9_OPT_S[d][g];
                assert!((1.09..=1.235).contains(&speedup), "{speedup}");
            }
        }
    }

    #[test]
    fn table10_is_monotone_in_code_size() {
        for w in TABLE10_CODE_BYTES.windows(2) {
            assert!(w[1] < w[0]);
        }
    }
}
