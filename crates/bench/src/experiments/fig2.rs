//! Fig. 2: comparer kernel execution time under the cumulative
//! optimizations (base, opt1..opt4), per device and dataset.
//!
//! Shape targets: kernel time falls monotonically base→opt3, the opt3
//! reduction lands near the paper's 21–28%, and opt4 regresses to roughly
//! twice the opt3 time despite its smaller code, because occupancy drops
//! from 10 to 9 waves/SIMD.

use cas_offinder::{Api, OptLevel};

use crate::{fmt_s, fmt_x, paper, Runner, TextTable};

/// Result of the Fig. 2 experiment: `kernel_s[dataset][device][opt]`.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Total simulated comparer kernel seconds per configuration.
    pub kernel_s: [[[f64; 5]; 3]; 2],
    /// Comparer share of total kernel time at base (paper: ~98%).
    pub comparer_kernel_share: [[f64; 3]; 2],
}

impl Fig2 {
    /// Run the experiment (30 pipeline simulations, cached).
    pub fn run(runner: &mut Runner) -> Fig2 {
        let mut kernel_s = [[[0.0f64; 5]; 3]; 2];
        let mut share = [[0.0f64; 3]; 2];
        for d in 0..2 {
            for g in 0..3 {
                for (o, &opt) in OptLevel::ALL.iter().enumerate() {
                    let timing = &runner.report(g, d, Api::Sycl, opt).timing;
                    kernel_s[d][g][o] = timing.comparer_s;
                    if opt == OptLevel::Base {
                        share[d][g] = timing.comparer_kernel_share();
                    }
                }
            }
        }
        Fig2 {
            kernel_s,
            comparer_kernel_share: share,
        }
    }

    /// Remaining fraction of base kernel time at `opt` for a configuration.
    pub fn remaining(&self, dataset: usize, device: usize, opt: usize) -> f64 {
        self.kernel_s[dataset][device][opt] / self.kernel_s[dataset][device][0]
    }

    /// opt4/opt3 kernel-time ratio for a configuration.
    pub fn opt4_over_opt3(&self, dataset: usize, device: usize) -> f64 {
        self.kernel_s[dataset][device][4] / self.kernel_s[dataset][device][3]
    }

    /// Export the figure's data series as CSV
    /// (`dataset,device,opt,kernel_s,remaining`), ready for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("dataset,device,opt,kernel_s,remaining\n");
        for d in 0..2 {
            for g in 0..3 {
                for (o, opt) in cas_offinder::OptLevel::ALL.iter().enumerate() {
                    out.push_str(&format!(
                        "{},{},{},{:.9},{:.4}\n",
                        paper::DATASETS[d],
                        paper::DEVICES[g],
                        opt.label(),
                        self.kernel_s[d][g][o],
                        self.remaining(d, g, o),
                    ));
                }
            }
        }
        out
    }

    /// Render paper-vs-measured.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig. 2 — comparer kernel time vs cumulative optimizations \
             (simulated seconds; `rem` = fraction of base remaining)",
            &[
                "dataset",
                "device",
                "base",
                "opt1",
                "opt2",
                "opt3",
                "opt4",
                "opt3 rem",
                "paper opt3 rem",
                "opt4/opt3",
                "paper opt4/opt3",
                "comparer share",
            ],
        );
        for d in 0..2 {
            for g in 0..3 {
                let k = &self.kernel_s[d][g];
                t.row(vec![
                    paper::DATASETS[d].into(),
                    paper::DEVICES[g].into(),
                    fmt_s(k[0]),
                    fmt_s(k[1]),
                    fmt_s(k[2]),
                    fmt_s(k[3]),
                    fmt_s(k[4]),
                    fmt_x(self.remaining(d, g, 3)),
                    fmt_x(paper::FIG2_OPT3_REMAINING[d][g]),
                    fmt_x(self.opt4_over_opt3(d, g)),
                    fmt_x(paper::FIG2_OPT4_OVER_OPT3),
                    format!("{:.1}%", self.comparer_kernel_share[d][g] * 100.0),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn figure_2_shapes_hold() {
        let mut runner = Runner::new(Workload::new(0.02), 1 << 18);
        let f = Fig2::run(&mut runner);
        for d in 0..2 {
            for g in 0..3 {
                let k = &f.kernel_s[d][g];
                // Monotone improvement base..opt3.
                for w in k[..4].windows(2) {
                    assert!(w[1] < w[0], "kernel times {k:?}");
                }
                // opt3 cut in a generous band around the paper's 21-28%.
                let rem = f.remaining(d, g, 3);
                assert!(
                    (0.55..=0.90).contains(&rem),
                    "opt3 remaining fraction {rem:.3}"
                );
                // The opt4 occupancy cliff.
                let cliff = f.opt4_over_opt3(d, g);
                assert!((1.4..=2.4).contains(&cliff), "opt4/opt3 ratio {cliff:.3}");
                // The comparer dominates kernel time.
                assert!(
                    f.comparer_kernel_share[d][g] > 0.85,
                    "comparer share {:.3}",
                    f.comparer_kernel_share[d][g]
                );
            }
        }
        // CSV export covers every series point.
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 3 * 5);
        assert!(csv.starts_with("dataset,device,opt"));
        assert!(csv.contains("hg38,MI100,opt4"));
    }
}
