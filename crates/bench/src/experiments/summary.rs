//! The reproduction scorecard: one row per shape claim of the paper's
//! evaluation, each checked against its target band.

use cas_offinder::{Api, OptLevel};

use crate::experiments::{
    fig2::Fig2, table1::Table1, table10::Table10, table8::Table8, table9::Table9,
};
use crate::{paper, Runner, TextTable};

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// What the paper claims.
    pub claim: String,
    /// The acceptance band.
    pub band: String,
    /// What we measured (worst case across configurations).
    pub measured: String,
    /// Whether the measurement falls in the band.
    pub pass: bool,
}

/// The full scorecard.
#[derive(Debug, Clone)]
pub struct Summary {
    /// All verdicts, in paper order.
    pub verdicts: Vec<Verdict>,
}

impl Summary {
    /// Run every experiment and score it.
    pub fn run(runner: &mut Runner) -> Summary {
        let mut verdicts = Vec::new();
        let mut check = |claim: &str, band: &str, measured: String, pass: bool| {
            verdicts.push(Verdict {
                claim: claim.to_owned(),
                band: band.to_owned(),
                measured,
                pass,
            });
        };

        // Table I.
        let t1 = Table1::run();
        check(
            "Table I: OpenCL needs 13 logical steps",
            "= 13",
            t1.opencl_steps.len().to_string(),
            t1.opencl_steps.len() == paper::OPENCL_STEPS,
        );
        check(
            "Table I: SYCL needs 8 logical steps",
            "= 8",
            t1.sycl_steps.len().to_string(),
            t1.sycl_steps.len() == paper::SYCL_STEPS,
        );

        // Table X.
        let t10 = Table10::run();
        let vgprs: Vec<u32> = t10.resources.iter().map(|r| r.vgprs).collect();
        let sgprs: Vec<u32> = t10.resources.iter().map(|r| r.sgprs).collect();
        check(
            "Table X: VGPRs 64,64,64,57,82",
            "exact",
            format!("{vgprs:?}"),
            vgprs == paper::TABLE10_VGPRS,
        );
        check(
            "Table X: SGPRs 22,22,22,10,10",
            "exact",
            format!("{sgprs:?}"),
            sgprs == paper::TABLE10_SGPRS,
        );
        check(
            "Table X: occupancy 10,10,10,10,9",
            "exact",
            format!("{:?}", t10.occupancy),
            t10.occupancy == paper::TABLE10_OCCUPANCY,
        );
        let max_code_dev = t10
            .resources
            .iter()
            .zip(&paper::TABLE10_CODE_BYTES)
            .map(|(r, &e)| ((r.code_bytes as f64 - e as f64) / e as f64).abs())
            .fold(0.0f64, f64::max);
        check(
            "Table X: code bytes within 10% of 6064..3660",
            "< 10%",
            format!("{:.1}%", max_code_dev * 100.0),
            max_code_dev < 0.10,
        );

        // Table VIII.
        let t8 = Table8::run(runner);
        let speedups: Vec<f64> = (0..2)
            .flat_map(|d| (0..3).map(move |g| (d, g)))
            .map(|(d, g)| t8.cells[d][g].speedup())
            .collect();
        let (min8, max8) = bounds(&speedups);
        check(
            "Table VIII: SYCL over OpenCL speedup in 1.00-1.20",
            "0.98..=1.35",
            format!("{min8:.2}..{max8:.2}"),
            min8 >= 0.98 && max8 <= 1.35,
        );

        // Fig. 2.
        let f2 = Fig2::run(runner);
        let rems: Vec<f64> = (0..2)
            .flat_map(|d| (0..3).map(move |g| (d, g)))
            .map(|(d, g)| f2.remaining(d, g, 3))
            .collect();
        let (rmin, rmax) = bounds(&rems);
        check(
            "Fig. 2: opt3 leaves 72-79% of base kernel time",
            "0.55..=0.90",
            format!("{rmin:.2}..{rmax:.2}"),
            rmin >= 0.55 && rmax <= 0.90,
        );
        let cliffs: Vec<f64> = (0..2)
            .flat_map(|d| (0..3).map(move |g| (d, g)))
            .map(|(d, g)| f2.opt4_over_opt3(d, g))
            .collect();
        let (cmin, cmax) = bounds(&cliffs);
        check(
            "Fig. 2: opt4 nearly doubles the opt3 kernel time",
            "1.4..=2.4",
            format!("{cmin:.2}..{cmax:.2}"),
            cmin >= 1.4 && cmax <= 2.4,
        );

        // Hotspot shares.
        let share = runner
            .report(2, 0, Api::Sycl, OptLevel::Base)
            .timing
            .clone();
        check(
            "§IV.B: comparer dominates kernel time (~98%)",
            "> 85%",
            format!("{:.1}%", share.comparer_kernel_share() * 100.0),
            share.comparer_kernel_share() > 0.85,
        );
        check(
            "§IV.B: comparer is 50-80% of elapsed time",
            "40%..85%",
            format!("{:.1}%", share.comparer_elapsed_share() * 100.0),
            (0.40..=0.85).contains(&share.comparer_elapsed_share()),
        );

        // Table IX.
        let t9 = Table9::run(runner);
        let opt_speedups: Vec<f64> = (0..2)
            .flat_map(|d| (0..3).map(move |g| (d, g)))
            .map(|(d, g)| t9.cells[d][g].speedup())
            .collect();
        let (omin, omax) = bounds(&opt_speedups);
        check(
            "Table IX: opt3 end-to-end speedup in 1.09-1.23",
            "1.03..=1.40",
            format!("{omin:.2}..{omax:.2}"),
            omin >= 1.03 && omax <= 1.40,
        );

        Summary { verdicts }
    }

    /// True when every claim passed.
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Render the scorecard.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Reproduction scorecard — every shape claim of the evaluation",
            &["claim", "band", "measured", "verdict"],
        );
        for v in &self.verdicts {
            t.row(vec![
                v.claim.clone(),
                v.band.clone(),
                v.measured.clone(),
                if v.pass { "PASS" } else { "FAIL" }.to_owned(),
            ]);
        }
        t
    }
}

fn bounds(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn every_claim_passes() {
        let mut runner = Runner::new(Workload::new(0.02), 1 << 18);
        let summary = Summary::run(&mut runner);
        assert_eq!(summary.verdicts.len(), 12);
        for v in &summary.verdicts {
            assert!(
                v.pass,
                "claim failed: {} (measured {})",
                v.claim, v.measured
            );
        }
        assert!(summary.all_pass());
        let text = summary.render().to_string();
        assert!(text.contains("PASS"));
        assert!(!text.contains("FAIL"));
    }
}
