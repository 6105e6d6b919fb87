//! Table X: resource usage and occupancy of the comparer kernel variants,
//! from the pseudo-ISA compiler and the occupancy model.

use cas_offinder::kernels::ComparerKernel;
use cas_offinder::OptLevel;
use gpu_sim::isa::{compile, ResourceUsage};
use gpu_sim::occupancy::occupancy;
use gpu_sim::{DeviceSpec, NdRange};

use crate::{deviation_pct, paper, TextTable};

/// Result of the Table X experiment, per variant (base, opt1..opt4).
#[derive(Debug, Clone)]
pub struct Table10 {
    /// Modeled static resources.
    pub resources: [ResourceUsage; 5],
    /// Modeled occupancy (waves/SIMD) at the SYCL launch geometry.
    pub occupancy: [u32; 5],
}

impl Table10 {
    /// Run the experiment (pure modeling; no simulation needed).
    pub fn run() -> Table10 {
        let spec = DeviceSpec::mi100();
        // Work-group geometry of the SYCL application; plen 23 like the
        // canonical input, so LDS per group is 23 * 2 * (1 + 4) = 230 B.
        let nd = NdRange::linear(1 << 20, 256);
        let resources: Vec<ResourceUsage> = OptLevel::ALL
            .iter()
            .map(|&opt| {
                let mut r = compile(&ComparerKernel::code_model_for(opt));
                r.lds_bytes = 230;
                r
            })
            .collect();
        let occupancy: Vec<u32> = resources
            .iter()
            .map(|r| occupancy(r, &nd, &spec).waves_per_simd)
            .collect();
        Table10 {
            resources: resources.try_into().expect("five variants"),
            occupancy: occupancy.try_into().expect("five variants"),
        }
    }

    /// Render paper-vs-measured.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table X — resource usage and occupancy of the comparer variants",
            &[
                "metric",
                "base",
                "opt1",
                "opt2",
                "opt3",
                "opt4",
                "paper",
                "max dev %",
            ],
        );
        let rows: [(&str, Vec<u32>, &[u32; 5]); 4] = [
            (
                "code length (B)",
                self.resources.iter().map(|r| r.code_bytes).collect(),
                &paper::TABLE10_CODE_BYTES,
            ),
            (
                "#VGPRs",
                self.resources.iter().map(|r| r.vgprs).collect(),
                &paper::TABLE10_VGPRS,
            ),
            (
                "#SGPRs",
                self.resources.iter().map(|r| r.sgprs).collect(),
                &paper::TABLE10_SGPRS,
            ),
            (
                "occupancy",
                self.occupancy.to_vec(),
                &paper::TABLE10_OCCUPANCY,
            ),
        ];
        for (name, measured, expected) in rows {
            let max_dev = measured
                .iter()
                .zip(expected.iter())
                .map(|(&m, &e)| deviation_pct(m as f64, e as f64).abs())
                .fold(0.0f64, f64::max);
            let mut cells = vec![name.to_owned()];
            cells.extend(measured.iter().map(u32::to_string));
            cells.push(format!("{expected:?}"));
            cells.push(format!("{max_dev:.1}"));
            t.row(cells);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_occupancy_match_exactly() {
        let t = Table10::run();
        let vgprs: Vec<u32> = t.resources.iter().map(|r| r.vgprs).collect();
        let sgprs: Vec<u32> = t.resources.iter().map(|r| r.sgprs).collect();
        assert_eq!(vgprs, paper::TABLE10_VGPRS);
        assert_eq!(sgprs, paper::TABLE10_SGPRS);
        assert_eq!(t.occupancy, paper::TABLE10_OCCUPANCY);
    }

    #[test]
    fn code_bytes_within_ten_percent() {
        let t = Table10::run();
        for (r, &expected) in t.resources.iter().zip(&paper::TABLE10_CODE_BYTES) {
            let dev = deviation_pct(r.code_bytes as f64, expected as f64).abs();
            assert!(dev < 10.0, "{} vs {} ({dev:.1}%)", r.code_bytes, expected);
        }
    }
}
