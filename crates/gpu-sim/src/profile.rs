//! Session profiling: aggregate launch reports into a per-kernel profile,
//! the way the paper used `rocprof` to find that "the 'compare' kernel is a
//! hotspot that accounts for approximately 98% of the total kernel
//! execution time" (§IV.B).

use std::collections::BTreeMap;
use std::fmt;

use crate::counters::AccessCounters;
use crate::executor::LaunchReport;

/// Aggregated statistics for one kernel across a session.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Number of launches.
    pub calls: usize,
    /// Total simulated device execution seconds (excluding launch
    /// overhead).
    pub total_s: f64,
    /// Fastest single launch.
    pub min_s: f64,
    /// Slowest single launch.
    pub max_s: f64,
    /// Total work-items executed.
    pub items: u64,
    /// Summed dynamic counters.
    pub counters: AccessCounters,
    /// Occupancy (waves/SIMD) of the most recent launch.
    pub occupancy: u32,
}

impl KernelStats {
    /// Mean simulated seconds per launch.
    pub fn avg_s(&self) -> f64 {
        self.total_s / self.calls.max(1) as f64
    }
}

/// A profiling session: feed it [`LaunchReport`]s, read back per-kernel
/// statistics and shares.
///
/// # Examples
///
/// ```
/// use gpu_sim::kernel::{KernelProgram, LocalMem};
/// use gpu_sim::profile::Profile;
/// use gpu_sim::{Device, DeviceSpec, ItemCtx, NdRange};
///
/// struct Nop;
/// impl KernelProgram for Nop {
///     type Private = ();
///     fn name(&self) -> &str {
///         "nop"
///     }
///     fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
///         item.ops(1);
///     }
/// }
///
/// let device = Device::new(DeviceSpec::mi100());
/// let mut profile = Profile::new();
/// profile.record(device.launch(&Nop, NdRange::linear(256, 64))?);
/// profile.record(device.launch(&Nop, NdRange::linear(512, 64))?);
/// assert_eq!(profile.kernel("nop").unwrap().calls, 2);
/// assert!((profile.share("nop") - 1.0).abs() < 1e-12);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct Profile {
    kernels: BTreeMap<String, KernelStats>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a launch.
    pub fn record(&mut self, report: LaunchReport) {
        self.record_ref(&report);
    }

    /// Record a launch by reference.
    pub fn record_ref(&mut self, report: &LaunchReport) {
        let stats = self
            .kernels
            .entry(report.kernel.clone())
            .or_insert(KernelStats {
                calls: 0,
                total_s: 0.0,
                min_s: f64::INFINITY,
                max_s: 0.0,
                items: 0,
                counters: AccessCounters::ZERO,
                occupancy: 0,
            });
        stats.calls += 1;
        stats.total_s += report.exec_time_s;
        stats.min_s = stats.min_s.min(report.exec_time_s);
        stats.max_s = stats.max_s.max(report.exec_time_s);
        stats.items += report.nd.work_items() as u64;
        stats.counters += report.counters;
        stats.occupancy = report.occupancy.waves_per_simd;
    }

    /// Statistics for `kernel`, if it was launched.
    pub fn kernel(&self, kernel: &str) -> Option<&KernelStats> {
        self.kernels.get(kernel)
    }

    /// All kernels, sorted by total time descending.
    pub fn hotspots(&self) -> Vec<(&str, &KernelStats)> {
        let mut v: Vec<(&str, &KernelStats)> =
            self.kernels.iter().map(|(k, s)| (k.as_str(), s)).collect();
        v.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s));
        v
    }

    /// Total simulated kernel seconds across the session.
    pub fn total_s(&self) -> f64 {
        self.kernels.values().map(|s| s.total_s).sum()
    }

    /// `kernel`'s fraction of the total kernel time (0 when unknown).
    pub fn share(&self, kernel: &str) -> f64 {
        let total = self.total_s();
        if total == 0.0 {
            return 0.0;
        }
        self.kernel(kernel).map_or(0.0, |s| s.total_s / total)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>6} {:>12} {:>8} {:>12} {:>14} {:>10} {:>4}",
            "kernel", "calls", "total(s)", "share", "avg(s)", "items", "gmem", "occ"
        )?;
        for (name, s) in self.hotspots() {
            writeln!(
                f,
                "{:<16} {:>6} {:>12.6} {:>7.1}% {:>12.9} {:>14} {:>10} {:>4}",
                name,
                s.calls,
                s.total_s,
                self.share(name) * 100.0,
                s.avg_s(),
                s.items,
                s.counters.global_accesses(),
                s.occupancy
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelProgram, LocalMem};
    use crate::{Device, DeviceSpec, ItemCtx, NdRange};

    struct Busy(&'static str, u64);
    impl KernelProgram for Busy {
        type Private = ();
        fn name(&self) -> &str {
            self.0
        }
        fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
            item.ops(self.1);
        }
    }

    fn profile() -> Profile {
        let device = Device::new(DeviceSpec::mi100());
        let mut p = Profile::new();
        p.record(
            device
                .launch(&Busy("hot", 5000), NdRange::linear(4096, 256))
                .unwrap(),
        );
        p.record(
            device
                .launch(&Busy("hot", 5000), NdRange::linear(4096, 256))
                .unwrap(),
        );
        p.record(
            device
                .launch(&Busy("cold", 10), NdRange::linear(256, 64))
                .unwrap(),
        );
        p
    }

    #[test]
    fn aggregates_per_kernel() {
        let p = profile();
        let hot = p.kernel("hot").unwrap();
        assert_eq!(hot.calls, 2);
        assert_eq!(hot.items, 8192);
        assert!(hot.total_s > 0.0);
        assert!((hot.avg_s() - hot.total_s / 2.0).abs() < 1e-15);
        assert!(hot.min_s <= hot.max_s);
        assert_eq!(hot.occupancy, 10);
        assert!(p.kernel("missing").is_none());
    }

    #[test]
    fn hotspots_are_sorted_and_shares_sum_to_one() {
        let p = profile();
        let hs = p.hotspots();
        assert_eq!(hs[0].0, "hot");
        assert_eq!(hs[1].0, "cold");
        let sum: f64 = ["hot", "cold"].iter().map(|k| p.share(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p.share("hot") > 0.9);
    }

    #[test]
    fn display_renders_a_table() {
        let p = profile();
        let text = p.to_string();
        assert!(text.contains("kernel"));
        assert!(text.contains("hot"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn empty_profile_is_well_behaved() {
        let p = Profile::new();
        assert!(p.is_empty());
        assert_eq!(p.total_s(), 0.0);
        assert_eq!(p.share("anything"), 0.0);
        assert!(p.hotspots().is_empty());
    }
}
