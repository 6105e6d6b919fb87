//! First-order GPU timing model.
//!
//! The executor reduces a kernel launch to *wave-cycles*: for every
//! wavefront, the lockstep issue cost of its slowest lane, summed over all
//! waves and phases (see [`crate::executor`]). This module converts
//! wave-cycles into simulated seconds:
//!
//! * a device retires `compute_units x simds_per_cu` wave-instructions per
//!   core cycle when every SIMD has a wave ready;
//! * whether a SIMD has a wave ready depends on occupancy — with fewer
//!   resident waves, global-memory latency is exposed. We model this with a
//!   utilization curve `(occ / occ_max) ^ occ_exponent`, calibrated to the
//!   paper's measured occupancy sensitivity (Table X ↔ Fig. 2: dropping from
//!   10 to 9 waves/SIMD almost doubles the latency-bound comparer's time);
//! * a launch can never beat the device's memory bandwidth: the byte traffic
//!   from the counters imposes `bytes / (peak_bw x efficiency)` as a floor;
//! * every launch and every transfer pays a fixed host-side overhead.

use crate::counters::AccessCounters;
use crate::occupancy::Occupancy;
use crate::spec::DeviceSpec;

/// Per-operation issue costs in core cycles, derived from a [`DeviceSpec`].
///
/// Costs fall in two classes:
///
/// * **lockstep** — ALU, LDS, constant and fully coalesced accesses execute
///   once per wave-instruction for all 64 lanes, so a wave's cost is its
///   slowest *lane's* total;
/// * **serialized** — scattered global loads/stores, cache-hit reloads and
///   atomics become one memory transaction *per lane*, which the memory
///   pipeline processes one after another, so they sum across the lanes of
///   the wave. This is why the comparer's random reference reads dominate
///   the application while the finder's coalesced scan does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles per annotated arithmetic/logic op (lockstep).
    pub arith: f64,
    /// Cycles per shared-local-memory access (lockstep).
    pub lds: f64,
    /// Cycles per scattered global transaction (serialized per lane).
    pub gmem: f64,
    /// Cycles per cache-hitting reload transaction (serialized per lane).
    pub cached_gmem: f64,
    /// Cycles per fully coalesced streaming load (lockstep).
    pub coalesced_gmem: f64,
    /// Cycles per constant (broadcast-cached) load (lockstep).
    pub constant: f64,
    /// Cycles per device atomic (serialized per lane).
    pub atomic: f64,
    /// Cycles per work-group barrier (lockstep).
    pub barrier: f64,
}

impl CostModel {
    /// Build the cost model for a device.
    pub fn new(spec: &DeviceSpec) -> Self {
        CostModel {
            arith: 1.0,
            lds: spec.lds_cost_cycles as f64,
            gmem: spec.gmem_issue_cycles as f64
                + spec.mem_latency_cycles as f64 / spec.max_waves_per_simd as f64,
            cached_gmem: spec.cached_cost_cycles as f64,
            coalesced_gmem: spec.coalesced_cost_cycles as f64,
            constant: 1.0,
            atomic: spec.atomic_cost_cycles as f64,
            barrier: spec.barrier_cost_cycles as f64,
        }
    }

    /// Lockstep cost of the events in `c`: contributes the wave's
    /// max-over-lanes.
    #[inline]
    pub fn lockstep_cycles(&self, c: &AccessCounters) -> f64 {
        count(c.arith_ops) * self.arith
            + count(c.local_accesses()) * self.lds
            + count(c.global_coalesced_loads) * self.coalesced_gmem
            + count(c.global_coalesced_stores) * self.coalesced_gmem
            + count(c.constant_loads) * self.constant
            + count(c.barriers) * self.barrier
    }

    /// Serialized (per-transaction) cost of the events in `c`: sums across
    /// the wave's lanes.
    #[inline]
    pub fn serialized_cycles(&self, c: &AccessCounters) -> f64 {
        count(c.global_loads + c.global_stores) * self.gmem
            + count(c.global_cached_loads) * self.cached_gmem
            + count(c.atomic_ops) * self.atomic
    }

    /// Total issue cost of the events in `c` (lockstep + serialized), as if
    /// the lane ran alone.
    pub fn cycles(&self, c: &AccessCounters) -> f64 {
        self.lockstep_cycles(c) + self.serialized_cycles(c)
    }
}

/// An event count as `f64`. Through `i64` the conversion is one signed
/// convert instruction; for every count below 2^63 it yields exactly the
/// value `n as f64` does, which takes a branchy unsigned sequence.
#[inline]
fn count(n: u64) -> f64 {
    debug_assert!(n <= i64::MAX as u64, "event count {n} past 2^63");
    n as i64 as f64
}

/// SIMD utilization as a function of occupancy: `(occ/cap)^occ_exponent`,
/// clamped to `(0, 1]`.
pub fn utilization(occ: &Occupancy, spec: &DeviceSpec) -> f64 {
    occ.fraction(spec).clamp(0.05, 1.0).powf(spec.occ_exponent)
}

/// Convert a launch's aggregate wave-cycles and traffic into simulated
/// seconds.
///
/// `wave_cycles` is the sum over all waves of the slowest lane's issue
/// cycles, as produced by the executor.
pub fn kernel_time_s(
    wave_cycles: f64,
    counters: &AccessCounters,
    occ: &Occupancy,
    spec: &DeviceSpec,
) -> f64 {
    let slots = (spec.compute_units() * spec.simds_per_cu) as f64;
    let compute_s = wave_cycles / (slots * utilization(occ, spec)) / spec.clock_hz();
    let bw_s = counters.global_bytes() as f64 / (spec.peak_bw_bytes_per_s() * spec.bw_efficiency);
    compute_s.max(bw_s) + spec.launch_overhead_s
}

/// Simulated duration of a host<->device transfer of `bytes`.
pub fn transfer_time_s(bytes: u64, spec: &DeviceSpec) -> f64 {
    bytes as f64 / spec.interconnect_bytes_per_s() + spec.transfer_overhead_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::{Occupancy, OccupancyLimit};

    fn occ(waves: u32) -> Occupancy {
        Occupancy {
            waves_per_simd: waves,
            limit: OccupancyLimit::Vgpr,
        }
    }

    #[test]
    fn cost_model_prices_each_event_class() {
        let spec = DeviceSpec::mi100();
        let cm = CostModel::new(&spec);
        let c = AccessCounters {
            arith_ops: 10,
            local_loads: 2,
            global_loads: 1,
            ..AccessCounters::ZERO
        };
        let expect = 10.0 + 2.0 * cm.lds + cm.gmem;
        assert!((cm.cycles(&c) - expect).abs() < 1e-9);
    }

    #[test]
    fn coalesced_stores_are_lockstep_not_serialized() {
        let spec = DeviceSpec::mi100();
        let cm = CostModel::new(&spec);
        let c = AccessCounters {
            global_coalesced_stores: 4,
            ..AccessCounters::ZERO
        };
        assert!((cm.lockstep_cycles(&c) - 4.0 * cm.coalesced_gmem).abs() < 1e-9);
        assert_eq!(cm.serialized_cycles(&c), 0.0);
    }

    #[test]
    fn gmem_cost_includes_unhidden_latency() {
        let spec = DeviceSpec::mi100();
        let cm = CostModel::new(&spec);
        assert!(cm.gmem > spec.gmem_issue_cycles as f64);
    }

    #[test]
    fn full_occupancy_is_full_utilization() {
        let spec = DeviceSpec::mi100();
        assert!((utilization(&occ(10), &spec) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_drop_is_superlinear() {
        // The calibrated curve: 10 -> 9 waves/SIMD costs roughly 1.9x.
        let spec = DeviceSpec::mi100();
        let ratio = utilization(&occ(10), &spec) / utilization(&occ(9), &spec);
        assert!(
            (1.9..=2.3).contains(&ratio),
            "occupancy 10->9 slowdown {ratio:.2} outside the paper's observed band"
        );
    }

    #[test]
    fn compute_time_scales_inversely_with_utilization() {
        let spec = DeviceSpec::mi60();
        let c = AccessCounters::ZERO;
        let fast = kernel_time_s(1e9, &c, &occ(10), &spec);
        let slow = kernel_time_s(1e9, &c, &occ(9), &spec);
        assert!(slow > fast * 1.5);
    }

    #[test]
    fn bandwidth_floor_applies() {
        let spec = DeviceSpec::mi100();
        // Tiny compute, huge traffic: the BW bound must dominate.
        let c = AccessCounters {
            global_load_bytes: 100_000_000_000,
            ..AccessCounters::ZERO
        };
        let t = kernel_time_s(1.0, &c, &occ(10), &spec);
        let bw_floor = 1e11 / (spec.peak_bw_bytes_per_s() * spec.bw_efficiency);
        assert!(t >= bw_floor);
    }

    #[test]
    fn launch_overhead_is_a_floor_for_empty_launches() {
        let spec = DeviceSpec::radeon_vii();
        let t = kernel_time_s(0.0, &AccessCounters::ZERO, &occ(10), &spec);
        assert!((t - spec.launch_overhead_s).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let spec = DeviceSpec::mi100();
        let small = transfer_time_s(1, &spec);
        let big = transfer_time_s(1 << 30, &spec);
        assert!(big > small * 100.0);
        assert!(small >= spec.transfer_overhead_s);
    }

    #[test]
    fn faster_device_is_faster_at_equal_work() {
        let c = AccessCounters::ZERO;
        let rvii = kernel_time_s(1e9, &c, &occ(10), &DeviceSpec::radeon_vii());
        let mi100 = kernel_time_s(1e9, &c, &occ(10), &DeviceSpec::mi100());
        assert!(
            mi100 < rvii,
            "MI100 has 2x the CUs and must beat Radeon VII on pure compute"
        );
    }
}
