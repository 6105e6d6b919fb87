//! Device specifications.
//!
//! The three presets correspond to Table VII of the paper ("Major
//! specifications of the GPUs"). Micro-architectural constants that the paper
//! does not list (wavefront width, SIMDs per compute unit, memory latency,
//! ...) use public GCN/CDNA figures or values calibrated so the simulator's
//! occupancy and timing models reproduce the paper's observed shapes; see
//! `DESIGN.md` §2.

/// Static description of a simulated GPU device.
///
/// The first block of fields mirrors Table VII of the paper; the second block
/// holds micro-architectural model constants.
///
/// # Examples
///
/// ```
/// use gpu_sim::DeviceSpec;
///
/// let mi100 = DeviceSpec::mi100();
/// assert_eq!(mi100.cores, 7680);
/// assert_eq!(mi100.compute_units(), 120);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"MI100"`.
    pub name: &'static str,
    /// Device global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Core (shader) clock in MHz.
    pub gpu_clock_mhz: u32,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u32,
    /// Number of stream processors ("Cores" in Table VII).
    pub cores: u32,
    /// L2 cache size in bytes.
    pub l2_cache_bytes: u64,
    /// Peak global-memory bandwidth in GB/s.
    pub peak_bw_gbs: u32,

    /// Work-items per wavefront (64 on GCN/CDNA).
    pub wavefront: u32,
    /// SIMD units per compute unit (4 on GCN/CDNA).
    pub simds_per_cu: u32,
    /// Hardware cap on waves resident per SIMD (10 on GCN/CDNA).
    pub max_waves_per_simd: u32,
    /// Vector-register budget per SIMD used by the occupancy model.
    pub vgpr_budget: u32,
    /// Shared local memory per compute unit in bytes (64 KiB).
    pub lds_per_cu_bytes: u64,
    /// Average global-memory access latency in core cycles.
    pub mem_latency_cycles: u32,
    /// Cost of a cache-hitting global re-load (vector L1 hit) in cycles,
    /// charged per transaction (serialized across the wave's lanes).
    pub cached_cost_cycles: u32,
    /// Per-lane cost of a fully coalesced streaming load in cycles (one
    /// transaction feeds the whole wavefront).
    pub coalesced_cost_cycles: u32,
    /// Shared local memory access cost in core cycles.
    pub lds_cost_cycles: u32,
    /// Issue cost of a global memory instruction in cycles.
    pub gmem_issue_cycles: u32,
    /// Cost of one device-scope atomic RMW in cycles.
    pub atomic_cost_cycles: u32,
    /// Cost of a work-group barrier in cycles.
    pub barrier_cost_cycles: u32,
    /// Fixed dispatch/teardown cost per work-group in cycles. This is what
    /// penalizes launching many small groups: the OpenCL runtime's default
    /// 64-wide groups create four times as many groups as the SYCL
    /// application's 256-wide ones (§IV.A of the paper).
    pub group_dispatch_cycles: u32,
    /// Exponent of the latency-hiding utilization curve: effective SIMD
    /// utilization is `(occupancy / max_waves_per_simd) ^ occ_exponent`.
    /// Calibrated to the paper's measured occupancy sensitivity (the
    /// occupancy-10 -> 9 transition of Table X costs ~1.9x in Fig. 2 on
    /// these latency-bound kernels).
    pub occ_exponent: f64,
    /// Effective host<->device interconnect bandwidth in GB/s (PCIe 3.0/4.0 x16).
    pub interconnect_gbs: f64,
    /// Fixed host-side cost of launching one kernel, in seconds.
    pub launch_overhead_s: f64,
    /// Fixed host-side cost of one host<->device transfer command, in seconds.
    pub transfer_overhead_s: f64,
    /// Fraction of peak bandwidth achievable by strided kernel traffic.
    pub bw_efficiency: f64,
}

impl DeviceSpec {
    /// Common GCN/CDNA micro-architecture constants shared by the presets.
    const fn gcn_common(
        name: &'static str,
        mem_gb: u64,
        gpu_clock_mhz: u32,
        mem_clock_mhz: u32,
        cores: u32,
        peak_bw_gbs: u32,
        interconnect_gbs: f64,
    ) -> Self {
        DeviceSpec {
            name,
            global_mem_bytes: mem_gb * 1024 * 1024 * 1024,
            gpu_clock_mhz,
            mem_clock_mhz,
            cores,
            l2_cache_bytes: 8 * 1024 * 1024,
            peak_bw_gbs,
            wavefront: 64,
            simds_per_cu: 4,
            max_waves_per_simd: 10,
            vgpr_budget: 768,
            lds_per_cu_bytes: 64 * 1024,
            mem_latency_cycles: 350,
            cached_cost_cycles: 6,
            coalesced_cost_cycles: 3,
            lds_cost_cycles: 2,
            gmem_issue_cycles: 4,
            atomic_cost_cycles: 24,
            barrier_cost_cycles: 32,
            group_dispatch_cycles: 2000,
            occ_exponent: 6.5,
            interconnect_gbs,
            launch_overhead_s: 0.5e-6,
            transfer_overhead_s: 0.2e-6,
            bw_efficiency: 0.70,
        }
    }

    /// AMD Radeon VII (Vega 20, consumer): 16 GB, 1800 MHz core, 3840 cores,
    /// 1024 GB/s peak bandwidth (Table VII, row "RVII").
    pub const fn radeon_vii() -> Self {
        Self::gcn_common("Radeon VII", 16, 1800, 1000, 3840, 1024, 12.0)
    }

    /// AMD Instinct MI60 (Vega 20, server): 32 GB, 1800 MHz core, 4096 cores,
    /// 1024 GB/s peak bandwidth (Table VII, row "MI60").
    pub const fn mi60() -> Self {
        Self::gcn_common("MI60", 32, 1800, 1000, 4096, 1024, 12.0)
    }

    /// AMD Instinct MI100 (CDNA1): 32 GB, 1502 MHz core, 7680 cores,
    /// 1228 GB/s peak bandwidth (Table VII, row "MI100").
    pub const fn mi100() -> Self {
        Self::gcn_common("MI100", 32, 1502, 1200, 7680, 1228, 16.0)
    }

    /// All three paper devices, in the order used by the paper's tables.
    pub fn paper_devices() -> [DeviceSpec; 3] {
        [Self::radeon_vii(), Self::mi60(), Self::mi100()]
    }

    /// Number of compute units (stream processors / wavefront width).
    pub fn compute_units(&self) -> u32 {
        self.cores / self.wavefront
    }

    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.gpu_clock_mhz as f64 * 1.0e6
    }

    /// Peak global-memory bandwidth in bytes per second.
    pub fn peak_bw_bytes_per_s(&self) -> f64 {
        self.peak_bw_gbs as f64 * 1.0e9
    }

    /// Effective host<->device bandwidth in bytes per second.
    pub fn interconnect_bytes_per_s(&self) -> f64 {
        self.interconnect_gbs * 1.0e9
    }
}

impl Default for DeviceSpec {
    /// Defaults to the MI100, the newest device in the paper's testbed.
    fn default() -> Self {
        Self::mi100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vii_values() {
        let rvii = DeviceSpec::radeon_vii();
        assert_eq!(rvii.global_mem_bytes, 16 << 30);
        assert_eq!(rvii.gpu_clock_mhz, 1800);
        assert_eq!(rvii.mem_clock_mhz, 1000);
        assert_eq!(rvii.cores, 3840);
        assert_eq!(rvii.l2_cache_bytes, 8 << 20);
        assert_eq!(rvii.peak_bw_gbs, 1024);

        let mi60 = DeviceSpec::mi60();
        assert_eq!(mi60.global_mem_bytes, 32 << 30);
        assert_eq!(mi60.cores, 4096);
        assert_eq!(mi60.peak_bw_gbs, 1024);

        let mi100 = DeviceSpec::mi100();
        assert_eq!(mi100.global_mem_bytes, 32 << 30);
        assert_eq!(mi100.gpu_clock_mhz, 1502);
        assert_eq!(mi100.mem_clock_mhz, 1200);
        assert_eq!(mi100.cores, 7680);
        assert_eq!(mi100.peak_bw_gbs, 1228);
    }

    #[test]
    fn compute_unit_counts_match_hardware() {
        assert_eq!(DeviceSpec::radeon_vii().compute_units(), 60);
        assert_eq!(DeviceSpec::mi60().compute_units(), 64);
        assert_eq!(DeviceSpec::mi100().compute_units(), 120);
    }

    #[test]
    fn paper_devices_order() {
        let names: Vec<_> = DeviceSpec::paper_devices().iter().map(|d| d.name).collect();
        assert_eq!(names, ["Radeon VII", "MI60", "MI100"]);
    }

    #[test]
    fn default_is_mi100() {
        assert_eq!(DeviceSpec::default().name, "MI100");
    }

    #[test]
    fn derived_rates() {
        let d = DeviceSpec::mi100();
        assert!((d.clock_hz() - 1.502e9).abs() < 1.0);
        assert!((d.peak_bw_bytes_per_s() - 1.228e12).abs() < 1.0);
    }
}
