//! Per-work-item execution context.

use crate::counters::AccessCounters;

/// The execution context handed to a kernel for one work-item.
///
/// It plays the role of OpenCL's `get_global_id`/`get_local_id`/... built-ins
/// and of the SYCL `nd_item` class: it exposes the work-item's coordinates in
/// the ND-range and accumulates the dynamic [`AccessCounters`] used by the
/// timing model. All memory-access methods on device buffers and local memory
/// take `&mut ItemCtx` so accesses are attributed to the issuing work-item.
///
/// # Examples
///
/// ```
/// use gpu_sim::{Device, DeviceSpec, NdRange};
/// use gpu_sim::kernel::{KernelProgram, LocalLayout};
/// use gpu_sim::{ItemCtx, LocalMem};
///
/// struct Ids;
/// impl KernelProgram for Ids {
///     type Private = ();
///     fn name(&self) -> &str {
///         "ids"
///     }
///     fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
///         let gid = item.global_id(0);
///         let expected = item.group(0) * item.local_range(0) + item.local_id(0);
///         assert_eq!(gid, expected);
///     }
/// }
///
/// let device = Device::new(DeviceSpec::mi100());
/// device.launch(&Ids, NdRange::linear(1024, 256))?;
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ItemCtx {
    global_id: [usize; 3],
    local_id: [usize; 3],
    group_id: [usize; 3],
    global_range: [usize; 3],
    local_range: [usize; 3],
    pub(crate) counters: AccessCounters,
}

impl ItemCtx {
    pub(crate) fn new(
        global_id: [usize; 3],
        local_id: [usize; 3],
        group_id: [usize; 3],
        global_range: [usize; 3],
        local_range: [usize; 3],
    ) -> Self {
        ItemCtx {
            global_id,
            local_id,
            group_id,
            global_range,
            local_range,
            counters: AccessCounters::ZERO,
        }
    }

    /// Global index of this work-item in dimension `dim`
    /// (OpenCL `get_global_id`, SYCL `nd_item::get_global_id`).
    pub fn global_id(&self, dim: usize) -> usize {
        self.global_id[dim]
    }

    /// Index of this work-item within its work-group in dimension `dim`
    /// (OpenCL `get_local_id`, SYCL `nd_item::get_local_id`).
    pub fn local_id(&self, dim: usize) -> usize {
        self.local_id[dim]
    }

    /// Index of this work-item's work-group in dimension `dim`
    /// (OpenCL `get_group_id`, SYCL `nd_item::get_group`).
    pub fn group(&self, dim: usize) -> usize {
        self.group_id[dim]
    }

    /// Total ND-range size in dimension `dim` (OpenCL `get_global_size`).
    pub fn global_range(&self, dim: usize) -> usize {
        self.global_range[dim]
    }

    /// Work-group size in dimension `dim`
    /// (OpenCL `get_local_size`, SYCL `nd_item::get_local_range`).
    pub fn local_range(&self, dim: usize) -> usize {
        self.local_range[dim]
    }

    /// Number of work-groups in dimension `dim` (OpenCL `get_num_groups`).
    pub fn group_range(&self, dim: usize) -> usize {
        self.global_range[dim] / self.local_range[dim]
    }

    /// Linearized global id over all dimensions (row-major, dimension 0
    /// fastest), matching SYCL's `get_global_linear_id`.
    pub fn global_linear_id(&self) -> usize {
        (self.global_id[2] * self.global_range[1] + self.global_id[1]) * self.global_range[0]
            + self.global_id[0]
    }

    /// Linearized local id within the work-group.
    pub fn local_linear_id(&self) -> usize {
        (self.local_id[2] * self.local_range[1] + self.local_id[1]) * self.local_range[0]
            + self.local_id[0]
    }

    /// Move to the next work-item of the group in linear order (dimension 0
    /// fastest) and clear the counters for it. The executor walks a group's
    /// lanes this way, so ids advance by increments, with no division.
    #[inline]
    pub(crate) fn next_lane(&mut self) {
        self.counters = AccessCounters::ZERO;
        for d in 0..3 {
            self.local_id[d] += 1;
            self.global_id[d] += 1;
            if self.local_id[d] < self.local_range[d] || d == 2 {
                return;
            }
            self.local_id[d] = 0;
            self.global_id[d] -= self.local_range[d];
        }
    }

    /// Record `n` arithmetic/logic operations for the timing model.
    ///
    /// Kernels call this to annotate compute work that has no memory-access
    /// side channel the simulator could observe (comparisons, address
    /// arithmetic, branches).
    pub fn ops(&mut self, n: u64) {
        self.counters.arith_ops += n;
    }

    /// Snapshot of the counters accumulated by this work-item so far.
    pub fn counters(&self) -> AccessCounters {
        self.counters
    }

    pub(crate) fn count_global_load(&mut self, bytes: u64) {
        self.counters.global_loads += 1;
        self.counters.global_load_bytes += bytes;
    }

    pub(crate) fn count_global_store(&mut self, bytes: u64) {
        self.counters.global_stores += 1;
        self.counters.global_store_bytes += bytes;
    }

    pub(crate) fn count_constant_load(&mut self) {
        self.counters.constant_loads += 1;
    }

    pub(crate) fn count_global_cached_load(&mut self) {
        self.counters.global_cached_loads += 1;
    }

    pub(crate) fn count_global_coalesced_load(&mut self, bytes: u64) {
        self.counters.global_coalesced_loads += 1;
        self.counters.global_load_bytes += bytes;
    }

    pub(crate) fn count_global_coalesced_store(&mut self, bytes: u64) {
        self.counters.global_coalesced_stores += 1;
        self.counters.global_store_bytes += bytes;
    }

    pub(crate) fn count_atomic(&mut self, bytes: u64) {
        self.counters.atomic_ops += 1;
        self.counters.global_load_bytes += bytes;
        self.counters.global_store_bytes += bytes;
    }

    pub(crate) fn count_local_load(&mut self) {
        self.counters.local_loads += 1;
    }

    pub(crate) fn count_local_loads(&mut self, n: u64) {
        self.counters.local_loads += n;
    }

    pub(crate) fn count_local_store(&mut self) {
        self.counters.local_stores += 1;
    }

    pub(crate) fn count_barrier(&mut self) {
        self.counters.barriers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ItemCtx {
        ItemCtx::new([5, 1, 0], [1, 1, 0], [1, 0, 0], [16, 2, 1], [4, 2, 1])
    }

    #[test]
    fn coordinate_queries() {
        let c = ctx();
        assert_eq!(c.global_id(0), 5);
        assert_eq!(c.local_id(0), 1);
        assert_eq!(c.group(0), 1);
        assert_eq!(c.global_range(0), 16);
        assert_eq!(c.local_range(0), 4);
        assert_eq!(c.group_range(0), 4);
        assert_eq!(c.group_range(1), 1);
    }

    #[test]
    fn linear_ids() {
        let c = ctx();
        // global: (0*2 + 1) * 16 + 5 = 21; local: (0*2 + 1) * 4 + 1 = 5
        assert_eq!(c.global_linear_id(), 21);
        assert_eq!(c.local_linear_id(), 5);
    }

    #[test]
    fn next_lane_walks_the_group_dimension_zero_first() {
        // Group (1, 0, 1) of a [4, 2, 2] group over a [8, 2, 4] range.
        let mut c = ItemCtx::new([4, 0, 2], [0; 3], [1, 0, 1], [8, 2, 4], [4, 2, 2]);
        for lane in 0..16 {
            let local = [lane % 4, (lane / 4) % 2, lane / 8];
            assert_eq!(c.local_id, local, "lane {lane}");
            assert_eq!(c.global_id, [4 + local[0], local[1], 2 + local[2]]);
            assert_eq!(c.local_linear_id(), lane);
            c.ops(1);
            c.next_lane();
            assert!(c.counters().is_zero(), "each lane starts from zero counts");
        }
    }

    #[test]
    fn ops_accumulate() {
        let mut c = ctx();
        c.ops(3);
        c.ops(4);
        assert_eq!(c.counters().arith_ops, 7);
    }

    #[test]
    fn counting_helpers() {
        let mut c = ctx();
        c.count_global_load(4);
        c.count_global_store(2);
        c.count_atomic(4);
        c.count_local_load();
        c.count_local_store();
        c.count_constant_load();
        c.count_barrier();
        let k = c.counters();
        assert_eq!(k.global_loads, 1);
        assert_eq!(k.global_stores, 1);
        assert_eq!(k.global_load_bytes, 4 + 4);
        assert_eq!(k.global_store_bytes, 2 + 4);
        assert_eq!(k.atomic_ops, 1);
        assert_eq!(k.local_loads, 1);
        assert_eq!(k.local_stores, 1);
        assert_eq!(k.constant_loads, 1);
        assert_eq!(k.barriers, 1);
    }
}
