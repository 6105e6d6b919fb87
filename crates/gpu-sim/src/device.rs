//! The simulated device.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::error::SimResult;
use crate::executor::{run_launch, ExecMode, LaunchReport};
use crate::isa::{self, CodeModel, ResourceUsage};
use crate::kernel::KernelProgram;
use crate::memory::{AddressSpace, AllocationTracker, DeviceBuffer, Scalar};
use crate::ndrange::NdRange;
use crate::spec::DeviceSpec;
use crate::traffic::{TrafficCounters, TrafficSnapshot};

struct DeviceInner {
    spec: DeviceSpec,
    tracker: Arc<AllocationTracker>,
    traffic: Arc<TrafficCounters>,
    /// Static resources of every code model this device has compiled: a
    /// program is built once and launched many times (`clBuildProgram`,
    /// step 4 of the paper's Table I), not recompiled per launch.
    compiled: Mutex<HashMap<CodeModel, ResourceUsage>>,
}

/// A simulated GPU.
///
/// A `Device` owns a global-memory capacity (allocations are tracked and
/// [`SimError::OutOfMemory`](crate::SimError::OutOfMemory) is reported when
/// exceeded, which is what forces Cas-OFFinder's chunked processing of
/// genomes) and executes [`KernelProgram`]s over [`NdRange`]s. Cloning a
/// `Device` yields another handle to the same device, as when several
/// command queues target one GPU.
///
/// # Examples
///
/// ```
/// use gpu_sim::{Device, DeviceSpec};
///
/// let device = Device::new(DeviceSpec::radeon_vii());
/// let buf = device.alloc::<u32>(1024)?;
/// assert_eq!(device.mem_used(), 4096);
/// drop(buf);
/// assert_eq!(device.mem_used(), 0);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.spec.name)
            .field("mem_used", &self.mem_used())
            .finish()
    }
}

impl Device {
    /// Create a device. Its launches run work-groups in order on the
    /// calling thread, so they are fully deterministic, including the order
    /// of atomic output compaction.
    pub fn new(spec: DeviceSpec) -> Self {
        let tracker = Arc::new(AllocationTracker::new(spec.global_mem_bytes));
        Device {
            inner: Arc::new(DeviceInner {
                spec,
                tracker,
                traffic: Arc::default(),
                compiled: Mutex::default(),
            }),
        }
    }

    /// Same as [`Device::new`]. Kept only for perfbench's call sites; the
    /// benchmark change of ROADMAP item 1 deletes it.
    pub fn with_mode(spec: DeviceSpec, _mode: ExecMode) -> Self {
        Self::new(spec)
    }

    /// The device's static specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }

    /// Bytes of device global memory currently allocated.
    pub fn mem_used(&self) -> u64 {
        self.inner.tracker.used()
    }

    /// Bytes of device global memory still available.
    pub fn mem_available(&self) -> u64 {
        self.inner.spec.global_mem_bytes - self.mem_used()
    }

    /// A point-in-time copy of this device's cumulative transfer and launch
    /// counters. All clones of the device (and all buffers allocated from
    /// it) feed the same tallies.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.inner.traffic.snapshot()
    }

    /// Record a host-to-device copy that was avoided because the payload was
    /// already resident on this device (see
    /// [`TrafficCounters::record_h2d_skipped`]).
    pub fn record_h2d_skipped(&self, bytes: u64) {
        self.inner.traffic.record_h2d_skipped(bytes);
    }

    /// Record a kernel launch that was avoided because its output was
    /// already known (see [`TrafficCounters::record_launch_skipped`]).
    pub fn record_launch_skipped(&self) {
        self.inner.traffic.record_launch_skipped();
    }

    /// Allocate a zero-initialized global-memory buffer of `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`](crate::SimError::OutOfMemory) when
    /// the device capacity would be exceeded.
    pub fn alloc<T: Scalar>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        DeviceBuffer::allocate(
            Arc::clone(&self.inner.tracker),
            Arc::clone(&self.inner.traffic),
            len,
            AddressSpace::Global,
        )
    }

    /// Allocate a global buffer initialized from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`](crate::SimError::OutOfMemory) when
    /// the device capacity would be exceeded.
    pub fn alloc_from_slice<T: Scalar>(&self, data: &[T]) -> SimResult<DeviceBuffer<T>> {
        let buf = self.alloc(data.len())?;
        buf.write_from_host(0, data)
            .expect("freshly allocated buffer must fit its own data");
        Ok(buf)
    }

    /// Allocate a read-only constant-memory buffer of `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`](crate::SimError::OutOfMemory) when
    /// the device capacity would be exceeded.
    pub fn alloc_constant<T: Scalar>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        DeviceBuffer::allocate(
            Arc::clone(&self.inner.tracker),
            Arc::clone(&self.inner.traffic),
            len,
            AddressSpace::Constant,
        )
    }

    /// Allocate a constant buffer initialized from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`](crate::SimError::OutOfMemory) when
    /// the device capacity would be exceeded.
    pub fn alloc_constant_from_slice<T: Scalar>(&self, data: &[T]) -> SimResult<DeviceBuffer<T>> {
        let buf = self.alloc_constant(data.len())?;
        buf.write_from_host(0, data)
            .expect("freshly allocated buffer must fit its own data");
        Ok(buf)
    }

    /// Execute `kernel` over `nd`, blocking until completion, and report the
    /// dynamic counts, static resources, occupancy and simulated time.
    ///
    /// The kernel's [`CodeModel`] is compiled on its first launch on this
    /// device; later launches of the same model reuse those resources.
    ///
    /// # Errors
    ///
    /// Returns an error when the ND-range is malformed or the kernel's local
    /// memory request exceeds the device's per-CU capacity.
    pub fn launch<K: KernelProgram>(&self, kernel: &K, nd: NdRange) -> SimResult<LaunchReport> {
        self.inner.traffic.record_launch();
        let resources = *self
            .inner
            .compiled
            .lock()
            .expect("no launch panics while holding the compile map")
            .entry(kernel.code_model())
            .or_insert_with_key(isa::compile);
        run_launch(&self.inner.spec, kernel, nd, resources)
    }

    /// Number of distinct code models this device has compiled.
    pub fn compiled_models(&self) -> usize {
        self.inner
            .compiled
            .lock()
            .expect("no launch panics while holding the compile map")
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;

    #[test]
    fn clones_share_memory_accounting() {
        let a = Device::new(DeviceSpec::mi60());
        let b = a.clone();
        let buf = a.alloc::<u64>(100).unwrap();
        assert_eq!(b.mem_used(), 800);
        drop(buf);
        assert_eq!(b.mem_used(), 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let spec = DeviceSpec {
            global_mem_bytes: 1024,
            ..DeviceSpec::mi100()
        };
        let d = Device::new(spec);
        let _a = d.alloc::<u8>(1000).unwrap();
        let err = d.alloc::<u8>(100).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!(d.mem_available(), 24);
    }

    #[test]
    fn constant_buffers_are_constant_space() {
        let d = Device::new(DeviceSpec::mi100());
        let c = d.alloc_constant_from_slice(&[1u8, 2, 3]).unwrap();
        assert_eq!(c.space(), crate::memory::AddressSpace::Constant);
        assert_eq!(c.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn debug_shows_name() {
        let d = Device::new(DeviceSpec::radeon_vii());
        assert!(format!("{d:?}").contains("Radeon VII"));
    }

    #[test]
    fn traffic_counts_transfers_and_launches() {
        let d = Device::new(DeviceSpec::mi60());
        let before = d.traffic();
        let buf = d.alloc_from_slice(&[1u32, 2, 3, 4]).unwrap();
        let mut out = [0u32; 2];
        buf.read_to_host(0, &mut out).unwrap();
        let t = d.traffic().since(&before);
        assert_eq!(t.h2d_transfers, 1);
        assert_eq!(t.h2d_bytes, 16);
        assert_eq!(t.d2h_transfers, 1);
        assert_eq!(t.d2h_bytes, 8);
        assert_eq!(t.kernel_launches, 0);
    }
}
