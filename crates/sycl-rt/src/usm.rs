//! Unified shared memory (USM).
//!
//! §III.A of the paper: "Two abstractions are commonly used for managing
//! memory in SYCL: unified shared memory and buffer. The former is a
//! pointer-based approach that allows for easier integration with existing
//! C/C++ programs." The paper's migration uses buffers, and so do the
//! application's pipelines; this module models the USM alternative at the
//! runtime level, where its own tests exercise it.
//!
//! * [`Queue::malloc_device`] — device-resident allocation, reachable from
//!   kernels only; moved explicitly with [`Queue::memcpy_to_device`] /
//!   [`Queue::memcpy_to_host`].
//! * [`Queue::malloc_shared`] — migrating allocation, accessible from host
//!   code and kernels; host access is charged a migration transfer the
//!   first time after a kernel used it.
//!
//! USM allocations are freed when dropped (like a unique pointer), or
//! explicitly with [`UsmPtr::free`], matching `sycl::free`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gpu_sim::{timing, DeviceBuffer, Scalar};

use crate::error::{SyclException, SyclResult};
use crate::event::SyclEvent;
use crate::queue::Queue;
use crate::steps::Step;

/// The USM allocation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UsmKind {
    /// `sycl::malloc_device`: device-only memory.
    Device,
    /// `sycl::malloc_shared`: migrates between host and device on demand.
    Shared,
}

struct UsmState {
    /// Shared allocations: whether the freshest copy is on the device.
    device_dirty: AtomicBool,
}

/// A typed USM allocation — the Rust-safe stand-in for the raw pointer
/// `sycl::malloc_*` returns.
///
/// # Examples
///
/// ```
/// use sycl_rt::{GpuSelector, Queue};
///
/// let queue = Queue::new(&GpuSelector::new())?;
/// let ptr = queue.malloc_device::<u32>(16)?;
/// queue.memcpy_to_device(&ptr, &[7u32; 16])?;
/// let mut back = [0u32; 16];
/// queue.memcpy_to_host(&mut back, &ptr)?;
/// assert_eq!(back, [7u32; 16]);
/// # Ok::<(), sycl_rt::SyclException>(())
/// ```
pub struct UsmPtr<T: Scalar> {
    dev: DeviceBuffer<T>,
    kind: UsmKind,
    state: Arc<UsmState>,
}

impl<T: Scalar> fmt::Debug for UsmPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UsmPtr")
            .field("len", &self.dev.len())
            .field("kind", &self.kind)
            .finish()
    }
}

impl<T: Scalar> UsmPtr<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.dev.len()
    }

    /// True when the allocation holds no elements.
    pub fn is_empty(&self) -> bool {
        self.dev.is_empty()
    }

    /// The allocation kind.
    pub fn kind(&self) -> UsmKind {
        self.kind
    }

    /// The underlying simulator buffer, for capturing in kernels — the
    /// analogue of passing the raw USM pointer to a kernel.
    pub fn raw(&self) -> DeviceBuffer<T> {
        self.dev.clone()
    }

    /// Explicitly free the allocation (`sycl::free`). Dropping has the same
    /// effect; this form exists for call sites mirroring SYCL code.
    pub fn free(self) {}

    /// Mark a *shared* allocation as modified by device work, so the next
    /// host access pays the page-migration transfer. Real shared USM tracks
    /// this through page faults; the simulator cannot observe kernel writes
    /// through the raw handle, so the application flags them.
    pub fn mark_device_dirty(&self) {
        self.state.device_dirty.store(true, Ordering::Release);
    }
}

impl Queue {
    /// Allocate `len` elements of device USM (`sycl::malloc_device`).
    ///
    /// # Errors
    ///
    /// Returns a runtime exception when the device is out of memory.
    pub fn malloc_device<T: Scalar>(&self, len: usize) -> SyclResult<UsmPtr<T>> {
        self.step_log().record(Step::Buffer);
        Ok(UsmPtr {
            dev: self.device().alloc::<T>(len)?,
            kind: UsmKind::Device,
            state: Arc::new(UsmState {
                device_dirty: AtomicBool::new(false),
            }),
        })
    }

    /// Allocate `len` elements of shared USM (`sycl::malloc_shared`).
    ///
    /// # Errors
    ///
    /// Returns a runtime exception when the device is out of memory.
    pub fn malloc_shared<T: Scalar>(&self, len: usize) -> SyclResult<UsmPtr<T>> {
        self.step_log().record(Step::Buffer);
        Ok(UsmPtr {
            dev: self.device().alloc::<T>(len)?,
            kind: UsmKind::Shared,
            state: Arc::new(UsmState {
                device_dirty: AtomicBool::new(false),
            }),
        })
    }

    /// Copy host data into a USM allocation (`queue.memcpy(dst, src, n)`).
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] when `src` exceeds the allocation.
    pub fn memcpy_to_device<T: Scalar>(&self, dst: &UsmPtr<T>, src: &[T]) -> SyclResult<SyclEvent> {
        if src.len() > dst.len() {
            return Err(SyclException::Invalid {
                reason: format!(
                    "memcpy source of {} elements exceeds allocation of {}",
                    src.len(),
                    dst.len()
                ),
            });
        }
        dst.dev
            .write_from_host(0, src)
            .map_err(SyclException::Runtime)?;
        self.step_log().record(Step::AccessorTransfer);
        let dur = timing::transfer_time_s(std::mem::size_of_val(src) as u64, self.device().spec());
        let (start, end) = self.advance_clock(dur);
        Ok(SyclEvent::new(
            start,
            end,
            Vec::new(),
            self.step_log().clone(),
        ))
    }

    /// Copy a USM allocation back to host memory.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] when `dst` exceeds the allocation.
    pub fn memcpy_to_host<T: Scalar>(
        &self,
        dst: &mut [T],
        src: &UsmPtr<T>,
    ) -> SyclResult<SyclEvent> {
        if dst.len() > src.len() {
            return Err(SyclException::Invalid {
                reason: format!(
                    "memcpy destination of {} elements exceeds allocation of {}",
                    dst.len(),
                    src.len()
                ),
            });
        }
        src.dev
            .read_to_host(0, dst)
            .map_err(SyclException::Runtime)?;
        self.step_log().record(Step::AccessorTransfer);
        let dur = timing::transfer_time_s(std::mem::size_of_val(dst) as u64, self.device().spec());
        let (start, end) = self.advance_clock(dur);
        Ok(SyclEvent::new(
            start,
            end,
            Vec::new(),
            self.step_log().clone(),
        ))
    }

    /// Host-side read of a *shared* allocation. The first host access after
    /// device work migrates the pages back (charged on the queue clock),
    /// exactly like demand-paged shared USM.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] for device-kind allocations —
    /// dereferencing device USM on the host is undefined in SYCL, so the
    /// simulator refuses it.
    pub fn host_read<T: Scalar>(&self, ptr: &UsmPtr<T>) -> SyclResult<Vec<T>> {
        if ptr.kind != UsmKind::Shared {
            return Err(SyclException::Invalid {
                reason: "host access to device USM allocation".to_owned(),
            });
        }
        if ptr.state.device_dirty.swap(false, Ordering::AcqRel) {
            let dur = timing::transfer_time_s(ptr.dev.byte_len(), self.device().spec());
            self.advance_clock(dur);
        }
        Ok(ptr.dev.to_vec())
    }

    /// Host-side write of a *shared* allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] for device-kind allocations or
    /// out-of-range writes.
    pub fn host_write<T: Scalar>(
        &self,
        ptr: &UsmPtr<T>,
        offset: usize,
        data: &[T],
    ) -> SyclResult<()> {
        if ptr.kind != UsmKind::Shared {
            return Err(SyclException::Invalid {
                reason: "host access to device USM allocation".to_owned(),
            });
        }
        ptr.dev
            .write_from_host(offset, data)
            .map_err(SyclException::Runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::GpuSelector;
    use gpu_sim::NdRange;

    fn queue() -> Queue {
        Queue::new(&GpuSelector::named("MI100")).unwrap()
    }

    #[test]
    fn device_usm_roundtrip_charges_the_clock() {
        let q = queue();
        let ptr = q.malloc_device::<u64>(128).unwrap();
        assert_eq!(ptr.len(), 128);
        assert_eq!(ptr.kind(), UsmKind::Device);
        let before = q.elapsed_s();
        q.memcpy_to_device(&ptr, &[3u64; 128]).unwrap();
        let mut back = [0u64; 128];
        q.memcpy_to_host(&mut back, &ptr).unwrap();
        assert_eq!(back, [3u64; 128]);
        assert!(q.elapsed_s() > before);
    }

    #[test]
    fn memcpy_bounds_are_validated() {
        let q = queue();
        let ptr = q.malloc_device::<u8>(4).unwrap();
        assert!(q.memcpy_to_device(&ptr, &[0u8; 5]).is_err());
        let mut big = [0u8; 5];
        assert!(q.memcpy_to_host(&mut big, &ptr).is_err());
    }

    #[test]
    fn host_access_to_device_usm_is_refused() {
        let q = queue();
        let ptr = q.malloc_device::<u8>(4).unwrap();
        assert!(matches!(
            q.host_read(&ptr),
            Err(SyclException::Invalid { .. })
        ));
        assert!(q.host_write(&ptr, 0, &[1]).is_err());
    }

    #[test]
    fn shared_usm_is_host_accessible_and_migrates_once() {
        let q = queue();
        let ptr = q.malloc_shared::<u32>(8).unwrap();
        q.host_write(&ptr, 0, &[9u32; 8]).unwrap();

        // A kernel writes through the raw pointer.
        q.submit(|h| {
            let raw = ptr.raw();
            h.parallel_for_fn("inc", NdRange::linear(8, 8), move |item| {
                let i = item.global_id(0);
                let v = raw.load(item, i);
                raw.store(item, i, v + 1);
            })
        })
        .unwrap();
        ptr.mark_device_dirty();

        let t0 = q.elapsed_s();
        assert_eq!(q.host_read(&ptr).unwrap(), vec![10u32; 8]);
        let t1 = q.elapsed_s();
        assert!(t1 > t0, "first host read after device work migrates");
        assert_eq!(q.host_read(&ptr).unwrap(), vec![10u32; 8]);
        assert_eq!(q.elapsed_s(), t1, "second read is free");
    }

    #[test]
    fn allocations_release_on_drop_and_free() {
        let q = queue();
        let used0 = q.device().mem_used();
        let a = q.malloc_device::<u64>(100).unwrap();
        let b = q.malloc_shared::<u64>(100).unwrap();
        assert_eq!(q.device().mem_used(), used0 + 1600);
        a.free();
        drop(b);
        assert_eq!(q.device().mem_used(), used0);
    }
}
