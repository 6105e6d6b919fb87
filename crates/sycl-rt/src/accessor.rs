//! Accessors: where and how buffer data is accessed (§III.A, §III.E).

use std::fmt;

use gpu_sim::{AtomicScalar, DeviceBuffer, ItemCtx, Scalar};

/// Access mode of an accessor (`sycl_read`, `sycl_write`,
/// `sycl_read_write` in the paper's shorthand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Kernel reads only.
    Read,
    /// Kernel writes only.
    Write,
    /// Kernel reads and writes.
    ReadWrite,
}

/// A (possibly ranged) view of a [`Buffer`](crate::Buffer) usable inside a
/// kernel or a copy command.
///
/// Accessors are created inside a command group via
/// [`Handler::get_access`](crate::Handler::get_access) /
/// [`get_access_range`](crate::Handler::get_access_range); creating one is
/// what binds the buffer to the queue's device and what expresses the data
/// dependence that in real SYCL drives implicit transfers.
pub struct Accessor<T: Scalar> {
    dev: DeviceBuffer<T>,
    mode: AccessMode,
    offset: usize,
    range: usize,
}

impl<T: Scalar> Clone for Accessor<T> {
    fn clone(&self) -> Self {
        Accessor {
            dev: self.dev.clone(),
            mode: self.mode,
            offset: self.offset,
            range: self.range,
        }
    }
}

impl<T: Scalar> fmt::Debug for Accessor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accessor")
            .field("mode", &self.mode)
            .field("offset", &self.offset)
            .field("range", &self.range)
            .finish()
    }
}

impl<T: Scalar> Accessor<T> {
    pub(crate) fn new(dev: DeviceBuffer<T>, mode: AccessMode, offset: usize, range: usize) -> Self {
        Accessor {
            dev,
            mode,
            offset,
            range,
        }
    }

    /// The accessor's range in elements.
    pub fn len(&self) -> usize {
        self.range
    }

    /// True when the accessor covers no elements.
    pub fn is_empty(&self) -> bool {
        self.range == 0
    }

    /// The accessor's offset into the buffer, in elements.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The access mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    pub(crate) fn device_buffer(&self) -> &DeviceBuffer<T> {
        &self.dev
    }

    /// The underlying simulator buffer, for constructing `gpu_sim` kernel
    /// structs that capture this accessor's data (the analogue of a SYCL
    /// kernel capturing the accessor by value).
    pub fn raw(&self) -> DeviceBuffer<T> {
        self.dev.clone()
    }

    /// Kernel-side load of element `i` (accessor-relative).
    ///
    /// # Panics
    ///
    /// Panics on a write-only accessor or an out-of-range index, as the
    /// SYCL specification makes both undefined.
    #[inline]
    pub fn load(&self, item: &mut ItemCtx, i: usize) -> T {
        assert!(
            self.mode != AccessMode::Write,
            "load through a write-only accessor"
        );
        self.dev.load(item, self.offset + i)
    }

    /// Kernel-side store to element `i` (accessor-relative).
    ///
    /// # Panics
    ///
    /// Panics on a read-only accessor or an out-of-range index.
    #[inline]
    pub fn store(&self, item: &mut ItemCtx, i: usize, v: T) {
        assert!(
            self.mode != AccessMode::Read,
            "store through a read-only accessor"
        );
        self.dev.store(item, self.offset + i, v);
    }
}

impl<T: AtomicScalar> Accessor<T> {
    /// Device-scope atomic add via an `atomic_ref` (Table V of the paper),
    /// returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics on a read-only accessor or an out-of-range index.
    #[inline]
    pub fn atomic_add(&self, item: &mut ItemCtx, i: usize, v: T) -> T {
        assert!(
            self.mode != AccessMode::Read,
            "atomic through a read-only accessor"
        );
        self.dev.atomic_add(item, self.offset + i, v)
    }

    /// The paper's `atomic_inc` wrapper: `fetch_add(1)`.
    #[inline]
    pub fn atomic_inc(&self, item: &mut ItemCtx, i: usize) -> T {
        self.atomic_add(item, i, T::one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, KernelProgram, LocalMem, NdRange};

    #[test]
    fn accessor_geometry() {
        let device = Device::new(DeviceSpec::mi100());
        let dev = device.alloc_from_slice(&[1u32, 2, 3, 4]).unwrap();
        let acc = Accessor::new(dev, AccessMode::Read, 1, 2);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.offset(), 1);
        assert_eq!(acc.mode(), AccessMode::Read);
        assert!(!acc.is_empty());
    }

    /// Kernel that exercises the accessor's load/store/atomic paths with
    /// mode enforcement, offset translation and counting.
    struct Exercise {
        src: Accessor<u32>,
        dst: Accessor<u32>,
        count: Accessor<u32>,
    }

    impl KernelProgram for Exercise {
        type Private = ();
        fn name(&self) -> &str {
            "exercise"
        }
        fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
            let i = item.global_id(0);
            let v = self.src.load(item, i);
            self.dst.store(item, i, v + 10);
            self.count.atomic_inc(item, 0);
        }
    }

    #[test]
    fn kernel_side_access_respects_offsets() {
        let device = Device::new(DeviceSpec::mi100());
        let src_dev = device.alloc_from_slice(&[0u32, 1, 2, 3]).unwrap();
        let dst_dev = device.alloc::<u32>(2).unwrap();
        let cnt_dev = device.alloc::<u32>(1).unwrap();
        let k = Exercise {
            src: Accessor::new(src_dev, AccessMode::Read, 2, 2),
            dst: Accessor::new(dst_dev.clone(), AccessMode::Write, 0, 2),
            count: Accessor::new(cnt_dev.clone(), AccessMode::ReadWrite, 0, 1),
        };
        device.launch(&k, NdRange::linear(2, 2)).unwrap();
        assert_eq!(
            dst_dev.to_vec(),
            vec![12, 13],
            "offset-2 view of the source"
        );
        assert_eq!(cnt_dev.to_vec(), vec![2]);
    }

    /// Kernel that violates the write-only mode; must panic.
    struct BadRead {
        dst: Accessor<u32>,
    }
    impl KernelProgram for BadRead {
        type Private = ();
        fn name(&self) -> &str {
            "bad-read"
        }
        fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
            let _ = self.dst.load(item, 0);
        }
    }

    #[test]
    #[should_panic(expected = "write-only accessor")]
    fn load_through_write_only_accessor_panics() {
        let device = Device::new(DeviceSpec::mi100());
        let dev = device.alloc::<u32>(1).unwrap();
        let k = BadRead {
            dst: Accessor::new(dev, AccessMode::Write, 0, 1),
        };
        let _ = device.launch(&k, NdRange::linear(1, 1));
    }
}
