//! Device memory: typed global/constant buffers with access counting.
//!
//! Global memory is modelled as one atomic word per element, as wide as the
//! element ([`crate::atomic`]): a `u8` buffer is one `AtomicU8` per byte, an
//! `f64` buffer one `AtomicU64` per element. Work-groups execute on
//! different host threads, and — exactly like on real hardware — plain loads
//! and stores between work-groups have relaxed semantics, while cross-group
//! coordination must use the atomic read-modify-write operations. No
//! `unsafe` code is required.

use std::fmt;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::atomic::{AtomicCell, Word};
use crate::error::{SimError, SimResult};
use crate::item::ItemCtx;
use crate::traffic::TrafficCounters;

/// Marker trait for element types storable in device memory.
///
/// This trait is sealed: it is implemented for the fixed-width integer and
/// floating-point primitives and cannot be implemented outside this crate.
pub trait Scalar: private::Sealed + Copy + Send + Sync + Default + fmt::Debug + 'static {
    /// Size of the element in bytes.
    const BYTES: u64;
    /// The atomic word of the element's own width that stores it.
    #[doc(hidden)]
    type Word: Word;
    /// The element's bit pattern at its own width.
    #[doc(hidden)]
    fn to_word(self) -> <Self::Word as Word>::Bits;
    /// Recover an element from [`Scalar::to_word`] output.
    #[doc(hidden)]
    fn from_word(bits: <Self::Word as Word>::Bits) -> Self;
}

/// Integer scalars that additionally support device-scope atomic
/// read-modify-write operations (OpenCL `atomic_inc`/`atomic_add`, SYCL
/// `atomic_ref::fetch_add`).
pub trait AtomicScalar: Scalar {
    /// Wrapping addition, as device atomics behave on overflow.
    #[doc(hidden)]
    fn wrapping_add(self, v: Self) -> Self;
    /// The value one.
    #[doc(hidden)]
    fn one() -> Self;
}

mod private {
    pub trait Sealed {}
}

macro_rules! impl_int_scalar {
    ($($t:ty => $word:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Scalar for $t {
            const BYTES: u64 = std::mem::size_of::<$t>() as u64;
            type Word = $word;
            #[inline]
            fn to_word(self) -> <$word as Word>::Bits {
                self as _
            }
            #[inline]
            fn from_word(bits: <$word as Word>::Bits) -> Self {
                bits as $t
            }
        }
        impl AtomicScalar for $t {
            #[inline]
            fn wrapping_add(self, v: Self) -> Self {
                <$t>::wrapping_add(self, v)
            }
            fn one() -> Self {
                1
            }
        }
    )*};
}

impl_int_scalar!(
    u8 => AtomicU8, i8 => AtomicU8, u16 => AtomicU16, i16 => AtomicU16,
    u32 => AtomicU32, i32 => AtomicU32, u64 => AtomicU64, i64 => AtomicU64
);

macro_rules! impl_float_scalar {
    ($($t:ty => $word:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Scalar for $t {
            const BYTES: u64 = std::mem::size_of::<$t>() as u64;
            type Word = $word;
            #[inline]
            fn to_word(self) -> <$word as Word>::Bits {
                <$t>::to_bits(self)
            }
            #[inline]
            fn from_word(bits: <$word as Word>::Bits) -> Self {
                <$t>::from_bits(bits)
            }
        }
    )*};
}

impl_float_scalar!(f32 => AtomicU32, f64 => AtomicU64);

/// The address space a buffer lives in (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressSpace {
    /// Device global memory: read/write, visible to all work-items.
    Global,
    /// Constant memory: read-only from kernels, broadcast-cached, so loads
    /// are counted (and priced) separately from global loads.
    Constant,
}

/// Tracks allocated bytes against the device's global-memory capacity.
#[derive(Debug)]
pub(crate) struct AllocationTracker {
    capacity: u64,
    used: AtomicU64,
}

impl AllocationTracker {
    pub(crate) fn new(capacity: u64) -> Self {
        AllocationTracker {
            capacity,
            used: AtomicU64::new(0),
        }
    }

    pub(crate) fn try_alloc(&self, bytes: u64) -> SimResult<()> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let available = self.capacity - cur;
            if bytes > available {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available,
                });
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }

    pub(crate) fn release(&self, bytes: u64) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub(crate) fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

struct Storage<T: Scalar> {
    cells: Box<[AtomicCell<T>]>,
    bytes: u64,
    tracker: Arc<AllocationTracker>,
    traffic: Arc<TrafficCounters>,
}

impl<T: Scalar> Drop for Storage<T> {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
    }
}

/// A typed buffer in simulated device memory.
///
/// Buffers are allocated through [`Device::alloc`](crate::Device::alloc) (or
/// `alloc_constant`, `alloc_from_slice`, ...). Cloning a buffer is cheap and
/// yields a handle to the same device storage — this is how kernels capture
/// buffers, mirroring how OpenCL kernel arguments and SYCL accessors alias
/// one underlying allocation. Storage is returned to the device when the last
/// handle is dropped, which is exactly the SYCL buffer-destruction rule the
/// paper describes in §III.A (and the `clReleaseMemObject` path in OpenCL).
///
/// Host-side transfers use [`write_from_host`](Self::write_from_host) /
/// [`read_to_host`](Self::read_to_host); kernel-side accesses use
/// [`load`](Self::load) / [`store`](Self::store) and are counted against the
/// issuing work-item.
///
/// # Examples
///
/// ```
/// use gpu_sim::{Device, DeviceSpec};
///
/// let device = Device::new(DeviceSpec::mi60());
/// let buf = device.alloc_from_slice(&[1u32, 2, 3])?;
/// assert_eq!(buf.to_vec(), vec![1, 2, 3]);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
pub struct DeviceBuffer<T: Scalar> {
    storage: Arc<Storage<T>>,
    space: AddressSpace,
}

impl<T: Scalar> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        DeviceBuffer {
            storage: Arc::clone(&self.storage),
            space: self.space,
        }
    }
}

impl<T: Scalar> fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.len())
            .field("space", &self.space)
            .field("elem_bytes", &T::BYTES)
            .finish()
    }
}

impl<T: Scalar> DeviceBuffer<T> {
    pub(crate) fn allocate(
        tracker: Arc<AllocationTracker>,
        traffic: Arc<TrafficCounters>,
        len: usize,
        space: AddressSpace,
    ) -> SimResult<Self> {
        // A byte size past `u64::MAX` saturates, which no device holds, so
        // the capacity check refuses it before any cell is built.
        let bytes = (len as u64).saturating_mul(T::BYTES);
        tracker.try_alloc(bytes)?;
        let cells: Box<[AtomicCell<T>]> = (0..len).map(|_| AtomicCell::new(T::default())).collect();
        Ok(DeviceBuffer {
            storage: Arc::new(Storage {
                cells,
                bytes,
                tracker,
                traffic,
            }),
            space,
        })
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.storage.cells.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.storage.cells.is_empty()
    }

    /// Size of the buffer in bytes.
    pub fn byte_len(&self) -> u64 {
        self.storage.bytes
    }

    /// The address space this buffer was allocated in.
    pub fn space(&self) -> AddressSpace {
        self.space
    }

    fn check_region(&self, offset: usize, len: usize) -> SimResult<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(SimError::InvalidRegion {
                offset,
                len,
                buffer_len: self.len(),
            });
        }
        Ok(())
    }

    /// Copy `data` into the buffer starting at element `offset`
    /// (host -> device; the `clEnqueueWriteBuffer` / handler-`copy` path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRegion`] if the region exceeds the buffer.
    pub fn write_from_host(&self, offset: usize, data: &[T]) -> SimResult<()> {
        self.check_region(offset, data.len())?;
        self.storage
            .traffic
            .record_h2d(data.len() as u64 * T::BYTES);
        for (cell, &v) in self.storage.cells[offset..offset + data.len()]
            .iter()
            .zip(data)
        {
            cell.store(v);
        }
        Ok(())
    }

    /// Copy buffer contents starting at element `offset` into `out`
    /// (device -> host; the `clEnqueueReadBuffer` / handler-`copy` path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRegion`] if the region exceeds the buffer.
    pub fn read_to_host(&self, offset: usize, out: &mut [T]) -> SimResult<()> {
        let len = out.len();
        self.check_region(offset, len)?;
        self.storage.traffic.record_d2h(len as u64 * T::BYTES);
        for (v, cell) in out
            .iter_mut()
            .zip(&self.storage.cells[offset..offset + len])
        {
            *v = cell.load();
        }
        Ok(())
    }

    /// Read the entire buffer into a freshly allocated `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.storage.traffic.record_d2h(self.storage.bytes);
        self.snapshot()
    }

    /// Copy the buffer's contents without recording a transfer or a kernel
    /// access. This is the simulator reading on a kernel's behalf — say, to
    /// decode a launch's tables once instead of walking them per work-item
    /// — and the kernel still charges every access it models (see
    /// [`LocalMem::charge_loads`](crate::LocalMem::charge_loads)). A real
    /// device-to-host copy is [`to_vec`](Self::to_vec) or
    /// [`read_to_host`](Self::read_to_host).
    pub fn snapshot(&self) -> Vec<T> {
        self.storage.cells.iter().map(|c| c.load()).collect()
    }

    /// Set every element to `v`.
    pub fn fill(&self, v: T) {
        for cell in self.storage.cells.iter() {
            cell.store(v);
        }
    }

    /// Kernel-side load of element `i`, counted against `item`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds — an out-of-bounds device access is
    /// undefined behaviour on real hardware, and the simulator refuses to
    /// emulate it silently.
    #[inline]
    pub fn load(&self, item: &mut ItemCtx, i: usize) -> T {
        match self.space {
            AddressSpace::Global => item.count_global_load(T::BYTES),
            AddressSpace::Constant => item.count_constant_load(),
        }
        self.cell(i).load()
    }

    /// Kernel-side load of element `i` that is known to hit the cache —
    /// a re-read of an address this work-item already loaded, such as the
    /// compiler-emitted reloads of `loci[i]` in the paper's unoptimized
    /// comparer. Counted (and priced) as a cached load; the bytes do not
    /// consume HBM bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn load_cached(&self, item: &mut ItemCtx, i: usize) -> T {
        match self.space {
            AddressSpace::Global => item.count_global_cached_load(),
            AddressSpace::Constant => item.count_constant_load(),
        }
        self.cell(i).load()
    }

    /// Kernel-side load of element `i` that is part of a fully coalesced
    /// streaming access — lane `i` of the wavefront reads address
    /// `base + i`, so one memory transaction serves all 64 lanes (the
    /// finder's sequential reference reads). Priced far below a scattered
    /// load; the bytes still count toward bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn load_coalesced(&self, item: &mut ItemCtx, i: usize) -> T {
        match self.space {
            AddressSpace::Global => item.count_global_coalesced_load(T::BYTES),
            AddressSpace::Constant => item.count_constant_load(),
        }
        self.cell(i).load()
    }

    /// Kernel-side store of `v` to element `i`, counted against `item`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, or if the buffer lives in constant
    /// memory (constant memory is read-only from kernels).
    #[inline]
    pub fn store(&self, item: &mut ItemCtx, i: usize, v: T) {
        assert!(
            self.space == AddressSpace::Global,
            "kernel store to read-only constant buffer"
        );
        item.count_global_store(T::BYTES);
        self.cell(i).store(v);
    }

    /// Kernel-side store of `v` to element `i` that is part of a fully
    /// coalesced streaming write — lane `i` of the wavefront writes address
    /// `base + i`, so one write transaction serves all 64 lanes (the packed
    /// finder's on-device chunk decode). Priced lockstep like a coalesced
    /// load; the bytes still count toward bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, or if the buffer lives in constant
    /// memory (constant memory is read-only from kernels).
    #[inline]
    pub fn store_coalesced(&self, item: &mut ItemCtx, i: usize, v: T) {
        assert!(
            self.space == AddressSpace::Global,
            "kernel store to read-only constant buffer"
        );
        item.count_global_coalesced_store(T::BYTES);
        self.cell(i).store(v);
    }

    #[inline]
    fn cell(&self, i: usize) -> &AtomicCell<T> {
        match self.storage.cells.get(i) {
            Some(c) => c,
            None => panic!(
                "device buffer access out of bounds: index {i}, length {}",
                self.len()
            ),
        }
    }
}

impl<T: AtomicScalar> DeviceBuffer<T> {
    /// Device-scope atomic add, returning the previous value
    /// (SYCL `atomic_ref::fetch_add`, OpenCL `atomic_add`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or the buffer is in constant memory.
    #[inline]
    pub fn atomic_add(&self, item: &mut ItemCtx, i: usize, v: T) -> T {
        assert!(
            self.space == AddressSpace::Global,
            "atomic operation on read-only constant buffer"
        );
        item.count_atomic(T::BYTES);
        self.cell(i).fetch_add(v)
    }

    /// Atomic increment, returning the previous value — the paper's
    /// `atomic_inc` wrapper (Table V).
    #[inline]
    pub fn atomic_inc(&self, item: &mut ItemCtx, i: usize) -> T {
        self.atomic_add(item, i, T::one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(cap: u64) -> Arc<AllocationTracker> {
        Arc::new(AllocationTracker::new(cap))
    }

    fn alloc<T: Scalar>(cap: u64, len: usize, space: AddressSpace) -> SimResult<DeviceBuffer<T>> {
        DeviceBuffer::allocate(tracker(cap), Arc::default(), len, space)
    }

    fn item() -> ItemCtx {
        ItemCtx::new([0; 3], [0; 3], [0; 3], [1, 1, 1], [1, 1, 1])
    }

    #[test]
    fn alloc_and_release_accounting() {
        let t = tracker(1024);
        let buf = DeviceBuffer::<u32>::allocate(
            Arc::clone(&t),
            Arc::default(),
            100,
            AddressSpace::Global,
        )
        .unwrap();
        assert_eq!(t.used(), 400);
        let clone = buf.clone();
        drop(buf);
        assert_eq!(t.used(), 400, "clone keeps storage alive");
        drop(clone);
        assert_eq!(t.used(), 0);
    }

    #[test]
    fn alloc_beyond_capacity_fails() {
        let err = alloc::<u64>(64, 9, AddressSpace::Global).unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfMemory {
                requested: 72,
                available: 64
            }
        );
    }

    #[test]
    fn host_roundtrip_with_offset() {
        let buf = alloc::<u16>(1024, 8, AddressSpace::Global).unwrap();
        buf.write_from_host(2, &[7, 8, 9]).unwrap();
        let mut out = [0u16; 4];
        buf.read_to_host(1, &mut out).unwrap();
        assert_eq!(out, [0, 7, 8, 9]);
    }

    #[test]
    fn region_validation() {
        let buf = alloc::<u8>(64, 4, AddressSpace::Global).unwrap();
        let err = buf.write_from_host(3, &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidRegion {
                offset: 3,
                len: 2,
                buffer_len: 4
            }
        );
        let mut out = [0u8; 2];
        assert!(buf.read_to_host(4, &mut out).is_err());
        // offset + len overflowing usize must not wrap around to "valid".
        assert!(buf.write_from_host(usize::MAX, &[1]).is_err());
    }

    #[test]
    fn kernel_loads_and_stores_count() {
        let buf = alloc::<u32>(64, 4, AddressSpace::Global).unwrap();
        let mut it = item();
        buf.store(&mut it, 1, 42);
        assert_eq!(buf.load(&mut it, 1), 42);
        let c = it.counters();
        assert_eq!(c.global_loads, 1);
        assert_eq!(c.global_stores, 1);
        assert_eq!(c.global_load_bytes, 4);
        assert_eq!(c.global_store_bytes, 4);
    }

    #[test]
    fn coalesced_stores_count_in_their_own_class() {
        let buf = alloc::<u32>(64, 4, AddressSpace::Global).unwrap();
        let mut it = item();
        buf.store_coalesced(&mut it, 2, 9);
        assert_eq!(buf.load(&mut it, 2), 9);
        let c = it.counters();
        assert_eq!(c.global_coalesced_stores, 1);
        assert_eq!(c.global_stores, 0, "coalesced stores are not scattered");
        assert_eq!(c.global_store_bytes, 4, "bytes still count for bandwidth");
    }

    #[test]
    fn constant_loads_count_separately() {
        let buf = alloc::<u8>(64, 4, AddressSpace::Constant).unwrap();
        buf.write_from_host(0, &[5, 6, 7, 8]).unwrap();
        let mut it = item();
        assert_eq!(buf.load(&mut it, 2), 7);
        assert_eq!(it.counters().constant_loads, 1);
        assert_eq!(it.counters().global_loads, 0);
    }

    #[test]
    #[should_panic(expected = "read-only constant buffer")]
    fn constant_store_panics() {
        let buf = alloc::<u8>(64, 4, AddressSpace::Constant).unwrap();
        buf.store(&mut item(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_load_panics() {
        let buf = alloc::<u32>(64, 2, AddressSpace::Global).unwrap();
        buf.load(&mut item(), 2);
    }

    #[test]
    fn atomic_inc_returns_old_value() {
        let buf = alloc::<u32>(64, 1, AddressSpace::Global).unwrap();
        let mut it = item();
        assert_eq!(buf.atomic_inc(&mut it, 0), 0);
        assert_eq!(buf.atomic_inc(&mut it, 0), 1);
        assert_eq!(buf.atomic_add(&mut it, 0, 5), 2);
        assert_eq!(buf.to_vec(), vec![7]);
        assert_eq!(it.counters().atomic_ops, 3);
    }

    #[test]
    fn negative_atomic_adds_wrap_at_the_element_width() {
        let mut it = item();
        let b8 = alloc::<i8>(64, 1, AddressSpace::Global).unwrap();
        b8.write_from_host(0, &[-100]).unwrap();
        assert_eq!(b8.atomic_add(&mut it, 0, -100), -100);
        assert_eq!(b8.to_vec(), vec![56], "-200 wraps to 56 in 8 bits");
        assert_eq!(b8.atomic_add(&mut it, 0, -57), 56);
        assert_eq!(b8.to_vec(), vec![-1]);

        let b16 = alloc::<i16>(64, 1, AddressSpace::Global).unwrap();
        b16.write_from_host(0, &[i16::MIN]).unwrap();
        assert_eq!(b16.atomic_add(&mut it, 0, -1), i16::MIN);
        assert_eq!(b16.to_vec(), vec![i16::MAX]);

        let b32 = alloc::<i32>(64, 2, AddressSpace::Global).unwrap();
        b32.write_from_host(0, &[5, i32::MIN + 1]).unwrap();
        assert_eq!(b32.atomic_add(&mut it, 0, -7), 5);
        assert_eq!(b32.atomic_add(&mut it, 1, -2), i32::MIN + 1);
        assert_eq!(
            b32.to_vec(),
            vec![-2, i32::MAX],
            "the neighbour is untouched"
        );
        assert_eq!(it.counters().atomic_ops, 5);
    }

    #[test]
    fn float_bit_patterns_survive_host_and_kernel_paths() {
        let quiet = f32::from_bits(0x7fc0_1234);
        let signalling = f32::from_bits(0xff80_0001);
        let singles = [quiet, signalling, -0.0, f32::NEG_INFINITY];
        let buf = alloc::<f32>(64, singles.len(), AddressSpace::Global).unwrap();
        buf.write_from_host(0, &singles).unwrap();
        let mut it = item();
        for i in 0..singles.len() {
            let v = buf.load(&mut it, i);
            buf.store(&mut it, i, v);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&buf.to_vec()), bits(&singles));

        let payload = f64::from_bits(0x7ff8_dead_beef_0001);
        let doubles = [payload, -0.0, f64::from_bits(1)];
        let buf = alloc::<f64>(64, doubles.len(), AddressSpace::Global).unwrap();
        buf.write_from_host(0, &doubles).unwrap();
        let v = buf.load(&mut it, 0);
        buf.store(&mut it, 2, v);
        let mut out = [0.0f64; 3];
        buf.read_to_host(0, &mut out).unwrap();
        let expect = [payload, -0.0, payload].map(f64::to_bits);
        assert_eq!(out.map(f64::to_bits), expect);
    }

    #[test]
    fn byte_size_overflow_is_out_of_memory() {
        // 2^61 u64s is 2^64 bytes: the product wraps to zero unless checked.
        let err = alloc::<u64>(1 << 40, 1 << 61, AddressSpace::Global).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err:?}");
        let err = alloc::<u32>(1 << 40, usize::MAX, AddressSpace::Constant).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err:?}");
    }

    #[test]
    fn fill_overwrites_everything() {
        let buf = alloc::<i32>(64, 3, AddressSpace::Global).unwrap();
        buf.fill(-1);
        assert_eq!(buf.to_vec(), vec![-1, -1, -1]);
    }

    #[test]
    fn snapshot_reads_without_recording_a_transfer() {
        let traffic = Arc::new(TrafficCounters::default());
        let buf = DeviceBuffer::<u16>::allocate(
            tracker(64),
            Arc::clone(&traffic),
            3,
            AddressSpace::Global,
        )
        .unwrap();
        buf.write_from_host(0, &[4, 5, 6]).unwrap();
        let before = traffic.snapshot();
        assert_eq!(buf.snapshot(), vec![4, 5, 6]);
        assert_eq!(traffic.snapshot(), before);
        buf.to_vec();
        assert_ne!(traffic.snapshot(), before, "to_vec is a transfer");
    }

    #[test]
    fn buffers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceBuffer<u32>>();
    }
}
