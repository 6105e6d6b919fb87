//! Shared local memory (OpenCL `__local`, SYCL local accessors).
//!
//! A kernel declares the local arrays it needs in a [`LocalLayout`]; the
//! executor instantiates one [`LocalMem`] per work-group. Within a group,
//! work-items of one phase run sequentially (see [`crate::executor`]), so
//! local memory needs no interior mutability — races within a group are
//! impossible by construction, and cross-phase visibility is exactly the
//! barrier guarantee of §II.B of the paper.
//!
//! Each array is a plain `Vec<u64>` of element bit patterns beside the
//! `TypeId` of the element type it was declared with. An access compares
//! that id with its handle's type — a constant per call site — so a handle
//! from another layout is still refused, without a dynamic downcast on
//! every access.

use std::any::TypeId;
use std::fmt;
use std::marker::PhantomData;

use crate::atomic::Word;
use crate::item::ItemCtx;
use crate::memory::Scalar;

/// Typed handle to one local array declared in a [`LocalLayout`].
///
/// Handles are `Copy` and are stored inside the kernel struct, mirroring how
/// an OpenCL kernel receives `__local` pointer arguments.
pub struct LocalHandle<T> {
    slot: usize,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for LocalHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for LocalHandle<T> {}

impl<T> fmt::Debug for LocalHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle")
            .field("slot", &self.slot)
            .field("len", &self.len)
            .finish()
    }
}

impl<T> LocalHandle<T> {
    /// Number of elements in the array this handle refers to.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Declaration of the shared-local-memory arrays a kernel needs per group.
///
/// # Examples
///
/// ```
/// use gpu_sim::kernel::LocalLayout;
///
/// let mut layout = LocalLayout::new();
/// let pat = layout.array::<u8>(46);
/// let idx = layout.array::<i32>(46);
/// assert_eq!(pat.len(), 46);
/// assert_eq!(layout.total_bytes(), 46 + 46 * 4);
/// # let _ = idx;
/// ```
#[derive(Default)]
pub struct LocalLayout {
    /// Element type and length of each declared array, in slot order.
    arrays: Vec<(TypeId, usize)>,
    bytes: u64,
}

impl fmt::Debug for LocalLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalLayout")
            .field("slots", &self.arrays.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl LocalLayout {
    /// An empty layout (kernel uses no local memory).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a local array of `len` elements of `T`, returning its handle.
    pub fn array<T: Scalar>(&mut self, len: usize) -> LocalHandle<T> {
        let slot = self.arrays.len();
        self.arrays.push((TypeId::of::<T>(), len));
        // Saturating, so an absurd declaration reads as "too large" at
        // launch instead of wrapping past the device's LDS check.
        self.bytes = self
            .bytes
            .saturating_add((len as u64).saturating_mul(T::BYTES));
        LocalHandle {
            slot,
            len,
            _marker: PhantomData,
        }
    }

    /// Total bytes of local memory the layout occupies per work-group.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of declared arrays.
    pub fn slots(&self) -> usize {
        self.arrays.len()
    }

    pub(crate) fn instantiate(&self) -> LocalMem {
        let slots = self.arrays.iter().map(|&(ty, len)| Slot {
            ty,
            bits: vec![0; len],
        });
        LocalMem {
            slots: slots.collect(),
        }
    }
}

/// One work-group's instantiated shared local memory.
///
/// Access is typed through the [`LocalHandle`]s produced by the layout that
/// created this memory; every access is counted against the issuing
/// work-item.
pub struct LocalMem {
    slots: Vec<Slot>,
}

/// One instantiated local array: its declared element type and the bit
/// patterns of its elements. Every scalar's default is all-zero bits.
struct Slot {
    ty: TypeId,
    bits: Vec<u64>,
}

impl fmt::Debug for LocalMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalMem")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl LocalMem {
    #[inline]
    fn bits<T: Scalar>(&self, h: LocalHandle<T>) -> &[u64] {
        match self.slots.get(h.slot) {
            Some(s) if s.ty == TypeId::of::<T>() => &s.bits,
            _ => foreign_handle(),
        }
    }

    #[inline]
    fn bits_mut<T: Scalar>(&mut self, h: LocalHandle<T>) -> &mut [u64] {
        match self.slots.get_mut(h.slot) {
            Some(s) if s.ty == TypeId::of::<T>() => &mut s.bits,
            _ => foreign_handle(),
        }
    }

    /// Load element `i` of the local array `h`, counted against `item`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `h` was declared by a different
    /// layout.
    #[inline]
    pub fn load<T: Scalar>(&self, item: &mut ItemCtx, h: LocalHandle<T>, i: usize) -> T {
        item.count_local_load();
        T::from_word(T::Word::narrow(self.bits(h)[i]))
    }

    /// Count `n` loads of the local array `h` against `item` without reading
    /// it — for a kernel that derives in closed form what a loop over `h`
    /// would load. Counters are per-work-item totals, so charging in bulk
    /// prices exactly like loading one by one, provided `n` equals the loads
    /// of the loop it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `h` was declared by a different layout.
    #[inline]
    pub fn charge_loads<T: Scalar>(&self, item: &mut ItemCtx, h: LocalHandle<T>, n: u64) {
        let _ = self.bits(h);
        item.count_local_loads(n);
    }

    /// Store `v` to element `i` of the local array `h`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `h` was declared by a different
    /// layout.
    #[inline]
    pub fn store<T: Scalar>(&mut self, item: &mut ItemCtx, h: LocalHandle<T>, i: usize, v: T) {
        item.count_local_store();
        self.bits_mut(h)[i] = T::Word::widen(v.to_word());
    }
}

#[cold]
fn foreign_handle() -> ! {
    panic!("local handle does not belong to this kernel's layout")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> ItemCtx {
        ItemCtx::new([0; 3], [0; 3], [0; 3], [1, 1, 1], [1, 1, 1])
    }

    #[test]
    fn layout_accounting() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(10);
        let b = layout.array::<i32>(5);
        assert_eq!(layout.slots(), 2);
        assert_eq!(layout.total_bytes(), 10 + 20);
        assert_eq!(a.len(), 10);
        assert!(!b.is_empty());
    }

    #[test]
    fn typed_roundtrip_with_counting() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(4);
        let b = layout.array::<i32>(4);
        let mut mem = layout.instantiate();
        let mut it = item();
        mem.store(&mut it, a, 0, 7u8);
        mem.store(&mut it, b, 3, -1i32);
        assert_eq!(mem.load(&mut it, a, 0), 7);
        assert_eq!(mem.load(&mut it, b, 3), -1);
        assert_eq!(mem.load(&mut it, b, 0), 0, "zero-initialized");
        assert_eq!(it.counters().local_stores, 2);
        assert_eq!(it.counters().local_loads, 3);
    }

    #[test]
    fn narrow_and_float_elements_roundtrip_bit_exactly() {
        let mut layout = LocalLayout::new();
        let small = layout.array::<i8>(2);
        let half = layout.array::<i16>(1);
        let single = layout.array::<f32>(3);
        let double = layout.array::<f64>(2);
        let mut mem = layout.instantiate();
        let mut it = item();
        mem.store(&mut it, small, 0, i8::MIN);
        mem.store(&mut it, small, 1, -1);
        mem.store(&mut it, half, 0, -12_345);
        let singles = [
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            -0.0,
        ];
        for (i, &v) in singles.iter().enumerate() {
            mem.store(&mut it, single, i, v);
        }
        let doubles = [f64::from_bits(0xfff8_0000_0000_00ff), -0.0];
        for (i, &v) in doubles.iter().enumerate() {
            mem.store(&mut it, double, i, v);
        }
        assert_eq!(mem.load(&mut it, small, 0), i8::MIN);
        assert_eq!(mem.load(&mut it, small, 1), -1);
        assert_eq!(mem.load(&mut it, half, 0), -12_345);
        for (i, v) in singles.iter().enumerate() {
            assert_eq!(mem.load(&mut it, single, i).to_bits(), v.to_bits());
        }
        for (i, v) in doubles.iter().enumerate() {
            assert_eq!(mem.load(&mut it, double, i).to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn same_width_other_type_handle_panics() {
        // i32 and f32 share a width; the declared type still decides.
        let mut l1 = LocalLayout::new();
        let _a = l1.array::<i32>(4);
        let h_f32 = LocalLayout::new().array::<f32>(4);
        let mut mem = l1.instantiate();
        mem.store(&mut item(), h_f32, 0, 1.0);
    }

    #[test]
    fn each_instantiation_is_fresh() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u32>(1);
        let mut m1 = layout.instantiate();
        let mut it = item();
        m1.store(&mut it, a, 0, 99);
        let m2 = layout.instantiate();
        assert_eq!(m2.load(&mut it, a, 0), 0);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_handle_panics() {
        let mut l1 = LocalLayout::new();
        let _a = l1.array::<u8>(4);
        let h_i32 = {
            let mut l2 = LocalLayout::new();
            l2.array::<i32>(4)
        };
        let mem = l1.instantiate();
        let mut it = item();
        // Slot 0 exists but holds u8s, not i32s.
        mem.load(&mut it, h_i32, 0);
    }

    #[test]
    fn bulk_charged_loads_count_like_loads() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(4);
        let b = layout.array::<i32>(4);
        let mem = layout.instantiate();
        let (mut loaded, mut charged) = (item(), item());
        for i in [0, 1, 3] {
            mem.load(&mut loaded, a, i);
        }
        mem.load(&mut loaded, b, 2);
        mem.charge_loads(&mut charged, a, 3);
        mem.charge_loads(&mut charged, b, 1);
        mem.charge_loads(&mut charged, b, 0);
        assert_eq!(charged.counters(), loaded.counters());
        assert_eq!(charged.counters().local_loads, 4);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn bulk_charge_through_a_foreign_handle_panics() {
        // Slot 0 holds u8s: a same-slot handle of another type is refused.
        let mut l1 = LocalLayout::new();
        let _a = l1.array::<u8>(4);
        let h_i32 = LocalLayout::new().array::<i32>(4);
        l1.instantiate().charge_loads(&mut item(), h_i32, 1);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn bulk_charge_past_the_declared_slots_panics() {
        let mut l2 = LocalLayout::new();
        let _a = l2.array::<u8>(4);
        let h = l2.array::<u8>(4);
        LocalLayout::new()
            .instantiate()
            .charge_loads(&mut item(), h, 1);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn oob_local_access_panics() {
        let mut layout = LocalLayout::new();
        let a = layout.array::<u8>(2);
        let mem = layout.instantiate();
        mem.load(&mut item(), a, 2);
    }
}
