//! A std-only atomic cell for device-memory elements.
//!
//! Each [`Scalar`] names an atomic word of its own width (`AtomicU8` for
//! `u8`/`i8`, `AtomicU16`, `AtomicU32` for `u32`/`i32`/`f32`, `AtomicU64`
//! for the 64-bit types), and a cell is exactly one such word holding the
//! element's bit pattern. A buffer of genome bytes therefore occupies one
//! host byte per element. Plain `load`/`store` use relaxed ordering —
//! matching the inter-work-group visibility rules documented on
//! [`crate::memory`] — and `fetch_add` is a compare-exchange loop on the
//! element's own width, which keeps the crate free of `unsafe` code and
//! external dependencies.

use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

use crate::memory::{AtomicScalar, Scalar};

/// An atomic word of one width, holding an element's bit pattern.
///
/// Public only so [`Scalar`] can name it; this module is private, so the
/// trait cannot be named or implemented outside the crate.
pub trait Word: Send + Sync + 'static {
    /// The plain integer of the word's width.
    type Bits: Copy;
    /// A word holding `bits`.
    fn new(bits: Self::Bits) -> Self;
    /// Relaxed load.
    fn get(&self) -> Self::Bits;
    /// Relaxed store.
    fn set(&self, bits: Self::Bits);
    /// Relaxed weak compare-exchange: `Ok(current)` if the word held
    /// `current` and now holds `new`, else `Err` with what it holds.
    fn swap_if(&self, current: Self::Bits, new: Self::Bits) -> Result<Self::Bits, Self::Bits>;
    /// `bits` zero-extended to 64 bits.
    fn widen(bits: Self::Bits) -> u64;
    /// The low bits of `bits`, undoing [`Word::widen`].
    fn narrow(bits: u64) -> Self::Bits;
}

macro_rules! impl_word {
    ($($atomic:ty => $bits:ty),*) => {$(
        impl Word for $atomic {
            type Bits = $bits;
            #[inline]
            fn new(bits: $bits) -> Self {
                <$atomic>::new(bits)
            }
            #[inline]
            fn get(&self) -> $bits {
                self.load(Ordering::Relaxed)
            }
            #[inline]
            fn set(&self, bits: $bits) {
                self.store(bits, Ordering::Relaxed)
            }
            #[inline]
            fn swap_if(&self, current: $bits, new: $bits) -> Result<$bits, $bits> {
                self.compare_exchange_weak(current, new, Ordering::Relaxed, Ordering::Relaxed)
            }
            #[inline]
            fn widen(bits: $bits) -> u64 {
                bits as u64
            }
            #[inline]
            fn narrow(bits: u64) -> $bits {
                bits as $bits
            }
        }
    )*};
}

impl_word!(AtomicU8 => u8, AtomicU16 => u16, AtomicU32 => u32, AtomicU64 => u64);

pub(crate) struct AtomicCell<T: Scalar> {
    word: T::Word,
}

impl<T: Scalar> AtomicCell<T> {
    pub(crate) fn new(v: T) -> Self {
        AtomicCell {
            word: T::Word::new(v.to_word()),
        }
    }

    #[inline]
    pub(crate) fn load(&self) -> T {
        T::from_word(self.word.get())
    }

    #[inline]
    pub(crate) fn store(&self, v: T) {
        self.word.set(v.to_word());
    }
}

impl<T: AtomicScalar> AtomicCell<T> {
    /// Atomically add `v` (wrapping), returning the previous value.
    #[inline]
    pub(crate) fn fetch_add(&self, v: T) -> T {
        let mut cur = self.word.get();
        loop {
            let old = T::from_word(cur);
            match self.word.swap_if(cur, old.wrapping_add(v).to_word()) {
                Ok(_) => return old,
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_as_wide_as_their_elements() {
        use std::mem::size_of;
        assert_eq!(size_of::<AtomicCell<u8>>(), 1);
        assert_eq!(size_of::<AtomicCell<i8>>(), 1);
        assert_eq!(size_of::<AtomicCell<i16>>(), 2);
        assert_eq!(size_of::<AtomicCell<u32>>(), 4);
        assert_eq!(size_of::<AtomicCell<f32>>(), 4);
        assert_eq!(size_of::<AtomicCell<i64>>(), 8);
        assert_eq!(size_of::<AtomicCell<f64>>(), 8);
    }

    #[test]
    fn narrow_integers_roundtrip() {
        let c = AtomicCell::new(-5i8);
        assert_eq!(c.load(), -5);
        c.store(i8::MIN);
        assert_eq!(c.load(), i8::MIN);

        let c = AtomicCell::new(u16::MAX);
        assert_eq!(c.load(), u16::MAX);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::INFINITY] {
            let c = AtomicCell::new(v);
            assert_eq!(c.load().to_bits(), v.to_bits());
        }
        let c = AtomicCell::new(-2.25f64);
        assert_eq!(c.load(), -2.25);
    }

    #[test]
    fn fetch_add_wraps_like_hardware() {
        let c = AtomicCell::new(u8::MAX);
        assert_eq!(c.fetch_add(1), u8::MAX);
        assert_eq!(c.load(), 0);

        let c = AtomicCell::new(10u32);
        assert_eq!(c.fetch_add(5), 10);
        assert_eq!(c.load(), 15);
    }

    #[test]
    fn concurrent_fetch_adds_are_exact() {
        use std::sync::Arc;
        let c = Arc::new(AtomicCell::new(0u32));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.fetch_add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(), 80_000);
    }
}
