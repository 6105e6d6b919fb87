//! Dynamic access and operation counters.
//!
//! Every memory access and (explicitly annotated) arithmetic operation a
//! kernel performs is counted here. The [timing model](crate::timing)
//! converts these counts, together with the static resource usage from the
//! [pseudo-ISA compiler](crate::isa), into simulated kernel time.

use std::ops::{Add, AddAssign};

/// Counts of dynamic events accumulated while executing a kernel.
///
/// Counters are per-work-item while a kernel runs and are summed across all
/// work-items into the final [`LaunchReport`](crate::executor::LaunchReport).
///
/// # Examples
///
/// ```
/// use gpu_sim::AccessCounters;
///
/// let mut a = AccessCounters::default();
/// a.global_loads = 3;
/// let b = AccessCounters {
///     global_loads: 2,
///     ..AccessCounters::default()
/// };
/// assert_eq!((a + b).global_loads, 5);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessCounters {
    /// Loads from device global memory.
    pub global_loads: u64,
    /// Stores to device global memory.
    pub global_stores: u64,
    /// Bytes loaded from device global memory.
    pub global_load_bytes: u64,
    /// Bytes stored to device global memory.
    pub global_store_bytes: u64,
    /// Loads from constant memory (broadcast, cached).
    pub constant_loads: u64,
    /// Global-memory loads known to hit the L1/L2 cache (re-reads of an
    /// address already loaded by this work-item, e.g. the compiler-emitted
    /// reloads of `loci[i]` in the unoptimized comparer).
    pub global_cached_loads: u64,
    /// Fully coalesced streaming loads: lane `i` reads address `base + i`,
    /// so one transaction serves the wavefront (the finder's reference
    /// reads).
    pub global_coalesced_loads: u64,
    /// Fully coalesced streaming stores: lane `i` writes address `base + i`,
    /// so one write transaction serves the wavefront (the packed finder's
    /// on-device chunk decode).
    pub global_coalesced_stores: u64,
    /// Loads from shared local memory.
    pub local_loads: u64,
    /// Stores to shared local memory.
    pub local_stores: u64,
    /// Device-scope atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Arithmetic/logic operations explicitly annotated by the kernel via
    /// [`ItemCtx::ops`](crate::item::ItemCtx::ops).
    pub arith_ops: u64,
    /// Work-group barriers encountered.
    pub barriers: u64,
}

impl AccessCounters {
    /// A counter set with every field zero.
    pub const ZERO: AccessCounters = AccessCounters {
        global_loads: 0,
        global_stores: 0,
        global_load_bytes: 0,
        global_store_bytes: 0,
        constant_loads: 0,
        global_cached_loads: 0,
        global_coalesced_loads: 0,
        global_coalesced_stores: 0,
        local_loads: 0,
        local_stores: 0,
        atomic_ops: 0,
        arith_ops: 0,
        barriers: 0,
    };

    /// Total number of global-memory transactions (loads + stores + atomics).
    pub fn global_accesses(&self) -> u64 {
        self.global_loads + self.global_stores + self.atomic_ops
    }

    /// Total bytes moved to or from device global memory.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Total number of shared-local-memory transactions.
    pub fn local_accesses(&self) -> u64 {
        self.local_loads + self.local_stores
    }

    /// True when every counter is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        // One OR over every field, with no early exit: the executor asks
        // this of every lane.
        (self.global_loads
            | self.global_stores
            | self.global_load_bytes
            | self.global_store_bytes
            | self.constant_loads
            | self.global_cached_loads
            | self.global_coalesced_loads
            | self.global_coalesced_stores
            | self.local_loads
            | self.local_stores
            | self.atomic_ops
            | self.arith_ops
            | self.barriers)
            == 0
    }
}

impl Add for AccessCounters {
    type Output = AccessCounters;

    fn add(self, rhs: AccessCounters) -> AccessCounters {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for AccessCounters {
    #[inline]
    fn add_assign(&mut self, rhs: AccessCounters) {
        self.global_loads += rhs.global_loads;
        self.global_stores += rhs.global_stores;
        self.global_load_bytes += rhs.global_load_bytes;
        self.global_store_bytes += rhs.global_store_bytes;
        self.constant_loads += rhs.constant_loads;
        self.global_cached_loads += rhs.global_cached_loads;
        self.global_coalesced_loads += rhs.global_coalesced_loads;
        self.global_coalesced_stores += rhs.global_coalesced_stores;
        self.local_loads += rhs.local_loads;
        self.local_stores += rhs.local_stores;
        self.atomic_ops += rhs.atomic_ops;
        self.arith_ops += rhs.arith_ops;
        self.barriers += rhs.barriers;
    }
}

impl std::iter::Sum for AccessCounters {
    fn sum<I: Iterator<Item = AccessCounters>>(iter: I) -> AccessCounters {
        iter.fold(AccessCounters::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> AccessCounters {
        AccessCounters {
            global_loads: n,
            global_stores: 2 * n,
            global_load_bytes: 4 * n,
            global_store_bytes: 8 * n,
            constant_loads: n,
            global_cached_loads: n,
            global_coalesced_loads: n,
            global_coalesced_stores: n,
            local_loads: 3 * n,
            local_stores: n,
            atomic_ops: n,
            arith_ops: 10 * n,
            barriers: n,
        }
    }

    #[test]
    fn zero_is_identity() {
        let a = sample(7);
        assert_eq!(a + AccessCounters::ZERO, a);
        assert!(AccessCounters::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn add_is_fieldwise() {
        let c = sample(1) + sample(2);
        assert_eq!(c, sample(3));
    }

    #[test]
    fn sum_over_iterator() {
        let total: AccessCounters = (1..=4).map(sample).sum();
        assert_eq!(total, sample(10));
    }

    #[test]
    fn aggregates() {
        let a = sample(1);
        assert_eq!(a.global_accesses(), 1 + 2 + 1);
        assert_eq!(a.global_bytes(), 4 + 8);
        assert_eq!(a.local_accesses(), 3 + 1);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(AccessCounters::default(), AccessCounters::ZERO);
    }
}
