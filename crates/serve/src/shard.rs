//! Planned chunk→device placement: partition each assembly's chunk space
//! across the device fleet *up front*, instead of letting placement emerge
//! from LRU residency plus earliest-completion steering.
//!
//! The paper's multi-GPU pipeline splits the genome statically across
//! devices; PR 4's serving path replaced that with emergent affinity, which
//! tops out around 70% resident hits — roughly a third of batches still pay
//! the H2D upload the residency machinery exists to avoid. A [`ShardPlan`]
//! makes placement deterministic again:
//!
//! - **Range partitions, throughput-weighted.** Each registered assembly's
//!   chunk index space `[0, n)` is cut into one contiguous range per
//!   device, sized by the device's calibrated `admission_units_per_s`
//!   (scan positions per second through the measured cost model). Device
//!   `i`'s share of an `n`-chunk assembly is `n · wᵢ / Σw`, apportioned by
//!   largest remainder so the shares are exact integers summing to `n`.
//!   Contiguity is what makes one-pass prefetch possible: a device's
//!   partition of an assembly is a single chunk range, visited in order.
//! - **Consistent-hash fallback.** Chunks of assemblies the plan has never
//!   seen (registered after planning, or indices past the planned count)
//!   fall back to weighted rendezvous hashing over the same weights:
//!   each live device scores `-ln(u(device, assembly, chunk)) / wᵢ` with
//!   `u` a uniform hash in (0,1], and the minimum score owns the chunk.
//!   Ownership is stable under fleet change — removing a device moves
//!   *only* the chunks that device owned, adding one back restores them.
//! - **Minimal migration on recompute.** [`ShardPlan::migrated_from`]
//!   counts exactly the chunks whose owner changed between two plans;
//!   the service migrates those and nothing else when a device joins or
//!   leaves the fleet.
//!
//! The plan is a pure value: building one touches no locks and launches
//! nothing. The scheduler steers each batch to its chunk's planned owner
//! (spilling to earliest-completion only past a calibrated saturation
//! threshold), and workers prefetch their partition's payloads on first
//! touch of an assembly, so a whole-genome scan's completion time is a
//! function of the plan plus the calibrated device models.

use std::collections::HashMap;

use crate::results::{fnv1a64, FNV_OFFSET};

/// A deterministic chunk→device ownership map over a weighted fleet.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-device placement weight (calibrated admission units per second);
    /// `0.0` marks a device out of the fleet — it owns nothing.
    weights: Vec<f64>,
    /// Per registered assembly: cumulative range boundaries, one entry per
    /// device plus the leading zero. Device `i` owns chunk indices
    /// `[cuts[i], cuts[i + 1])`; `cuts[n_devices]` is the chunk count.
    ranges: HashMap<String, Vec<usize>>,
}

impl ShardPlan {
    /// Partition each `(assembly name, chunk count)` in `assemblies` across
    /// `weights.len()` devices, ranges sized proportionally to `weights` by
    /// largest-remainder apportionment. A zero (or negative) weight takes
    /// the device out of the fleet: it owns no range and never wins the
    /// rendezvous fallback.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or no weight is positive.
    pub fn build(weights: &[f64], assemblies: &[(String, usize)]) -> ShardPlan {
        assert!(!weights.is_empty(), "a plan needs at least one device");
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        assert!(total > 0.0, "a plan needs at least one positive weight");
        let ranges = assemblies
            .iter()
            .map(|(name, n)| (name.clone(), cuts(weights, total, *n)))
            .collect();
        ShardPlan {
            weights: weights.to_vec(),
            ranges,
        }
    }

    /// Number of devices the plan spans (including zero-weight ones).
    pub fn device_count(&self) -> usize {
        self.weights.len()
    }

    /// The planned chunk count of `assembly`, if it was registered.
    pub fn chunk_count(&self, assembly: &str) -> Option<usize> {
        self.ranges.get(assembly).map(|c| c[self.weights.len()])
    }

    /// The device owning `chunk` of `assembly`. Registered assemblies
    /// resolve through their range partition; unknown assemblies (and
    /// indices past the registered count) resolve through weighted
    /// rendezvous hashing over the positive-weight devices.
    pub fn owner_of(&self, assembly: &str, chunk: usize) -> usize {
        if let Some(cuts) = self.ranges.get(assembly) {
            if chunk < cuts[self.weights.len()] {
                // partition_point returns how many boundaries are <= chunk;
                // cuts[0] == 0 always is, so the owner is that count - 1.
                return cuts.partition_point(|&c| c <= chunk) - 1;
            }
        }
        self.rendezvous_owner(assembly, chunk)
    }

    /// The contiguous chunk range of `assembly` that `device` owns under
    /// the range partition; `None` for unregistered assemblies (whose
    /// ownership is scattered by the hash fallback) and out-of-fleet
    /// devices.
    pub fn owned_range(&self, device: usize, assembly: &str) -> Option<std::ops::Range<usize>> {
        let cuts = self.ranges.get(assembly)?;
        (device < self.weights.len()).then(|| cuts[device]..cuts[device + 1])
    }

    /// Total registered chunks `device` owns across every registered
    /// assembly — what a scale event is about to move onto (or drain
    /// off) the device, reported alongside each `ScaleEvent`.
    pub fn owned_chunks(&self, device: usize) -> usize {
        if device >= self.weights.len() {
            return 0;
        }
        self.ranges
            .values()
            .map(|cuts| cuts[device + 1] - cuts[device])
            .sum()
    }

    /// How many registered chunks `self` places on a different device than
    /// `old` — the exact set a fleet-change migration must move (counted
    /// over `self`'s registered assemblies and chunk counts).
    pub fn migrated_from(&self, old: &ShardPlan) -> usize {
        self.ranges
            .iter()
            .map(|(name, cuts)| {
                let n = cuts[self.weights.len()];
                (0..n)
                    .filter(|&c| self.owner_of(name, c) != old.owner_of(name, c))
                    .count()
            })
            .sum()
    }

    /// Weighted rendezvous hash: every positive-weight device draws a
    /// deterministic uniform `u ∈ (0, 1]` from `(device, assembly, chunk)`
    /// and scores `-ln(u) / w`; the minimum score wins. Each device's score
    /// depends only on its own identity and weight, so removing a device
    /// reassigns exactly the chunks it owned and changes nothing else.
    fn rendezvous_owner(&self, assembly: &str, chunk: usize) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, &w) in self.weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            let mut h = fnv1a64(FNV_OFFSET, &(i as u64).to_le_bytes());
            h = fnv1a64(h, assembly.as_bytes());
            h = fnv1a64(h, &(chunk as u64).to_le_bytes());
            // Top 53 bits → uniform in [0, 1); nudge off zero so ln is finite.
            let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            let score = -u.ln() / w;
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((i, score));
            }
        }
        best.expect("build() guarantees a positive weight").0
    }
}

/// Cumulative range boundaries for an `n`-chunk assembly: device `i`'s
/// share is `n · wᵢ / total` rounded by largest remainder, so shares are
/// exact integers summing to `n` and a zero-weight device's range is empty.
fn cuts(weights: &[f64], total: f64, n: usize) -> Vec<usize> {
    let exact: Vec<f64> = weights
        .iter()
        .map(|&w| if w > 0.0 { n as f64 * w / total } else { 0.0 })
        .collect();
    let mut share: Vec<usize> = exact.iter().map(|&e| e.floor() as usize).collect();
    let assigned: usize = share.iter().sum();
    // Hand the rounding remainder out by largest fractional part, ties to
    // the lower index; zero-weight devices have fraction 0 and an exact
    // floor, so they can only receive one if every weighted device already
    // has (impossible: remainder < number of weighted devices).
    let mut order: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0.0).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in order.iter().take(n - assigned) {
        share[i] += 1;
    }
    let mut cuts = Vec::with_capacity(weights.len() + 1);
    cuts.push(0);
    let mut acc = 0;
    for s in share {
        acc += s;
        cuts.push(acc);
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(weights: &[f64], n: usize) -> ShardPlan {
        ShardPlan::build(weights, &[("hg".to_string(), n)])
    }

    #[test]
    fn ranges_are_contiguous_exhaustive_and_weight_proportional() {
        let p = plan(&[1.0, 2.0, 1.0], 100);
        let r0 = p.owned_range(0, "hg").unwrap();
        let r1 = p.owned_range(1, "hg").unwrap();
        let r2 = p.owned_range(2, "hg").unwrap();
        assert_eq!(r0.len() + r1.len() + r2.len(), 100);
        assert_eq!(r0.end, r1.start);
        assert_eq!(r1.end, r2.start);
        assert_eq!(r1.len(), 50, "double weight owns half the chunks");
        for c in 0..100 {
            let o = p.owner_of("hg", c);
            assert!(p.owned_range(o, "hg").unwrap().contains(&c));
        }
    }

    #[test]
    fn largest_remainder_apportionment_is_exact() {
        // 7 chunks over weights 1:1:1 cannot split evenly; the remainder
        // goes to the lowest indices and every chunk has exactly one owner.
        let p = plan(&[1.0, 1.0, 1.0], 7);
        let lens: Vec<usize> = (0..3)
            .map(|d| p.owned_range(d, "hg").unwrap().len())
            .collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn zero_weight_devices_own_nothing() {
        let p = plan(&[1.0, 0.0, 1.0], 64);
        assert!(p.owned_range(1, "hg").unwrap().is_empty());
        for c in 0..64 {
            assert_ne!(p.owner_of("hg", c), 1);
            assert_ne!(p.owner_of("unregistered", c), 1, "hash fallback too");
        }
    }

    #[test]
    fn unknown_assemblies_hash_consistently_and_weight_proportionally() {
        let p = plan(&[1.0, 3.0], 1);
        let owners: Vec<usize> = (0..4000).map(|c| p.owner_of("novel", c)).collect();
        assert_eq!(
            owners,
            (0..4000)
                .map(|c| p.owner_of("novel", c))
                .collect::<Vec<_>>()
        );
        let to1 = owners.iter().filter(|&&o| o == 1).count() as f64 / 4000.0;
        assert!(
            (to1 - 0.75).abs() < 0.05,
            "3x weight should own ~75% of hashed chunks, got {to1}"
        );
    }

    #[test]
    fn removing_a_device_migrates_only_its_chunks_under_the_hash_fallback() {
        let full = plan(&[1.0, 1.0, 1.0], 1);
        let without_2 = plan(&[1.0, 1.0, 0.0], 1);
        for c in 0..1000 {
            let before = full.owner_of("novel", c);
            let after = without_2.owner_of("novel", c);
            if before != 2 {
                assert_eq!(before, after, "chunk {c} moved without cause");
            } else {
                assert_ne!(after, 2);
            }
        }
    }

    #[test]
    fn migrated_from_counts_exactly_the_reassigned_chunks() {
        let before = plan(&[1.0, 1.0, 1.0, 1.0], 80);
        let after = plan(&[1.0, 1.0, 1.0, 0.0], 80);
        let moved = after.migrated_from(&before);
        let by_hand = (0..80)
            .filter(|&c| before.owner_of("hg", c) != after.owner_of("hg", c))
            .count();
        assert_eq!(moved, by_hand);
        // Device 3 owned 20 chunks; at least those must move, and the
        // survivors' leading ranges keep their prefix — strictly fewer than
        // everything migrates.
        assert!(moved >= 20);
        assert!(moved < 80);
        assert_eq!(
            after.migrated_from(&after),
            0,
            "identical plans migrate nothing"
        );
    }

    #[test]
    fn chunk_indices_past_the_registered_count_fall_back_to_the_hash() {
        let p = plan(&[1.0, 1.0], 10);
        let in_range = p.owner_of("hg", 9);
        assert!(p.owned_range(in_range, "hg").unwrap().contains(&9));
        // Index 10 is past the plan; it must still resolve, deterministically.
        assert_eq!(p.owner_of("hg", 10), p.owner_of("hg", 10));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_weights_refuse_to_plan() {
        let _ = ShardPlan::build(&[0.0, 0.0], &[]);
    }

    #[test]
    fn owned_chunks_sums_registered_assemblies() {
        let p = ShardPlan::build(&[1.0, 3.0], &[("a".to_string(), 40), ("b".to_string(), 8)]);
        let total: usize = (0..2).map(|d| p.owned_chunks(d)).sum();
        assert_eq!(total, 48, "every registered chunk has one owner");
        assert_eq!(p.owned_chunks(0), 10 + 2);
        assert_eq!(p.owned_chunks(7), 0, "out-of-fleet devices own nothing");
    }
}
