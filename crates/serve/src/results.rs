//! Content-addressed result store with single-flight coalescing.
//!
//! Identical `(assembly, pattern, guide, mismatches, bulge, chunking)`
//! specs produce identical results, so recomputing them wastes every stage
//! of the pipeline: admission budget, batcher work, chunk uploads and
//! kernel launches. The [`ResultStore`] short-circuits all of it. A repeat
//! spec whose results are cached is answered at submit time without ever
//! entering the admission queue; a repeat spec whose first submission is
//! still computing is *merged* onto that in-flight leader (single-flight),
//! so N concurrent identical specs trigger exactly one compute.
//!
//! Keys are the canonical specs themselves, so two submissions share an
//! entry exactly when they are the same work. Finished result sets sit in
//! a byte-budgeted [`Lru`](cas_offinder::lru::Lru); a result set larger
//! than the whole budget passes through uncached.

use std::collections::HashMap;
use std::sync::Mutex;

use cas_offinder::lru::Lru;
use cas_offinder::OffTarget;

use crate::job::{JobId, JobSpec};

/// 64-bit FNV-1a over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`]). Stable across runs — the digest doubles as the
/// scheduler's chunk-residency token, which must be identical for
/// identical work no matter which thread computes it.
pub(crate) fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a offset basis: the seed for [`fnv1a64`] chains.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The fields of a [`JobSpec`] that determine its results, in canonical
/// form — the result store's key. Priority is deliberately excluded — it
/// changes *when* a job runs, never what it returns. The chunk size is
/// included: it does not change the result set either, but keying on it
/// keeps the cache trivially correct if a future revision lets per-service
/// chunking affect result order before canonical sorting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CanonicalSpec {
    assembly: String,
    pattern: Vec<u8>,
    guide: Vec<u8>,
    max_mismatches: u16,
    bulge: Option<(u8, u8)>,
    /// Library-screen guides in **sorted** order: a screen's result set is
    /// the union over its guides, so two submissions listing the same
    /// guides in different orders are the same work and must share one
    /// key. Empty for single-guide jobs.
    library: Vec<Vec<u8>>,
    chunk_size: usize,
}

impl CanonicalSpec {
    /// Canonicalize `spec`.
    pub fn new(spec: &JobSpec, chunk_size: usize) -> CanonicalSpec {
        let mut library = spec.library.clone().unwrap_or_default();
        library.sort_unstable();
        CanonicalSpec {
            assembly: spec.assembly.clone(),
            pattern: spec.pattern.clone(),
            guide: spec.guide.clone(),
            max_mismatches: spec.max_mismatches,
            bulge: spec.bulge.map(|b| (b.max_dna, b.max_rna)),
            library,
            chunk_size,
        }
    }
}

/// Counters of the result store, as exposed by
/// [`MetricsReport`](crate::MetricsReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Submissions answered from the cache without computing.
    pub hits: u64,
    /// Submissions that became compute leaders.
    pub misses: u64,
    /// Submissions merged onto an in-flight leader (single-flight).
    pub merges: u64,
    /// Completed result sets inserted into the cache.
    pub insertions: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Approximate bytes of cached results.
    pub bytes_resident: usize,
}

/// How [`ResultStore::admit`] classified a submission.
pub(crate) enum Admission {
    /// Cached results — the job is done before it was ever queued.
    Hit(Vec<OffTarget>),
    /// An identical spec is computing; the job rides along as a follower.
    Merged,
    /// First of its kind: the caller enqueued it as the compute leader.
    Admitted,
}

struct StoreInner {
    entries: Lru<CanonicalSpec, Vec<OffTarget>>,
    /// Specs with a leader computing, and the jobs merged onto each.
    inflight: HashMap<CanonicalSpec, Vec<JobId>>,
    /// Admissions that became leaders; the LRU's own misses also count
    /// merges and rejected admissions.
    leaders: u64,
    merges: u64,
}

/// Bounded LRU store of finished result sets plus the in-flight
/// single-flight registry. See the module docs for the protocol.
pub(crate) struct ResultStore {
    cap_bytes: usize,
    inner: Mutex<StoreInner>,
}

/// Approximate host bytes of a result set (the eviction currency).
fn approx_bytes(results: &[OffTarget]) -> usize {
    const PER_ENTRY: usize = 64; // struct + allocation overheads
    results
        .iter()
        .map(|o| o.query.len() + o.chrom.len() + o.site.len() + PER_ENTRY)
        .sum::<usize>()
        .max(PER_ENTRY) // an empty result set still occupies an entry
}

impl ResultStore {
    pub fn new(cap_bytes: usize) -> Self {
        ResultStore {
            cap_bytes,
            inner: Mutex::new(StoreInner {
                entries: Lru::new(cap_bytes),
                inflight: HashMap::new(),
                leaders: 0,
                merges: 0,
            }),
        }
    }

    /// Classify a submission: cache hit, single-flight merge, or leader.
    /// `try_enqueue` runs *while the store lock is held* on the leader path,
    /// so a concurrent duplicate cannot slip between the admission decision
    /// and the leader registration — it either sees the leader (merge) or
    /// becomes one itself after this enqueue failed.
    ///
    /// # Errors
    ///
    /// Forwards `try_enqueue`'s error (admission rejection); no entry,
    /// leader or reported counter changes in that case.
    pub fn admit<E>(
        &self,
        spec: &CanonicalSpec,
        id: JobId,
        try_enqueue: impl FnOnce() -> Result<(), E>,
    ) -> Result<Admission, E> {
        let mut s = self.inner.lock().expect("result store lock poisoned");
        if let Some(results) = s.entries.get(spec) {
            return Ok(Admission::Hit(results.clone()));
        }
        if let Some(followers) = s.inflight.get_mut(spec) {
            followers.push(id);
            s.merges += 1;
            return Ok(Admission::Merged);
        }
        try_enqueue()?;
        s.leaders += 1;
        s.inflight.insert(spec.clone(), Vec::new());
        Ok(Admission::Admitted)
    }

    /// Publish a leader's finished results: cache them (evicting LRU
    /// entries past the byte budget) and return the followers to fulfill.
    /// Removal from the in-flight registry and insertion into the cache are
    /// atomic under the store lock, so no submission can fall between them.
    pub fn complete(&self, spec: &CanonicalSpec, results: &[OffTarget]) -> Vec<JobId> {
        let mut s = self.inner.lock().expect("result store lock poisoned");
        let followers = s.inflight.remove(spec).unwrap_or_default();
        let bytes = approx_bytes(results);
        // A result set larger than the whole budget passes through
        // uncached rather than flushing every other entry.
        if bytes <= self.cap_bytes {
            s.entries.insert(spec.clone(), results.to_vec(), bytes);
        }
        followers
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ResultCacheStats {
        let s = self.inner.lock().expect("result store lock poisoned");
        let lru = s.entries.stats();
        ResultCacheStats {
            hits: lru.hits,
            misses: s.leaders,
            merges: s.merges,
            insertions: lru.inserts,
            evictions: lru.evictions,
            len: lru.len,
            bytes_resident: lru.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_offinder::Strand;

    fn spec(guide: &[u8]) -> JobSpec {
        JobSpec::new("hg38", b"NNNRG".to_vec(), guide.to_vec(), 3)
    }

    fn hit(pos: usize) -> OffTarget {
        OffTarget::from_window(b"ACGTG", "chr1", pos, Strand::Forward, 1, b"ACGTG")
    }

    #[test]
    fn canonical_specs_separate_every_result_bearing_field() {
        let base = CanonicalSpec::new(&spec(b"ACGTG"), 512);
        let variants = [
            CanonicalSpec::new(
                &JobSpec::new("hg19", b"NNNRG".to_vec(), b"ACGTG".to_vec(), 3),
                512,
            ),
            CanonicalSpec::new(
                &JobSpec::new("hg38", b"NNNGG".to_vec(), b"ACGTG".to_vec(), 3),
                512,
            ),
            CanonicalSpec::new(&spec(b"ACGTT"), 512),
            CanonicalSpec::new(
                &JobSpec::new("hg38", b"NNNRG".to_vec(), b"ACGTG".to_vec(), 4),
                512,
            ),
            CanonicalSpec::new(&spec(b"ACGTG"), 1024),
        ];
        for v in variants {
            assert_ne!(base, v);
        }
        // Priority does not change results, so it must not change the key.
        assert_eq!(
            base,
            CanonicalSpec::new(&spec(b"ACGTG").high_priority(), 512)
        );
    }

    #[test]
    fn library_specs_canonicalize_guide_order() {
        let fwd = JobSpec::library(
            "hg38",
            b"NNNRG".to_vec(),
            vec![b"ACGTG".to_vec(), b"TTTTG".to_vec(), b"CCCTG".to_vec()],
            3,
        );
        let rev = JobSpec::library(
            "hg38",
            b"NNNRG".to_vec(),
            vec![b"TTTTG".to_vec(), b"CCCTG".to_vec(), b"ACGTG".to_vec()],
            3,
        );
        let cf = CanonicalSpec::new(&fwd, 512);
        assert_eq!(
            cf,
            CanonicalSpec::new(&rev, 512),
            "guide order must not change the key"
        );
        // A different guide set is different work.
        let other = JobSpec::library(
            "hg38",
            b"NNNRG".to_vec(),
            vec![b"ACGTG".to_vec(), b"TTTTG".to_vec()],
            3,
        );
        assert_ne!(cf, CanonicalSpec::new(&other, 512));
        // A screen differs from the single-guide job sharing its first guide.
        assert_ne!(cf, CanonicalSpec::new(&spec(b"ACGTG"), 512));
    }

    #[test]
    fn leader_then_merge_then_hit() {
        let store = ResultStore::new(1 << 16);
        let c = CanonicalSpec::new(&spec(b"ACGTG"), 512);
        let a = store.admit::<()>(&c, 1, || Ok(())).unwrap();
        assert!(matches!(a, Admission::Admitted));
        let a = store
            .admit::<()>(&c, 2, || panic!("duplicate must not enqueue"))
            .unwrap();
        assert!(matches!(a, Admission::Merged));
        let followers = store.complete(&c, &[hit(7)]);
        assert_eq!(followers, vec![2]);
        match store
            .admit::<()>(&c, 3, || panic!("hit must not enqueue"))
            .unwrap()
        {
            Admission::Hit(results) => assert_eq!(results, vec![hit(7)]),
            _ => panic!("expected a cache hit"),
        }
        let stats = store.stats();
        assert_eq!((stats.misses, stats.merges, stats.hits), (1, 1, 1));
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn rejected_leaders_leave_no_trace() {
        let store = ResultStore::new(1 << 16);
        let c = CanonicalSpec::new(&spec(b"ACGTG"), 512);
        let r = store.admit(&c, 1, || Err("full"));
        assert_eq!(r.err(), Some("full"));
        // The next identical submission becomes the leader, not a follower
        // of a phantom compute.
        let a = store.admit::<()>(&c, 2, || Ok(())).unwrap();
        assert!(matches!(a, Admission::Admitted));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let one = approx_bytes(&[hit(1)]);
        let store = ResultStore::new(2 * one);
        let specs: Vec<_> = [b"ACGTG", b"ACGTT", b"ACGTC"]
            .iter()
            .map(|g| CanonicalSpec::new(&spec(*g), 512))
            .collect();
        for c in &specs {
            store.admit::<()>(c, 0, || Ok(())).unwrap();
            store.complete(c, &[hit(1)]);
        }
        let stats = store.stats();
        assert_eq!(stats.evictions, 1, "third insert evicts the oldest");
        assert_eq!(stats.len, 2);
        assert!(stats.bytes_resident <= 2 * one);
        // The first spec was evicted; the last two still hit.
        assert!(matches!(
            store.admit::<()>(&specs[0], 9, || Ok(())).unwrap(),
            Admission::Admitted
        ));
        assert!(matches!(
            store.admit::<()>(&specs[2], 9, || panic!()).unwrap(),
            Admission::Hit(_)
        ));
    }

    #[test]
    fn oversized_results_pass_through_uncached() {
        let store = ResultStore::new(8);
        let c = CanonicalSpec::new(&spec(b"ACGTG"), 512);
        store.admit::<()>(&c, 1, || Ok(())).unwrap();
        store.complete(&c, &[hit(1)]);
        assert_eq!(store.stats().insertions, 0);
        assert!(matches!(
            store.admit::<()>(&c, 2, || Ok(())).unwrap(),
            Admission::Admitted
        ));
    }
}
