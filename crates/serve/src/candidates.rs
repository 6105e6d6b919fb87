//! A content-addressed, single-flight cache of finder candidate lists.
//!
//! The finder stage of every chunk run answers a question that depends
//! only on the chunk's bases and the PAM pattern: *which loci carry the
//! PAM?* A library screen asks it again for every guide block that sweeps
//! the same chunk — under one PAM the answer never changes. This cache
//! stores the answer ([`CandidateSites`], the loci + strand flags the
//! finder compacted) keyed by **content**: a digest of the chunk's bases,
//! a digest of the compiled pattern, and the payload encoding. A repeat
//! sweep skips the finder launch entirely and replays the candidate list
//! through the chunk runners' `run_*_chunk_cached_candidates` entry
//! points.
//!
//! Lookups are **single-flight**: the first worker to miss a key becomes
//! its *lead* and owes the cache a [`publish`](CandidateCache::publish)
//! (or [`abandon`](CandidateCache::abandon) on error); concurrent workers
//! asking for the same key block until the lead resolves instead of all
//! launching the same finder. The policy — single-flight, least recently
//! used eviction under a byte budget, an oversized list admitted alone —
//! is [`SingleFlight`]'s, shared with the kernel-variant cache.

use std::sync::Arc;

use cas_offinder::lru::{Flight, LruStats, SingleFlight};
use cas_offinder::pipeline::chunk::CandidateSites;

use crate::cache::EncodedChunk;
use crate::results::{fnv1a64, FNV_OFFSET};

/// Content address of one candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateKey {
    /// Digest of the chunk's bases (see `EncodedChunk::content_digest`):
    /// two chunks with identical bases share their candidate lists, even
    /// across assemblies.
    pub chunk_digest: u64,
    /// Digest of the compiled PAM pattern the finder matched.
    pub pattern_digest: u64,
    /// Payload-encoding tag (raw / 2-bit / 4-bit), kept in the key so a
    /// list is only replayed through the same finder flavour that
    /// produced it.
    pub encoding: u8,
}

impl CandidateKey {
    /// The key a batch of `pattern` over `chunk` looks up: the chunk's
    /// base-content digest, the pattern bytes' digest, and the payload
    /// encoding tag. Scheduler (peek) and worker (lookup) must agree on
    /// this construction, so it lives here.
    pub(crate) fn of(pattern: &[u8], chunk: &EncodedChunk) -> Self {
        CandidateKey {
            chunk_digest: chunk.content_digest(),
            pattern_digest: fnv1a64(FNV_OFFSET, pattern),
            encoding: chunk.encoding_tag(),
        }
    }
}

/// Outcome of [`CandidateCache::lookup_or_lead`]: `Hit` carries the
/// resident list (skip the finder and replay it); `Lead` makes the caller
/// the key's lead, who runs the finder with capture armed, then
/// [`publish`](CandidateCache::publish)es or
/// [`abandon`](CandidateCache::abandon)s.
pub type CandidateLookup = Flight<Arc<CandidateSites>>;

/// Point-in-time counters of the candidate cache: `hits` are lookups that
/// skipped a finder launch, `misses` lookups that made the caller the
/// lead, `inserts` lists published, `evictions` lists evicted under the
/// byte budget.
pub type CandidateStats = LruStats;

/// Thread-safe single-flight LRU over [`CandidateSites`], bounded by
/// resident bytes.
pub struct CandidateCache {
    lists: SingleFlight<CandidateKey, Arc<CandidateSites>>,
}

impl CandidateCache {
    /// An empty cache holding at most `capacity_bytes` of candidate lists.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(
            capacity_bytes > 0,
            "candidate cache capacity must be positive"
        );
        CandidateCache {
            lists: SingleFlight::new(capacity_bytes),
        }
    }

    /// Fetch the list for `key`, or become its lead. Blocks while another
    /// thread leads the same key; if that lead abandons, one waiter is
    /// promoted to lead in its place.
    pub fn lookup_or_lead(&self, key: &CandidateKey) -> CandidateLookup {
        self.lists.lookup_or_lead(key)
    }

    /// Whether `key` is resident right now, without touching the LRU
    /// clock, the hit/miss counters, or the single-flight registry. The
    /// scheduler uses this to price the finder stage at zero for batches
    /// whose candidate list is already cached — a prediction must not
    /// perturb the statistics it is predicting from.
    pub fn peek(&self, key: &CandidateKey) -> bool {
        self.lists.peek(key).is_some()
    }

    /// Publish the lead's list for `key`, waking every waiter. Evicts
    /// least-recently-used entries past the byte budget; an oversized
    /// list is still admitted, alone.
    pub fn publish(&self, key: &CandidateKey, sites: Arc<CandidateSites>) {
        let bytes = sites.byte_len();
        self.lists.publish(key, sites, bytes);
    }

    /// Give up the lead for `key` without publishing (the finder run
    /// failed); a waiter, if any, is promoted to lead.
    pub fn abandon(&self, key: &CandidateKey) {
        self.lists.abandon(key);
    }

    /// Current accounting.
    pub fn stats(&self) -> CandidateStats {
        self.lists.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(i: u64) -> CandidateKey {
        CandidateKey {
            chunk_digest: i,
            pattern_digest: 7,
            encoding: 0,
        }
    }

    fn sites(n: usize) -> Arc<CandidateSites> {
        Arc::new(CandidateSites {
            loci: (0..n as u32).collect(),
            flags: vec![b'+'; n],
        })
    }

    #[test]
    fn miss_leads_publish_hits() {
        let cache = CandidateCache::new(1 << 10);
        assert!(matches!(
            cache.lookup_or_lead(&key(1)),
            CandidateLookup::Lead
        ));
        cache.publish(&key(1), sites(4));
        match cache.lookup_or_lead(&key(1)) {
            CandidateLookup::Hit(s) => assert_eq!(s.len(), 4),
            CandidateLookup::Lead => panic!("published key must hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.resident_bytes, 4 * 5);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keys_separate_patterns_and_encodings() {
        let cache = CandidateCache::new(1 << 10);
        assert!(matches!(
            cache.lookup_or_lead(&key(1)),
            CandidateLookup::Lead
        ));
        cache.publish(&key(1), sites(1));
        let other_pattern = CandidateKey {
            pattern_digest: 8,
            ..key(1)
        };
        let other_encoding = CandidateKey {
            encoding: 2,
            ..key(1)
        };
        assert!(matches!(
            cache.lookup_or_lead(&other_pattern),
            CandidateLookup::Lead
        ));
        assert!(matches!(
            cache.lookup_or_lead(&other_encoding),
            CandidateLookup::Lead
        ));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Each 4-site list costs 20 bytes; a 40-byte budget holds two.
        let cache = CandidateCache::new(40);
        for i in 0..2 {
            assert!(matches!(
                cache.lookup_or_lead(&key(i)),
                CandidateLookup::Lead
            ));
            cache.publish(&key(i), sites(4));
        }
        // Touch 0 so 1 is the LRU entry.
        assert!(matches!(
            cache.lookup_or_lead(&key(0)),
            CandidateLookup::Hit(_)
        ));
        assert!(matches!(
            cache.lookup_or_lead(&key(2)),
            CandidateLookup::Lead
        ));
        cache.publish(&key(2), sites(4));
        assert!(matches!(
            cache.lookup_or_lead(&key(0)),
            CandidateLookup::Hit(_)
        ));
        assert!(
            matches!(cache.lookup_or_lead(&key(1)), CandidateLookup::Lead),
            "1 was evicted as LRU"
        );
        cache.abandon(&key(1));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.resident_bytes, 40);
    }

    #[test]
    fn abandoned_leads_promote_a_waiter() {
        let cache = Arc::new(CandidateCache::new(1 << 10));
        assert!(matches!(
            cache.lookup_or_lead(&key(1)),
            CandidateLookup::Lead
        ));
        let leads = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let cache = Arc::clone(&cache);
            let leads = Arc::clone(&leads);
            handles.push(std::thread::spawn(move || {
                match cache.lookup_or_lead(&key(1)) {
                    CandidateLookup::Lead => {
                        // Promoted after the abandon: finish the flight.
                        leads.fetch_add(1, Ordering::SeqCst);
                        cache.publish(&key(1), sites(2));
                        2
                    }
                    CandidateLookup::Hit(s) => s.len(),
                }
            }));
        }
        // Give the threads time to queue up behind the pending key, then
        // abandon: exactly one waiter must take over and publish for the
        // rest.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.abandon(&key(1));
        for h in handles {
            assert_eq!(h.join().unwrap(), 2);
        }
        assert_eq!(
            leads.load(Ordering::SeqCst),
            1,
            "single-flight after abandon"
        );
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        let cache = Arc::new(CandidateCache::new(1 << 10));
        let leads = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let leads = Arc::clone(&leads);
            handles.push(std::thread::spawn(move || {
                match cache.lookup_or_lead(&key(9)) {
                    CandidateLookup::Lead => {
                        leads.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        cache.publish(&key(9), sites(3));
                        3
                    }
                    CandidateLookup::Hit(s) => s.len(),
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
        assert_eq!(
            leads.load(Ordering::SeqCst),
            1,
            "one finder run for 8 lookups"
        );
        assert_eq!(cache.stats().inserts, 1);
    }
}
