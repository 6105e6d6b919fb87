//! A byte-budgeted LRU cache of encoded genome chunks.
//!
//! Uploading a chunk to a device is cheap in the simulator but slicing and
//! owning the chunk bytes on the host is the work the service repeats for
//! every batch that targets the same genome region. The cache keeps the
//! hot working set resident: a batch that lands on a chunk another batch
//! just used pays a map lookup instead of a copy of up to `chunk_size`
//! bases.
//!
//! Chunks are encoded per chunk by default ([`ChunkEncoding::Adaptive`]).
//! Most are stored 2-bit packed: a [`genome::twobit::PackedSeq`] holds
//! ~0.375 bytes per base (packed words + N mask) plus a rare exception
//! list, so the same byte budget keeps roughly 2.7x as many chunks resident
//! as raw bytes would, and the packed payload is what the runners upload.
//! The 2-bit layout degrades on exception-dense chunks — every soft-masked
//! or degenerate byte costs a 5-byte host exception — and cannot compare a
//! degenerate base at all, so a chunk that is not
//! [`twobit_compare_safe`] or whose exceptions out-weigh the nibbles on the
//! host goes to the 4-bit nibble layout instead
//! ([`genome::fourbit::NibbleSeq`], 0.5 B/base on device, exact for every
//! IUPAC code). [`ChunkEncoding::Raw`] keeps the classic
//! one-byte-per-base layout for baseline comparisons.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cas_offinder::pipeline::chunk::{twobit_compare_safe, Payload};
use genome::fourbit::NibbleSeq;
use genome::twobit::PackedSeq;

use crate::results::{fnv1a64, FNV_OFFSET};

/// Exception density (2-bit exceptions per base) above which the adaptive
/// encoding switches a chunk to the nibble layout. The break-even of the
/// host footprints: 2-bit costs `0.375 + 5d` bytes per base at density `d`
/// while nibbles cost a flat `0.625`, which cross at `d = 0.05`.
pub const NIBBLE_DENSITY_THRESHOLD: f64 = 0.05;

/// How the cache (and the upload path) represents chunk bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkEncoding {
    /// Per-chunk choice between 2-bit and 4-bit (the serving default):
    /// 2-bit packed while its exceptions are compare-safe and rarer than
    /// [`NIBBLE_DENSITY_THRESHOLD`], 4-bit nibbles otherwise.
    #[default]
    Adaptive,
    /// One byte per base, as the serial pipelines upload.
    Raw,
}

/// The resident representation of a chunk's bases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkPayload {
    /// Losslessly 2-bit packed, always [`twobit_compare_safe`].
    Packed(PackedSeq),
    /// 4-bit nibble packed: every IUPAC code kept as its possibility mask.
    Nibble(NibbleSeq),
    /// Raw bases.
    Raw(Vec<u8>),
}

impl ChunkPayload {
    /// The payload as the chunk runners take it.
    pub fn as_payload(&self) -> Payload<'_> {
        match self {
            ChunkPayload::Packed(p) => Payload::Packed(p),
            ChunkPayload::Nibble(n) => Payload::Nibble(n),
            ChunkPayload::Raw(seq) => Payload::Raw(seq),
        }
    }
}

/// One genome chunk in host memory, ready for upload: `scan_len` owned
/// scan positions plus the trailing overlap context, in the cache's
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedChunk {
    /// Index of the source chromosome within the assembly.
    pub chrom_index: usize,
    /// Name of the source chromosome.
    pub chrom: String,
    /// Offset of the chunk's first base within the chromosome.
    pub start: usize,
    /// Number of scan positions owned by this chunk.
    pub scan_len: usize,
    /// The chunk's bases, in the configured encoding.
    pub payload: ChunkPayload,
}

impl EncodedChunk {
    /// Encode `seq` under `encoding`.
    pub fn encode(
        chrom_index: usize,
        chrom: String,
        start: usize,
        scan_len: usize,
        seq: &[u8],
        encoding: ChunkEncoding,
    ) -> Self {
        let payload = match encoding {
            ChunkEncoding::Adaptive => {
                let packed = PackedSeq::encode(seq);
                let density = packed.exceptions().len() as f64 / seq.len().max(1) as f64;
                if twobit_compare_safe(&packed) && density <= NIBBLE_DENSITY_THRESHOLD {
                    ChunkPayload::Packed(packed)
                } else {
                    ChunkPayload::Nibble(NibbleSeq::encode(seq))
                }
            }
            ChunkEncoding::Raw => ChunkPayload::Raw(seq.to_vec()),
        };
        EncodedChunk {
            chrom_index,
            chrom,
            start,
            scan_len,
            payload,
        }
    }

    /// Number of bases the chunk holds (scan positions + trailing context).
    pub fn seq_len(&self) -> usize {
        match &self.payload {
            ChunkPayload::Packed(p) => p.len(),
            ChunkPayload::Nibble(n) => n.len(),
            ChunkPayload::Raw(seq) => seq.len(),
        }
    }

    /// Host bytes the payload keeps resident — what the cache budget
    /// charges for this entry.
    pub fn byte_len(&self) -> usize {
        match &self.payload {
            ChunkPayload::Packed(p) => p.byte_len(),
            ChunkPayload::Nibble(n) => n.byte_len(),
            ChunkPayload::Raw(seq) => seq.len(),
        }
    }

    /// Bytes a device upload of this payload moves — what the scheduler
    /// prices and residency skips. Smaller than [`byte_len`](Self::byte_len)
    /// for packed forms: exception lists and case masks stay on the host.
    pub fn upload_byte_len(&self) -> usize {
        match &self.payload {
            ChunkPayload::Packed(p) => p.packed_bytes().len() + p.mask_bytes().len(),
            ChunkPayload::Nibble(n) => n.device_byte_len(),
            ChunkPayload::Raw(seq) => seq.len(),
        }
    }

    /// Encoding tag of the payload form (raw 0, 2-bit 1, 4-bit 2) — part
    /// of the candidate cache's content key, so a cached list only
    /// replays through the finder flavour that produced it.
    pub fn encoding_tag(&self) -> u8 {
        match &self.payload {
            ChunkPayload::Raw(_) => 0,
            ChunkPayload::Packed(_) => 1,
            ChunkPayload::Nibble(_) => 2,
        }
    }

    /// Stable 64-bit digest of the chunk's bases — the candidate cache's
    /// content address. Hashed over the exact decoded byte sequence, so
    /// it is independent of the payload encoding, and chunks with
    /// identical bases (telomeric N runs, repeated contigs) share one
    /// digest and therefore one cached candidate list per pattern.
    pub fn content_digest(&self) -> u64 {
        let bases = self.decode();
        let h = fnv1a64(FNV_OFFSET, &(bases.len() as u64).to_le_bytes());
        fnv1a64(h, &bases)
    }

    /// The chunk's bases as characters, decoding packed payloads
    /// (borrowing raw ones). Exact: packed payloads round-trip degenerate
    /// and lowercase bases through the exception list.
    pub fn decode(&self) -> Cow<'_, [u8]> {
        match &self.payload {
            ChunkPayload::Packed(p) => Cow::Owned(p.decode()),
            ChunkPayload::Nibble(n) => Cow::Owned(n.decode()),
            ChunkPayload::Raw(seq) => Cow::Borrowed(seq),
        }
    }
}

/// Cache key: which chunk of which assembly, under which overlap.
///
/// The overlap (= pattern length) is part of the key because chunks sliced
/// for different pattern lengths carry different amounts of trailing
/// context.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Registered assembly name.
    pub assembly: String,
    /// Pattern length the chunk was sliced for.
    pub plen: usize,
    /// Chunk ordinal within the assembly's chunk sequence.
    pub index: usize,
}

struct Entry {
    chunk: Arc<EncodedChunk>,
    last_used: u64,
}

struct Inner {
    map: HashMap<ChunkKey, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to encode the chunk.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Chunks currently resident.
    pub len: usize,
    /// Payload bytes currently resident.
    pub bytes_resident: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe LRU over [`EncodedChunk`]s, bounded by resident payload
/// bytes rather than entry count — a packed cache therefore keeps ~2.7x
/// the chunks of a raw cache at the same budget.
pub struct GenomeCache {
    capacity_bytes: usize,
    inner: Mutex<Inner>,
}

impl GenomeCache {
    /// An empty cache holding at most `capacity_bytes` of payload.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        GenomeCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Fetch the chunk for `key`, encoding it with `encode` on a miss.
    /// Either way the entry becomes the most recently used; on insertion
    /// past the byte budget, least recently used entries are evicted until
    /// the new entry fits (an entry larger than the whole budget is still
    /// admitted, alone).
    pub fn get_or_insert_with(
        &self,
        key: &ChunkKey,
        encode: impl FnOnce() -> EncodedChunk,
    ) -> Arc<EncodedChunk> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(key) {
            entry.last_used = tick;
            let chunk = Arc::clone(&entry.chunk);
            inner.hits += 1;
            return chunk;
        }
        inner.misses += 1;
        let chunk = Arc::new(encode());
        let incoming = chunk.byte_len();
        while !inner.map.is_empty() && inner.bytes + incoming > self.capacity_bytes {
            // O(len) scan; resident counts stay small by construction.
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(evicted) = inner.map.remove(&lru) {
                    inner.bytes -= evicted.chunk.byte_len();
                    inner.evictions += 1;
                }
            }
        }
        inner.bytes += incoming;
        inner.map.insert(
            key.clone(),
            Entry {
                chunk: Arc::clone(&chunk),
                last_used: tick,
            },
        );
        chunk
    }

    /// Look up `key` without touching recency or the hit/miss counters —
    /// for read-only observers like the shard planner's makespan
    /// prediction, which must not perturb the LRU order or the hit-rate
    /// accounting the serving path reports.
    pub fn peek(&self, key: &ChunkKey) -> Option<Arc<EncodedChunk>> {
        let inner = self.inner.lock().unwrap();
        inner.map.get(key).map(|e| Arc::clone(&e.chunk))
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            bytes_resident: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(index: usize) -> ChunkKey {
        ChunkKey {
            assembly: "a".into(),
            plen: 3,
            index,
        }
    }

    fn chunk(index: usize, encoding: ChunkEncoding) -> EncodedChunk {
        EncodedChunk::encode(0, "chr1".into(), index * 10, 10, &[b'A'; 13], encoding)
    }

    /// 13 raw bases pack into ceil(13/4) + ceil(13/8) = 4 + 2 = 6 bytes
    /// (all-`A` chunks stay 2-bit under the adaptive encoding).
    const PACKED_BYTES: usize = 6;

    #[test]
    fn hits_and_misses_are_accounted_in_bytes() {
        let cache = GenomeCache::new(4 * PACKED_BYTES);
        let a = cache.get_or_insert_with(&key(0), || chunk(0, ChunkEncoding::Adaptive));
        assert_eq!(a.byte_len(), PACKED_BYTES);
        assert_eq!(a.seq_len(), 13);
        assert_eq!(a.decode().as_ref(), &[b'A'; 13]);
        let b = cache.get_or_insert_with(&key(0), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert_eq!(stats.bytes_resident, PACKED_BYTES);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_removes_the_least_recently_used_by_byte_budget() {
        let cache = GenomeCache::new(2 * PACKED_BYTES);
        cache.get_or_insert_with(&key(0), || chunk(0, ChunkEncoding::Adaptive));
        cache.get_or_insert_with(&key(1), || chunk(1, ChunkEncoding::Adaptive));
        // Touch 0 so 1 becomes the LRU entry.
        cache.get_or_insert_with(&key(0), || unreachable!());
        cache.get_or_insert_with(&key(2), || chunk(2, ChunkEncoding::Adaptive)); // evicts 1
        cache.get_or_insert_with(&key(0), || unreachable!("0 must survive"));
        cache.get_or_insert_with(&key(1), || chunk(1, ChunkEncoding::Adaptive)); // 1 is gone: miss
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2, "inserting 2 evicted 1; reinserting 1 evicted the then-LRU");
        assert_eq!(stats.len, 2);
        assert_eq!(stats.bytes_resident, 2 * PACKED_BYTES);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn packed_entries_outnumber_raw_at_the_same_budget() {
        // Budget of two raw chunks holds four packed ones (6 B vs 13 B).
        let budget = 2 * 13;
        let raw = GenomeCache::new(budget);
        let packed = GenomeCache::new(budget);
        for i in 0..4 {
            raw.get_or_insert_with(&key(i), || chunk(i, ChunkEncoding::Raw));
            packed.get_or_insert_with(&key(i), || chunk(i, ChunkEncoding::Adaptive));
        }
        assert_eq!(raw.stats().len, 2, "raw: two 13 B entries fill 26 B");
        assert_eq!(packed.stats().len, 4, "packed: four 6 B entries fit");
        assert!(packed.stats().evictions < raw.stats().evictions);
    }

    #[test]
    fn oversized_entries_are_admitted_alone() {
        let cache = GenomeCache::new(4);
        let c = cache.get_or_insert_with(&key(0), || chunk(0, ChunkEncoding::Raw));
        assert_eq!(c.byte_len(), 13);
        assert_eq!(cache.stats().len, 1, "an entry above budget still serves");
        cache.get_or_insert_with(&key(1), || chunk(1, ChunkEncoding::Raw));
        assert_eq!(cache.stats().len, 1, "but is evicted by the next insert");
    }

    #[test]
    fn peek_observes_without_perturbing_recency_or_stats() {
        let cache = GenomeCache::new(2 * PACKED_BYTES);
        cache.get_or_insert_with(&key(0), || chunk(0, ChunkEncoding::Adaptive));
        cache.get_or_insert_with(&key(1), || chunk(1, ChunkEncoding::Adaptive));
        let before = cache.stats();
        assert!(cache.peek(&key(0)).is_some());
        assert!(cache.peek(&key(7)).is_none());
        assert_eq!(cache.stats(), before, "peek leaves the counters alone");
        // Peeking 0 did not refresh it: 0 is still the LRU entry and the
        // next insert evicts it, not 1.
        cache.get_or_insert_with(&key(2), || chunk(2, ChunkEncoding::Adaptive));
        assert!(cache.peek(&key(0)).is_none(), "0 stayed LRU despite the peek");
        assert!(cache.peek(&key(1)).is_some());
    }

    #[test]
    fn keys_separate_assemblies_and_overlaps() {
        let cache = GenomeCache::new(1 << 10);
        cache.get_or_insert_with(&key(0), || chunk(0, ChunkEncoding::Adaptive));
        let other = ChunkKey {
            assembly: "a".into(),
            plen: 5,
            index: 0,
        };
        cache.get_or_insert_with(&other, || chunk(0, ChunkEncoding::Adaptive));
        assert_eq!(cache.stats().misses, 2, "same index, different overlap");
    }

    #[test]
    fn packed_payloads_preserve_degenerate_and_lowercase_bases() {
        let seq = b"ACGTACGTACGTACGTACGTRyACGTACGTACGTNNNNNN";
        let c = EncodedChunk {
            chrom_index: 0,
            chrom: "chr1".into(),
            start: 0,
            scan_len: 32,
            payload: ChunkPayload::Packed(PackedSeq::encode(seq)),
        };
        assert_eq!(c.decode().as_ref(), seq, "lossless round-trip incl. R, y");
        assert!(c.byte_len() < seq.len(), "rare exceptions keep packing ahead");
    }

    #[test]
    fn adaptive_encoding_keeps_clean_chunks_2bit() {
        // Concrete bases and N runs: zero exceptions, 2-bit wins.
        let seq = b"ACGTACGTACGTACGTNNNNNNNNACGTACGT";
        let c = EncodedChunk::encode(0, "chr1".into(), 0, 24, seq, ChunkEncoding::Adaptive);
        assert!(matches!(c.payload, ChunkPayload::Packed(_)));
        assert_eq!(c.decode().as_ref(), seq);
    }

    #[test]
    fn adaptive_encoding_switches_degenerate_chunks_to_nibbles() {
        // A single degenerate byte already defeats the 2-bit comparer, so
        // safety — not density — must force the nibble form.
        let mut seq = vec![b'A'; 64];
        seq[10] = b'R';
        let c = EncodedChunk::encode(0, "chr1".into(), 0, 32, &seq, ChunkEncoding::Adaptive);
        assert!(matches!(c.payload, ChunkPayload::Nibble(_)));
        assert_eq!(c.decode(), seq, "nibble payloads round-trip byte-exactly");
        assert_eq!(c.upload_byte_len(), 32, "half a byte per base on device");
    }

    #[test]
    fn adaptive_encoding_switches_soft_mask_runs_to_nibbles() {
        // Lowercase concrete bases are compare-safe for the 2-bit kernel,
        // but at 5 host bytes per exception a long soft-mask run makes the
        // 2-bit form larger than the nibbles — density flips the choice.
        let mut seq = vec![b'A'; 100];
        for b in seq.iter_mut().take(40) {
            *b = b'a';
        }
        let dense = EncodedChunk::encode(0, "chr1".into(), 0, 64, &seq, ChunkEncoding::Adaptive);
        assert!(matches!(dense.payload, ChunkPayload::Nibble(_)));
        assert_eq!(dense.decode(), seq, "case survives the nibble round-trip");
        // At exactly the threshold (5 exceptions in 100 bases) 2-bit stays.
        let mut sparse = vec![b'A'; 100];
        for b in sparse.iter_mut().take(5) {
            *b = b'a';
        }
        let c = EncodedChunk::encode(0, "chr1".into(), 0, 64, &sparse, ChunkEncoding::Adaptive);
        assert!(matches!(c.payload, ChunkPayload::Packed(_)));
    }
}
