//! Characterization of the four serving caches' observable policy.
//!
//! Each cache — genome chunks, candidate lists, result sets and kernel
//! variants — is driven through a fixed seeded op sequence at a tight
//! budget: misses, hits, peeks, evictions, an entry larger than the whole
//! budget, single-flight leads, publishes and abandons, and result-store
//! merges, rejections and completions. After every op the log records the
//! op's outcome, the cache's full counters and its sorted resident key
//! set; the log is folded into one FNV-1a digest and pinned. Any change to
//! what a cache keeps, evicts or counts changes the digest.

use std::fmt::Write;
use std::sync::Arc;

use cas_offinder::kernels::{VariantCache, VariantKind};
use cas_offinder::pipeline::chunk::CandidateSites;
use cas_offinder::{CompiledSeq, OffTarget, Strand};

use crate::cache::{ChunkEncoding, ChunkKey, EncodedChunk, GenomeCache};
use crate::candidates::{CandidateCache, CandidateKey, CandidateLookup};
use crate::job::{JobId, JobSpec};
use crate::results::{fnv1a64, Admission, CanonicalSpec, ResultStore, FNV_OFFSET};

/// The pinned digest of [`characterization_log`].
const PINNED: u64 = 0xab3f_464d_8359_ee5c;

/// xorshift64*: the op sequences' fixed, seeded source.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % n
    }
}

// ---- genome chunks -------------------------------------------------------

/// Key 6 is a raw 64-byte chunk, above the 40-byte budget.
const GENOME_KEYS: usize = 7;
const GENOME_BUDGET: usize = 40;

fn chunk_key(k: usize) -> ChunkKey {
    ChunkKey {
        assembly: "a".into(),
        plen: 3,
        index: k,
    }
}

fn chunk(k: usize) -> EncodedChunk {
    if k == 6 {
        return EncodedChunk::encode(0, "c".into(), 0, 61, &[b'C'; 64], ChunkEncoding::Raw);
    }
    // All-A adaptive chunks of 13..45 bases pack into 6..18 bytes.
    let len = 13 + 8 * (k % 5);
    EncodedChunk::encode(
        0,
        "c".into(),
        0,
        len - 3,
        &vec![b'A'; len],
        ChunkEncoding::Adaptive,
    )
}

fn genome_log(log: &mut String) {
    let cache = GenomeCache::new(GENOME_BUDGET);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for _ in 0..80 {
        let k = rng.below(GENOME_KEYS as u64) as usize;
        let outcome = if rng.below(4) == 0 {
            let found = cache.peek(&chunk_key(k)).map(|c| c.byte_len());
            format!("peek {k} {found:?}")
        } else {
            let mut missed = false;
            let c = cache.get_or_insert_with(&chunk_key(k), || {
                missed = true;
                chunk(k)
            });
            format!("get {k} missed={missed} {}B", c.byte_len())
        };
        let s = cache.stats();
        let resident: Vec<usize> = (0..GENOME_KEYS)
            .filter(|&k| cache.peek(&chunk_key(k)).is_some())
            .collect();
        let _ = writeln!(
            log,
            "genome {outcome} | h{} m{} e{} n{} b{} | {resident:?}",
            s.hits, s.misses, s.evictions, s.len, s.bytes_resident
        );
    }
}

// ---- candidate lists -----------------------------------------------------

/// Key 7 publishes 16 sites (80 bytes), above the 60-byte budget.
const CANDIDATE_KEYS: u64 = 8;
const CANDIDATE_BUDGET: usize = 60;

fn candidate_key(k: u64) -> CandidateKey {
    CandidateKey {
        chunk_digest: k,
        pattern_digest: 7,
        encoding: 1,
    }
}

fn sites(k: u64) -> Arc<CandidateSites> {
    let n = if k == 7 { 16 } else { 1 + k as usize % 5 };
    Arc::new(CandidateSites {
        loci: (0..n as u32).collect(),
        flags: vec![b'+'; n],
    })
}

fn candidate_line(log: &mut String, cache: &CandidateCache, outcome: &str) {
    let s = cache.stats();
    let resident: Vec<u64> = (0..CANDIDATE_KEYS + 2)
        .filter(|&k| cache.peek(&candidate_key(k)))
        .collect();
    let _ = writeln!(
        log,
        "candidates {outcome} | h{} m{} i{} e{} n{} b{} | {resident:?}",
        s.hits, s.misses, s.inserts, s.evictions, s.len, s.resident_bytes
    );
}

/// Three lookups of `key` race an in-flight lead that the main thread
/// then resolves; every racer that ends up leading publishes. Whatever the
/// interleaving, exactly one lookup after an abandon leads and the rest
/// hit, and after a publish every racer hits.
fn candidate_race(cache: &CandidateCache, key: u64, publish: bool) -> Vec<&'static str> {
    let CandidateLookup::Lead = cache.lookup_or_lead(&candidate_key(key)) else {
        panic!("a fresh key leads");
    };
    let mut outcomes = std::thread::scope(|s| {
        let racers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| match cache.lookup_or_lead(&candidate_key(key)) {
                    CandidateLookup::Lead => {
                        cache.publish(&candidate_key(key), sites(key));
                        "lead"
                    }
                    CandidateLookup::Hit(_) => "hit",
                })
            })
            .collect();
        if publish {
            cache.publish(&candidate_key(key), sites(key));
        } else {
            cache.abandon(&candidate_key(key));
        }
        racers
            .into_iter()
            .map(|r| r.join().expect("racer panicked"))
            .collect::<Vec<_>>()
    });
    outcomes.sort_unstable();
    outcomes
}

fn candidate_log(log: &mut String) {
    let cache = CandidateCache::new(CANDIDATE_BUDGET);
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for _ in 0..80 {
        let k = rng.below(CANDIDATE_KEYS);
        if rng.below(4) == 0 {
            let found = cache.peek(&candidate_key(k));
            candidate_line(log, &cache, &format!("peek {k} {found}"));
            continue;
        }
        match cache.lookup_or_lead(&candidate_key(k)) {
            CandidateLookup::Hit(s) => {
                candidate_line(log, &cache, &format!("lookup {k} hit {}", s.len()));
            }
            CandidateLookup::Lead => {
                candidate_line(log, &cache, &format!("lookup {k} lead"));
                if rng.below(4) == 0 {
                    cache.abandon(&candidate_key(k));
                    candidate_line(log, &cache, &format!("abandon {k}"));
                } else {
                    cache.publish(&candidate_key(k), sites(k));
                    candidate_line(log, &cache, &format!("publish {k}"));
                }
            }
        }
    }
    let outcomes = candidate_race(&cache, CANDIDATE_KEYS, false);
    candidate_line(log, &cache, &format!("abandoned race {outcomes:?}"));
    let outcomes = candidate_race(&cache, CANDIDATE_KEYS + 1, true);
    candidate_line(log, &cache, &format!("published race {outcomes:?}"));
}

// ---- result sets ---------------------------------------------------------

/// Spec 6's seven records (546 bytes) exceed the 400-byte budget; spec 5
/// is a library screen submitted in rotating guide orders.
const RESULT_SPECS: usize = 7;
const RESULT_BUDGET: usize = 400;
const CHUNK_SIZE: usize = 512;

const GUIDES: [&[u8]; 3] = [b"ACGTG", b"TTTTG", b"CCCTG"];

fn job_spec(k: usize, rotation: usize) -> JobSpec {
    match k {
        5 => {
            let mut guides: Vec<Vec<u8>> = GUIDES.iter().map(|g| g.to_vec()).collect();
            guides.rotate_left(rotation);
            JobSpec::library("hg38", b"NNNRG".to_vec(), guides, 3)
        }
        _ => JobSpec::new(
            "hg38",
            b"NNNRG".to_vec(),
            GUIDES[k % 3].to_vec(),
            1 + k as u16 / 3,
        ),
    }
}

fn records(k: usize) -> Vec<OffTarget> {
    let n = if k == 6 { 7 } else { 1 + k % 3 };
    (0..n)
        .map(|p| OffTarget::from_window(b"ACGTG", "chr1", p, Strand::Forward, 1, b"ACGTG"))
        .collect()
}

enum ResultOp {
    /// Submit spec `k` in guide order `rotation`; `accept` is whether the
    /// admission queue takes it.
    Admit {
        k: usize,
        rotation: usize,
        id: JobId,
        accept: bool,
    },
    /// Publish spec `k`'s records.
    Complete(usize),
}

fn admit(store: &ResultStore, spec: &JobSpec, id: JobId, accept: bool) -> String {
    let canon = CanonicalSpec::new(spec, CHUNK_SIZE);
    let enqueue = || if accept { Ok(()) } else { Err(()) };
    match store.admit(&canon, id, enqueue) {
        Ok(Admission::Hit(r)) => format!("hit {}", r.len()),
        Ok(Admission::Merged) => "merged".into(),
        Ok(Admission::Admitted) => "admitted".into(),
        Err(()) => "rejected".into(),
    }
}

fn complete(store: &ResultStore, spec: &JobSpec, results: &[OffTarget]) -> Vec<JobId> {
    store.complete(&CanonicalSpec::new(spec, CHUNK_SIZE), results)
}

fn apply(store: &ResultStore, op: &ResultOp) -> String {
    match *op {
        ResultOp::Admit {
            k,
            rotation,
            id,
            accept,
        } => {
            let outcome = admit(store, &job_spec(k, rotation), id, accept);
            format!("admit {k} #{id} {outcome}")
        }
        ResultOp::Complete(k) => {
            let mut followers = complete(store, &job_spec(k, 0), &records(k));
            followers.sort_unstable();
            format!("complete {k} {followers:?}")
        }
    }
}

/// The seeded op sequence; it runs on a shadow store as it is drawn so
/// that it completes only specs that have a leader in flight.
fn result_ops() -> Vec<ResultOp> {
    let mut rng = Rng(0x6a09_e667_f3bc_c908);
    let shadow = ResultStore::new(RESULT_BUDGET);
    let mut inflight: Vec<usize> = Vec::new();
    let mut ops = Vec::new();
    for id in 0..90 {
        let op = if !inflight.is_empty() && rng.below(3) == 0 {
            ResultOp::Complete(inflight.swap_remove(rng.below(inflight.len() as u64) as usize))
        } else {
            ResultOp::Admit {
                k: rng.below(RESULT_SPECS as u64) as usize,
                rotation: rng.below(3) as usize,
                id,
                accept: rng.below(5) != 0,
            }
        };
        if let (ResultOp::Admit { k, .. }, true) = (&op, apply(&shadow, &op).ends_with("admitted"))
        {
            inflight.push(*k);
        }
        ops.push(op);
    }
    ops.extend(inflight.into_iter().map(ResultOp::Complete));
    ops
}

fn result_log(log: &mut String) {
    let ops = result_ops();
    let store = ResultStore::new(RESULT_BUDGET);
    for (i, op) in ops.iter().enumerate() {
        let outcome = apply(&store, op);
        let s = store.stats();
        // Residency, probed on a replayed copy: an admission that may not
        // enqueue is a hit exactly when the spec is cached.
        let probe = ResultStore::new(RESULT_BUDGET);
        for op in &ops[..=i] {
            apply(&probe, op);
        }
        let resident: Vec<usize> = (0..RESULT_SPECS)
            .filter(|&k| admit(&probe, &job_spec(k, 0), 0, false).starts_with("hit"))
            .collect();
        let _ = writeln!(
            log,
            "results {outcome} | h{} m{} g{} i{} e{} n{} b{} | {resident:?}",
            s.hits, s.misses, s.merges, s.insertions, s.evictions, s.len, s.bytes_resident
        );
    }
}

// ---- kernel variants -----------------------------------------------------

const VARIANT_KEYS: usize = 5;
const VARIANT_CAPACITY: usize = 3;

fn variant_get(cache: &VariantCache, queries: &[CompiledSeq], k: usize) {
    let kind = if k.is_multiple_of(2) {
        VariantKind::CharComparer
    } else {
        VariantKind::FourBitComparer
    };
    cache.get_or_compile(kind, &queries[k], 3);
}

fn variant_log(log: &mut String) {
    let queries: Vec<CompiledSeq> = [
        b"GGCACTGCGGCTGGAGGTGGNGG" as &[u8],
        b"ACGTNNNRYSWKMBDHVACGTNN",
        b"NNNNNNNNNNNNNNNNNNNNNGG",
        b"TTTTACGTACGTACGTACGTNGG",
        b"CCCCACGTACGTACGTACGTNRG",
    ]
    .iter()
    .map(|q| CompiledSeq::compile(q))
    .collect();
    let mut rng = Rng(0xbb67_ae85_84ca_a73b);
    let keys: Vec<usize> = (0..30)
        .map(|_| rng.below(VARIANT_KEYS as u64) as usize)
        .collect();
    let cache = VariantCache::new(VARIANT_CAPACITY);
    for (i, &k) in keys.iter().enumerate() {
        let hits = cache.stats().hits;
        variant_get(&cache, &queries, k);
        let s = cache.stats();
        // A probe that misses compiles and may evict, so each key is
        // probed on its own replayed copy.
        let resident: Vec<usize> = (0..VARIANT_KEYS)
            .filter(|&probe| {
                let copy = VariantCache::new(VARIANT_CAPACITY);
                for &k in &keys[..=i] {
                    variant_get(&copy, &queries, k);
                }
                let before = copy.stats().hits;
                variant_get(&copy, &queries, probe);
                copy.stats().hits > before
            })
            .collect();
        let _ = writeln!(
            log,
            "variants get {k} hit={} | h{} m{} e{} n{} | {resident:?}",
            s.hits > hits,
            s.hits,
            s.misses,
            s.evictions,
            cache.len()
        );
    }
}

/// The whole characterization, one line per op.
fn characterization_log() -> String {
    let mut log = String::new();
    genome_log(&mut log);
    candidate_log(&mut log);
    result_log(&mut log);
    variant_log(&mut log);
    log
}

#[test]
fn the_four_caches_keep_their_pinned_policy() {
    let log = characterization_log();
    // The sequences reach every path they are meant to characterize.
    for needle in [
        "genome get 6 missed=true 64B",
        "peek",
        "lead",
        "abandon",
        "publish 7",
        "abandoned race [\"hit\", \"hit\", \"lead\"]",
        "published race [\"hit\", \"hit\", \"hit\"]",
        "merged",
        "rejected",
        "admitted",
        "hit 3",
        "complete 6",
        "variants get",
    ] {
        assert!(log.contains(needle), "sequence never reached `{needle}`");
    }
    for cache in ["genome", "candidates", "results", "variants"] {
        let last = log
            .lines()
            .rfind(|l| l.starts_with(cache))
            .expect("every cache logged");
        assert!(!last.contains(" e0 "), "{cache} never evicted: {last}");
    }
    let digest = fnv1a64(FNV_OFFSET, log.as_bytes());
    assert_eq!(digest, PINNED, "digest {digest:#018x} of:\n{log}");
}
