//! JIT-style kernel specialization: per-(pattern, threshold) constant-folded
//! comparer and finder variants with ISA-measured resources.
//!
//! The paper's opt1–opt4 ladder hand-specializes the comparer until the
//! Table X numbers improve; this module continues the story by machine. A
//! job's query pattern — its per-position IUPAC possibility masks and its
//! length — and its mismatch threshold are *runtime constants*: they never
//! change between launches of the same job, yet the generic kernels re-read
//! them from `__constant`/`__local` buffers on every work-item. Folding them
//! into the kernel body turns every pattern read into an immediate operand,
//! deletes the cooperative staging phase (nothing left to stage), fixes the
//! loop trip count, and drops two pointer and two scalar arguments — which
//! the pseudo-ISA lowering prices as real savings: fewer code bytes, fewer
//! SGPRs/VGPRs, and occupancy at least as good as the generic kernel's
//! (see [`CodeModel::folded_pattern`]).
//!
//! Variants are compiled once per `(pattern digest, threshold, encoding)`
//! and cached in a bounded, digest-keyed [`VariantCache`] with single-flight
//! compilation: two batches racing on the same new key produce exactly one
//! compile, the loser blocks until the leader publishes
//! ([`SingleFlight`], the policy the serving candidate cache shares; each
//! variant weighs 1, so the capacity is a count). Library-style
//! workloads — thousands of sites, a handful of guides — amortize one
//! compile across every subsequent launch.
//!
//! The folded comparers themselves are the serving comparer family
//! instantiated with folded guides, `Comparer<R, Arc<CompiledVariant>>`
//! (and, for a fused block's shared threshold, `Comparer<R, Block>`); their
//! code models come from the same [`model`](super::model) as the generic
//! ones.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use gpu_sim::isa::{self, CodeModel, ResourceUsage};
use gpu_sim::kernel::{KernelProgram, LocalMem};
use gpu_sim::{DeviceBuffer, ItemCtx};

use genome::base::base_mask;

use super::family::{self, Chars, Nibbles, Reference, Shape, TwoBit};
use super::finder::{FinderOutput, NibbleFinderKernel, FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE};
use crate::lru::{Flight, SingleFlight};
use crate::pattern::CompiledSeq;

/// Which kernel shape a variant specializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// The char comparer over raw chunk bytes.
    CharComparer,
    /// The 2-bit comparer over packed + ambiguity-mask words.
    TwoBitComparer,
    /// The 4-bit comparer over nibble words.
    FourBitComparer,
    /// The finder over a nibble-packed chunk (scans nibbles directly — the
    /// generic kernel's whole decode-to-`chr` phase disappears).
    NibbleFinder,
    /// The fused multi-guide comparer with the block's shared threshold
    /// folded to an immediate
    /// ([`GuideThresholds::Folded`](super::GuideThresholds::Folded)). The
    /// guides themselves stay data — a library screen cycles thousands of
    /// them through the same variant — so what folds is the (PAM pattern,
    /// threshold) pair the whole screen shares.
    MultiComparer,
}

impl VariantKind {
    /// All kinds, in digest-tag order.
    pub const ALL: [VariantKind; 5] = [
        VariantKind::CharComparer,
        VariantKind::TwoBitComparer,
        VariantKind::FourBitComparer,
        VariantKind::NibbleFinder,
        VariantKind::MultiComparer,
    ];

    /// The kernel name the variant reports to the profiler. Fixed per kind
    /// (not per pattern) so profile consumers can aggregate by name.
    pub fn kernel_name(&self) -> &'static str {
        let folded = Shape::Folded as usize;
        match self {
            VariantKind::CharComparer => Chars::ENCODING.names[folded],
            VariantKind::TwoBitComparer => TwoBit::ENCODING.names[folded],
            VariantKind::FourBitComparer => Nibbles::ENCODING.names[folded],
            VariantKind::NibbleFinder => "finder_nibble-spec",
            VariantKind::MultiComparer => Chars::ENCODING.names[Shape::FoldedBlock as usize],
        }
    }

    fn tag(&self) -> u8 {
        *self as u8
    }
}

/// A query pattern and threshold frozen into host-side immediates.
///
/// Holds the compared positions of the `[forward | revcomp]` layout the
/// generic kernels stage into local memory, and each position's possibility
/// mask — the immediate every folded kernel's subset test reads, saving the
/// pattern load and the `base_mask` lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedPattern {
    comp_index: Vec<i32>,
    masks: Vec<u8>,
    plen: usize,
    threshold: u16,
}

impl FoldedPattern {
    /// Fold `query` and `threshold` into immediates.
    pub fn fold(query: &CompiledSeq, threshold: u16) -> FoldedPattern {
        let masks = query.comp().iter().map(|&c| base_mask(c)).collect();
        FoldedPattern {
            comp_index: query.comp_index().to_vec(),
            masks,
            plen: query.plen(),
            threshold,
        }
    }

    /// Pattern length.
    pub fn plen(&self) -> usize {
        self.plen
    }

    /// Folded mismatch threshold.
    pub fn threshold(&self) -> u16 {
        self.threshold
    }

    /// The `j`-th compared position of strand `half`, `-1` past the last.
    #[inline]
    pub(crate) fn index(&self, half: usize, j: usize) -> i32 {
        self.comp_index[half * self.plen + j]
    }

    /// The possibility mask at position `k` of strand `half`.
    #[inline]
    pub(crate) fn mask(&self, half: usize, k: usize) -> u8 {
        self.masks[half * self.plen + k]
    }
}

/// FNV-1a over the variant's identity: kind tag, pattern bytes, index
/// bytes, and threshold. Two jobs sharing a (pattern, threshold, encoding)
/// digest share the compiled variant.
pub fn variant_digest(kind: VariantKind, query: &CompiledSeq, threshold: u16) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(kind.tag());
    eat(query.plen() as u8);
    for &c in query.comp() {
        eat(c);
    }
    for &k in query.comp_index() {
        for b in k.to_le_bytes() {
            eat(b);
        }
    }
    for b in threshold.to_le_bytes() {
        eat(b);
    }
    h
}

/// The structural code model of a specialized variant: staging and the
/// pattern pointer/scalar arguments are gone, the body is the folded ladder
/// ([`CodeModel::folded_pattern`]) with the per-encoding decode cost kept as
/// `extra_valu` (the genome side is still data). A fused block folds only
/// its threshold: the guide tables stay staged data.
pub fn specialized_model(kind: VariantKind, plen: usize) -> CodeModel {
    match kind {
        VariantKind::CharComparer => family::model(&Chars::ENCODING, Shape::Folded, plen),
        VariantKind::TwoBitComparer => family::model(&TwoBit::ENCODING, Shape::Folded, plen),
        VariantKind::FourBitComparer => family::model(&Nibbles::ENCODING, Shape::Folded, plen),
        // nibbles + 3 output pointers; scan_len, seq_len. No decode phase
        // at all: the scan reads nibble words directly.
        VariantKind::NibbleFinder => CodeModel::new(VariantKind::NibbleFinder.kernel_name())
            .pointer_args(4)
            .scalar_args(2)
            .noalias(true)
            .guarded_blocks(2)
            .atomic_output(true)
            .extra_valu(8)
            .folded_pattern(plen as u32),
        VariantKind::MultiComparer => family::model(&Chars::ENCODING, Shape::FoldedBlock, plen),
    }
}

/// The code model of the generic kernel a `kind` variant replaces — the
/// "before" column of a generic-vs-specialized ISA comparison. The char
/// comparer is the paper's, at optimization stage `opt`.
pub fn generic_model(kind: VariantKind, opt: super::OptLevel) -> CodeModel {
    match kind {
        VariantKind::CharComparer => super::ComparerKernel::code_model_for(opt),
        VariantKind::TwoBitComparer => family::model(&TwoBit::ENCODING, Shape::Staged, 0),
        VariantKind::FourBitComparer => family::model(&Nibbles::ENCODING, Shape::Staged, 0),
        VariantKind::NibbleFinder => NibbleFinderKernel::model(),
        VariantKind::MultiComparer => family::model(&Chars::ENCODING, Shape::Block, 0),
    }
}

/// A compiled variant: the folded pattern plus the resources the pseudo-ISA
/// lowering measured for it.
#[derive(Debug)]
pub struct CompiledVariant {
    /// Which kernel shape this specializes.
    pub kind: VariantKind,
    /// The cache key ([`variant_digest`]).
    pub digest: u64,
    /// The folded pattern + threshold.
    pub pattern: Arc<FoldedPattern>,
    /// Measured code bytes, SGPRs, VGPRs, LDS.
    pub resources: ResourceUsage,
    /// Wall-clock nanoseconds the compile took.
    pub compile_ns: u64,
}

impl CompiledVariant {
    /// Compile a variant outside any cache (the cache calls this too).
    pub fn compile(kind: VariantKind, query: &CompiledSeq, threshold: u16) -> CompiledVariant {
        let start = Instant::now();
        let pattern = Arc::new(FoldedPattern::fold(query, threshold));
        let model = specialized_model(kind, pattern.plen());
        let resources = isa::compile(&model);
        CompiledVariant {
            kind,
            digest: variant_digest(kind, query, threshold),
            pattern,
            resources,
            compile_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// Counters and compile-time samples of a [`VariantCache`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VariantCacheStats {
    /// Lookups that found a resident (or in-flight) variant.
    pub hits: u64,
    /// Lookups that had to compile (single-flight: one per compile).
    pub misses: u64,
    /// Variants evicted by the capacity bound.
    pub evictions: u64,
    /// Recent compile times in nanoseconds (bounded ring, newest last).
    pub compile_ns: Vec<u64>,
}

impl VariantCacheStats {
    /// The `q`-quantile of recorded compile times (nearest-rank), `None`
    /// when no compile has been recorded.
    pub fn compile_ns_quantile(&self, q: f64) -> Option<u64> {
        if self.compile_ns.is_empty() {
            return None;
        }
        let mut sorted = self.compile_ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

/// Retained compile-time samples; old samples age out so p50/p95 track the
/// recent regime, not the process lifetime.
const COMPILE_SAMPLE_CAP: usize = 256;

/// A bounded, digest-keyed, single-flight cache of compiled variants.
pub struct VariantCache {
    variants: SingleFlight<u64, Arc<CompiledVariant>>,
    compile_ns: Mutex<Vec<u64>>,
}

impl VariantCache {
    /// A cache retaining at most `capacity` compiled variants (LRU beyond
    /// that). In-flight compiles are never evicted.
    pub fn new(capacity: usize) -> VariantCache {
        VariantCache {
            variants: SingleFlight::new(capacity.max(1)),
            compile_ns: Mutex::new(Vec::new()),
        }
    }

    /// Fetch the variant for `(kind, query, threshold)`, compiling it on
    /// first use. Concurrent callers racing on the same new key compile
    /// once: the first becomes the leader, the rest block until the leader
    /// publishes and then count as hits (they did no work).
    pub fn get_or_compile(
        &self,
        kind: VariantKind,
        query: &CompiledSeq,
        threshold: u16,
    ) -> Arc<CompiledVariant> {
        let digest = variant_digest(kind, query, threshold);
        if let Flight::Hit(variant) = self.variants.lookup_or_lead(&digest) {
            return variant;
        }
        // Leader: compile outside the lock so unrelated digests keep
        // flowing.
        let variant = Arc::new(CompiledVariant::compile(kind, query, threshold));
        let mut samples = self.compile_ns.lock().expect("sample lock poisoned");
        if samples.len() == COMPILE_SAMPLE_CAP {
            samples.remove(0);
        }
        samples.push(variant.compile_ns);
        drop(samples);
        self.variants.publish(&digest, Arc::clone(&variant), 1);
        variant
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> VariantCacheStats {
        let lru = self.variants.stats();
        VariantCacheStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            compile_ns: self
                .compile_ns
                .lock()
                .expect("sample lock poisoned")
                .clone(),
        }
    }

    /// Number of resident (compiled) variants.
    pub fn len(&self) -> usize {
        self.variants.stats().len
    }

    /// True when no variant is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Default bound of the process-wide cache: a serving process sees a few
/// guides per library workload; 64 variants is ~16 guides x 4 kinds.
pub const GLOBAL_VARIANT_CAPACITY: usize = 64;

/// The process-wide variant cache both chunk runners share, so a pattern
/// compiled for one device's runner is a hit on every other.
pub fn global_cache() -> &'static VariantCache {
    static CACHE: OnceLock<VariantCache> = OnceLock::new();
    CACHE.get_or_init(|| VariantCache::new(GLOBAL_VARIANT_CAPACITY))
}

/// The specialized nibble finder: scans nibble words directly against the
/// folded PAM masks. The generic [`NibbleFinderKernel`] first decodes the
/// whole read window into the `chr` scratch, then stages the pattern, then
/// scans — three phases. Folding deletes the first two: the subset test
/// `g != 0 && (g & p) == g` on the raw nibble is bit-identical to
/// `is_mismatch` on the decoded char ([`genome::base::matches`]), so this
/// single-phase kernel returns exactly the generic results with no `chr`
/// traffic at all.
///
/// [`NibbleFinderKernel`]: super::NibbleFinderKernel
#[derive(Debug, Clone)]
pub struct SpecializedNibbleFinderKernel {
    /// Nibble-packed chunk bases (2 per byte, low nibble first).
    pub nibbles: DeviceBuffer<u8>,
    /// Output arrays.
    pub out: FinderOutput,
    /// Number of owned scan positions.
    pub scan_len: u32,
    /// Total bases available (scan positions + overlap).
    pub seq_len: u32,
    /// The compiled variant (the PAM pattern; threshold 0).
    pub variant: Arc<CompiledVariant>,
}

impl SpecializedNibbleFinderKernel {
    fn strand_matches(
        &self,
        item: &mut ItemCtx,
        cache: &mut (usize, u8),
        pos: usize,
        half: usize,
    ) -> bool {
        let pat = &self.variant.pattern;
        for j in 0..pat.plen() {
            let k = pat.index(half, j);
            if k < 0 {
                break;
            }
            let k = k as usize;
            let abs = pos + k;
            let idx = abs / 2;
            if cache.0 != idx {
                cache.0 = idx;
                // Lane-adjacent nibble reads: fully coalesced.
                cache.1 = self.nibbles.load_coalesced(item, idx);
            }
            let g = (cache.1 >> ((abs % 2) * 4)) & 0b1111;
            let p = pat.mask(half, k);
            item.ops(2);
            if !(g != 0 && (g & p) == g) {
                return false;
            }
        }
        true
    }
}

impl KernelProgram for SpecializedNibbleFinderKernel {
    type Private = ();

    fn name(&self) -> &str {
        VariantKind::NibbleFinder.kernel_name()
    }

    fn code_model(&self) -> CodeModel {
        specialized_model(VariantKind::NibbleFinder, self.variant.pattern.plen())
    }

    fn run_phase(&self, _phase: usize, item: &mut ItemCtx, _p: &mut (), _local: &mut LocalMem) {
        let plen = self.variant.pattern.plen();
        let i = item.global_id(0);
        item.ops(2);
        if i >= self.scan_len as usize || i + plen > self.seq_len as usize {
            return;
        }
        let mut cache = (usize::MAX, 0u8);
        let forward = self.strand_matches(item, &mut cache, i, 0);
        let reverse = self.strand_matches(item, &mut cache, i, 1);
        let flag = match (forward, reverse) {
            (true, true) => FLAG_BOTH,
            (true, false) => FLAG_FORWARD,
            (false, true) => FLAG_REVERSE,
            (false, false) => return,
        };
        let slot = self.out.count.atomic_inc(item, 0) as usize;
        self.out.loci.store(item, slot, i as u32);
        self.out.flags.store(item, slot, flag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{
        Comparer, ComparerKernel, ComparerOutput, FinderKernel, FourBitComparerKernel, OptLevel,
        TwoBitComparerKernel,
    };
    use genome::fourbit::NibbleSeq;
    use genome::rng::Xoshiro256;
    use genome::twobit::PackedSeq;
    use gpu_sim::{Device, DeviceSpec, NdRange};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn device() -> Device {
        Device::new(DeviceSpec::mi100())
    }

    /// A degenerate sequence mixing concrete, soft-masked, `N`, and IUPAC
    /// bases — the worst case for every encoding.
    fn degenerate_seq(len: usize, seed: u64) -> Vec<u8> {
        let alphabet = b"ACGTACGTACGTacgtNRYSWKMBDHVN";
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0, alphabet.len())])
            .collect()
    }

    fn candidates(seq_len: usize, plen: usize, seed: u64) -> Vec<(u32, u8)> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..64)
            .map(|_| {
                (
                    rng.gen_range(0, seq_len - plen) as u32,
                    [FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE][rng.gen_range(0, 3)],
                )
            })
            .collect()
    }

    fn sorted(mut entries: Vec<(u32, u8, u16)>) -> Vec<(u32, u8, u16)> {
        entries.sort_unstable();
        entries
    }

    fn finder_hits(out: &FinderOutput) -> Vec<(u32, u8)> {
        let n = out.count_matches();
        let loci = out.loci.to_vec();
        let flags = out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|i| (loci[i], flags[i])).collect();
        hits.sort_unstable();
        hits
    }

    fn generic_char(
        seq: &[u8],
        query: &CompiledSeq,
        cands: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let chr = device.alloc_from_slice(seq).unwrap();
        let loci_host: Vec<u32> = cands.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = cands.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let comp = device.alloc_from_slice(query.comp()).unwrap();
        let comp_index = device.alloc_from_slice(query.comp_index()).unwrap();
        let out = ComparerOutput::allocate(&device, cands.len() * 2 + 1).unwrap();
        let (kernel, _) = ComparerKernel::new(
            OptLevel::Opt4,
            chr,
            loci,
            flags,
            comp,
            comp_index,
            cands.len(),
            threshold,
            out,
            query,
        );
        device
            .launch(&kernel, NdRange::linear_cover(cands.len(), 256))
            .unwrap();
        sorted(kernel.out.entries())
    }

    fn specialized_char(
        seq: &[u8],
        query: &CompiledSeq,
        cands: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let chr = device.alloc_from_slice(seq).unwrap();
        let loci_host: Vec<u32> = cands.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = cands.iter().map(|&(_, f)| f).collect();
        let kernel = Comparer {
            reference: Chars(chr),
            loci: device.alloc_from_slice(&loci_host).unwrap(),
            flags: device.alloc_from_slice(&flags_host).unwrap(),
            locicnt: cands.len() as u32,
            guides: Arc::new(CompiledVariant::compile(
                VariantKind::CharComparer,
                query,
                threshold,
            )),
            out: ComparerOutput::allocate(&device, cands.len() * 2 + 1).unwrap(),
        };
        device
            .launch(&kernel, NdRange::linear_cover(cands.len(), 256))
            .unwrap();
        sorted(kernel.out.entries())
    }

    fn generic_2bit(
        seq: &[u8],
        query: &CompiledSeq,
        cands: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let packed = PackedSeq::encode(seq);
        let packed_buf = device.alloc_from_slice(packed.packed_bytes()).unwrap();
        let mask_buf = device.alloc_from_slice(packed.mask_bytes()).unwrap();
        let loci_host: Vec<u32> = cands.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = cands.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let comp = device.alloc_from_slice(query.comp()).unwrap();
        let comp_index = device.alloc_from_slice(query.comp_index()).unwrap();
        let out = ComparerOutput::allocate(&device, cands.len() * 2 + 1).unwrap();
        let (kernel, _) = TwoBitComparerKernel::new(
            packed_buf,
            mask_buf,
            loci,
            flags,
            comp,
            comp_index,
            cands.len(),
            threshold,
            out,
            query,
        );
        device
            .launch(&kernel, NdRange::linear_cover(cands.len(), 256))
            .unwrap();
        sorted(kernel.out.entries())
    }

    fn specialized_2bit(
        seq: &[u8],
        query: &CompiledSeq,
        cands: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let packed = PackedSeq::encode(seq);
        let loci_host: Vec<u32> = cands.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = cands.iter().map(|&(_, f)| f).collect();
        let kernel = Comparer {
            reference: TwoBit {
                packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
                mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
            },
            loci: device.alloc_from_slice(&loci_host).unwrap(),
            flags: device.alloc_from_slice(&flags_host).unwrap(),
            locicnt: cands.len() as u32,
            guides: Arc::new(CompiledVariant::compile(
                VariantKind::TwoBitComparer,
                query,
                threshold,
            )),
            out: ComparerOutput::allocate(&device, cands.len() * 2 + 1).unwrap(),
        };
        device
            .launch(&kernel, NdRange::linear_cover(cands.len(), 256))
            .unwrap();
        sorted(kernel.out.entries())
    }

    fn generic_4bit(
        seq: &[u8],
        query: &CompiledSeq,
        cands: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let packed = NibbleSeq::encode(seq);
        let nibbles = device.alloc_from_slice(packed.nibble_bytes()).unwrap();
        let loci_host: Vec<u32> = cands.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = cands.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let comp = device.alloc_from_slice(query.comp()).unwrap();
        let comp_index = device.alloc_from_slice(query.comp_index()).unwrap();
        let out = ComparerOutput::allocate(&device, cands.len() * 2 + 1).unwrap();
        let (kernel, _) = FourBitComparerKernel::new(
            nibbles,
            loci,
            flags,
            comp,
            comp_index,
            cands.len(),
            threshold,
            out,
            query,
        );
        device
            .launch(&kernel, NdRange::linear_cover(cands.len(), 256))
            .unwrap();
        sorted(kernel.out.entries())
    }

    fn specialized_4bit(
        seq: &[u8],
        query: &CompiledSeq,
        cands: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let packed = NibbleSeq::encode(seq);
        let loci_host: Vec<u32> = cands.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = cands.iter().map(|&(_, f)| f).collect();
        let kernel = Comparer {
            reference: Nibbles(device.alloc_from_slice(packed.nibble_bytes()).unwrap()),
            loci: device.alloc_from_slice(&loci_host).unwrap(),
            flags: device.alloc_from_slice(&flags_host).unwrap(),
            locicnt: cands.len() as u32,
            guides: Arc::new(CompiledVariant::compile(
                VariantKind::FourBitComparer,
                query,
                threshold,
            )),
            out: ComparerOutput::allocate(&device, cands.len() * 2 + 1).unwrap(),
        };
        device
            .launch(&kernel, NdRange::linear_cover(cands.len(), 256))
            .unwrap();
        sorted(kernel.out.entries())
    }

    const QUERIES: [&[u8]; 3] = [
        b"GGCACTGCGGCTGGAGGTGGNGG", // cas-offinder demo guide
        b"ACGTNNNRYSWKMBDHVACGTNN", // degenerate IUPAC everywhere
        b"NNNNNNNNNNNNNNNNNNNNNGG", // PAM-only (all-N guide)
    ];
    const THRESHOLDS: [u16; 3] = [0, 2, 5];

    #[test]
    fn specialized_char_is_byte_identical_to_generic() {
        let seq = degenerate_seq(4096, 11);
        for (qi, query) in QUERIES.iter().enumerate() {
            let compiled = CompiledSeq::compile(query);
            let cands = candidates(seq.len(), compiled.plen(), 100 + qi as u64);
            for &t in &THRESHOLDS {
                assert_eq!(
                    specialized_char(&seq, &compiled, &cands, t),
                    generic_char(&seq, &compiled, &cands, t),
                    "query {qi} threshold {t}"
                );
            }
        }
    }

    #[test]
    fn specialized_2bit_is_byte_identical_to_generic() {
        let seq = degenerate_seq(4096, 13);
        for (qi, query) in QUERIES.iter().enumerate() {
            let compiled = CompiledSeq::compile(query);
            let cands = candidates(seq.len(), compiled.plen(), 200 + qi as u64);
            for &t in &THRESHOLDS {
                assert_eq!(
                    specialized_2bit(&seq, &compiled, &cands, t),
                    generic_2bit(&seq, &compiled, &cands, t),
                    "query {qi} threshold {t}"
                );
            }
        }
    }

    #[test]
    fn specialized_4bit_is_byte_identical_to_generic() {
        let seq = degenerate_seq(4096, 17);
        for (qi, query) in QUERIES.iter().enumerate() {
            let compiled = CompiledSeq::compile(query);
            let cands = candidates(seq.len(), compiled.plen(), 300 + qi as u64);
            for &t in &THRESHOLDS {
                assert_eq!(
                    specialized_4bit(&seq, &compiled, &cands, t),
                    generic_4bit(&seq, &compiled, &cands, t),
                    "query {qi} threshold {t}"
                );
            }
        }
    }

    #[test]
    fn specialized_nibble_finder_matches_the_generic_three_phase_kernel() {
        let seq = degenerate_seq(8192, 19);
        let pam = CompiledSeq::compile(b"NNNNNNNNNNNNNNNNNNNNNGG");
        let plen = pam.plen();
        let scan_len = seq.len() - plen;
        let packed = NibbleSeq::encode(&seq);

        let run_generic = || {
            let device = device();
            let chr = device.alloc(seq.len()).unwrap();
            let nibbles = device.alloc_from_slice(packed.nibble_bytes()).unwrap();
            let pat = device.alloc_from_slice(pam.comp()).unwrap();
            let pat_index = device.alloc_from_slice(pam.comp_index()).unwrap();
            let out = FinderOutput::allocate(&device, scan_len * 2 + 1).unwrap();
            let (inner, _) = FinderKernel::new(chr, pat, pat_index, out, scan_len, seq.len(), &pam);
            let kernel = NibbleFinderKernel { inner, nibbles };
            device
                .launch(&kernel, NdRange::linear_cover(scan_len, 256))
                .unwrap();
            finder_hits(&kernel.inner.out)
        };

        let run_spec = || {
            let device = device();
            let kernel = SpecializedNibbleFinderKernel {
                nibbles: device.alloc_from_slice(packed.nibble_bytes()).unwrap(),
                out: FinderOutput::allocate(&device, scan_len * 2 + 1).unwrap(),
                scan_len: scan_len as u32,
                seq_len: seq.len() as u32,
                variant: Arc::new(CompiledVariant::compile(VariantKind::NibbleFinder, &pam, 0)),
            };
            device
                .launch(&kernel, NdRange::linear_cover(scan_len, 256))
                .unwrap();
            finder_hits(&kernel.out)
        };

        let generic = run_generic();
        assert!(!generic.is_empty(), "the PAM must hit somewhere in 8 kB");
        assert_eq!(run_spec(), generic);
    }

    #[test]
    fn variants_price_below_their_generic_kernels() {
        use gpu_sim::occupancy::occupancy;
        let plen = 23;
        let nd = NdRange::linear(4096, 256);
        for kind in VariantKind::ALL.iter() {
            let generic = generic_model(*kind, OptLevel::Opt4);
            let spec_res = isa::compile(&specialized_model(*kind, plen));
            let gen_res = isa::compile(&generic);
            assert!(
                spec_res.code_bytes < gen_res.code_bytes,
                "{kind:?}: specialized {} B vs generic {} B",
                spec_res.code_bytes,
                gen_res.code_bytes
            );
            for hw in [
                DeviceSpec::mi100(),
                DeviceSpec::mi60(),
                DeviceSpec::radeon_vii(),
            ] {
                let spec_occ = occupancy(&spec_res, &nd, &hw).waves_per_simd;
                let gen_occ = occupancy(&gen_res, &nd, &hw).waves_per_simd;
                assert!(
                    spec_occ >= gen_occ,
                    "{kind:?} on {}: specialized {spec_occ} waves vs generic {gen_occ}",
                    hw.name
                );
            }
        }
    }

    /// The `specialized.variants` ISA table `serve_demo` writes to
    /// `BENCH_serve.json`: per kind, the generic kernel at the base stage
    /// against the variant folded at pattern length 11, as code bytes,
    /// SGPRs, VGPRs and waves per SIMD for 8192 items in groups of 64 on an
    /// MI100 (generic, then folded, for each).
    #[test]
    fn variant_isa_table_matches_the_bench_record() {
        use gpu_sim::occupancy::occupancy;
        let rows = [
            (
                VariantKind::CharComparer,
                [6180, 660, 22, 8, 64, 41, 10, 10],
            ),
            (
                VariantKind::TwoBitComparer,
                [4648, 828, 10, 8, 57, 42, 10, 10],
            ),
            (
                VariantKind::FourBitComparer,
                [4576, 756, 10, 8, 56, 41, 10, 10],
            ),
            (
                VariantKind::NibbleFinder,
                [4464, 644, 10, 8, 54, 38, 10, 10],
            ),
            (
                VariantKind::MultiComparer,
                [4584, 4536, 10, 10, 58, 57, 10, 10],
            ),
        ];
        let (hw, nd) = (DeviceSpec::mi100(), NdRange::linear(1 << 13, 64));
        for (kind, want) in rows {
            let g = isa::compile(&generic_model(kind, OptLevel::Base));
            let s = isa::compile(&specialized_model(kind, 11));
            let got = [
                g.code_bytes,
                s.code_bytes,
                g.sgprs,
                s.sgprs,
                g.vgprs,
                s.vgprs,
                occupancy(&g, &nd, &hw).waves_per_simd,
                occupancy(&s, &nd, &hw).waves_per_simd,
            ];
            assert_eq!(got, want, "{}", kind.kernel_name());
        }
    }

    #[test]
    fn digest_distinguishes_kind_pattern_and_threshold() {
        let a = CompiledSeq::compile(b"GGCACTGCGGCTGGAGGTGGNGG");
        let b = CompiledSeq::compile(b"ACGTNNNRYSWKMBDHVACGTNN");
        let base = variant_digest(VariantKind::CharComparer, &a, 3);
        assert_ne!(base, variant_digest(VariantKind::TwoBitComparer, &a, 3));
        assert_ne!(base, variant_digest(VariantKind::CharComparer, &b, 3));
        assert_ne!(base, variant_digest(VariantKind::CharComparer, &a, 4));
        assert_eq!(base, variant_digest(VariantKind::CharComparer, &a, 3));
    }

    #[test]
    fn cache_hits_after_first_compile_and_evicts_lru() {
        let cache = VariantCache::new(2);
        let queries: Vec<CompiledSeq> = [
            b"GGCACTGCGGCTGGAGGTGGNGG" as &[u8],
            b"ACGTNNNRYSWKMBDHVACGTNN",
            b"NNNNNNNNNNNNNNNNNNNNNGG",
        ]
        .iter()
        .map(|q| CompiledSeq::compile(q))
        .collect();

        let v0 = cache.get_or_compile(VariantKind::CharComparer, &queries[0], 3);
        let again = cache.get_or_compile(VariantKind::CharComparer, &queries[0], 3);
        assert!(Arc::ptr_eq(&v0, &again), "second lookup reuses the compile");
        cache.get_or_compile(VariantKind::CharComparer, &queries[1], 3);
        // Touch query 0 so query 1 is the LRU victim.
        cache.get_or_compile(VariantKind::CharComparer, &queries[0], 3);
        cache.get_or_compile(VariantKind::CharComparer, &queries[2], 3);

        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(cache.len(), 2);
        // Query 0 survived the eviction; query 1 did not.
        cache.get_or_compile(VariantKind::CharComparer, &queries[0], 3);
        assert_eq!(cache.stats().hits, 3, "query 0 still resident");
        cache.get_or_compile(VariantKind::CharComparer, &queries[1], 3);
        assert_eq!(cache.stats().misses, 4, "query 1 was the LRU victim");
        assert!(stats.compile_ns_quantile(0.5).is_some());
        assert!(
            stats.compile_ns_quantile(0.95).unwrap() >= stats.compile_ns_quantile(0.5).unwrap()
        );
    }

    #[test]
    fn racing_lookups_compile_once() {
        // Regression for the single-flight requirement: N threads racing on
        // the same new (pattern, threshold) must produce exactly one
        // compile; the losers block and then share the leader's variant.
        let cache = Arc::new(VariantCache::new(8));
        let query = Arc::new(CompiledSeq::compile(b"GGCACTGCGGCTGGAGGTGGNGG"));
        let go = Arc::new(AtomicUsize::new(0));
        const RACERS: usize = 8;

        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let query = Arc::clone(&query);
                let go = Arc::clone(&go);
                std::thread::spawn(move || {
                    go.fetch_add(1, Ordering::SeqCst);
                    while go.load(Ordering::SeqCst) < RACERS {
                        std::hint::spin_loop();
                    }
                    cache.get_or_compile(VariantKind::FourBitComparer, &query, 4)
                })
            })
            .collect();
        let variants: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "single-flight: exactly one compile");
        assert_eq!(stats.hits as usize, RACERS - 1);
        for v in &variants {
            assert!(Arc::ptr_eq(v, &variants[0]), "all racers share one variant");
        }
    }
}
