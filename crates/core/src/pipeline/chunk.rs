//! Chunk-level launch API — one finder→comparer interaction as a reusable
//! unit of device work.
//!
//! The serial pipelines ([`super::ocl`], [`super::sycl`], [`super::multi`])
//! all repeat the same inner loop: upload a genome chunk, launch the
//! `finder` once, then launch the `comparer` once per query and read back
//! the surviving entries. This module factors that loop body into two
//! runner types — [`OclChunkRunner`] and [`SyclChunkRunner`] — that own the
//! context/queue, the compiled pattern tables and the reusable scratch
//! buffers. Each exposes one call, `run`, over a [`Payload`] (raw bases,
//! compare-safe 2-bit words or 4-bit nibbles), an optional residency token
//! and a [`Sites`] source (launch the finder, launch it and capture its
//! candidate list, or replay a captured list), plus an upload-only
//! `prefetch`. `run_chunk` is the fresh raw run the serial pipelines make.
//!
//! Inside, a run is three steps: *stage* uploads the payload or reuses its
//! resident copy, *find* launches the finder or stages replayed sites, and
//! *compare* runs the comparers over the staged encoding — one launch per
//! query, or one fused launch per guide block on a multi-guide runner.
//!
//! The runners exist so a *scheduler* can drive chunks out of order and
//! coalesce many queries onto one chunk upload: `casoff-serve` batches
//! concurrent jobs that target the same genome chunk and pays for one
//! chunk transfer plus one finder launch per batch instead of one per job.

use gpu_sim::kernel::LocalLayout;
use gpu_sim::{DeviceBuffer, NdRange, TrafficSnapshot};
use opencl_rt::{
    ClBuffer, ClDeviceId, ClResult, CommandQueue, Context, Kernel, KernelArg, KernelSource,
    MemFlags, Program,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use sycl_rt::{AccessMode, Buffer, Handler, Queue, SpecSelector, SyclEvent, SyclResult};

use genome::base::is_concrete;
use genome::fourbit::NibbleSeq;
use genome::twobit::PackedSeq;

use crate::input::Query;
use crate::kernels::cl::{
    ClComparer, ClFinder, ClFourBitComparer, ClFourBitMultiComparer, ClMultiComparer,
    ClNibbleFinder, ClPackedFinder, ClSpecializedComparer, ClSpecializedFourBitComparer,
    ClSpecializedFourBitMultiComparer, ClSpecializedMultiComparer, ClSpecializedNibbleFinder,
    ClSpecializedTwoBitComparer, ClSpecializedTwoBitMultiComparer, ClTwoBitComparer,
    ClTwoBitMultiComparer,
};
use crate::kernels::specialize::{self, CompiledVariant, VariantKind};
use crate::kernels::{
    ComparerKernel, ComparerOutput, FinderKernel, FinderOutput, FourBitComparerKernel,
    FourBitMultiComparerKernel, GuideThresholds, MultiComparerKernel, MultiComparerOutput,
    NibbleFinderKernel, OptLevel, PackedFinderKernel, SpecializedComparerKernel,
    SpecializedFourBitComparerKernel, SpecializedNibbleFinderKernel,
    SpecializedTwoBitComparerKernel, TwoBitComparerKernel, TwoBitMultiComparerKernel, GUIDE_BLOCK,
};
use crate::pattern::CompiledSeq;
use crate::report::TimingBreakdown;

use super::{round_up, PipelineConfig};

/// Whether a packed chunk can be compared directly in 2-bit form.
///
/// The 2-bit comparer sees every masked base as `N`, which is exactly the
/// char comparer's view unless an exception byte is a degenerate IUPAC
/// code or a non-base byte: `base_mask` is case-insensitive, so lowercase
/// concrete bases and `n` carry no information beyond their 2-bit/mask
/// encoding, but a code like `R` matches pattern `R` where `N` does not.
pub fn twobit_compare_safe(packed: &PackedSeq) -> bool {
    packed
        .exceptions()
        .iter()
        .all(|&(_, b)| is_concrete(b) || b == b'n')
}

/// The chunk bases a run stages on the device.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// One byte per base, as the serial pipelines upload.
    Raw(&'a [u8]),
    /// Losslessly 2-bit packed. Must be [`twobit_compare_safe`]: a packed
    /// run always compares with the 2-bit comparer.
    Packed(&'a PackedSeq),
    /// 4-bit nibbles, exact for every IUPAC code.
    Nibble(&'a NibbleSeq),
}

impl Payload<'_> {
    /// Bases the payload holds (scan positions plus trailing context).
    fn seq_len(&self) -> usize {
        match self {
            Payload::Raw(seq) => seq.len(),
            Payload::Packed(p) => p.len(),
            Payload::Nibble(n) => n.len(),
        }
    }

    /// Host bytes an upload of the payload moves — what a resident hit
    /// avoids. Exception arrays only move when the chunk has any.
    fn upload_bytes(&self) -> u64 {
        match self {
            Payload::Raw(seq) => seq.len() as u64,
            Payload::Packed(p) => {
                let exc = p.exceptions().len() * (std::mem::size_of::<u32>() + 1);
                (p.packed_bytes().len() + p.mask_bytes().len() + exc) as u64
            }
            Payload::Nibble(n) => n.device_byte_len() as u64,
        }
    }

    /// Exception count of a packed payload (0 for the other forms).
    fn exceptions(&self) -> usize {
        match self {
            Payload::Packed(p) => p.exceptions().len(),
            _ => 0,
        }
    }

    /// Reject a packed payload the 2-bit comparer would misread.
    fn assert_compare_safe(&self) {
        if let Payload::Packed(p) = self {
            assert!(
                twobit_compare_safe(p),
                "packed runs require 2-bit-safe payloads; encode degenerate chunks as nibbles"
            );
        }
    }
}

/// Where a run takes its candidate sites from.
#[derive(Debug, Clone, Copy)]
pub enum Sites<'a> {
    /// Launch the finder.
    Find,
    /// Launch the finder and read its candidate list back (a timed d2h
    /// transfer) into [`ChunkRun::captured`] for a caller-owned cache.
    Capture,
    /// Skip the finder (recorded on the device and in
    /// `timing.finder_launches_skipped`) and compare against a list
    /// captured from an earlier run over the same chunk content and PAM
    /// pattern. A replay needs the run's residency token: the list is
    /// tracked under it, and a list still staged under the token is not
    /// uploaded again.
    Replay(&'a CandidateSites),
}

/// The outcome of one chunk run.
#[derive(Debug, Clone)]
pub struct ChunkRun {
    /// Comparer entries per prepared query (empty when the chunk has no
    /// candidates).
    pub per_query: Vec<QueryEntries>,
    /// The payload was resident under the run's token and not uploaded.
    pub reused: bool,
    /// The finder's candidate list, when the run was a [`Sites::Capture`].
    pub captured: Option<CandidateSites>,
}

/// Comparer entries `(locus, direction, mismatches)` for one query on one
/// chunk, in device compaction order. Map them into [`crate::OffTarget`]
/// records with [`super::entries_to_offtargets`].
pub type QueryEntries = Vec<(u32, u8, u16)>;

/// The finder's candidate list for one (chunk content, PAM pattern) pair,
/// read back to the host so a candidate cache can replay it into later runs
/// without launching the finder again. The list depends only on the chunk
/// bytes and the compiled pattern — never on the queries — so it is valid
/// across all three chunk encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSites {
    /// Candidate loci (chunk-relative), in finder compaction order.
    pub loci: Vec<u32>,
    /// Strand flags per candidate (see the finder's `FLAG_*` constants).
    pub flags: Vec<u8>,
}

impl CandidateSites {
    /// Number of candidate sites.
    pub fn len(&self) -> usize {
        self.loci.len()
    }

    /// True when the finder produced no candidates.
    pub fn is_empty(&self) -> bool {
        self.loci.is_empty()
    }

    /// Host bytes held by the list (4-byte locus + 1-byte flag per site) —
    /// the unit a byte-budget cache charges, and the h2d traffic a
    /// device-resident replay avoids.
    pub fn byte_len(&self) -> usize {
        self.loci.len() * (std::mem::size_of::<u32>() + 1)
    }
}

/// The encoding a run staged, with the device buffers holding it — the
/// one thing the finder and comparer steps branch on.
enum Staged<R, P, N> {
    /// Decoded char bases.
    Char(R),
    /// 2-bit packed words plus N-mask.
    TwoBit(P),
    /// 4-bit nibble words.
    FourBit(N),
}

impl<R, P, N> Staged<R, P, N> {
    /// The staged encoding's pick among per-encoding counterparts.
    fn pick<T>(&self, char: T, two_bit: T, four_bit: T) -> T {
        match self {
            Staged::Char(_) => char,
            Staged::TwoBit(_) => two_bit,
            Staged::FourBit(_) => four_bit,
        }
    }
}

/// Message of the replay-without-token contract violation.
const REPLAY_TOKEN: &str = "a replay tracks its candidate list by the run's residency token";

/// One set of device buffers holding a resident payload, tagged with the
/// caller's residency token. Interior mutability keeps the runner's `&self`
/// API: the metadata changes on every run, the buffers never move.
struct Slot<B> {
    bufs: B,
    token: Cell<Option<u64>>,
    tick: Cell<u64>,
}

impl<B> Slot<B> {
    fn new(bufs: B) -> Self {
        Slot {
            bufs,
            token: Cell::new(None),
            tick: Cell::new(0),
        }
    }
}

/// Device side of a 2-bit payload: packed words, N-mask and the exception
/// arrays the packed finder patches in. (A nibble slot is the nibble words
/// alone — case and host exceptions never affect matching.)
struct PackedBufs {
    packed: ClBuffer<u8>,
    mask: ClBuffer<u8>,
    exc_pos: ClBuffer<u32>,
    exc_val: ClBuffer<u8>,
}

/// What an OpenCL run staged: the `chr` scratch, or a resident slot.
type OclStaged<'a> = Staged<(), &'a Slot<PackedBufs>, &'a Slot<ClBuffer<u8>>>;

/// Device-side machinery of the fused multi-guide comparer path: the three
/// generic `comparer_multi*` kernels plus scratch sized for one block of up
/// to [`GUIDE_BLOCK`] guides and its four-array compacted output (every
/// candidate can pass on both strands of every guide).
struct MultiScratch {
    comparer_multi: Kernel,
    comparer_multi_2bit: Kernel,
    comparer_multi_4bit: Kernel,
    comp: ClBuffer<u8>,
    comp_index: ClBuffer<i32>,
    thresholds: ClBuffer<u16>,
    mm_count: ClBuffer<u16>,
    direction: ClBuffer<u8>,
    mm_loci: ClBuffer<u32>,
    guide: ClBuffer<u16>,
}

/// Unwrap a comparison-table buffer on the generic comparer path. The
/// buffers are only skipped when the runner specializes, and then the
/// specialized branch runs instead of this one.
fn generic_table<T>(buf: &Option<T>) -> &T {
    buf.as_ref()
        .expect("generic comparers always have uploaded tables")
}

/// One prepared OpenCL query: comparison-table buffers (`None` when the
/// runner specializes) and the mismatch threshold.
type OclQueryEntry = (Option<ClBuffer<u8>>, Option<ClBuffer<i32>>, u16);

/// Per-query device tables for the OpenCL comparer: the compiled two-strand
/// sequence, its index table, and the mismatch threshold.
///
/// When the runner specializes, the tables also keep each query's
/// [`CompiledSeq`] (the fold input) and a lazily built per-(query, kind)
/// one-kernel [`Program`] cache — specialized kernels embed the pattern, so
/// they cannot be shared across queries the way the generic kernels are.
/// The comparison-table buffers are `None` in that case: the folded
/// comparers carry the pattern and guide as immediates and never read
/// them, so their uploads (two per query per batch, each with a fixed
/// per-transfer charge) are skipped outright.
pub struct OclQueryTables {
    entries: Vec<OclQueryEntry>,
    spec_queries: Vec<CompiledSeq>,
    spec_kernels: RefCell<HashMap<(usize, VariantKind), (Program, Kernel)>>,
}

impl OclQueryTables {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no queries are prepared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Step 13: explicitly release the query buffers.
    pub fn release(self) {
        for (c, ci, _) in self.entries {
            if let Some(c) = c {
                c.release();
            }
            if let Some(ci) = ci {
                ci.release();
            }
        }
        for (_, (program, kernel)) in self.spec_kernels.into_inner() {
            kernel.release();
            program.release();
        }
    }
}

/// The OpenCL flavour of the chunk-level API: owns the 13-step machinery
/// (context, queue, program, both kernels) plus scratch buffers sized for
/// chunks of up to `chunk_size` owned positions.
pub struct OclChunkRunner {
    ctx: Context,
    queue: CommandQueue,
    program: Program,
    finder: Kernel,
    finder_packed: Kernel,
    finder_nibble: Kernel,
    comparer: Kernel,
    comparer_2bit: Kernel,
    comparer_4bit: Kernel,
    /// The specialized nibble finder, present when the runner specializes:
    /// the PAM pattern is known at construction, so its variant lives in the
    /// main program rather than a per-query one.
    spec_finder_nibble: Option<Kernel>,
    specialize: bool,
    pattern: CompiledSeq,
    chr: ClBuffer<u8>,
    chr_token: Cell<Option<u64>>,
    slots: Vec<Slot<PackedBufs>>,
    nibble_slots: Vec<Slot<ClBuffer<u8>>>,
    slot_clock: Cell<u64>,
    pat: ClBuffer<u8>,
    pat_index: ClBuffer<i32>,
    loci: ClBuffer<u32>,
    flags: ClBuffer<u8>,
    fcount: ClBuffer<u32>,
    mm_count: ClBuffer<u16>,
    direction: ClBuffer<u8>,
    mm_loci: ClBuffer<u32>,
    ecount: ClBuffer<u32>,
    /// Fused multi-guide machinery, present when the runner is built with
    /// [`PipelineConfig::multi_guide`].
    multi: Option<MultiScratch>,
    /// Lazily built specialized fused programs, keyed by (encoding tag,
    /// shared block threshold) — the folded PAM pattern is fixed per runner,
    /// so it does not participate in the key.
    spec_multi_kernels: RefCell<HashMap<(u8, u16), (Program, Kernel)>>,
    /// Identity `(token, len)` of the candidate list currently staged in
    /// `loci`/`flags`, when the producing run carried a residency token.
    cand_token: Cell<Option<(u64, u32)>>,
    cap: usize,
    lws: Option<usize>,
    rounding: usize,
}

impl OclChunkRunner {
    /// Build the runner for `pattern_seq` on `config`'s device: steps 1-8
    /// of Table I plus the step-5 scratch allocations, exactly as the
    /// serial OpenCL application performs them.
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures (context, build, allocation).
    pub fn new(config: &PipelineConfig, pattern_seq: &[u8]) -> ClResult<Self> {
        let device_id = ClDeviceId::from_spec(config.device.clone());
        let ctx = Context::with_mode(&[device_id], config.exec)?;
        let queue = CommandQueue::new(&ctx, 0)?;

        let pattern = CompiledSeq::compile(pattern_seq);
        let plen = pattern.plen();

        let mut source = KernelSource::new()
            .with_function(Arc::new(ClFinder))
            .with_function(Arc::new(ClPackedFinder))
            .with_function(Arc::new(ClNibbleFinder))
            .with_function(Arc::new(ClComparer::new(config.opt)))
            .with_function(Arc::new(ClTwoBitComparer))
            .with_function(Arc::new(ClFourBitComparer));
        if config.specialize {
            let variant =
                specialize::global_cache().get_or_compile(VariantKind::NibbleFinder, &pattern, 0);
            source = source.with_function(Arc::new(ClSpecializedNibbleFinder { variant }));
        }
        if config.multi_guide {
            source = source
                .with_function(Arc::new(ClMultiComparer))
                .with_function(Arc::new(ClTwoBitMultiComparer))
                .with_function(Arc::new(ClFourBitMultiComparer));
        }
        let program = Program::create_with_source(&ctx, source);
        program.build("-O3")?;
        let finder = program.create_kernel("finder")?;
        let finder_packed = program.create_kernel("finder_packed")?;
        let finder_nibble = program.create_kernel("finder_nibble")?;
        let comparer = program.create_kernel("comparer")?;
        let comparer_2bit = program.create_kernel("comparer_2bit")?;
        let comparer_4bit = program.create_kernel("comparer_4bit")?;
        let spec_finder_nibble = if config.specialize {
            Some(program.create_kernel(VariantKind::NibbleFinder.kernel_name())?)
        } else {
            None
        };
        let cap = config.chunk_size;

        let chr = ClBuffer::<u8>::create(&ctx, MemFlags::ReadWrite, cap + plen)?;
        // Scratch for the packed upload path: worst case every base carries
        // an exception, so the exception arrays are sized like the chunk.
        // One slot per resident chunk the runner may keep on-device.
        let slots = (0..config.resident_slots.max(1))
            .map(|_| {
                Ok(Slot::new(PackedBufs {
                    packed: ClBuffer::<u8>::create(
                        &ctx,
                        MemFlags::ReadOnly,
                        (cap + plen).div_ceil(4),
                    )?,
                    mask: ClBuffer::<u8>::create(
                        &ctx,
                        MemFlags::ReadOnly,
                        (cap + plen).div_ceil(8),
                    )?,
                    exc_pos: ClBuffer::<u32>::create(&ctx, MemFlags::ReadOnly, cap + plen)?,
                    exc_val: ClBuffer::<u8>::create(&ctx, MemFlags::ReadOnly, cap + plen)?,
                }))
            })
            .collect::<ClResult<Vec<_>>>()?;
        let nibble_slots = (0..config.resident_slots.max(1))
            .map(|_| {
                ClBuffer::<u8>::create(&ctx, MemFlags::ReadOnly, (cap + plen).div_ceil(2))
                    .map(Slot::new)
            })
            .collect::<ClResult<Vec<_>>>()?;
        let pat = ClBuffer::create_with_data(&ctx, MemFlags::Constant, pattern.comp())?;
        let pat_index = ClBuffer::create_with_data(&ctx, MemFlags::Constant, pattern.comp_index())?;
        let loci = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, cap)?;
        let flags = ClBuffer::<u8>::create(&ctx, MemFlags::ReadWrite, cap)?;
        let fcount = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, 1)?;
        let mm_count = ClBuffer::<u16>::create(&ctx, MemFlags::WriteOnly, 2 * cap)?;
        let direction = ClBuffer::<u8>::create(&ctx, MemFlags::WriteOnly, 2 * cap)?;
        let mm_loci = ClBuffer::<u32>::create(&ctx, MemFlags::WriteOnly, 2 * cap)?;
        let ecount = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, 1)?;

        // Scratch for the fused multi-guide path: block tables for up to
        // GUIDE_BLOCK guides plus output arrays sized for the worst case of
        // every candidate passing on both strands of every guide.
        let multi = if config.multi_guide {
            Some(MultiScratch {
                comparer_multi: program.create_kernel("comparer_multi")?,
                comparer_multi_2bit: program.create_kernel("comparer_multi_2bit")?,
                comparer_multi_4bit: program.create_kernel("comparer_multi_4bit")?,
                comp: ClBuffer::<u8>::create(&ctx, MemFlags::ReadOnly, GUIDE_BLOCK * 2 * plen)?,
                comp_index: ClBuffer::<i32>::create(
                    &ctx,
                    MemFlags::ReadOnly,
                    GUIDE_BLOCK * 2 * plen,
                )?,
                thresholds: ClBuffer::<u16>::create(&ctx, MemFlags::ReadOnly, GUIDE_BLOCK)?,
                mm_count: ClBuffer::<u16>::create(
                    &ctx,
                    MemFlags::WriteOnly,
                    GUIDE_BLOCK * 2 * cap,
                )?,
                direction: ClBuffer::<u8>::create(
                    &ctx,
                    MemFlags::WriteOnly,
                    GUIDE_BLOCK * 2 * cap,
                )?,
                mm_loci: ClBuffer::<u32>::create(&ctx, MemFlags::WriteOnly, GUIDE_BLOCK * 2 * cap)?,
                guide: ClBuffer::<u16>::create(&ctx, MemFlags::WriteOnly, GUIDE_BLOCK * 2 * cap)?,
            })
        } else {
            None
        };

        let lws = config.work_group_size;
        Ok(OclChunkRunner {
            ctx,
            queue,
            program,
            finder,
            finder_packed,
            finder_nibble,
            comparer,
            comparer_2bit,
            comparer_4bit,
            spec_finder_nibble,
            specialize: config.specialize,
            pattern,
            chr,
            chr_token: Cell::new(None),
            slots,
            nibble_slots,
            slot_clock: Cell::new(0),
            pat,
            pat_index,
            loci,
            flags,
            fcount,
            mm_count,
            direction,
            mm_loci,
            ecount,
            multi,
            spec_multi_kernels: RefCell::new(HashMap::new()),
            cand_token: Cell::new(None),
            cap,
            lws,
            rounding: lws.unwrap_or(64),
        })
    }

    /// Pattern length (PAM window) the runner was compiled for.
    pub fn plen(&self) -> usize {
        self.pattern.plen()
    }

    /// Upload the comparer tables for `queries`; the tables can be reused
    /// across every chunk of a search (the comparer's `comp` is a plain
    /// global pointer, so each query needs its own pair).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn prepare_queries(&self, queries: &[Query]) -> ClResult<OclQueryTables> {
        let mut spec_queries = Vec::new();
        // The fused multi-guide path concatenates block tables from the
        // compiled sequences at launch time, so — exactly as under
        // specialization — per-query table buffers would be dead weight. A
        // single query never fuses and keeps the serial tables.
        let fused = self.multi.is_some() && queries.len() > 1;
        let entries = queries
            .iter()
            .map(|q| {
                let c = CompiledSeq::compile(&q.seq);
                // Specialized comparers fold the compiled sequence into the
                // kernel body, so the table uploads would be dead weight.
                // The generic path pays them through the queue — two real
                // `clEnqueueWriteBuffer` transfers per query, the same
                // traffic the SYCL accessors charge implicitly.
                let e = if self.specialize || fused {
                    (None, None, q.max_mismatches)
                } else {
                    let comp_buf = ClBuffer::create(&self.ctx, MemFlags::ReadOnly, c.comp().len())?;
                    let comp_index_buf =
                        ClBuffer::create(&self.ctx, MemFlags::ReadOnly, c.comp_index().len())?;
                    self.queue
                        .enqueue_write_buffer(&comp_buf, true, 0, c.comp())?;
                    self.queue
                        .enqueue_write_buffer(&comp_index_buf, true, 0, c.comp_index())?;
                    (Some(comp_buf), Some(comp_index_buf), q.max_mismatches)
                };
                if self.specialize || fused {
                    spec_queries.push(c);
                }
                Ok(e)
            })
            .collect::<ClResult<_>>()?;
        Ok(OclQueryTables {
            entries,
            spec_queries,
            spec_kernels: RefCell::new(HashMap::new()),
        })
    }

    /// Fetch (building on first use) the specialized comparer kernel for
    /// query `qi` of `tables`. The variant comes from the process-wide
    /// single-flight cache; the per-query one-kernel program is cached in
    /// the tables so repeated chunks over the same batch reuse it.
    fn spec_kernel<'m>(
        &self,
        map: &'m mut HashMap<(usize, VariantKind), (Program, Kernel)>,
        tables_queries: &[CompiledSeq],
        qi: usize,
        kind: VariantKind,
        threshold: u16,
    ) -> ClResult<&'m Kernel> {
        use std::collections::hash_map::Entry;
        match map.entry((qi, kind)) {
            Entry::Occupied(e) => Ok(&e.into_mut().1),
            Entry::Vacant(v) => {
                let variant =
                    specialize::global_cache().get_or_compile(kind, &tables_queries[qi], threshold);
                let f: Arc<dyn opencl_rt::ClKernelFunction> = match kind {
                    VariantKind::CharComparer => Arc::new(ClSpecializedComparer { variant }),
                    VariantKind::TwoBitComparer => {
                        Arc::new(ClSpecializedTwoBitComparer { variant })
                    }
                    VariantKind::FourBitComparer => {
                        Arc::new(ClSpecializedFourBitComparer { variant })
                    }
                    VariantKind::NibbleFinder => Arc::new(ClSpecializedNibbleFinder { variant }),
                    // Fused blocks build their kernels through
                    // `spec_multi_kernel`, keyed by encoding + threshold
                    // rather than by query.
                    VariantKind::MultiComparer => {
                        unreachable!("multi-guide variants are built per block, not per query")
                    }
                };
                let program =
                    Program::create_with_source(&self.ctx, KernelSource::new().with_function(f));
                program.build("-O3")?;
                let kernel = program.create_kernel(kind.kernel_name())?;
                Ok(&v.insert((program, kernel)).1)
            }
        }
    }

    /// Fetch (building on first use) the specialized fused comparer for the
    /// staged encoding and shared block threshold. The variant folds the
    /// runner's PAM pattern and the threshold — the guide tables stay
    /// staged data — so the cache key is just (encoding, threshold).
    fn spec_multi_kernel<'m>(
        &self,
        map: &'m mut HashMap<(u8, u16), (Program, Kernel)>,
        staged: &OclStaged<'_>,
        threshold: u16,
    ) -> ClResult<&'m Kernel> {
        use std::collections::hash_map::Entry;
        match map.entry((staged.pick(0, 1, 2), threshold)) {
            Entry::Occupied(e) => Ok(&e.into_mut().1),
            Entry::Vacant(v) => {
                let variant = specialize::global_cache().get_or_compile(
                    VariantKind::MultiComparer,
                    &self.pattern,
                    threshold,
                );
                let (f, name): (Arc<dyn opencl_rt::ClKernelFunction>, &str) = match staged {
                    Staged::Char(_) => (
                        Arc::new(ClSpecializedMultiComparer { variant }),
                        VariantKind::MultiComparer.kernel_name(),
                    ),
                    Staged::TwoBit(_) => (
                        Arc::new(ClSpecializedTwoBitMultiComparer { variant }),
                        "comparer_multi-2bit-spec",
                    ),
                    Staged::FourBit(_) => (
                        Arc::new(ClSpecializedFourBitMultiComparer { variant }),
                        "comparer_multi-4bit-spec",
                    ),
                };
                let program =
                    Program::create_with_source(&self.ctx, KernelSource::new().with_function(f));
                program.build("-O3")?;
                let kernel = program.create_kernel(name)?;
                Ok(&v.insert((program, kernel)).1)
            }
        }
    }

    /// Run one finder→comparer interaction on raw `seq` with no residency:
    /// upload it, select candidate loci once, then compare every prepared
    /// query against them. Returns the surviving entries per query (empty
    /// inner vectors when the finder produced no candidates).
    ///
    /// `seq` holds `scan_len` owned positions plus up to `plen` trailing
    /// context bases; kernel and transfer costs accumulate into `timing`
    /// and `profile`.
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk exceeds the runner's configured capacity.
    pub fn run_chunk(
        &self,
        seq: &[u8],
        scan_len: usize,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
    ) -> ClResult<Vec<QueryEntries>> {
        self.run(
            Payload::Raw(seq),
            scan_len,
            None,
            Sites::Find,
            tables,
            timing,
            profile,
        )
        .map(|run| run.per_query)
    }

    /// Run one finder→comparer interaction on payload `p`.
    ///
    /// With a `token`, the runner keeps the payload resident: raw bases in
    /// the `chr` scratch (which the decoding finders overwrite), 2-bit and
    /// 4-bit payloads in the least-recently-used of their `resident_slots`
    /// slots. A later run under the same token skips the upload (recorded
    /// on the device as skipped h2d traffic) and reports `reused`. The
    /// token is the *caller's* identity for the chunk content — two
    /// different chunks must never share one.
    ///
    /// A 2-bit run decodes on-device in its finder and compares directly on
    /// the packed words; a 4-bit run does the same on the nibbles, which
    /// carry the full IUPAC semantics. Either way the entries are
    /// byte-identical to the raw run over the decoded bases.
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk or a replayed list exceeds the runner's
    /// capacity, if a packed payload is not [`twobit_compare_safe`], or if
    /// a [`Sites::Replay`] carries no token.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        p: Payload<'_>,
        scan_len: usize,
        token: Option<u64>,
        sites: Sites<'_>,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
    ) -> ClResult<ChunkRun> {
        assert!(
            p.seq_len() <= self.cap + self.pattern.plen() && scan_len <= self.cap,
            "chunk ({} bases, {scan_len} scanned) exceeds runner capacity {}",
            p.seq_len(),
            self.cap
        );
        p.assert_compare_safe();
        let (staged, reused) = self.stage(p, token, timing)?;
        if reused {
            self.queue.device().record_h2d_skipped(p.upload_bytes());
        }
        let (n, captured) = self.find(&staged, p, scan_len, token, sites, timing, profile)?;
        let mut per_query = vec![Vec::new(); tables.len()];
        if n > 0 {
            self.compare(&staged, n, tables, timing, profile, &mut per_query)?;
        }
        Ok(ChunkRun {
            per_query,
            reused,
            captured,
        })
    }

    /// Upload-only warmup: stage `p` under `token` without launching a
    /// kernel, so a later [`run`](Self::run) with the same token skips the
    /// transfer. Returns whether an upload actually happened (`false` when
    /// the token was already resident).
    ///
    /// # Errors
    ///
    /// Propagates OpenCL-level failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk exceeds the runner's configured capacity.
    pub fn prefetch(&self, token: u64, p: Payload<'_>) -> ClResult<bool> {
        assert!(
            p.seq_len() <= self.cap + self.pattern.plen(),
            "chunk ({} bases) exceeds runner capacity {}",
            p.seq_len(),
            self.cap
        );
        let (_, reused) = self.stage(p, Some(token), &mut TimingBreakdown::default())?;
        Ok(!reused)
    }

    /// Claim the slot for `token`: the one already holding it (a hit), else
    /// the least-recently-used slot, retagged.
    fn claim<'s, B>(&self, slots: &'s [Slot<B>], token: Option<u64>) -> (&'s Slot<B>, bool) {
        let hit = token.and_then(|t| slots.iter().find(|s| s.token.get() == Some(t)));
        let slot = hit.unwrap_or_else(|| {
            let lru = slots
                .iter()
                .min_by_key(|s| s.tick.get())
                .expect("runner always has at least one slot");
            lru.token.set(token);
            lru
        });
        self.slot_clock.set(self.slot_clock.get() + 1);
        slot.tick.set(self.slot_clock.get());
        (slot, hit.is_some())
    }

    /// Step 11 (host->device): put `p` on the device — unless it is still
    /// resident under `token` — and report which encoding is staged and
    /// whether the resident copy was reused.
    fn stage(
        &self,
        p: Payload<'_>,
        token: Option<u64>,
        timing: &mut TimingBreakdown,
    ) -> ClResult<(OclStaged<'_>, bool)> {
        let q = &self.queue;
        Ok(match p {
            Payload::Raw(seq) => {
                let reused = token.is_some() && self.chr_token.get() == token;
                if !reused {
                    timing.transfer_s += q
                        .enqueue_write_buffer(&self.chr, true, 0, seq)?
                        .duration_s();
                    self.chr_token.set(token);
                }
                (Staged::Char(()), reused)
            }
            Payload::Packed(packed) => {
                let (slot, reused) = self.claim(&self.slots, token);
                if !reused {
                    let b = &slot.bufs;
                    let w1 = q.enqueue_write_buffer(&b.packed, true, 0, packed.packed_bytes())?;
                    let w2 = q.enqueue_write_buffer(&b.mask, true, 0, packed.mask_bytes())?;
                    timing.transfer_s += w1.duration_s() + w2.duration_s();
                    if !packed.exceptions().is_empty() {
                        let (pos, val) = packed.exception_arrays();
                        let e1 = q.enqueue_write_buffer(&b.exc_pos, true, 0, &pos)?;
                        let e2 = q.enqueue_write_buffer(&b.exc_val, true, 0, &val)?;
                        timing.transfer_s += e1.duration_s() + e2.duration_s();
                    }
                }
                (Staged::TwoBit(slot), reused)
            }
            Payload::Nibble(nibble) => {
                let (slot, reused) = self.claim(&self.nibble_slots, token);
                if !reused {
                    let w = q.enqueue_write_buffer(&slot.bufs, true, 0, nibble.nibble_bytes())?;
                    timing.transfer_s += w.duration_s();
                }
                (Staged::FourBit(slot), reused)
            }
        })
    }

    /// Launch `k` with `args` over `items` work-items (rounded up to the
    /// work-group size, step 10), wait (step 12) and profile it; returns
    /// the kernel's execution time.
    fn launch(
        &self,
        k: &Kernel,
        args: Vec<KernelArg>,
        items: usize,
        profile: &mut gpu_sim::profile::Profile,
    ) -> ClResult<f64> {
        for (i, arg) in args.into_iter().enumerate() {
            k.set_arg(i, arg)?;
        }
        let ev = self
            .queue
            .enqueue_nd_range_kernel(k, round_up(items, self.rounding), self.lws)?;
        ev.wait();
        if let Some(r) = ev.launch_report() {
            profile.record_ref(r);
        }
        Ok(ev
            .launch_report()
            .map(|r| r.exec_time_s)
            .unwrap_or_else(|| ev.duration_s()))
    }

    /// Produce the candidate list in `loci`/`flags` and return its length
    /// (plus the read-back list under [`Sites::Capture`]): launch the
    /// finder flavour of the staged encoding, or stage a replayed list —
    /// skipping even that upload when the same list is still resident from
    /// an earlier run under the token.
    #[allow(clippy::too_many_arguments)]
    fn find(
        &self,
        staged: &OclStaged<'_>,
        p: Payload<'_>,
        scan_len: usize,
        token: Option<u64>,
        sites: Sites<'_>,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
    ) -> ClResult<(usize, Option<CandidateSites>)> {
        if let Sites::Replay(list) = sites {
            let (token, n) = (token.expect(REPLAY_TOKEN), list.len());
            assert!(n <= self.cap, "candidate list exceeds runner capacity");
            self.queue.device().record_launch_skipped();
            timing.finder_launches_skipped += 1;
            timing.candidates += n as u64;
            if self.cand_token.get() == Some((token, n as u32)) {
                self.queue
                    .device()
                    .record_h2d_skipped(list.byte_len() as u64);
            } else {
                if n > 0 {
                    let w1 = self
                        .queue
                        .enqueue_write_buffer(&self.loci, true, 0, &list.loci)?;
                    let w2 = self
                        .queue
                        .enqueue_write_buffer(&self.flags, true, 0, &list.flags)?;
                    timing.transfer_s += w1.duration_s() + w2.duration_s();
                }
                self.cand_token.set(Some((token, n as u32)));
            }
            return Ok((n, None));
        }
        let plen = self.pattern.plen();
        let w = self.queue.enqueue_fill_buffer(&self.fcount, 0u32)?;
        timing.transfer_s += w.duration_s();

        // Step 9: finder arguments. The specialized nibble finder scans the
        // nibble words directly, leaving the `chr` scratch untouched (and
        // valid); every other flavour scans `chr`, the packed and nibble
        // ones after decoding their payload into it.
        let (loci, flags) = (self.loci.device_buffer(), self.flags.device_buffer());
        let fcount = self.fcount.device_buffer();
        let (k, args) = match (staged, &self.spec_finder_nibble) {
            (Staged::FourBit(slot), Some(k)) => (
                k,
                vec![
                    KernelArg::BufU8(slot.bufs.device_buffer()),
                    KernelArg::BufU32(loci),
                    KernelArg::BufU8(flags),
                    KernelArg::BufU32(fcount),
                    KernelArg::U32(scan_len as u32),
                    KernelArg::U32(p.seq_len() as u32),
                ],
            ),
            _ => {
                let (k, mut args) = match staged {
                    Staged::Char(()) => (&self.finder, vec![]),
                    Staged::TwoBit(slot) => (
                        &self.finder_packed,
                        vec![
                            KernelArg::BufU8(slot.bufs.packed.device_buffer()),
                            KernelArg::BufU8(slot.bufs.mask.device_buffer()),
                            KernelArg::BufU32(slot.bufs.exc_pos.device_buffer()),
                            KernelArg::BufU8(slot.bufs.exc_val.device_buffer()),
                            KernelArg::U32(p.exceptions() as u32),
                        ],
                    ),
                    Staged::FourBit(slot) => (
                        &self.finder_nibble,
                        vec![KernelArg::BufU8(slot.bufs.device_buffer())],
                    ),
                };
                if !matches!(staged, Staged::Char(_)) {
                    self.chr_token.set(None);
                }
                args.extend([
                    KernelArg::BufU8(self.chr.device_buffer()),
                    KernelArg::BufU8(self.pat.device_buffer()),
                    KernelArg::BufI32(self.pat_index.device_buffer()),
                    KernelArg::BufU32(loci),
                    KernelArg::BufU8(flags),
                    KernelArg::BufU32(fcount),
                    KernelArg::U32(scan_len as u32),
                    KernelArg::U32(p.seq_len() as u32),
                    KernelArg::U32(plen as u32),
                    KernelArg::Local { bytes: 2 * plen },
                    KernelArg::Local { bytes: 8 * plen },
                ]);
                (k, args)
            }
        };
        timing.finder_s += self.launch(k, args, scan_len, profile)?;
        timing.finder_launches += 1;

        let mut n = [0u32];
        let r = self
            .queue
            .enqueue_read_buffer(&self.fcount, true, 0, &mut n)?;
        timing.transfer_s += r.duration_s();
        let n = n[0] as usize;
        timing.candidates += n as u64;
        self.cand_token.set(token.map(|t| (t, n as u32)));
        if !matches!(sites, Sites::Capture) {
            return Ok((n, None));
        }
        let mut list = CandidateSites {
            loci: vec![0u32; n],
            flags: vec![0u8; n],
        };
        if n > 0 {
            let r1 = self
                .queue
                .enqueue_read_buffer(&self.loci, true, 0, &mut list.loci)?;
            let r2 = self
                .queue
                .enqueue_read_buffer(&self.flags, true, 0, &mut list.flags)?;
            timing.transfer_s += r1.duration_s() + r2.duration_s();
        }
        Ok((n, Some(list)))
    }

    /// Comparer stage against the `n` candidates staged in `loci`/`flags`:
    /// one launch per prepared query on the staged encoding — or, on a
    /// multi-guide runner with several queries, one `comparer_multi*`
    /// launch per block of up to [`GUIDE_BLOCK`] guides (`ceil(k /
    /// GUIDE_BLOCK)` launches instead of `k`), whose guide-tagged output
    /// demultiplexes, in compaction order, into byte-identical per-query
    /// entries. A fused block whose guides share one threshold runs the
    /// threshold-folded variant when the runner specializes; mixed
    /// thresholds stage the per-guide table instead.
    fn compare(
        &self,
        staged: &OclStaged<'_>,
        n: usize,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
        per_query: &mut [QueryEntries],
    ) -> ClResult<()> {
        let plen = self.pattern.plen();
        let q = &self.queue;
        let fused = self.multi.as_ref().filter(|_| tables.len() > 1);
        let block = if fused.is_some() { GUIDE_BLOCK } else { 1 };
        let mut spec_kernels = tables.spec_kernels.borrow_mut();
        let mut spec_multi_kernels = self.spec_multi_kernels.borrow_mut();
        let mut start = 0;
        while start < tables.len() {
            let g = (tables.len() - start).min(block);
            let mut args = match staged {
                Staged::Char(()) => vec![KernelArg::BufU8(self.chr.device_buffer())],
                Staged::TwoBit(slot) => vec![
                    KernelArg::BufU8(slot.bufs.packed.device_buffer()),
                    KernelArg::BufU8(slot.bufs.mask.device_buffer()),
                ],
                Staged::FourBit(slot) => vec![KernelArg::BufU8(slot.bufs.device_buffer())],
            };
            args.extend([
                KernelArg::BufU32(self.loci.device_buffer()),
                KernelArg::BufU8(self.flags.device_buffer()),
            ]);
            let k = if let Some(multi) = fused {
                // Concatenate the block's tables host-side: guide `bi`
                // occupies `[fwd | rc]` at offset `bi * 2 * plen`. Uploads
                // are per block, not per guide.
                let mut comp = vec![0u8; g * 2 * plen];
                let mut comp_index = vec![0i32; g * 2 * plen];
                let mut thresholds = vec![0u16; g];
                for bi in 0..g {
                    let c = &tables.spec_queries[start + bi];
                    comp[bi * 2 * plen..(bi + 1) * 2 * plen].copy_from_slice(c.comp());
                    comp_index[bi * 2 * plen..(bi + 1) * 2 * plen].copy_from_slice(c.comp_index());
                    thresholds[bi] = tables.entries[start + bi].2;
                }
                let w1 = q.enqueue_write_buffer(&multi.comp, true, 0, &comp)?;
                let w2 = q.enqueue_write_buffer(&multi.comp_index, true, 0, &comp_index)?;
                let wz = q.enqueue_fill_buffer(&self.ecount, 0u32)?;
                timing.transfer_s += w1.duration_s() + w2.duration_s() + wz.duration_s();
                let folded = self.specialize && thresholds.iter().all(|&t| t == thresholds[0]);
                if !folded {
                    let w3 = q.enqueue_write_buffer(&multi.thresholds, true, 0, &thresholds)?;
                    timing.transfer_s += w3.duration_s();
                }
                args.push(KernelArg::BufU8(multi.comp.device_buffer()));
                args.push(KernelArg::BufI32(multi.comp_index.device_buffer()));
                if !folded {
                    args.push(KernelArg::BufU16(multi.thresholds.device_buffer()));
                }
                args.extend([
                    KernelArg::U32(n as u32),
                    KernelArg::U32(plen as u32),
                    KernelArg::U32(g as u32),
                    KernelArg::BufU16(multi.mm_count.device_buffer()),
                    KernelArg::BufU8(multi.direction.device_buffer()),
                    KernelArg::BufU32(multi.mm_loci.device_buffer()),
                    KernelArg::BufU16(multi.guide.device_buffer()),
                    KernelArg::BufU32(self.ecount.device_buffer()),
                    KernelArg::Local {
                        bytes: g * 2 * plen,
                    },
                    KernelArg::Local {
                        bytes: g * 2 * plen * 4,
                    },
                ]);
                if folded {
                    self.spec_multi_kernel(&mut spec_multi_kernels, staged, thresholds[0])?
                } else {
                    args.push(KernelArg::Local { bytes: g * 2 });
                    staged.pick(
                        &multi.comparer_multi,
                        &multi.comparer_multi_2bit,
                        &multi.comparer_multi_4bit,
                    )
                }
            } else {
                let wz = q.enqueue_fill_buffer(&self.ecount, 0u32)?;
                timing.transfer_s += wz.duration_s();
                let (comp, comp_index, threshold) = &tables.entries[start];
                let outs = [
                    KernelArg::BufU16(self.mm_count.device_buffer()),
                    KernelArg::BufU8(self.direction.device_buffer()),
                    KernelArg::BufU32(self.mm_loci.device_buffer()),
                    KernelArg::BufU32(self.ecount.device_buffer()),
                ];
                if self.specialize && !tables.spec_queries.is_empty() {
                    args.extend(outs);
                    args.push(KernelArg::U32(n as u32));
                    let kind = staged.pick(
                        VariantKind::CharComparer,
                        VariantKind::TwoBitComparer,
                        VariantKind::FourBitComparer,
                    );
                    self.spec_kernel(
                        &mut spec_kernels,
                        &tables.spec_queries,
                        start,
                        kind,
                        *threshold,
                    )?
                } else {
                    args.extend([
                        KernelArg::BufU8(generic_table(comp).device_buffer()),
                        KernelArg::BufI32(generic_table(comp_index).device_buffer()),
                        KernelArg::U32(n as u32),
                        KernelArg::U32(plen as u32),
                        KernelArg::U16(*threshold),
                    ]);
                    args.extend(outs);
                    args.push(KernelArg::Local { bytes: 2 * plen });
                    args.push(KernelArg::Local { bytes: 8 * plen });
                    staged.pick(&self.comparer, &self.comparer_2bit, &self.comparer_4bit)
                }
            };
            timing.comparer_s += self.launch(k, args, n, profile)?;
            timing.comparer_launches += 1;
            timing.fused_launches += usize::from(fused.is_some());

            // Step 11 (device->host): read back the surviving entries.
            let mut m = [0u32];
            let r = q.enqueue_read_buffer(&self.ecount, true, 0, &mut m)?;
            timing.transfer_s += r.duration_s();
            let m = m[0] as usize;
            timing.entries += m as u64;
            if m > 0 {
                let (mm_buf, dir_buf, pos_buf) = match fused {
                    Some(multi) => (&multi.mm_count, &multi.direction, &multi.mm_loci),
                    None => (&self.mm_count, &self.direction, &self.mm_loci),
                };
                let mut mm = vec![0u16; m];
                let mut dir = vec![0u8; m];
                let mut pos = vec![0u32; m];
                let mut gid = vec![0u16; m];
                let r1 = q.enqueue_read_buffer(mm_buf, true, 0, &mut mm)?;
                let r2 = q.enqueue_read_buffer(dir_buf, true, 0, &mut dir)?;
                let r3 = q.enqueue_read_buffer(pos_buf, true, 0, &mut pos)?;
                let mut read_s = r1.duration_s() + r2.duration_s() + r3.duration_s();
                if let Some(multi) = fused {
                    read_s += q
                        .enqueue_read_buffer(&multi.guide, true, 0, &mut gid)?
                        .duration_s();
                }
                timing.transfer_s += read_s;
                for i in 0..m {
                    per_query[start + gid[i] as usize].push((pos[i], dir[i], mm[i]));
                }
            }
            start += g;
        }
        Ok(())
    }

    /// Block until every enqueued command completes.
    pub fn finish(&self) {
        self.queue.finish();
    }

    /// Simulated queue time consumed so far, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.queue.elapsed_s()
    }

    /// Name of the simulated device the runner drives.
    pub fn device_name(&self) -> String {
        self.queue.device().spec().name.to_owned()
    }

    /// Transfer/launch counters of the underlying simulated device.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.queue.device().traffic()
    }

    /// Step 13: explicitly release every owned object.
    pub fn release(self) {
        self.finder.release();
        self.finder_packed.release();
        self.finder_nibble.release();
        self.comparer.release();
        self.comparer_2bit.release();
        self.comparer_4bit.release();
        if let Some(k) = self.spec_finder_nibble {
            k.release();
        }
        if let Some(m) = self.multi {
            m.comparer_multi.release();
            m.comparer_multi_2bit.release();
            m.comparer_multi_4bit.release();
            m.comp.release();
            m.comp_index.release();
            m.thresholds.release();
            m.mm_count.release();
            m.direction.release();
            m.mm_loci.release();
            m.guide.release();
        }
        for (_, (program, kernel)) in self.spec_multi_kernels.into_inner() {
            kernel.release();
            program.release();
        }
        self.chr.release();
        for slot in self.slots {
            slot.bufs.packed.release();
            slot.bufs.mask.release();
            slot.bufs.exc_pos.release();
            slot.bufs.exc_val.release();
        }
        for slot in self.nibble_slots {
            slot.bufs.release();
        }
        self.pat.release();
        self.pat_index.release();
        self.loci.release();
        self.flags.release();
        self.fcount.release();
        self.mm_count.release();
        self.direction.release();
        self.mm_loci.release();
        self.ecount.release();
        self.program.release();
        self.queue.release();
    }
}

/// Per-query device tables for the SYCL comparer. When the runner
/// specializes, the tables also keep each query's [`CompiledSeq`] so the
/// comparer stages can fold it into per-(pattern, threshold) variants.
pub struct SyclQueryTables {
    entries: Vec<(Buffer<u8>, Buffer<i32>, u16)>,
    spec_queries: Vec<CompiledSeq>,
}

impl SyclQueryTables {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no queries are prepared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The SYCL flavour of the chunk-level API: owns the queue and the
/// constant pattern tables; per-chunk buffers are created fresh each call
/// and released implicitly, the way the migrated application manages
/// memory (§III of the paper).
pub struct SyclChunkRunner {
    queue: Queue,
    pattern: CompiledSeq,
    pat_buf: Buffer<u8>,
    pat_index_buf: Buffer<i32>,
    /// Prefer JIT-specialized kernel variants (see
    /// [`crate::kernels::specialize`]); comparer variants are fetched from
    /// the process-wide cache per (query, threshold) at launch time.
    specialize: bool,
    /// The PAM pattern's nibble-finder variant, folded at construction.
    pam_variant: Option<Arc<CompiledVariant>>,
    opt: OptLevel,
    wgs: usize,
    // Residency: keeping a bound `Buffer` alive *is* residency in the SYCL
    // model — re-binding a bound buffer charges no upload — so the runner
    // retains the chunk buffers of its last `resident_cap` tokens,
    // most-recently-used first.
    resident_cap: usize,
    packed_res: RefCell<Vec<(u64, SyclPackedResident)>>,
    raw_res: RefCell<Vec<(u64, Buffer<u8>)>>,
    nibble_res: RefCell<Vec<(u64, Buffer<u8>)>>,
    /// Fuse multi-query runs into guide-block comparer launches.
    multi_guide: bool,
    /// Still-bound candidate buffers of recent runs, keyed by chunk token —
    /// a replay under a resident token rebinds instead of re-uploading the
    /// list.
    cand_res: RefCell<Vec<(u64, SyclCandidateResident)>>,
}

/// The retained device buffers of one candidate list.
#[derive(Clone)]
struct SyclCandidateResident {
    loci_buf: Buffer<u32>,
    flags_buf: Buffer<u8>,
    len: usize,
}

/// The retained device buffers of one packed chunk payload. Cloning shares
/// the underlying device buffers, so one copy can live in the residency
/// list while another is in use by the current run.
#[derive(Clone)]
struct SyclPackedResident {
    packed_buf: Buffer<u8>,
    mask_buf: Buffer<u8>,
    exc_pos_buf: Buffer<u32>,
    exc_val_buf: Buffer<u8>,
}

impl SyclPackedResident {
    /// Unbound buffers for `packed`. The simulator rejects zero-length
    /// allocations, so a one-element dummy stands in for empty exception
    /// arrays (the finder's exception count guards their use).
    fn new(packed: &PackedSeq) -> Self {
        let (mut exc_pos, mut exc_val) = packed.exception_arrays();
        if exc_pos.is_empty() {
            exc_pos.push(0);
            exc_val.push(0);
        }
        SyclPackedResident {
            packed_buf: Buffer::from_slice(packed.packed_bytes()),
            mask_buf: Buffer::from_slice(packed.mask_bytes()),
            exc_pos_buf: Buffer::from_vec(exc_pos),
            exc_val_buf: Buffer::from_vec(exc_val),
        }
    }
}

/// What a SYCL run staged: the bound (or about to be bound) payload buffers.
type SyclStaged = Staged<Buffer<u8>, SyclPackedResident, Buffer<u8>>;

impl SyclStaged {
    /// The payload buffers a comparer reads, in bind order.
    fn compare_bufs(&self) -> Vec<&Buffer<u8>> {
        match self {
            Staged::Char(chr) => vec![chr],
            Staged::TwoBit(res) => vec![&res.packed_buf, &res.mask_buf],
            Staged::FourBit(nibbles) => vec![nibbles],
        }
    }
}

/// Remove and return the resident entry for `token`, if any.
fn take_resident<T>(list: &RefCell<Vec<(u64, T)>>, token: u64) -> Option<T> {
    let mut l = list.borrow_mut();
    l.iter()
        .position(|(t, _)| *t == token)
        .map(|i| l.remove(i).1)
}

/// Insert `value` for `token` at the most-recently-used position, dropping
/// the least-recently-used entries beyond `cap` (their device buffers are
/// released when the last handle drops).
fn retain_resident<T>(list: &RefCell<Vec<(u64, T)>>, token: u64, value: T, cap: usize) {
    let mut l = list.borrow_mut();
    l.insert(0, (token, value));
    l.truncate(cap);
}

/// Wait for a kernel command group and fold its reports into `profile`
/// and its implicit transfers into `timing.transfer_s`; returns the
/// kernels' execution time.
fn account_launch(
    ev: &SyclEvent,
    timing: &mut TimingBreakdown,
    profile: &mut gpu_sim::profile::Profile,
) -> f64 {
    ev.wait();
    let commands_s: f64 = ev.launch_reports().iter().map(|r| r.sim_time_s).sum();
    for r in ev.launch_reports() {
        profile.record_ref(r);
    }
    timing.transfer_s += (ev.duration_s() - commands_s).max(0.0);
    ev.launch_reports().iter().map(|r| r.exec_time_s).sum()
}

impl SyclChunkRunner {
    /// Build the runner for `pattern_seq` on `config`'s device: selector,
    /// queue, and the constant-memory pattern tables.
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    pub fn new(config: &PipelineConfig, pattern_seq: &[u8]) -> SyclResult<Self> {
        let queue = Queue::with_mode(&SpecSelector(config.device.clone()), config.exec)?;
        let pattern = CompiledSeq::compile(pattern_seq);
        let pat_buf = Buffer::from_slice(pattern.comp()).constant();
        let pat_index_buf = Buffer::from_slice(pattern.comp_index()).constant();
        let pam_variant = config.specialize.then(|| {
            specialize::global_cache().get_or_compile(VariantKind::NibbleFinder, &pattern, 0)
        });
        Ok(SyclChunkRunner {
            queue,
            pattern,
            pat_buf,
            pat_index_buf,
            specialize: config.specialize,
            pam_variant,
            opt: config.opt,
            wgs: config
                .work_group_size
                .unwrap_or(super::sycl::SYCL_WORK_GROUP_SIZE),
            resident_cap: config.resident_slots.max(1),
            packed_res: RefCell::new(Vec::new()),
            raw_res: RefCell::new(Vec::new()),
            nibble_res: RefCell::new(Vec::new()),
            multi_guide: config.multi_guide,
            cand_res: RefCell::new(Vec::new()),
        })
    }

    /// Pattern length (PAM window) the runner was compiled for.
    pub fn plen(&self) -> usize {
        self.pattern.plen()
    }

    /// Upload the comparer tables for `queries`.
    pub fn prepare_queries(&self, queries: &[Query]) -> SyclQueryTables {
        let mut spec_queries = Vec::new();
        let entries = queries
            .iter()
            .map(|q| {
                let c = CompiledSeq::compile(&q.seq);
                let e = (
                    Buffer::from_slice(c.comp()),
                    Buffer::from_slice(c.comp_index()),
                    q.max_mismatches,
                );
                // Both the specialized and the fused paths consume compiled
                // sequences rather than the table buffers (which only charge
                // traffic if bound, so keeping them is free).
                if self.specialize || self.multi_guide {
                    spec_queries.push(c);
                }
                e
            })
            .collect();
        SyclQueryTables {
            entries,
            spec_queries,
        }
    }

    /// Run one finder→comparer interaction on raw `seq` with no residency
    /// (see [`OclChunkRunner::run_chunk`] for the contract).
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    pub fn run_chunk(
        &self,
        seq: &[u8],
        scan_len: usize,
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
    ) -> SyclResult<Vec<QueryEntries>> {
        self.run(
            Payload::Raw(seq),
            scan_len,
            None,
            Sites::Find,
            tables,
            timing,
            profile,
        )
        .map(|run| run.per_query)
    }

    /// Run one finder→comparer interaction on payload `p` (see
    /// [`OclChunkRunner::run`] for the contract). The SYCL flavour keeps a
    /// payload resident by retaining its still-bound buffers for the last
    /// `resident_slots` tokens per encoding, reads counters and entries
    /// back through handler copies (Table III), and decodes packed and
    /// nibble payloads into `no_init` scratch.
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    ///
    /// # Panics
    ///
    /// Panics if a packed payload is not [`twobit_compare_safe`], or if a
    /// [`Sites::Replay`] carries no token.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        p: Payload<'_>,
        scan_len: usize,
        token: Option<u64>,
        sites: Sites<'_>,
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
    ) -> SyclResult<ChunkRun> {
        p.assert_compare_safe();
        let (staged, reused) = self.stage(p, token);
        if reused {
            self.queue.device().record_h2d_skipped(p.upload_bytes());
        }
        let (cands, n, captured) =
            self.find(&staged, p, scan_len, token, sites, timing, profile)?;
        let mut per_query = vec![Vec::new(); tables.len()];
        if n > 0 {
            let cands = (&cands.loci_buf, &cands.flags_buf);
            self.compare(&staged, cands, n, tables, timing, profile, &mut per_query)?;
        }
        // Per-run buffers drop here: implicit release. The payload survives
        // in the residency list when a token retained it.
        Ok(ChunkRun {
            per_query,
            reused,
            captured,
        })
    }

    /// Upload-only warmup: bind `p`'s buffers inside a kernel-less command
    /// group (charging the implicit accessor upload the first run would
    /// have paid) and retain them under `token`, so a later
    /// [`run`](Self::run) with the same token rebinds instead of uploading.
    /// Returns whether an upload actually happened (`false` when the token
    /// was already resident).
    ///
    /// # Errors
    ///
    /// Propagates SYCL exceptions.
    pub fn prefetch(&self, token: u64, p: Payload<'_>) -> SyclResult<bool> {
        let (staged, reused) = self.stage(p, Some(token));
        if !reused {
            self.queue.submit(|h| match &staged {
                Staged::Char(buf) | Staged::FourBit(buf) => {
                    h.get_access(buf, AccessMode::Read).map(|_| ())
                }
                Staged::TwoBit(res) => {
                    h.get_access(&res.packed_buf, AccessMode::Read)?;
                    h.get_access(&res.mask_buf, AccessMode::Read)?;
                    h.get_access(&res.exc_pos_buf, AccessMode::Read)?;
                    h.get_access(&res.exc_val_buf, AccessMode::Read)?;
                    Ok(())
                }
            })?;
        }
        Ok(!reused)
    }

    /// Stage `p`: rebind the buffers still resident under `token`, or
    /// create fresh ones (uploaded by their first bind), and retain them as
    /// most-recently-used under `token`. Returns the staged buffers and
    /// whether they were resident.
    fn stage(&self, p: Payload<'_>, token: Option<u64>) -> (SyclStaged, bool) {
        fn resident<T: Clone>(
            list: &RefCell<Vec<(u64, T)>>,
            token: Option<u64>,
            cap: usize,
            make: impl FnOnce() -> T,
        ) -> (T, bool) {
            let (value, reused) = match token.and_then(|t| take_resident(list, t)) {
                Some(value) => (value, true),
                None => (make(), false),
            };
            if let Some(t) = token {
                retain_resident(list, t, value.clone(), cap);
            }
            (value, reused)
        }
        let cap = self.resident_cap;
        match p {
            Payload::Raw(seq) => {
                let (buf, reused) = resident(&self.raw_res, token, cap, || Buffer::from_slice(seq));
                (Staged::Char(buf), reused)
            }
            Payload::Packed(packed) => {
                let make = || SyclPackedResident::new(packed);
                let (res, reused) = resident(&self.packed_res, token, cap, make);
                (Staged::TwoBit(res), reused)
            }
            Payload::Nibble(nibble) => {
                let make = || Buffer::from_slice(nibble.nibble_bytes());
                let (buf, reused) = resident(&self.nibble_res, token, cap, make);
                (Staged::FourBit(buf), reused)
            }
        }
    }

    /// Bind the pattern tables and finder outputs and assemble the plain
    /// finder over `chr` — the kernel every decoding finder wraps.
    fn finder_kernel(
        &self,
        h: &mut Handler<'_>,
        chr: DeviceBuffer<u8>,
        out: &SyclCandidateResident,
        fcount_buf: &Buffer<u32>,
        scan_len: usize,
        seq_len: usize,
    ) -> SyclResult<FinderKernel> {
        let plen = self.pattern.plen();
        let pat = h.get_access(&self.pat_buf, AccessMode::Read)?.raw();
        let pat_index = h.get_access(&self.pat_index_buf, AccessMode::Read)?.raw();
        let out = Self::finder_output(h, out, fcount_buf)?;
        let mut layout = LocalLayout::new();
        let l_pat = layout.array::<u8>(2 * plen);
        let l_pat_index = layout.array::<i32>(2 * plen);
        Ok(FinderKernel {
            chr,
            pat,
            pat_index,
            out,
            scan_len: scan_len as u32,
            seq_len: seq_len as u32,
            plen: plen as u32,
            l_pat,
            l_pat_index,
        })
    }

    /// Bind the finder's output arrays: loci, flags, match counter.
    fn finder_output(
        h: &mut Handler<'_>,
        out: &SyclCandidateResident,
        fcount_buf: &Buffer<u32>,
    ) -> SyclResult<FinderOutput> {
        Ok(FinderOutput {
            loci: h.get_access(&out.loci_buf, AccessMode::Write)?.raw(),
            flags: h.get_access(&out.flags_buf, AccessMode::Write)?.raw(),
            count: h.get_access(fcount_buf, AccessMode::ReadWrite)?.raw(),
        })
    }

    /// Produce the bound candidate buffers and their length (plus the
    /// read-back list under [`Sites::Capture`]): launch the finder flavour
    /// of the staged encoding, or bind a replayed list — rebinding the
    /// still-resident buffers of an earlier run under the token when their
    /// length matches, uploading fresh ones otherwise.
    #[allow(clippy::too_many_arguments)]
    fn find(
        &self,
        staged: &SyclStaged,
        p: Payload<'_>,
        scan_len: usize,
        token: Option<u64>,
        sites: Sites<'_>,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
    ) -> SyclResult<(SyclCandidateResident, usize, Option<CandidateSites>)> {
        if let Sites::Replay(list) = sites {
            let (token, n) = (token.expect(REPLAY_TOKEN), list.len());
            self.queue.device().record_launch_skipped();
            timing.finder_launches_skipped += 1;
            timing.candidates += n as u64;
            let res = match take_resident(&self.cand_res, token) {
                Some(res) if res.len == n => {
                    self.queue
                        .device()
                        .record_h2d_skipped(list.byte_len() as u64);
                    res
                }
                // The simulator rejects zero-length allocations; one-element
                // dummies stand in for an empty list (the comparers never run).
                _ if n == 0 => SyclCandidateResident {
                    loci_buf: Buffer::from_slice(&[0u32]),
                    flags_buf: Buffer::from_slice(&[0u8]),
                    len: 0,
                },
                _ => SyclCandidateResident {
                    loci_buf: Buffer::from_slice(&list.loci),
                    flags_buf: Buffer::from_slice(&list.flags),
                    len: n,
                },
            };
            retain_resident(&self.cand_res, token, res.clone(), self.resident_cap);
            return Ok((res, n, None));
        }
        // Per-run buffers; the kernel-output arrays are `no_init`: the
        // finder fully overwrites the slots it uses, so they carry no
        // implicit upload.
        let cands = SyclCandidateResident {
            loci_buf: Buffer::<u32>::uninit(scan_len),
            flags_buf: Buffer::<u8>::uninit(scan_len),
            len: 0,
        };
        let fcount_buf = Buffer::<u32>::new(1);
        let seq_len = p.seq_len();
        let range = NdRange::linear(round_up(scan_len, self.wgs), self.wgs);
        // Command group: bind accessors (implicit upload) + finder kernel.
        // The packed and nibble finders decode into `no_init` scratch; the
        // specialized nibble finder scans the nibble words directly.
        let ev = self.queue.submit(|h| match staged {
            Staged::Char(chr) => {
                let chr = h.get_access(chr, AccessMode::Read)?.raw();
                let kernel = self.finder_kernel(h, chr, &cands, &fcount_buf, scan_len, seq_len)?;
                h.parallel_for(range, &kernel)
            }
            Staged::TwoBit(res) => {
                let packed = h.get_access(&res.packed_buf, AccessMode::Read)?.raw();
                let mask = h.get_access(&res.mask_buf, AccessMode::Read)?.raw();
                let exc_pos = h.get_access(&res.exc_pos_buf, AccessMode::Read)?.raw();
                let exc_val = h.get_access(&res.exc_val_buf, AccessMode::Read)?.raw();
                let chr = h
                    .get_access(&Buffer::<u8>::uninit(seq_len), AccessMode::ReadWrite)?
                    .raw();
                let inner = self.finder_kernel(h, chr, &cands, &fcount_buf, scan_len, seq_len)?;
                let kernel = PackedFinderKernel {
                    inner,
                    packed,
                    mask,
                    exc_pos,
                    exc_val,
                    n_exc: p.exceptions() as u32,
                };
                h.parallel_for(range, &kernel)
            }
            Staged::FourBit(nibbles) => {
                let nibbles = h.get_access(nibbles, AccessMode::Read)?.raw();
                if let Some(variant) = &self.pam_variant {
                    let kernel = SpecializedNibbleFinderKernel {
                        nibbles,
                        out: Self::finder_output(h, &cands, &fcount_buf)?,
                        scan_len: scan_len as u32,
                        seq_len: seq_len as u32,
                        variant: Arc::clone(variant),
                    };
                    return h.parallel_for(range, &kernel);
                }
                let chr = h
                    .get_access(&Buffer::<u8>::uninit(seq_len), AccessMode::ReadWrite)?
                    .raw();
                let inner = self.finder_kernel(h, chr, &cands, &fcount_buf, scan_len, seq_len)?;
                h.parallel_for(range, &NibbleFinderKernel { inner, nibbles })
            }
        })?;
        let kernel_s = account_launch(&ev, timing, profile);
        timing.finder_s += kernel_s;
        timing.finder_launches += 1;

        // Read the match count back through a handler copy (Table III).
        let mut count_host = [0u32];
        let ev = self.queue.submit(|h| {
            let acc = h.get_access(&fcount_buf, AccessMode::Read)?;
            h.copy_from_device(&acc, &mut count_host)
        })?;
        timing.transfer_s += ev.duration_s();
        let n = count_host[0] as usize;
        timing.candidates += n as u64;
        let captured = match sites {
            Sites::Capture => {
                let mut list = CandidateSites {
                    loci: vec![0u32; n],
                    flags: vec![0u8; n],
                };
                if n > 0 {
                    let ev = self.queue.submit(|h| {
                        let l = h.get_access(&cands.loci_buf, AccessMode::Read)?;
                        let f = h.get_access(&cands.flags_buf, AccessMode::Read)?;
                        h.copy_from_device(&l, &mut list.loci)?;
                        h.copy_from_device(&f, &mut list.flags)
                    })?;
                    timing.transfer_s += ev.duration_s();
                }
                Some(list)
            }
            _ => None,
        };
        let cands = SyclCandidateResident { len: n, ..cands };
        if let Some(t) = token {
            retain_resident(&self.cand_res, t, cands.clone(), self.resident_cap);
        }
        Ok((cands, n, captured))
    }

    /// Comparer stage (see [`OclChunkRunner::compare`]'s contract): one
    /// command group per prepared query on the staged encoding, or one
    /// `comparer_multi*` command group per guide block on a multi-guide
    /// runner with several queries.
    #[allow(clippy::too_many_arguments)]
    fn compare(
        &self,
        staged: &SyclStaged,
        (loci_buf, flags_buf): (&Buffer<u32>, &Buffer<u8>),
        n: usize,
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut gpu_sim::profile::Profile,
        per_query: &mut [QueryEntries],
    ) -> SyclResult<()> {
        let plen = self.pattern.plen();
        let range = NdRange::linear(round_up(n, self.wgs), self.wgs);
        let fused = self.multi_guide && tables.len() > 1;
        let block = if fused { GUIDE_BLOCK } else { 1 };
        let mut start = 0;
        while start < tables.len() {
            let g = (tables.len() - start).min(block);
            let (ev, outs) = if fused {
                // Concatenate the block's tables host-side: guide `bi`
                // occupies `[fwd | rc]` at offset `bi * 2 * plen`.
                let mut comp = vec![0u8; g * 2 * plen];
                let mut comp_index = vec![0i32; g * 2 * plen];
                let mut thr = vec![0u16; g];
                for bi in 0..g {
                    let c = &tables.spec_queries[start + bi];
                    comp[bi * 2 * plen..(bi + 1) * 2 * plen].copy_from_slice(c.comp());
                    comp_index[bi * 2 * plen..(bi + 1) * 2 * plen].copy_from_slice(c.comp_index());
                    thr[bi] = tables.entries[start + bi].2;
                }
                let comp_buf = Buffer::from_vec(comp);
                let comp_index_buf = Buffer::from_vec(comp_index);
                let folded = self.specialize && thr.iter().all(|&t| t == thr[0]);
                let variant = folded.then(|| {
                    specialize::global_cache().get_or_compile(
                        VariantKind::MultiComparer,
                        &self.pattern,
                        thr[0],
                    )
                });
                let thr_buf = (!folded).then(|| Buffer::from_vec(thr.clone()));
                let outs = Outputs::new(2 * g * n, true);
                let ev = self.queue.submit(|h| {
                    let loci = h.get_access(loci_buf, AccessMode::Read)?.raw();
                    let flags = h.get_access(flags_buf, AccessMode::Read)?.raw();
                    let comp = h.get_access(&comp_buf, AccessMode::Read)?.raw();
                    let comp_index = h.get_access(&comp_index_buf, AccessMode::Read)?.raw();
                    let (out, guide) = outs.bind(h)?;
                    let out = MultiComparerOutput {
                        mm_count: out.mm_count,
                        direction: out.direction,
                        loci: out.loci,
                        guide: guide.expect("fused outputs carry guide tags"),
                        count: out.count,
                    };
                    let thresholds = match (&thr_buf, &variant) {
                        (Some(b), _) => {
                            GuideThresholds::PerGuide(h.get_access(b, AccessMode::Read)?.raw())
                        }
                        (None, Some(v)) => GuideThresholds::Folded {
                            threshold: thr[0],
                            variant: Arc::clone(v),
                        },
                        (None, None) => unreachable!("thr_buf and variant are complementary"),
                    };
                    let chunk = bind_reads(h, staged.compare_bufs())?;
                    match staged {
                        Staged::Char(_) => {
                            let (kernel, _) = MultiComparerKernel::new(
                                chunk[0].clone(),
                                loci,
                                flags,
                                comp,
                                comp_index,
                                thresholds,
                                n,
                                plen,
                                g,
                                out,
                            );
                            h.parallel_for(range, &kernel)
                        }
                        Staged::TwoBit(_) => {
                            let (kernel, _) = TwoBitMultiComparerKernel::new(
                                chunk[0].clone(),
                                chunk[1].clone(),
                                loci,
                                flags,
                                comp,
                                comp_index,
                                thresholds,
                                n,
                                plen,
                                g,
                                out,
                            );
                            h.parallel_for(range, &kernel)
                        }
                        Staged::FourBit(_) => {
                            let (kernel, _) = FourBitMultiComparerKernel::new(
                                chunk[0].clone(),
                                loci,
                                flags,
                                comp,
                                comp_index,
                                thresholds,
                                n,
                                plen,
                                g,
                                out,
                            );
                            h.parallel_for(range, &kernel)
                        }
                    }
                })?;
                (ev, outs)
            } else {
                let (comp_buf, comp_index_buf, threshold) = &tables.entries[start];
                let outs = Outputs::new(2 * n, false);
                let variant = (self.specialize && !tables.spec_queries.is_empty()).then(|| {
                    let kind = staged.pick(
                        VariantKind::CharComparer,
                        VariantKind::TwoBitComparer,
                        VariantKind::FourBitComparer,
                    );
                    specialize::global_cache().get_or_compile(
                        kind,
                        &tables.spec_queries[start],
                        *threshold,
                    )
                });
                let ev = self.queue.submit(|h| {
                    let chunk = bind_reads(h, staged.compare_bufs())?;
                    let loci = h.get_access(loci_buf, AccessMode::Read)?.raw();
                    let flags = h.get_access(flags_buf, AccessMode::Read)?.raw();
                    let locicnt = n as u32;
                    if let Some(variant) = &variant {
                        let (out, _) = outs.bind(h)?;
                        let variant = Arc::clone(variant);
                        return match staged {
                            Staged::Char(_) => h.parallel_for(
                                range,
                                &SpecializedComparerKernel {
                                    chr: chunk[0].clone(),
                                    loci,
                                    flags,
                                    locicnt,
                                    out,
                                    variant,
                                },
                            ),
                            Staged::TwoBit(_) => h.parallel_for(
                                range,
                                &SpecializedTwoBitComparerKernel {
                                    packed: chunk[0].clone(),
                                    mask: chunk[1].clone(),
                                    loci,
                                    flags,
                                    locicnt,
                                    out,
                                    variant,
                                },
                            ),
                            Staged::FourBit(_) => h.parallel_for(
                                range,
                                &SpecializedFourBitComparerKernel {
                                    nibbles: chunk[0].clone(),
                                    loci,
                                    flags,
                                    locicnt,
                                    out,
                                    variant,
                                },
                            ),
                        };
                    }
                    let comp = h.get_access(comp_buf, AccessMode::Read)?.raw();
                    let comp_index = h.get_access(comp_index_buf, AccessMode::Read)?.raw();
                    let (out, _) = outs.bind(h)?;
                    let mut layout = LocalLayout::new();
                    let l_comp = layout.array::<u8>(2 * plen);
                    let l_comp_index = layout.array::<i32>(2 * plen);
                    let (plen, threshold) = (plen as u32, *threshold);
                    match staged {
                        Staged::Char(_) => h.parallel_for(
                            range,
                            &ComparerKernel {
                                opt: self.opt,
                                chr: chunk[0].clone(),
                                loci,
                                flags,
                                comp,
                                comp_index,
                                locicnt,
                                plen,
                                threshold,
                                out,
                                l_comp,
                                l_comp_index,
                            },
                        ),
                        Staged::TwoBit(_) => h.parallel_for(
                            range,
                            &TwoBitComparerKernel {
                                packed: chunk[0].clone(),
                                mask: chunk[1].clone(),
                                loci,
                                flags,
                                comp,
                                comp_index,
                                locicnt,
                                plen,
                                threshold,
                                out,
                                l_comp,
                                l_comp_index,
                            },
                        ),
                        Staged::FourBit(_) => h.parallel_for(
                            range,
                            &FourBitComparerKernel {
                                nibbles: chunk[0].clone(),
                                loci,
                                flags,
                                comp,
                                comp_index,
                                locicnt,
                                plen,
                                threshold,
                                out,
                                l_comp,
                                l_comp_index,
                            },
                        ),
                    }
                })?;
                (ev, outs)
            };
            let kernel_s = account_launch(&ev, timing, profile);
            timing.comparer_s += kernel_s;
            timing.comparer_launches += 1;
            timing.fused_launches += usize::from(fused);
            outs.read_back(&self.queue, timing, &mut per_query[start..])?;
            start += g;
        }
        Ok(())
    }

    /// Block until every submitted command group completes.
    pub fn wait(&self) {
        self.queue.wait();
    }

    /// Simulated queue time consumed so far, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.queue.elapsed_s()
    }

    /// Name of the simulated device the runner drives.
    pub fn device_name(&self) -> String {
        self.queue.device().spec().name.to_owned()
    }

    /// Transfer/launch counters of the underlying simulated device.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.queue.device().traffic()
    }
}

/// Bind `bufs` for reading, in order, and return their device views.
fn bind_reads(h: &mut Handler<'_>, bufs: Vec<&Buffer<u8>>) -> SyclResult<Vec<DeviceBuffer<u8>>> {
    bufs.into_iter()
        .map(|b| h.get_access(b, AccessMode::Read).map(|a| a.raw()))
        .collect()
}

/// The `no_init` output arrays of one SYCL comparer launch: compacted
/// mismatch counts, directions and loci, the guide tags of a fused launch,
/// and the entry counter.
struct Outputs {
    mm: Buffer<u16>,
    dir: Buffer<u8>,
    loci: Buffer<u32>,
    guide: Option<Buffer<u16>>,
    count: Buffer<u32>,
}

impl Outputs {
    fn new(len: usize, fused: bool) -> Self {
        Outputs {
            mm: Buffer::uninit(len),
            dir: Buffer::uninit(len),
            loci: Buffer::uninit(len),
            guide: fused.then(|| Buffer::uninit(len)),
            count: Buffer::new(1),
        }
    }

    /// Bind the outputs in kernel-argument order: mismatch counts,
    /// directions, loci, the guide tags of a fused launch, the counter.
    fn bind(&self, h: &mut Handler<'_>) -> SyclResult<(ComparerOutput, Option<DeviceBuffer<u16>>)> {
        let mm_count = h.get_access(&self.mm, AccessMode::Write)?.raw();
        let direction = h.get_access(&self.dir, AccessMode::Write)?.raw();
        let loci = h.get_access(&self.loci, AccessMode::Write)?.raw();
        let guide = match &self.guide {
            Some(g) => Some(h.get_access(g, AccessMode::Write)?.raw()),
            None => None,
        };
        let count = h.get_access(&self.count, AccessMode::ReadWrite)?.raw();
        let out = ComparerOutput {
            mm_count,
            direction,
            loci,
            count,
        };
        Ok((out, guide))
    }

    /// Read back through handler copies (Table III): the entry count, then
    /// — when non-zero — the entries plus a fused launch's guide tags,
    /// appended in compaction order to `per_query[guide]` (guide 0 for a
    /// serial launch).
    fn read_back(
        &self,
        queue: &Queue,
        timing: &mut TimingBreakdown,
        per_query: &mut [QueryEntries],
    ) -> SyclResult<()> {
        let mut count = [0u32];
        let ev = queue.submit(|h| {
            let acc = h.get_access(&self.count, AccessMode::Read)?;
            h.copy_from_device(&acc, &mut count)
        })?;
        timing.transfer_s += ev.duration_s();
        let m = count[0] as usize;
        timing.entries += m as u64;
        if m == 0 {
            return Ok(());
        }
        let (mut mm, mut dir, mut pos, mut gid) =
            (vec![0u16; m], vec![0u8; m], vec![0u32; m], vec![0u16; m]);
        let ev = queue.submit(|h| {
            let mm_acc = h.get_access(&self.mm, AccessMode::Read)?;
            let dir_acc = h.get_access(&self.dir, AccessMode::Read)?;
            let pos_acc = h.get_access(&self.loci, AccessMode::Read)?;
            let gid_acc = match &self.guide {
                Some(g) => Some(h.get_access(g, AccessMode::Read)?),
                None => None,
            };
            h.copy_from_device(&mm_acc, &mut mm)?;
            h.copy_from_device(&dir_acc, &mut dir)?;
            h.copy_from_device(&pos_acc, &mut pos)?;
            match &gid_acc {
                Some(acc) => h.copy_from_device(acc, &mut gid),
                None => Ok(()),
            }
        })?;
        timing.transfer_s += ev.duration_s();
        for i in 0..m {
            per_query[gid[i] as usize].push((pos[i], dir[i], mm[i]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::SearchInput;
    use crate::pipeline::entries_to_offtargets;
    use crate::site::sort_canonical;
    use genome::{Assembly, Chromosome, Chunker};
    use gpu_sim::{DeviceSpec, ExecMode};

    fn toy() -> (Assembly, SearchInput) {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new(
            "chr1",
            b"ACGTACGTAGGTTTACGTACGAAGCCCCCACGTACGTCGG".to_vec(),
        ));
        let input = SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\n").unwrap();
        (asm, input)
    }

    fn config() -> PipelineConfig {
        PipelineConfig::new(DeviceSpec::mi100())
            .chunk_size(16)
            .exec_mode(ExecMode::Sequential)
    }

    #[test]
    fn ocl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy();
        let cfg = config();
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let per_query = runner
                .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut timing, &mut profile)
                .unwrap();
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        assert!(timing.finder_launches >= 2);
        tables.release();
        runner.release();
    }

    #[test]
    fn sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy();
        let cfg = config();
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let per_query = runner
                .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut timing, &mut profile)
                .unwrap();
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
    }

    /// The toy assembly plus a chromosome exercising every packed-path
    /// special case: masked N runs, a degenerate base ('R', which the
    /// lossless exception list must preserve — genome R matches pattern N,
    /// unlike N), and ordinary ACGT.
    fn toy_with_ambiguity() -> (Assembly, SearchInput) {
        let (mut asm, input) = toy();
        asm.push(Chromosome::new(
            "chr2",
            b"NNNNACGTACGTAGGTTTACGTACGRAGCCCCCACGTACGTCGGNNNN".to_vec(),
        ));
        (asm, input)
    }

    /// The toy assembly plus a chromosome exercising every compare-safe
    /// packed-path case: masked N runs, soft-masked lowercase bases (2-bit
    /// exceptions the 2-bit comparer reads exactly) and ordinary ACGT.
    fn toy_compare_safe() -> (Assembly, SearchInput) {
        let (mut asm, input) = toy();
        asm.push(Chromosome::new(
            "chr2",
            b"NNNNACGTACGTAGGTTTACGTACGaAGCCCCCACGTACGTCGGNNNN".to_vec(),
        ));
        (asm, input)
    }

    #[test]
    fn packed_ocl_runner_matches_the_char_path_with_fewer_upload_bytes() {
        let (asm, input) = toy_compare_safe();
        let cfg = config();
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let (mut char_h2d, mut packed_h2d) = (0u64, 0u64);
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let before = runner.traffic().h2d_bytes;
            let plain = runner
                .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut timing, &mut profile)
                .unwrap();
            let mid = runner.traffic().h2d_bytes;
            let packed = PackedSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    Payload::Packed(&packed),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            let after = runner.traffic().h2d_bytes;
            assert_eq!(per_query, plain, "packed path must be byte-identical");
            char_h2d += mid - before;
            packed_h2d += after - mid;
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        assert!(
            packed_h2d < char_h2d,
            "packed upload ({packed_h2d} B) must undercut the char upload ({char_h2d} B)"
        );
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        tables.release();
        runner.release();
    }

    #[test]
    fn packed_sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy_compare_safe();
        let cfg = config();
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let packed = PackedSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    Payload::Packed(&packed),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        assert!(timing.finder_launches >= 2);
    }

    /// A chromosome dense in soft-masked runs and degenerate codes — the
    /// 2-bit encoding would carry an exception for most bases and could not
    /// compare the degenerate ones, the pathology the nibble path removes.
    fn toy_exception_dense() -> (Assembly, SearchInput) {
        let (mut asm, input) = toy();
        asm.push(Chromosome::new(
            "chr2",
            b"nnnnacgtacgtaggtttacgtacgRagccyccacgtwcgtcggnnnn".to_vec(),
        ));
        (asm, input)
    }

    #[test]
    fn nibble_ocl_runner_matches_the_char_path_with_fewer_upload_bytes() {
        let (asm, input) = toy_exception_dense();
        let cfg = config();
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let (mut char_h2d, mut nibble_h2d) = (0u64, 0u64);
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let before = runner.traffic().h2d_bytes;
            let plain = runner
                .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut timing, &mut profile)
                .unwrap();
            let mid = runner.traffic().h2d_bytes;
            let nibble = NibbleSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    Payload::Nibble(&nibble),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            let after = runner.traffic().h2d_bytes;
            assert_eq!(per_query, plain, "nibble path must be byte-identical");
            char_h2d += mid - before;
            nibble_h2d += after - mid;
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        assert!(
            (nibble_h2d as f64) < char_h2d as f64 * 0.55 + 8.0,
            "nibble upload ({nibble_h2d} B) must be about half the char upload ({char_h2d} B)"
        );
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        tables.release();
        runner.release();
    }

    #[test]
    fn nibble_sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy_exception_dense();
        let cfg = config();
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let nibble = NibbleSeq::encode(chunk.seq);
            let per_query = runner
                .run(
                    Payload::Nibble(&nibble),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            for (query, entries) in input.queries.iter().zip(&per_query) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
        assert!(timing.finder_launches >= 2);
    }

    #[test]
    fn resident_nibble_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_exception_dense();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let nibble = NibbleSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run(
                Payload::Nibble(&nibble),
                chunk.scan_len,
                Some(5),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused, "first run must upload");
        let mid = runner.traffic();
        let (second, reused) = runner
            .run(
                Payload::Nibble(&nibble),
                chunk.scan_len,
                Some(5),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "same token must hit the resident slot");
        assert_eq!(second, first, "resident rerun must be byte-identical");
        assert!(after.since(&mid).h2d_bytes < mid.since(&before).h2d_bytes);
        assert_eq!(
            after.since(&mid).h2d_skipped_bytes,
            nibble.device_byte_len() as u64,
            "the skipped upload must be accounted"
        );
        tables.release();
        runner.release();
    }

    #[test]
    fn sycl_resident_nibble_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_exception_dense();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let nibble = NibbleSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run(
                Payload::Nibble(&nibble),
                chunk.scan_len,
                Some(4),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused);
        let mid = runner.traffic();
        let (second, reused) = runner
            .run(
                Payload::Nibble(&nibble),
                chunk.scan_len,
                Some(4),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "retained sycl buffer must rebind without upload");
        assert_eq!(second, first);
        assert!(after.since(&mid).h2d_bytes < mid.since(&before).h2d_bytes);
        assert!(after.since(&mid).h2d_skipped_bytes > 0);
        runner.wait();
    }

    #[test]
    fn twobit_dispatch_tolerates_case_but_not_degenerate_codes() {
        // Lowercase concrete bases and `n` are exceptions only for lossless
        // decode; `base_mask` ignores case, so the 2-bit view is equivalent.
        assert!(twobit_compare_safe(&PackedSeq::encode(b"ACGTNNNNACGT")));
        assert!(twobit_compare_safe(&PackedSeq::encode(b"acgtnACGTNtg")));
        // Genome `R` matches pattern `R`/`D`/`V`, its masked stand-in `N`
        // does not: the chunk must not compare in 2-bit form.
        assert!(!twobit_compare_safe(&PackedSeq::encode(b"ACGTRACGTACG")));
    }

    #[test]
    fn packed_path_spends_less_comparer_time_than_the_char_path() {
        // An exception-free chunk takes the comparer_2bit stage, which
        // shares packed bytes across four bases instead of loading one
        // byte per base — less simulated comparer time per launch.
        let seq: Vec<u8> = (0..4096usize).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new("chr1", seq));
        let input = SearchInput::parse("toy\nNNNNNNNNNNN\nACGTACGTNNN 8\n").unwrap();
        let cfg = config().chunk_size(4096);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let chunk = Chunker::new(&asm, cfg.chunk_size, plen).next().unwrap();

        let mut char_t = TimingBreakdown::default();
        let mut packed_t = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let plain = runner
            .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut char_t, &mut profile)
            .unwrap();
        let packed = PackedSeq::encode(chunk.seq);
        assert!(packed.exceptions().is_empty());
        let per_query = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                None,
                Sites::Find,
                &tables,
                &mut packed_t,
                &mut profile,
            )
            .unwrap()
            .per_query;
        assert_eq!(per_query, plain);
        assert!(char_t.candidates > 0, "the all-N PAM keeps every locus");
        assert!(
            packed_t.comparer_s < char_t.comparer_s,
            "2-bit comparer ({:.3e}s) must beat the char comparer ({:.3e}s)",
            packed_t.comparer_s,
            char_t.comparer_s
        );
        tables.release();
        runner.release();
    }

    #[test]
    fn resident_packed_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_compare_safe();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let packed = PackedSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                Some(7),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused, "first run must upload");
        let mid = runner.traffic();
        let (second, reused) = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                Some(7),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "same token must hit the resident slot");
        assert_eq!(second, first, "resident rerun must be byte-identical");
        let first_h2d = mid.since(&before).h2d_bytes;
        let second_h2d = after.since(&mid).h2d_bytes;
        assert!(
            second_h2d < first_h2d,
            "resident rerun uploaded {second_h2d} B, first run {first_h2d} B"
        );
        assert_eq!(
            after.since(&mid).h2d_skipped_bytes,
            packed.packed_bytes().len() as u64
                + packed.mask_bytes().len() as u64
                + 5 * packed.exceptions().len() as u64,
            "the skipped upload must be accounted"
        );
        tables.release();
        runner.release();
    }

    #[test]
    fn resident_slots_evict_least_recently_used() {
        let (asm, input) = toy_compare_safe();
        let cfg = config().chunk_size(16).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let chunks: Vec<_> = Chunker::new(&asm, 16, plen)
            .filter(|c| c.seq.len() >= plen)
            .take(3)
            .collect();
        assert!(chunks.len() == 3, "need three chunks to overflow two slots");
        let packed: Vec<_> = chunks.iter().map(|c| PackedSeq::encode(c.seq)).collect();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut run = |tok: u64, i: usize| {
            runner
                .run(
                    Payload::Packed(&packed[i]),
                    chunks[i].scan_len,
                    Some(tok),
                    Sites::Find,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .reused
        };
        assert!(!run(0, 0) && !run(1, 1), "cold slots upload");
        assert!(run(0, 0), "both fit: token 0 still resident");
        assert!(!run(2, 2), "third token claims the LRU slot (token 1)");
        assert!(!run(1, 1), "token 1 was evicted, displacing token 0");
        assert!(run(2, 2), "token 2 remains resident in the other slot");
        assert!(!run(0, 0), "token 0 was displaced by token 1's reload");
        tables.release();
        runner.release();
    }

    #[test]
    fn resident_raw_rerun_skips_and_packed_runs_invalidate_it() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let (first, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(3),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused);
        let (second, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(3),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(reused, "raw rerun with the same token must skip the upload");
        assert_eq!(second, first);

        // A packed run decodes over the chr scratch: the raw copy is gone.
        let packed = PackedSeq::encode(chunk.seq);
        runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                None,
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .unwrap();
        let (third, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(3),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused, "packed decode must invalidate raw residency");
        assert_eq!(third, first);
        tables.release();
        runner.release();
    }

    #[test]
    fn sycl_resident_rerun_skips_the_upload_and_matches() {
        let (asm, input) = toy_compare_safe();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let packed = PackedSeq::encode(chunk.seq);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();

        let before = runner.traffic();
        let (first, reused) = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                Some(9),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused);
        let mid = runner.traffic();
        let (second, reused) = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                Some(9),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "retained sycl buffers must rebind without upload");
        assert_eq!(second, first);
        assert!(
            after.since(&mid).h2d_bytes < mid.since(&before).h2d_bytes,
            "resident rerun must move fewer bytes"
        );
        assert!(after.since(&mid).h2d_skipped_bytes > 0);

        // Raw residency is independent of the packed list.
        let (raw1, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(9),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(!reused, "raw and packed residency are separate");
        let (raw2, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(9),
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert!(reused);
        assert_eq!(raw2, raw1);
        runner.wait();
    }

    #[test]
    fn coalescing_queries_saves_finder_launches() {
        // k queries on one chunk must cost 1 finder launch, not k.
        let (asm, _) = toy();
        let input =
            SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\nTTTACGTACNN 3\nCCCCCACGTNN 3\n")
                .unwrap();
        let cfg = config().chunk_size(64);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let per_query = runner
            .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut timing, &mut profile)
            .unwrap();
        assert_eq!(per_query.len(), 3);
        assert_eq!(timing.finder_launches, 1);
        assert_eq!(timing.comparer_launches, 3);
        let traffic = runner.traffic();
        assert_eq!(traffic.kernel_launches, 4);
        tables.release();
        runner.release();
    }

    #[test]
    #[should_panic(expected = "2-bit-safe")]
    fn ocl_rejects_packed_payloads_that_are_not_compare_safe() {
        let (_, input) = toy();
        let runner = OclChunkRunner::new(&config(), &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let packed = PackedSeq::encode(b"ACGTACGTAGGTRTACGTACG");
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let p = Payload::Packed(&packed);
        let _ = runner.run(p, 10, None, Sites::Find, &tables, &mut timing, &mut profile);
    }

    #[test]
    #[should_panic(expected = "2-bit-safe")]
    fn sycl_rejects_packed_payloads_that_are_not_compare_safe() {
        let (_, input) = toy();
        let runner = SyclChunkRunner::new(&config(), &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let packed = PackedSeq::encode(b"ACGTACGTAGGTRTACGTACG");
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let p = Payload::Packed(&packed);
        let _ = runner.run(p, 10, None, Sites::Find, &tables, &mut timing, &mut profile);
    }

    #[test]
    #[should_panic(expected = "exceeds runner capacity")]
    fn oversized_chunks_are_rejected() {
        let (_, input) = toy();
        let cfg = config().chunk_size(8);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let seq = vec![b'A'; 64];
        let _ = runner.run_chunk(&seq, 64, &tables, &mut timing, &mut profile);
    }

    #[test]
    fn specialized_ocl_runner_is_byte_identical_on_every_encoding() {
        let (asm, input) = toy_exception_dense();
        let cfg = config();
        let generic = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let spec = OclChunkRunner::new(&cfg.clone().specialize(true), &input.pattern).unwrap();
        let gt = generic.prepare_queries(&input.queries).unwrap();
        let st = spec.prepare_queries(&input.queries).unwrap();
        let plen = generic.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let g = generic
                .run_chunk(chunk.seq, chunk.scan_len, &gt, &mut timing, &mut profile)
                .unwrap();
            let s = spec
                .run_chunk(chunk.seq, chunk.scan_len, &st, &mut timing, &mut profile)
                .unwrap();
            assert_eq!(s, g, "specialized char path must be byte-identical");

            // Degenerate chunks only run as nibbles (see the nibble tests).
            let packed = PackedSeq::encode(chunk.seq);
            if twobit_compare_safe(&packed) {
                let g = generic
                    .run(
                        Payload::Packed(&packed),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &gt,
                        &mut timing,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                let s = spec
                    .run(
                        Payload::Packed(&packed),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &st,
                        &mut timing,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                assert_eq!(s, g, "specialized 2-bit path must be byte-identical");
            }

            let nibble = NibbleSeq::encode(chunk.seq);
            let g = generic
                .run(
                    Payload::Nibble(&nibble),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &gt,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            let s = spec
                .run(
                    Payload::Nibble(&nibble),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &st,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            assert_eq!(s, g, "specialized nibble path must be byte-identical");
        }
        gt.release();
        st.release();
        generic.release();
        spec.release();
    }

    #[test]
    fn specialized_sycl_runner_reproduces_the_serial_pipeline() {
        let (asm, input) = toy_exception_dense();
        let cfg = config().specialize(true);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let plen = runner.plen();
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut offtargets = Vec::new();
        for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
            if chunk.seq.len() < plen {
                continue;
            }
            let raw = runner
                .run_chunk(chunk.seq, chunk.scan_len, &tables, &mut timing, &mut profile)
                .unwrap();
            // Degenerate chunks only run as nibbles (see the nibble tests).
            let packed = PackedSeq::encode(chunk.seq);
            if twobit_compare_safe(&packed) {
                let on_packed = runner
                    .run(
                        Payload::Packed(&packed),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &tables,
                        &mut timing,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                assert_eq!(on_packed, raw, "specialized 2-bit path must match char");
            }
            let nibble = NibbleSeq::encode(chunk.seq);
            let on_nibble = runner
                .run(
                    Payload::Nibble(&nibble),
                    chunk.scan_len,
                    None,
                    Sites::Find,
                    &tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap()
                .per_query;
            assert_eq!(on_nibble, raw, "specialized nibble path must match char");
            for (query, entries) in input.queries.iter().zip(&raw) {
                entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
            }
        }
        runner.wait();
        sort_canonical(&mut offtargets);
        assert_eq!(offtargets, crate::cpu::search_sequential(&asm, &input));
    }

    /// A guide library on the toy pattern: `k` distinct 8-base guides plus
    /// the PAM wildcard tail, with uniform or cycling mismatch thresholds.
    fn library_input(k: usize, uniform: bool) -> SearchInput {
        let base = b"ACGTACGTACGTACGTTGCA";
        let mut s = String::from("toy\nNNNNNNNNNRG\n");
        for i in 0..k {
            let guide: String = (0..8)
                .map(|j| base[(i * 3 + j) % base.len()] as char)
                .collect();
            let thr = if uniform { 3 } else { 2 + (i % 2) };
            s.push_str(&format!("{guide}NNN {thr}\n"));
        }
        SearchInput::parse(&s).unwrap()
    }

    /// Fused multi-guide launches must be byte-identical to the serial
    /// per-query path on every encoding, with `ceil(k / GUIDE_BLOCK)`
    /// comparer launches instead of `k` — both generic (mixed thresholds)
    /// and threshold-folded JIT-specialized (uniform) blocks.
    #[test]
    fn fused_multi_guide_ocl_is_byte_identical_on_every_encoding() {
        let (asm, _) = toy_with_ambiguity();
        for (uniform, specialize) in [(false, false), (true, true)] {
            let input = library_input(GUIDE_BLOCK + 3, uniform);
            let cfg = config().specialize(specialize);
            let serial = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
            let fused = OclChunkRunner::new(&cfg.clone().multi_guide(true), &input.pattern).unwrap();
            let st = serial.prepare_queries(&input.queries).unwrap();
            let ft = fused.prepare_queries(&input.queries).unwrap();
            let plen = serial.plen();
            let mut serial_t = TimingBreakdown::default();
            let mut fused_t = TimingBreakdown::default();
            let mut profile = gpu_sim::profile::Profile::new();
            for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
                if chunk.seq.len() < plen {
                    continue;
                }
                let s = serial
                    .run_chunk(chunk.seq, chunk.scan_len, &st, &mut serial_t, &mut profile)
                    .unwrap();
                let f = fused
                    .run_chunk(chunk.seq, chunk.scan_len, &ft, &mut fused_t, &mut profile)
                    .unwrap();
                assert_eq!(f, s, "fused char path must be byte-identical");

                // Degenerate chunks only run as nibbles (see the nibble tests).
                let packed = PackedSeq::encode(chunk.seq);
                if twobit_compare_safe(&packed) {
                    let s = serial
                        .run(
                            Payload::Packed(&packed),
                            chunk.scan_len,
                            None,
                            Sites::Find,
                            &st,
                            &mut serial_t,
                            &mut profile,
                        )
                        .unwrap()
                        .per_query;
                    let f = fused
                        .run(
                            Payload::Packed(&packed),
                            chunk.scan_len,
                            None,
                            Sites::Find,
                            &ft,
                            &mut fused_t,
                            &mut profile,
                        )
                        .unwrap()
                        .per_query;
                    assert_eq!(f, s, "fused 2-bit path must be byte-identical");
                }

                let nibble = NibbleSeq::encode(chunk.seq);
                let s = serial
                    .run(
                        Payload::Nibble(&nibble),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &st,
                        &mut serial_t,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                let f = fused
                    .run(
                        Payload::Nibble(&nibble),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &ft,
                        &mut fused_t,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                assert_eq!(f, s, "fused nibble path must be byte-identical");
            }
            assert_eq!(fused_t.fused_launches, fused_t.comparer_launches);
            assert!(fused_t.fused_launches > 0);
            // 19 guides per chunk run fuse into 2 block launches, not 19.
            assert_eq!(
                fused_t.comparer_launches * (GUIDE_BLOCK + 3),
                serial_t.comparer_launches * 2,
                "fused path must run ceil(k / GUIDE_BLOCK) launches"
            );
            st.release();
            ft.release();
            serial.release();
            fused.release();
        }
    }

    #[test]
    fn fused_multi_guide_sycl_is_byte_identical_on_every_encoding() {
        let (asm, _) = toy_with_ambiguity();
        for (uniform, specialize) in [(false, false), (true, true)] {
            let input = library_input(GUIDE_BLOCK + 3, uniform);
            let cfg = config().specialize(specialize);
            let serial = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
            let fused =
                SyclChunkRunner::new(&cfg.clone().multi_guide(true), &input.pattern).unwrap();
            let st = serial.prepare_queries(&input.queries);
            let ft = fused.prepare_queries(&input.queries);
            let plen = serial.plen();
            let mut serial_t = TimingBreakdown::default();
            let mut fused_t = TimingBreakdown::default();
            let mut profile = gpu_sim::profile::Profile::new();
            for chunk in Chunker::new(&asm, cfg.chunk_size, plen) {
                if chunk.seq.len() < plen {
                    continue;
                }
                let s = serial
                    .run_chunk(chunk.seq, chunk.scan_len, &st, &mut serial_t, &mut profile)
                    .unwrap();
                let f = fused
                    .run_chunk(chunk.seq, chunk.scan_len, &ft, &mut fused_t, &mut profile)
                    .unwrap();
                assert_eq!(f, s, "fused char path must be byte-identical");

                // Degenerate chunks only run as nibbles (see the nibble tests).
                let packed = PackedSeq::encode(chunk.seq);
                if twobit_compare_safe(&packed) {
                    let s = serial
                        .run(
                            Payload::Packed(&packed),
                            chunk.scan_len,
                            None,
                            Sites::Find,
                            &st,
                            &mut serial_t,
                            &mut profile,
                        )
                        .unwrap()
                        .per_query;
                    let f = fused
                        .run(
                            Payload::Packed(&packed),
                            chunk.scan_len,
                            None,
                            Sites::Find,
                            &ft,
                            &mut fused_t,
                            &mut profile,
                        )
                        .unwrap()
                        .per_query;
                    assert_eq!(f, s, "fused 2-bit path must be byte-identical");
                }

                let nibble = NibbleSeq::encode(chunk.seq);
                let s = serial
                    .run(
                        Payload::Nibble(&nibble),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &st,
                        &mut serial_t,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                let f = fused
                    .run(
                        Payload::Nibble(&nibble),
                        chunk.scan_len,
                        None,
                        Sites::Find,
                        &ft,
                        &mut fused_t,
                        &mut profile,
                    )
                    .unwrap()
                    .per_query;
                assert_eq!(f, s, "fused nibble path must be byte-identical");
            }
            assert_eq!(fused_t.fused_launches, fused_t.comparer_launches);
            assert!(fused_t.fused_launches > 0);
            assert_eq!(
                fused_t.comparer_launches * (GUIDE_BLOCK + 3),
                serial_t.comparer_launches * 2,
                "fused path must run ceil(k / GUIDE_BLOCK) launches"
            );
            serial.wait();
            fused.wait();
        }
    }

    #[test]
    fn cached_candidates_skip_the_finder_and_match_ocl() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = OclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let mut profile = gpu_sim::profile::Profile::new();

        // Capture the candidate list from a normal run.
        let mut warm_t = TimingBreakdown::default();
        let warm = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                None,
                Sites::Capture,
                &tables,
                &mut warm_t,
                &mut profile,
            )
            .unwrap();
        let (baseline, sites) = (warm.per_query, warm.captured.unwrap());
        assert_eq!(sites.len() as u64, warm_t.candidates);
        assert!(!sites.is_empty());

        // Replaying it must skip the finder launch and stay byte-identical.
        let mut cached_t = TimingBreakdown::default();
        let before = runner.traffic();
        let (replay, _) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(42),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let mid = runner.traffic();
        assert_eq!(replay, baseline);
        assert_eq!(cached_t.finder_launches, 0);
        assert_eq!(cached_t.finder_launches_skipped, 1);
        assert_eq!(cached_t.candidates, warm_t.candidates);
        assert_eq!(mid.since(&before).kernel_launches_skipped, 1);

        // A same-token replay also skips the candidate re-upload.
        let (again, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(42),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let after = runner.traffic();
        assert!(reused, "chr stays resident under the token");
        assert_eq!(again, baseline);
        assert!(after.since(&mid).h2d_skipped_bytes >= sites.byte_len() as u64);

        // The 2-bit and nibble cached entry points match too.
        let packed = PackedSeq::encode(chunk.seq);
        assert!(twobit_compare_safe(&packed));
        let (on_packed, _) = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                Some(43),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert_eq!(on_packed, baseline);
        let nibble = NibbleSeq::encode(chunk.seq);
        let (on_nibble, _) = runner
            .run(
                Payload::Nibble(&nibble),
                chunk.scan_len,
                Some(44),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert_eq!(on_nibble, baseline);
        tables.release();
        runner.release();
    }

    #[test]
    fn cached_candidates_skip_the_finder_and_match_sycl() {
        let (asm, input) = toy();
        let cfg = config().chunk_size(64).resident_slots(2);
        let runner = SyclChunkRunner::new(&cfg, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries);
        let chunk = Chunker::new(&asm, 64, runner.plen()).next().unwrap();
        let mut profile = gpu_sim::profile::Profile::new();

        let mut warm_t = TimingBreakdown::default();
        let warm = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                None,
                Sites::Capture,
                &tables,
                &mut warm_t,
                &mut profile,
            )
            .unwrap();
        let (baseline, sites) = (warm.per_query, warm.captured.unwrap());
        assert_eq!(sites.len() as u64, warm_t.candidates);
        assert!(!sites.is_empty());

        let mut cached_t = TimingBreakdown::default();
        let before = runner.traffic();
        let (replay, _) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(42),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let mid = runner.traffic();
        assert_eq!(replay, baseline);
        assert_eq!(cached_t.finder_launches, 0);
        assert_eq!(cached_t.finder_launches_skipped, 1);
        assert_eq!(mid.since(&before).kernel_launches_skipped, 1);

        let (again, reused) = runner
            .run(
                Payload::Raw(chunk.seq),
                chunk.scan_len,
                Some(42),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        let after = runner.traffic();
        assert!(reused);
        assert_eq!(again, baseline);
        assert!(after.since(&mid).h2d_skipped_bytes >= sites.byte_len() as u64);

        let packed = PackedSeq::encode(chunk.seq);
        assert!(twobit_compare_safe(&packed));
        let (on_packed, _) = runner
            .run(
                Payload::Packed(&packed),
                chunk.scan_len,
                Some(43),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert_eq!(on_packed, baseline);
        let nibble = NibbleSeq::encode(chunk.seq);
        let (on_nibble, _) = runner
            .run(
                Payload::Nibble(&nibble),
                chunk.scan_len,
                Some(44),
                Sites::Replay(&sites),
                &tables,
                &mut cached_t,
                &mut profile,
            )
            .map(|r| (r.per_query, r.reused))
            .unwrap();
        assert_eq!(on_nibble, baseline);
        runner.wait();
    }

    /// The runner calls a characterization cell makes, uniform over both
    /// APIs: one chunk run (entries, reuse verdict, captured sites) and one
    /// upload-only prefetch.
    trait Harness: Sized {
        type Tables;
        fn build(cfg: &PipelineConfig, pattern: &[u8]) -> Self;
        fn tables(&self, queries: &[Query]) -> Self::Tables;
        #[allow(clippy::too_many_arguments)]
        fn go(
            &self,
            p: Payload<'_>,
            scan_len: usize,
            token: Option<u64>,
            s: Sites<'_>,
            tables: &Self::Tables,
            timing: &mut TimingBreakdown,
            profile: &mut gpu_sim::profile::Profile,
        ) -> (Vec<QueryEntries>, bool, Option<CandidateSites>);
        fn pre(&self, token: u64, p: Payload<'_>) -> bool;
        fn elapsed(&self) -> f64;
        fn snapshot(&self) -> TrafficSnapshot;
    }

    impl Harness for OclChunkRunner {
        type Tables = OclQueryTables;
        fn build(cfg: &PipelineConfig, pattern: &[u8]) -> Self {
            OclChunkRunner::new(cfg, pattern).unwrap()
        }
        fn tables(&self, queries: &[Query]) -> OclQueryTables {
            self.prepare_queries(queries).unwrap()
        }
        fn go(
            &self,
            p: Payload<'_>,
            scan_len: usize,
            token: Option<u64>,
            s: Sites<'_>,
            tables: &OclQueryTables,
            timing: &mut TimingBreakdown,
            profile: &mut gpu_sim::profile::Profile,
        ) -> (Vec<QueryEntries>, bool, Option<CandidateSites>) {
            let run = self
                .run(p, scan_len, token, s, tables, timing, profile)
                .unwrap();
            (run.per_query, run.reused, run.captured)
        }
        fn pre(&self, token: u64, p: Payload<'_>) -> bool {
            self.prefetch(token, p).unwrap()
        }
        fn elapsed(&self) -> f64 {
            self.finish();
            self.elapsed_s()
        }
        fn snapshot(&self) -> TrafficSnapshot {
            self.traffic()
        }
    }

    impl Harness for SyclChunkRunner {
        type Tables = SyclQueryTables;
        fn build(cfg: &PipelineConfig, pattern: &[u8]) -> Self {
            SyclChunkRunner::new(cfg, pattern).unwrap()
        }
        fn tables(&self, queries: &[Query]) -> SyclQueryTables {
            self.prepare_queries(queries)
        }
        fn go(
            &self,
            p: Payload<'_>,
            scan_len: usize,
            token: Option<u64>,
            s: Sites<'_>,
            tables: &SyclQueryTables,
            timing: &mut TimingBreakdown,
            profile: &mut gpu_sim::profile::Profile,
        ) -> (Vec<QueryEntries>, bool, Option<CandidateSites>) {
            let run = self
                .run(p, scan_len, token, s, tables, timing, profile)
                .unwrap();
            (run.per_query, run.reused, run.captured)
        }
        fn pre(&self, token: u64, p: Payload<'_>) -> bool {
            self.prefetch(token, p).unwrap()
        }
        fn elapsed(&self) -> f64 {
            self.wait();
            self.elapsed_s()
        }
        fn snapshot(&self) -> TrafficSnapshot {
            self.traffic()
        }
    }

    /// A compare-safe chunk with every packed-path feature except
    /// degenerate codes: masked `N` runs, lowercase soft-masking and `n`,
    /// so the 2-bit payload carries exception bytes.
    const CHARACTERIZATION_SEQ: &[u8] =
        b"NNNNACGTACGTAGGTTTACGTACGaagCCCCCACGTACGTCGGacgtacgtaggnnnTTACGTACGTAGGACGTACGTCGGTTT";

    /// One cell of the characterization matrix: a fresh runner driven
    /// through `mode` on one payload, folded into a printable record of
    /// every observable — entries, reuse verdicts, captured sites,
    /// prefetch verdicts, the queue clock's bits, every timing field and
    /// the device traffic counters.
    fn characterization_cell<R: Harness>(enc: usize, mode: &str, spec: bool, nq: usize) -> String {
        use std::fmt::Write;
        const TOKEN: u64 = 0xC0FFEE;
        let input =
            SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\nTTTACGTACNN 3\nCCCCCACGTNN 3\n")
                .unwrap();
        let cfg = config()
            .chunk_size(64)
            .resident_slots(2)
            .specialize(spec)
            .multi_guide(true);
        let runner = R::build(&cfg, &input.pattern);
        let tables = runner.tables(&input.queries[..nq]);
        let seq = &CHARACTERIZATION_SEQ[..64 + input.pattern.len()];
        let scan_len = 64;
        let packed = PackedSeq::encode(seq);
        assert!(twobit_compare_safe(&packed) && !packed.exceptions().is_empty());
        let nibble = NibbleSeq::encode(seq);
        let p = match enc {
            0 => Payload::Raw(seq),
            1 => Payload::Packed(&packed),
            _ => Payload::Nibble(&nibble),
        };
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut log = format!("enc={enc} mode={mode} spec={spec} nq={nq}:");
        let mut step = |token: Option<u64>, s: Sites<'_>, log: &mut String| {
            let (q, reused, captured) =
                runner.go(p, scan_len, token, s, &tables, &mut timing, &mut profile);
            write!(log, " run{q:?} reused={reused} captured={captured:?};").unwrap();
            captured
        };
        match mode {
            "fresh" => {
                step(None, Sites::Find, &mut log);
            }
            "resident" => {
                step(Some(TOKEN), Sites::Find, &mut log);
                step(Some(TOKEN), Sites::Find, &mut log);
            }
            "replay" => {
                let sites = step(None, Sites::Capture, &mut log).expect("capture yields sites");
                step(Some(TOKEN), Sites::Replay(&sites), &mut log);
                step(Some(TOKEN), Sites::Replay(&sites), &mut log);
            }
            "prefetch" => {
                let first = runner.pre(TOKEN, p);
                let again = runner.pre(TOKEN, p);
                write!(log, " prefetch={first},{again};").unwrap();
                step(Some(TOKEN), Sites::Find, &mut log);
            }
            _ => unreachable!("unknown mode {mode}"),
        }
        write!(
            log,
            " elapsed={:#x} timing=[{:#x} {:#x} {:#x} {:#x} {} {} {} {} {} {}] traffic={:?}",
            runner.elapsed().to_bits(),
            timing.elapsed_s.to_bits(),
            timing.transfer_s.to_bits(),
            timing.finder_s.to_bits(),
            timing.comparer_s.to_bits(),
            timing.finder_launches,
            timing.finder_launches_skipped,
            timing.comparer_launches,
            timing.fused_launches,
            timing.candidates,
            timing.entries,
            runner.snapshot(),
        )
        .unwrap();
        log
    }

    /// Every cell of {raw, 2-bit, 4-bit} × {fresh, resident miss→hit,
    /// capture→replay, prefetch→resident run} × {generic, specialized} ×
    /// {1 query, 3 fused} on one API, folded into one FNV-1a digest. On a
    /// mismatch the per-cell records are printed so the drifting cell can
    /// be diffed against a known-good run.
    fn check_characterization<R: Harness>(api: &str, pinned: u64) {
        let mut cells = Vec::new();
        for enc in 0..3 {
            for mode in ["fresh", "resident", "replay", "prefetch"] {
                for spec in [false, true] {
                    for nq in [1, 3] {
                        cells.push(characterization_cell::<R>(enc, mode, spec, nq));
                    }
                }
            }
        }
        let digest = cells.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, cell| {
            cell.bytes()
                .chain(std::iter::once(b'\n'))
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        });
        if digest != pinned {
            for cell in &cells {
                eprintln!("{api} {cell}");
            }
            panic!("{api} characterization digest {digest:#018x} != pinned {pinned:#018x}");
        }
    }

    #[test]
    fn ocl_characterization_digest_is_pinned() {
        check_characterization::<OclChunkRunner>("opencl", 0x1ac0_41cd_e55f_4f0c);
    }

    #[test]
    fn sycl_characterization_digest_is_pinned() {
        check_characterization::<SyclChunkRunner>("sycl", 0x171f_a308_6f57_8c16);
    }
}
