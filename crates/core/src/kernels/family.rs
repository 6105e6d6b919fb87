//! The serving comparer family: one kernel, [`Comparer<R, G>`], for every
//! comparer the serving pipelines launch besides the paper's own.
//!
//! Every serving comparer runs the same strand loop: for each candidate,
//! for each guide, for each strand the finder flagged, walk the pattern's
//! non-`N` positions, count mismatches with early exit at the threshold and
//! compact passing strands through one atomic counter. Two things vary:
//!
//! * the [`Reference`] — how the chunk is read: raw bytes ([`Chars`]),
//!   2-bit words plus an ambiguity mask ([`TwoBit`]), or 4-bit nibbles
//!   ([`Nibbles`]). It owns the fetch with its byte cache and the
//!   per-encoding cost row ([`Encoding`]). Every fetch yields the base's
//!   IUPAC possibility mask, so one subset test serves every encoding and
//!   reproduces the char comparer's matching rule bit for bit;
//! * the [`Guides`] — where the patterns come from: one guide's tables
//!   staged to local memory ([`Staged`]), one guide folded into a
//!   JIT-specialized variant (`Arc<CompiledVariant>`), or a [`Block`] of up
//!   to [`GUIDE_BLOCK`] guides staged together whose thresholds are
//!   per-guide or folded.
//!
//! A block loads each candidate's reference window once and sweeps all
//! guides × strands against it — the fused launch a library screen makes
//! instead of one launch per guide. Under
//! [`ExecMode::Sequential`](gpu_sim::ExecMode) each work-item emits its
//! entries for guides in ascending order, so each guide's subsequence of
//! the shared output is exactly its per-guide launch's output, which
//! [`MultiComparerOutput::per_guide`] demultiplexes.
//!
//! The paper's Listing 1 comparer and its opt0–opt4 ladder
//! ([`ComparerKernel`](super::ComparerKernel)) stay a kernel of their own:
//! they are the subject of Table X.

use std::fmt;
use std::sync::Arc;

use gpu_sim::isa::{CodeModel, Staging};
use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{Device, DeviceBuffer, ItemCtx, SimResult};

use genome::base::{base_mask, MASK_ANY};
use genome::twobit::code_to_char;

use super::comparer::ComparerOutput;
use super::finder::{FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE};
use super::ladder::ladder_rank;
use super::specialize::CompiledVariant;
use crate::pattern::CompiledSeq;

/// Maximum guides fused into one comparer launch. `k` guides over the same
/// candidate list run in `ceil(k / GUIDE_BLOCK)` launches instead of `k`.
pub const GUIDE_BLOCK: usize = 16;

/// The four kernel shapes the guide sources give the family; indexes the
/// per-encoding name tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One guide, tables staged to local memory.
    Staged,
    /// One guide folded into immediates.
    Folded,
    /// A block of guides with per-guide thresholds.
    Block,
    /// A block of guides sharing a folded threshold.
    FoldedBlock,
}

/// What one reference encoding contributes to a family kernel: its names
/// and its cost row.
#[derive(Debug)]
pub struct Encoding {
    /// Profiler names, indexed by [`Shape`].
    pub names: [&'static str; 4],
    /// Chunk buffer arguments.
    pub chunk_args: u32,
    /// Decode VALU of a per-guide kernel.
    pub valu: u32,
    /// Decode and window-register VALU of a block kernel.
    pub block_valu: u32,
    /// Ops of one mismatch test against a pattern character read from local
    /// memory (a folded test costs one).
    pub test_ops: u64,
    /// Whether a pattern character read from local memory is charged the
    /// IUPAC ladder arms ([`ladder_rank`]) it walks.
    pub ladder: bool,
    /// Ops per base a block's window preload adds to the fetch.
    pub window_ops: u64,
    /// Ops to reset the fetch's byte cache at the start of a strand.
    pub reset_ops: u64,
}

/// How a family kernel reads the reference chunk.
pub trait Reference: fmt::Debug + Clone + Send + Sync + 'static {
    /// The last-loaded word(s) a fetch reuses.
    type Cache: Copy;
    /// A cache that forces the first load.
    const COLD: Self::Cache;
    /// Names and cost row.
    const ENCODING: Encoding;
    /// The reference over its chunk buffers, in argument order.
    fn from_chunk(bufs: &[DeviceBuffer<u8>]) -> Self;
    /// The possibility mask of the base at `pos`.
    fn fetch(&self, item: &mut ItemCtx, cache: &mut Self::Cache, pos: usize) -> u8;
}

/// Raw chunk bytes, one per base.
#[derive(Debug, Clone)]
pub struct Chars(pub DeviceBuffer<u8>);

impl Reference for Chars {
    type Cache = ();
    const COLD: () = ();
    const ENCODING: Encoding = Encoding {
        // The serving pipelines compare one staged char guide with the
        // paper's `ComparerKernel`; the family's own staged char shape is
        // named apart from it.
        names: [
            "comparer-char",
            "comparer-spec",
            "comparer_multi",
            "comparer_multi-spec",
        ],
        chunk_args: 1,
        valu: 0,
        block_valu: 12,
        test_ops: 2,
        ladder: true,
        window_ops: 1,
        reset_ops: 0,
    };

    fn from_chunk(bufs: &[DeviceBuffer<u8>]) -> Self {
        Chars(bufs[0].clone())
    }

    fn fetch(&self, item: &mut ItemCtx, _: &mut (), pos: usize) -> u8 {
        base_mask(self.0.load(item, pos))
    }
}

/// 2-bit packed bases (4 per byte) plus a 1-bit ambiguity mask (8 per
/// byte): roughly `plen/4 + plen/8` bytes per site instead of `plen`. A
/// masked base reads as `N`.
#[derive(Debug, Clone)]
pub struct TwoBit {
    /// Packed chunk bases.
    pub packed: DeviceBuffer<u8>,
    /// Ambiguity mask.
    pub mask: DeviceBuffer<u8>,
}

impl Reference for TwoBit {
    /// `(packed byte index, packed byte, mask byte index, mask byte)`.
    type Cache = (usize, u8, usize, u8);
    const COLD: Self::Cache = (usize::MAX, 0, usize::MAX, 0);
    const ENCODING: Encoding = Encoding {
        names: [
            "comparer-2bit",
            "comparer-2bit-spec",
            "comparer_multi-2bit",
            "comparer_multi-2bit-spec",
        ],
        chunk_args: 2,
        valu: 40,
        block_valu: 44,
        test_ops: 2,
        ladder: false,
        window_ops: 0,
        reset_ops: 1,
    };

    fn from_chunk(bufs: &[DeviceBuffer<u8>]) -> Self {
        let (packed, mask) = (bufs[0].clone(), bufs[1].clone());
        TwoBit { packed, mask }
    }

    fn fetch(&self, item: &mut ItemCtx, cache: &mut Self::Cache, pos: usize) -> u8 {
        let (pb_idx, mb_idx) = (pos / 4, pos / 8);
        if cache.0 != pb_idx {
            cache.0 = pb_idx;
            cache.1 = self.packed.load(item, pb_idx);
        }
        if cache.2 != mb_idx {
            cache.2 = mb_idx;
            cache.3 = self.mask.load(item, mb_idx);
        }
        item.ops(4); // shifts and masks
        if (cache.3 >> (pos % 8)) & 1 == 1 {
            MASK_ANY
        } else {
            base_mask(code_to_char((cache.1 >> ((pos % 4) * 2)) & 0b11))
        }
    }
}

/// 4-bit nibbles (2 per byte, low nibble first), each the base's IUPAC
/// possibility mask: exact for every input at half a byte per base.
#[derive(Debug, Clone)]
pub struct Nibbles(pub DeviceBuffer<u8>);

impl Reference for Nibbles {
    /// `(byte index, byte)`.
    type Cache = (usize, u8);
    const COLD: Self::Cache = (usize::MAX, 0);
    const ENCODING: Encoding = Encoding {
        names: [
            "comparer-4bit",
            "comparer-4bit-spec",
            "comparer_multi-4bit",
            "comparer_multi-4bit-spec",
        ],
        chunk_args: 1,
        valu: 24,
        block_valu: 28,
        test_ops: 3,
        ladder: false,
        window_ops: 0,
        reset_ops: 1,
    };

    fn from_chunk(bufs: &[DeviceBuffer<u8>]) -> Self {
        Nibbles(bufs[0].clone())
    }

    fn fetch(&self, item: &mut ItemCtx, cache: &mut Self::Cache, pos: usize) -> u8 {
        let idx = pos / 2;
        if cache.0 != idx {
            cache.0 = idx;
            cache.1 = self.0.load(item, idx);
        }
        item.ops(2); // shift + mask
        (cache.1 >> ((pos % 2) * 4)) & 0b1111
    }
}

/// The encodings in the pipelines' staging order: char, 2-bit, 4-bit. An
/// encoding index `enc` names one of them at run time.
pub const ENCODINGS: [&Encoding; 3] = [&Chars::ENCODING, &TwoBit::ENCODING, &Nibbles::ENCODING];

/// The `[fwd | rc]` pattern tables of `guides` guides of length `plen`
/// (guide `g`, half `h`, position `k` at `(g*2 + h)*plen + k`), staged to
/// the first two local arrays.
#[derive(Debug, Clone)]
pub struct Tables {
    /// Pattern bytes.
    pub comp: DeviceBuffer<u8>,
    /// Non-`N` indices, `-1` terminated per half.
    pub comp_index: DeviceBuffer<i32>,
    /// Pattern length (one PAM across a block).
    pub plen: usize,
    /// Guides in the tables.
    pub guides: usize,
    /// Local staging of `comp`.
    pub l_comp: LocalHandle<u8>,
    /// Local staging of `comp_index`.
    pub l_comp_index: LocalHandle<i32>,
}

impl Tables {
    fn declare(
        layout: &mut LocalLayout,
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        plen: usize,
        guides: usize,
    ) -> Tables {
        let len = guides * 2 * plen;
        Tables {
            comp,
            comp_index,
            plen,
            guides,
            l_comp: layout.array(len),
            l_comp_index: layout.array(len),
        }
    }

    fn len(&self) -> usize {
        self.guides * 2 * self.plen
    }
}

/// Per-guide mismatch thresholds of a fused block, as a caller supplies
/// them.
#[derive(Debug, Clone)]
pub enum GuideThresholds {
    /// One threshold per guide, staged to local memory from this buffer.
    PerGuide(DeviceBuffer<u16>),
    /// Every guide shares `threshold`, folded into the JIT-specialized
    /// variant as an immediate (the `variant` carries the measured
    /// resources).
    Folded {
        /// The shared threshold immediate.
        threshold: u16,
        /// The compiled `MultiComparer` variant.
        variant: Arc<CompiledVariant>,
    },
}

/// A block's thresholds as its kernel reads them.
#[derive(Debug, Clone)]
pub enum BlockThresholds {
    /// A table staged to the third local array.
    PerGuide(DeviceBuffer<u16>, LocalHandle<u16>),
    /// An immediate every guide shares, and its variant.
    Folded(u16, Arc<CompiledVariant>),
}

/// Where a family kernel's guides come from, as its loops read them.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// One guide's tables staged to local memory, and its threshold.
    Staged(&'a Tables, u16),
    /// One guide and its threshold folded into immediates.
    Folded(&'a CompiledVariant),
    /// A block's tables staged to local memory, and its thresholds.
    Block(&'a Tables, &'a BlockThresholds),
}

impl<'a> Source<'a> {
    /// The kernel shape.
    pub fn shape(self) -> Shape {
        match self {
            Source::Staged(..) => Shape::Staged,
            Source::Folded(_) => Shape::Folded,
            Source::Block(_, BlockThresholds::PerGuide(..)) => Shape::Block,
            Source::Block(..) => Shape::FoldedBlock,
        }
    }

    fn tables(self) -> Option<&'a Tables> {
        match self {
            Source::Staged(t, _) | Source::Block(t, _) => Some(t),
            Source::Folded(_) => None,
        }
    }

    /// Pattern length and guide count.
    fn dims(self) -> (usize, usize) {
        match self {
            Source::Staged(t, _) | Source::Block(t, _) => (t.plen, t.guides),
            Source::Folded(v) => (v.pattern.plen(), 1),
        }
    }

    /// Threshold of guide `g`: a local read from a per-guide table.
    fn threshold(self, item: &mut ItemCtx, local: &LocalMem, g: usize) -> u16 {
        match self {
            Source::Staged(_, threshold) => threshold,
            Source::Folded(v) => v.pattern.threshold(),
            Source::Block(_, BlockThresholds::PerGuide(_, l_thr)) => local.load(item, *l_thr, g),
            Source::Block(_, BlockThresholds::Folded(threshold, _)) => *threshold,
        }
    }
}

/// A guide source of the family: [`Staged`], `Arc<CompiledVariant>` or
/// [`Block`].
pub trait Guides: fmt::Debug + Clone + Send + Sync + 'static {
    /// The output arrays passing strands compact into.
    type Output: Output;
    /// The guides as the kernel reads them.
    fn source(&self) -> Source<'_>;
}

/// One guide's tables, staged to local memory, and its threshold.
#[derive(Debug, Clone)]
pub struct Staged {
    /// The guide's pattern tables.
    pub tables: Tables,
    /// Mismatch threshold.
    pub threshold: u16,
}

impl Staged {
    /// Stage the tables `comp`/`index` of one guide of length `plen`, with
    /// threshold `thr`.
    pub fn new(comp: DeviceBuffer<u8>, index: DeviceBuffer<i32>, thr: u16, plen: usize) -> Staged {
        let tables = Tables::declare(&mut LocalLayout::new(), comp, index, plen, 1);
        Staged {
            tables,
            threshold: thr,
        }
    }
}

impl Guides for Staged {
    type Output = ComparerOutput;

    fn source(&self) -> Source<'_> {
        Source::Staged(&self.tables, self.threshold)
    }
}

/// One guide folded with its threshold into immediates: no staging phase,
/// no pattern arguments.
impl Guides for Arc<CompiledVariant> {
    type Output = ComparerOutput;

    fn source(&self) -> Source<'_> {
        Source::Folded(self)
    }
}

/// A block of 1..=[`GUIDE_BLOCK`] guides of one pattern length, staged
/// together.
#[derive(Debug, Clone)]
pub struct Block {
    /// The block's pattern tables.
    pub tables: Tables,
    /// Per-guide or folded thresholds.
    pub thresholds: BlockThresholds,
}

impl Block {
    /// Stage the concatenated tables of `guides` guides of length `plen`.
    pub fn new(
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        thresholds: GuideThresholds,
        plen: usize,
        guides: usize,
    ) -> Block {
        let mut layout = LocalLayout::new();
        let tables = Tables::declare(&mut layout, comp, comp_index, plen, guides);
        let thresholds = match thresholds {
            GuideThresholds::PerGuide(t) => BlockThresholds::PerGuide(t, layout.array(guides)),
            GuideThresholds::Folded { threshold, variant } => {
                BlockThresholds::Folded(threshold, variant)
            }
        };
        Block { tables, thresholds }
    }
}

impl Guides for Block {
    type Output = MultiComparerOutput;

    fn source(&self) -> Source<'_> {
        Source::Block(&self.tables, &self.thresholds)
    }
}

/// Compacted output arrays a family kernel appends passing strands to.
pub trait Output: fmt::Debug + Clone + Send + Sync + 'static {
    /// Append strand `half` of guide `g` at `locus` with `lmm` mismatches.
    fn emit(&self, item: &mut ItemCtx, g: usize, locus: u32, half: usize, lmm: u16);
}

impl Output for ComparerOutput {
    fn emit(&self, item: &mut ItemCtx, _: usize, locus: u32, half: usize, lmm: u16) {
        self.push(item, locus, half, lmm);
    }
}

/// Device-side output of a block launch: the per-guide output arrays,
/// compacted through their one shared atomic counter, plus a guide tag per
/// entry.
#[derive(Debug, Clone)]
pub struct MultiComparerOutput {
    /// Mismatch counts, directions, loci and the entry counter.
    pub entries: ComparerOutput,
    /// Guide index within the block per passing site.
    pub guide: DeviceBuffer<u16>,
}

impl MultiComparerOutput {
    /// Allocate output buffers for up to `capacity` entries. Each locus can
    /// pass on both strands of every guide, so callers should size
    /// `capacity` at `2 * nguides * locicnt`.
    ///
    /// # Errors
    ///
    /// Returns an error when the device is out of memory.
    pub fn allocate(device: &Device, capacity: usize) -> SimResult<MultiComparerOutput> {
        let entries = ComparerOutput::allocate(device, capacity)?;
        let guide = device.alloc(capacity)?;
        Ok(MultiComparerOutput { entries, guide })
    }

    /// Read back and demultiplex the shared output into per-guide entry
    /// lists, preserving compaction order within each guide — the order the
    /// per-guide kernel would have produced.
    pub fn per_guide(&self, nguides: usize) -> Vec<Vec<(u32, u8, u16)>> {
        let guide = self.guide.to_vec();
        let mut out = vec![Vec::new(); nguides];
        for (i, entry) in self.entries.entries().into_iter().enumerate() {
            out[guide[i] as usize].push(entry);
        }
        out
    }
}

impl Output for MultiComparerOutput {
    fn emit(&self, item: &mut ItemCtx, g: usize, locus: u32, half: usize, lmm: u16) {
        let slot = self.entries.push(item, locus, half, lmm);
        self.guide.store(item, slot, g as u16);
    }
}

/// The structural code model of the family kernel over `enc` in `shape`;
/// `plen` sizes a folded guide's unrolled body. Pointer arguments count the
/// chunk buffers, loci, flags and the outputs (four, or five with a
/// block's guide tags), plus the staged pattern tables and a block's
/// threshold table; a folded guide keeps only `locicnt` as a scalar.
pub fn model(enc: &Encoding, shape: Shape, plen: usize) -> CodeModel {
    let m = CodeModel::new(enc.names[shape as usize])
        .noalias(true)
        .cached_global_scalars(2)
        .guarded_blocks(2)
        .atomic_output(true);
    let (ptrs, staged, valu) = match shape {
        Shape::Folded => {
            let m = m.pointer_args(enc.chunk_args + 6).scalar_args(1);
            return m.extra_valu(enc.valu).folded_pattern(plen as u32);
        }
        Shape::Staged => (8, 2, enc.valu),
        // The threshold table costs an argument, a staged array and loads.
        Shape::Block => (10, 3, enc.block_valu + 4),
        Shape::FoldedBlock => (9, 2, enc.block_valu),
    };
    m.pointer_args(enc.chunk_args + ptrs)
        .scalar_args(3)
        .staging(Staging::Parallel)
        .staged_arrays(staged)
        .ladder_arms(13)
        .extra_valu(valu)
}

/// A serving comparer: candidates `loci`/`flags` from the finder, compared
/// on `reference` against `guides`, compacted into `out`.
#[derive(Debug, Clone)]
pub struct Comparer<R: Reference, G: Guides> {
    /// The chunk, in its encoding.
    pub reference: R,
    /// Candidate loci (chunk-relative).
    pub loci: DeviceBuffer<u32>,
    /// Strand flags from the finder.
    pub flags: DeviceBuffer<u8>,
    /// Number of candidates.
    pub locicnt: u32,
    /// The guides compared per candidate.
    pub guides: G,
    /// Output arrays.
    pub out: G::Output,
}

/// The 2-bit comparer over one staged guide (`comparer-2bit`).
pub type TwoBitComparerKernel = Comparer<TwoBit, Staged>;
/// The 4-bit comparer over one staged guide (`comparer-4bit`).
pub type FourBitComparerKernel = Comparer<Nibbles, Staged>;
/// The fused char comparer over a guide block (`comparer_multi`).
pub type MultiComparerKernel = Comparer<Chars, Block>;

impl TwoBitComparerKernel {
    /// Build the kernel and its local layout.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        packed: DeviceBuffer<u8>,
        mask: DeviceBuffer<u8>,
        loci: DeviceBuffer<u32>,
        flags: DeviceBuffer<u8>,
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        locicnt: usize,
        threshold: u16,
        out: ComparerOutput,
        query: &CompiledSeq,
    ) -> (Self, LocalLayout) {
        let guides = Staged::new(comp, comp_index, threshold, query.plen());
        let kernel =
            Comparer::from_parts(TwoBit { packed, mask }, (loci, flags, locicnt, guides, out));
        let layout = kernel.local_layout();
        (kernel, layout)
    }
}

impl FourBitComparerKernel {
    /// Build the kernel and its local layout.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        nibbles: DeviceBuffer<u8>,
        loci: DeviceBuffer<u32>,
        flags: DeviceBuffer<u8>,
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        locicnt: usize,
        threshold: u16,
        out: ComparerOutput,
        query: &CompiledSeq,
    ) -> (Self, LocalLayout) {
        let guides = Staged::new(comp, comp_index, threshold, query.plen());
        let kernel = Comparer::from_parts(Nibbles(nibbles), (loci, flags, locicnt, guides, out));
        let layout = kernel.local_layout();
        (kernel, layout)
    }
}

impl MultiComparerKernel {
    /// Build the kernel and its local layout for a block of `nguides`
    /// patterns of uniform length `plen`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        chr: DeviceBuffer<u8>,
        loci: DeviceBuffer<u32>,
        flags: DeviceBuffer<u8>,
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        thresholds: GuideThresholds,
        locicnt: usize,
        plen: usize,
        nguides: usize,
        out: MultiComparerOutput,
    ) -> (Self, LocalLayout) {
        let guides = Block::new(comp, comp_index, thresholds, plen, nguides);
        let kernel = Comparer::from_parts(Chars(chr), (loci, flags, locicnt, guides, out));
        let layout = kernel.local_layout();
        (kernel, layout)
    }
}

/// What a caller does with a family kernel once [`dispatch`] has chosen its
/// reference type: launch it on a device or in a SYCL command group, or
/// bind it as an OpenCL kernel.
pub trait Launcher {
    /// What the launch yields.
    type Out;
    /// Launch `kernel`.
    fn launch<K: KernelProgram + 'static>(self, kernel: K) -> Self::Out;
}

/// A family kernel's operands besides its reference: the candidate loci
/// and strand flags, their count, the guides and the output arrays.
pub type Parts<G> = (
    DeviceBuffer<u32>,
    DeviceBuffer<u8>,
    usize,
    G,
    <G as Guides>::Output,
);

/// Build the family kernel over encoding `enc` (an index into
/// [`ENCODINGS`]) reading the chunk buffers `chunk`, and hand it to
/// `launch`.
pub fn dispatch<G: Guides, L: Launcher>(
    enc: usize,
    chunk: &[DeviceBuffer<u8>],
    parts: Parts<G>,
    launch: L,
) -> L::Out {
    match enc {
        0 => launch.launch(Comparer::from_parts(Chars::from_chunk(chunk), parts)),
        1 => launch.launch(Comparer::from_parts(TwoBit::from_chunk(chunk), parts)),
        _ => launch.launch(Comparer::from_parts(Nibbles::from_chunk(chunk), parts)),
    }
}

impl<R: Reference, G: Guides> Comparer<R, G> {
    /// The kernel over `reference`.
    fn from_parts(reference: R, (loci, flags, locicnt, guides, out): Parts<G>) -> Self {
        let locicnt = locicnt as u32;
        Comparer {
            reference,
            loci,
            flags,
            locicnt,
            guides,
            out,
        }
    }

    /// Phase 0: the whole group cooperates in copying the pattern tables —
    /// and a per-guide threshold table — to local memory.
    fn stage(&self, item: &mut ItemCtx, local: &mut LocalMem) {
        let source = self.guides.source();
        let Some(t) = source.tables() else { return };
        let (li, group) = (item.local_id(0), item.local_range(0));
        for k in (li..t.len()).step_by(group) {
            let c = t.comp.load(item, k);
            local.store(item, t.l_comp, k, c);
            let idx = t.comp_index.load(item, k);
            local.store(item, t.l_comp_index, k, idx);
            item.ops(2);
        }
        if let Source::Block(_, BlockThresholds::PerGuide(table, l_thr)) = source {
            for g in (li..t.guides).step_by(group) {
                let thr = table.load(item, g);
                local.store(item, *l_thr, g, thr);
                item.ops(1);
            }
        }
    }

    /// The candidate's reference window, loaded once for a whole block.
    fn window(&self, item: &mut ItemCtx, locus: usize, plen: usize) -> Vec<u8> {
        let mut cache = R::COLD;
        let window = (0..plen)
            .map(|k| self.reference.fetch(item, &mut cache, locus + k))
            .collect();
        item.ops(R::ENCODING.window_ops * plen as u64);
        window
    }

    /// Compare strand `half` (0 forward, 1 reverse) of guide `g` at `locus`
    /// — against the block's `window`, or fetching as it goes — and emit
    /// the strand when its mismatch count stays within `thr`.
    #[allow(clippy::too_many_arguments)]
    fn strand(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        window: Option<&[u8]>,
        locus: u32,
        g: usize,
        thr: u16,
        half: usize,
    ) {
        let (enc, source) = (&R::ENCODING, self.guides.source());
        let plen = source.dims().0;
        let base = (g * 2 + half) * plen;
        let mut cache = R::COLD;
        let mut lmm: u16 = 0;
        // `lmm = 0`, plus resetting the byte cache when fetching as we go.
        item.ops(1 + if window.is_none() { enc.reset_ops } else { 0 });
        for j in 0..plen {
            let (k, p, test_ops) = match source {
                Source::Folded(v) => {
                    let k = v.pattern.index(half, j);
                    if k < 0 {
                        break;
                    }
                    (k as usize, v.pattern.mask(half, k as usize), 1)
                }
                Source::Staged(t, _) | Source::Block(t, _) => {
                    let k = local.load(item, t.l_comp_index, base + j);
                    item.ops(1);
                    if k < 0 {
                        break;
                    }
                    let c = local.load(item, t.l_comp, base + k as usize);
                    if enc.ladder {
                        item.ops(ladder_rank(c));
                    }
                    (k as usize, base_mask(c), enc.test_ops)
                }
            };
            let gm = match window {
                Some(w) => w[k],
                None => self.reference.fetch(item, &mut cache, locus as usize + k),
            };
            item.ops(test_ops);
            // Subset rule: the genome mask must be non-empty and contained
            // in the pattern's.
            if !(gm != 0 && gm & p == gm) {
                lmm += 1;
                item.ops(1);
                if lmm > thr {
                    break;
                }
            }
        }
        item.ops(1);
        if lmm <= thr {
            self.out.emit(item, g, locus, half, lmm);
        }
    }
}

impl<R: Reference, G: Guides> KernelProgram for Comparer<R, G> {
    type Private = ();

    fn name(&self) -> &str {
        R::ENCODING.names[self.guides.source().shape() as usize]
    }

    fn phases(&self) -> usize {
        1 + self.guides.source().tables().is_some() as usize
    }

    fn local_layout(&self) -> LocalLayout {
        // The arrays `Tables::declare` and `Block::new` hand out, in order.
        let mut layout = LocalLayout::new();
        let source = self.guides.source();
        if let Some(t) = source.tables() {
            let _ = layout.array::<u8>(t.len());
            let _ = layout.array::<i32>(t.len());
        }
        if let Source::Block(t, BlockThresholds::PerGuide(..)) = source {
            let _ = layout.array::<u16>(t.guides);
        }
        layout
    }

    fn code_model(&self) -> CodeModel {
        let source = self.guides.source();
        model(&R::ENCODING, source.shape(), source.dims().0)
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, _p: &mut (), local: &mut LocalMem) {
        if phase + 1 < self.phases() {
            return self.stage(item, local);
        }
        let i = item.global_id(0);
        item.ops(1);
        if i >= self.locicnt as usize {
            return;
        }
        let flag = self.flags.load(item, i);
        let locus = self.loci.load(item, i);
        let source = self.guides.source();
        let (plen, guides) = source.dims();
        // A block's window is in bounds: the finder only emits loci with a
        // full `plen` window.
        let window =
            matches!(source, Source::Block(..)).then(|| self.window(item, locus as usize, plen));
        for g in 0..guides {
            let thr = source.threshold(item, local, g);
            item.ops(2);
            if flag == FLAG_BOTH || flag == FLAG_FORWARD {
                self.strand(item, local, window.as_deref(), locus, g, thr, 0);
            }
            item.ops(2);
            if flag == FLAG_BOTH || flag == FLAG_REVERSE {
                self.strand(item, local, window.as_deref(), locus, g, thr, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::specialize::VariantKind;
    use crate::kernels::{ComparerKernel, OptLevel};
    use genome::fourbit::NibbleSeq;
    use genome::twobit::TwoBitSeq;
    use gpu_sim::{DeviceSpec, ExecMode, LaunchReport, NdRange};

    type Entries = Vec<(u32, u8, u16)>;

    const CHAR: usize = 0;
    const TWO_BIT: usize = 1;
    const FOUR_BIT: usize = 2;

    /// Launches over `n` candidates in groups of 64.
    impl Launcher for (&Device, usize) {
        type Out = LaunchReport;

        fn launch<K: KernelProgram + 'static>(self, kernel: K) -> LaunchReport {
            self.0
                .launch(&kernel, NdRange::linear_cover(self.1, 64))
                .unwrap()
        }
    }

    fn device() -> Device {
        Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential)
    }

    /// `seq` on `device` as the chunk buffers of encoding `enc`.
    fn chunk(device: &Device, enc: usize, seq: &[u8]) -> Vec<DeviceBuffer<u8>> {
        let buf = |bytes: &[u8]| device.alloc_from_slice(bytes).unwrap();
        match enc {
            CHAR => vec![buf(seq)],
            TWO_BIT => {
                let two = TwoBitSeq::encode(seq);
                vec![buf(two.packed_bytes()), buf(two.mask_bytes())]
            }
            _ => vec![buf(NibbleSeq::encode(seq).nibble_bytes())],
        }
    }

    /// Candidates on a chunk in encoding `enc`, ready to compare.
    struct Run {
        device: Device,
        chunk: Vec<DeviceBuffer<u8>>,
        loci: DeviceBuffer<u32>,
        flags: DeviceBuffer<u8>,
        n: usize,
        enc: usize,
    }

    impl Run {
        fn new(enc: usize, seq: &[u8], loci: &[u32], flags: &[u8]) -> Run {
            let device = device();
            Run {
                chunk: chunk(&device, enc, seq),
                loci: device.alloc_from_slice(loci).unwrap(),
                flags: device.alloc_from_slice(flags).unwrap(),
                n: loci.len(),
                enc,
                device,
            }
        }

        fn run<G: Guides + 'static>(&self, guides: G, out: G::Output) -> (LaunchReport, G::Output) {
            let parts = (
                self.loci.clone(),
                self.flags.clone(),
                self.n,
                guides,
                out.clone(),
            );
            let report = dispatch(self.enc, &self.chunk, parts, (&self.device, self.n));
            (report, out)
        }

        fn buf<T: gpu_sim::Scalar>(&self, host: &[T]) -> DeviceBuffer<T> {
            self.device.alloc_from_slice(host).unwrap()
        }

        /// One guide: the paper's comparer at opt3 on chars, the staged
        /// family kernel on the packed encodings. Entries in compaction
        /// order.
        fn serial(&self, query: &[u8], threshold: u16) -> (Entries, LaunchReport) {
            let compiled = CompiledSeq::compile(query);
            let (comp, comp_index) = (self.buf(compiled.comp()), self.buf(compiled.comp_index()));
            let out = ComparerOutput::allocate(&self.device, 2 * self.n + 1).unwrap();
            if self.enc == CHAR {
                let (k, _) = ComparerKernel::new(
                    OptLevel::Opt3,
                    self.chunk[0].clone(),
                    self.loci.clone(),
                    self.flags.clone(),
                    comp,
                    comp_index,
                    self.n,
                    threshold,
                    out,
                    &compiled,
                );
                let report = self
                    .device
                    .launch(&k, NdRange::linear_cover(self.n, 64))
                    .unwrap();
                return (k.out.entries(), report);
            }
            let guides = Staged::new(comp, comp_index, threshold, compiled.plen());
            let (report, out) = self.run(guides, out);
            (out.entries(), report)
        }

        /// A fused block, with `folded` as the shared threshold or per-guide
        /// thresholds, demultiplexed per guide.
        fn fused(&self, guides: &[(Vec<u8>, u16)], folded: Option<u16>) -> Vec<Entries> {
            let compiled: Vec<CompiledSeq> = guides
                .iter()
                .map(|(p, _)| CompiledSeq::compile(p))
                .collect();
            let comp: Vec<u8> = compiled.iter().flat_map(|c| c.comp().to_vec()).collect();
            let index: Vec<i32> = compiled
                .iter()
                .flat_map(|c| c.comp_index().to_vec())
                .collect();
            let thresholds = match folded {
                Some(threshold) => GuideThresholds::Folded {
                    threshold,
                    variant: Arc::new(CompiledVariant::compile(
                        VariantKind::MultiComparer,
                        &compiled[0],
                        threshold,
                    )),
                },
                None => {
                    let thr: Vec<u16> = guides.iter().map(|&(_, t)| t).collect();
                    GuideThresholds::PerGuide(self.buf(&thr))
                }
            };
            let block = Block::new(
                self.buf(&comp),
                self.buf(&index),
                thresholds,
                compiled[0].plen(),
                guides.len(),
            );
            let cap = 2 * self.n * guides.len() + 1;
            let out = MultiComparerOutput::allocate(&self.device, cap).unwrap();
            self.run(block, out).1.per_guide(guides.len())
        }
    }

    fn everywhere(len: u32) -> (Vec<u32>, Vec<u8>) {
        let loci: Vec<u32> = (0..len).collect();
        let flags = vec![crate::kernels::finder::FLAG_BOTH; loci.len()];
        (loci, flags)
    }

    fn sorted(mut entries: Entries) -> Entries {
        entries.sort_unstable();
        entries
    }

    #[test]
    fn packed_comparers_match_the_char_comparer_on_concrete_genomes() {
        let seq = b"ACGTACGTACGTAAGGCCTTACGTACGT";
        let (loci, flags) = everywhere(20);
        let char = Run::new(CHAR, seq, &loci, &flags).serial(b"ACGTACNN", 3).0;
        assert!(!char.is_empty());
        for enc in [TWO_BIT, FOUR_BIT] {
            let packed = Run::new(enc, seq, &loci, &flags).serial(b"ACGTACNN", 3).0;
            assert_eq!(sorted(packed), sorted(char.clone()), "encoding {enc}");
        }
    }

    #[test]
    fn nibble_comparer_matches_the_char_comparer_on_exception_dense_sequences() {
        // Soft-masked runs, every degenerate code, U and invalid bytes: the
        // 2-bit path would fall back to char here; the nibble path must
        // reproduce char results exactly.
        let mut seq = b"acgtacgtRYSWKMBDHVNnryswkmbdhvUu-@acgtACGT".to_vec();
        seq.extend(std::iter::repeat_n(*b"aCgTtagRYn", 20).flatten());
        let (loci, flags) = everywhere(seq.len() as u32 - 10);
        let (char, nibble) = (
            Run::new(CHAR, &seq, &loci, &flags),
            Run::new(FOUR_BIT, &seq, &loci, &flags),
        );
        for query in [&b"ACGTACNN"[..], b"NRGNNacgt", b"RYSWKMBD"] {
            for threshold in [0u16, 2, 5] {
                assert_eq!(
                    sorted(nibble.serial(query, threshold).0),
                    sorted(char.serial(query, threshold).0),
                    "query {} threshold {threshold}",
                    std::str::from_utf8(query).unwrap()
                );
            }
        }
    }

    #[test]
    fn masked_bases_count_as_mismatches() {
        for enc in [TWO_BIT, FOUR_BIT] {
            let l = Run::new(enc, b"ACGNN", &[0], &[crate::kernels::finder::FLAG_FORWARD]);
            assert_eq!(
                l.serial(b"ACGTA", 4).0,
                vec![(0, b'+', 2)],
                "encoding {enc}"
            );
        }
    }

    #[test]
    fn packed_loads_are_fewer_than_char_loads() {
        // All soft-masked: the 2-bit words see concrete bases, the nibbles
        // their masks.
        let seq: Vec<u8> = (0..4096u32)
            .map(|i| b"acgt"[(i as usize * 13 + 5) % 4])
            .collect();
        let query = b"GGCCGACCTGTCGCTGACGCNNN";
        let (loci, flags) = everywhere(2048);
        let loads = |enc| {
            let (_, report) = Run::new(enc, &seq, &loci, &flags).serial(query, 22);
            report.counters.global_loads as f64
        };
        // With threshold 22 (no early exit) every compared base costs the
        // char kernel one load; the packed kernels share bytes across four
        // (2-bit) or two (4-bit) bases.
        let char = loads(CHAR);
        assert!(
            loads(TWO_BIT) < char * 0.6,
            "2-bit {} vs char {char}",
            loads(TWO_BIT)
        );
        assert!(
            loads(FOUR_BIT) < char * 0.75,
            "4-bit {} vs char {char}",
            loads(FOUR_BIT)
        );
    }

    fn fixture_seq(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| b"ACGTACGGTTCA"[(i * 7 + i / 3) % 12])
            .collect()
    }

    fn fixture_guides() -> Vec<(Vec<u8>, u16)> {
        vec![
            (b"ACGTACNN".to_vec(), 2),
            (b"TTCAACNN".to_vec(), 3),
            (b"ACGGTTNN".to_vec(), 1),
            (b"CGTACGNN".to_vec(), 2),
            (b"GGTTCANN".to_vec(), 4),
        ]
    }

    /// Every strand-flag combination over the window starts of `seq_len`.
    fn fixture_launch(enc: usize, seq: &[u8], plen: usize) -> Run {
        let loci: Vec<u32> = (0..(seq.len() - plen) as u32).collect();
        let flags: Vec<u8> = loci.iter().map(|&p| [0, 1, 2, 0][p as usize % 4]).collect();
        Run::new(enc, seq, &loci, &flags)
    }

    /// One launch per guide, entries in compaction order (NOT sorted —
    /// byte identity includes ordering).
    fn serial_reference(l: &Run, guides: &[(Vec<u8>, u16)]) -> Vec<Entries> {
        guides.iter().map(|(p, t)| l.serial(p, *t).0).collect()
    }

    #[test]
    fn fused_matches_serial_per_guide_char() {
        let seq = fixture_seq(160);
        let l = fixture_launch(CHAR, &seq, 8);
        let serial = serial_reference(&l, &fixture_guides());
        assert!(serial.iter().any(|g| !g.is_empty()), "fixture must hit");
        assert_eq!(
            l.fused(&fixture_guides(), None),
            serial,
            "char fused output must be byte-identical"
        );
    }

    #[test]
    fn fused_matches_serial_per_guide_2bit() {
        let seq = fixture_seq(160);
        let l = fixture_launch(TWO_BIT, &seq, 8);
        let serial = serial_reference(&l, &fixture_guides());
        assert_eq!(
            l.fused(&fixture_guides(), None),
            serial,
            "2-bit fused output must be byte-identical"
        );
    }

    #[test]
    fn fused_matches_serial_per_guide_4bit() {
        let seq = fixture_seq(160);
        let l = fixture_launch(FOUR_BIT, &seq, 8);
        let serial = serial_reference(&l, &fixture_guides());
        assert_eq!(
            l.fused(&fixture_guides(), None),
            serial,
            "4-bit fused output must be byte-identical"
        );
    }

    #[test]
    fn folded_block_matches_per_guide_thresholds() {
        // All guides at one threshold: the folded (JIT-specialized) block
        // must equal both the per-guide-threshold fused run and serial.
        let seq = fixture_seq(160);
        let guides: Vec<(Vec<u8>, u16)> = fixture_guides()
            .into_iter()
            .map(|(p, _)| (p, 3u16))
            .collect();
        for enc in [CHAR, TWO_BIT, FOUR_BIT] {
            let l = fixture_launch(enc, &seq, 8);
            let serial = serial_reference(&l, &guides);
            assert_eq!(
                l.fused(&guides, Some(3)),
                serial,
                "folded enc {enc} must be byte-identical"
            );
        }
    }

    #[test]
    fn fused_saves_genome_loads_and_launches() {
        let seq = fixture_seq(2048);
        let guides: Vec<(Vec<u8>, u16)> = (0..8)
            .map(|i| {
                let mut p = fixture_seq(20);
                p[19 - (i % 3)] = b'N';
                (p, 20u16) // no early exit: full windows compared
            })
            .collect();
        let (loci, flags) = everywhere(1500);

        let serial = Run::new(CHAR, &seq, &loci, &flags);
        let before = serial.device.traffic();
        for (p, t) in &guides {
            serial.serial(p, *t);
        }
        let serial_traffic = serial.device.traffic().since(&before);

        let fused = Run::new(CHAR, &seq, &loci, &flags);
        let before = fused.device.traffic();
        fused.fused(&guides, None);
        let fused_traffic = fused.device.traffic().since(&before);

        assert_eq!(serial_traffic.kernel_launches, guides.len() as u64);
        assert_eq!(fused_traffic.kernel_launches, 1);
    }

    #[test]
    fn folded_models_price_below_generic() {
        use gpu_sim::isa;
        for enc in [&Chars::ENCODING, &TwoBit::ENCODING, &Nibbles::ENCODING] {
            let g = isa::compile(&model(enc, Shape::Block, 0));
            let s = isa::compile(&model(enc, Shape::FoldedBlock, 0));
            assert!(
                s.code_bytes < g.code_bytes,
                "{}: spec {} !< generic {}",
                enc.names[Shape::Block as usize],
                s.code_bytes,
                g.code_bytes
            );
        }
    }
}

/// Characterization of the serving comparer family at the kernel level.
///
/// Every per-guide, folded and fused comparer is launched directly through
/// its constructor — the path `pipeline::twobit` and the benchmark harness
/// take, which the chunk-runner digests never see — on one fixture mixing
/// concrete, soft-masked, `N` and degenerate IUPAC bases. Each launch's
/// entries (in compaction order), launch counters, cycles, simulated times,
/// occupancy and the compiled resources of its code model are folded into
/// one FNV-1a digest, so any drift in what a kernel loads, counts or emits
/// shows up here.
#[cfg(test)]
mod characterization {
    use std::fmt::Write;
    use std::sync::Arc;

    use genome::fourbit::NibbleSeq;
    use genome::rng::Xoshiro256;
    use genome::twobit::TwoBitSeq;
    use gpu_sim::kernel::KernelProgram;
    use gpu_sim::{isa, Device, DeviceBuffer, DeviceSpec, ExecMode, NdRange};

    use crate::kernels::finder::{FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE};
    use crate::kernels::specialize::{CompiledVariant, VariantKind};
    use crate::kernels::*;
    use crate::pattern::CompiledSeq;

    const PINNED: u64 = 0xf924_d9be_1679_161d;

    /// Concrete bases, soft-masked bases, `N`/`n` and every degenerate code.
    fn fixture_seq() -> Vec<u8> {
        let alphabet = b"ACGTACGTACGTACGTacgtnNRYSWKMBDHV";
        let mut rng = Xoshiro256::seed_from_u64(0x5EED);
        (0..700)
            .map(|_| alphabet[rng.gen_range(0, alphabet.len())])
            .collect()
    }

    /// Guides of one PAM length with `N` runs, IUPAC codes and per-guide
    /// thresholds.
    const GUIDES: [(&[u8], u16); 4] = [
        (b"ACGTRCGTACNNN", 5),
        (b"TTGCAYGTKANNN", 6),
        (b"GGNCATTACGNNN", 4),
        (b"CAGTWCCAGTNNN", 8),
    ];

    struct Fixture {
        device: Device,
        two: TwoBitSeq,
        chr: DeviceBuffer<u8>,
        nibbles: DeviceBuffer<u8>,
        loci: DeviceBuffer<u32>,
        flags: DeviceBuffer<u8>,
        n: usize,
        compiled: Vec<CompiledSeq>,
    }

    impl Fixture {
        fn new() -> Fixture {
            let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
            let seq = fixture_seq();
            let compiled: Vec<CompiledSeq> = GUIDES
                .iter()
                .map(|(g, _)| CompiledSeq::compile(g))
                .collect();
            let plen = compiled[0].plen();
            let loci: Vec<u32> = (0..(seq.len() - plen) as u32).collect();
            let flags: Vec<u8> = loci
                .iter()
                .map(|&p| [FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE, FLAG_BOTH, 3][p as usize % 5])
                .collect();
            Fixture {
                two: TwoBitSeq::encode(&seq),
                chr: device.alloc_from_slice(&seq).unwrap(),
                nibbles: device
                    .alloc_from_slice(NibbleSeq::encode(&seq).nibble_bytes())
                    .unwrap(),
                loci: device.alloc_from_slice(&loci).unwrap(),
                flags: device.alloc_from_slice(&flags).unwrap(),
                n: loci.len(),
                compiled,
                device,
            }
        }

        fn packed(&self) -> DeviceBuffer<u8> {
            self.device
                .alloc_from_slice(self.two.packed_bytes())
                .unwrap()
        }

        fn mask(&self) -> DeviceBuffer<u8> {
            self.device.alloc_from_slice(self.two.mask_bytes()).unwrap()
        }

        fn two_bit(&self) -> TwoBit {
            TwoBit {
                packed: self.packed(),
                mask: self.mask(),
            }
        }

        fn out(&self) -> ComparerOutput {
            ComparerOutput::allocate(&self.device, 2 * self.n).unwrap()
        }

        fn multi_out(&self) -> MultiComparerOutput {
            MultiComparerOutput::allocate(&self.device, 2 * self.n * GUIDES.len()).unwrap()
        }

        fn tables(&self, g: usize) -> (DeviceBuffer<u8>, DeviceBuffer<i32>) {
            let c = &self.compiled[g];
            (
                self.device.alloc_from_slice(c.comp()).unwrap(),
                self.device.alloc_from_slice(c.comp_index()).unwrap(),
            )
        }

        fn block_tables(&self) -> (DeviceBuffer<u8>, DeviceBuffer<i32>) {
            let comp: Vec<u8> = self
                .compiled
                .iter()
                .flat_map(|c| c.comp().to_vec())
                .collect();
            let index: Vec<i32> = self
                .compiled
                .iter()
                .flat_map(|c| c.comp_index().to_vec())
                .collect();
            (
                self.device.alloc_from_slice(&comp).unwrap(),
                self.device.alloc_from_slice(&index).unwrap(),
            )
        }

        /// Per-guide thresholds, or every guide at 4 folded into a variant.
        fn thresholds(&self, folded: bool) -> GuideThresholds {
            if folded {
                let variant =
                    CompiledVariant::compile(VariantKind::MultiComparer, &self.compiled[0], 4);
                return GuideThresholds::Folded {
                    threshold: 4,
                    variant: Arc::new(variant),
                };
            }
            let thr: Vec<u16> = GUIDES.iter().map(|&(_, t)| t).collect();
            GuideThresholds::PerGuide(self.device.alloc_from_slice(&thr).unwrap())
        }

        fn variant(&self, kind: VariantKind, g: usize) -> Arc<CompiledVariant> {
            Arc::new(CompiledVariant::compile(
                kind,
                &self.compiled[g],
                GUIDES[g].1,
            ))
        }

        /// Launch `kernel` over the candidates and append its record —
        /// `read` pulls the entries back in compaction order — to `log`.
        fn record<K: KernelProgram>(
            &self,
            log: &mut String,
            kernel: &K,
            read: impl Fn(&K) -> Vec<(u32, u8, u16, u16)>,
        ) {
            let report = self
                .device
                .launch(kernel, NdRange::linear_cover(self.n, 64))
                .unwrap();
            writeln!(
                log,
                "{} entries={:?} counters={:?} wave_cycles={:#x} sim={:#x} exec={:#x} \
                 occupancy={:?} resources={:?} isa={:?}",
                report.kernel,
                read(kernel),
                report.counters,
                report.wave_cycles.to_bits(),
                report.sim_time_s.to_bits(),
                report.exec_time_s.to_bits(),
                report.occupancy,
                report.resources,
                isa::compile(&kernel.code_model()),
            )
            .unwrap();
        }
    }

    fn single(out: &ComparerOutput) -> Vec<(u32, u8, u16, u16)> {
        out.entries()
            .into_iter()
            .map(|(l, d, m)| (l, d, m, 0))
            .collect()
    }

    fn multi(out: &MultiComparerOutput) -> Vec<(u32, u8, u16, u16)> {
        let guide = out.guide.to_vec();
        let entries = out.entries.entries().into_iter().zip(guide);
        entries.map(|((l, d, m), g)| (l, d, m, g)).collect()
    }

    /// Every instantiation of the family, per guide or per block (the block
    /// with per-guide and with folded thresholds), in one digest.
    #[test]
    fn family_digest_is_pinned() {
        let f = Fixture::new();
        let mut log = String::new();
        for (g, &(_, threshold)) in GUIDES.iter().enumerate() {
            let (comp, index) = f.tables(g);
            let (k, _) = TwoBitComparerKernel::new(
                f.packed(),
                f.mask(),
                f.loci.clone(),
                f.flags.clone(),
                comp.clone(),
                index.clone(),
                f.n,
                threshold,
                f.out(),
                &f.compiled[g],
            );
            f.record(&mut log, &k, |k| single(&k.out));
            let (k, _) = FourBitComparerKernel::new(
                f.nibbles.clone(),
                f.loci.clone(),
                f.flags.clone(),
                comp,
                index,
                f.n,
                threshold,
                f.out(),
                &f.compiled[g],
            );
            f.record(&mut log, &k, |k| single(&k.out));
            let k = Comparer {
                reference: Chars(f.chr.clone()),
                loci: f.loci.clone(),
                flags: f.flags.clone(),
                locicnt: f.n as u32,
                guides: f.variant(VariantKind::CharComparer, g),
                out: f.out(),
            };
            f.record(&mut log, &k, |k| single(&k.out));
            let k = Comparer {
                reference: f.two_bit(),
                loci: f.loci.clone(),
                flags: f.flags.clone(),
                locicnt: f.n as u32,
                guides: f.variant(VariantKind::TwoBitComparer, g),
                out: f.out(),
            };
            f.record(&mut log, &k, |k| single(&k.out));
            let k = Comparer {
                reference: Nibbles(f.nibbles.clone()),
                loci: f.loci.clone(),
                flags: f.flags.clone(),
                locicnt: f.n as u32,
                guides: f.variant(VariantKind::FourBitComparer, g),
                out: f.out(),
            };
            f.record(&mut log, &k, |k| single(&k.out));
        }
        let (plen, nguides) = (f.compiled[0].plen(), GUIDES.len());
        for folded in [false, true] {
            let (comp, index) = f.block_tables();
            let (k, _) = MultiComparerKernel::new(
                f.chr.clone(),
                f.loci.clone(),
                f.flags.clone(),
                comp.clone(),
                index.clone(),
                f.thresholds(folded),
                f.n,
                plen,
                nguides,
                f.multi_out(),
            );
            f.record(&mut log, &k, |k| multi(&k.out));
            let k = Comparer {
                reference: f.two_bit(),
                loci: f.loci.clone(),
                flags: f.flags.clone(),
                locicnt: f.n as u32,
                guides: Block::new(
                    comp.clone(),
                    index.clone(),
                    f.thresholds(folded),
                    plen,
                    nguides,
                ),
                out: f.multi_out(),
            };
            f.record(&mut log, &k, |k| multi(&k.out));
            let k = Comparer {
                reference: Nibbles(f.nibbles.clone()),
                loci: f.loci.clone(),
                flags: f.flags.clone(),
                locicnt: f.n as u32,
                guides: Block::new(comp, index, f.thresholds(folded), plen, nguides),
                out: f.multi_out(),
            };
            f.record(&mut log, &k, |k| multi(&k.out));
        }
        assert!(
            log.lines().all(|l| !l.contains("entries=[]")),
            "every launch must emit"
        );
        let digest = log.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        if digest != PINNED {
            eprintln!("{log}");
            panic!("comparer family digest {digest:#018x} != pinned {PINNED:#018x}");
        }
    }
}
