//! Chunk-level launch API — one finder→comparer interaction as a reusable
//! unit of device work.
//!
//! The serial pipelines ([`super::ocl`], [`super::sycl`], [`super::multi`])
//! all repeat the same inner loop: upload a genome chunk, launch the
//! `finder` once, then launch the `comparer` once per query and read back
//! the surviving entries. This module writes that loop body once, as
//! [`ChunkRunner<B>`], generic over a [`Backend`] that holds only what
//! differs between the two runtimes — the Table I contrast:
//!
//! - [`OpenCl`] walks the thirteen OpenCL steps: it preallocates scratch
//!   buffers once, binds every kernel argument positionally with `set_arg`
//!   and moves data with explicit enqueued transfers.
//! - [`Sycl`] walks the eight SYCL steps: it creates per-run buffers, binds
//!   them through accessors inside command groups (each launch re-uploads
//!   what it binds, Table III) and releases them implicitly.
//!
//! [`OclChunkRunner`] and [`SyclChunkRunner`] are the two instantiations.
//! Each exposes one call, `run`, over a [`Payload`] (raw bases, compare-safe
//! 2-bit words or 4-bit nibbles), an optional residency token and a
//! [`Sites`] source (launch the finder, launch it and capture its candidate
//! list, or replay a captured list), plus an upload-only `prefetch`.
//! `run_chunk` is the fresh raw run the serial pipelines make.
//!
//! A run is three steps. *Stage* uploads the payload or reuses its resident
//! copy (backend). *Find* launches the backend's finder, or stages a
//! replayed list unless the same list is still staged under the token
//! (runner). *Compare* is the runner's guide-block loop: one backend
//! launch per query, or one fused launch per block of guides on a
//! multi-guide runner, demultiplexed into per-query entries.
//!
//! The runners exist so a *scheduler* can drive chunks out of order and
//! coalesce many queries onto one chunk upload: `casoff-serve` batches
//! concurrent jobs that target the same genome chunk and pays for one
//! chunk transfer plus one finder launch per batch instead of one per job.

use gpu_sim::kernel::{KernelProgram, LocalLayout};
use gpu_sim::profile::Profile;
use gpu_sim::{Device, DeviceBuffer, NdRange, TrafficSnapshot};
use opencl_rt::{
    ClBuffer, ClDeviceId, ClKernelFunction, ClResult, CommandQueue, Context, Kernel, KernelArg,
    KernelSource, MemFlags, Program,
};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::sync::Arc;
use sycl_rt::{AccessMode, Buffer, Handler, Queue, SpecSelector, SyclEvent, SyclResult};

use genome::base::is_concrete;
use genome::fourbit::NibbleSeq;
use genome::twobit::PackedSeq;

use crate::input::Query;
use crate::kernels::cl::{
    ClComparer, ClFamily, ClFinder, ClNibbleFinder, ClPackedFinder, ClSpecializedNibbleFinder,
};
use crate::kernels::specialize::{self, CompiledVariant, VariantKind};
use crate::kernels::{
    dispatch, Block, ComparerKernel, ComparerOutput, FinderKernel, FinderOutput, GuideThresholds,
    Launcher, MultiComparerOutput, NibbleFinderKernel, OptLevel, PackedFinderKernel,
    SpecializedNibbleFinderKernel, Staged as StagedGuide, GUIDE_BLOCK,
};
use crate::pattern::CompiledSeq;
use crate::report::TimingBreakdown;

use super::sycl::SYCL_WORK_GROUP_SIZE;
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

    /// The per-query comparer variant of the payload's encoding.
    fn comparer_kind(&self) -> VariantKind {
        match self {
            Payload::Raw(_) => VariantKind::CharComparer,
            Payload::Packed(_) => VariantKind::TwoBitComparer,
            Payload::Nibble(_) => VariantKind::FourBitComparer,
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

/// One comparer entry `(guide, locus, direction, mismatches)` as a backend
/// reads it back; `guide` indexes the launch's block (0 for a serial one).
pub type GuideEntry = (u16, u32, u8, u16);

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

/// The encoding a run staged, with the backend's handle on the device
/// buffers holding it — the one thing the finder and comparer launches
/// branch on.
#[derive(Clone, Copy)]
pub enum Staged<R, P, N> {
    /// Decoded char bases.
    Char(R),
    /// 2-bit packed words plus N-mask.
    TwoBit(P),
    /// 4-bit nibble words.
    FourBit(N),
}

impl<R, P, N> Staged<R, P, N> {
    /// Position of the staged encoding among per-encoding counterparts
    /// (char, 2-bit, 4-bit).
    fn index(&self) -> usize {
        match self {
            Staged::Char(_) => 0,
            Staged::TwoBit(_) => 1,
            Staged::FourBit(_) => 2,
        }
    }
}

/// Token-keyed residency, most recently used first. It ages OpenCL's
/// preallocated slots, SYCL's retained buffers and both APIs' staged
/// candidate lists.
struct Lru<T> {
    entries: RefCell<Vec<(Option<u64>, T)>>,
    cap: usize,
    /// Whether a token-less value still takes a slot. It does in
    /// preallocated scratch, whose slot it overwrites; a per-run buffer is
    /// only retained under a token.
    untagged: bool,
}

impl<T: Clone> Lru<T> {
    fn new(cap: usize, untagged: bool) -> Self {
        Lru {
            entries: RefCell::new(Vec::new()),
            cap,
            untagged,
        }
    }

    /// Remove and return the value under `token` (a token-less value is
    /// never found).
    fn take(&self, token: Option<u64>) -> Option<T> {
        let mut l = self.entries.borrow_mut();
        let i = l.iter().position(|(t, _)| t.is_some() && *t == token)?;
        Some(l.remove(i).1)
    }

    /// Retain `value` under `token` as the most recently used entry,
    /// dropping the least recently used beyond capacity.
    fn put(&self, token: Option<u64>, value: T) {
        if token.is_some() || self.untagged {
            let mut l = self.entries.borrow_mut();
            l.insert(0, (token, value));
            l.truncate(self.cap);
        }
    }

    /// The value resident under `token` (a hit: `true`), else `miss`'s —
    /// retained under `token` either way.
    fn claim(&self, token: Option<u64>, miss: impl FnOnce() -> T) -> (T, bool) {
        let hit = self.take(token);
        let reused = hit.is_some();
        let value = hit.unwrap_or_else(miss);
        self.put(token, value.clone());
        (value, reused)
    }
}

impl Lru<usize> {
    /// `n` preallocated slot indices, claimed least recently used first
    /// (slot 0 first).
    fn slots(n: usize) -> Self {
        let lru = Lru::new(n, true);
        lru.entries
            .borrow_mut()
            .extend((0..n).rev().map(|i| (None, i)));
        lru
    }

    /// The slot holding `token`, else the least recently used one, retagged.
    fn claim_slot(&self, token: Option<u64>) -> (usize, bool) {
        self.claim(token, || {
            let lru = self.entries.borrow_mut().pop();
            lru.expect("a runner always has at least one slot").1
        })
    }
}

/// Message of the replay-without-token contract violation.
const REPLAY_TOKEN: &str = "a replay tracks its candidate list by the run's residency token";

/// One comparer launch of the guide-block loop, as [`ChunkRunner`] hands it
/// to its backend.
pub enum Launch {
    /// One query alone.
    Serial {
        /// The query's index in its [`QueryTables`].
        qi: usize,
        /// The variant folding the query's pattern and threshold, when the
        /// runner specializes; `None` runs the generic comparer over the
        /// query's uploaded tables.
        folded: Option<VariantKind>,
    },
    /// One fused launch over a block of guides.
    Fused(FusedBlock),
}

/// The host side of one fused comparer launch.
pub struct FusedBlock {
    /// The guides' `[fwd | rc]` tables, guide `bi` at `bi * 2 * plen`.
    pub comp: Vec<u8>,
    /// The matching index tables.
    pub comp_index: Vec<i32>,
    /// One mismatch threshold per guide.
    pub thresholds: Vec<u16>,
    /// Every guide shares `thresholds[0]` and the runner specializes: run
    /// the threshold-folded variant instead of staging the table.
    pub folded: bool,
}

/// What differs between the two runtimes under a [`ChunkRunner`]: how a
/// payload, a candidate list and per-query tables reach the device, how a
/// kernel is bound and launched, and the Table I steps that logs. Each
/// implementation keeps its own data movement — the seam never gives one
/// API the other's buffer reuse.
pub trait Backend: Sized {
    /// The runtime's error: OpenCL error codes or SYCL exceptions.
    type Error: std::fmt::Debug;
    /// Device side of the per-query comparer tables.
    type Tables;
    /// A staged payload: handles on the device buffers holding it.
    type Staged;
    /// A candidate list on the device.
    type Cands: Clone;
    /// Whether every finder launch writes one preallocated candidate
    /// scratch — so a token-less run unstages the list a token held —
    /// rather than per-run buffers a token retains.
    const SHARED_CANDIDATES: bool;

    /// Set the runtime up for `pattern` on `config`'s device.
    fn new(config: &PipelineConfig, pattern: CompiledSeq) -> Result<Self, Self::Error>;
    /// Upload the generic comparer tables of `queries` (none when the
    /// comparers fold or fuse them).
    fn prepare(&self, queries: &[CompiledSeq]) -> Result<Self::Tables, Self::Error>;
    /// Release per-query tables.
    fn release_tables(tables: Self::Tables);
    /// Put `p` on the device, unless it is still resident under `token`;
    /// returns the staged payload and whether the resident copy was reused.
    fn stage(
        &self,
        p: Payload<'_>,
        token: Option<u64>,
        timing: &mut TimingBreakdown,
    ) -> Result<(Self::Staged, bool), Self::Error>;
    /// Move a freshly staged payload onto the device without a launch.
    fn bind(&self, staged: &Self::Staged) -> Result<(), Self::Error>;
    /// Launch the finder flavour of the staged encoding; returns the
    /// candidate list, its length and the kernel time.
    fn find(
        &self,
        staged: &Self::Staged,
        p: Payload<'_>,
        scan_len: usize,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<(Self::Cands, usize, f64), Self::Error>;
    /// Stage a replayed candidate list.
    fn upload_cands(
        &self,
        list: &CandidateSites,
        timing: &mut TimingBreakdown,
    ) -> Result<Self::Cands, Self::Error>;
    /// Read a non-empty candidate list back into `list`, sized to it.
    fn read_cands(
        &self,
        cands: &Self::Cands,
        list: &mut CandidateSites,
        timing: &mut TimingBreakdown,
    ) -> Result<(), Self::Error>;
    /// Run one comparer launch over the `n` staged candidates; returns the
    /// kernel time and the surviving entries in compaction order.
    #[allow(clippy::too_many_arguments)]
    fn compare(
        &self,
        staged: &Self::Staged,
        cands: &Self::Cands,
        n: usize,
        launch: Launch,
        tables: &QueryTables<Self>,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<(f64, Vec<GuideEntry>), Self::Error>;
    /// The simulated device.
    fn device(&self) -> &Device;
    /// Simulated queue time consumed so far, in seconds.
    fn elapsed_s(&self) -> f64;
    /// Block until every queued command completes.
    fn wait(&self);
    /// Release every owned object.
    fn release(self);
}

/// Per-query comparer tables: each query's compiled two-strand sequence
/// (the fold and fusion input), its mismatch threshold, and the backend's
/// device tables.
pub struct QueryTables<B: Backend> {
    compiled: Vec<CompiledSeq>,
    thresholds: Vec<u16>,
    dev: B::Tables,
}

impl<B: Backend> QueryTables<B> {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// True when no queries are prepared.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// Release the device tables (step 13 on OpenCL; a SYCL drop).
    pub fn release(self) {
        B::release_tables(self.dev);
    }
}

/// The chunk-level runner over one backend: owns the capacity contract,
/// the staged candidate lists and the guide-block comparer loop, for chunks
/// of up to `chunk_size` owned positions.
pub struct ChunkRunner<B: Backend> {
    b: B,
    plen: usize,
    cap: usize,
    specialize: bool,
    multi_guide: bool,
    /// Candidate lists staged under a residency token, with their lengths.
    cands: Lru<(usize, B::Cands)>,
}

/// The OpenCL chunk runner.
pub type OclChunkRunner = ChunkRunner<OpenCl>;
/// The SYCL chunk runner.
pub type SyclChunkRunner = ChunkRunner<Sycl>;
/// Query tables of an [`OclChunkRunner`].
pub type OclQueryTables = QueryTables<OpenCl>;
/// Query tables of a [`SyclChunkRunner`].
pub type SyclQueryTables = QueryTables<Sycl>;

impl<B: Backend> ChunkRunner<B> {
    /// Build the runner for `pattern_seq` on `config`'s device: on OpenCL
    /// steps 1-8 of Table I plus the step-5 scratch allocations, on SYCL
    /// the selector, queue and constant pattern tables.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures (context, build, allocation).
    pub fn new(config: &PipelineConfig, pattern_seq: &[u8]) -> Result<Self, B::Error> {
        let pattern = CompiledSeq::compile(pattern_seq);
        let slots = if B::SHARED_CANDIDATES {
            1
        } else {
            config.resident_slots.max(1)
        };
        Ok(ChunkRunner {
            plen: pattern.plen(),
            cap: config.chunk_size,
            specialize: config.specialize,
            multi_guide: config.multi_guide,
            cands: Lru::new(slots, B::SHARED_CANDIDATES),
            b: B::new(config, pattern)?,
        })
    }

    /// Pattern length (PAM window) the runner was compiled for.
    pub fn plen(&self) -> usize {
        self.plen
    }

    /// Compile `queries` and upload the tables their comparers read; the
    /// tables can be reused across every chunk of a search.
    fn tables(&self, queries: &[Query]) -> Result<QueryTables<B>, B::Error> {
        let compile = |q: &Query| CompiledSeq::compile(&q.seq);
        let compiled: Vec<_> = queries.iter().map(compile).collect();
        // Specialized comparers fold the compiled sequence into the kernel
        // body and fused blocks concatenate it at launch time, so per-query
        // table uploads would be dead weight. A single query never fuses.
        let fused = self.multi_guide && queries.len() > 1;
        let generic = if self.specialize || fused {
            &[][..]
        } else {
            &compiled[..]
        };
        Ok(QueryTables {
            dev: self.b.prepare(generic)?,
            thresholds: queries.iter().map(|q| q.max_mismatches).collect(),
            compiled,
        })
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
    /// Propagates runtime failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk exceeds the runner's configured capacity.
    pub fn run_chunk(
        &self,
        seq: &[u8],
        scan_len: usize,
        tables: &QueryTables<B>,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<Vec<QueryEntries>, B::Error> {
        let p = Payload::Raw(seq);
        let run = self.run(p, scan_len, None, Sites::Find, tables, timing, profile);
        run.map(|run| run.per_query)
    }

    /// Run one finder→comparer interaction on payload `p`.
    ///
    /// With a `token`, the backend keeps the payload resident; a later run
    /// under the same token skips the upload (recorded on the device as
    /// skipped h2d traffic) and reports `reused`. OpenCL keeps raw bases in
    /// its `chr` scratch (which the decoding finders overwrite) and 2-bit
    /// and 4-bit payloads in the least-recently-used of `resident_slots`
    /// preallocated slots; SYCL retains the still-bound buffers of the last
    /// `resident_slots` tokens per encoding. The token is the *caller's*
    /// identity for the chunk content — two different chunks must never
    /// share one.
    ///
    /// A 2-bit run decodes on-device in its finder and compares directly on
    /// the packed words; a 4-bit run does the same on the nibbles, which
    /// carry the full IUPAC semantics. Either way the entries are
    /// byte-identical to the raw run over the decoded bases.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
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
        tables: &QueryTables<B>,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<ChunkRun, B::Error> {
        self.assert_fits(p, scan_len);
        p.assert_compare_safe();
        let (staged, reused) = self.b.stage(p, token, timing)?;
        if reused {
            self.b.device().record_h2d_skipped(p.upload_bytes());
        }
        let (cands, n, captured) =
            self.find(&staged, p, scan_len, token, sites, timing, profile)?;
        let per_query = self.compare(&staged, p, &cands, n, tables, timing, profile)?;
        Ok(ChunkRun {
            per_query,
            reused,
            captured,
        })
    }

    /// [`run`](Self::run) against freshly prepared tables for `queries`,
    /// released afterwards.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    #[allow(clippy::too_many_arguments)]
    pub fn run_queries(
        &self,
        p: Payload<'_>,
        scan_len: usize,
        token: Option<u64>,
        sites: Sites<'_>,
        queries: &[Query],
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<ChunkRun, B::Error> {
        let tables = self.tables(queries)?;
        let run = self.run(p, scan_len, token, sites, &tables, timing, profile)?;
        tables.release();
        Ok(run)
    }

    /// Upload-only warmup: stage `p` under `token` without launching a
    /// kernel (SYCL binds it in a kernel-less command group, charging the
    /// implicit accessor upload the first run would have paid), so a later
    /// [`run`](Self::run) with the same token skips the transfer. Returns
    /// whether an upload actually happened (`false` when the token was
    /// already resident).
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    ///
    /// # Panics
    ///
    /// Panics if the chunk exceeds the runner's configured capacity.
    pub fn prefetch(&self, token: u64, p: Payload<'_>) -> Result<bool, B::Error> {
        self.assert_fits(p, 0);
        let (staged, reused) = self
            .b
            .stage(p, Some(token), &mut TimingBreakdown::default())?;
        if !reused {
            self.b.bind(&staged)?;
        }
        Ok(!reused)
    }

    /// The capacity contract: a chunk holds at most `chunk_size` scanned
    /// positions plus `plen` context bases.
    fn assert_fits(&self, p: Payload<'_>, scan_len: usize) {
        assert!(
            p.seq_len() <= self.cap + self.plen && scan_len <= self.cap,
            "chunk ({} bases, {scan_len} scanned) exceeds runner capacity {}",
            p.seq_len(),
            self.cap
        );
    }

    /// Produce the candidate list and its length (plus the read-back list
    /// under [`Sites::Capture`]): launch the finder, or stage a replayed
    /// list — skipping even that upload when the same list is still staged
    /// under the token from an earlier run.
    #[allow(clippy::too_many_arguments)]
    fn find(
        &self,
        staged: &B::Staged,
        p: Payload<'_>,
        scan_len: usize,
        token: Option<u64>,
        sites: Sites<'_>,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<(B::Cands, usize, Option<CandidateSites>), B::Error> {
        if let Sites::Replay(list) = sites {
            let (token, n) = (token.expect(REPLAY_TOKEN), list.len());
            assert!(n <= self.cap, "candidate list exceeds runner capacity");
            self.b.device().record_launch_skipped();
            timing.finder_launches_skipped += 1;
            timing.candidates += n as u64;
            let cands = match self.cands.take(Some(token)) {
                Some((len, cands)) if len == n => {
                    self.b.device().record_h2d_skipped(list.byte_len() as u64);
                    cands
                }
                _ => self.b.upload_cands(list, timing)?,
            };
            self.cands.put(Some(token), (n, cands.clone()));
            return Ok((cands, n, None));
        }
        let (cands, n, kernel_s) = self.b.find(staged, p, scan_len, timing, profile)?;
        timing.finder_s += kernel_s;
        timing.finder_launches += 1;
        timing.candidates += n as u64;
        self.cands.put(token, (n, cands.clone()));
        if !matches!(sites, Sites::Capture) {
            return Ok((cands, n, None));
        }
        let mut list = CandidateSites {
            loci: vec![0u32; n],
            flags: vec![0u8; n],
        };
        if n > 0 {
            self.b.read_cands(&cands, &mut list, timing)?;
        }
        Ok((cands, n, Some(list)))
    }

    /// Comparer stage against the `n` staged candidates: one launch per
    /// prepared query on the staged encoding — or, on a multi-guide runner
    /// with several queries, one fused launch per block of up to
    /// [`GUIDE_BLOCK`] guides (`ceil(k / GUIDE_BLOCK)` launches instead of
    /// `k`), whose guide-tagged output demultiplexes, in compaction order,
    /// into byte-identical per-query entries. A fused block whose guides
    /// share one threshold runs the threshold-folded variant when the
    /// runner specializes; mixed thresholds stage the per-guide table.
    #[allow(clippy::too_many_arguments)]
    fn compare(
        &self,
        staged: &B::Staged,
        p: Payload<'_>,
        cands: &B::Cands,
        n: usize,
        tables: &QueryTables<B>,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> Result<Vec<QueryEntries>, B::Error> {
        let mut per_query = vec![Vec::new(); tables.len()];
        if n == 0 {
            return Ok(per_query);
        }
        let fused = self.multi_guide && tables.len() > 1;
        let block = if fused { GUIDE_BLOCK } else { 1 };
        for start in (0..tables.len()).step_by(block) {
            let end = (start + block).min(tables.len());
            let launch = if fused {
                let seqs = &tables.compiled[start..end];
                let thresholds = tables.thresholds[start..end].to_vec();
                Launch::Fused(FusedBlock {
                    comp: seqs.iter().flat_map(|c| c.comp().to_vec()).collect(),
                    comp_index: seqs.iter().flat_map(|c| c.comp_index().to_vec()).collect(),
                    folded: self.specialize && thresholds.iter().all(|&t| t == thresholds[0]),
                    thresholds,
                })
            } else {
                let folded = self.specialize.then(|| p.comparer_kind());
                Launch::Serial { qi: start, folded }
            };
            let (kernel_s, entries) = self
                .b
                .compare(staged, cands, n, launch, tables, timing, profile)?;
            timing.comparer_s += kernel_s;
            timing.comparer_launches += 1;
            timing.fused_launches += usize::from(fused);
            timing.entries += entries.len() as u64;
            for (guide, locus, dir, mm) in entries {
                per_query[start + guide as usize].push((locus, dir, mm));
            }
        }
        Ok(per_query)
    }

    /// Block until every queued command completes.
    pub fn wait(&self) {
        self.b.wait();
    }

    /// Simulated queue time consumed so far, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.b.elapsed_s()
    }

    /// Name of the simulated device the runner drives.
    pub fn device_name(&self) -> String {
        self.b.device().spec().name.to_owned()
    }

    /// Transfer/launch counters of the underlying simulated device.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.b.device().traffic()
    }

    /// Release every owned object: step 13 on OpenCL, implicit release on
    /// SYCL.
    pub fn release(self) {
        self.b.release();
    }
}

impl ChunkRunner<OpenCl> {
    /// Upload the comparer tables for `queries`: two real
    /// `clEnqueueWriteBuffer` transfers per query, unless the runner
    /// specializes or fuses; the tables can be reused across every chunk
    /// of a search.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn prepare_queries(&self, queries: &[Query]) -> ClResult<OclQueryTables> {
        self.tables(queries)
    }

    /// Block until every enqueued command completes (`clFinish`).
    pub fn finish(&self) {
        self.wait();
    }

    /// The context's Table I step log, shared: it keeps recording what
    /// the runner does next, its release included.
    pub fn step_log(&self) -> opencl_rt::StepLog {
        self.b.ctx.step_log().clone()
    }
}

impl ChunkRunner<Sycl> {
    /// Prepare the comparer tables for `queries`; their buffers upload
    /// implicitly when a comparer binds them. The tables can be reused
    /// across every chunk of a search.
    pub fn prepare_queries(&self, queries: &[Query]) -> SyclQueryTables {
        self.tables(queries)
            .expect("SYCL table buffers upload on first bind, so preparing cannot fail")
    }

    /// The queue's Table I step log, shared: it keeps recording what the
    /// runner does next, its implicit release on drop included.
    pub fn step_log(&self) -> sycl_rt::StepLog {
        self.b.queue.step_log().clone()
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

/// What an OpenCL run staged: the `chr` scratch, or a resident slot index.
type OclStaged = Staged<(), usize, usize>;

/// Device-side machinery of the fused multi-guide comparer path: the three
/// generic `comparer_multi*` kernels plus scratch sized for one block of up
/// to [`GUIDE_BLOCK`] guides and the guide tags of its compacted output.
struct MultiScratch {
    /// `comparer_multi`, `comparer_multi_2bit`, `comparer_multi_4bit`.
    kernels: [Kernel; 3],
    comp: ClBuffer<u8>,
    comp_index: ClBuffer<i32>,
    thresholds: ClBuffer<u16>,
    guide: ClBuffer<u16>,
}

/// OpenCL per-query device state: the generic comparer tables (none when
/// the runner specializes or fuses) and a lazily built per-(query, kind)
/// one-kernel program cache — specialized kernels embed the pattern, so
/// they cannot be shared across queries the way the generic kernels are.
pub struct OclTables {
    bufs: Vec<(ClBuffer<u8>, ClBuffer<i32>)>,
    spec_kernels: RefCell<HashMap<(usize, VariantKind), (Program, Kernel)>>,
}

/// Fetch the kernel cached under `key`, building its program on first use.
fn cached<K: Hash + Eq>(
    map: &mut HashMap<K, (Program, Kernel)>,
    key: K,
    build: impl FnOnce() -> ClResult<(Program, Kernel)>,
) -> ClResult<&Kernel> {
    Ok(match map.entry(key) {
        Entry::Occupied(e) => &e.into_mut().1,
        Entry::Vacant(v) => &v.insert(build()?).1,
    })
}

/// The OpenCL backend: the 13-step machinery of Table I (context, queue,
/// one program holding every generic kernel) plus scratch preallocated for
/// chunks of up to `chunk_size` owned positions and reused by every run.
/// Kernels are bound positionally with `set_arg` through
/// [`crate::kernels::cl`].
pub struct OpenCl {
    ctx: Context,
    queue: CommandQueue,
    program: Program,
    /// `finder`, `finder_packed` and `finder_nibble`, in [`Staged`] order.
    /// A specializing runner's nibble finder is the variant folding the
    /// PAM pattern, known at construction: it lives in the main program
    /// and scans the nibble words directly.
    finders: [Kernel; 3],
    /// `comparer`, `comparer_2bit`, `comparer_4bit`, in [`Staged`] order.
    comparers: [Kernel; 3],
    specialize: bool,
    pattern: CompiledSeq,
    /// Decoded bases, shared by raw uploads and every decoding finder;
    /// `chr_token` names the raw payload it still holds.
    chr: ClBuffer<u8>,
    chr_token: Cell<Option<u64>>,
    packed: Vec<PackedBufs>,
    packed_slots: Lru<usize>,
    nibbles: Vec<ClBuffer<u8>>,
    nibble_slots: Lru<usize>,
    pat: ClBuffer<u8>,
    pat_index: ClBuffer<i32>,
    loci: ClBuffer<u32>,
    flags: ClBuffer<u8>,
    fcount: ClBuffer<u32>,
    /// Compacted comparer output, sized for a fused block when the runner
    /// fuses (every candidate can pass on both strands of every guide).
    mm_count: ClBuffer<u16>,
    direction: ClBuffer<u8>,
    mm_loci: ClBuffer<u32>,
    ecount: ClBuffer<u32>,
    /// Fused multi-guide machinery, present when the runner is built with
    /// [`PipelineConfig::multi_guide`].
    multi: Option<MultiScratch>,
    /// Lazily built specialized fused programs, keyed by (encoding,
    /// shared block threshold) — the folded PAM pattern is fixed per
    /// runner, so it does not participate in the key.
    spec_multi_kernels: RefCell<HashMap<(usize, u16), (Program, Kernel)>>,
    lws: Option<usize>,
    rounding: usize,
}

impl OpenCl {
    /// Build a one-kernel program around the specialized comparer — per
    /// query, or `fused` — over the staged encoding, folding `variant`.
    /// Specialized kernels embed data the shared program cannot.
    fn spec_kernel(
        &self,
        staged: &OclStaged,
        fused: bool,
        variant: Arc<CompiledVariant>,
    ) -> ClResult<(Program, Kernel)> {
        let f = Arc::new(match fused {
            true => ClFamily::block(staged.index(), Some(variant)),
            false => ClFamily::folded(staged.index(), variant),
        });
        let name = f.name().to_owned();
        let program = Program::create_with_source(&self.ctx, KernelSource::new().with_function(f));
        program.build("-O3")?;
        let kernel = program.create_kernel(&name)?;
        Ok((program, kernel))
    }

    /// Launch `k` with `args` over `items` work-items (rounded up to the
    /// work-group size, step 10), wait (step 12) and profile it; returns
    /// the kernel's execution time.
    fn launch(
        &self,
        k: &Kernel,
        args: Vec<KernelArg>,
        items: usize,
        profile: &mut Profile,
    ) -> ClResult<f64> {
        for (i, arg) in args.into_iter().enumerate() {
            k.set_arg(i, arg)?;
        }
        let global = round_up(items, self.rounding);
        let ev = self.queue.enqueue_nd_range_kernel(k, global, self.lws)?;
        ev.wait();
        Ok(match ev.launch_report() {
            Some(r) => {
                profile.record_ref(r);
                r.exec_time_s
            }
            None => ev.duration_s(),
        })
    }
}

impl Backend for OpenCl {
    type Error = opencl_rt::ClError;
    type Tables = OclTables;
    type Staged = OclStaged;
    type Cands = ();
    const SHARED_CANDIDATES: bool = true;

    fn new(config: &PipelineConfig, pattern: CompiledSeq) -> ClResult<Self> {
        let device_id = ClDeviceId::from_spec(config.device.clone());
        let ctx = Context::with_mode(&[device_id], config.exec)?;
        let queue = CommandQueue::new(&ctx, 0)?;
        let plen = pattern.plen();

        let mut source = KernelSource::new()
            .with_function(Arc::new(ClFinder))
            .with_function(Arc::new(ClPackedFinder))
            .with_function(Arc::new(ClNibbleFinder))
            .with_function(Arc::new(ClComparer::new(config.opt)))
            .with_function(Arc::new(ClFamily::staged(1)))
            .with_function(Arc::new(ClFamily::staged(2)));
        if config.specialize {
            let variant =
                specialize::global_cache().get_or_compile(VariantKind::NibbleFinder, &pattern, 0);
            source = source.with_function(Arc::new(ClSpecializedNibbleFinder { variant }));
        }
        if config.multi_guide {
            for enc in 0..3 {
                source = source.with_function(Arc::new(ClFamily::block(enc, None)));
            }
        }
        let program = Program::create_with_source(&ctx, source);
        program.build("-O3")?;
        let kernel = |name: &str| program.create_kernel(name);
        let nibble_finder = match config.specialize {
            true => VariantKind::NibbleFinder.kernel_name(),
            false => "finder_nibble",
        };
        let finders = [
            kernel("finder")?,
            kernel("finder_packed")?,
            kernel(nibble_finder)?,
        ];
        let comparers = [
            kernel("comparer")?,
            kernel("comparer_2bit")?,
            kernel("comparer_4bit")?,
        ];
        let (cap, slots) = (config.chunk_size, config.resident_slots.max(1));
        let (ro, rw, wo) = (MemFlags::ReadOnly, MemFlags::ReadWrite, MemFlags::WriteOnly);

        // Comparer output for the worst case of every candidate passing on
        // both strands of every guide in a launch.
        let outs = 2 * cap * if config.multi_guide { GUIDE_BLOCK } else { 1 };
        let tables = GUIDE_BLOCK * 2 * plen;
        let lws = config.work_group_size;
        Ok(OpenCl {
            chr: ClBuffer::create(&ctx, rw, cap + plen)?,
            chr_token: Cell::new(None),
            // Scratch for the packed upload path: worst case every base
            // carries an exception, so the exception arrays are sized like
            // the chunk. One slot per resident chunk the runner may keep.
            packed: (0..slots)
                .map(|_| {
                    Ok(PackedBufs {
                        packed: ClBuffer::create(&ctx, ro, (cap + plen).div_ceil(4))?,
                        mask: ClBuffer::create(&ctx, ro, (cap + plen).div_ceil(8))?,
                        exc_pos: ClBuffer::create(&ctx, ro, cap + plen)?,
                        exc_val: ClBuffer::create(&ctx, ro, cap + plen)?,
                    })
                })
                .collect::<ClResult<_>>()?,
            packed_slots: Lru::slots(slots),
            nibbles: (0..slots)
                .map(|_| ClBuffer::create(&ctx, ro, (cap + plen).div_ceil(2)))
                .collect::<ClResult<_>>()?,
            nibble_slots: Lru::slots(slots),
            pat: ClBuffer::create_with_data(&ctx, MemFlags::Constant, pattern.comp())?,
            pat_index: ClBuffer::create_with_data(&ctx, MemFlags::Constant, pattern.comp_index())?,
            loci: ClBuffer::create(&ctx, rw, cap)?,
            flags: ClBuffer::create(&ctx, rw, cap)?,
            fcount: ClBuffer::create(&ctx, rw, 1)?,
            mm_count: ClBuffer::create(&ctx, wo, outs)?,
            direction: ClBuffer::create(&ctx, wo, outs)?,
            mm_loci: ClBuffer::create(&ctx, wo, outs)?,
            ecount: ClBuffer::create(&ctx, rw, 1)?,
            // Scratch for the fused multi-guide path: block tables for up
            // to GUIDE_BLOCK guides plus the guide tags of their entries.
            multi: if config.multi_guide {
                Some(MultiScratch {
                    kernels: [
                        kernel("comparer_multi")?,
                        kernel("comparer_multi_2bit")?,
                        kernel("comparer_multi_4bit")?,
                    ],
                    comp: ClBuffer::create(&ctx, ro, tables)?,
                    comp_index: ClBuffer::create(&ctx, ro, tables)?,
                    thresholds: ClBuffer::create(&ctx, ro, GUIDE_BLOCK)?,
                    guide: ClBuffer::create(&ctx, wo, outs)?,
                })
            } else {
                None
            },
            spec_multi_kernels: RefCell::default(),
            lws,
            rounding: lws.unwrap_or(64),
            finders,
            comparers,
            specialize: config.specialize,
            pattern,
            program,
            queue,
            ctx,
        })
    }

    /// Two real `clEnqueueWriteBuffer` transfers per query — the traffic
    /// the SYCL accessors charge implicitly. The comparer's tables are
    /// plain global buffers (Listing 1 takes `const char* comp`).
    fn prepare(&self, queries: &[CompiledSeq]) -> ClResult<OclTables> {
        let bufs = queries
            .iter()
            .map(|c| {
                let comp = ClBuffer::create(&self.ctx, MemFlags::ReadOnly, c.comp().len())?;
                let comp_index =
                    ClBuffer::create(&self.ctx, MemFlags::ReadOnly, c.comp_index().len())?;
                self.queue.enqueue_write_buffer(&comp, true, 0, c.comp())?;
                self.queue
                    .enqueue_write_buffer(&comp_index, true, 0, c.comp_index())?;
                Ok((comp, comp_index))
            })
            .collect::<ClResult<_>>()?;
        Ok(OclTables {
            bufs,
            spec_kernels: RefCell::default(),
        })
    }

    /// Step 13 for the query buffers and per-query programs.
    fn release_tables(tables: OclTables) {
        for (comp, comp_index) in tables.bufs {
            comp.release();
            comp_index.release();
        }
        for (_, (program, kernel)) in tables.spec_kernels.into_inner() {
            kernel.release();
            program.release();
        }
    }

    /// Step 11 (host->device): raw bases go to the `chr` scratch, 2-bit and
    /// 4-bit payloads to the least-recently-used of their slots.
    fn stage(
        &self,
        p: Payload<'_>,
        token: Option<u64>,
        timing: &mut TimingBreakdown,
    ) -> ClResult<(OclStaged, bool)> {
        let q = &self.queue;
        Ok(match p {
            Payload::Raw(seq) => {
                let reused = token.is_some() && self.chr_token.get() == token;
                if !reused {
                    let w = q.enqueue_write_buffer(&self.chr, true, 0, seq)?;
                    timing.transfer_s += w.duration_s();
                    self.chr_token.set(token);
                }
                (Staged::Char(()), reused)
            }
            Payload::Packed(packed) => {
                let (i, reused) = self.packed_slots.claim_slot(token);
                if !reused {
                    let b = &self.packed[i];
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
                (Staged::TwoBit(i), reused)
            }
            Payload::Nibble(nibble) => {
                let (i, reused) = self.nibble_slots.claim_slot(token);
                if !reused {
                    let w =
                        q.enqueue_write_buffer(&self.nibbles[i], true, 0, nibble.nibble_bytes())?;
                    timing.transfer_s += w.duration_s();
                }
                (Staged::FourBit(i), reused)
            }
        })
    }

    /// Explicit transfers already put the payload on the device.
    fn bind(&self, _: &OclStaged) -> ClResult<()> {
        Ok(())
    }

    /// Steps 9-12 for the finder: zero the counter, bind and launch the
    /// finder flavour of the staged encoding into `loci`/`flags`, read the
    /// count back. The specialized nibble finder scans the nibble words
    /// directly, leaving the `chr` scratch untouched (and valid); every
    /// other flavour scans `chr`, the packed and nibble ones after decoding
    /// their payload into it.
    fn find(
        &self,
        staged: &OclStaged,
        p: Payload<'_>,
        scan_len: usize,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> ClResult<((), usize, f64)> {
        let plen = self.pattern.plen();
        let w = self.queue.enqueue_fill_buffer(&self.fcount, 0u32)?;
        timing.transfer_s += w.duration_s();

        let (loci, flags) = (self.loci.device_buffer(), self.flags.device_buffer());
        let fcount = self.fcount.device_buffer();
        let k = &self.finders[staged.index()];
        let args = match *staged {
            Staged::FourBit(i) if self.specialize => vec![
                KernelArg::BufU8(self.nibbles[i].device_buffer()),
                KernelArg::BufU32(loci),
                KernelArg::BufU8(flags),
                KernelArg::BufU32(fcount),
                KernelArg::U32(scan_len as u32),
                KernelArg::U32(p.seq_len() as u32),
            ],
            _ => {
                let mut args = match *staged {
                    Staged::Char(()) => vec![],
                    Staged::TwoBit(i) => vec![
                        KernelArg::BufU8(self.packed[i].packed.device_buffer()),
                        KernelArg::BufU8(self.packed[i].mask.device_buffer()),
                        KernelArg::BufU32(self.packed[i].exc_pos.device_buffer()),
                        KernelArg::BufU8(self.packed[i].exc_val.device_buffer()),
                        KernelArg::U32(p.exceptions() as u32),
                    ],
                    Staged::FourBit(i) => vec![KernelArg::BufU8(self.nibbles[i].device_buffer())],
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
                args
            }
        };
        let kernel_s = self.launch(k, args, scan_len, profile)?;
        let mut n = [0u32];
        let r = self
            .queue
            .enqueue_read_buffer(&self.fcount, true, 0, &mut n)?;
        timing.transfer_s += r.duration_s();
        Ok(((), n[0] as usize, kernel_s))
    }

    fn upload_cands(&self, list: &CandidateSites, timing: &mut TimingBreakdown) -> ClResult<()> {
        let q = &self.queue;
        if !list.is_empty() {
            let w1 = q.enqueue_write_buffer(&self.loci, true, 0, &list.loci)?;
            let w2 = q.enqueue_write_buffer(&self.flags, true, 0, &list.flags)?;
            timing.transfer_s += w1.duration_s() + w2.duration_s();
        }
        Ok(())
    }

    fn read_cands(
        &self,
        _: &(),
        list: &mut CandidateSites,
        timing: &mut TimingBreakdown,
    ) -> ClResult<()> {
        let q = &self.queue;
        let r1 = q.enqueue_read_buffer(&self.loci, true, 0, &mut list.loci)?;
        let r2 = q.enqueue_read_buffer(&self.flags, true, 0, &mut list.flags)?;
        timing.transfer_s += r1.duration_s() + r2.duration_s();
        Ok(())
    }

    /// Steps 9-12 for one comparer launch, then step 11 (device->host):
    /// read back the surviving entries.
    fn compare(
        &self,
        staged: &OclStaged,
        _: &(),
        n: usize,
        launch: Launch,
        tables: &OclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> ClResult<(f64, Vec<GuideEntry>)> {
        let (q, plen) = (&self.queue, self.pattern.plen());
        let mut args = match *staged {
            Staged::Char(()) => vec![KernelArg::BufU8(self.chr.device_buffer())],
            Staged::TwoBit(i) => vec![
                KernelArg::BufU8(self.packed[i].packed.device_buffer()),
                KernelArg::BufU8(self.packed[i].mask.device_buffer()),
            ],
            Staged::FourBit(i) => vec![KernelArg::BufU8(self.nibbles[i].device_buffer())],
        };
        args.extend([
            KernelArg::BufU32(self.loci.device_buffer()),
            KernelArg::BufU8(self.flags.device_buffer()),
        ]);
        let mut spec_multi_kernels = self.spec_multi_kernels.borrow_mut();
        let mut spec_kernels = tables.dev.spec_kernels.borrow_mut();
        let mut fused = None;
        let k = match launch {
            Launch::Fused(block) => {
                let (thresholds, folded) = (&block.thresholds, block.folded);
                let multi = self.multi.as_ref().expect("only multi-guide runners fuse");
                fused = Some(multi);
                let (g, local) = (thresholds.len(), thresholds.len() * 2 * plen);
                // Uploads are per block, not per guide.
                let w1 = q.enqueue_write_buffer(&multi.comp, true, 0, &block.comp)?;
                let w2 = q.enqueue_write_buffer(&multi.comp_index, true, 0, &block.comp_index)?;
                let wz = q.enqueue_fill_buffer(&self.ecount, 0u32)?;
                timing.transfer_s += w1.duration_s() + w2.duration_s() + wz.duration_s();
                args.push(KernelArg::BufU8(multi.comp.device_buffer()));
                args.push(KernelArg::BufI32(multi.comp_index.device_buffer()));
                if !folded {
                    let w3 = q.enqueue_write_buffer(&multi.thresholds, true, 0, thresholds)?;
                    timing.transfer_s += w3.duration_s();
                    args.push(KernelArg::BufU16(multi.thresholds.device_buffer()));
                }
                args.extend([
                    KernelArg::U32(n as u32),
                    KernelArg::U32(plen as u32),
                    KernelArg::U32(g as u32),
                    KernelArg::BufU16(self.mm_count.device_buffer()),
                    KernelArg::BufU8(self.direction.device_buffer()),
                    KernelArg::BufU32(self.mm_loci.device_buffer()),
                    KernelArg::BufU16(multi.guide.device_buffer()),
                    KernelArg::BufU32(self.ecount.device_buffer()),
                    KernelArg::Local { bytes: local },
                    KernelArg::Local { bytes: local * 4 },
                ]);
                if folded {
                    // The variant folds the runner's PAM pattern and the
                    // threshold; the guide tables stay staged data.
                    let threshold = thresholds[0];
                    cached(&mut spec_multi_kernels, (staged.index(), threshold), || {
                        let cache = specialize::global_cache();
                        let kind = VariantKind::MultiComparer;
                        let variant = cache.get_or_compile(kind, &self.pattern, threshold);
                        self.spec_kernel(staged, true, variant)
                    })?
                } else {
                    args.push(KernelArg::Local { bytes: g * 2 });
                    &multi.kernels[staged.index()]
                }
            }
            Launch::Serial { qi, folded } => {
                let wz = q.enqueue_fill_buffer(&self.ecount, 0u32)?;
                timing.transfer_s += wz.duration_s();
                let threshold = tables.thresholds[qi];
                let outs = [
                    KernelArg::BufU16(self.mm_count.device_buffer()),
                    KernelArg::BufU8(self.direction.device_buffer()),
                    KernelArg::BufU32(self.mm_loci.device_buffer()),
                    KernelArg::BufU32(self.ecount.device_buffer()),
                ];
                if let Some(kind) = folded {
                    args.extend(outs);
                    args.push(KernelArg::U32(n as u32));
                    // The variant comes from the process-wide single-flight
                    // cache; its one-kernel program is cached in the tables
                    // so repeated chunks over the same batch reuse it.
                    cached(&mut spec_kernels, (qi, kind), || {
                        let cache = specialize::global_cache();
                        let variant = cache.get_or_compile(kind, &tables.compiled[qi], threshold);
                        self.spec_kernel(staged, false, variant)
                    })?
                } else {
                    let (comp, comp_index) = &tables.dev.bufs[qi];
                    args.extend([
                        KernelArg::BufU8(comp.device_buffer()),
                        KernelArg::BufI32(comp_index.device_buffer()),
                        KernelArg::U32(n as u32),
                        KernelArg::U32(plen as u32),
                        KernelArg::U16(threshold),
                    ]);
                    args.extend(outs);
                    args.push(KernelArg::Local { bytes: 2 * plen });
                    args.push(KernelArg::Local { bytes: 8 * plen });
                    &self.comparers[staged.index()]
                }
            }
        };
        let kernel_s = self.launch(k, args, n, profile)?;

        let mut m = [0u32];
        let r = q.enqueue_read_buffer(&self.ecount, true, 0, &mut m)?;
        timing.transfer_s += r.duration_s();
        let m = m[0] as usize;
        if m == 0 {
            return Ok((kernel_s, Vec::new()));
        }
        let (mut mm, mut dir, mut pos, mut gid) =
            (vec![0u16; m], vec![0u8; m], vec![0u32; m], vec![0u16; m]);
        let r1 = q.enqueue_read_buffer(&self.mm_count, true, 0, &mut mm)?;
        let r2 = q.enqueue_read_buffer(&self.direction, true, 0, &mut dir)?;
        let r3 = q.enqueue_read_buffer(&self.mm_loci, true, 0, &mut pos)?;
        let mut read_s = r1.duration_s() + r2.duration_s() + r3.duration_s();
        if let Some(multi) = fused {
            read_s += q
                .enqueue_read_buffer(&multi.guide, true, 0, &mut gid)?
                .duration_s();
        }
        timing.transfer_s += read_s;
        let entries = (0..m).map(|i| (gid[i], pos[i], dir[i], mm[i]));
        Ok((kernel_s, entries.collect()))
    }

    fn device(&self) -> &Device {
        self.queue.device()
    }

    fn elapsed_s(&self) -> f64 {
        self.queue.elapsed_s()
    }

    fn wait(&self) {
        self.queue.finish();
    }

    /// Step 13: explicitly release every owned object.
    fn release(self) {
        let kernels = self.finders.into_iter().chain(self.comparers);
        for k in kernels {
            k.release();
        }
        for (_, (program, kernel)) in self.spec_multi_kernels.into_inner() {
            kernel.release();
            program.release();
        }
        if let Some(m) = self.multi {
            for k in m.kernels {
                k.release();
            }
            m.comp.release();
            m.comp_index.release();
            m.thresholds.release();
            m.guide.release();
        }
        for b in self.packed {
            b.packed.release();
            b.mask.release();
            b.exc_pos.release();
            b.exc_val.release();
        }
        let bytes = [self.chr, self.pat, self.flags, self.direction];
        for b in self.nibbles.into_iter().chain(bytes) {
            b.release();
        }
        for b in [self.loci, self.fcount, self.mm_loci, self.ecount] {
            b.release();
        }
        self.pat_index.release();
        self.mm_count.release();
        self.program.release();
        self.queue.release();
    }
}

/// The retained device buffers of one packed chunk payload. Cloning shares
/// the underlying device buffers, so one copy can live in the residency
/// list while another is in use by the current run.
#[derive(Clone)]
pub struct SyclPackedResident {
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

/// The device buffers of one SYCL candidate list: loci and strand flags.
pub type SyclCands = (Buffer<u32>, Buffer<u8>);

/// Wait for a kernel command group and fold its reports into `profile`
/// and its implicit transfers into `timing.transfer_s`; returns the
/// kernels' execution time.
fn account_launch(ev: &SyclEvent, timing: &mut TimingBreakdown, profile: &mut Profile) -> f64 {
    ev.wait();
    let commands_s: f64 = ev.launch_reports().iter().map(|r| r.sim_time_s).sum();
    for r in ev.launch_reports() {
        profile.record_ref(r);
    }
    timing.transfer_s += (ev.duration_s() - commands_s).max(0.0);
    ev.launch_reports().iter().map(|r| r.exec_time_s).sum()
}

/// The SYCL backend: the queue and the constant pattern tables. Per-run
/// buffers are created fresh, uploaded by the accessors that bind them in
/// each command group (Table III) and released implicitly, the way the
/// migrated application manages memory (§III of the paper). Keeping a
/// bound buffer alive *is* residency in the SYCL model — re-binding it
/// charges no upload — so the backend retains the payload buffers of its
/// last `resident_slots` tokens per encoding.
pub struct Sycl {
    queue: Queue,
    pattern: CompiledSeq,
    pat_buf: Buffer<u8>,
    pat_index_buf: Buffer<i32>,
    /// The PAM pattern's nibble-finder variant, folded at construction when
    /// the runner specializes; comparer variants are fetched from the
    /// process-wide cache at every launch.
    pam_variant: Option<Arc<CompiledVariant>>,
    opt: OptLevel,
    wgs: usize,
    raw: Lru<Buffer<u8>>,
    packed: Lru<SyclPackedResident>,
    nibbles: Lru<Buffer<u8>>,
}

impl Drop for Sycl {
    /// Step 8: buffers, queue and kernels release through their
    /// destructors; Table I records it as a logical step.
    fn drop(&mut self) {
        self.queue.step_log().record(sycl_rt::Step::ImplicitRelease);
    }
}

impl Sycl {
    /// Bind the pattern tables and finder outputs and assemble the plain
    /// finder over `chr` — the kernel every decoding finder wraps.
    fn finder_kernel(
        &self,
        h: &mut Handler<'_>,
        chr: DeviceBuffer<u8>,
        out: &SyclCands,
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
        (loci, flags): &SyclCands,
        fcount_buf: &Buffer<u32>,
    ) -> SyclResult<FinderOutput> {
        Ok(FinderOutput {
            loci: h.get_access(loci, AccessMode::Write)?.raw(),
            flags: h.get_access(flags, AccessMode::Write)?.raw(),
            count: h.get_access(fcount_buf, AccessMode::ReadWrite)?.raw(),
        })
    }
}

impl Backend for Sycl {
    type Error = sycl_rt::SyclException;
    type Tables = Vec<(Buffer<u8>, Buffer<i32>)>;
    type Staged = SyclStaged;
    type Cands = SyclCands;
    const SHARED_CANDIDATES: bool = false;

    fn new(config: &PipelineConfig, pattern: CompiledSeq) -> SyclResult<Self> {
        let queue = Queue::with_mode(&SpecSelector(config.device.clone()), config.exec)?;
        let pat_buf = Buffer::from_slice(pattern.comp()).constant();
        let pat_index_buf = Buffer::from_slice(pattern.comp_index()).constant();
        let pam_variant = config.specialize.then(|| {
            specialize::global_cache().get_or_compile(VariantKind::NibbleFinder, &pattern, 0)
        });
        let slots = config.resident_slots.max(1);
        Ok(Sycl {
            queue,
            pattern,
            pat_buf,
            pat_index_buf,
            pam_variant,
            opt: config.opt,
            wgs: config.work_group_size.unwrap_or(SYCL_WORK_GROUP_SIZE),
            raw: Lru::new(slots, false),
            packed: Lru::new(slots, false),
            nibbles: Lru::new(slots, false),
        })
    }

    /// Unbound buffers: they upload implicitly when a comparer binds them.
    fn prepare(&self, queries: &[CompiledSeq]) -> SyclResult<Self::Tables> {
        let table = |c: &CompiledSeq| {
            (
                Buffer::from_slice(c.comp()),
                Buffer::from_slice(c.comp_index()),
            )
        };
        Ok(queries.iter().map(table).collect())
    }

    fn release_tables(_: Self::Tables) {}

    /// Rebind the buffers still resident under `token`, or create fresh
    /// ones (uploaded by their first bind), retained as most recently used
    /// under `token`.
    fn stage(
        &self,
        p: Payload<'_>,
        token: Option<u64>,
        _: &mut TimingBreakdown,
    ) -> SyclResult<(SyclStaged, bool)> {
        Ok(match p {
            Payload::Raw(seq) => {
                let (buf, reused) = self.raw.claim(token, || Buffer::from_slice(seq));
                (Staged::Char(buf), reused)
            }
            Payload::Packed(packed) => {
                let (res, reused) = self.packed.claim(token, || SyclPackedResident::new(packed));
                (Staged::TwoBit(res), reused)
            }
            Payload::Nibble(nibble) => {
                let make = || Buffer::from_slice(nibble.nibble_bytes());
                let (buf, reused) = self.nibbles.claim(token, make);
                (Staged::FourBit(buf), reused)
            }
        })
    }

    /// Bind the payload's buffers inside a kernel-less command group.
    fn bind(&self, staged: &SyclStaged) -> SyclResult<()> {
        self.queue.submit(|h| match staged {
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
        Ok(())
    }

    /// One command group binding accessors (implicit upload) and the finder
    /// flavour of the staged encoding, then a handler copy of the count.
    /// The packed and nibble finders decode into `no_init` scratch; the
    /// specialized nibble finder scans the nibble words directly.
    fn find(
        &self,
        staged: &SyclStaged,
        p: Payload<'_>,
        scan_len: usize,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> SyclResult<(SyclCands, usize, f64)> {
        // Per-run buffers; the kernel-output arrays are `no_init`: the
        // finder fully overwrites the slots it uses, so they carry no
        // implicit upload.
        let cands: SyclCands = (Buffer::uninit(scan_len), Buffer::uninit(scan_len));
        let fcount_buf = Buffer::<u32>::new(1);
        let seq_len = p.seq_len();
        let scratch = Buffer::<u8>::uninit(seq_len);
        let range = NdRange::linear(round_up(scan_len, self.wgs), self.wgs);
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
                let chr = h.get_access(&scratch, AccessMode::ReadWrite)?.raw();
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
                let chr = h.get_access(&scratch, AccessMode::ReadWrite)?.raw();
                let inner = self.finder_kernel(h, chr, &cands, &fcount_buf, scan_len, seq_len)?;
                h.parallel_for(range, &NibbleFinderKernel { inner, nibbles })
            }
        })?;
        let kernel_s = account_launch(&ev, timing, profile);

        // Read the match count back through a handler copy (Table III).
        let mut count_host = [0u32];
        let ev = self.queue.submit(|h| {
            let acc = h.get_access(&fcount_buf, AccessMode::Read)?;
            h.copy_from_device(&acc, &mut count_host)
        })?;
        timing.transfer_s += ev.duration_s();
        Ok((cands, count_host[0] as usize, kernel_s))
    }

    /// Fresh buffers, uploaded when the comparer binds them. The simulator
    /// rejects zero-length allocations; one-element dummies stand in for an
    /// empty list (the comparers never run).
    fn upload_cands(
        &self,
        list: &CandidateSites,
        _: &mut TimingBreakdown,
    ) -> SyclResult<SyclCands> {
        Ok(if list.is_empty() {
            (Buffer::from_slice(&[0u32]), Buffer::from_slice(&[0u8]))
        } else {
            (
                Buffer::from_slice(&list.loci),
                Buffer::from_slice(&list.flags),
            )
        })
    }

    fn read_cands(
        &self,
        (loci, flags): &SyclCands,
        list: &mut CandidateSites,
        timing: &mut TimingBreakdown,
    ) -> SyclResult<()> {
        let ev = self.queue.submit(|h| {
            let l = h.get_access(loci, AccessMode::Read)?;
            let f = h.get_access(flags, AccessMode::Read)?;
            h.copy_from_device(&l, &mut list.loci)?;
            h.copy_from_device(&f, &mut list.flags)
        })?;
        timing.transfer_s += ev.duration_s();
        Ok(())
    }

    /// One command group binding the payload, candidates, tables and
    /// `no_init` outputs to the comparer's typed kernel struct, then
    /// handler copies of the entries.
    fn compare(
        &self,
        staged: &SyclStaged,
        (loci_buf, flags_buf): &SyclCands,
        n: usize,
        launch: Launch,
        tables: &SyclQueryTables,
        timing: &mut TimingBreakdown,
        profile: &mut Profile,
    ) -> SyclResult<(f64, Vec<GuideEntry>)> {
        let plen = self.pattern.plen();
        let range = NdRange::linear(round_up(n, self.wgs), self.wgs);
        let (ev, outs) = match launch {
            Launch::Fused(block) => {
                let (thr, folded, g) = (&block.thresholds, block.folded, block.thresholds.len());
                let comp_buf = Buffer::from_vec(block.comp);
                let comp_index_buf = Buffer::from_vec(block.comp_index);
                let variant = folded.then(|| {
                    let cache = specialize::global_cache();
                    cache.get_or_compile(VariantKind::MultiComparer, &self.pattern, thr[0])
                });
                let thr_buf = Buffer::from_vec(thr.clone());
                let outs = Outputs::new(2 * g * n, true);
                let ev = self.queue.submit(|h| {
                    let loci = h.get_access(loci_buf, AccessMode::Read)?.raw();
                    let flags = h.get_access(flags_buf, AccessMode::Read)?.raw();
                    let comp = h.get_access(&comp_buf, AccessMode::Read)?.raw();
                    let comp_index = h.get_access(&comp_index_buf, AccessMode::Read)?.raw();
                    let (out, guide) = outs.bind(h)?;
                    let guide = guide.expect("fused outputs carry guide tags");
                    let out = MultiComparerOutput { entries: out, guide };
                    let thresholds = match variant {
                        Some(variant) => GuideThresholds::Folded {
                            threshold: thr[0],
                            variant,
                        },
                        None => {
                            GuideThresholds::PerGuide(h.get_access(&thr_buf, AccessMode::Read)?.raw())
                        }
                    };
                    let chunk = bind_reads(h, staged.compare_bufs())?;
                    let block = Block::new(comp, comp_index, thresholds, plen, g);
                    let parts = (loci, flags, n, block, out);
                    dispatch(staged.index(), &chunk, parts, Submit(h, range))
                })?;
                (ev, outs)
            }
            Launch::Serial { qi, folded } => {
                let threshold = tables.thresholds[qi];
                let outs = Outputs::new(2 * n, false);
                let variant = folded.map(|kind| {
                    specialize::global_cache().get_or_compile(kind, &tables.compiled[qi], threshold)
                });
                let ev = self.queue.submit(|h| {
                    let chunk = bind_reads(h, staged.compare_bufs())?;
                    let loci = h.get_access(loci_buf, AccessMode::Read)?.raw();
                    let flags = h.get_access(flags_buf, AccessMode::Read)?.raw();
                    if let Some(variant) = variant {
                        let (out, _) = outs.bind(h)?;
                        let parts = (loci, flags, n, variant, out);
                        return dispatch(staged.index(), &chunk, parts, Submit(h, range));
                    }
                    let (comp_buf, comp_index_buf) = &tables.dev[qi];
                    let comp = h.get_access(comp_buf, AccessMode::Read)?.raw();
                    let comp_index = h.get_access(comp_index_buf, AccessMode::Read)?.raw();
                    let (out, _) = outs.bind(h)?;
                    if let Staged::Char(_) = staged {
                        let (chr, query) = (chunk[0].clone(), &tables.compiled[qi]);
                        let (kernel, _) = ComparerKernel::new(
                            self.opt, chr, loci, flags, comp, comp_index, n, threshold, out, query,
                        );
                        return h.parallel_for(range, &kernel);
                    }
                    let guides = StagedGuide::new(comp, comp_index, threshold, plen);
                    let parts = (loci, flags, n, guides, out);
                    dispatch(staged.index(), &chunk, parts, Submit(h, range))
                })?;
                (ev, outs)
            }
        };
        let kernel_s = account_launch(&ev, timing, profile);
        Ok((kernel_s, outs.read_back(&self.queue, timing)?))
    }

    fn device(&self) -> &Device {
        self.queue.device()
    }

    fn elapsed_s(&self) -> f64 {
        self.queue.elapsed_s()
    }

    fn wait(&self) {
        self.queue.wait();
    }

    /// Implicit: everything releases as it drops.
    fn release(self) {}
}

/// Submits a serving comparer in a SYCL command group.
struct Submit<'a, 'q>(&'a mut Handler<'q>, NdRange);

impl Launcher for Submit<'_, '_> {
    type Out = SyclResult<()>;

    fn launch<K: KernelProgram + 'static>(self, kernel: K) -> SyclResult<()> {
        self.0.parallel_for(self.1, &kernel)
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
    /// — when non-zero — the entries plus a fused launch's guide tags
    /// (guide 0 for a serial launch), in compaction order.
    fn read_back(
        &self,
        queue: &Queue,
        timing: &mut TimingBreakdown,
    ) -> SyclResult<Vec<GuideEntry>> {
        let mut count = [0u32];
        let ev = queue.submit(|h| {
            let acc = h.get_access(&self.count, AccessMode::Read)?;
            h.copy_from_device(&acc, &mut count)
        })?;
        timing.transfer_s += ev.duration_s();
        let m = count[0] as usize;
        if m == 0 {
            return Ok(Vec::new());
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
        Ok((0..m).map(|i| (gid[i], pos[i], dir[i], mm[i])).collect())
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

    /// Run `f` and report whether it panicked with the capacity message.
    fn rejects_oversized(f: impl FnOnce()) -> bool {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied());
        msg.is_some_and(|m| m.contains("exceeds runner capacity"))
    }

    /// The capacity contract, checked for a chunk, a prefetch and a
    /// replayed list on one API.
    fn check_oversized_rejected<B: Backend>() {
        let (_, input) = toy();
        let cfg = config().chunk_size(8);
        let runner = ChunkRunner::<B>::new(&cfg, &input.pattern).unwrap();
        let tables = runner.tables(&input.queries).unwrap();
        let seq = vec![b'A'; 64];
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        assert!(rejects_oversized(|| {
            let _ = runner.run_chunk(&seq, 64, &tables, &mut timing, &mut profile);
        }));
        assert!(rejects_oversized(|| {
            let _ = runner.prefetch(1, Payload::Raw(&seq));
        }));
        let list = CandidateSites {
            loci: vec![0; 9],
            flags: vec![1; 9],
        };
        let fits = &seq[..8 + runner.plen()];
        assert!(rejects_oversized(|| {
            let s = Sites::Replay(&list);
            let _ = runner.run(Payload::Raw(fits), 8, Some(1), s, &tables, &mut timing, &mut profile);
        }));
    }

    #[test]
    fn oversized_chunks_are_rejected() {
        check_oversized_rejected::<OpenCl>();
        check_oversized_rejected::<Sycl>();
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

    /// The runner calls a characterization cell makes, unwrapped: one
    /// chunk run (entries, reuse verdict, captured sites), one upload-only
    /// prefetch, and the drained queue clock.
    impl<B: Backend> ChunkRunner<B> {
        #[allow(clippy::too_many_arguments)]
        fn go(
            &self,
            p: Payload<'_>,
            scan_len: usize,
            token: Option<u64>,
            s: Sites<'_>,
            tables: &QueryTables<B>,
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
    fn characterization_cell<B: Backend>(enc: usize, mode: &str, spec: bool, nq: usize) -> String {
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
        let runner = ChunkRunner::<B>::new(&cfg, &input.pattern).unwrap();
        let tables = runner.tables(&input.queries[..nq]).unwrap();
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
            runner.traffic(),
        )
        .unwrap();
        log
    }

    /// Every cell of {raw, 2-bit, 4-bit} × {fresh, resident miss→hit,
    /// capture→replay, prefetch→resident run} × {generic, specialized} ×
    /// {1 query, 3 fused} on one API, folded into one FNV-1a digest. On a
    /// mismatch the per-cell records are printed so the drifting cell can
    /// be diffed against a known-good run.
    fn check_characterization<B: Backend>(api: &str, pinned: u64) {
        let mut cells = Vec::new();
        for enc in 0..3 {
            for mode in ["fresh", "resident", "replay", "prefetch"] {
                for spec in [false, true] {
                    for nq in [1, 3] {
                        cells.push(characterization_cell::<B>(enc, mode, spec, nq));
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
        check_characterization::<OpenCl>("opencl", 0x1ac0_41cd_e55f_4f0c);
    }

    #[test]
    fn sycl_characterization_digest_is_pinned() {
        check_characterization::<Sycl>("sycl", 0x171f_a308_6f57_8c16);
    }

    /// One runner with two resident slots driven through a fixed mixed
    /// sequence, so residency carried *between* runs is pinned too:
    /// a raw chunk evicted from the OpenCL `chr` scratch by a packed run,
    /// token-less runs between runs under one token, prefetches, and
    /// replays whose list is (or, with another length, is not) still
    /// staged under the token. Every step's outcome and the traffic
    /// counters after it are folded into one FNV-1a digest; on a mismatch
    /// the per-step records are printed.
    fn check_cross_run<B: Backend>(api: &str, pinned: u64) {
        let steps: Vec<String> = [false, true]
            .into_iter()
            .flat_map(cross_run_steps::<B>)
            .collect();
        let digest = steps.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, rec| {
            rec.bytes()
                .chain(std::iter::once(b'\n'))
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        });
        if digest != pinned {
            for rec in &steps {
                eprintln!("{api} {rec}");
            }
            panic!("{api} cross-run digest {digest:#018x} != pinned {pinned:#018x}");
        }
    }

    /// The per-step records of [`check_cross_run`]'s sequence on one
    /// runner, generic or specialized.
    fn cross_run_steps<B: Backend>(spec: bool) -> Vec<String> {
        use std::fmt::Write;
        const A: u64 = 0xA;
        const B: u64 = 0xB;
        const C: u64 = 0xC;
        const D: u64 = 0xD;
        let input =
            SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\nTTTACGTACNN 3\nCCCCCACGTNN 3\n")
                .unwrap();
        let cfg = config()
            .chunk_size(64)
            .resident_slots(2)
            .specialize(spec)
            .multi_guide(true);
        let runner = ChunkRunner::<B>::new(&cfg, &input.pattern).unwrap();
        let tables = runner.tables(&input.queries).unwrap();
        let seq = &CHARACTERIZATION_SEQ[..64 + input.pattern.len()];
        let other = &CHARACTERIZATION_SEQ[8..72 + input.pattern.len()];
        let (packed, nibble) = (PackedSeq::encode(seq), NibbleSeq::encode(seq));
        let other_packed = PackedSeq::encode(other);
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        let mut steps = vec![format!("spec={spec}")];
        let mut step = |label: &str, p: Payload<'_>, token: Option<u64>, s: Sites<'_>| {
            let (q, reused, captured) =
                runner.go(p, 64, token, s, &tables, &mut timing, &mut profile);
            let mut rec = format!("{label}: run{q:?} reused={reused} captured={captured:?}");
            write!(rec, " traffic={:?}", runner.traffic()).unwrap();
            steps.push(rec);
            captured
        };
        // Raw resident, evicted from OpenCL's shared scratch by a packed
        // run under another token, then rerun.
        step("raw A", Payload::Raw(seq), Some(A), Sites::Find);
        step("packed B", Payload::Packed(&packed), Some(B), Sites::Find);
        step("raw A again", Payload::Raw(seq), Some(A), Sites::Find);
        // A token-less run between two runs under the same token, on
        // every encoding.
        step("raw none", Payload::Raw(other), None, Sites::Find);
        step("raw A third", Payload::Raw(seq), Some(A), Sites::Find);
        step(
            "packed none",
            Payload::Packed(&other_packed),
            None,
            Sites::Find,
        );
        step(
            "packed B again",
            Payload::Packed(&packed),
            Some(B),
            Sites::Find,
        );
        step("nibble C", Payload::Nibble(&nibble), Some(C), Sites::Find);
        step("nibble none", Payload::Nibble(&nibble), None, Sites::Find);
        step(
            "nibble C again",
            Payload::Nibble(&nibble),
            Some(C),
            Sites::Find,
        );
        // A third token on two slots evicts the least recently used.
        step(
            "packed D",
            Payload::Packed(&other_packed),
            Some(D),
            Sites::Find,
        );
        step("packed A", Payload::Packed(&packed), Some(A), Sites::Find);
        step(
            "packed B evicted",
            Payload::Packed(&packed),
            Some(B),
            Sites::Find,
        );
        // Replays: the captured list is still staged under its token, then
        // a shorter list under the same token, then a token-less finder
        // run, then the full list again.
        let sites = step("capture D", Payload::Raw(seq), Some(D), Sites::Capture)
            .expect("capture yields sites");
        assert!(sites.len() > 1, "the fixture must have several candidates");
        let short = CandidateSites {
            loci: sites.loci[..sites.len() - 1].to_vec(),
            flags: sites.flags[..sites.len() - 1].to_vec(),
        };
        step(
            "replay D",
            Payload::Raw(seq),
            Some(D),
            Sites::Replay(&sites),
        );
        step(
            "replay D short",
            Payload::Raw(seq),
            Some(D),
            Sites::Replay(&short),
        );
        step("find none", Payload::Nibble(&nibble), None, Sites::Find);
        step(
            "replay D full",
            Payload::Nibble(&nibble),
            Some(D),
            Sites::Replay(&sites),
        );
        step(
            "replay A",
            Payload::Packed(&packed),
            Some(A),
            Sites::Replay(&sites),
        );
        step(
            "replay D last",
            Payload::Raw(seq),
            Some(D),
            Sites::Replay(&sites),
        );
        let prefetched = [
            runner.pre(C, Payload::Nibble(&nibble)),
            runner.pre(A, Payload::Raw(seq)),
        ];
        steps.push(format!("prefetch C, A: {prefetched:?}"));
        let mut step = |label: &str, p: Payload<'_>, token: Option<u64>| {
            let (q, reused, _) = runner.go(
                p,
                64,
                token,
                Sites::Find,
                &tables,
                &mut timing,
                &mut profile,
            );
            steps.push(format!(
                "{label}: run{q:?} reused={reused} traffic={:?}",
                runner.traffic()
            ));
        };
        step("nibble C after prefetch", Payload::Nibble(&nibble), Some(C));
        step("raw A after prefetch", Payload::Raw(seq), Some(A));
        steps.push(format!(
            "elapsed={:#x} timing=[{:#x} {:#x} {:#x} {} {} {} {} {} {}]",
            runner.elapsed().to_bits(),
            timing.transfer_s.to_bits(),
            timing.finder_s.to_bits(),
            timing.comparer_s.to_bits(),
            timing.finder_launches,
            timing.finder_launches_skipped,
            timing.comparer_launches,
            timing.fused_launches,
            timing.candidates,
            timing.entries,
        ));
        steps
    }

    #[test]
    fn ocl_cross_run_residency_digest_is_pinned() {
        check_cross_run::<OpenCl>("opencl", 0x382d_57da_a574_9d41);
    }

    #[test]
    fn sycl_cross_run_residency_digest_is_pinned() {
        check_cross_run::<Sycl>("sycl", 0xf7d0_cc96_9471_6e45);
    }
}
