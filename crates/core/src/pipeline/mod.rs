//! The host pipelines: the OpenCL and SYCL applications of the paper.
//!
//! Both implement the same interaction loop (§II.A): chunk the genome, run
//! the `finder` kernel to select PAM sites, feed the candidate loci to the
//! `comparer` kernel once per query, read back the surviving entries, and
//! accumulate the off-target records — "the interaction between the host
//! and kernel programs continues until all chunks are processed." That loop
//! is written once here, over a [`chunk::ChunkRunner`] of either API; the
//! Table I contrast lives in the two [`chunk::Backend`] implementations.

pub mod chunk;
pub mod multi;
pub mod ocl;
pub mod sycl;

use std::borrow::Cow;
use std::ops::Range;

use genome::{Assembly, Chunk, Chunker};
use gpu_sim::profile::Profile;
use gpu_sim::{DeviceSpec, ExecMode};

use crate::input::SearchInput;
use crate::kernels::OptLevel;
use crate::report::{Api, SearchReport, TimingBreakdown};
use crate::site::{sort_canonical, OffTarget, Strand};

use chunk::{Backend, ChunkRunner};

/// Configuration shared by both pipelines.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Device to run on.
    pub device: DeviceSpec,
    /// Owned scan positions per chunk.
    pub chunk_size: usize,
    /// Comparer optimization stage.
    pub opt: OptLevel,
    /// Work-group size for both kernels. `None` lets the runtime decide —
    /// which the OpenCL runtime resolves to one wavefront (64), while the
    /// SYCL application fixes 256, exactly the paper's §IV.A setup.
    pub work_group_size: Option<usize>,
    /// Number of device-resident chunk payloads per encoding a chunk
    /// runner keeps alive between calls, each sized to its payload. With 1
    /// slot a runner can only reuse the chunk it ran last; a serving layer
    /// that revisits chunks out of order wants a budget matching its
    /// working set. Residency only pays off when a
    /// caller passes a token to [`chunk::ChunkRunner::run`] or
    /// [`chunk::ChunkRunner::prefetch`] — the serial pipelines stream
    /// chunks exactly once, without one, and are unaffected.
    pub resident_slots: usize,
    /// Prefer JIT-specialized per-(pattern, threshold) kernel variants over
    /// the generic kernels in the chunk runners
    /// ([`crate::kernels::specialize`]). Variants are fetched from the
    /// process-wide single-flight cache; results are identical either way.
    pub specialize: bool,
    /// Fuse multi-query chunk runs into guide-block comparer launches
    /// ([`crate::kernels::MultiComparerKernel`] family): `k` queries cost
    /// `ceil(k / GUIDE_BLOCK)` comparer launches instead of `k`. Results
    /// are byte-identical to the serial per-query path.
    pub multi_guide: bool,
}

impl PipelineConfig {
    /// Defaults for `device`: 1 Mi-position chunks, baseline comparer,
    /// runtime-chosen work-group size.
    pub fn new(device: DeviceSpec) -> Self {
        PipelineConfig {
            device,
            chunk_size: 1 << 20,
            opt: OptLevel::Base,
            work_group_size: None,
            resident_slots: 1,
            specialize: false,
            multi_guide: false,
        }
    }

    /// Set the chunk size.
    pub fn chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = n;
        self
    }

    /// Set the comparer optimization stage.
    pub fn opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Set (or unset) the work-group size.
    pub fn work_group_size(mut self, wgs: Option<usize>) -> Self {
        self.work_group_size = wgs;
        self
    }

    /// Returns the config unchanged: the simulator has one execution mode.
    /// Kept only for perfbench's call sites; the benchmark change of
    /// ROADMAP item 1 deletes it.
    pub fn exec_mode(self, _exec: ExecMode) -> Self {
        self
    }

    /// Set the resident chunk-payload budget of the chunk runners.
    pub fn resident_slots(mut self, slots: usize) -> Self {
        self.resident_slots = slots;
        self
    }

    /// Enable or disable JIT-specialized kernel variants.
    pub fn specialize(mut self, on: bool) -> Self {
        self.specialize = on;
        self
    }

    /// Enable or disable fused multi-guide comparer launches.
    pub fn multi_guide(mut self, on: bool) -> Self {
        self.multi_guide = on;
        self
    }
}

/// A chunk as record extraction reads it: its genome coordinates and the
/// bases of each reported window. The serial loop's [`Chunk`] borrows its
/// windows; a packed chunk decodes only the windows asked for.
pub trait WindowSource {
    /// Name of the source chromosome.
    fn chrom(&self) -> &str;
    /// Offset of the chunk's first base within the chromosome.
    fn start(&self) -> usize;
    /// The chunk's bases at chunk-relative positions `range`, byte-exact.
    fn window(&self, range: Range<usize>) -> Cow<'_, [u8]>;
}

impl WindowSource for Chunk<'_> {
    fn chrom(&self) -> &str {
        self.chrom_name
    }

    fn start(&self) -> usize {
        self.start
    }

    fn window(&self, range: Range<usize>) -> Cow<'_, [u8]> {
        Cow::Borrowed(&self.seq[range])
    }
}

/// Map comparer entries `(locus, direction, mismatches)` of one chunk and
/// query into [`OffTarget`] records.
///
/// Public so external schedulers (e.g. `casoff-serve`) can turn the raw
/// output of [`chunk::OclChunkRunner::run_chunk`] into reportable records
/// with the chunk's genome coordinates applied.
pub fn entries_to_offtargets<C: WindowSource>(
    chunk: &C,
    query: &[u8],
    plen: usize,
    entries: &[(u32, u8, u16)],
    out: &mut Vec<OffTarget>,
) {
    for &(locus, dir, mm) in entries {
        let locus = locus as usize;
        let window = chunk.window(locus..locus + plen);
        let strand = if dir == b'-' {
            Strand::Reverse
        } else {
            Strand::Forward
        };
        out.push(OffTarget::from_window(
            query,
            chunk.chrom(),
            chunk.start() + locus,
            strand,
            mm,
            &window,
        ));
    }
}

/// The host loop of every serial search: one `B` runner per device, sized
/// for the longest chunk, with its own query tables; chunks go round-robin
/// to the runners. Then each runner waits, its tables and then the runner
/// release (OpenCL step 13; no-ops on SYCL), and the per-device timings
/// merge: the devices run concurrently, so the search takes as long as the
/// slowest queue, and every other field sums. Returns the merged report
/// and the per-device timings.
fn search<B: Backend>(
    api: Api,
    assembly: &Assembly,
    input: &SearchInput,
    config: &PipelineConfig,
    devices: &[DeviceSpec],
) -> Result<(SearchReport, Vec<TimingBreakdown>), B::Error> {
    let wall_start = std::time::Instant::now();
    let plen = input.pattern_len();
    let chunks = || Chunker::new(assembly, config.chunk_size, plen);
    // Runner capacity follows the longest chunk the search stages, not
    // `chunk_size`: the OpenCL scratch is preallocated at that capacity,
    // and a 1 Mi-position default over a miniature assembly would zero-fill
    // tens of MiB that no chunk ever touches. SYCL only checks it.
    let longest = chunks().map(|chunk| chunk.scan_len).max().unwrap_or(1);
    let mut cfg = config.clone().chunk_size(longest);
    // Per device: query tables, runner and timing.
    let mut devs = Vec::new();
    for spec in devices {
        cfg.device = spec.clone();
        let runner = ChunkRunner::<B>::new(&cfg, &input.pattern)?;
        devs.push((runner.tables(&input.queries)?, runner, Default::default()));
    }

    let (mut offtargets, mut profile) = (Vec::new(), Profile::new());
    for (i, chunk) in chunks().enumerate().filter(|(_, c)| c.seq.len() >= plen) {
        let (tables, runner, timing) = &mut devs[i % devices.len()];
        let found = runner.run_chunk(chunk.seq, chunk.scan_len, tables, timing, &mut profile)?;
        for (query, entries) in input.queries.iter().zip(&found) {
            entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
        }
    }

    let (mut total, mut timings) = (TimingBreakdown::default(), Vec::new());
    for (tables, runner, mut t) in devs {
        runner.wait();
        t.elapsed_s = runner.elapsed_s();
        total.elapsed_s = total.elapsed_s.max(t.elapsed_s);
        total.transfer_s += t.transfer_s;
        total.finder_s += t.finder_s;
        total.comparer_s += t.comparer_s;
        total.finder_launches += t.finder_launches;
        total.finder_launches_skipped += t.finder_launches_skipped;
        total.comparer_launches += t.comparer_launches;
        total.fused_launches += t.fused_launches;
        total.candidates += t.candidates;
        total.entries += t.entries;
        tables.release();
        runner.release();
        timings.push(t);
    }
    total.wall = wall_start.elapsed();

    sort_canonical(&mut offtargets);
    let report = SearchReport {
        api,
        device: devices.iter().map(|d| d.name).collect::<Vec<_>>().join("+"),
        offtargets,
        timing: total,
        profile,
    };
    Ok((report, timings))
}

/// Round `items` up to a whole number of `wgs`-sized groups.
pub(crate) fn round_up(items: usize, wgs: usize) -> usize {
    items.div_ceil(wgs.max(1)) * wgs.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::{Assembly, Chromosome, Chunker};

    #[test]
    fn config_builders() {
        let cfg = PipelineConfig::new(DeviceSpec::mi60())
            .chunk_size(4096)
            .opt(OptLevel::Opt3)
            .work_group_size(Some(256));
        assert_eq!(cfg.chunk_size, 4096);
        assert_eq!(cfg.opt, OptLevel::Opt3);
        assert_eq!(cfg.work_group_size, Some(256));
        assert_eq!(cfg.device.name, "MI60");
    }

    #[test]
    fn rounding() {
        assert_eq!(round_up(100, 64), 128);
        assert_eq!(round_up(128, 64), 128);
        assert_eq!(round_up(0, 64), 0);
        assert_eq!(round_up(5, 0), 5);
    }

    /// One serial search folded into a printable record: the off-targets,
    /// the bits of the simulated timing fields and every kernel's profile
    /// counters.
    fn paper_run_record(
        assembly: &Assembly,
        api: &str,
        opt: OptLevel,
        chunk_size: usize,
    ) -> String {
        let input = crate::SearchInput::canonical_example(assembly.name());
        let config = PipelineConfig::new(DeviceSpec::mi100())
            .chunk_size(chunk_size)
            .opt(opt);
        let report = match api {
            "opencl" => ocl::run(assembly, &input, &config).unwrap(),
            _ => sycl::run(assembly, &input, &config).unwrap(),
        };
        let t = &report.timing;
        format!(
            "{api} {opt} chunk={chunk_size}: timing=[{:#x} {:#x} {:#x} {:#x}] \
             offtargets={:?} profile={:?}",
            t.elapsed_s.to_bits(),
            t.transfer_s.to_bits(),
            t.finder_s.to_bits(),
            t.comparer_s.to_bits(),
            report.offtargets,
            report.profile.hotspots(),
        )
    }

    /// The serial OpenCL and SYCL applications at the baseline comparer and
    /// opt3, with chunks larger than every chromosome and smaller than the
    /// longest, folded into one FNV-1a digest. On a mismatch the per-run
    /// records are printed so the drifting run can be diffed.
    #[test]
    fn paper_runs_digest_is_pinned() {
        const PINNED: u64 = 0x9e39_459e_9296_448a;
        let assembly = genome::synth::hg19_mini(0.004);
        let longest = assembly.chromosomes().iter().map(|c| c.len()).max();
        let (small, large) = (1 << 11, 1 << 20);
        assert!(longest.is_some_and(|n| small < n && n < large));
        let mut records = Vec::new();
        for chunk_size in [large, small] {
            for api in ["opencl", "sycl"] {
                for opt in [OptLevel::Base, OptLevel::Opt3] {
                    records.push(paper_run_record(&assembly, api, opt, chunk_size));
                }
            }
        }
        let digest = records.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, record| {
            record
                .bytes()
                .chain(std::iter::once(b'\n'))
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        });
        if digest != PINNED {
            for record in &records {
                eprintln!("{record}");
            }
            panic!("paper runs digest {digest:#018x} != pinned {PINNED:#018x}");
        }
    }

    #[test]
    fn entry_mapping_uses_chunk_coordinates() {
        let mut asm = Assembly::new("t");
        asm.push(Chromosome::new("chr9", b"AAAACGTTTT".to_vec()));
        let chunks: Vec<_> = Chunker::new(&asm, 5, 3).collect();
        let second = chunks[1];
        assert_eq!(second.start, 5);
        let mut out = Vec::new();
        entries_to_offtargets(&second, b"GTT", 3, &[(0, b'+', 1)], &mut out);
        assert_eq!(out[0].chrom, "chr9");
        assert_eq!(out[0].position, 5);
        assert_eq!(out[0].strand, Strand::Forward);
    }
}
