//! The `comparer` kernel: count mismatched bases at candidate sites
//! (Listing 1 of the paper), in five cumulative optimization stages.
//!
//! One work-item per candidate locus. Phase 0 stages the query's `comp` and
//! `comp_index` arrays into shared local memory — serially by work-item 0
//! below opt3, cooperatively from opt3 on. Phase 1 walks the two strand
//! blocks guarded by the finder's flag, counts mismatches with early exit at
//! the threshold, and compacts passing sites into the output arrays through
//! an atomic counter.
//!
//! The functional result is identical at every [`OptLevel`]; what changes is
//! the *compiled shape* the simulator prices:
//!
//! * below opt1, the reference byte is re-issued once per iteration because
//!   the compiler cannot prove the output stores don't alias `chr`;
//! * below opt2, `loci[i]` is re-loaded (L1 hit) every iteration and
//!   `flag[i]` at every guard;
//! * below opt3, work-item 0 stages `2 x 2 x plen` elements serially while
//!   the rest of its wavefront waits;
//! * below opt4, the ladder re-reads the pattern character from local
//!   memory once per evaluated arm ([`ladder_rank`]); at opt4 it is read
//!   once per iteration into a register — at the price of ~25 VGPRs, which
//!   drops occupancy to 9.

use gpu_sim::isa::{CodeModel, Staging};
use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{Device, DeviceBuffer, ItemCtx, SimResult};

use genome::base::is_mismatch;

use super::finder::{FLAG_BOTH, FLAG_FORWARD, FLAG_REVERSE};
use super::ladder::ladder_rank;
use super::OptLevel;
use crate::pattern::CompiledSeq;

/// Dead cycles per element of the baseline's serial staging loop: a single
/// lane issuing back-to-back dependent L1 load-use chains (~114-cycle vector
/// L1 latency, partially overlapped) while the rest of the group waits at
/// the barrier — the cost opt3's cooperative staging removes.
const SERIAL_CHAIN_STALL: u64 = 80;

/// Device-side output of a comparer launch.
#[derive(Debug, Clone)]
pub struct ComparerOutput {
    /// Mismatch count per passing site (`mm_count`).
    pub mm_count: DeviceBuffer<u16>,
    /// Direction per passing site: `b'+'` or `b'-'` (`direction`).
    pub direction: DeviceBuffer<u8>,
    /// Locus per passing site (`mm_loci`).
    pub loci: DeviceBuffer<u32>,
    /// Single-element entry counter (`entrycount`).
    pub count: DeviceBuffer<u32>,
}

impl ComparerOutput {
    /// Allocate output buffers for up to `capacity` entries. Since each
    /// locus can pass on both strands, callers should size `capacity` at
    /// twice the locus count.
    ///
    /// # Errors
    ///
    /// Returns an error when the device is out of memory.
    pub fn allocate(device: &Device, capacity: usize) -> SimResult<ComparerOutput> {
        Ok(ComparerOutput {
            mm_count: device.alloc(capacity)?,
            direction: device.alloc(capacity)?,
            loci: device.alloc(capacity)?,
            count: device.alloc(1)?,
        })
    }

    /// Read back the entry count.
    pub fn count_entries(&self) -> usize {
        self.count.to_vec()[0] as usize
    }

    /// Read back the entries as `(locus, direction, mismatches)` triples.
    pub fn entries(&self) -> Vec<(u32, u8, u16)> {
        let n = self.count_entries();
        let loci = self.loci.to_vec();
        let dir = self.direction.to_vec();
        let mm = self.mm_count.to_vec();
        (0..n).map(|i| (loci[i], dir[i], mm[i])).collect()
    }

    /// Kernel side: append the entry for strand `half` (0 `+`, 1 `-`) at
    /// `locus` with `lmm` mismatches through the atomic counter, and return
    /// its slot.
    pub(crate) fn push(&self, item: &mut ItemCtx, locus: u32, half: usize, lmm: u16) -> usize {
        let slot = self.count.atomic_inc(item, 0) as usize;
        self.mm_count.store(item, slot, lmm);
        self.direction.store(item, slot, b"+-"[half]);
        self.loci.store(item, slot, locus);
        slot
    }
}

/// The comparer kernel (Listing 1), parameterized by [`OptLevel`].
#[derive(Debug, Clone)]
pub struct ComparerKernel {
    /// Optimization stage.
    pub opt: OptLevel,
    /// Chunk bases.
    pub chr: DeviceBuffer<u8>,
    /// Candidate loci from the finder (chunk-relative).
    pub loci: DeviceBuffer<u32>,
    /// Strand flags from the finder.
    pub flags: DeviceBuffer<u8>,
    /// `[forward query | reverse-complement query]` in global memory
    /// (Listing 1: `const char* comp`).
    pub comp: DeviceBuffer<u8>,
    /// Non-`N` indices per half, `-1` terminated, global memory.
    pub comp_index: DeviceBuffer<i32>,
    /// Number of candidate loci (`locicnts`).
    pub locicnt: u32,
    /// Pattern length.
    pub plen: u32,
    /// Mismatch threshold.
    pub threshold: u16,
    /// Output arrays.
    pub out: ComparerOutput,
    /// Local staging handle for the query characters (`l_comp`).
    pub l_comp: LocalHandle<u8>,
    /// Local staging handle for the index array (`l_comp_index`).
    pub l_comp_index: LocalHandle<i32>,
}

impl ComparerKernel {
    /// Build the kernel and its local layout for `query` over the candidate
    /// set of a finder run.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        opt: OptLevel,
        chr: DeviceBuffer<u8>,
        loci: DeviceBuffer<u32>,
        flags: DeviceBuffer<u8>,
        comp: DeviceBuffer<u8>,
        comp_index: DeviceBuffer<i32>,
        locicnt: usize,
        threshold: u16,
        out: ComparerOutput,
        query: &CompiledSeq,
    ) -> (ComparerKernel, LocalLayout) {
        let mut layout = LocalLayout::new();
        let l_comp = layout.array::<u8>(2 * query.plen());
        let l_comp_index = layout.array::<i32>(2 * query.plen());
        (
            ComparerKernel {
                opt,
                chr,
                loci,
                flags,
                comp,
                comp_index,
                locicnt: locicnt as u32,
                plen: query.plen() as u32,
                threshold,
                out,
                l_comp,
                l_comp_index,
            },
            layout,
        )
    }

    /// The structural description handed to the pseudo-ISA compiler; this is
    /// the source of Table X.
    pub fn code_model_for(opt: OptLevel) -> CodeModel {
        let mut m = CodeModel::new(format!("comparer-{}", opt.label()))
            .pointer_args(10)
            .scalar_args(3)
            .staged_arrays(2)
            .guarded_blocks(2)
            .ladder_arms(13)
            .global_scalar_use_sites(30)
            .atomic_output(true)
            .staging(Staging::Serial);
        if opt.has_restrict() {
            m = m.noalias(true);
        }
        if opt.caches_global_scalars() {
            m = m.cached_global_scalars(2);
        }
        if opt.parallel_staging() {
            m = m.staging(Staging::Parallel);
        }
        if opt.caches_local_reads() {
            m = m.cached_local_regs(25);
        }
        m
    }

    /// Compare one strand block. `half` 0 = forward (`+`), 1 = reverse
    /// (`-`). Emits an output entry when the mismatch count stays within
    /// the threshold.
    fn compare_strand(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        i: usize,
        locus_reg: u32,
        half: usize,
    ) {
        let plen = self.plen as usize;
        let mut lmm: u16 = 0;
        item.ops(1); // lmm_count = 0

        for j in 0..plen {
            let k = local.load(item, self.l_comp_index, half * plen + j);
            item.ops(1);
            if k < 0 {
                break;
            }
            let k = k as usize;

            // The locus: registered at opt2+, re-loaded (L1 hit) below.
            let locus = if self.opt.caches_global_scalars() {
                locus_reg
            } else {
                self.loci.load_cached(item, i)
            } as usize;

            // Pattern character: one local read at opt4, one per evaluated
            // ladder arm below.
            let pat_c = local.load(item, self.l_comp, half * plen + k);
            let arms = ladder_rank(pat_c);
            if !self.opt.caches_local_reads() {
                for _ in 1..arms {
                    // The compiled ladder re-reads l_comp[k] in every arm.
                    let _ = local.load(item, self.l_comp, half * plen + k);
                }
            }
            item.ops(arms); // one compare per evaluated arm

            // Reference byte: scattered access, full price. Without
            // `restrict` the compiler re-issues it (L1 hit).
            let chr_c = self.chr.load(item, locus + k);
            if !self.opt.has_restrict() {
                let _ = self.chr.load_cached(item, locus + k);
            }

            item.ops(2); // mismatch test + counter update
            if is_mismatch(pat_c, chr_c) {
                lmm += 1;
                item.ops(1); // threshold compare
                if lmm > self.threshold {
                    break;
                }
            }
        }

        item.ops(1); // lmm_count <= threshold
        if lmm <= self.threshold {
            self.out.push(item, locus_reg, half, lmm);
        }
    }
}

impl KernelProgram for ComparerKernel {
    type Private = ();

    fn name(&self) -> &str {
        "comparer"
    }

    fn phases(&self) -> usize {
        2
    }

    fn local_layout(&self) -> LocalLayout {
        let mut layout = LocalLayout::new();
        let _ = layout.array::<u8>(2 * self.plen as usize);
        let _ = layout.array::<i32>(2 * self.plen as usize);
        layout
    }

    fn code_model(&self) -> CodeModel {
        Self::code_model_for(self.opt)
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, _p: &mut (), local: &mut LocalMem) {
        let plen = self.plen as usize;
        match phase {
            0 => {
                if self.opt.parallel_staging() {
                    // opt3: the whole group cooperates, one stride apart.
                    let li = item.local_id(0);
                    let group = item.local_range(0);
                    let mut k = li;
                    while k < 2 * plen {
                        let c = self.comp.load(item, k);
                        local.store(item, self.l_comp, k, c);
                        let idx = self.comp_index.load(item, k);
                        local.store(item, self.l_comp_index, k, idx);
                        item.ops(2);
                        k += group;
                    }
                } else if item.local_id(0) == 0 {
                    // Baseline: Listing 1 L2-L7, work-item 0 copies serially.
                    // The tables are hot in L1 (every group re-reads them),
                    // but one lane doing all 4*plen accesses back-to-back is
                    // dead time the whole group waits out at the barrier —
                    // the cost opt3's cooperative staging removes.
                    for k in 0..2 * plen {
                        let c = self.comp.load_cached(item, k);
                        item.ops(SERIAL_CHAIN_STALL);
                        local.store(item, self.l_comp, k, c);
                        let idx = self.comp_index.load_cached(item, k);
                        item.ops(SERIAL_CHAIN_STALL);
                        local.store(item, self.l_comp_index, k, idx);
                        item.ops(3); // loop control + addressing
                    }
                }
            }
            _ => {
                let i = item.global_id(0);
                item.ops(1);
                if i >= self.locicnt as usize {
                    return;
                }

                // flag[i]: one load; the second guard's re-read is an L1
                // hit unless registered (opt2).
                let flag = self.flags.load(item, i);
                let locus_reg = self.loci.load(item, i);

                item.ops(2); // first guard: flag == 0 || flag == 1
                if flag == FLAG_BOTH || flag == FLAG_FORWARD {
                    self.compare_strand(item, local, i, locus_reg, 0);
                }

                if !self.opt.caches_global_scalars() {
                    let _ = self.flags.load_cached(item, i);
                }
                item.ops(2); // second guard: flag == 0 || flag == 2
                if flag == FLAG_BOTH || flag == FLAG_REVERSE {
                    self.compare_strand(item, local, i, locus_reg, 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, NdRange};

    fn device() -> Device {
        Device::new(DeviceSpec::mi100())
    }

    /// Stand up a comparer over an explicit candidate list.
    fn run(
        opt: OptLevel,
        seq: &[u8],
        query: &[u8],
        candidates: &[(u32, u8)],
        threshold: u16,
    ) -> Vec<(u32, u8, u16)> {
        let device = device();
        let compiled = CompiledSeq::compile(query);
        let chr = device.alloc_from_slice(seq).unwrap();
        let loci_host: Vec<u32> = candidates.iter().map(|&(p, _)| p).collect();
        let flags_host: Vec<u8> = candidates.iter().map(|&(_, f)| f).collect();
        let loci = device.alloc_from_slice(&loci_host).unwrap();
        let flags = device.alloc_from_slice(&flags_host).unwrap();
        let comp = device.alloc_from_slice(compiled.comp()).unwrap();
        let comp_index = device.alloc_from_slice(compiled.comp_index()).unwrap();
        let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
        let (kernel, _) = ComparerKernel::new(
            opt,
            chr,
            loci,
            flags,
            comp,
            comp_index,
            candidates.len(),
            threshold,
            out,
            &compiled,
        );
        device
            .launch(&kernel, NdRange::linear_cover(candidates.len(), 256))
            .unwrap();
        let mut entries = kernel.out.entries();
        entries.sort_unstable();
        entries
    }

    #[test]
    fn counts_forward_mismatches() {
        //       site: ACGTT  query: ACGTA -> 1 mismatch at the last base.
        let entries = run(OptLevel::Base, b"ACGTT", b"ACGTA", &[(0, FLAG_FORWARD)], 4);
        assert_eq!(entries, vec![(0, b'+', 1)]);
    }

    #[test]
    fn threshold_filters_entries() {
        // 5 mismatches vs threshold 1: no output.
        let entries = run(OptLevel::Base, b"TTTTT", b"AAAAA", &[(0, FLAG_FORWARD)], 1);
        assert!(entries.is_empty());
        // Threshold 5 passes.
        let entries = run(OptLevel::Base, b"TTTTT", b"AAAAA", &[(0, FLAG_FORWARD)], 5);
        assert_eq!(entries, vec![(0, b'+', 5)]);
    }

    #[test]
    fn reverse_strand_compares_the_revcomp_half() {
        // Genome window AAAAA; query TTTTT: revcomp(TTTTT) = AAAAA, so the
        // reverse strand matches perfectly while forward has 5 mismatches.
        let entries = run(OptLevel::Base, b"AAAAA", b"TTTTT", &[(0, FLAG_BOTH)], 2);
        assert_eq!(entries, vec![(0, b'-', 0)]);
    }

    #[test]
    fn flag_gates_strands() {
        // Same data, but the finder said forward-only: no reverse entry.
        let entries = run(OptLevel::Base, b"AAAAA", b"TTTTT", &[(0, FLAG_FORWARD)], 5);
        assert_eq!(entries, vec![(0, b'+', 5)]);
        let entries = run(OptLevel::Base, b"AAAAA", b"TTTTT", &[(0, FLAG_REVERSE)], 5);
        assert_eq!(entries, vec![(0, b'-', 0)]);
    }

    #[test]
    fn n_positions_in_query_are_skipped() {
        // Query NNGTA: only positions 2..5 compared.
        let entries = run(OptLevel::Base, b"TTGTA", b"NNGTA", &[(0, FLAG_FORWARD)], 0);
        assert_eq!(entries, vec![(0, b'+', 0)]);
    }

    #[test]
    fn all_opt_levels_agree_functionally() {
        let seq = b"ACGTACGTACGTACGTAAGGCCTTACGT";
        let query = b"ACGTACGTNN";
        let candidates: Vec<(u32, u8)> = (0..18).map(|p| (p, FLAG_BOTH)).collect();
        let base = run(OptLevel::Base, seq, query, &candidates, 3);
        assert!(!base.is_empty(), "fixture should produce entries");
        for opt in OptLevel::ALL {
            assert_eq!(
                run(opt, seq, query, &candidates, 3),
                base,
                "functional results must be identical at {opt}"
            );
        }
    }

    #[test]
    fn genomic_n_counts_as_mismatch() {
        let entries = run(OptLevel::Base, b"ACGNN", b"ACGTA", &[(0, FLAG_FORWARD)], 4);
        assert_eq!(entries, vec![(0, b'+', 2)]);
    }

    /// Launch once and return the report for cost-shape assertions.
    fn report_for(opt: OptLevel) -> gpu_sim::LaunchReport {
        let device = device();
        let compiled = CompiledSeq::compile(b"GGCCGACCTGTCGCTGACGCNNN");
        let seq: Vec<u8> = (0..8192u32)
            .map(|i| b"ACGT"[(i as usize * 7 + i as usize / 5) % 4])
            .collect();
        let candidates: Vec<u32> = (0..4096).map(|i| (i * 2 % 8100) as u32).collect();
        let flags = vec![FLAG_BOTH; candidates.len()];
        let chr = device.alloc_from_slice(&seq).unwrap();
        let loci = device.alloc_from_slice(&candidates).unwrap();
        let flags = device.alloc_from_slice(&flags).unwrap();
        let comp = device.alloc_from_slice(compiled.comp()).unwrap();
        let comp_index = device.alloc_from_slice(compiled.comp_index()).unwrap();
        let out = ComparerOutput::allocate(&device, candidates.len() * 2 + 1).unwrap();
        let (kernel, _) = ComparerKernel::new(
            opt,
            chr,
            loci,
            flags,
            comp,
            comp_index,
            candidates.len(),
            4,
            out,
            &compiled,
        );
        let nd = NdRange::linear_cover(candidates.len(), 256);
        device.launch(&kernel, nd).unwrap()
    }

    #[test]
    fn optimization_stages_reduce_issue_work_until_opt4_occupancy_cliff() {
        let spec = DeviceSpec::mi100();
        let reports: Vec<_> = OptLevel::ALL.iter().map(|&o| report_for(o)).collect();
        // Dynamic issue work (wave cycles) falls monotonically base..opt4.
        for w in reports.windows(2) {
            assert!(
                w[1].wave_cycles < w[0].wave_cycles,
                "each optimization must cut issue work: {:?}",
                reports
                    .iter()
                    .map(|r| r.wave_cycles as u64)
                    .collect::<Vec<_>>()
            );
        }
        // Occupancy-scaled compute work (the launch-overhead-free part of
        // the simulated time) falls through opt3 then jumps at opt4.
        let times: Vec<f64> = reports
            .iter()
            .map(|r| r.wave_cycles / gpu_sim::timing::utilization(&r.occupancy, &spec))
            .collect();
        for w in times.windows(2).take(3) {
            assert!(w[1] < w[0], "times: {times:?}");
        }
        assert!(
            times[4] > times[3] * 1.4,
            "opt4 must regress past opt3 (occupancy 10 -> 9): {times:?}"
        );
        // Occupancy row of Table X.
        let occ: Vec<u32> = reports.iter().map(|r| r.occupancy.waves_per_simd).collect();
        assert_eq!(occ, vec![10, 10, 10, 10, 9]);
    }

    #[test]
    fn serial_staging_is_priced_at_wave_zero() {
        // With zero candidates the body does nothing; the baseline still
        // pays thread-0 staging per group, opt3 pays the parallel version.
        let base = report_for(OptLevel::Base);
        let opt3 = report_for(OptLevel::Opt3);
        assert!(base.counters.local_stores > 0);
        assert!(opt3.counters.local_stores == base.counters.local_stores);
    }
}
