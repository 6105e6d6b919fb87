//! The `finder` kernel: select sites containing the PAM sequence (§II.A,
//! Table VI of the paper).
//!
//! One work-item per scan position. Phase 0 cooperatively stages the
//! pattern and its index array into shared local memory; phase 1 (after the
//! barrier) tests the position against the forward pattern and the
//! reverse-complement pattern and, on a hit, appends `(locus, strand flag)`
//! to the output through an atomic counter.
//!
//! The finder's reference reads are *sequential* — work-item `i` reads
//! `chr[i + k]`, so a wavefront's 64 lanes touch 64 adjacent bytes and
//! coalesce into one transaction. They are therefore issued through the
//! cached-load path of the simulator, which is what keeps the finder at a
//! few percent of total kernel time while the comparer's scattered reads
//! dominate (the paper measures the comparer at ~98%).
//!
//! [`PackedFinderKernel`] (2-bit words plus exceptions) and
//! [`NibbleFinderKernel`] (4-bit nibbles) decode their encoded chunk into
//! `chr` and then run this kernel's phases unchanged.

use gpu_sim::isa::{CodeModel, Staging};
use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{Device, DeviceBuffer, ItemCtx, SimResult};

use genome::base::is_mismatch;
use genome::fourbit::mask_to_char;

use crate::pattern::CompiledSeq;

/// Flag value: the PAM matched on both strands (Listing 1's `flag` array).
pub const FLAG_BOTH: u8 = 0;
/// Flag value: the PAM matched on the forward strand only.
pub const FLAG_FORWARD: u8 = 1;
/// Flag value: the PAM matched on the reverse strand only.
pub const FLAG_REVERSE: u8 = 2;

/// Device-side output of a finder launch.
#[derive(Debug, Clone)]
pub struct FinderOutput {
    /// Matched positions (chunk-relative), compacted by the atomic counter.
    pub loci: DeviceBuffer<u32>,
    /// Strand flag per matched position (0 both, 1 forward, 2 reverse).
    pub flags: DeviceBuffer<u8>,
    /// Single-element match counter.
    pub count: DeviceBuffer<u32>,
}

impl FinderOutput {
    /// Allocate output buffers for up to `capacity` matches.
    ///
    /// # Errors
    ///
    /// Returns an error when the device is out of memory.
    pub fn allocate(device: &Device, capacity: usize) -> SimResult<FinderOutput> {
        Ok(FinderOutput {
            loci: device.alloc(capacity)?,
            flags: device.alloc(capacity)?,
            count: device.alloc(1)?,
        })
    }

    /// Read back the match count.
    pub fn count_matches(&self) -> usize {
        self.count.to_vec()[0] as usize
    }
}

/// The finder kernel.
#[derive(Debug, Clone)]
pub struct FinderKernel {
    /// Chunk bases: `scan_len` owned positions plus window overlap.
    pub chr: DeviceBuffer<u8>,
    /// `[forward pattern | reverse-complement pattern]`, `2 * plen` bytes,
    /// constant memory (the `__constant char* pat` of Table VI).
    pub pat: DeviceBuffer<u8>,
    /// Non-`N` indices per half, `-1` terminated, constant memory.
    pub pat_index: DeviceBuffer<i32>,
    /// Output arrays.
    pub out: FinderOutput,
    /// Number of owned scan positions.
    pub scan_len: u32,
    /// Total bases available in `chr` (scan positions + overlap).
    pub seq_len: u32,
    /// Pattern length.
    pub plen: u32,
    /// Local staging handle for the pattern (`__local char* l_pat`).
    pub l_pat: LocalHandle<u8>,
    /// Local staging handle for the index array (`__local int* l_pat_index`).
    pub l_pat_index: LocalHandle<i32>,
}

impl FinderKernel {
    /// Build the kernel and its local layout for `pattern` over a chunk.
    pub fn new(
        chr: DeviceBuffer<u8>,
        pat: DeviceBuffer<u8>,
        pat_index: DeviceBuffer<i32>,
        out: FinderOutput,
        scan_len: usize,
        seq_len: usize,
        pattern: &CompiledSeq,
    ) -> (FinderKernel, LocalLayout) {
        let mut layout = LocalLayout::new();
        let l_pat = layout.array::<u8>(2 * pattern.plen());
        let l_pat_index = layout.array::<i32>(2 * pattern.plen());
        (
            FinderKernel {
                chr,
                pat,
                pat_index,
                out,
                scan_len: scan_len as u32,
                seq_len: seq_len as u32,
                plen: pattern.plen() as u32,
                l_pat,
                l_pat_index,
            },
            layout,
        )
    }

    /// Check one strand half (`half` 0 = forward, 1 = reverse) at `pos`.
    /// Returns `true` when every compared position matches.
    fn strand_matches(
        &self,
        item: &mut ItemCtx,
        local: &LocalMem,
        pos: usize,
        half: usize,
    ) -> bool {
        let plen = self.plen as usize;
        for j in 0..plen {
            let k = local.load(item, self.l_pat_index, half * plen + j);
            item.ops(1);
            if k < 0 {
                break;
            }
            let pat_c = local.load(item, self.l_pat, half * plen + k as usize);
            // Sequential lane-adjacent read: fully coalesced.
            let chr_c = self.chr.load_coalesced(item, pos + k as usize);
            item.ops(2);
            if is_mismatch(pat_c, chr_c) {
                return false;
            }
        }
        true
    }
}

impl KernelProgram for FinderKernel {
    type Private = ();

    fn name(&self) -> &str {
        "finder"
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
        CodeModel::new("finder")
            .pointer_args(6)
            .scalar_args(3)
            .noalias(true)
            .staging(Staging::Parallel)
            .staged_arrays(2)
            .guarded_blocks(2)
            .ladder_arms(13)
            .atomic_output(true)
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, _p: &mut (), local: &mut LocalMem) {
        let plen = self.plen as usize;
        match phase {
            0 => {
                // Cooperative staging: strided over the group.
                let li = item.local_id(0);
                let group = item.local_range(0);
                let mut k = li;
                while k < 2 * plen {
                    let c = self.pat.load(item, k);
                    local.store(item, self.l_pat, k, c);
                    let idx = self.pat_index.load(item, k);
                    local.store(item, self.l_pat_index, k, idx);
                    item.ops(2);
                    k += group;
                }
            }
            _ => {
                let i = item.global_id(0);
                item.ops(2); // bounds checks
                if i >= self.scan_len as usize || i + plen > self.seq_len as usize {
                    return;
                }
                let fwd = self.strand_matches(item, local, i, 0);
                let rev = self.strand_matches(item, local, i, 1);
                let flag = match (fwd, rev) {
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
    }
}

/// The finder kernel over a 2-bit packed chunk.
///
/// Identical to [`FinderKernel`] except that the chunk arrives on the device
/// in the lossless packed form of [`genome::twobit::PackedSeq`] — ~4x fewer
/// upload bytes — and the kernel decodes it into the `chr` buffer before
/// scanning, so the comparer (which reads `chr` as plain bases) runs
/// unchanged and results stay byte-identical to the unpacked path.
///
/// Phase layout:
///
/// 0. each work-group decodes its own read window (`group span + plen`
///    overlap) from the packed/mask arrays into `chr` — fully coalesced
///    streaming stores;
/// 1. the group applies the (rare) exception bytes that land in its window —
///    a separate phase so the barrier orders them after the decode stores;
/// 2. cooperative pattern staging (the plain finder's phase 0);
/// 3. scan (the plain finder's phase 1).
///
/// Overlapping window positions are written by two adjacent groups, but both
/// write the same decoded value and both re-apply the same exceptions after
/// their own decode, so the result is order-independent.
#[derive(Debug, Clone)]
pub struct PackedFinderKernel {
    /// The plain finder this kernel decodes into and then runs.
    pub inner: FinderKernel,
    /// Packed base bytes (4 bases per byte, LSB first).
    pub packed: DeviceBuffer<u8>,
    /// Ambiguity mask bytes (8 bases per byte, LSB first).
    pub mask: DeviceBuffer<u8>,
    /// Exception positions (sorted ascending), `n_exc` entries used.
    pub exc_pos: DeviceBuffer<u32>,
    /// Exception bytes, parallel to `exc_pos`.
    pub exc_val: DeviceBuffer<u8>,
    /// Number of valid exception entries.
    pub n_exc: u32,
}

impl KernelProgram for PackedFinderKernel {
    type Private = ();

    fn name(&self) -> &str {
        "finder_packed"
    }

    fn phases(&self) -> usize {
        4
    }

    fn local_layout(&self) -> LocalLayout {
        self.inner.local_layout()
    }

    fn code_model(&self) -> CodeModel {
        CodeModel::new("finder_packed")
            .pointer_args(10)
            .scalar_args(4)
            .noalias(true)
            .staging(Staging::Parallel)
            .staged_arrays(2)
            .guarded_blocks(3)
            .ladder_arms(13)
            .atomic_output(true)
            .extra_valu(16)
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, p: &mut (), local: &mut LocalMem) {
        use genome::twobit::code_to_char;
        let plen = self.inner.plen as usize;
        let seq_len = self.inner.seq_len as usize;
        let li = item.local_id(0);
        let group = item.local_range(0);
        let start = item.group(0) * group;
        let end = (start + group + plen).min(seq_len);
        match phase {
            0 => {
                // Strided decode of the group's read window: lane-adjacent
                // packed/mask reads and chr writes, all coalesced.
                let mut k = start + li;
                while k < end {
                    let byte = self.packed.load_coalesced(item, k / 4);
                    let mbyte = self.mask.load_coalesced(item, k / 8);
                    item.ops(4); // shifts, mask test, select
                    let c = if (mbyte >> (k % 8)) & 1 == 1 {
                        b'N'
                    } else {
                        code_to_char(byte >> ((k % 4) * 2))
                    };
                    self.inner.chr.store_coalesced(item, k, c);
                    k += group;
                }
            }
            1 => {
                // Cooperative pass over the exception list (degenerate IUPAC
                // codes and case oddities — empty for plain ACGT/N genomes):
                // each group applies the entries inside its own window.
                let n = self.n_exc as usize;
                let mut e = li;
                while e < n {
                    let pos = self.exc_pos.load_coalesced(item, e) as usize;
                    item.ops(2); // window test
                    if pos >= start && pos < end {
                        let v = self.exc_val.load_coalesced(item, e);
                        self.inner.chr.store(item, pos, v); // scattered, rare
                    }
                    e += group;
                }
            }
            _ => self.inner.run_phase(phase - 2, item, p, local),
        }
    }
}

/// The finder over a nibble-packed chunk.
///
/// Phase layout:
///
/// 0. each work-group decodes its own read window (`group span + plen`
///    overlap) from the nibble array into `chr` — each base becomes the
///    canonical uppercase code of its mask ([`mask_to_char`]), which matches
///    identically to the original byte;
/// 1. cooperative pattern staging (the plain finder's phase 0);
/// 2. scan (the plain finder's phase 1).
///
/// Unlike [`PackedFinderKernel`] there is no exception phase:
/// the nibble mask is already exact for matching, so nothing needs patching.
/// Overlapping window positions are written by two adjacent groups with the
/// same decoded value, so the result is order-independent.
#[derive(Debug, Clone)]
pub struct NibbleFinderKernel {
    /// The plain finder this kernel decodes into and then runs.
    pub inner: FinderKernel,
    /// Nibble-packed chunk bases (2 per byte, low nibble first).
    pub nibbles: DeviceBuffer<u8>,
}

impl NibbleFinderKernel {
    /// The structural code model (the same for every chunk and pattern).
    pub fn model() -> CodeModel {
        CodeModel::new("finder_nibble")
            .pointer_args(7)
            .scalar_args(3)
            .noalias(true)
            .staging(Staging::Parallel)
            .staged_arrays(2)
            .guarded_blocks(2)
            .ladder_arms(13)
            .atomic_output(true)
            .extra_valu(8)
    }
}

impl KernelProgram for NibbleFinderKernel {
    type Private = ();

    fn name(&self) -> &str {
        "finder_nibble"
    }

    fn phases(&self) -> usize {
        3
    }

    fn local_layout(&self) -> LocalLayout {
        self.inner.local_layout()
    }

    fn code_model(&self) -> CodeModel {
        NibbleFinderKernel::model()
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, p: &mut (), local: &mut LocalMem) {
        match phase {
            0 => {
                // Strided decode of the group's read window: lane-adjacent
                // nibble reads and chr writes, all coalesced.
                let plen = self.inner.plen as usize;
                let seq_len = self.inner.seq_len as usize;
                let li = item.local_id(0);
                let group = item.local_range(0);
                let start = item.group(0) * group;
                let end = (start + group + plen).min(seq_len);
                let mut k = start + li;
                while k < end {
                    let byte = self.nibbles.load_coalesced(item, k / 2);
                    item.ops(3); // shift, mask, LUT
                    let c = mask_to_char((byte >> ((k % 2) * 4)) & 0b1111);
                    self.inner.chr.store_coalesced(item, k, c);
                    k += group;
                }
            }
            _ => self.inner.run_phase(phase - 1, item, p, local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::base::base_mask;
    use genome::fourbit::NibbleSeq;
    use gpu_sim::{DeviceSpec, NdRange};

    fn device() -> Device {
        Device::new(DeviceSpec::mi100())
    }

    fn run(seq: &[u8], pattern: &[u8]) -> Vec<(u32, u8)> {
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let chr = device.alloc_from_slice(seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let scan_len = seq.len();
        let (kernel, _layout) =
            FinderKernel::new(chr, pat, pat_index, out, scan_len, seq.len(), &compiled);
        let nd = NdRange::linear_cover(kernel.scan_len as usize, 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.out.count_matches();
        let loci = kernel.out.loci.to_vec();
        let flags = kernel.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn finds_forward_pam_sites() {
        // Pattern NGG: any base then GG.
        //            position: 0123456
        let hits = run(b"AAGGTGG", b"NGG");
        // Forward NGG at 1 (AGG) and 4 (TGG). Reverse pattern is CCN:
        // no CC in the sequence.
        assert_eq!(hits, vec![(1, FLAG_FORWARD), (4, FLAG_FORWARD)]);
    }

    #[test]
    fn finds_reverse_pam_sites() {
        // CCA at 0 is the reverse-complement image of TGG.
        let hits = run(b"CCAAAA", b"NGG");
        assert_eq!(hits, vec![(0, FLAG_REVERSE)]);
    }

    #[test]
    fn flags_sites_matching_both_strands() {
        // CCTAGG: "CC.." matches reverse at 0..2 window CCT? window is 3
        // long: positions 0 (CCT: rev pattern CCN ✓; fwd needs .GG ✗) -> 2,
        // position 3 (AGG fwd ✓).
        let hits = run(b"CCTAGG", b"NGG");
        assert!(hits.contains(&(0, FLAG_REVERSE)));
        assert!(hits.contains(&(3, FLAG_FORWARD)));
        // A window that is both: CCGG with pattern NGG -> position 1 "CGG"
        // forward ✓; reverse CCN ✓ at position 0.
        let hits = run(b"CCGG", b"NGG");
        assert!(hits.contains(&(1, FLAG_FORWARD)));
        assert!(hits.contains(&(0, FLAG_REVERSE)));
    }

    #[test]
    fn degenerate_pam_matches_a_and_g() {
        // NRG: R = A/G, so AAG and AGG both match forward.
        let hits = run(b"AAGCAGG", b"NRG");
        let fwd: Vec<u32> = hits
            .iter()
            .filter(|&&(_, f)| f == FLAG_FORWARD)
            .map(|&(p, _)| p)
            .collect();
        assert!(fwd.contains(&0), "AAG matches NRG");
        assert!(fwd.contains(&4), "AGG matches NRG");
    }

    #[test]
    fn n_runs_produce_no_sites() {
        let hits = run(&[b'N'; 100], b"NGG");
        assert!(hits.is_empty(), "masked bases match no PAM");
    }

    #[test]
    fn windows_beyond_seq_len_are_skipped() {
        // Only position 0 has a full window.
        let hits = run(b"AGG", b"NGG");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scan_len_limits_ownership() {
        // Same sequence, but only the first 2 positions owned.
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let seq = b"AGGTGG";
        let chr = device.alloc_from_slice(seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (kernel, _) = FinderKernel::new(chr, pat, pat_index, out, 2, seq.len(), &compiled);
        let nd = NdRange::linear_cover(kernel.scan_len as usize, 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.out.count_matches();
        let loci = &kernel.out.loci.to_vec()[..n];
        assert_eq!(loci, &[0], "position 3's TGG is outside the owned range");
    }

    fn run_packed(seq: &[u8], pattern: &[u8]) -> (Vec<(u32, u8)>, Vec<u8>) {
        use genome::twobit::PackedSeq;
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let chr = device.alloc::<u8>(seq.len()).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let packed = PackedSeq::encode(seq);
        let (pos, val) = packed.exception_arrays();
        let (inner, _) =
            FinderKernel::new(chr, pat, pat_index, out, seq.len(), seq.len(), &compiled);
        let kernel = PackedFinderKernel {
            inner,
            packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
            mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
            exc_pos: device
                .alloc_from_slice(if pos.is_empty() { &[0u32] } else { &pos[..] })
                .unwrap(),
            exc_val: device
                .alloc_from_slice(if val.is_empty() { &[0u8] } else { &val[..] })
                .unwrap(),
            n_exc: pos.len() as u32,
        };
        let nd = NdRange::linear_cover(seq.len(), 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.inner.out.count_matches();
        let loci = kernel.inner.out.loci.to_vec();
        let flags = kernel.inner.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        (hits, kernel.inner.chr.to_vec())
    }

    #[test]
    fn packed_finder_matches_plain_finder_and_decodes_exactly() {
        // Degenerate codes, lowercase and N runs all round-trip through the
        // on-device decode, and the hits match the plain finder's.
        let mut seq = b"NNNNAGGtggCCAaagRYSWKMaggNNNN".to_vec();
        seq.extend(std::iter::repeat_n(*b"ACGTAGGCCT", 40).flatten());
        for pattern in [&b"NGG"[..], b"NRG"] {
            let plain = run(&seq, pattern);
            let (hits, decoded) = run_packed(&seq, pattern);
            assert_eq!(decoded, seq, "on-device decode must be byte-exact");
            assert_eq!(
                hits,
                plain,
                "pattern {}",
                std::str::from_utf8(pattern).unwrap()
            );
            assert!(!hits.is_empty());
        }
    }

    #[test]
    fn packed_finder_stores_are_coalesced_class() {
        let seq = vec![b'A'; 256];
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let chr = device.alloc::<u8>(256).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, 256).unwrap();
        let packed = genome::twobit::PackedSeq::encode(&seq);
        let (inner, _) = FinderKernel::new(chr, pat, pat_index, out, 256, 256, &compiled);
        let kernel = PackedFinderKernel {
            inner,
            packed: device.alloc_from_slice(packed.packed_bytes()).unwrap(),
            mask: device.alloc_from_slice(packed.mask_bytes()).unwrap(),
            exc_pos: device.alloc_from_slice(&[0u32]).unwrap(),
            exc_val: device.alloc_from_slice(&[0u8]).unwrap(),
            n_exc: 0,
        };
        let report = device
            .launch(&kernel, NdRange::linear_cover(256, 64))
            .unwrap();
        assert!(report.counters.global_coalesced_stores >= 256);
        assert_eq!(
            report.counters.global_stores, 0,
            "no scattered stores without exceptions or hits"
        );
    }

    #[test]
    fn finder_reads_are_cached_class() {
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let seq = vec![b'A'; 256];
        let chr = device.alloc_from_slice(&seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (kernel, _) = FinderKernel::new(chr, pat, pat_index, out, 256, 256, &compiled);
        let nd = NdRange::linear_cover(256, 64);
        let report = device.launch(&kernel, nd).unwrap();
        assert_eq!(
            report.counters.global_loads, 0,
            "all reference reads go through the coalesced path"
        );
        assert!(report.counters.global_coalesced_loads > 0);
        assert!(report.counters.constant_loads > 0, "pattern staging reads");
    }

    fn run_plain_finder(seq: &[u8], pattern: &[u8]) -> Vec<(u32, u8)> {
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let chr = device.alloc_from_slice(seq).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (kernel, _) =
            FinderKernel::new(chr, pat, pat_index, out, seq.len(), seq.len(), &compiled);
        let nd = NdRange::linear_cover(seq.len(), 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.out.count_matches();
        let loci = kernel.out.loci.to_vec();
        let flags = kernel.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        hits
    }

    fn run_nibble_finder(seq: &[u8], pattern: &[u8]) -> (Vec<(u32, u8)>, Vec<u8>) {
        let device = device();
        let compiled = CompiledSeq::compile(pattern);
        let packed = NibbleSeq::encode(seq);
        let chr = device.alloc::<u8>(seq.len()).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, seq.len()).unwrap();
        let (inner, _) =
            FinderKernel::new(chr, pat, pat_index, out, seq.len(), seq.len(), &compiled);
        let kernel = NibbleFinderKernel {
            inner,
            nibbles: device.alloc_from_slice(packed.nibble_bytes()).unwrap(),
        };
        let nd = NdRange::linear_cover(seq.len(), 64);
        device.launch(&kernel, nd).unwrap();
        let n = kernel.inner.out.count_matches();
        let loci = kernel.inner.out.loci.to_vec();
        let flags = kernel.inner.out.flags.to_vec();
        let mut hits: Vec<(u32, u8)> = (0..n).map(|s| (loci[s], flags[s])).collect();
        hits.sort_unstable();
        (hits, kernel.inner.chr.to_vec())
    }

    #[test]
    fn nibble_finder_matches_plain_finder_on_masked_sequences() {
        let mut seq = b"NNNNAGGtggCCAaagRYSWKMaggNNNN".to_vec();
        seq.extend(std::iter::repeat_n(*b"acgtaggcct", 40).flatten());
        for pattern in [&b"NGG"[..], b"NRG"] {
            let plain = run_plain_finder(&seq, pattern);
            let (hits, decoded) = run_nibble_finder(&seq, pattern);
            // The decode canonicalizes case (matching is case-insensitive).
            let canonical: Vec<u8> = seq.iter().map(|&b| mask_to_char(base_mask(b))).collect();
            assert_eq!(
                decoded, canonical,
                "decode is the canonical code of each mask"
            );
            assert_eq!(
                hits,
                plain,
                "pattern {}",
                std::str::from_utf8(pattern).unwrap()
            );
            assert!(!hits.is_empty());
        }
    }

    #[test]
    fn nibble_finder_stores_are_coalesced_class() {
        let seq = vec![b'a'; 256]; // soft-masked everywhere
        let device = device();
        let compiled = CompiledSeq::compile(b"NGG");
        let packed = NibbleSeq::encode(&seq);
        let chr = device.alloc::<u8>(256).unwrap();
        let pat = device.alloc_constant_from_slice(compiled.comp()).unwrap();
        let pat_index = device
            .alloc_constant_from_slice(compiled.comp_index())
            .unwrap();
        let out = FinderOutput::allocate(&device, 256).unwrap();
        let (inner, _) = FinderKernel::new(chr, pat, pat_index, out, 256, 256, &compiled);
        let kernel = NibbleFinderKernel {
            inner,
            nibbles: device.alloc_from_slice(packed.nibble_bytes()).unwrap(),
        };
        let report = device
            .launch(&kernel, NdRange::linear_cover(256, 64))
            .unwrap();
        assert!(report.counters.global_coalesced_stores >= 256);
        assert_eq!(
            report.counters.global_stores, 0,
            "no scattered stores: the nibble path has no exceptions"
        );
    }
}
