//! Deterministic synthetic genome assemblies.
//!
//! The paper evaluates on the UCSC hg19 and hg38 human assemblies
//! (~3.1 Gbp). Those cannot be downloaded in this environment, so this
//! module generates seeded miniature stand-ins that preserve the properties
//! the kernels care about: multi-chromosome structure with descending
//! chromosome sizes, telomeric and centromeric `N` runs, realistic GC
//! content, a sprinkle of IUPAC ambiguity codes, and — matching the paper's
//! observed hg38/hg19 elapsed-time ratio — about 25% more searchable
//! content in the hg38 miniature (see `DESIGN.md` §2).

use crate::assembly::{Assembly, Chromosome};
use crate::rng::Xoshiro256;

/// Parameters for synthetic assembly generation.
///
/// # Examples
///
/// ```
/// use genome::synth::SynthSpec;
///
/// let asm = SynthSpec::new("demo", 42)
///     .chromosomes(2)
///     .mean_chromosome_len(10_000)
///     .generate();
/// assert_eq!(asm.chromosomes().len(), 2);
/// assert!(asm.total_len() >= 15_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    name: String,
    seed: u64,
    chromosomes: usize,
    mean_chromosome_len: usize,
    gc_content: f64,
    telomere_n: usize,
    centromere_n_frac: f64,
    ambiguity_rate: f64,
    soft_mask_frac: f64,
    soft_mask_run: usize,
}

impl SynthSpec {
    /// A spec with human-like defaults: 8 chromosomes averaging 750 kbp,
    /// 41% GC, telomeric and centromeric `N` runs.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        SynthSpec {
            name: name.into(),
            seed,
            chromosomes: 8,
            mean_chromosome_len: 750_000,
            gc_content: 0.41,
            telomere_n: 5_000,
            centromere_n_frac: 0.05,
            ambiguity_rate: 1e-5,
            soft_mask_frac: 0.0,
            soft_mask_run: 300,
        }
    }

    /// Number of chromosomes.
    pub fn chromosomes(mut self, n: usize) -> Self {
        self.chromosomes = n;
        self
    }

    /// Mean chromosome length in bases. Actual lengths descend linearly from
    /// 1.5x to 0.5x the mean, like the human karyotype.
    pub fn mean_chromosome_len(mut self, len: usize) -> Self {
        self.mean_chromosome_len = len;
        self
    }

    /// Fraction of G+C among searchable bases.
    pub fn gc_content(mut self, gc: f64) -> Self {
        self.gc_content = gc;
        self
    }

    /// Length of the `N` run at each chromosome end.
    pub fn telomere_n(mut self, n: usize) -> Self {
        self.telomere_n = n;
        self
    }

    /// Fraction of each chromosome masked as a central `N` block.
    pub fn centromere_n_frac(mut self, frac: f64) -> Self {
        self.centromere_n_frac = frac;
        self
    }

    /// Probability of replacing a base with an IUPAC ambiguity code.
    pub fn ambiguity_rate(mut self, rate: f64) -> Self {
        self.ambiguity_rate = rate;
        self
    }

    /// Soft-mask the sequence: roughly `frac` of the searchable bases are
    /// emitted lowercase, in runs averaging `mean_run` bases — how
    /// RepeatMasker-style annotation looks in the real assemblies. Together
    /// with [`ambiguity_rate`](Self::ambiguity_rate) this is the
    /// exception-density knob: every lowercase or degenerate byte is an
    /// exception for the 2-bit packed encoding, so cranking these up makes
    /// assemblies that stress the 4-bit fallback-free path.
    pub fn soft_mask(mut self, frac: f64, mean_run: usize) -> Self {
        self.soft_mask_frac = frac.clamp(0.0, 1.0);
        self.soft_mask_run = mean_run.max(1);
        self
    }

    /// Generate the assembly. Deterministic for a given spec.
    pub fn generate(&self) -> Assembly {
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut asm = Assembly::new(self.name.clone());
        let n = self.chromosomes.max(1);
        for i in 0..n {
            // Descend from 1.5x to 0.5x of the mean.
            let factor = if n == 1 {
                1.0
            } else {
                1.5 - i as f64 / (n - 1) as f64
            };
            let len = ((self.mean_chromosome_len as f64) * factor).round() as usize;
            let seq = self.chromosome_seq(len, &mut rng);
            asm.push(Chromosome::new(format!("chr{}", i + 1), seq));
        }
        asm
    }

    fn chromosome_seq(&self, len: usize, rng: &mut Xoshiro256) -> Vec<u8> {
        let mut seq = Vec::with_capacity(len);
        let telo = self.telomere_n.min(len / 4);
        let centro_len = ((len as f64) * self.centromere_n_frac) as usize;
        let centro_start = len / 2 - centro_len / 2;

        // Per-base probability of opening a soft-mask run, chosen so runs of
        // the configured mean length cover the configured fraction.
        let soft_start = if self.soft_mask_frac > 0.0 && self.soft_mask_frac < 1.0 {
            (self.soft_mask_frac / ((1.0 - self.soft_mask_frac) * self.soft_mask_run as f64))
                .min(1.0)
        } else {
            self.soft_mask_frac
        };
        let mut soft_left = 0usize;

        for i in 0..len {
            let masked =
                i < telo || i >= len - telo || (i >= centro_start && i < centro_start + centro_len);
            if masked {
                seq.push(b'N');
                continue;
            }
            if soft_left == 0 && soft_start > 0.0 && rng.gen_bool(soft_start) {
                // Run lengths spread 0.5x–1.5x around the mean.
                soft_left = self.soft_mask_run / 2 + rng.gen_below(self.soft_mask_run.max(1)) + 1;
            }
            let c = if self.ambiguity_rate > 0.0 && rng.gen_bool(self.ambiguity_rate) {
                const AMBIG: &[u8] = b"RYSWKM";
                AMBIG[rng.gen_below(AMBIG.len())]
            } else {
                let gc = rng.gen_bool(self.gc_content);
                let first = rng.gen_bool(0.5);
                match (gc, first) {
                    (true, true) => b'G',
                    (true, false) => b'C',
                    (false, true) => b'A',
                    (false, false) => b'T',
                }
            };
            if soft_left > 0 {
                soft_left -= 1;
                seq.push(c.to_ascii_lowercase());
            } else {
                seq.push(c);
            }
        }
        seq
    }
}

/// Implant copies of `site` into `assembly` at seeded random positions,
/// each copy carrying a number of substitutions cycling through
/// `0..=max_mutations`.
///
/// The real hg19/hg38 assemblies contain near-matches of any plausible
/// guide; a random synthetic sequence does not, so the miniatures plant
/// them — otherwise the comparer's output path would never fire. Masked
/// (`N`) regions are avoided.
pub fn implant_sites(
    assembly: &mut Assembly,
    seed: u64,
    site: &[u8],
    copies: usize,
    max_mutations: usize,
) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut chroms: Vec<Chromosome> = assembly.chromosomes().to_vec();
    let mut placed = 0;
    let mut attempts = 0;
    while placed < copies && attempts < copies * 50 {
        attempts += 1;
        let c = rng.gen_below(chroms.len());
        let chrom = &mut chroms[c];
        if chrom.len() < site.len() {
            continue;
        }
        let pos = rng.gen_below(chrom.len() - site.len() + 1);
        if chrom.seq[pos..pos + site.len()].contains(&b'N') {
            continue;
        }
        let mut copy = site.to_vec();
        let mutations = placed % (max_mutations + 1);
        for _ in 0..mutations {
            let at = rng.gen_below(copy.len());
            copy[at] = b"ACGT"[rng.gen_below(4)];
        }
        chrom.seq[pos..pos + site.len()].copy_from_slice(&copy);
        placed += 1;
    }
    let mut rebuilt = Assembly::new(assembly.name().to_owned());
    rebuilt.extend(chroms);
    *assembly = rebuilt;
}

/// The canonical example guides (reference \[17\] of the paper) as genomic
/// sites: the 20-nt protospacer followed by an `AGG` PAM (which satisfies
/// the `NRG` pattern).
pub fn canonical_sites() -> [Vec<u8>; 2] {
    [
        b"GGCCGACCTGTCGCTGACGCAGG".to_vec(),
        b"CGCCAGCGTCAGCGACAGGTAGG".to_vec(),
    ]
}

fn implant_canonical(assembly: &mut Assembly, seed: u64) {
    // One planted site per ~40 kbp keeps the hit density realistic at any
    // scale while guaranteeing the comparer's output path is exercised.
    let copies = (assembly.total_len() / 40_000).max(3);
    for (i, site) in canonical_sites().iter().enumerate() {
        implant_sites(assembly, seed ^ (i as u64 + 1), site, copies, 5);
    }
}

/// Reference length of the real assemblies, used by the experiment harness
/// to extrapolate simulated miniature timings to full-genome scale.
pub const HG19_FULL_BP: u64 = 3_137_161_264;
/// See [`HG19_FULL_BP`].
pub const HG38_FULL_BP: u64 = 3_209_286_105;

/// The `hg19-mini` miniature: ~6 Mbp at `scale = 1.0` with heavier masking
/// (more sequencing artifacts masked out, as in the real hg19).
pub fn hg19_mini(scale: f64) -> Assembly {
    let mut asm = SynthSpec::new("hg19-mini", 0x6819)
        .chromosomes(8)
        .mean_chromosome_len(scaled(750_000, scale))
        .telomere_n(scaled(12_000, scale))
        .centromere_n_frac(0.10)
        .gc_content(0.409)
        .generate();
    implant_canonical(&mut asm, 0x6819);
    asm
}

/// The `hg38-mini` miniature: ~7.5 Mbp at `scale = 1.0` with lighter masking
/// — mirroring that hg38 "corrects thousands of small sequencing artifacts"
/// and leaves ~25% more searchable content than our hg19 miniature, which is
/// what reproduces the paper's hg38/hg19 elapsed-time ratio.
pub fn hg38_mini(scale: f64) -> Assembly {
    let mut asm = SynthSpec::new("hg38-mini", 0x6838)
        .chromosomes(8)
        .mean_chromosome_len(scaled(930_000, scale))
        .telomere_n(scaled(6_000, scale))
        .centromere_n_frac(0.05)
        .gc_content(0.411)
        .generate();
    implant_canonical(&mut asm, 0x6838);
    asm
}

/// The `hg38-masked` miniature: the hg38 geometry with RepeatMasker-style
/// soft-mask runs over ~45% of the searchable bases and a heavy degenerate
/// sprinkle — an exception-dense assembly on which the 2-bit packed path
/// degrades to the char comparer. Tests and benches use it to exercise the
/// 4-bit fallback-free path.
pub fn hg38_masked_mini(scale: f64) -> Assembly {
    let mut asm = SynthSpec::new("hg38-masked", 0x6853)
        .chromosomes(8)
        .mean_chromosome_len(scaled(930_000, scale))
        .telomere_n(scaled(6_000, scale))
        .centromere_n_frac(0.05)
        .gc_content(0.411)
        .ambiguity_rate(2e-3)
        .soft_mask(0.45, scaled(400, scale.min(1.0)).max(16))
        .generate();
    implant_canonical(&mut asm, 0x6853);
    asm
}

fn scaled(v: usize, scale: f64) -> usize {
    ((v as f64) * scale).round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SynthSpec::new("x", 7).mean_chromosome_len(5_000).generate();
        let b = SynthSpec::new("x", 7).mean_chromosome_len(5_000).generate();
        assert_eq!(a, b);
        let c = SynthSpec::new("x", 8).mean_chromosome_len(5_000).generate();
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn chromosome_sizes_descend() {
        let asm = SynthSpec::new("x", 1)
            .chromosomes(4)
            .mean_chromosome_len(10_000)
            .generate();
        let lens: Vec<usize> = asm.chromosomes().iter().map(|c| c.len()).collect();
        for w in lens.windows(2) {
            assert!(w[0] > w[1]);
        }
        let total: usize = lens.iter().sum();
        assert!((total as f64 - 40_000.0).abs() / 40_000.0 < 0.01);
    }

    #[test]
    fn telomeres_and_centromere_are_masked() {
        let asm = SynthSpec::new("x", 3)
            .chromosomes(1)
            .mean_chromosome_len(100_000)
            .telomere_n(1_000)
            .centromere_n_frac(0.1)
            .ambiguity_rate(0.0)
            .generate();
        let seq = &asm.chromosomes()[0].seq;
        assert!(seq[..1000].iter().all(|&b| b == b'N'));
        assert!(seq[seq.len() - 1000..].iter().all(|&b| b == b'N'));
        let mid = seq.len() / 2;
        assert_eq!(seq[mid], b'N');
        // Roughly 1000+1000 telomere + 10% centromere masked.
        let n_count = seq.iter().filter(|&&b| b == b'N').count();
        assert!((11_000..=13_500).contains(&n_count), "n_count = {n_count}");
    }

    #[test]
    fn gc_content_is_respected() {
        let asm = SynthSpec::new("x", 5)
            .chromosomes(1)
            .mean_chromosome_len(200_000)
            .telomere_n(0)
            .centromere_n_frac(0.0)
            .ambiguity_rate(0.0)
            .gc_content(0.6)
            .generate();
        let seq = &asm.chromosomes()[0].seq;
        let gc = seq.iter().filter(|&&b| b == b'G' || b == b'C').count();
        let frac = gc as f64 / seq.len() as f64;
        assert!((frac - 0.6).abs() < 0.01, "gc fraction {frac}");
    }

    #[test]
    fn minis_have_the_paper_ratio() {
        let hg19 = hg19_mini(0.05);
        let hg38 = hg38_mini(0.05);
        let ratio = hg38.searchable_len() as f64 / hg19.searchable_len() as f64;
        assert!(
            (1.15..=1.45).contains(&ratio),
            "hg38/hg19 searchable ratio {ratio:.2} outside the target band"
        );
        assert_eq!(hg19.name(), "hg19-mini");
        assert_eq!(hg38.name(), "hg38-mini");
    }

    #[test]
    fn scale_shrinks_proportionally() {
        let big = hg19_mini(0.02);
        let small = hg19_mini(0.01);
        let ratio = big.total_len() as f64 / small.total_len() as f64;
        assert!((ratio - 2.0).abs() < 0.05);
    }

    #[test]
    fn canonical_guides_are_implanted() {
        use crate::base::matches;
        let asm = hg19_mini(0.01);
        let sites = canonical_sites();
        // At least one exact (0-mutation) copy of each guide must exist.
        for site in &sites {
            let found = asm.chromosomes().iter().any(|c| {
                c.seq
                    .windows(site.len())
                    .any(|w| w.iter().zip(site.iter()).all(|(&g, &s)| matches(s, g)))
            });
            assert!(
                found,
                "implanted site {:?} missing",
                String::from_utf8_lossy(site)
            );
        }
    }

    #[test]
    fn implanting_is_deterministic_and_avoids_n_runs() {
        let a = hg38_mini(0.005);
        let b = hg38_mini(0.005);
        assert_eq!(a, b);
        // Implants never overwrite telomeres: the first bases stay N.
        assert_eq!(a.chromosomes()[0].seq[0], b'N');
    }

    #[test]
    fn implant_sites_respects_mutation_budget() {
        let mut asm = SynthSpec::new("x", 9)
            .chromosomes(1)
            .mean_chromosome_len(50_000)
            .telomere_n(100)
            .centromere_n_frac(0.0)
            .ambiguity_rate(0.0)
            .generate();
        let site = b"ACGTACGTACGTACGTACGT";
        implant_sites(&mut asm, 7, site, 5, 0);
        // With zero mutations allowed, all five copies are exact.
        let hits = asm.chromosomes()[0]
            .seq
            .windows(site.len())
            .filter(|w| *w == &site[..])
            .count();
        assert!(hits >= 4, "expected >=4 surviving exact copies, got {hits}");
    }

    #[test]
    fn soft_mask_covers_the_requested_fraction_in_runs() {
        let asm = SynthSpec::new("x", 13)
            .chromosomes(1)
            .mean_chromosome_len(200_000)
            .telomere_n(0)
            .centromere_n_frac(0.0)
            .ambiguity_rate(0.0)
            .soft_mask(0.4, 300)
            .generate();
        let seq = &asm.chromosomes()[0].seq;
        assert!(seq.iter().all(|&b| crate::base::is_iupac(b)));
        let lower = seq.iter().filter(|b| b.is_ascii_lowercase()).count();
        let frac = lower as f64 / seq.len() as f64;
        assert!((0.30..=0.50).contains(&frac), "soft-mask fraction {frac}");
        // Lowercase bases come in runs, not salt-and-pepper: count
        // transitions into lowercase and check the implied mean run length.
        let runs = seq
            .windows(2)
            .filter(|w| !w[0].is_ascii_lowercase() && w[1].is_ascii_lowercase())
            .count()
            .max(1);
        let mean_run = lower as f64 / runs as f64;
        assert!(mean_run > 100.0, "mean soft-mask run {mean_run}");
    }

    #[test]
    fn masked_mini_is_deterministic_and_exception_dense() {
        let a = hg38_masked_mini(0.01);
        let b = hg38_masked_mini(0.01);
        assert_eq!(a, b);
        assert_eq!(a.name(), "hg38-masked");
        // The knob's purpose: a large share of searchable bases are 2-bit
        // exceptions (lowercase or degenerate), and some are degenerate.
        let (mut exceptions, mut degenerate, mut searchable) = (0usize, 0usize, 0usize);
        for c in a.chromosomes() {
            for &byte in &c.seq {
                assert!(crate::base::is_iupac(byte));
                if byte == b'N' {
                    continue;
                }
                searchable += 1;
                if byte.is_ascii_lowercase() {
                    exceptions += 1;
                }
                if !matches!(byte.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T' | b'N') {
                    degenerate += 1;
                    exceptions += 1;
                }
            }
        }
        let frac = exceptions as f64 / searchable as f64;
        assert!(frac > 0.3, "exception density {frac}");
        assert!(degenerate > 0, "degenerate codes must appear");
    }

    #[test]
    fn only_iupac_bytes_are_emitted() {
        let asm = SynthSpec::new("x", 11)
            .chromosomes(2)
            .mean_chromosome_len(20_000)
            .ambiguity_rate(0.01)
            .generate();
        for c in asm.chromosomes() {
            assert!(c.seq.iter().all(|&b| crate::base::is_iupac(b)));
        }
        // With a 1% rate we expect some ambiguity codes.
        let ambig: usize = asm
            .chromosomes()
            .iter()
            .flat_map(|c| c.seq.iter())
            .filter(|&&b| !matches!(b, b'A' | b'C' | b'G' | b'T' | b'N'))
            .count();
        assert!(ambig > 0);
    }
}
