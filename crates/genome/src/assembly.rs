//! Genome assemblies: named collections of chromosomes.

use crate::fasta::FastaRecord;

/// One chromosome (or contig) of an assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chromosome {
    /// Chromosome name, e.g. `"chr1"`.
    pub name: String,
    /// Sequence bytes, case preserved: lowercase soft-masking survives (as
    /// it does for FASTA-loaded assemblies via [`Assembly::from_records`]),
    /// and matching is case-insensitive throughout.
    pub seq: Vec<u8>,
}

impl Chromosome {
    /// Create a chromosome. The sequence is stored verbatim — soft-masked
    /// (lowercase) bases keep their case.
    pub fn new(name: impl Into<String>, seq: impl Into<Vec<u8>>) -> Self {
        Chromosome {
            name: name.into(),
            seq: seq.into(),
        }
    }

    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when the chromosome holds no sequence.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Number of non-`N` (searchable) bases, case-insensitively.
    pub fn searchable_len(&self) -> usize {
        self.seq.iter().filter(|&&b| b != b'N' && b != b'n').count()
    }
}

/// A genome assembly: an ordered set of chromosomes with a name
/// (e.g. `"hg38-mini"`).
///
/// # Examples
///
/// ```
/// use genome::{Assembly, Chromosome};
///
/// let mut asm = Assembly::new("toy");
/// asm.push(Chromosome::new("chr1", b"ACGTACGT".to_vec()));
/// asm.push(Chromosome::new("chr2", b"NNNACGT".to_vec()));
/// assert_eq!(asm.total_len(), 15);
/// assert_eq!(asm.searchable_len(), 12);
/// assert_eq!(asm.chromosome("chr2").unwrap().len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assembly {
    name: String,
    chromosomes: Vec<Chromosome>,
}

impl Assembly {
    /// An empty assembly called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Assembly {
            name: name.into(),
            chromosomes: Vec::new(),
        }
    }

    /// Build an assembly from parsed FASTA records.
    pub fn from_records(name: impl Into<String>, records: Vec<FastaRecord>) -> Self {
        let chromosomes = records
            .into_iter()
            .map(|r| Chromosome {
                name: r.id,
                seq: r.seq,
            })
            .collect();
        Assembly {
            name: name.into(),
            chromosomes,
        }
    }

    /// Convert back into FASTA records.
    pub fn to_records(&self) -> Vec<FastaRecord> {
        self.chromosomes
            .iter()
            .map(|c| FastaRecord {
                id: c.name.clone(),
                description: String::new(),
                seq: c.seq.clone(),
            })
            .collect()
    }

    /// Assembly name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a chromosome.
    pub fn push(&mut self, chromosome: Chromosome) {
        self.chromosomes.push(chromosome);
    }

    /// The chromosomes, in order.
    pub fn chromosomes(&self) -> &[Chromosome] {
        &self.chromosomes
    }

    /// Look up a chromosome by name.
    pub fn chromosome(&self, name: &str) -> Option<&Chromosome> {
        self.chromosomes.iter().find(|c| c.name == name)
    }

    /// Total bases across all chromosomes.
    pub fn total_len(&self) -> usize {
        self.chromosomes.iter().map(Chromosome::len).sum()
    }

    /// Total non-`N` bases across all chromosomes.
    pub fn searchable_len(&self) -> usize {
        self.chromosomes
            .iter()
            .map(Chromosome::searchable_len)
            .sum()
    }

    /// Compute composition statistics over the whole assembly.
    pub fn stats(&self) -> AssemblyStats {
        let mut stats = AssemblyStats::default();
        for chrom in &self.chromosomes {
            let mut run = 0usize;
            for &b in &chrom.seq {
                stats.total += 1;
                match b {
                    b'G' | b'C' | b'g' | b'c' => {
                        stats.gc += 1;
                        run = 0;
                    }
                    b'A' | b'T' | b'a' | b't' => {
                        run = 0;
                    }
                    b'N' | b'n' => {
                        stats.n += 1;
                        run += 1;
                        stats.longest_n_run = stats.longest_n_run.max(run);
                    }
                    _ => {
                        stats.ambiguous += 1;
                        run = 0;
                    }
                }
            }
        }
        stats
    }
}

/// Base-composition statistics of an assembly (see [`Assembly::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Total bases.
    pub total: usize,
    /// `G`/`C` bases.
    pub gc: usize,
    /// Masked `N` bases.
    pub n: usize,
    /// Degenerate IUPAC bases other than `N`.
    pub ambiguous: usize,
    /// Length of the longest contiguous `N` run.
    pub longest_n_run: usize,
}

impl AssemblyStats {
    /// GC fraction among searchable (non-`N`, non-degenerate) bases.
    pub fn gc_fraction(&self) -> f64 {
        let concrete = self.total - self.n - self.ambiguous;
        if concrete == 0 {
            0.0
        } else {
            self.gc as f64 / concrete as f64
        }
    }

    /// Fraction of the assembly masked as `N`.
    pub fn n_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.n as f64 / self.total as f64
        }
    }
}

impl Extend<Chromosome> for Assembly {
    fn extend<I: IntoIterator<Item = Chromosome>>(&mut self, iter: I) {
        self.chromosomes.extend(iter);
    }
}

impl FromIterator<Chromosome> for Assembly {
    fn from_iter<I: IntoIterator<Item = Chromosome>>(iter: I) -> Self {
        Assembly {
            name: String::new(),
            chromosomes: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta;

    #[test]
    fn roundtrip_through_fasta() {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new("chr1", b"ACGTN".to_vec()));
        asm.push(Chromosome::new("chr2", b"GGGG".to_vec()));
        let text = fasta::to_string(&asm.to_records());
        let parsed = fasta::parse_str(&text, fasta::ParseOptions::default()).unwrap();
        let back = Assembly::from_records("toy", parsed);
        assert_eq!(back, asm);
    }

    #[test]
    fn lengths_and_lookup() {
        let asm: Assembly = vec![
            Chromosome::new("a", b"NNNN".to_vec()),
            Chromosome::new("b", b"ACGT".to_vec()),
        ]
        .into_iter()
        .collect();
        assert_eq!(asm.total_len(), 8);
        assert_eq!(asm.searchable_len(), 4);
        assert!(asm.chromosome("a").is_some());
        assert!(asm.chromosome("c").is_none());
    }

    #[test]
    fn extend_appends() {
        let mut asm = Assembly::new("x");
        asm.extend(vec![Chromosome::new("c1", b"A".to_vec())]);
        assert_eq!(asm.chromosomes().len(), 1);
    }

    #[test]
    fn stats_count_composition() {
        let asm: Assembly = vec![
            Chromosome::new("a", b"GGCCNNNNAT".to_vec()),
            Chromosome::new("b", b"NRAT".to_vec()),
        ]
        .into_iter()
        .collect();
        let stats = asm.stats();
        assert_eq!(stats.total, 14);
        assert_eq!(stats.gc, 4);
        assert_eq!(stats.n, 5);
        assert_eq!(stats.ambiguous, 1);
        assert_eq!(stats.longest_n_run, 4, "runs do not span chromosomes");
        assert!((stats.gc_fraction() - 0.5).abs() < 1e-12);
        assert!((stats.n_fraction() - 5.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_assembly() {
        let stats = Assembly::new("e").stats();
        assert_eq!(stats.total, 0);
        assert_eq!(stats.gc_fraction(), 0.0);
        assert_eq!(stats.n_fraction(), 0.0);
    }

    #[test]
    fn miniature_stats_match_their_spec() {
        let asm = crate::synth::hg19_mini(0.01);
        let stats = asm.stats();
        assert!((stats.gc_fraction() - 0.409).abs() < 0.02);
        assert!(stats.n_fraction() > 0.05 && stats.n_fraction() < 0.25);
        assert!(stats.longest_n_run > 0);
    }

    #[test]
    fn chromosome_preserves_soft_mask_case() {
        let c = Chromosome::new("c", b"acGTn".to_vec());
        assert_eq!(c.seq, b"acGTn", "soft-masked bases keep their case");
        assert_eq!(c.searchable_len(), 4, "n is masked regardless of case");
    }
}
