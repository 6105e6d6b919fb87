//! Result-set statistics.
//!
//! The original tool's output is typically post-processed into summaries —
//! how many sites per guide, how mismatches are distributed, strand bias.
//! This module computes those summaries directly from a result set.

use std::collections::BTreeMap;
use std::fmt;

use crate::site::{OffTarget, Strand};

/// Aggregated statistics over a set of off-target records.
///
/// # Examples
///
/// ```
/// use cas_offinder::{cpu, SearchInput};
/// use cas_offinder::stats::SearchStats;
///
/// let assembly = genome::synth::hg19_mini(0.005);
/// let input = SearchInput::canonical_example("hg19-mini");
/// let hits = cpu::search_sequential(&assembly, &input);
/// let stats = SearchStats::from_hits(&hits);
/// assert_eq!(stats.total(), hits.len());
/// println!("{stats}");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    per_query: BTreeMap<Vec<u8>, usize>,
    per_chromosome: BTreeMap<String, usize>,
    mismatch_histogram: BTreeMap<u16, usize>,
    forward: usize,
    reverse: usize,
}

impl SearchStats {
    /// Compute statistics over `hits`.
    pub fn from_hits(hits: &[OffTarget]) -> SearchStats {
        let mut stats = SearchStats::default();
        for hit in hits {
            *stats.per_query.entry(hit.query.clone()).or_default() += 1;
            *stats.per_chromosome.entry(hit.chrom.clone()).or_default() += 1;
            *stats.mismatch_histogram.entry(hit.mismatches).or_default() += 1;
            match hit.strand {
                Strand::Forward => stats.forward += 1,
                Strand::Reverse => stats.reverse += 1,
            }
        }
        stats
    }

    /// Total number of records.
    pub fn total(&self) -> usize {
        self.forward + self.reverse
    }

    /// Records on the forward strand.
    pub fn forward(&self) -> usize {
        self.forward
    }

    /// Records on the reverse strand.
    pub fn reverse(&self) -> usize {
        self.reverse
    }

    /// Hits per query sequence.
    pub fn per_query(&self) -> &BTreeMap<Vec<u8>, usize> {
        &self.per_query
    }

    /// Hits per chromosome.
    pub fn per_chromosome(&self) -> &BTreeMap<String, usize> {
        &self.per_chromosome
    }

    /// Hits per mismatch count.
    pub fn mismatch_histogram(&self) -> &BTreeMap<u16, usize> {
        &self.mismatch_histogram
    }

    /// Number of exact (0-mismatch) hits.
    pub fn exact(&self) -> usize {
        self.mismatch_histogram.get(&0).copied().unwrap_or(0)
    }

    /// Mean mismatches per hit (0 when empty).
    pub fn mean_mismatches(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .mismatch_histogram
            .iter()
            .map(|(&mm, &n)| mm as usize * n)
            .sum();
        weighted as f64 / self.total() as f64
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} sites ({} forward, {} reverse, {} exact, mean mismatches {:.2})",
            self.total(),
            self.forward,
            self.reverse,
            self.exact(),
            self.mean_mismatches()
        )?;
        write!(f, "  mismatches:")?;
        for (mm, n) in &self.mismatch_histogram {
            write!(f, " {mm}:{n}")?;
        }
        writeln!(f)?;
        write!(f, "  per query:")?;
        for (q, n) in &self.per_query {
            write!(f, " {}={n}", String::from_utf8_lossy(q))?;
        }
        writeln!(f)?;
        write!(f, "  per chromosome:")?;
        for (c, n) in &self.per_chromosome {
            write!(f, " {c}={n}")?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(query: &[u8], chrom: &str, strand: Strand, mm: u16) -> OffTarget {
        OffTarget::from_window(query, chrom, 0, strand, mm, &vec![b'A'; query.len()])
    }

    fn sample() -> Vec<OffTarget> {
        vec![
            hit(b"AA", "chr1", Strand::Forward, 0),
            hit(b"AA", "chr1", Strand::Reverse, 2),
            hit(b"AA", "chr2", Strand::Forward, 2),
            hit(b"TT", "chr2", Strand::Forward, 1),
        ]
    }

    #[test]
    fn aggregates_every_dimension() {
        let stats = SearchStats::from_hits(&sample());
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.forward(), 3);
        assert_eq!(stats.reverse(), 1);
        assert_eq!(stats.exact(), 1);
        assert_eq!(stats.per_query()[&b"AA".to_vec()], 3);
        assert_eq!(stats.per_query()[&b"TT".to_vec()], 1);
        assert_eq!(stats.per_chromosome()["chr1"], 2);
        assert_eq!(stats.per_chromosome()["chr2"], 2);
        assert_eq!(stats.mismatch_histogram()[&2], 2);
        assert!((stats.mean_mismatches() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_well_behaved() {
        let stats = SearchStats::from_hits(&[]);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.exact(), 0);
        assert_eq!(stats.mean_mismatches(), 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let text = SearchStats::from_hits(&sample()).to_string();
        assert!(text.contains("4 sites"));
        assert!(text.contains("3 forward"));
        assert!(text.contains("chr1=2"));
        assert!(text.contains("AA=3"));
    }

    #[test]
    fn mutation_budget_respected_in_miniatures() {
        // The implanted guides must show up in the histogram with a spread
        // of mismatch counts (0..=5 cycling per implant_sites).
        let assembly = genome::synth::hg19_mini(0.01);
        let input = crate::SearchInput::canonical_example("hg19-mini");
        let stats = SearchStats::from_hits(&crate::cpu::search_sequential(&assembly, &input));
        assert!(stats.exact() >= 2, "at least one exact copy per guide");
        assert!(stats.total() > stats.exact(), "mutated copies too");
    }
}
