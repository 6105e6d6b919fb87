//! Off-target site records and output formatting.
//!
//! Cas-OFFinder "saves the results (chromosome number, position, direction,
//! the number of mismatched bases and potential off-target DNA sequence with
//! mismatched bases) in a file for analysis" (§II.A). [`OffTarget`] is one
//! such record; [`OffTarget::to_line`] renders the tab-separated line the
//! real tool writes, with mismatched bases lowercased.

use std::fmt;

use genome::base::{is_mismatch, reverse_complement};

/// Strand of a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strand {
    /// Forward (`+`).
    Forward,
    /// Reverse complement (`-`).
    Reverse,
}

impl fmt::Display for Strand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strand::Forward => "+",
            Strand::Reverse => "-",
        })
    }
}

/// One potential off-target site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OffTarget {
    /// The query sequence this site was found for.
    pub query: Vec<u8>,
    /// Chromosome name.
    pub chrom: String,
    /// 0-based position of the site's first base on the forward strand.
    pub position: usize,
    /// Strand the query aligns to.
    pub strand: Strand,
    /// Number of mismatched bases.
    pub mismatches: u16,
    /// The genomic site as compared against the query (reverse-complemented
    /// for `-` hits), mismatched bases lowercased.
    pub site: Vec<u8>,
}

impl OffTarget {
    /// Build a record from the raw genomic window at the site.
    ///
    /// `window` is the forward-strand genome slice of pattern length at
    /// `position`; for reverse hits it is reverse-complemented before
    /// comparing, exactly like the kernel compares against the reverse half
    /// of `comp`... after which mismatching positions (w.r.t. `query`) are
    /// lowercased.
    pub fn from_window(
        query: &[u8],
        chrom: impl Into<String>,
        position: usize,
        strand: Strand,
        mismatches: u16,
        window: &[u8],
    ) -> OffTarget {
        let oriented = match strand {
            Strand::Forward => window.to_vec(),
            Strand::Reverse => reverse_complement(window),
        };
        let site = oriented
            .iter()
            .zip(query)
            .map(|(&g, &q)| {
                if is_mismatch(q, g) {
                    g.to_ascii_lowercase()
                } else {
                    g
                }
            })
            .collect();
        OffTarget {
            query: query.to_vec(),
            chrom: chrom.into(),
            position,
            strand,
            mismatches,
            site,
        }
    }

    /// Render the tab-separated output line:
    /// `query  chrom  position  site  strand  mismatches`.
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            String::from_utf8_lossy(&self.query),
            self.chrom,
            self.position,
            String::from_utf8_lossy(&self.site),
            self.strand,
            self.mismatches
        )
    }
}

impl fmt::Display for OffTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Sort records into the canonical reporting order: by query, chromosome,
/// position, then strand — making result sets comparable across pipelines
/// whose atomic compaction orders differ.
pub fn sort_canonical(records: &mut [OffTarget]) {
    records.sort_by(|a, b| {
        (&a.query, &a.chrom, a.position, a.strand).cmp(&(&b.query, &b.chrom, b.position, b.strand))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_site_lowercases_mismatches() {
        // query ACGTA vs window ACTTA: position 2 mismatches.
        let ot = OffTarget::from_window(b"ACGTA", "chr1", 100, Strand::Forward, 1, b"ACTTA");
        assert_eq!(ot.site, b"ACtTA".to_vec());
        assert_eq!(ot.to_line(), "ACGTA\tchr1\t100\tACtTA\t+\t1");
    }

    #[test]
    fn reverse_site_is_reverse_complemented_before_comparison() {
        // window TACGT; revcomp = ACGTA; query ACGTA -> perfect match.
        let ot = OffTarget::from_window(b"ACGTA", "chr2", 5, Strand::Reverse, 0, b"TACGT");
        assert_eq!(ot.site, b"ACGTA".to_vec());
        assert_eq!(ot.strand.to_string(), "-");
    }

    #[test]
    fn n_pattern_positions_always_match() {
        // N in the query matches anything: no lowercasing at position 0.
        let ot = OffTarget::from_window(b"NCG", "chr1", 0, Strand::Forward, 0, b"TCG");
        assert_eq!(ot.site, b"TCG".to_vec());
    }

    #[test]
    fn canonical_sort_orders_by_query_then_location() {
        let mk = |q: &[u8], c: &str, p: usize, s| {
            OffTarget::from_window(q, c, p, s, 0, &vec![b'A'; q.len()])
        };
        let mut v = vec![
            mk(b"TT", "chr2", 5, Strand::Forward),
            mk(b"AA", "chr1", 9, Strand::Reverse),
            mk(b"AA", "chr1", 9, Strand::Forward),
            mk(b"AA", "chr1", 2, Strand::Forward),
        ];
        sort_canonical(&mut v);
        assert_eq!(v[0].position, 2);
        assert_eq!(v[1].strand, Strand::Forward);
        assert_eq!(v[2].strand, Strand::Reverse);
        assert_eq!(v[3].query, b"TT".to_vec());
    }

    #[test]
    fn display_matches_to_line() {
        let ot = OffTarget::from_window(b"AC", "chrX", 7, Strand::Forward, 0, b"AC");
        assert_eq!(format!("{ot}"), ot.to_line());
    }
}
