//! PAM presets for common nucleases.
//!
//! Cas-OFFinder is "one of the most popular tools for searching potential
//! off-target sites, with no limit to the number of mismatches, PAM types,
//! etc." (§II.A, citing \[11\]). The search engine takes any IUPAC pattern;
//! this module names the well-known ones — including 5′-PAM nucleases like
//! Cas12a, which work unchanged because the pattern's non-`N` positions may
//! sit anywhere.

use crate::input::{Query, SearchInput};

/// A named nuclease PAM preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Nuclease {
    /// SpCas9, `NGG` 3′ PAM (the strict form).
    SpCas9,
    /// SpCas9 relaxed, `NRG` 3′ PAM — the paper's evaluation pattern.
    SpCas9Nrg,
    /// SaCas9, `NNGRRT` 3′ PAM, 21-nt spacer.
    SaCas9,
    /// Cas12a (Cpf1), `TTTV` 5′ PAM, 23-nt spacer.
    Cas12a,
    /// xCas9, `NG` 3′ PAM.
    XCas9,
}

impl Nuclease {
    /// All presets.
    pub const ALL: [Nuclease; 5] = [
        Nuclease::SpCas9,
        Nuclease::SpCas9Nrg,
        Nuclease::SaCas9,
        Nuclease::Cas12a,
        Nuclease::XCas9,
    ];

    /// The PAM sequence in IUPAC code.
    pub fn pam(&self) -> &'static [u8] {
        match self {
            Nuclease::SpCas9 => b"NGG",
            Nuclease::SpCas9Nrg => b"NRG",
            Nuclease::SaCas9 => b"NNGRRT",
            Nuclease::Cas12a => b"TTTV",
            Nuclease::XCas9 => b"NG",
        }
    }

    /// Whether the PAM precedes the protospacer (5′, like Cas12a) or
    /// follows it (3′, like Cas9).
    pub fn is_five_prime(&self) -> bool {
        matches!(self, Nuclease::Cas12a)
    }

    /// Spacer (guide) length in bases.
    pub fn spacer_len(&self) -> usize {
        match self {
            Nuclease::SpCas9 | Nuclease::SpCas9Nrg | Nuclease::XCas9 => 20,
            Nuclease::SaCas9 => 21,
            Nuclease::Cas12a => 23,
        }
    }

    /// The full search pattern: `N` over the spacer, the PAM at its end
    /// (3′) or start (5′).
    pub fn pattern(&self) -> Vec<u8> {
        let spacer = vec![b'N'; self.spacer_len()];
        if self.is_five_prime() {
            [self.pam(), &spacer].concat()
        } else {
            [&spacer[..], self.pam()].concat()
        }
    }

    /// Build a query for `guide` under this preset: the guide goes over the
    /// spacer positions, `N` over the PAM positions.
    ///
    /// # Panics
    ///
    /// Panics if `guide.len() != spacer_len()`.
    pub fn query(&self, guide: &[u8], max_mismatches: u16) -> Query {
        assert_eq!(
            guide.len(),
            self.spacer_len(),
            "guide length must match the nuclease's spacer length"
        );
        let pam_ns = vec![b'N'; self.pam().len()];
        let seq = if self.is_five_prime() {
            [&pam_ns[..], guide].concat()
        } else {
            [guide, &pam_ns[..]].concat()
        };
        Query::new(seq, max_mismatches)
    }

    /// Build a complete [`SearchInput`] for a set of guides.
    ///
    /// # Panics
    ///
    /// Panics if any guide's length differs from [`spacer_len`](Self::spacer_len).
    pub fn search_input(
        &self,
        genome: impl Into<String>,
        guides: &[&[u8]],
        max_mismatches: u16,
    ) -> SearchInput {
        SearchInput {
            genome: genome.into(),
            pattern: self.pattern(),
            queries: guides
                .iter()
                .map(|g| self.query(g, max_mismatches))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::search_sequential;
    use crate::Strand;
    use genome::{Assembly, Chromosome};

    #[test]
    fn patterns_have_the_documented_shape() {
        assert_eq!(Nuclease::SpCas9.pattern(), b"NNNNNNNNNNNNNNNNNNNNNGG");
        assert_eq!(Nuclease::SpCas9Nrg.pattern(), b"NNNNNNNNNNNNNNNNNNNNNRG");
        assert_eq!(Nuclease::SaCas9.pattern(), b"NNNNNNNNNNNNNNNNNNNNNNNGRRT");
        assert_eq!(Nuclease::Cas12a.pattern(), b"TTTVNNNNNNNNNNNNNNNNNNNNNNN");
        assert_eq!(Nuclease::XCas9.pattern(), b"NNNNNNNNNNNNNNNNNNNNNG");
        for n in Nuclease::ALL {
            assert_eq!(n.pattern().len(), n.spacer_len() + n.pam().len());
        }
    }

    #[test]
    fn queries_put_n_over_the_pam() {
        let guide = vec![b'A'; 20];
        let q = Nuclease::SpCas9.query(&guide, 3);
        assert_eq!(&q.seq[..20], &guide[..]);
        assert_eq!(&q.seq[20..], b"NNN");

        let guide12a = vec![b'C'; 23];
        let q = Nuclease::Cas12a.query(&guide12a, 3);
        assert_eq!(&q.seq[..4], b"NNNN", "5' PAM positions are wildcards");
        assert_eq!(&q.seq[4..], &guide12a[..]);
    }

    #[test]
    #[should_panic(expected = "spacer length")]
    fn wrong_guide_length_panics() {
        Nuclease::SpCas9.query(b"ACGT", 1);
    }

    #[test]
    fn five_prime_pam_search_works_end_to_end() {
        // A Cas12a site: TTTA PAM then the 23-nt protospacer.
        let guide = b"ACGTACGTACGTACGTACGTACG";
        let mut seq = vec![b'G'; 10];
        seq.extend_from_slice(b"TTTA");
        seq.extend_from_slice(guide);
        seq.extend_from_slice(&[b'G'; 10]);
        let mut assembly = Assembly::new("cas12a");
        assembly.push(Chromosome::new("chr1", seq));

        let input = Nuclease::Cas12a.search_input("cas12a", &[guide], 0);
        let hits = search_sequential(&assembly, &input);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].position, 10, "site starts at the PAM");
        assert_eq!(hits[0].strand, Strand::Forward);
        assert_eq!(hits[0].mismatches, 0);
    }

    #[test]
    fn sa_cas9_pam_is_enforced() {
        // NNGRRT: "CCGAGT" satisfies it (G at the third position, A/G at
        // the R positions, T last); "CCGACT" puts C in an R position.
        let guide = vec![b'A'; 21];
        let mut good = guide.clone();
        good.extend_from_slice(b"CCGAGT"); // N N G R R T: C C G A G T ok
        let mut bad = guide.clone();
        bad.extend_from_slice(b"CCGACT"); // R position holds C: no match

        for (seq, expect) in [(good, 1usize), (bad, 0usize)] {
            let mut assembly = Assembly::new("sa");
            assembly.push(Chromosome::new("chr1", seq));
            let input = Nuclease::SaCas9.search_input("sa", &[&guide], 0);
            let hits = search_sequential(&assembly, &input);
            let forward = hits.iter().filter(|h| h.strand == Strand::Forward).count();
            assert_eq!(forward, expect);
        }
    }

    #[test]
    fn presets_run_on_the_gpu_pipeline_too() {
        use crate::pipeline::{self, PipelineConfig};
        let guide = b"ACGTACGTACGTACGTACGTACG";
        let mut seq = vec![b'G'; 40];
        seq.extend_from_slice(b"TTTC"); // V = A/C/G
        seq.extend_from_slice(guide);
        seq.extend_from_slice(&[b'G'; 40]);
        let mut assembly = Assembly::new("cas12a");
        assembly.push(Chromosome::new("chr1", seq));
        let input = Nuclease::Cas12a.search_input("cas12a", &[guide], 1);

        let config = PipelineConfig::new(gpu_sim::DeviceSpec::mi100()).chunk_size(64);
        let report = pipeline::sycl::run(&assembly, &input, &config).unwrap();
        assert_eq!(report.offtargets, search_sequential(&assembly, &input));
        assert!(!report.offtargets.is_empty());
    }
}
