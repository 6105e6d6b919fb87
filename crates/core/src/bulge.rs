//! Bulge-aware search.
//!
//! §II.A of the paper notes that Cas-OFFinder "can also predict off-target
//! sites with deletions or insertions". A *DNA bulge* means the genomic site
//! carries extra bases relative to the guide (an insertion in the DNA); an
//! *RNA bulge* means the guide carries extra bases (a deletion in the DNA).
//!
//! Following the original tool's strategy, bulges are searched by
//! enumerating modified queries: a DNA bulge of size `b` at guide position
//! `p` inserts `b` wildcard (`N`) bases into the query (widening the genomic
//! window), and an RNA bulge deletes `b` bases (narrowing it). Each variant
//! is then an ordinary mismatch search.

use genome::Assembly;

use crate::cpu::search_sequential;
use crate::input::{Query, SearchInput};
use crate::site::OffTarget;

/// A search backend for bulge enumeration: anything that maps an
/// `(assembly, input)` pair to the canonical result set. The scalar oracle,
/// the GPU pipelines, and the multithreaded CPU baseline all fit.
pub trait SearchBackend {
    /// Run one plain mismatch search.
    fn search(&self, assembly: &Assembly, input: &SearchInput) -> Vec<OffTarget>;
}

/// The scalar oracle as a backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackend;

impl SearchBackend for CpuBackend {
    fn search(&self, assembly: &Assembly, input: &SearchInput) -> Vec<OffTarget> {
        search_sequential(assembly, input)
    }
}

/// The SYCL GPU pipeline as a backend.
#[derive(Debug, Clone)]
pub struct SyclBackend(pub crate::pipeline::PipelineConfig);

impl SearchBackend for SyclBackend {
    fn search(&self, assembly: &Assembly, input: &SearchInput) -> Vec<OffTarget> {
        crate::pipeline::sycl::run(assembly, input, &self.0)
            .expect("sycl pipeline failed during bulge search")
            .offtargets
    }
}

/// The bulge class of a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BulgeType {
    /// No bulge: a plain mismatch-only hit.
    None,
    /// DNA bulge of the given size: the genome has extra bases.
    Dna(u8),
    /// RNA bulge of the given size: the guide has extra bases.
    Rna(u8),
}

impl std::fmt::Display for BulgeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulgeType::None => write!(f, "X"),
            BulgeType::Dna(n) => write!(f, "DNA:{n}"),
            BulgeType::Rna(n) => write!(f, "RNA:{n}"),
        }
    }
}

/// One bulge-aware hit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BulgeHit {
    /// The underlying off-target record (the query field holds the bulged
    /// variant actually compared).
    pub site: OffTarget,
    /// Bulge class of the variant that produced the hit.
    pub bulge: BulgeType,
    /// Guide position the bulge was introduced at (0 for [`BulgeType::None`]).
    pub bulge_pos: usize,
}

/// Bulge search limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BulgeLimits {
    /// Maximum DNA bulge size.
    pub max_dna: u8,
    /// Maximum RNA bulge size.
    pub max_rna: u8,
}

/// One enumerated bulge variant of a query: the (possibly widened or
/// shrunk) PAM pattern and the modified guide to run as an ordinary
/// mismatch search, plus the bulge class that labels any hits it produces.
///
/// [`enumerate_variants`] is the single source of truth for the variant
/// sweep; both [`search_with_bulges_on`] and the serving layer's bulge job
/// expansion drive their searches from it, so a bulge job served through
/// `casoff-serve` sees exactly the sweep the library search performs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BulgeVariant {
    /// PAM pattern to search this variant with.
    pub pattern: Vec<u8>,
    /// The modified guide sequence.
    pub query: Vec<u8>,
    /// Bulge class of the variant.
    pub bulge: BulgeType,
    /// Guide position the bulge was introduced at (0 for [`BulgeType::None`]).
    pub bulge_pos: usize,
}

/// Enumerate every search variant of `query` under `limits`, starting with
/// the plain (no-bulge) variant. A DNA bulge of size `b` at position `p`
/// inserts `b` wildcards into the guide and widens the pattern; an RNA
/// bulge deletes `b` guide bases and shrinks it. Queries whose spacer (the
/// non-`N` prefix) is shorter than 2 bases get only the plain variant.
pub fn enumerate_variants(pattern: &[u8], query: &Query, limits: BulgeLimits) -> Vec<BulgeVariant> {
    let mut variants = vec![BulgeVariant {
        pattern: pattern.to_vec(),
        query: query.seq.clone(),
        bulge: BulgeType::None,
        bulge_pos: 0,
    }];
    let spacer_len = query.seq.iter().take_while(|&&c| c != b'N').count();
    if spacer_len < 2 {
        return variants;
    }
    for b in 1..=limits.max_dna {
        for pos in 1..spacer_len {
            variants.push(BulgeVariant {
                pattern: extend_pattern(pattern, b as usize),
                query: insert_ns(&query.seq, pos, b as usize),
                bulge: BulgeType::Dna(b),
                bulge_pos: pos,
            });
        }
    }
    for b in 1..=limits.max_rna {
        if (b as usize) >= spacer_len {
            continue;
        }
        for pos in 1..spacer_len - b as usize {
            variants.push(BulgeVariant {
                pattern: shrink_pattern(pattern, b as usize),
                query: delete_bases(&query.seq, pos, b as usize),
                bulge: BulgeType::Rna(b),
                bulge_pos: pos,
            });
        }
    }
    variants
}

/// Search `assembly` for off-target sites of `input`'s queries allowing
/// mismatches *and* bulges up to `limits`.
///
/// The spacer region is taken to be the non-`N` prefix positions of each
/// query (the PAM is the pattern's non-`N` suffix and is never bulged).
/// Results are sorted and deduplicated; a site found both without a bulge
/// and via some bulged variant is reported once per variant class, as the
/// original tool does.
pub fn search_with_bulges(
    assembly: &Assembly,
    input: &SearchInput,
    limits: BulgeLimits,
) -> Vec<BulgeHit> {
    search_with_bulges_on(&CpuBackend, assembly, input, limits)
}

/// [`search_with_bulges`] over an arbitrary [`SearchBackend`] — run the
/// bulge variant sweep on a GPU pipeline instead of the scalar oracle.
pub fn search_with_bulges_on<B: SearchBackend>(
    backend: &B,
    assembly: &Assembly,
    input: &SearchInput,
    limits: BulgeLimits,
) -> Vec<BulgeHit> {
    let mut hits: Vec<BulgeHit> = Vec::new();

    for query in &input.queries {
        for v in enumerate_variants(&input.pattern, query, limits) {
            let sub_input = SearchInput {
                genome: String::new(),
                pattern: v.pattern,
                queries: vec![Query::new(v.query, query.max_mismatches)],
            };
            for site in backend.search(assembly, &sub_input) {
                hits.push(BulgeHit {
                    site,
                    bulge: v.bulge,
                    bulge_pos: v.bulge_pos,
                });
            }
        }
    }

    // Canonical order and per-(class, site) deduplication: the same genomic
    // site is often reachable from several bulge positions (homopolymer
    // runs); the original tool reports it once per bulge class.
    hits.sort_by(|a, b| dedup_key(a).cmp(&dedup_key(b)).then(a.cmp(b)));
    hits.dedup_by(|a, b| dedup_key(a) == dedup_key(b));
    hits
}

fn dedup_key(h: &BulgeHit) -> (&str, usize, crate::site::Strand, BulgeType) {
    (&h.site.chrom, h.site.position, h.site.strand, h.bulge)
}

fn insert_ns(seq: &[u8], pos: usize, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(seq.len() + n);
    out.extend_from_slice(&seq[..pos]);
    out.extend(std::iter::repeat_n(b'N', n));
    out.extend_from_slice(&seq[pos..]);
    out
}

fn delete_bases(seq: &[u8], pos: usize, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(seq.len() - n);
    out.extend_from_slice(&seq[..pos]);
    out.extend_from_slice(&seq[pos + n..]);
    out
}

/// Widen a PAM pattern by prepending `n` wildcards (the PAM is the non-`N`
/// suffix, so extra genome bases go in front of it).
fn extend_pattern(pattern: &[u8], n: usize) -> Vec<u8> {
    let mut out = vec![b'N'; n];
    out.extend_from_slice(pattern);
    out
}

fn shrink_pattern(pattern: &[u8], n: usize) -> Vec<u8> {
    pattern[n..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::Chromosome;

    fn assembly(seq: &[u8]) -> Assembly {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new("chr1", seq.to_vec()));
        asm
    }

    #[test]
    fn variant_builders() {
        assert_eq!(insert_ns(b"ACGT", 2, 1), b"ACNGT");
        assert_eq!(delete_bases(b"ACGT", 1, 2), b"AT");
        assert_eq!(extend_pattern(b"NNNGG", 2), b"NNNNNGG");
        assert_eq!(shrink_pattern(b"NNNGG", 2), b"NGG");
    }

    #[test]
    fn plain_hits_are_class_none() {
        let asm = assembly(b"ACGTACGTAGG");
        let input = SearchInput::parse("t\nNNNNNNNNNGG\nACGTACGTNNN 1\n").unwrap();
        let hits = search_with_bulges(&asm, &input, BulgeLimits::default());
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.bulge == BulgeType::None));
    }

    #[test]
    fn dna_bulge_finds_inserted_base() {
        // Guide ACGTACGT; genome carries ACGTAACGT (extra A after pos 5)
        // followed by the AGG PAM: only reachable with a 1-base DNA bulge.
        let asm = assembly(b"TTTACGTAACGTAGGTTT");
        let input = SearchInput::parse("t\nNNNNNNNNNGG\nACGTACGTNNN 0\n").unwrap();
        let none = search_with_bulges(&asm, &input, BulgeLimits::default());
        assert!(none.iter().all(|h| h.bulge == BulgeType::None));
        assert!(
            !none.iter().any(|h| h.site.mismatches == 0),
            "not reachable without a bulge"
        );

        let hits = search_with_bulges(
            &asm,
            &input,
            BulgeLimits {
                max_dna: 1,
                max_rna: 0,
            },
        );
        let dna: Vec<_> = hits
            .iter()
            .filter(|h| h.bulge == BulgeType::Dna(1) && h.site.mismatches == 0)
            .collect();
        assert!(!dna.is_empty(), "1-base DNA bulge must recover the site");
    }

    #[test]
    fn rna_bulge_finds_deleted_base() {
        // Guide ACGTACGT; genome carries ACGACGT (G at pos 3 deleted) + PAM.
        let asm = assembly(b"TTTACGACGTAGGTTT");
        let input = SearchInput::parse("t\nNNNNNNNNNGG\nACGTACGTNNN 0\n").unwrap();
        let hits = search_with_bulges(
            &asm,
            &input,
            BulgeLimits {
                max_dna: 0,
                max_rna: 1,
            },
        );
        let rna: Vec<_> = hits
            .iter()
            .filter(|h| h.bulge == BulgeType::Rna(1) && h.site.mismatches == 0)
            .collect();
        assert!(!rna.is_empty(), "1-base RNA bulge must recover the site");
    }

    #[test]
    fn duplicate_variant_hits_are_deduplicated() {
        // A homopolymer run: inserting an N at different positions yields
        // the same genomic site; it must be reported once per bulge class.
        let asm = assembly(b"AAAAAAAAAAAAAGGTTT");
        let input = SearchInput::parse("t\nNNNNNNNNNGG\nAAAAAAAANNN 0\n").unwrap();
        let hits = search_with_bulges(
            &asm,
            &input,
            BulgeLimits {
                max_dna: 1,
                max_rna: 0,
            },
        );
        let mut keys: Vec<_> = hits
            .iter()
            .map(|h| {
                (
                    h.bulge,
                    h.site.chrom.clone(),
                    h.site.position,
                    h.site.strand,
                )
            })
            .collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "no duplicate (class, site) pairs");
    }

    #[test]
    fn gpu_backend_agrees_with_the_cpu_backend() {
        use crate::pipeline::PipelineConfig;
        let asm = assembly(b"TTTACGTAACGTAGGTTTACGACGTAGGTTTACGTACGTAGGTT");
        let input = SearchInput::parse("t\nNNNNNNNNNGG\nACGTACGTNNN 1\n").unwrap();
        let limits = BulgeLimits {
            max_dna: 1,
            max_rna: 1,
        };
        let cpu = search_with_bulges(&asm, &input, limits);
        let gpu = search_with_bulges_on(
            &SyclBackend(PipelineConfig::new(gpu_sim::DeviceSpec::mi100()).chunk_size(64)),
            &asm,
            &input,
            limits,
        );
        assert_eq!(cpu, gpu);
        assert!(!cpu.is_empty());
    }

    #[test]
    fn enumerated_variants_start_plain_and_cover_both_classes() {
        let q = Query::new(b"ACGTACGTNNN".to_vec(), 1);
        let limits = BulgeLimits {
            max_dna: 2,
            max_rna: 1,
        };
        let vs = enumerate_variants(b"NNNNNNNNNGG", &q, limits);
        assert_eq!(vs[0].bulge, BulgeType::None);
        assert_eq!(vs[0].query, q.seq);
        assert_eq!(vs[0].pattern, b"NNNNNNNNNGG");
        // Spacer is 8 bases: 7 insert positions per DNA size, 7 and then
        // spacer_len-1-b positions for RNA deletions.
        let dna: Vec<_> = vs
            .iter()
            .filter(|v| matches!(v.bulge, BulgeType::Dna(_)))
            .collect();
        let rna: Vec<_> = vs
            .iter()
            .filter(|v| matches!(v.bulge, BulgeType::Rna(_)))
            .collect();
        assert_eq!(dna.len(), 14, "two DNA sizes x 7 positions");
        assert_eq!(rna.len(), 6, "one RNA size x 6 positions");
        for v in &dna {
            assert!(v.pattern.len() > 11 && v.query.len() > 11);
        }
        for v in &rna {
            assert!(v.pattern.len() < 11 && v.query.len() < 11);
        }
        // Short spacers fall back to the plain variant only.
        let short = Query::new(b"ANNN".to_vec(), 0);
        assert_eq!(enumerate_variants(b"NNGG", &short, limits).len(), 1);
    }

    #[test]
    fn display_labels() {
        assert_eq!(BulgeType::None.to_string(), "X");
        assert_eq!(BulgeType::Dna(2).to_string(), "DNA:2");
        assert_eq!(BulgeType::Rna(1).to_string(), "RNA:1");
    }
}
