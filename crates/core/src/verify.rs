//! Host-side verification of a result set.
//!
//! Recounts every reported site directly against the genome (independent of
//! the kernels, the pipelines, and the chunker) and checks the set is
//! complete with respect to the scalar oracle. Useful in tests and as a
//! sanity pass after porting the kernels to a new backend — the reproduction
//! analogue of diffing a migrated application's output against the original.

use std::error::Error;
use std::fmt;

use genome::base::{is_mismatch, reverse_complement};
use genome::Assembly;

use crate::cpu::search_sequential;
use crate::input::SearchInput;
use crate::site::{OffTarget, Strand};

/// Why a result set failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A record referenced a chromosome the assembly does not have.
    UnknownChromosome {
        /// The missing chromosome name.
        chrom: String,
    },
    /// A record's window would run past the chromosome end.
    OutOfRange {
        /// Chromosome name.
        chrom: String,
        /// Reported position.
        position: usize,
    },
    /// The recount disagreed with the reported mismatch count.
    MismatchCount {
        /// Chromosome name.
        chrom: String,
        /// Reported position.
        position: usize,
        /// Count stored in the record.
        reported: u16,
        /// Count obtained by re-comparing against the genome.
        recounted: u16,
    },
    /// A reported count exceeds the query's threshold.
    OverThreshold {
        /// Chromosome name.
        chrom: String,
        /// Reported position.
        position: usize,
        /// Count stored in the record.
        reported: u16,
        /// The query's threshold.
        threshold: u16,
    },
    /// A record's query does not appear in the input.
    UnknownQuery {
        /// The orphan query sequence.
        query: String,
    },
    /// The set differs from the oracle (missing or extra sites).
    SetMismatch {
        /// Records in the set but not the oracle.
        extra: usize,
        /// Oracle records missing from the set.
        missing: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownChromosome { chrom } => {
                write!(f, "record references unknown chromosome {chrom:?}")
            }
            VerifyError::OutOfRange { chrom, position } => {
                write!(f, "window at {chrom}:{position} runs past the chromosome")
            }
            VerifyError::MismatchCount {
                chrom,
                position,
                reported,
                recounted,
            } => write!(
                f,
                "mismatch recount at {chrom}:{position} gives {recounted}, record says {reported}"
            ),
            VerifyError::OverThreshold {
                chrom,
                position,
                reported,
                threshold,
            } => write!(
                f,
                "record at {chrom}:{position} reports {reported} mismatches over threshold {threshold}"
            ),
            VerifyError::UnknownQuery { query } => {
                write!(f, "record's query {query:?} is not in the input")
            }
            VerifyError::SetMismatch { extra, missing } => {
                write!(f, "result set disagrees with the oracle: {extra} extra, {missing} missing")
            }
        }
    }
}

impl Error for VerifyError {}

/// Verify each record individually against the genome: window bounds,
/// mismatch recount, threshold.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify_records(
    assembly: &Assembly,
    input: &SearchInput,
    hits: &[OffTarget],
) -> Result<(), VerifyError> {
    let plen = input.pattern_len();
    for hit in hits {
        let query = input
            .queries
            .iter()
            .find(|q| q.seq == hit.query)
            .ok_or_else(|| VerifyError::UnknownQuery {
                query: String::from_utf8_lossy(&hit.query).into_owned(),
            })?;
        let chrom =
            assembly
                .chromosome(&hit.chrom)
                .ok_or_else(|| VerifyError::UnknownChromosome {
                    chrom: hit.chrom.clone(),
                })?;
        if hit.position + plen > chrom.len() {
            return Err(VerifyError::OutOfRange {
                chrom: hit.chrom.clone(),
                position: hit.position,
            });
        }
        let window = &chrom.seq[hit.position..hit.position + plen];
        let oriented = match hit.strand {
            Strand::Forward => window.to_vec(),
            Strand::Reverse => reverse_complement(window),
        };
        let recounted = oriented
            .iter()
            .zip(&hit.query)
            .filter(|&(&g, &q)| is_mismatch(q, g))
            .count() as u16;
        if recounted != hit.mismatches {
            return Err(VerifyError::MismatchCount {
                chrom: hit.chrom.clone(),
                position: hit.position,
                reported: hit.mismatches,
                recounted,
            });
        }
        if hit.mismatches > query.max_mismatches {
            return Err(VerifyError::OverThreshold {
                chrom: hit.chrom.clone(),
                position: hit.position,
                reported: hit.mismatches,
                threshold: query.max_mismatches,
            });
        }
    }
    Ok(())
}

/// Full verification: per-record checks plus set equality against the
/// scalar oracle.
///
/// # Errors
///
/// Returns the first per-record [`VerifyError`], or
/// [`VerifyError::SetMismatch`] when the sets differ.
pub fn verify_complete(
    assembly: &Assembly,
    input: &SearchInput,
    hits: &[OffTarget],
) -> Result<(), VerifyError> {
    verify_records(assembly, input, hits)?;
    let oracle = search_sequential(assembly, input);
    if hits == oracle.as_slice() {
        return Ok(());
    }
    let extra = hits.iter().filter(|h| !oracle.contains(h)).count();
    let missing = oracle.iter().filter(|h| !hits.contains(h)).count();
    Err(VerifyError::SetMismatch { extra, missing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{self, PipelineConfig};
    use gpu_sim::DeviceSpec;

    fn workload() -> (Assembly, SearchInput) {
        let assembly = genome::synth::hg19_mini(0.004);
        let input = SearchInput::canonical_example(assembly.name());
        (assembly, input)
    }

    #[test]
    fn pipeline_output_verifies_completely() {
        let (assembly, input) = workload();
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 13);
        let report = pipeline::sycl::run(&assembly, &input, &config).unwrap();
        assert!(!report.offtargets.is_empty());
        verify_complete(&assembly, &input, &report.offtargets).unwrap();
    }

    #[test]
    fn corrupted_counts_are_caught() {
        let (assembly, input) = workload();
        let mut hits = search_sequential(&assembly, &input);
        hits[0].mismatches = hits[0].mismatches.wrapping_add(1);
        let err = verify_records(&assembly, &input, &hits).unwrap_err();
        assert!(matches!(err, VerifyError::MismatchCount { .. }));
    }

    #[test]
    fn dropped_sites_are_caught() {
        let (assembly, input) = workload();
        let mut hits = search_sequential(&assembly, &input);
        hits.pop();
        let err = verify_complete(&assembly, &input, &hits).unwrap_err();
        assert_eq!(
            err,
            VerifyError::SetMismatch {
                extra: 0,
                missing: 1
            }
        );
    }

    #[test]
    fn foreign_records_are_caught() {
        let (assembly, input) = workload();
        let mut hits = search_sequential(&assembly, &input);

        let mut bad_chrom = hits.clone();
        bad_chrom[0].chrom = "chrZ".to_owned();
        assert!(matches!(
            verify_records(&assembly, &input, &bad_chrom).unwrap_err(),
            VerifyError::UnknownChromosome { .. }
        ));

        let mut bad_query = hits.clone();
        bad_query[0].query = b"TTTTTTTTTTTTTTTTTTTTTTT".to_vec();
        assert!(matches!(
            verify_records(&assembly, &input, &bad_query).unwrap_err(),
            VerifyError::UnknownQuery { .. }
        ));

        hits[0].position = usize::MAX / 2;
        assert!(matches!(
            verify_records(&assembly, &input, &hits).unwrap_err(),
            VerifyError::OutOfRange { .. }
        ));
    }

    #[test]
    fn errors_render_helpfully() {
        let e = VerifyError::MismatchCount {
            chrom: "chr1".into(),
            position: 42,
            reported: 3,
            recounted: 4,
        };
        assert_eq!(
            e.to_string(),
            "mismatch recount at chr1:42 gives 4, record says 3"
        );
    }
}
