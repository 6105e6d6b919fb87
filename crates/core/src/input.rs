//! The Cas-OFFinder input file format.
//!
//! The format (reference \[17\] of the paper):
//!
//! ```text
//! /var/chromosomes/human_hg38     <- genome location (we use assembly names)
//! NNNNNNNNNNNNNNNNNNNNNRG         <- pattern: desired target with PAM
//! GGCCGACCTGTCGCTGACGCNNN 5       <- query sequence + maximum mismatches
//! CGCCAGCGTCAGCGACAGGTNNN 5
//! ...
//! ```
//!
//! "The input file, which contains the desired pattern, query sequences, and
//! maximum mismatch number, is the same as the example listed in \[17\]"
//! (§IV.A) — [`SearchInput::canonical_example`] reproduces that example.

use std::error::Error;
use std::fmt;

use genome::base::is_iupac;

/// One query: a guide sequence (padded with `N` over the PAM positions) and
/// its mismatch threshold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Query sequence, same length as the pattern, uppercase IUPAC.
    pub seq: Vec<u8>,
    /// Maximum number of mismatched bases to report.
    pub max_mismatches: u16,
}

impl Query {
    /// Create a query, uppercasing the sequence.
    pub fn new(seq: impl Into<Vec<u8>>, max_mismatches: u16) -> Self {
        let mut seq = seq.into();
        seq.make_ascii_uppercase();
        Query {
            seq,
            max_mismatches,
        }
    }
}

/// A parsed Cas-OFFinder input file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchInput {
    /// Genome location: a directory in real Cas-OFFinder, an assembly name
    /// (`"hg19-mini"` / `"hg38-mini"`) here.
    pub genome: String,
    /// The pattern: desired target site template including the PAM,
    /// e.g. `NNNNNNNNNNNNNNNNNNNNNRG` for SpCas9.
    pub pattern: Vec<u8>,
    /// The query sequences.
    pub queries: Vec<Query>,
}

/// Errors produced while parsing or validating an input file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InputError {
    /// The file had fewer than three non-empty lines.
    TooShort,
    /// A sequence contained a non-IUPAC character.
    InvalidSequence {
        /// 1-based line number.
        line: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A query's length differs from the pattern's.
    LengthMismatch {
        /// 1-based line number of the query.
        line: usize,
        /// The query's length.
        query_len: usize,
        /// The pattern's length.
        pattern_len: usize,
    },
    /// A query line was missing its mismatch count, or it did not parse.
    BadMismatchCount {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::TooShort => {
                write!(
                    f,
                    "input needs a genome line, a pattern line and at least one query"
                )
            }
            InputError::InvalidSequence { line, byte } => {
                write!(
                    f,
                    "invalid sequence character {:?} at line {line}",
                    *byte as char
                )
            }
            InputError::LengthMismatch {
                line,
                query_len,
                pattern_len,
            } => write!(
                f,
                "query at line {line} has length {query_len}, pattern has length {pattern_len}"
            ),
            InputError::BadMismatchCount { line } => {
                write!(f, "query at line {line} is missing a valid mismatch count")
            }
        }
    }
}

impl Error for InputError {}

impl SearchInput {
    /// Parse an input file.
    ///
    /// # Errors
    ///
    /// Returns an [`InputError`] describing the first problem found.
    ///
    /// # Examples
    ///
    /// ```
    /// use cas_offinder::SearchInput;
    ///
    /// let input = SearchInput::parse(
    ///     "hg38-mini\nNNNNNNNNNNNNNNNNNNNNNRG\nGGCCGACCTGTCGCTGACGCNNN 5\n",
    /// )?;
    /// assert_eq!(input.queries.len(), 1);
    /// assert_eq!(input.queries[0].max_mismatches, 5);
    /// # Ok::<(), cas_offinder::InputError>(())
    /// ```
    pub fn parse(text: &str) -> Result<SearchInput, InputError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty());

        let (_, genome) = lines.next().ok_or(InputError::TooShort)?;
        let (pat_line, pattern_str) = lines.next().ok_or(InputError::TooShort)?;
        let pattern = parse_seq(pattern_str, pat_line)?;

        let mut queries = Vec::new();
        for (line, text) in lines {
            let mut words = text.split_whitespace();
            let seq_str = words.next().ok_or(InputError::BadMismatchCount { line })?;
            let seq = parse_seq(seq_str, line)?;
            if seq.len() != pattern.len() {
                return Err(InputError::LengthMismatch {
                    line,
                    query_len: seq.len(),
                    pattern_len: pattern.len(),
                });
            }
            let max_mismatches = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or(InputError::BadMismatchCount { line })?;
            queries.push(Query {
                seq,
                max_mismatches,
            });
        }
        if queries.is_empty() {
            return Err(InputError::TooShort);
        }
        Ok(SearchInput {
            genome: genome.to_owned(),
            pattern,
            queries,
        })
    }

    /// Render back to the input file format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.genome);
        out.push('\n');
        out.push_str(std::str::from_utf8(&self.pattern).expect("pattern is ascii"));
        out.push('\n');
        for q in &self.queries {
            out.push_str(std::str::from_utf8(&q.seq).expect("query is ascii"));
            out.push(' ');
            out.push_str(&q.max_mismatches.to_string());
            out.push('\n');
        }
        out
    }

    /// The canonical example input of the Cas-OFFinder README (reference
    /// \[17\] of the paper): the SpCas9 `NRG` PAM pattern and two 20-nt guides
    /// with up to 5 mismatches, targeting `genome`.
    pub fn canonical_example(genome: impl Into<String>) -> SearchInput {
        SearchInput {
            genome: genome.into(),
            pattern: b"NNNNNNNNNNNNNNNNNNNNNRG".to_vec(),
            queries: vec![
                Query::new(&b"GGCCGACCTGTCGCTGACGCNNN"[..], 5),
                Query::new(&b"CGCCAGCGTCAGCGACAGGTNNN"[..], 5),
            ],
        }
    }

    /// Pattern length in bases.
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }
}

fn parse_seq(s: &str, line: usize) -> Result<Vec<u8>, InputError> {
    let mut seq = s.as_bytes().to_vec();
    seq.make_ascii_uppercase();
    if let Some(&byte) = seq.iter().find(|&&b| !is_iupac(b)) {
        return Err(InputError::InvalidSequence { line, byte });
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_example() {
        let input = SearchInput::canonical_example("hg19-mini");
        let reparsed = SearchInput::parse(&input.to_text()).unwrap();
        assert_eq!(reparsed, input);
        assert_eq!(reparsed.pattern_len(), 23);
        assert_eq!(reparsed.queries.len(), 2);
    }

    #[test]
    fn tolerates_blank_lines_and_case() {
        let input = SearchInput::parse("g\n\nnnnrg\n\naacctNNN 3\n").unwrap_err();
        // query length 8 vs pattern length 5
        assert!(matches!(input, InputError::LengthMismatch { .. }));

        let ok = SearchInput::parse("g\nnnnrg\naacct 3\n").unwrap();
        assert_eq!(ok.pattern, b"NNNRG");
        assert_eq!(ok.queries[0].seq, b"AACCT");
    }

    #[test]
    fn rejects_missing_sections() {
        assert_eq!(SearchInput::parse("").unwrap_err(), InputError::TooShort);
        assert_eq!(SearchInput::parse("g\n").unwrap_err(), InputError::TooShort);
        assert_eq!(
            SearchInput::parse("g\nNNNRG\n").unwrap_err(),
            InputError::TooShort,
            "at least one query is required"
        );
    }

    #[test]
    fn rejects_invalid_characters_with_location() {
        let err = SearchInput::parse("g\nNN-RG\nAAAAA 1\n").unwrap_err();
        assert_eq!(
            err,
            InputError::InvalidSequence {
                line: 2,
                byte: b'-'
            }
        );
        let err = SearchInput::parse("g\nNNNRG\nAA!AA 1\n").unwrap_err();
        assert_eq!(
            err,
            InputError::InvalidSequence {
                line: 3,
                byte: b'!'
            }
        );
    }

    #[test]
    fn rejects_bad_mismatch_counts() {
        let err = SearchInput::parse("g\nNNNRG\nAAAAA\n").unwrap_err();
        assert_eq!(err, InputError::BadMismatchCount { line: 3 });
        let err = SearchInput::parse("g\nNNNRG\nAAAAA x\n").unwrap_err();
        assert_eq!(err, InputError::BadMismatchCount { line: 3 });
    }

    #[test]
    fn length_mismatch_names_both_lengths() {
        let err = SearchInput::parse("g\nNNNRG\nAAAA 2\n").unwrap_err();
        assert_eq!(
            err,
            InputError::LengthMismatch {
                line: 3,
                query_len: 4,
                pattern_len: 5
            }
        );
    }
}
