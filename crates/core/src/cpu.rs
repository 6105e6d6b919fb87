//! CPU reference implementations.
//!
//! [`search_sequential`] is the plain scalar oracle the GPU pipelines are
//! validated against; [`search_parallel`] is the multithreaded host baseline
//! corresponding to the original authors' OpenMP optimization (related work
//! \[21\] of the paper).

use genome::base::is_mismatch;
use genome::{Assembly, Chromosome};

use crate::input::SearchInput;
use crate::pattern::CompiledSeq;
use crate::site::{sort_canonical, OffTarget, Strand};

/// Count mismatches of `compiled` half `half` against the window at `pos`,
/// stopping after `threshold + 1`.
fn count_mismatches(
    seq: &[u8],
    pos: usize,
    compiled: &CompiledSeq,
    half: usize,
    threshold: u16,
) -> u16 {
    let plen = compiled.plen();
    let mut mm = 0;
    for j in 0..plen {
        let k = compiled.comp_index()[half * plen + j];
        if k < 0 {
            break;
        }
        let k = k as usize;
        if is_mismatch(compiled.comp()[half * plen + k], seq[pos + k]) {
            mm += 1;
            if mm > threshold {
                break;
            }
        }
    }
    mm
}

/// True when the pattern half matches the window exactly (the finder test).
fn half_matches(seq: &[u8], pos: usize, compiled: &CompiledSeq, half: usize) -> bool {
    count_mismatches(seq, pos, compiled, half, 0) == 0
}

fn search_chromosome(
    chrom: &Chromosome,
    pattern: &CompiledSeq,
    queries: &[(CompiledSeq, u16, &[u8])],
    out: &mut Vec<OffTarget>,
) {
    let plen = pattern.plen();
    if chrom.len() < plen {
        return;
    }
    for pos in 0..=chrom.len() - plen {
        let fwd = half_matches(&chrom.seq, pos, pattern, 0);
        let rev = half_matches(&chrom.seq, pos, pattern, 1);
        if !fwd && !rev {
            continue;
        }
        let window = &chrom.seq[pos..pos + plen];
        for (compiled, threshold, query) in queries {
            if fwd {
                let mm = count_mismatches(&chrom.seq, pos, compiled, 0, *threshold);
                if mm <= *threshold {
                    out.push(OffTarget::from_window(
                        query,
                        chrom.name.clone(),
                        pos,
                        Strand::Forward,
                        mm,
                        window,
                    ));
                }
            }
            if rev {
                let mm = count_mismatches(&chrom.seq, pos, compiled, 1, *threshold);
                if mm <= *threshold {
                    out.push(OffTarget::from_window(
                        query,
                        chrom.name.clone(),
                        pos,
                        Strand::Reverse,
                        mm,
                        window,
                    ));
                }
            }
        }
    }
}

fn compile_queries(input: &SearchInput) -> Vec<(CompiledSeq, u16, &[u8])> {
    input
        .queries
        .iter()
        .map(|q| {
            (
                CompiledSeq::compile(&q.seq),
                q.max_mismatches,
                q.seq.as_slice(),
            )
        })
        .collect()
}

/// The sequential scalar reference: exactly the semantics of the GPU
/// pipelines, in canonical order.
///
/// # Examples
///
/// ```
/// use cas_offinder::{cpu, SearchInput};
/// use genome::{Assembly, Chromosome};
///
/// let mut asm = Assembly::new("toy");
/// asm.push(Chromosome::new("chr1", b"ACGTACGTAGG".to_vec()));
/// let input = SearchInput::parse("toy\nNNNNNNNNNGG\nACGTACGTNNN 2\n")?;
/// let hits = cpu::search_sequential(&asm, &input);
/// assert!(!hits.is_empty());
/// # Ok::<(), cas_offinder::InputError>(())
/// ```
pub fn search_sequential(assembly: &Assembly, input: &SearchInput) -> Vec<OffTarget> {
    let pattern = CompiledSeq::compile(&input.pattern);
    let queries = compile_queries(input);
    let mut out = Vec::new();
    for chrom in assembly.chromosomes() {
        search_chromosome(chrom, &pattern, &queries, &mut out);
    }
    sort_canonical(&mut out);
    out
}

/// The multithreaded host baseline (the OpenMP optimization of related work
/// \[21\]): chromosomes are searched concurrently on `threads` OS threads.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn search_parallel(assembly: &Assembly, input: &SearchInput, threads: usize) -> Vec<OffTarget> {
    assert!(threads > 0, "at least one thread is required");
    let pattern = CompiledSeq::compile(&input.pattern);
    let queries = compile_queries(input);

    let chroms = assembly.chromosomes();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let pattern = &pattern;
                let queries = &queries;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    while i < chroms.len() {
                        search_chromosome(&chroms[i], pattern, queries, &mut out);
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("search worker panicked"))
            .collect::<Vec<_>>()
    });

    let mut out = results;
    sort_canonical(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::synth;

    fn toy_assembly() -> Assembly {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new(
            "chr1",
            b"ACGTACGTAGGTTTACGTACGAAGCCCCC".to_vec(),
        ));
        asm.push(Chromosome::new("chr2", b"CCTACGTACGTNNNNNACGT".to_vec()));
        // A near-match: ACGTACTT vs guide ACGTACGT (one mismatch) + AGG PAM.
        asm.push(Chromosome::new("chr3", b"TTACGTACTTAGGTT".to_vec()));
        asm
    }

    fn toy_input() -> SearchInput {
        SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\n").unwrap()
    }

    #[test]
    fn finds_known_forward_hit() {
        let hits = search_sequential(&toy_assembly(), &toy_input());
        // chr1 pos 0: window ACGTACGTAGG; PAM RG at 9..11 = GG ✓ preceded by
        // A -> pattern NRG needs R=A/G at index 9: 'G' ✓. Query compares
        // positions 0..8: perfect match.
        assert!(hits
            .iter()
            .any(|h| h.chrom == "chr1" && h.position == 0 && h.mismatches == 0));
    }

    #[test]
    fn reverse_hits_are_found() {
        // chr2 starts with CCT...: revcomp pattern of NRG is CYN, CCT
        // matches (C, C∈Y, any).
        let hits = search_sequential(&toy_assembly(), &toy_input());
        assert!(hits
            .iter()
            .any(|h| h.chrom == "chr2" && h.strand == Strand::Reverse));
    }

    #[test]
    fn mismatch_threshold_is_respected() {
        let asm = toy_assembly();
        let strict = SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 0\n").unwrap();
        let loose = SearchInput::parse("toy\nNNNNNNNNNRG\nACGTACGTNNN 3\n").unwrap();
        let strict_hits = search_sequential(&asm, &strict);
        let loose_hits = search_sequential(&asm, &loose);
        assert!(strict_hits.len() < loose_hits.len());
        assert!(strict_hits.iter().all(|h| h.mismatches == 0));
        assert!(loose_hits.iter().all(|h| h.mismatches <= 3));
    }

    #[test]
    fn parallel_matches_sequential() {
        let asm = synth::hg19_mini(0.005);
        let input = SearchInput::canonical_example("hg19-mini");
        let seq = search_sequential(&asm, &input);
        for threads in [1, 2, 5] {
            assert_eq!(search_parallel(&asm, &input, threads), seq);
        }
    }

    #[test]
    fn output_is_canonically_sorted() {
        let hits = search_sequential(&toy_assembly(), &toy_input());
        let mut sorted = hits.clone();
        sort_canonical(&mut sorted);
        assert_eq!(hits, sorted);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        search_parallel(&toy_assembly(), &toy_input(), 0);
    }

    #[test]
    fn short_chromosomes_are_skipped() {
        let mut asm = Assembly::new("tiny");
        asm.push(Chromosome::new("c", b"ACG".to_vec()));
        let input = SearchInput::parse("tiny\nNNNNNNNNNRG\nACGTACGTNNN 3\n").unwrap();
        assert!(search_sequential(&asm, &input).is_empty());
    }
}
