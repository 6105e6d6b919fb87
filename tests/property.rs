//! Seeded-random property tests over random genomes, patterns and queries.
//!
//! The key invariant: for *any* genome and *any* well-formed input, the GPU
//! pipelines and the scalar oracle agree exactly. Supporting properties
//! cover the IUPAC algebra, the two-strand pattern compilation and the
//! chunker. Cases are drawn from `genome::rng`, so runs are deterministic
//! and need no external property-testing crate.

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{cpu, CompiledSeq, OptLevel, Query, SearchInput};
use genome::base::{base_mask, complement, is_mismatch, matches, reverse_complement, IUPAC_CODES};
use genome::rng::Xoshiro256;
use genome::{Assembly, Chromosome, Chunker};
use gpu_sim::DeviceSpec;

fn genome_seq(rng: &mut Xoshiro256, max_len: usize) -> Vec<u8> {
    // The N-heavy alphabet mirrors proptest's old weighted selection.
    const ALPHABET: &[u8] = b"AAACCGGTTTN";
    let len = rng.gen_range(30, max_len);
    (0..len)
        .map(|_| ALPHABET[rng.gen_below(ALPHABET.len())])
        .collect()
}

fn guide(rng: &mut Xoshiro256, len: usize) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[rng.gen_below(4)]).collect()
}

#[test]
fn gpu_pipelines_match_the_oracle_on_random_genomes() {
    let mut rng = Xoshiro256::seed_from_u64(0x09AC1E);
    for _ in 0..24 {
        let seq = genome_seq(&mut rng, 600);
        let query = guide(&mut rng, 8);
        let threshold = rng.gen_below(4) as u16;
        let chunk_bits = rng.gen_range(5, 10);
        let mut assembly = Assembly::new("prop");
        assembly.push(Chromosome::new("c1", seq));
        let input = SearchInput {
            genome: "prop".to_owned(),
            pattern: b"NNNNNNNNGG".to_vec(),
            queries: vec![Query::new([&query[..], b"NN"].concat(), threshold)],
        };
        let oracle = cpu::search_sequential(&assembly, &input);
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << chunk_bits);
        let sycl = pipeline::sycl::run(&assembly, &input, &config).unwrap();
        assert_eq!(sycl.offtargets, oracle, "sycl, chunk 2^{chunk_bits}");
        let ocl = pipeline::ocl::run(&assembly, &input, &config).unwrap();
        assert_eq!(ocl.offtargets, oracle, "ocl, chunk 2^{chunk_bits}");
    }
}

#[test]
fn opt_levels_never_change_results() {
    let mut rng = Xoshiro256::seed_from_u64(0x0071);
    for _ in 0..12 {
        let seq = genome_seq(&mut rng, 300);
        let threshold = rng.gen_below(6) as u16;
        let mut assembly = Assembly::new("prop");
        assembly.push(Chromosome::new("c1", seq));
        let input = SearchInput {
            genome: "prop".to_owned(),
            pattern: b"NNNNNNNRG".to_vec(),
            queries: vec![Query::new(&b"ACGTACGNN"[..], threshold)],
        };
        let base_cfg = PipelineConfig::new(DeviceSpec::mi60()).chunk_size(64);
        let base = pipeline::sycl::run(&assembly, &input, &base_cfg).unwrap();
        for opt in OptLevel::ALL {
            let report =
                pipeline::sycl::run(&assembly, &input, &base_cfg.clone().opt(opt)).unwrap();
            assert_eq!(report.offtargets, base.offtargets, "opt {opt}");
        }
    }
}

#[test]
fn complement_is_involutive_and_preserves_ambiguity() {
    for c in IUPAC_CODES {
        assert_eq!(complement(complement(c)), c);
        assert_eq!(
            base_mask(c).count_ones(),
            base_mask(complement(c)).count_ones()
        );
    }
}

#[test]
fn reverse_complement_is_involutive() {
    let mut rng = Xoshiro256::seed_from_u64(0x4EC0);
    for _ in 0..48 {
        let seq = genome_seq(&mut rng, 200);
        assert_eq!(reverse_complement(&reverse_complement(&seq)), seq);
    }
}

#[test]
fn match_and_mismatch_partition() {
    for p in IUPAC_CODES {
        for g in IUPAC_CODES {
            assert_ne!(matches(p, g), is_mismatch(p, g));
            // N matches everything.
            assert!(matches(b'N', g));
        }
    }
}

#[test]
fn compiled_seq_halves_are_reverse_complements() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE);
    for _ in 0..48 {
        let query = guide(&mut rng, 12);
        let c = CompiledSeq::compile(&query);
        assert_eq!(c.forward(), &query[..]);
        assert_eq!(c.reverse().to_vec(), reverse_complement(&query));
        // Index halves address exactly the non-N positions.
        assert_eq!(c.forward_compare_count(), 12);
        assert_eq!(c.reverse_compare_count(), 12);
    }
}

#[test]
fn chunker_covers_each_position_exactly_once() {
    let mut rng = Xoshiro256::seed_from_u64(0xC08E4);
    for _ in 0..48 {
        let len = rng.gen_range(1, 2000);
        let chunk = rng.gen_range(1, 700);
        let overlap = rng.gen_below(40);
        let mut assembly = Assembly::new("prop");
        assembly.push(Chromosome::new("c1", vec![b'A'; len]));
        let mut covered = vec![0u32; len];
        for piece in Chunker::new(&assembly, chunk, overlap) {
            for p in 0..piece.scan_len {
                covered[piece.start + p] += 1;
            }
            assert!(piece.seq.len() <= piece.scan_len + overlap);
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "len {len} chunk {chunk} overlap {overlap}"
        );
    }
}

#[test]
fn search_results_are_strand_symmetric() {
    let mut rng = Xoshiro256::seed_from_u64(0x57D);
    for _ in 0..24 {
        let seq = genome_seq(&mut rng, 400);
        let query = guide(&mut rng, 7);
        let threshold = rng.gen_below(3) as u16;
        // Searching G for Q must mirror searching revcomp(G) for Q: a
        // forward hit at p becomes a reverse hit at len - plen - p.
        let plen = 9usize;
        let make_input = |seq: Vec<u8>| {
            let mut assembly = Assembly::new("prop");
            assembly.push(Chromosome::new("c1", seq));
            let input = SearchInput {
                genome: "prop".to_owned(),
                pattern: b"NNNNNNNGG".to_vec(),
                queries: vec![Query::new([&query[..], b"NN"].concat(), threshold)],
            };
            (assembly, input)
        };
        let (fwd_asm, input) = make_input(seq.clone());
        let (rev_asm, _) = make_input(reverse_complement(&seq));
        let fwd_hits = cpu::search_sequential(&fwd_asm, &input);
        let rev_hits = cpu::search_sequential(&rev_asm, &input);

        let mut mirrored: Vec<(usize, cas_offinder::Strand, u16)> = fwd_hits
            .iter()
            .map(|h| {
                let pos = seq.len() - plen - h.position;
                let strand = match h.strand {
                    cas_offinder::Strand::Forward => cas_offinder::Strand::Reverse,
                    cas_offinder::Strand::Reverse => cas_offinder::Strand::Forward,
                };
                (pos, strand, h.mismatches)
            })
            .collect();
        let mut actual: Vec<(usize, cas_offinder::Strand, u16)> = rev_hits
            .iter()
            .map(|h| (h.position, h.strand, h.mismatches))
            .collect();
        mirrored.sort_unstable();
        actual.sort_unstable();
        assert_eq!(mirrored, actual);
    }
}
