//! Seeded-random property tests of the genome substrate: FASTA round-trips,
//! 2-bit and 4-bit packing, the IUPAC algebra, and synthetic-assembly
//! invariants.
//!
//! Each test sweeps a fixed number of cases drawn from [`genome::rng`], so
//! runs are deterministic and need no external property-testing crate.

use genome::base::{base_mask, complement, is_iupac, matches, IUPAC_CODES};
use genome::fasta::{self, FastaRecord, ParseOptions};
use genome::fourbit::NibbleSeq;
use genome::rng::Xoshiro256;
use genome::twobit::{PackedSeq, TwoBitSeq};
use genome::{synth, Assembly, Chromosome, Chunker};

fn iupac_seq(rng: &mut Xoshiro256, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1, max_len);
    (0..len)
        .map(|_| *rng.choose(&IUPAC_CODES).unwrap())
        .collect()
}

fn record_id(rng: &mut Xoshiro256) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.";
    let len = rng.gen_range(1, 13);
    (0..len)
        .map(|_| ALPHABET[rng.gen_below(ALPHABET.len())] as char)
        .collect()
}

#[test]
fn fasta_roundtrips_arbitrary_records() {
    let mut rng = Xoshiro256::seed_from_u64(0xFA57A);
    for _ in 0..64 {
        let n = rng.gen_range(1, 6);
        let records: Vec<FastaRecord> = (0..n)
            .map(|_| {
                let id = record_id(&mut rng);
                let seq = iupac_seq(&mut rng, 200);
                FastaRecord::new(id, seq)
            })
            .collect();
        let wrap = rng.gen_range(1, 100);
        let mut text = Vec::new();
        fasta::write(&mut text, &records, wrap).unwrap();
        let parsed = fasta::parse(&text[..], ParseOptions::default()).unwrap();
        assert_eq!(parsed, records, "wrap {wrap}");
    }
}

#[test]
fn lenient_parsing_never_fails_on_ascii_noise() {
    let mut rng = Xoshiro256::seed_from_u64(0x9015E);
    for _ in 0..64 {
        let len = rng.gen_below(201);
        let body: String = (0..len)
            .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
            .collect();
        let text = format!(">noise\nA{body}\n");
        // Headers inside the body can split records, but parsing itself must
        // only fail for structural reasons (empty records), never panic.
        if let Ok(records) = fasta::parse_str(&text, ParseOptions { strict: false }) {
            for r in records {
                assert!(r.seq.iter().all(|&b| is_iupac(b)), "noise body {body:?}");
            }
        }
    }
}

#[test]
fn twobit_roundtrips_with_n_for_ambiguity() {
    let mut rng = Xoshiro256::seed_from_u64(0x2B17);
    for _ in 0..64 {
        let seq = iupac_seq(&mut rng, 500);
        let packed = TwoBitSeq::encode(&seq);
        assert_eq!(packed.len(), seq.len());
        let decoded = packed.decode();
        for (i, (&orig, &dec)) in seq.iter().zip(&decoded).enumerate() {
            if matches!(orig, b'A' | b'C' | b'G' | b'T') {
                assert_eq!(dec, orig, "concrete base at {i}");
                assert!(!packed.is_masked(i));
            } else {
                assert_eq!(dec, b'N', "ambiguous base at {i}");
                assert!(packed.is_masked(i));
            }
        }
        // Packing is at most (2 bits + 1 mask bit)/base, rounded up.
        assert!(packed.byte_len() <= seq.len().div_ceil(4) + seq.len().div_ceil(8));
    }
}

/// Every range of `seq` decodes from both lossless encodings exactly as
/// the same slice of their full decode, which is `seq` itself.
fn assert_ranges_decode_exactly(seq: &[u8]) {
    let packed = PackedSeq::encode(seq);
    let nibbles = NibbleSeq::encode(seq);
    assert_eq!(packed.decode(), seq);
    assert_eq!(nibbles.decode(), seq);
    for start in 0..=seq.len() {
        for end in start..=seq.len() {
            let want = &seq[start..end];
            assert_eq!(
                packed.decode_range(start..end),
                want,
                "2-bit {start}..{end}"
            );
            assert_eq!(
                nibbles.decode_range(start..end),
                want,
                "4-bit {start}..{end}"
            );
        }
    }
}

#[test]
fn range_decodes_equal_the_slices_of_the_full_decode() {
    // Lowercase bases, degenerate IUPAC codes in both cases, N runs at the
    // ends and inside, and bytes that are not IUPAC at all (exceptions of
    // both encodings), with exceptions adjacent to and spanning byte
    // boundaries of the packed words.
    let fixtures: [&[u8]; 4] = [
        b"NNNNacgtACGTRYrySWswKMkmBDHVbdhvNNNNNNNNxX-UuACGTNNNN",
        b"acgtacgtacgtacgtacgtacgtacgtacgt",
        b"NNNNNNNNNNNNNNNNNNNN",
        b"A",
    ];
    for seq in fixtures {
        assert_ranges_decode_exactly(seq);
    }
    assert_ranges_decode_exactly(b"");

    let mut rng = Xoshiro256::seed_from_u64(0xDEC0DE);
    const BYTES: &[u8] = b"ACGTNacgtnRYSWKMBDHVryswkmbdhvUuX.-";
    for _ in 0..24 {
        let len = rng.gen_range(1, 70);
        let seq: Vec<u8> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    b"ACGTN"[rng.gen_below(5)]
                } else {
                    BYTES[rng.gen_below(BYTES.len())]
                }
            })
            .collect();
        assert_ranges_decode_exactly(&seq);
    }
}

#[test]
#[should_panic(expected = "out of bounds")]
fn range_decodes_past_the_end_panic() {
    PackedSeq::encode(b"ACGT").decode_range(2..5);
}

#[test]
fn subset_rule_is_mask_algebra() {
    // Small enough to sweep exhaustively: every (pattern, genome) code pair.
    for p in IUPAC_CODES {
        for g in IUPAC_CODES {
            // matches(p, g) <=> mask(g) ⊆ mask(p); complement preserves it.
            let by_mask = base_mask(g) != 0 && base_mask(g) & base_mask(p) == base_mask(g);
            assert_eq!(matches(p, g), by_mask, "p={} g={}", p as char, g as char);
            assert_eq!(
                matches(complement(p), complement(g)),
                matches(p, g),
                "complement breaks subset rule for p={} g={}",
                p as char,
                g as char
            );
        }
    }
}

#[test]
fn synthetic_assemblies_are_reproducible_and_structured() {
    let mut rng = Xoshiro256::seed_from_u64(0x5717);
    for _ in 0..24 {
        let seed = rng.gen_below(1000) as u64;
        let chroms = rng.gen_range(1, 5);
        let len = rng.gen_range(2_000, 20_000);
        let make = || {
            synth::SynthSpec::new("prop", seed)
                .chromosomes(chroms)
                .mean_chromosome_len(len)
                .telomere_n(50)
                .generate()
        };
        let a = make();
        assert_eq!(&a, &make());
        assert_eq!(a.chromosomes().len(), chroms);
        let total: usize = a.total_len();
        let expect = len * chroms;
        let rel_err = ((total as f64) - (expect as f64)).abs() / (expect as f64);
        assert!(rel_err < 0.02, "total {total} vs expected {expect}");
        for c in a.chromosomes() {
            assert!(c.seq.iter().all(|&b| is_iupac(b)));
            assert_eq!(c.seq[0], b'N', "telomere");
        }
    }
}

#[test]
fn chunker_windows_reconstruct_the_chromosome() {
    let mut rng = Xoshiro256::seed_from_u64(0xC4C4);
    for _ in 0..64 {
        let seq = iupac_seq(&mut rng, 400);
        let chunk = rng.gen_range(1, 150);
        let overlap = rng.gen_below(30);
        let mut asm = Assembly::new("prop");
        asm.push(Chromosome::new("c", seq.clone()));
        let mut rebuilt = vec![0u8; seq.len()];
        for piece in Chunker::new(&asm, chunk, overlap) {
            // Owned scan positions reconstruct the sequence exactly once;
            // the overlap region must agree with the chromosome too.
            rebuilt[piece.start..piece.start + piece.scan_len]
                .copy_from_slice(&piece.seq[..piece.scan_len]);
            assert_eq!(piece.seq, &seq[piece.start..piece.start + piece.seq.len()]);
        }
        assert_eq!(rebuilt, seq, "chunk {chunk} overlap {overlap}");
    }
}

#[test]
fn implanting_preserves_length_and_alphabet() {
    let mut rng = Xoshiro256::seed_from_u64(0x1142);
    for _ in 0..24 {
        let seed = rng.gen_below(500) as u64;
        let copies = rng.gen_range(1, 6);
        let mut asm = synth::SynthSpec::new("prop", seed)
            .chromosomes(2)
            .mean_chromosome_len(5_000)
            .telomere_n(20)
            .ambiguity_rate(0.0)
            .generate();
        let before = asm.total_len();
        synth::implant_sites(&mut asm, seed ^ 0xbeef, b"ACGTACGTACGTACGTAGG", copies, 3);
        assert_eq!(asm.total_len(), before, "implants substitute in place");
        for c in asm.chromosomes() {
            assert!(c.seq.iter().all(|&b| is_iupac(b)));
        }
    }
}
