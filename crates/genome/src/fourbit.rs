//! 4-bit (nibble) packed sequence encoding.
//!
//! Where the [2-bit encoding](crate::twobit) stores only concrete bases and
//! pushes everything else into an ambiguity mask plus an exception list, the
//! nibble encoding stores every IUPAC code — including the degenerate ones —
//! as its 4-bit base-possibility mask ([`base_mask`]). The subset match rule
//! the compare kernels implement (`g != 0 && (g & p) == g`) only ever reads
//! that mask, so a kernel operating on nibble words reproduces the char
//! comparer bit for bit on *any* input: soft-masked runs, ambiguity codes,
//! even invalid bytes (mask 0 never matches). Exception-dense chunks that
//! would force the 2-bit path back onto the char comparer stay packed at
//! half a byte per base of device traffic.
//!
//! Host-side round-trips must be byte-exact (the serving cache decodes its
//! payloads to report genomic windows), so [`NibbleSeq`] additionally keeps a
//! 1-bit-per-base lowercase mask and a verbatim exception list for the rare
//! bytes the (nibble, case) pair cannot restore — non-IUPAC characters and
//! `U`/`u`, which share `T`'s mask. None of that travels to the device.

use std::ops::Range;

use crate::base::base_mask;
use crate::twobit::{apply_exceptions, check_range};

/// Uppercase IUPAC code of a 4-bit possibility mask (only the low four bits
/// are used). This is the inverse of [`base_mask`] on the fifteen IUPAC
/// codes; the empty mask 0 — which never matches and is never matched —
/// decodes to `X`, a byte with the same never-matching semantics.
///
/// # Examples
///
/// ```
/// use genome::base::base_mask;
/// use genome::fourbit::mask_to_char;
///
/// assert_eq!(mask_to_char(base_mask(b'R')), b'R');
/// assert_eq!(mask_to_char(0), b'X');
/// ```
#[inline]
pub const fn mask_to_char(mask: u8) -> u8 {
    match mask & 0b1111 {
        0b0001 => b'A',
        0b0010 => b'C',
        0b0011 => b'M',
        0b0100 => b'G',
        0b0101 => b'R',
        0b0110 => b'S',
        0b0111 => b'V',
        0b1000 => b'T',
        0b1001 => b'W',
        0b1010 => b'Y',
        0b1011 => b'H',
        0b1100 => b'K',
        0b1101 => b'D',
        0b1110 => b'B',
        0b1111 => b'N',
        _ => b'X',
    }
}

/// A sequence packed at 4 bits per base, each nibble the IUPAC possibility
/// mask of the original byte, plus the host-only metadata needed to decode
/// byte-exactly: a lowercase bitmask and a verbatim exception list for bytes
/// whose (mask, case) pair is not unique (`U`/`u` and non-IUPAC characters).
///
/// The device payload is [`nibble_bytes`](Self::nibble_bytes) alone — case
/// and exceptions never affect matching, so uploads cost 0.5 B/base
/// regardless of how masked or ambiguous the sequence is.
///
/// # Examples
///
/// ```
/// use genome::fourbit::NibbleSeq;
///
/// let packed = NibbleSeq::encode(b"ACGRNNtawrymkbdhv");
/// assert_eq!(packed.decode(), b"ACGRNNtawrymkbdhv"); // byte-exact
/// assert!(packed.exceptions().is_empty()); // every byte is IUPAC
/// assert_eq!(packed.nibble_bytes().len(), 9); // 17 bases -> 9 bytes
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NibbleSeq {
    nibbles: Vec<u8>,
    lower: Vec<u8>,
    exceptions: Vec<(u32, u8)>,
    len: usize,
}

impl NibbleSeq {
    /// Pack a byte sequence losslessly.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is longer than `u32::MAX` bases (exception positions
    /// are stored as `u32`, matching the device-side representation).
    pub fn encode(seq: &[u8]) -> Self {
        assert!(seq.len() <= u32::MAX as usize, "sequence too long to pack");
        let len = seq.len();
        let mut nibbles = vec![0u8; len.div_ceil(2)];
        let mut lower = vec![0u8; len.div_ceil(8)];
        let mut exceptions = Vec::new();
        for (i, &c) in seq.iter().enumerate() {
            let mask = base_mask(c);
            nibbles[i / 2] |= mask << ((i % 2) * 4);
            if c.is_ascii_lowercase() {
                lower[i / 8] |= 1 << (i % 8);
            }
            // A byte round-trips through (mask, case) exactly when
            // uppercasing it gives the canonical code of its mask.
            if mask == 0 || mask_to_char(mask) != c.to_ascii_uppercase() {
                exceptions.push((i as u32, c));
            }
        }
        NibbleSeq {
            nibbles,
            lower,
            exceptions,
            len,
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 4-bit possibility mask at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn mask(&self, i: usize) -> u8 {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        (self.nibbles[i / 2] >> ((i % 2) * 4)) & 0b1111
    }

    /// The uppercase IUPAC code at position `i` (`X` for non-IUPAC bytes) —
    /// what an on-device nibble decode produces.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn base(&self, i: usize) -> u8 {
        mask_to_char(self.mask(i))
    }

    /// The nibble words (2 bases per byte, low nibble first) — the only
    /// bytes a device upload needs.
    pub fn nibble_bytes(&self) -> &[u8] {
        &self.nibbles
    }

    /// Bytes of the device payload: half a byte per base.
    pub fn device_byte_len(&self) -> usize {
        self.nibbles.len()
    }

    /// Positions whose original byte the (nibble, case) pair cannot restore,
    /// sorted ascending, with the verbatim byte. Host-only.
    pub fn exceptions(&self) -> &[(u32, u8)] {
        &self.exceptions
    }

    /// Bytes used by the host-resident representation (nibbles + lowercase
    /// mask + exceptions): ~0.625 B/base on genomic data.
    pub fn byte_len(&self) -> usize {
        self.nibbles.len()
            + self.lower.len()
            + self.exceptions.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<u8>())
    }

    /// Unpack the original sequence exactly.
    pub fn decode(&self) -> Vec<u8> {
        self.decode_range(0..self.len)
    }

    /// Unpack positions `range` of the original sequence exactly: equal to
    /// `decode()[range]` without unpacking the rest.
    ///
    /// # Panics
    ///
    /// Panics if `range` is reversed or ends past the sequence.
    pub fn decode_range(&self, range: Range<usize>) -> Vec<u8> {
        check_range(&range, self.len);
        let start = range.start;
        let mut seq: Vec<u8> = range
            .map(|i| {
                let c = self.base(i);
                if (self.lower[i / 8] >> (i % 8)) & 1 == 1 {
                    c.to_ascii_lowercase()
                } else {
                    c
                }
            })
            .collect();
        apply_exceptions(&mut seq, &self.exceptions, start);
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{is_mismatch, IUPAC_CODES};

    #[test]
    fn mask_to_char_inverts_base_mask_on_iupac() {
        for &code in IUPAC_CODES.iter() {
            assert_eq!(mask_to_char(base_mask(code)), code, "code {}", code as char);
        }
    }

    #[test]
    fn every_iupac_code_roundtrips_without_exceptions() {
        for &code in IUPAC_CODES.iter() {
            for c in [code, code.to_ascii_lowercase()] {
                for phase in 0..2 {
                    let mut seq = vec![b'A'; phase];
                    seq.push(c);
                    seq.extend_from_slice(b"cgt");
                    let p = NibbleSeq::encode(&seq);
                    assert_eq!(p.decode(), seq, "code {} at phase {phase}", c as char);
                    assert!(p.exceptions().is_empty(), "code {}", c as char);
                }
            }
        }
    }

    #[test]
    fn u_and_invalid_bytes_become_exceptions() {
        let seq = b"ACGUuX-".to_vec();
        let p = NibbleSeq::encode(&seq);
        assert_eq!(p.decode(), seq);
        assert_eq!(p.exceptions().len(), 4, "U, u, X and -");
        // On device, U still matches as T and invalid bytes never match.
        assert_eq!(p.mask(3), base_mask(b'T'));
        assert_eq!(p.mask(5), 0);
    }

    #[test]
    fn stored_masks_reproduce_char_mismatch_semantics() {
        // The property the 4-bit comparer rests on: for every pattern code
        // and every genome byte, the mismatch verdict computed from the
        // stored nibble equals the char comparer's verdict on the raw byte.
        let mut genome_bytes: Vec<u8> = IUPAC_CODES.to_vec();
        genome_bytes.extend(IUPAC_CODES.iter().map(|c| c.to_ascii_lowercase()));
        genome_bytes.extend_from_slice(b"Uu X@-");
        let p = NibbleSeq::encode(&genome_bytes);
        for &pat in IUPAC_CODES.iter() {
            let pmask = base_mask(pat);
            for (i, &g) in genome_bytes.iter().enumerate() {
                let gmask = p.mask(i);
                let nibble_mismatch = !(gmask != 0 && (gmask & pmask) == gmask);
                assert_eq!(
                    nibble_mismatch,
                    is_mismatch(pat, g),
                    "pattern {} vs genome {}",
                    pat as char,
                    g as char
                );
            }
        }
    }

    #[test]
    fn random_genomic_sequences_roundtrip() {
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x4B17);
        for round in 0..32 {
            let len = rng.gen_below(700);
            let seq: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.10) {
                        IUPAC_CODES[rng.gen_below(IUPAC_CODES.len())]
                    } else if rng.gen_bool(0.25) {
                        b"acgtn"[rng.gen_below(5)]
                    } else {
                        b"ACGTN"[rng.gen_below(5)]
                    }
                })
                .collect();
            let p = NibbleSeq::encode(&seq);
            assert_eq!(p.decode(), seq, "round {round}");
            assert_eq!(p.len(), seq.len());
            assert!(p.exceptions().is_empty(), "IUPAC-only input, round {round}");
        }
    }

    #[test]
    fn footprint_is_half_a_byte_per_base_on_device() {
        // A worst case for the 2-bit encoding — every base soft-masked or
        // degenerate — costs the nibble encoding nothing extra.
        let seq: Vec<u8> = (0..1000)
            .map(|i| if i % 2 == 0 { b'r' } else { b'y' })
            .collect();
        let p = NibbleSeq::encode(&seq);
        assert_eq!(p.device_byte_len(), 500);
        assert_eq!(p.byte_len(), 500 + 125, "nibbles + lowercase mask");
        assert_eq!(p.decode(), seq);
    }

    #[test]
    fn non_multiple_of_two_lengths() {
        for n in 0..9 {
            let seq: Vec<u8> = b"ACGRNyWtT"[..n].to_vec();
            let p = NibbleSeq::encode(&seq);
            assert_eq!(p.len(), n);
            assert_eq!(p.decode(), seq);
        }
        assert!(NibbleSeq::encode(b"").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        NibbleSeq::encode(b"ACGT").mask(4);
    }
}
