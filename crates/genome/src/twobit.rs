//! 2-bit packed sequence encoding.
//!
//! The Cas-OFFinder authors' follow-up optimization (related work \[21\] in
//! the paper) packs the genome into a 2-bit-per-base format with a separate
//! mask for ambiguous positions, quartering global-memory traffic. This
//! module provides that encoding; the `cas-offinder` crate uses it for the
//! 2-bit kernel variant.

use std::ops::Range;

use crate::base::{is_concrete, BaseMask};

/// 2-bit code of a concrete base: A=0, C=1, G=2, T=3.
#[inline]
pub const fn char_to_code(c: u8) -> u8 {
    match c {
        b'A' | b'a' => 0,
        b'C' | b'c' => 1,
        b'G' | b'g' => 2,
        _ => 3,
    }
}

/// Concrete base of a 2-bit code (only the low two bits are used).
#[inline]
pub const fn code_to_char(code: u8) -> u8 {
    match code & 0b11 {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        _ => b'T',
    }
}

/// Possibility mask of a 2-bit code (only the low two bits are used):
/// `base_mask(code_to_char(code))` without the round trip through the
/// char. The codes follow the mask's bit order, so code `c` is bit `c`.
#[inline]
pub const fn code_mask(code: u8) -> BaseMask {
    1 << (code & 0b11)
}

/// A sequence packed at 2 bits per base with a 1-bit-per-base ambiguity
/// mask.
///
/// Ambiguous positions (`N` and the IUPAC degenerate codes) are stored with
/// code 0 and flagged in the mask; [`decode`](Self::decode) restores them as
/// `N`.
///
/// # Examples
///
/// ```
/// use genome::twobit::TwoBitSeq;
///
/// let packed = TwoBitSeq::encode(b"ACGTN");
/// assert_eq!(packed.len(), 5);
/// assert_eq!(packed.decode(), b"ACGTN");
/// assert!(packed.is_masked(4));
/// assert_eq!(packed.packed_bytes().len(), 2); // 5 bases -> 2 bytes
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TwoBitSeq {
    packed: Vec<u8>,
    mask: Vec<u8>,
    len: usize,
}

impl TwoBitSeq {
    /// Pack a byte sequence.
    pub fn encode(seq: &[u8]) -> Self {
        let len = seq.len();
        let mut packed = vec![0u8; len.div_ceil(4)];
        let mut mask = vec![0u8; len.div_ceil(8)];
        for (i, &c) in seq.iter().enumerate() {
            if is_concrete(c) {
                packed[i / 4] |= char_to_code(c) << ((i % 4) * 2);
            } else {
                mask[i / 8] |= 1 << (i % 8);
            }
        }
        TwoBitSeq { packed, mask, len }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code at position `i` (0 for masked positions).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        (self.packed[i / 4] >> ((i % 4) * 2)) & 0b11
    }

    /// True when position `i` holds an ambiguous base.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn is_masked(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        (self.mask[i / 8] >> (i % 8)) & 1 == 1
    }

    /// The base character at position `i` (`N` for masked positions).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn base(&self, i: usize) -> u8 {
        if self.is_masked(i) {
            b'N'
        } else {
            code_to_char(self.code(i))
        }
    }

    /// Unpack the full sequence (degenerate codes come back as `N`).
    pub fn decode(&self) -> Vec<u8> {
        self.decode_range(0..self.len)
    }

    /// Unpack positions `range` (degenerate codes come back as `N`).
    ///
    /// # Panics
    ///
    /// Panics if `range` is reversed or ends past the sequence.
    pub fn decode_range(&self, range: Range<usize>) -> Vec<u8> {
        check_range(&range, self.len);
        range.map(|i| self.base(i)).collect()
    }

    /// The packed base bytes (4 bases per byte, LSB first).
    pub fn packed_bytes(&self) -> &[u8] {
        &self.packed
    }

    /// The ambiguity mask bytes (8 bases per byte, LSB first).
    pub fn mask_bytes(&self) -> &[u8] {
        &self.mask
    }

    /// Bytes used by the packed representation (bases + mask).
    pub fn byte_len(&self) -> usize {
        self.packed.len() + self.mask.len()
    }
}

/// A lossless 2-bit packed sequence: a [`TwoBitSeq`] plus an exception list
/// recording every position the 2-bit form cannot restore exactly.
///
/// `TwoBitSeq::decode` collapses all ambiguity codes to `N` and uppercases
/// lowercase bases, so it cannot be used where byte-exact round-trips matter
/// (the serving cache must reproduce the original chunk bytes so results stay
/// byte-identical to the unpacked pipeline). `PackedSeq` stores the original
/// byte for each such position as a sorted `(position, byte)` list; for
/// genomic data the list is tiny (degenerate IUPAC codes are rare and runs of
/// `N` need no exceptions), so the representation stays close to 2.25 bits
/// per base while [`decode`](Self::decode) is exact for arbitrary input.
///
/// # Examples
///
/// ```
/// use genome::twobit::PackedSeq;
///
/// let p = PackedSeq::encode(b"ACGRNNta");
/// assert_eq!(p.decode(), b"ACGRNNta"); // R, N and lowercase all survive
/// assert_eq!(p.exceptions().len(), 3); // R, t, a (N decodes as N for free)
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    two_bit: TwoBitSeq,
    exceptions: Vec<(u32, u8)>,
}

impl PackedSeq {
    /// Pack a byte sequence losslessly.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is longer than `u32::MAX` bases (exception positions
    /// are stored as `u32`, matching the device-side representation).
    pub fn encode(seq: &[u8]) -> Self {
        assert!(seq.len() <= u32::MAX as usize, "sequence too long to pack");
        let two_bit = TwoBitSeq::encode(seq);
        let exceptions = seq
            .iter()
            .enumerate()
            .filter(|&(i, &c)| two_bit.base(i) != c)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        PackedSeq {
            two_bit,
            exceptions,
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.two_bit.len()
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.two_bit.is_empty()
    }

    /// The underlying lossy 2-bit encoding.
    pub fn two_bit(&self) -> &TwoBitSeq {
        &self.two_bit
    }

    /// The packed base bytes (4 bases per byte, LSB first).
    pub fn packed_bytes(&self) -> &[u8] {
        self.two_bit.packed_bytes()
    }

    /// The ambiguity mask bytes (8 bases per byte, LSB first).
    pub fn mask_bytes(&self) -> &[u8] {
        self.two_bit.mask_bytes()
    }

    /// Positions whose original byte differs from the 2-bit decode, sorted
    /// ascending: degenerate IUPAC codes, lowercase bases, and any byte that
    /// is not a base at all.
    pub fn exceptions(&self) -> &[(u32, u8)] {
        &self.exceptions
    }

    /// Exception positions and bytes as parallel arrays, ready for upload as
    /// device buffers.
    pub fn exception_arrays(&self) -> (Vec<u32>, Vec<u8>) {
        self.exceptions.iter().copied().unzip()
    }

    /// Bytes used by the packed representation (bases + mask + exceptions).
    pub fn byte_len(&self) -> usize {
        self.two_bit.byte_len()
            + self.exceptions.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<u8>())
    }

    /// Unpack the original sequence exactly.
    pub fn decode(&self) -> Vec<u8> {
        self.decode_range(0..self.len())
    }

    /// Unpack positions `range` of the original sequence exactly: equal to
    /// `decode()[range]` without unpacking the rest.
    ///
    /// # Panics
    ///
    /// Panics if `range` is reversed or ends past the sequence.
    pub fn decode_range(&self, range: Range<usize>) -> Vec<u8> {
        let mut seq = self.two_bit.decode_range(range.clone());
        apply_exceptions(&mut seq, &self.exceptions, range.start);
        seq
    }
}

/// Panic unless `range` is a forward range within a sequence of `len`.
pub(crate) fn check_range(range: &Range<usize>, len: usize) {
    assert!(
        range.start <= range.end && range.end <= len,
        "range {range:?} out of bounds for length {len}"
    );
}

/// Overwrite `seq`, the decode of positions `start..start + seq.len()`,
/// with the verbatim bytes of the sorted `exceptions` that fall inside it.
pub(crate) fn apply_exceptions(seq: &mut [u8], exceptions: &[(u32, u8)], start: usize) {
    let end = start + seq.len();
    let first = exceptions.partition_point(|&(pos, _)| (pos as usize) < start);
    for &(pos, byte) in &exceptions[first..] {
        if pos as usize >= end {
            break;
        }
        seq[pos as usize - start] = byte;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for &c in b"ACGT" {
            assert_eq!(code_to_char(char_to_code(c)), c);
        }
        assert_eq!(char_to_code(b'g'), 2);
    }

    #[test]
    fn code_masks_equal_the_masks_of_the_decoded_chars() {
        for code in 0..=u8::MAX {
            assert_eq!(
                code_mask(code),
                crate::base::base_mask(code_to_char(code)),
                "code {code:#04x}"
            );
        }
    }

    #[test]
    fn encode_decode_concrete() {
        let seq = b"ACGTACGTGGCCTTAA";
        let p = TwoBitSeq::encode(seq);
        assert_eq!(p.decode(), seq);
        assert_eq!(p.packed_bytes().len(), 4);
        assert!((0..seq.len()).all(|i| !p.is_masked(i)));
    }

    #[test]
    fn ambiguous_positions_are_masked() {
        let p = TwoBitSeq::encode(b"ARNGT");
        assert!(!p.is_masked(0));
        assert!(p.is_masked(1), "R is ambiguous");
        assert!(p.is_masked(2));
        assert_eq!(p.decode(), b"ANNGT");
    }

    #[test]
    fn lowercase_is_handled() {
        let p = TwoBitSeq::encode(b"acgt");
        assert_eq!(p.decode(), b"ACGT");
    }

    #[test]
    fn compression_ratio_is_about_four() {
        let seq = vec![b'A'; 1000];
        let p = TwoBitSeq::encode(&seq);
        // 250 packed + 125 mask bytes.
        assert_eq!(p.byte_len(), 375);
    }

    #[test]
    fn non_multiple_of_four_lengths() {
        for n in 0..9 {
            let seq: Vec<u8> = b"ACGTACGTT"[..n].to_vec();
            let p = TwoBitSeq::encode(&seq);
            assert_eq!(p.len(), n);
            assert_eq!(p.decode(), seq);
        }
        assert!(TwoBitSeq::encode(b"").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        TwoBitSeq::encode(b"ACGT").code(4);
    }

    #[test]
    fn packed_seq_roundtrips_every_iupac_code() {
        use crate::base::IUPAC_CODES;
        // Every IUPAC code the chunker can emit, upper and lower case, in
        // every phase relative to the 4-base packing boundary.
        for &code in IUPAC_CODES.iter() {
            for c in [code, code.to_ascii_lowercase()] {
                for phase in 0..4 {
                    let mut seq = vec![b'A'; phase];
                    seq.push(c);
                    seq.extend_from_slice(b"CGT");
                    let p = PackedSeq::encode(&seq);
                    assert_eq!(p.decode(), seq, "code {} at phase {phase}", c as char);
                }
            }
        }
    }

    #[test]
    fn packed_seq_roundtrips_random_genomic_sequences() {
        use crate::base::IUPAC_CODES;
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x2B17);
        for round in 0..32 {
            let len = rng.gen_below(700);
            let seq: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        IUPAC_CODES[rng.gen_below(IUPAC_CODES.len())]
                    } else if rng.gen_bool(0.02) {
                        b"acgtn"[rng.gen_below(5)]
                    } else {
                        b"ACGTN"[rng.gen_below(5)]
                    }
                })
                .collect();
            let p = PackedSeq::encode(&seq);
            assert_eq!(p.decode(), seq, "round {round}");
            assert_eq!(p.len(), seq.len());
        }
    }

    #[test]
    fn packed_seq_exceptions_stay_rare_on_plain_genomes() {
        // A concrete uppercase genome with N runs needs no exceptions at all,
        // so the footprint stays ~4x under the raw bytes.
        let mut seq = vec![b'N'; 100];
        seq.extend(std::iter::repeat_n(*b"ACGT", 200).flatten());
        seq.extend(vec![b'N'; 100]);
        let p = PackedSeq::encode(&seq);
        assert!(p.exceptions().is_empty());
        assert_eq!(
            p.byte_len(),
            seq.len().div_ceil(4) + seq.len().div_ceil(8),
            "packed + mask bytes only, ~2.7x under raw"
        );
        let (pos, val) = p.exception_arrays();
        assert!(pos.is_empty() && val.is_empty());
    }
}
