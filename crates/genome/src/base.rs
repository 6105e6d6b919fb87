//! Nucleotides and IUPAC degenerate codes.
//!
//! Cas-OFFinder patterns use the IUPAC nucleotide alphabet: each code stands
//! for a set of concrete bases (`R` = A/G, `N` = any, ...). This module
//! provides the byte-level match/mismatch semantics shared by the CPU
//! reference implementation and the GPU kernels.
//!
//! # Matching semantics
//!
//! A genome character *matches* a pattern code when the genome character's
//! possibility set is a subset of the pattern's possibility set (the "subset
//! rule"). For the concrete genome bases A/C/G/T this is ordinary set
//! membership; a masked genome base `N` (possibility set = all four) matches
//! only a pattern `N`. This is the biologically correct reading of the
//! paper's Listing 1 compare ladder; the listing itself is OCR-garbled in two
//! rows (see `DESIGN.md` §2).
//!
//! # Table-driven classification
//!
//! The kernels classify two bytes per compared base, so every per-byte
//! question here is a load from a 256-entry table built at compile time:
//! [`base_mask`] reads the possibility set of any byte, and [`matches`] /
//! [`is_mismatch`] are two such loads plus the subset test — small enough
//! to inline into the kernels' compare loops.

/// Bitmask of concrete bases: bit 0 = A, bit 1 = C, bit 2 = G, bit 3 = T.
pub type BaseMask = u8;

/// Mask with all four concrete bases set.
pub const MASK_ANY: BaseMask = 0b1111;

/// The sixteen IUPAC codes in a fixed order (useful for exhaustive tests).
pub const IUPAC_CODES: [u8; 15] = [
    b'A', b'C', b'G', b'T', b'R', b'Y', b'S', b'W', b'K', b'M', b'B', b'D', b'H', b'V', b'N',
];

/// The IUPAC possibility sets as a `match`: what [`MASKS`] is built from.
const fn mask_of(c: u8) -> BaseMask {
    match c {
        b'A' | b'a' => 0b0001,
        b'C' | b'c' => 0b0010,
        b'G' | b'g' => 0b0100,
        b'T' | b't' | b'U' | b'u' => 0b1000,
        b'R' | b'r' => 0b0101, // A/G  purine
        b'Y' | b'y' => 0b1010, // C/T  pyrimidine
        b'S' | b's' => 0b0110, // C/G  strong
        b'W' | b'w' => 0b1001, // A/T  weak
        b'K' | b'k' => 0b1100, // G/T  keto
        b'M' | b'm' => 0b0011, // A/C  amino
        b'B' | b'b' => 0b1110, // not A
        b'D' | b'd' => 0b1101, // not C
        b'H' | b'h' => 0b1011, // not G
        b'V' | b'v' => 0b0111, // not T
        b'N' | b'n' => MASK_ANY,
        _ => 0,
    }
}

/// [`mask_of`] for every byte.
const MASKS: [BaseMask; 256] = {
    let mut table = [0; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = mask_of(c as u8);
        c += 1;
    }
    table
};

/// Possibility set of an IUPAC code (case-insensitive; `U` is treated as
/// `T`). Unknown characters map to the empty set, which never matches and is
/// never matched.
///
/// # Examples
///
/// ```
/// use genome::base::{base_mask, MASK_ANY};
///
/// assert_eq!(base_mask(b'A'), 0b0001);
/// assert_eq!(base_mask(b'R'), 0b0101); // A or G
/// assert_eq!(base_mask(b'n'), MASK_ANY);
/// assert_eq!(base_mask(b'X'), 0);
/// ```
#[inline]
pub const fn base_mask(c: u8) -> BaseMask {
    MASKS[c as usize]
}

/// True when the genome character `genome` matches the pattern code
/// `pattern` under the subset rule.
///
/// # Examples
///
/// ```
/// use genome::base::matches;
///
/// assert!(matches(b'R', b'G'));
/// assert!(!matches(b'R', b'C'));
/// assert!(matches(b'N', b'N'));
/// assert!(!matches(b'R', b'N'), "masked genome base is not a purine match");
/// ```
#[inline]
pub const fn matches(pattern: u8, genome: u8) -> bool {
    let g = base_mask(genome);
    let p = base_mask(pattern);
    g != 0 && (g & p) == g
}

/// True when comparing `genome` against `pattern` counts as a mismatch —
/// the negation of [`matches()`](fn@matches), i.e. the condition of the comparer kernel's
/// ladder (Listing 1, L14/L31).
#[inline]
pub const fn is_mismatch(pattern: u8, genome: u8) -> bool {
    !matches(pattern, genome)
}

/// Complement of an IUPAC code (`A`<->`T`, `C`<->`G`, `R`<->`Y`, ...),
/// preserving case for the concrete bases and uppercasing degenerate codes.
/// Unknown characters are returned unchanged.
///
/// # Examples
///
/// ```
/// use genome::base::complement;
///
/// assert_eq!(complement(b'A'), b'T');
/// assert_eq!(complement(b'R'), b'Y');
/// assert_eq!(complement(b'N'), b'N');
/// ```
#[inline]
pub const fn complement(c: u8) -> u8 {
    match c {
        b'A' => b'T',
        b'T' | b'U' => b'A',
        b'C' => b'G',
        b'G' => b'C',
        b'a' => b't',
        b't' | b'u' => b'a',
        b'c' => b'g',
        b'g' => b'c',
        b'R' | b'r' => b'Y',
        b'Y' | b'y' => b'R',
        b'S' | b's' => b'S',
        b'W' | b'w' => b'W',
        b'K' | b'k' => b'M',
        b'M' | b'm' => b'K',
        b'B' | b'b' => b'V',
        b'V' | b'v' => b'B',
        b'D' | b'd' => b'H',
        b'H' | b'h' => b'D',
        b'N' | b'n' => b'N',
        other => other,
    }
}

/// Reverse complement of a sequence.
///
/// # Examples
///
/// ```
/// use genome::base::reverse_complement;
///
/// assert_eq!(reverse_complement(b"ACGT"), b"ACGT");
/// assert_eq!(reverse_complement(b"AANRG"), b"CYNTT");
/// ```
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&c| complement(c)).collect()
}

/// True when `c` is one of the four concrete bases (either case).
#[inline]
pub const fn is_concrete(c: u8) -> bool {
    matches!(c, b'A' | b'C' | b'G' | b'T' | b'a' | b'c' | b'g' | b't')
}

/// True when `c` is any valid IUPAC nucleotide code (either case).
#[inline]
pub const fn is_iupac(c: u8) -> bool {
    base_mask(c) != 0
}

/// Uppercase a nucleotide character.
#[inline]
pub const fn to_upper(c: u8) -> u8 {
    c.to_ascii_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_masks_are_singletons() {
        for (c, m) in [(b'A', 1u8), (b'C', 2), (b'G', 4), (b'T', 8)] {
            assert_eq!(base_mask(c), m);
            assert_eq!(base_mask(c.to_ascii_lowercase()), m);
            assert_eq!(m.count_ones(), 1);
        }
    }

    #[test]
    fn degenerate_masks_match_iupac_definitions() {
        let cases: &[(u8, &[u8])] = &[
            (b'R', b"AG"),
            (b'Y', b"CT"),
            (b'S', b"CG"),
            (b'W', b"AT"),
            (b'K', b"GT"),
            (b'M', b"AC"),
            (b'B', b"CGT"),
            (b'D', b"AGT"),
            (b'H', b"ACT"),
            (b'V', b"ACG"),
            (b'N', b"ACGT"),
        ];
        for &(code, members) in cases {
            for &b in b"ACGT" {
                let expect = members.contains(&b);
                assert_eq!(
                    matches(code, b),
                    expect,
                    "pattern {} vs genome {}",
                    code as char,
                    b as char
                );
            }
        }
    }

    #[test]
    fn paper_listing_rows_hold() {
        // The non-garbled rows of Listing 1: pattern R mismatches C and T,
        // Y mismatches A and G, M mismatches G and T, W mismatches C and G,
        // H mismatches G, B mismatches A, V mismatches T, D mismatches C,
        // and the concrete bases mismatch everything but themselves.
        assert!(is_mismatch(b'R', b'C') && is_mismatch(b'R', b'T'));
        assert!(is_mismatch(b'Y', b'A') && is_mismatch(b'Y', b'G'));
        assert!(is_mismatch(b'M', b'G') && is_mismatch(b'M', b'T'));
        assert!(is_mismatch(b'W', b'C') && is_mismatch(b'W', b'G'));
        assert!(is_mismatch(b'H', b'G'));
        assert!(is_mismatch(b'B', b'A'));
        assert!(is_mismatch(b'V', b'T'));
        assert!(is_mismatch(b'D', b'C'));
        for &c in b"ACGT" {
            for &g in b"ACGT" {
                assert_eq!(is_mismatch(c, g), c != g);
            }
        }
    }

    #[test]
    fn masked_genome_base_only_matches_pattern_n() {
        for &code in IUPAC_CODES.iter() {
            let expect = code == b'N';
            assert_eq!(matches(code, b'N'), expect, "pattern {}", code as char);
        }
    }

    #[test]
    fn invalid_characters_never_match() {
        for &c in b"XZ@-. 0" {
            assert!(!matches(b'N', c));
            assert!(!matches(c, b'A'));
        }
    }

    #[test]
    fn complement_is_an_involution_on_iupac() {
        for &c in IUPAC_CODES.iter() {
            assert_eq!(complement(complement(c)), c, "code {}", c as char);
        }
    }

    #[test]
    fn complement_swaps_possibility_sets() {
        // mask(complement(c)) must be the base-wise complement mapping of
        // mask(c): A<->T swaps bits 0 and 3, C<->G swaps bits 1 and 2.
        fn comp_mask(m: BaseMask) -> BaseMask {
            let a = m & 1;
            let c = (m >> 1) & 1;
            let g = (m >> 2) & 1;
            let t = (m >> 3) & 1;
            (t) | (g << 1) | (c << 2) | (a << 3)
        }
        for &c in IUPAC_CODES.iter() {
            assert_eq!(base_mask(complement(c)), comp_mask(base_mask(c)));
        }
    }

    #[test]
    fn reverse_complement_roundtrip() {
        let seq = b"GGTACCAGTNNRYACGT".to_vec();
        assert_eq!(reverse_complement(&reverse_complement(&seq)), seq);
    }

    #[test]
    fn classification_helpers() {
        assert!(is_concrete(b'a'));
        assert!(!is_concrete(b'N'));
        assert!(is_iupac(b'N') && is_iupac(b'r'));
        assert!(!is_iupac(b'X'));
        assert_eq!(to_upper(b'g'), b'G');
    }

    #[test]
    fn mask_table_equals_the_match_for_every_byte() {
        for c in 0..=u8::MAX {
            assert_eq!(base_mask(c), mask_of(c), "byte {c:#04x}");
        }
    }

    #[test]
    fn matches_is_the_subset_rule_for_every_byte_pair() {
        for p in 0..=u8::MAX {
            for g in 0..=u8::MAX {
                let (pm, gm) = (mask_of(p), mask_of(g));
                let subset = gm != 0 && gm & !pm == 0;
                assert_eq!(matches(p, g), subset, "pattern {p:#04x} genome {g:#04x}");
                assert_eq!(is_mismatch(p, g), !subset);
            }
        }
    }

    #[test]
    fn u_is_treated_as_t() {
        assert!(matches(b'T', b'U'));
        assert!(matches(b'K', b'u'));
        assert_eq!(complement(b'U'), b'A');
    }
}
