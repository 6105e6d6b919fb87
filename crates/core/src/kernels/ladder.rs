//! The IUPAC compare ladder of Listing 1, as a *cost* model.
//!
//! The paper's comparer evaluates a chain of thirteen `||`-connected arms,
//! one per pattern letter, each of which re-reads the pattern character from
//! shared local memory. Semantically our kernels use the correct subset rule
//! from [`genome::base`]; *dynamically* they charge the number of arms the
//! compiled ladder would evaluate before reaching the arm for the pattern
//! character — which is what makes opt4's register caching worth the
//! register pressure it costs.
//!
//! The charge is host-side bookkeeping paid once per compared base, so it
//! is read from a 256-entry rank table built at compile time from the arm
//! order. The table changes what the host spends, never what is charged.

/// The ladder's arm order (Listing 1: degenerate codes first, the concrete
/// bases last — so concrete-base queries walk most of the ladder).
pub const LADDER: [u8; 13] = [
    b'R', b'Y', b'M', b'W', b'K', b'S', b'H', b'B', b'V', b'D', b'G', b'C', b'T',
];

/// The 1-based position of `c`'s arm in [`LADDER`], or the full ladder
/// length when no arm matches: what [`RANKS`] is built from.
const fn linear_rank(c: u8) -> u8 {
    let mut i = 0;
    while i < LADDER.len() {
        if LADDER[i] == c {
            return i as u8 + 1;
        }
        i += 1;
    }
    LADDER.len() as u8
}

/// [`linear_rank`] for every byte.
const RANKS: [u8; 256] = {
    let mut table = [0; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = linear_rank(c as u8);
        c += 1;
    }
    table
};

/// Number of ladder arms evaluated for pattern character `c`: the 1-based
/// position of its arm, or the full ladder length when no arm matches
/// (`A` and `N` have no arm in Listing 1; `N` positions are skipped by
/// `comp_index` anyway).
#[inline]
pub fn ladder_rank(c: u8) -> u64 {
    RANKS[c as usize] as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_thirteen_arms_like_listing_1() {
        assert_eq!(LADDER.len(), 13);
    }

    #[test]
    fn degenerate_codes_resolve_early_concrete_late() {
        assert_eq!(ladder_rank(b'R'), 1);
        assert_eq!(ladder_rank(b'Y'), 2);
        assert_eq!(ladder_rank(b'G'), 11);
        assert_eq!(ladder_rank(b'T'), 13);
        assert!(ladder_rank(b'W') < ladder_rank(b'C'));
    }

    #[test]
    fn rank_table_equals_the_linear_search_for_every_byte() {
        for c in 0..=u8::MAX {
            let linear = match LADDER.iter().position(|&a| a == c) {
                Some(i) => i as u64 + 1,
                None => LADDER.len() as u64,
            };
            assert_eq!(ladder_rank(c), linear, "byte {c:#04x}");
        }
    }

    #[test]
    fn unknown_characters_walk_the_whole_ladder() {
        assert_eq!(ladder_rank(b'A'), 13);
        assert_eq!(ladder_rank(b'N'), 13);
        assert_eq!(ladder_rank(b'x'), 13);
    }
}
