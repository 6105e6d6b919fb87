//! The device kernels. The paper's two — `finder` (PAM-site search) and
//! `comparer` (mismatch counting, Listing 1, in the five optimization
//! stages of Fig. 2 and Table X) — plus what the serving stack adds on top:
//! finders over 2-bit and 4-bit packed chunks, and one generic serving
//! comparer family ([`Comparer`]) over {char, 2-bit, 4-bit} references ×
//! {staged, JIT-folded, fused-block} guides. [`cl`] binds them as OpenCL
//! kernel functions.

mod comparer;
mod family;
mod finder;
mod ladder;

pub mod cl;
pub mod specialize;

pub use comparer::{ComparerKernel, ComparerOutput};
pub use family::{
    dispatch, model, Block, BlockThresholds, Chars, Comparer, Encoding, FourBitComparerKernel,
    GuideThresholds, Guides, Launcher, MultiComparerKernel, MultiComparerOutput, Nibbles, Output,
    Parts, Reference, Shape, Source, Staged, Tables, TwoBit, TwoBitComparerKernel, ENCODINGS,
    GUIDE_BLOCK,
};
pub use finder::{FinderKernel, FinderOutput, NibbleFinderKernel, PackedFinderKernel};
pub use ladder::{ladder_rank, LADDER};
pub use specialize::{
    CompiledVariant, FoldedPattern, SpecializedNibbleFinderKernel, VariantCache, VariantCacheStats,
    VariantKind,
};

use std::fmt;

/// Cumulative optimization level of the comparer kernel (§IV.B of the
/// paper). Each level includes all previous ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// The ported baseline of Listing 1.
    #[default]
    Base,
    /// opt1: `__restrict` on every pointer argument — the compiler no longer
    /// re-issues the reference load in each ladder arm.
    Opt1,
    /// opt2: `loci[i]` and `flag[i]` are read once into registers instead of
    /// being re-loaded at every use site.
    Opt2,
    /// opt3: all work-items of a group cooperate in fetching the pattern
    /// arrays to shared local memory, instead of work-item 0 copying
    /// serially.
    Opt3,
    /// opt4: the pattern character is fetched from shared local memory into
    /// a register once per loop iteration — fewer LDS reads, but the extra
    /// register pressure drops occupancy from 10 to 9.
    Opt4,
}

impl OptLevel {
    /// All levels, in Fig. 2 order.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::Base,
        OptLevel::Opt1,
        OptLevel::Opt2,
        OptLevel::Opt3,
        OptLevel::Opt4,
    ];

    /// The short label used by the paper's figures (`base`, `opt1`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::Base => "base",
            OptLevel::Opt1 => "opt1",
            OptLevel::Opt2 => "opt2",
            OptLevel::Opt3 => "opt3",
            OptLevel::Opt4 => "opt4",
        }
    }

    /// Whether pointer arguments are `__restrict`-qualified (opt1+).
    pub fn has_restrict(&self) -> bool {
        *self >= OptLevel::Opt1
    }

    /// Whether `loci[i]`/`flag[i]` are cached in registers (opt2+).
    pub fn caches_global_scalars(&self) -> bool {
        *self >= OptLevel::Opt2
    }

    /// Whether local staging is cooperative (opt3+).
    pub fn parallel_staging(&self) -> bool {
        *self >= OptLevel::Opt3
    }

    /// Whether pattern characters are registered per iteration (opt4).
    pub fn caches_local_reads(&self) -> bool {
        *self >= OptLevel::Opt4
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        assert!(!OptLevel::Base.has_restrict());
        assert!(OptLevel::Opt1.has_restrict());
        assert!(!OptLevel::Opt1.caches_global_scalars());
        assert!(OptLevel::Opt2.caches_global_scalars());
        assert!(OptLevel::Opt2.has_restrict(), "opt2 includes opt1");
        assert!(!OptLevel::Opt2.parallel_staging());
        assert!(OptLevel::Opt3.parallel_staging());
        assert!(!OptLevel::Opt3.caches_local_reads());
        assert!(OptLevel::Opt4.caches_local_reads());
        assert!(OptLevel::Opt4.parallel_staging(), "opt4 includes opt3");
    }

    #[test]
    fn labels_match_figure_2() {
        let labels: Vec<&str> = OptLevel::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels, ["base", "opt1", "opt2", "opt3", "opt4"]);
        assert_eq!(OptLevel::Opt3.to_string(), "opt3");
    }
}
