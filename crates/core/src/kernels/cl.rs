//! OpenCL bindings of the kernels: the `__kernel` entry points the OpenCL
//! host pipeline compiles into its program object (Table VI of the paper).
//!
//! These adapters translate the positional, type-erased `clSetKernelArg`
//! argument lists into the typed kernel structs, validating types, counts
//! and `__local` allocation sizes the way a real OpenCL runtime validates
//! argument sizes. The finders and the paper's comparer each have a binding
//! of their own; the whole serving comparer family shares one,
//! [`ClFamily`], laid out by a per-shape argument table.

use gpu_sim::executor::LaunchReport;
use gpu_sim::kernel::{KernelProgram, LocalLayout};
use gpu_sim::{Device, DeviceBuffer, NdRange, SimResult};

use opencl_rt::{BoundKernel, ClError, ClKernelFunction, ClResult, KernelArg};

use std::sync::Arc;

use super::comparer::{ComparerKernel, ComparerOutput};
use super::family::{
    dispatch, Block, GuideThresholds, Launcher, MultiComparerOutput, Shape, Staged, ENCODINGS,
};
use super::finder::{FinderKernel, FinderOutput, NibbleFinderKernel, PackedFinderKernel};
use super::specialize::{CompiledVariant, SpecializedNibbleFinderKernel, VariantKind};
use super::OptLevel;

struct Bound<K: KernelProgram>(K);

impl<K: KernelProgram> BoundKernel for Bound<K> {
    fn launch(&self, device: &Device, nd: NdRange) -> SimResult<LaunchReport> {
        device.launch(&self.0, nd)
    }
}

/// Boxes a family kernel once its reference type is chosen.
struct Boxed;

impl Launcher for Boxed {
    type Out = Box<dyn BoundKernel>;

    fn launch<K: KernelProgram + 'static>(self, kernel: K) -> Box<dyn BoundKernel> {
        Box::new(Bound(kernel))
    }
}

fn expect_local_bytes(arg: &KernelArg, index: usize, expected: usize) -> ClResult<()> {
    let bytes = arg.as_local_bytes(index)?;
    if bytes != expected {
        return Err(ClError::InvalidArgValue {
            index,
            expected: format!("__local allocation of {expected} bytes, got {bytes}"),
        });
    }
    Ok(())
}

/// The `finder` kernel as an OpenCL kernel function.
///
/// Argument layout (mirrors Table VI):
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `chr` | buffer\<u8\> |
/// | 1 | `pat` | buffer\<u8\> (`__constant`) |
/// | 2 | `pat_index` | buffer\<i32\> (`__constant`) |
/// | 3 | `loci` (out) | buffer\<u32\> |
/// | 4 | `flags` (out) | buffer\<u8\> |
/// | 5 | `count` (out) | buffer\<u32\> |
/// | 6 | `scan_len` | u32 |
/// | 7 | `seq_len` | u32 |
/// | 8 | `patternlen` | u32 |
/// | 9 | `l_pat` | `__local` 2·plen bytes |
/// | 10 | `l_pat_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClFinder;

impl ClKernelFunction for ClFinder {
    fn name(&self) -> &str {
        "finder"
    }

    fn arity(&self) -> usize {
        11
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(Bound(finder_at(args, 0)?)))
    }
}

/// The plain finder from its eleven arguments ([`ClFinder`]'s layout),
/// starting at slot `at` — the packed and nibble finders decode into it.
fn finder_at(args: &[KernelArg], at: usize) -> ClResult<FinderKernel> {
    let plen = get::<u32>(args, at + 8)? as usize;
    expect_local_bytes(&args[at + 9], at + 9, 2 * plen)?;
    expect_local_bytes(&args[at + 10], at + 10, 2 * plen * 4)?;
    let mut layout = LocalLayout::new();
    let (l_pat, l_pat_index) = (layout.array(2 * plen), layout.array(2 * plen));
    Ok(FinderKernel {
        chr: get(args, at)?,
        pat: get(args, at + 1)?,
        pat_index: get(args, at + 2)?,
        out: FinderOutput {
            loci: get(args, at + 3)?,
            flags: get(args, at + 4)?,
            count: get(args, at + 5)?,
        },
        scan_len: get(args, at + 6)?,
        seq_len: get(args, at + 7)?,
        plen: plen as u32,
        l_pat,
        l_pat_index,
    })
}

/// The `finder_packed` kernel as an OpenCL kernel function: the finder over
/// a losslessly 2-bit packed chunk (see
/// [`PackedFinderKernel`]).
///
/// Argument layout:
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `packed` | buffer\<u8\> |
/// | 1 | `mask` | buffer\<u8\> |
/// | 2 | `exc_pos` | buffer\<u32\> |
/// | 3 | `exc_val` | buffer\<u8\> |
/// | 4 | `n_exc` | u32 |
/// | 5 | `chr` (out: decoded bases) | buffer\<u8\> |
/// | 6 | `pat` | buffer\<u8\> (`__constant`) |
/// | 7 | `pat_index` | buffer\<i32\> (`__constant`) |
/// | 8 | `loci` (out) | buffer\<u32\> |
/// | 9 | `flags` (out) | buffer\<u8\> |
/// | 10 | `count` (out) | buffer\<u32\> |
/// | 11 | `scan_len` | u32 |
/// | 12 | `seq_len` | u32 |
/// | 13 | `patternlen` | u32 |
/// | 14 | `l_pat` | `__local` 2·plen bytes |
/// | 15 | `l_pat_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClPackedFinder;

impl ClKernelFunction for ClPackedFinder {
    fn name(&self) -> &str {
        "finder_packed"
    }

    fn arity(&self) -> usize {
        16
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(Bound(PackedFinderKernel {
            inner: finder_at(args, 5)?,
            packed: get(args, 0)?,
            mask: get(args, 1)?,
            exc_pos: get(args, 2)?,
            exc_val: get(args, 3)?,
            n_exc: get(args, 4)?,
        })))
    }
}

/// The `finder_nibble` kernel as an OpenCL kernel function: the finder over
/// a 4-bit nibble-packed chunk (see
/// [`NibbleFinderKernel`]). No exception
/// arguments: the nibble masks are exact for matching.
///
/// Argument layout:
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `nibbles` | buffer\<u8\> |
/// | 1 | `chr` (out: decoded bases) | buffer\<u8\> |
/// | 2 | `pat` | buffer\<u8\> (`__constant`) |
/// | 3 | `pat_index` | buffer\<i32\> (`__constant`) |
/// | 4 | `loci` (out) | buffer\<u32\> |
/// | 5 | `flags` (out) | buffer\<u8\> |
/// | 6 | `count` (out) | buffer\<u32\> |
/// | 7 | `scan_len` | u32 |
/// | 8 | `seq_len` | u32 |
/// | 9 | `patternlen` | u32 |
/// | 10 | `l_pat` | `__local` 2·plen bytes |
/// | 11 | `l_pat_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClNibbleFinder;

impl ClKernelFunction for ClNibbleFinder {
    fn name(&self) -> &str {
        "finder_nibble"
    }

    fn arity(&self) -> usize {
        12
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(Bound(NibbleFinderKernel {
            inner: finder_at(args, 1)?,
            nibbles: get(args, 0)?,
        })))
    }
}

/// The specialized nibble finder as an OpenCL kernel function: scans the
/// nibble words directly, no decode scratch, no pattern arguments.
///
/// Argument layout:
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `nibbles` | buffer\<u8\> |
/// | 1 | `loci` (out) | buffer\<u32\> |
/// | 2 | `flags` (out) | buffer\<u8\> |
/// | 3 | `count` (out) | buffer\<u32\> |
/// | 4 | `scan_len` | u32 |
/// | 5 | `seq_len` | u32 |
#[derive(Debug, Clone)]
pub struct ClSpecializedNibbleFinder {
    /// The compiled PAM variant (threshold 0) this function embodies.
    pub variant: Arc<CompiledVariant>,
}

impl ClKernelFunction for ClSpecializedNibbleFinder {
    fn name(&self) -> &str {
        VariantKind::NibbleFinder.kernel_name()
    }

    fn arity(&self) -> usize {
        6
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(Bound(SpecializedNibbleFinderKernel {
            nibbles: get(args, 0)?,
            out: FinderOutput {
                loci: get(args, 1)?,
                flags: get(args, 2)?,
                count: get(args, 3)?,
            },
            scan_len: get(args, 4)?,
            seq_len: get(args, 5)?,
            variant: Arc::clone(&self.variant),
        })))
    }
}

/// The `comparer` kernel as an OpenCL kernel function, at a fixed
/// [`OptLevel`] (the level is a compile-time property of the kernel source,
/// not a runtime argument).
///
/// Argument layout (mirrors Listing 1's parameter list):
///
/// | # | argument | type |
/// |---|----------|------|
/// | 0 | `chr` | buffer\<u8\> |
/// | 1 | `loci` | buffer\<u32\> |
/// | 2 | `flag` | buffer\<u8\> |
/// | 3 | `comp` | buffer\<u8\> (`__constant`) |
/// | 4 | `comp_index` | buffer\<i32\> (`__constant`) |
/// | 5 | `locicnts` | u32 |
/// | 6 | `patternlen` | u32 |
/// | 7 | `threshold` | u16 |
/// | 8 | `mm_count` (out) | buffer\<u16\> |
/// | 9 | `direction` (out) | buffer\<u8\> |
/// | 10 | `mm_loci` (out) | buffer\<u32\> |
/// | 11 | `entrycount` (out) | buffer\<u32\> |
/// | 12 | `l_comp` | `__local` 2·plen bytes |
/// | 13 | `l_comp_index` | `__local` 8·plen bytes |
#[derive(Debug, Default, Clone, Copy)]
pub struct ClComparer {
    /// Optimization stage this kernel was "compiled" at.
    pub opt: OptLevel,
}

impl ClComparer {
    /// The comparer at `opt`.
    pub fn new(opt: OptLevel) -> Self {
        ClComparer { opt }
    }
}

impl ClKernelFunction for ClComparer {
    fn name(&self) -> &str {
        "comparer"
    }

    fn arity(&self) -> usize {
        14
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        // Listing 1's parameter list is the serving family's staged layout.
        let a = Args::new(1, Shape::Staged, args);
        let (plen, _) = a.dims()?;
        let mut layout = LocalLayout::new();
        Ok(Box::new(Bound(ComparerKernel {
            opt: self.opt,
            chr: a.get(Chunk)?,
            loci: a.get(Loci)?,
            flags: a.get(Flags)?,
            comp: a.get(Comp)?,
            comp_index: a.get(CompIndex)?,
            locicnt: a.get(Locicnt)?,
            plen: plen as u32,
            threshold: a.get(Threshold)?,
            out: a.single_out()?,
            l_comp: layout.array(2 * plen),
            l_comp_index: layout.array(2 * plen),
        })))
    }
}

/// One positional argument of a serving comparer, by role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// A chunk buffer of the reference encoding (`buffer<u8>`).
    Chunk,
    /// `loci`, `flag` (`buffer<u32>`, `buffer<u8>`).
    Loci,
    Flags,
    /// The pattern tables (`buffer<u8>`, `buffer<i32>`, `__constant`).
    Comp,
    CompIndex,
    /// A block's per-guide thresholds (`buffer<u16>`).
    Thresholds,
    /// `locicnts`, `patternlen`, `nguides` (`u32`); one guide's
    /// `threshold` (`u16`).
    Locicnt,
    Plen,
    Nguides,
    Threshold,
    /// The outputs: `mm_count`, `direction`, `mm_loci`, a block's `guide`
    /// tags and `entrycount`.
    MmCount,
    Direction,
    MmLoci,
    Guide,
    Count,
    /// `__local` staging of the pattern tables and a block's thresholds.
    LComp,
    LCompIndex,
    LThr,
}

use Arg::*;

/// The arguments after the chunk buffers, indexed by [`Shape`]. A staged
/// guide mirrors Listing 1's parameter list; a folded guide drops the
/// pattern tables, their scalars and their staging; a block adds the
/// threshold table, the guide count and the guide tags; a folded block
/// drops the threshold table and its staging.
const LAYOUTS: [&[Arg]; 4] = [
    &[
        Loci, Flags, Comp, CompIndex, Locicnt, Plen, Threshold, MmCount, Direction, MmLoci, Count,
        LComp, LCompIndex,
    ],
    &[Loci, Flags, MmCount, Direction, MmLoci, Count, Locicnt],
    &[
        Loci, Flags, Comp, CompIndex, Thresholds, Locicnt, Plen, Nguides, MmCount, Direction,
        MmLoci, Guide, Count, LComp, LCompIndex, LThr,
    ],
    &[
        Loci, Flags, Comp, CompIndex, Locicnt, Plen, Nguides, MmCount, Direction, MmLoci, Guide,
        Count, LComp, LCompIndex,
    ],
];

impl Arg {
    /// The size a `__local` argument must have for `guides` patterns of
    /// length `plen`.
    fn local_bytes(self, plen: usize, guides: usize) -> Option<usize> {
        match self {
            LComp => Some(guides * 2 * plen),
            LCompIndex => Some(guides * 2 * plen * 4),
            LThr => Some(guides * 2),
            _ => None,
        }
    }
}

/// A typed value recovered from one argument slot.
trait FromArg: Sized {
    fn from_arg(arg: &KernelArg, index: usize) -> ClResult<Self>;
}

macro_rules! from_arg {
    ($($t:ty => $as:ident),*) => {
        $(impl FromArg for $t {
            fn from_arg(arg: &KernelArg, index: usize) -> ClResult<Self> {
                arg.$as(index)
            }
        })*
    };
}

from_arg!(
    DeviceBuffer<u8> => as_buf_u8,
    DeviceBuffer<u16> => as_buf_u16,
    DeviceBuffer<u32> => as_buf_u32,
    DeviceBuffer<i32> => as_buf_i32,
    u16 => as_u16,
    u32 => as_u32
);

/// The typed value in slot `index`.
fn get<T: FromArg>(args: &[KernelArg], index: usize) -> ClResult<T> {
    T::from_arg(&args[index], index)
}

/// Positional arguments read by role through a layout.
struct Args<'a> {
    layout: Vec<Arg>,
    args: &'a [KernelArg],
}

impl<'a> Args<'a> {
    /// `args` laid out as `chunk` chunk buffers and the arguments of `shape`.
    fn new(chunk: usize, shape: Shape, args: &'a [KernelArg]) -> Args<'a> {
        let rest = LAYOUTS[shape as usize].iter().copied();
        let layout = std::iter::repeat_n(Chunk, chunk).chain(rest).collect();
        Args { layout, args }
    }

    /// Pattern length and guide count, after checking every `__local`
    /// size against them.
    fn dims(&self) -> ClResult<(usize, usize)> {
        let (mut plen, mut guides) = (0, 1);
        if self.layout.contains(&Plen) {
            plen = self.get::<u32>(Plen)? as usize;
        }
        if self.layout.contains(&Nguides) {
            guides = self.get::<u32>(Nguides)? as usize;
        }
        for (i, role) in self.layout.iter().enumerate() {
            if let Some(bytes) = role.local_bytes(plen, guides) {
                expect_local_bytes(&self.args[i], i, bytes)?;
            }
        }
        Ok((plen, guides))
    }

    fn get<T: FromArg>(&self, role: Arg) -> ClResult<T> {
        let i = self.layout.iter().position(|&r| r == role);
        get(self.args, i.expect("the role is in the binding's layout"))
    }

    fn single_out(&self) -> ClResult<ComparerOutput> {
        Ok(ComparerOutput {
            mm_count: self.get(MmCount)?,
            direction: self.get(Direction)?,
            loci: self.get(MmLoci)?,
            count: self.get(Count)?,
        })
    }
}

/// The guides a family binding takes.
#[derive(Debug, Clone)]
enum ClGuides {
    Staged,
    Folded(Arc<CompiledVariant>),
    /// Per-guide thresholds, or a threshold folded into the variant.
    Block(Option<Arc<CompiledVariant>>),
}

/// A serving comparer ([`Comparer`](super::Comparer)) as an OpenCL kernel
/// function, over the reference encoding `enc` (an index into
/// [`ENCODINGS`]) and one guide source. It is named after the encoding's
/// profiler name for its shape, with underscores for hyphens in the
/// generic shapes (`comparer_2bit`, `comparer_multi_4bit`; the folded ones
/// keep `comparer-2bit-spec`), and takes the encoding's chunk buffers
/// followed by the shape's table in `LAYOUTS`:
///
/// | shape | arguments after the chunk buffers |
/// |-------|-----------------------------------|
/// | staged | `loci`, `flag`, `comp`, `comp_index`, `locicnts`, `patternlen`, `threshold` (u16), 4 outputs, `__local` 2·plen and 8·plen bytes |
/// | folded | `loci`, `flag`, 4 outputs, `locicnts` |
/// | block | `loci`, `flag`, `comp`, `comp_index`, `thresholds`, `locicnts`, `patternlen`, `nguides`, 5 outputs (with `guide`), `__local` g·2·plen, g·8·plen and 2·g bytes |
/// | folded block | the block's minus `thresholds` and its `__local` |
///
/// A folded binding embodies its compiled variant: the pattern, its length
/// and the threshold — or, for a block, the shared threshold.
#[derive(Debug, Clone)]
pub struct ClFamily {
    enc: usize,
    shape: Shape,
    guides: ClGuides,
    name: String,
}

impl ClFamily {
    /// One guide, staged from its tables.
    pub fn staged(enc: usize) -> ClFamily {
        ClFamily::new(enc, Shape::Staged, ClGuides::Staged)
    }

    /// One guide folded into `variant`.
    pub fn folded(enc: usize, variant: Arc<CompiledVariant>) -> ClFamily {
        ClFamily::new(enc, Shape::Folded, ClGuides::Folded(variant))
    }

    /// A fused block, its shared threshold folded into `variant` when given.
    pub fn block(enc: usize, variant: Option<Arc<CompiledVariant>>) -> ClFamily {
        let shape = match variant {
            Some(_) => Shape::FoldedBlock,
            None => Shape::Block,
        };
        ClFamily::new(enc, shape, ClGuides::Block(variant))
    }

    fn new(enc: usize, shape: Shape, guides: ClGuides) -> ClFamily {
        let name = ENCODINGS[enc].names[shape as usize];
        let name = match shape {
            Shape::Staged | Shape::Block => name.replace('-', "_"),
            _ => name.to_owned(),
        };
        ClFamily {
            enc,
            shape,
            guides,
            name,
        }
    }

    fn args<'a>(&self, args: &'a [KernelArg]) -> Args<'a> {
        Args::new(ENCODINGS[self.enc].chunk_args as usize, self.shape, args)
    }
}

impl ClKernelFunction for ClFamily {
    fn name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        self.args(&[]).layout.len()
    }

    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        let a = self.args(args);
        let (plen, guides) = a.dims()?;
        let chunk_args = ENCODINGS[self.enc].chunk_args as usize;
        let chunk = (0..chunk_args)
            .map(|i| get(args, i))
            .collect::<ClResult<Vec<_>>>()?;
        let (loci, flags, n) = (a.get(Loci)?, a.get(Flags)?, a.get::<u32>(Locicnt)? as usize);
        Ok(match &self.guides {
            ClGuides::Staged => {
                let staged = Staged::new(a.get(Comp)?, a.get(CompIndex)?, a.get(Threshold)?, plen);
                let out = a.single_out()?;
                dispatch(self.enc, &chunk, (loci, flags, n, staged, out), Boxed)
            }
            ClGuides::Folded(variant) => {
                let (variant, out) = (Arc::clone(variant), a.single_out()?);
                dispatch(self.enc, &chunk, (loci, flags, n, variant, out), Boxed)
            }
            ClGuides::Block(variant) => {
                let thresholds = match variant {
                    Some(variant) => GuideThresholds::Folded {
                        threshold: variant.pattern.threshold(),
                        variant: Arc::clone(variant),
                    },
                    None => GuideThresholds::PerGuide(a.get(Thresholds)?),
                };
                let (comp, comp_index) = (a.get(Comp)?, a.get(CompIndex)?);
                let block = Block::new(comp, comp_index, thresholds, plen, guides);
                let (entries, guide) = (a.single_out()?, a.get(Guide)?);
                let out = MultiComparerOutput { entries, guide };
                dispatch(self.enc, &chunk, (loci, flags, n, block, out), Boxed)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::CompiledSeq;
    use gpu_sim::DeviceSpec;

    const PLEN: usize = 4;

    /// A valid argument list for a signature: `b8`/`b16`/`b32`/`i32`
    /// buffers, `n` a count, `p` the pattern length, `g` the guide count,
    /// `t` a `u16` threshold, and `__local` allocations `L2`/`L8` of 2 and 8
    /// bytes per pattern position and `Lt` of 2 bytes, per guide.
    fn args(d: &Device, signature: &str, guides: usize) -> Vec<KernelArg> {
        signature
            .split_whitespace()
            .map(|token| match token {
                "b8" => KernelArg::BufU8(d.alloc(64).unwrap()),
                "b16" => KernelArg::BufU16(d.alloc(64).unwrap()),
                "b32" => KernelArg::BufU32(d.alloc(64).unwrap()),
                "i32" => KernelArg::BufI32(d.alloc(64).unwrap()),
                "n" => KernelArg::U32(8),
                "p" => KernelArg::U32(PLEN as u32),
                "g" => KernelArg::U32(guides as u32),
                "t" => KernelArg::U16(4),
                "L2" => KernelArg::Local {
                    bytes: guides * 2 * PLEN,
                },
                "L8" => KernelArg::Local {
                    bytes: guides * 8 * PLEN,
                },
                "Lt" => KernelArg::Local { bytes: guides * 2 },
                other => unreachable!("unknown token {other}"),
            })
            .collect()
    }

    /// `binding` is called `name`, takes `arity` arguments laid out as
    /// `signature`, binds a valid list, and rejects a wrong-typed value in
    /// every slot, and a wrong size in every `__local` slot, naming the slot.
    fn check(binding: &dyn ClKernelFunction, name: &str, arity: usize, signature: &str, g: usize) {
        assert_eq!(binding.name(), name);
        assert_eq!(binding.arity(), arity, "{name}");
        let valid = args(&Device::new(DeviceSpec::mi100()), signature, g);
        assert_eq!(valid.len(), arity, "{name} signature");
        assert!(binding.bind(&valid).is_ok(), "{name} binds its signature");
        for index in 0..arity {
            let mut bad = vec![KernelArg::F32(0.0)];
            if let KernelArg::Local { bytes } = valid[index] {
                bad.push(KernelArg::Local { bytes: bytes + 1 });
            }
            for arg in bad {
                let mut wrong = valid.clone();
                wrong[index] = arg;
                let err = binding.bind(&wrong).map(|_| ()).unwrap_err();
                assert!(
                    matches!(err, ClError::InvalidArgValue { index: i, .. } if i == index),
                    "{name} slot {index}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn every_binding_checks_its_signature() {
        let pam = CompiledSeq::compile(b"NNGG");
        let variant = |kind| Arc::new(CompiledVariant::compile(kind, &pam, 2));
        let multi = || Some(variant(VariantKind::MultiComparer));
        let finder = "b8 i32 b32 b8 b32 n n p L2 L8";
        let staged = "b32 b8 b8 i32 n p t b16 b8 b32 b32 L2 L8";
        let folded = "b32 b8 b16 b8 b32 b32 n";
        let block = "b32 b8 b8 i32 b16 n p g b16 b8 b32 b16 b32 L2 L8 Lt";
        let folded_block = "b32 b8 b8 i32 n p g b16 b8 b32 b16 b32 L2 L8";

        check(&ClFinder, "finder", 11, &format!("b8 {finder}"), 1);
        let packed = format!("b8 b8 b32 b8 n b8 {finder}");
        check(&ClPackedFinder, "finder_packed", 16, &packed, 1);
        check(
            &ClNibbleFinder,
            "finder_nibble",
            12,
            &format!("b8 b8 {finder}"),
            1,
        );
        let spec_nibble = ClSpecializedNibbleFinder {
            variant: variant(VariantKind::NibbleFinder),
        };
        check(
            &spec_nibble,
            "finder_nibble-spec",
            6,
            "b8 b32 b8 b32 n n",
            1,
        );
        let paper = ClComparer::new(OptLevel::Opt3);
        check(&paper, "comparer", 14, &format!("b8 {staged}"), 1);

        // Chunk buffers: one for chars and nibbles, two for 2-bit words.
        let sig = |chunk: &str, rest: &str| format!("{chunk} {rest}");
        let (one, two) = ("b8", "b8 b8");
        check(
            &ClFamily::staged(1),
            "comparer_2bit",
            15,
            &sig(two, staged),
            1,
        );
        check(
            &ClFamily::staged(2),
            "comparer_4bit",
            14,
            &sig(one, staged),
            1,
        );
        let folded_fn = |enc, kind| ClFamily::folded(enc, variant(kind));
        let char_spec = folded_fn(0, VariantKind::CharComparer);
        check(&char_spec, "comparer-spec", 8, &sig(one, folded), 1);
        let two_spec = folded_fn(1, VariantKind::TwoBitComparer);
        check(&two_spec, "comparer-2bit-spec", 9, &sig(two, folded), 1);
        let four_spec = folded_fn(2, VariantKind::FourBitComparer);
        check(&four_spec, "comparer-4bit-spec", 8, &sig(one, folded), 1);
        check(
            &ClFamily::block(0, None),
            "comparer_multi",
            17,
            &sig(one, block),
            3,
        );
        check(
            &ClFamily::block(1, None),
            "comparer_multi_2bit",
            18,
            &sig(two, block),
            3,
        );
        check(
            &ClFamily::block(2, None),
            "comparer_multi_4bit",
            17,
            &sig(one, block),
            3,
        );
        let (name, s) = ("comparer_multi-spec", sig(one, folded_block));
        check(&ClFamily::block(0, multi()), name, 15, &s, 3);
        let (name, s) = ("comparer_multi-2bit-spec", sig(two, folded_block));
        check(&ClFamily::block(1, multi()), name, 16, &s, 3);
        let (name, s) = ("comparer_multi-4bit-spec", sig(one, folded_block));
        check(&ClFamily::block(2, multi()), name, 15, &s, 3);
    }
}
