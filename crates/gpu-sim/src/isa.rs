//! Pseudo-ISA compiler: static resource usage of a kernel.
//!
//! The paper's Table X reports, for each comparer variant, the compiled code
//! length in bytes, the scalar/vector general-purpose register counts, and
//! the resulting occupancy. We cannot run the AMD backend, so this module
//! implements a first-order model of it: a kernel describes its structure in
//! a [`CodeModel`] (how many pointer arguments, whether they are `__restrict`
//! qualified, how local staging is done, how many values are cached in
//! registers, the shape of the compare ladder), and [`compile`] lowers that
//! description to a GCN/CDNA-like instruction budget whose byte size and
//! register pressure follow the same mechanisms the paper describes:
//!
//! * missing `restrict` (fixed by opt1) forces a re-issued reference load in
//!   every arm of the compare ladder, because the compiler cannot prove the
//!   output stores do not alias the inputs;
//! * un-cached global scalars (fixed by opt2) are re-loaded at every use
//!   site (`loci[i]` at all 26 ladder sites, `flag[i]` at its 4 guard sites);
//! * serial local staging (fixed by opt3) needs a guarded scalar copy loop
//!   and keeps seven extra vector registers and twelve scalar registers live
//!   across the body, which costs code (register-recycling moves in the
//!   unrolled ladder) as well as SGPRs/VGPRs;
//! * caching local reads in registers (opt4) deletes `ds_read`+`s_waitcnt`
//!   pairs from the ladder but keeps one VGPR live per cached element.
//!
//! Instruction widths follow the GCN encodings (4-byte VOP2/SOP, 8-byte
//! VOP3/VMEM/SMEM/DS), the `-O3` pattern loop is unrolled twice, and the
//! emission weights are calibrated so the five comparer variants land within
//! a few percent of the paper's Table X values. The model is then
//! *predictive* for every other kernel in the workspace (the finder, the
//! 2-bit variants, ...).

use std::fmt;

/// How a kernel stages data from global memory into shared local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Staging {
    /// No local staging.
    #[default]
    None,
    /// The first work-item of each group copies everything in a scalar loop
    /// (the baseline comparer, Listing 1 lines 2–7).
    Serial,
    /// All work-items of the group cooperate in a strided copy (opt3).
    Parallel,
}

/// Structural description of a kernel for the pseudo-ISA compiler.
///
/// Fields default to an "empty kernel"; builders set only what applies.
///
/// # Examples
///
/// ```
/// use gpu_sim::isa::{compile, CodeModel, Staging};
///
/// let model = CodeModel::new("comparer")
///     .pointer_args(10)
///     .scalar_args(3)
///     .staging(Staging::Serial)
///     .staged_arrays(2)
///     .guarded_blocks(2)
///     .ladder_arms(13);
/// let resources = compile(&model);
/// assert!(resources.code_bytes > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CodeModel {
    name: String,
    pointer_args: u32,
    scalar_args: u32,
    noalias: bool,
    cached_global_scalars: u32,
    global_scalar_use_sites: u32,
    staging: Staging,
    staged_arrays: u32,
    guarded_blocks: u32,
    ladder_arms: u32,
    cached_local_regs: u32,
    atomic_output: bool,
    extra_valu: u32,
    folded_pattern: u32,
}

impl CodeModel {
    /// A fresh model for the kernel called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CodeModel {
            name: name.into(),
            pointer_args: 0,
            scalar_args: 0,
            noalias: false,
            cached_global_scalars: 0,
            global_scalar_use_sites: 0,
            staging: Staging::None,
            staged_arrays: 0,
            guarded_blocks: 0,
            ladder_arms: 0,
            cached_local_regs: 0,
            atomic_output: false,
            extra_valu: 0,
            folded_pattern: 0,
        }
    }

    /// Kernel name the model describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pointer (buffer) kernel arguments.
    pub fn pointer_args(mut self, n: u32) -> Self {
        self.pointer_args = n;
        self
    }

    /// Number of scalar kernel arguments.
    pub fn scalar_args(mut self, n: u32) -> Self {
        self.scalar_args = n;
        self
    }

    /// Whether pointer arguments carry `__restrict` (opt1).
    pub fn noalias(mut self, yes: bool) -> Self {
        self.noalias = yes;
        self
    }

    /// Number of per-item global scalars kept in registers (opt2), e.g.
    /// `loci[i]` and `flag[i]` in the comparer.
    pub fn cached_global_scalars(mut self, n: u32) -> Self {
        self.cached_global_scalars = n;
        self
    }

    /// Number of code sites that *use* those global scalars. When the
    /// scalars are not cached, each site re-loads from global memory.
    pub fn global_scalar_use_sites(mut self, n: u32) -> Self {
        self.global_scalar_use_sites = n;
        self
    }

    /// Local staging strategy.
    pub fn staging(mut self, s: Staging) -> Self {
        self.staging = s;
        self
    }

    /// Number of arrays staged into local memory.
    pub fn staged_arrays(mut self, n: u32) -> Self {
        self.staged_arrays = n;
        self
    }

    /// Number of flag-guarded strand blocks (2 in the comparer).
    pub fn guarded_blocks(mut self, n: u32) -> Self {
        self.guarded_blocks = n;
        self
    }

    /// Number of arms in the IUPAC compare ladder (13 in Listing 1).
    pub fn ladder_arms(mut self, n: u32) -> Self {
        self.ladder_arms = n;
        self
    }

    /// Number of local-memory elements cached in registers across the loop
    /// body (opt4).
    pub fn cached_local_regs(mut self, n: u32) -> Self {
        self.cached_local_regs = n;
        self
    }

    /// Whether the kernel compacts output with a device atomic.
    pub fn atomic_output(mut self, yes: bool) -> Self {
        self.atomic_output = yes;
        self
    }

    /// Additional plain vector-ALU instructions not covered by the
    /// structural fields (used by non-comparer kernels).
    pub fn extra_valu(mut self, n: u32) -> Self {
        self.extra_valu = n;
        self
    }

    /// Number of pattern positions constant-folded into the kernel as
    /// immediate operands (JIT specialization). When non-zero, each guarded
    /// block lowers to a fully-unrolled compare body instead of the
    /// staged-ladder loop: one immediate compare per position (no pattern
    /// loads, no `ds_read` sites, no loop bookkeeping), a coalesced
    /// reference-window load every four positions, and a literal-threshold
    /// early exit every eight. `ladder_arms`, `staging` and
    /// `cached_local_regs` normally stay zero on folded models — the ladder
    /// is what folding deletes.
    pub fn folded_pattern(mut self, positions: u32) -> Self {
        self.folded_pattern = positions;
        self
    }
}

/// Static resource usage of a compiled kernel — one column of the paper's
/// Table X, before the occupancy row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceUsage {
    /// Total instruction bytes ("Code length").
    pub code_bytes: u32,
    /// Scalar general-purpose registers.
    pub sgprs: u32,
    /// Vector general-purpose registers.
    pub vgprs: u32,
    /// Shared local memory bytes per work-group (filled in at launch).
    pub lds_bytes: u64,
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B, {} SGPRs, {} VGPRs, {} B LDS",
            self.code_bytes, self.sgprs, self.vgprs, self.lds_bytes
        )
    }
}

/// Instruction classes of the pseudo-ISA, following the GCN encoding
/// families (which determine the byte widths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Scalar ALU (SOP1/SOP2), 4 bytes.
    Salu,
    /// Vector ALU, VOP2 encoding, 4 bytes.
    Valu,
    /// Vector ALU, VOP3 encoding, 8 bytes.
    Vop3,
    /// Control flow (SOPP), 4 bytes.
    Branch,
    /// Global/flat memory (FLAT/GLOBAL), 8 bytes.
    Vmem,
    /// Scalar memory (S_LOAD), 8 bytes.
    Smem,
    /// Shared local memory (DS), 8 bytes.
    Lds,
    /// `s_waitcnt`, 4 bytes.
    Wait,
}

impl InstrClass {
    /// Encoded width in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            InstrClass::Salu | InstrClass::Valu | InstrClass::Branch | InstrClass::Wait => 4,
            InstrClass::Vop3 | InstrClass::Vmem | InstrClass::Smem | InstrClass::Lds => 8,
        }
    }
}

/// One emitted pseudo-instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instr {
    /// Mnemonic with operand sketch, e.g. `"ds_read_u8 v5, v4"`.
    pub text: String,
    /// Encoding class (determines the byte width).
    pub class: InstrClass,
}

impl Instr {
    /// Encoded width in bytes.
    pub fn bytes(&self) -> u32 {
        self.class.bytes()
    }
}

/// A compiled pseudo-program: the instruction stream grouped into labeled
/// sections, plus the derived [`ResourceUsage`].
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    sections: Vec<(String, Vec<Instr>)>,
    resources: ResourceUsage,
}

impl Program {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The labeled sections, in program order.
    pub fn sections(&self) -> &[(String, Vec<Instr>)] {
        &self.sections
    }

    /// Total instruction count.
    pub fn instruction_count(&self) -> usize {
        self.sections.iter().map(|(_, v)| v.len()).sum()
    }

    /// Static resources (code bytes derived from the stream).
    pub fn resources(&self) -> ResourceUsage {
        self.resources
    }

    /// Render a `rocobjdump`-style listing with section labels, byte
    /// offsets and widths.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "; kernel {} — {} instructions, {} bytes, {} SGPRs, {} VGPRs\n",
            self.name,
            self.instruction_count(),
            self.resources.code_bytes,
            self.resources.sgprs,
            self.resources.vgprs
        ));
        let mut offset = 0u32;
        for (label, instrs) in &self.sections {
            out.push_str(&format!("{label}:\n"));
            for i in instrs {
                out.push_str(&format!(
                    "  {offset:#07x}  {:<44} ; {}B\n",
                    i.text,
                    i.bytes()
                ));
                offset += i.bytes();
            }
        }
        out
    }
}

/// Builds the instruction stream section by section.
struct Emitter {
    sections: Vec<(String, Vec<Instr>)>,
}

impl Emitter {
    fn new() -> Self {
        Emitter {
            sections: Vec::new(),
        }
    }

    fn section(&mut self, label: impl Into<String>) {
        self.sections.push((label.into(), Vec::new()));
    }

    fn emit(&mut self, class: InstrClass, text: impl Into<String>) {
        self.sections
            .last_mut()
            .expect("emit before any section")
            .1
            .push(Instr {
                text: text.into(),
                class,
            });
    }

    fn salu(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Salu, t);
    }
    fn valu(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Valu, t);
    }
    fn vop3(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Vop3, t);
    }
    fn branch(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Branch, t);
    }
    fn vmem(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Vmem, t);
    }
    fn smem(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Smem, t);
    }
    fn lds(&mut self, t: impl Into<String>) {
        self.emit(InstrClass::Lds, t);
    }
    fn wait(&mut self) {
        self.emit(InstrClass::Wait, "s_waitcnt vmcnt(0) lgkmcnt(0)");
    }

    fn total_bytes(&self) -> u32 {
        self.sections
            .iter()
            .flat_map(|(_, v)| v.iter())
            .map(Instr::bytes)
            .sum()
    }

    /// A `ds_read` + waitcnt + register move: one shared-local-memory read
    /// site (16 bytes, the cost opt4 deletes from the ladder).
    fn lds_site(&mut self, what: &str) {
        self.lds(format!("ds_read_u8 v_tmp, {what}"));
        self.wait();
        self.valu("v_mov_b32 v_val, v_tmp");
    }
}

/// Lower a [`CodeModel`] to a full pseudo-program.
///
/// The emission walks the kernel skeleton — prologue, staging, barrier,
/// guarded strand blocks with the (twice-unrolled) compare ladder, output
/// compaction, epilogue — and adds the aliasing/reload overheads the real
/// compiler emits for the un-optimized variants (see module docs).
pub fn compile_program(model: &CodeModel) -> Program {
    let m = model;
    let mut e = Emitter::new();

    // --- Prologue: argument descriptors + id computation. -------------------
    e.section("prologue");
    for i in 0..m.pointer_args {
        e.smem(format!(
            "s_load_dwordx2 s[{}:{}], kernarg, ptr{}",
            2 * i,
            2 * i + 1,
            i
        ));
    }
    for i in 0..m.scalar_args {
        e.smem(format!("s_load_dword s_arg{i}, kernarg"));
    }
    for _ in 0..6 {
        e.valu("v_mad_u32_u24 v_gid, s_group, s_lsize, v_lid");
    }
    e.salu("s_mov_b32 s_exec_save, exec");
    e.salu("s_mov_b64 s_base, s[0:1]");

    // --- Local staging + barrier. --------------------------------------------
    match m.staging {
        Staging::None => {}
        Staging::Serial => {
            e.section("staging_serial");
            e.salu("s_cmp_eq_u32 s_lid, 0");
            e.salu("s_and_saveexec_b64 s_save, vcc");
            e.branch("s_cbranch_execz .Lbarrier");
            e.salu("s_mov_b32 s_k, 0");
            e.salu("s_add_u32 s_k, s_k, 4");
            e.salu("s_cmp_lt_u32 s_k, s_twoplen");
            e.branch("s_cbranch_scc1 .Lcopy");
            for a in 0..m.staged_arrays {
                for u in 0..4 {
                    e.vmem(format!(
                        "global_load_ubyte v_c, v_addr, s_comp{a} ; unroll {u}"
                    ));
                    e.wait();
                    e.lds(format!("ds_write_b8 v_laddr, v_c ; array {a}"));
                    e.valu("v_add_u32 v_addr, v_addr, 1");
                    e.valu("v_add_u32 v_laddr, v_laddr, 1");
                }
            }
            e.branch("s_barrier");
        }
        Staging::Parallel => {
            e.section("staging_parallel");
            e.salu("s_cmp_lt_u32 s_lid, s_twoplen");
            e.branch("s_cbranch_scc0 .Lbarrier");
            for a in 0..m.staged_arrays {
                e.vmem(format!("global_load_ubyte v_c, v_lid, s_comp{a}"));
                e.wait();
                e.lds(format!("ds_write_b8 v_lid, v_c ; array {a}"));
                e.valu("v_add_u32 v_laddr, v_lid, s_plen");
            }
            e.branch("s_barrier");
        }
    }

    // --- Cached scalars: one load + move each at function entry (opt2). -----
    if m.cached_global_scalars > 0 {
        e.section("register_cached_scalars");
        for i in 0..m.cached_global_scalars {
            e.vmem(format!("global_load_dword v_scalar{i}, v_gid, s_base"));
            e.wait();
            e.valu(format!("v_mov_b32 v_keep{i}, v_scalar{i}"));
        }
    }

    // --- opt4 caching prologue: batched ds_reads into registers. ------------
    if m.cached_local_regs > 0 {
        e.section("register_cached_pattern");
        for i in 0..m.cached_local_regs.div_ceil(2) {
            e.lds(format!(
                "ds_read2_b32 v[{}:{}], v_laddr",
                40 + 2 * i,
                41 + 2 * i
            ));
            e.valu(format!("v_mov_b32 v_pat{i}, v_tmp"));
        }
    }

    // --- Guarded strand blocks. ----------------------------------------------
    for b in 0..m.guarded_blocks {
        e.section(format!("strand_block_{b}"));
        // Flag guard.
        e.salu("s_cmp_eq_u32 s_flag, 0");
        e.salu(format!("s_cmp_eq_u32 s_flag, {}", b + 1));
        e.salu("s_or_b64 vcc, scc0, scc1");
        e.branch("s_cbranch_vccz .Lnext_block");
        e.branch("s_cbranch_execz .Lnext_block");

        if m.folded_pattern > 0 {
            // Constant-folded compare body: the per-position base-set masks
            // are immediate operands, the known pattern length unrolls the
            // loop away entirely, and the folded mismatch threshold is a
            // literal early-exit trip point. No pattern-buffer loads, no
            // `ds_read` sites, no loop bookkeeping.
            e.salu("s_mov_b32 s_mm, 0 ; folded body");
            for p in 0..m.folded_pattern {
                if p % 4 == 0 {
                    e.vmem(format!(
                        "global_load_dword v_win, v_ref, s_chr ; window +{p}"
                    ));
                    e.wait();
                }
                e.vop3(format!(
                    "v_cmp_class_u8 vcc, v_win, lit_mask{p} ; folded position {p}"
                ));
                e.valu("v_addc_u32 v_mm, v_mm, 0");
                if p % 8 == 7 {
                    e.branch("s_cbranch_vccnz .Lfolded_exit ; literal threshold trip");
                }
            }
            e.valu("v_cmp_gt_u32 vcc, v_mm, lit_threshold");
            e.branch("s_cbranch_vccnz .Lnext_block");
            if m.atomic_output {
                e.vmem("global_atomic_add v_slot, v_one, s_entrycount glc");
                e.wait();
                e.vmem("global_store_short v_slot, v_mm, s_mm_count");
                e.valu("v_lshlrev_b32 v_off, 1, v_slot");
                e.vmem("global_store_byte v_slot, v_dir, s_direction");
                e.valu("v_mov_b32 v_dir, lit_plus");
                e.vmem("global_store_dword v_slot, v_loci, s_mm_loci");
                e.valu("v_lshlrev_b32 v_off, 2, v_slot");
                e.salu("s_mov_b64 s_store_base, s[8:9]");
                e.salu("s_mov_b64 s_store_base2, s[10:11]");
            }
            continue;
        }

        // Mismatch loop control.
        e.salu("s_mov_b32 s_j, 0");
        e.salu("s_mov_b32 s_mm, 0");
        e.salu("s_add_u32 s_j, s_j, 2 ; unrolled by 2");
        e.salu("s_cmp_lt_u32 s_j, s_plen");
        e.branch("s_cbranch_scc1 .Lloop");
        e.branch("s_cbranch_scc0 .Lthreshold");

        for u in 0..UNROLL {
            // comp_index load + -1 sentinel check.
            e.lds_site(&format!("l_comp_index[j+{u}]"));
            e.valu("v_cmp_lt_i32 vcc, v_k, 0");
            e.valu("v_mov_b32 v_kidx, v_k");
            e.valu("v_add_u32 v_ref, v_loci, v_k");
            e.branch("s_cbranch_vccnz .Lloop_exit");

            for arm in 0..m.ladder_arms {
                if m.cached_local_regs == 0 {
                    e.lds_site("l_comp[k]");
                }
                // The 56-byte VOP3 compare/select ladder arm.
                e.vop3(format!(
                    "v_cmp_eq_u32 s[30:31], v_pat, {} ; arm {arm}",
                    LADDER_NAMES[arm as usize % LADDER_NAMES.len()]
                ));
                e.vop3("v_cmp_eq_u32 s[32:33], v_chr, lit0");
                e.vop3("v_cmp_eq_u32 s[34:35], v_chr, lit1");
                e.vop3("v_cmp_ne_u32 s[36:37], v_chr, v_pat");
                e.vop3("v_cndmask_b32 v_hit, 0, 1, s[32:33]");
                e.vop3("v_cndmask_b32 v_hit, v_hit, 1, s[34:35]");
                e.valu("v_or_b32 v_mmflag, v_mmflag, v_hit");
                e.valu("v_and_b32 v_mmflag, v_mmflag, v_armmask");
                if m.staging == Staging::Serial {
                    // Register-recycling moves forced by the staging loop's
                    // extra live registers.
                    e.vop3("v_mov_b32_e64 v_spill, v_recycle");
                    e.vop3("v_mov_b32_e64 v_recycle, v_spill");
                }
            }
            // Reference base load shared by the arms of this copy.
            e.vmem("global_load_ubyte v_chr, v_ref, s_chr");
            e.wait();
            e.wait();
            e.valu("v_mov_b32 v_chr_keep, v_chr");
            // Mismatch counter update + threshold break.
            e.valu("v_add_u32 v_mm, v_mm, v_mmflag");
            e.valu("v_cmp_gt_u32 vcc, v_mm, s_threshold");
            e.valu("v_mov_b32 v_mm_keep, v_mm");
            e.valu("v_nop ; scheduler slot");
            e.branch("s_cbranch_vccnz .Lloop_exit");
            e.branch("s_branch .Lloop");
        }

        // Without restrict: the reference load is re-issued in every arm.
        if !m.noalias {
            for arm in 0..m.ladder_arms {
                e.vmem(format!(
                    "global_load_ubyte v_chr, v_ref, s_chr ; alias reissue, arm {arm}"
                ));
            }
            e.salu("s_mov_b32 s_alias_guard, 1");
        }

        if m.atomic_output {
            e.vmem("global_atomic_add v_slot, v_one, s_entrycount glc");
            e.wait();
            e.vmem("global_store_short v_slot, v_mm, s_mm_count");
            e.valu("v_lshlrev_b32 v_off, 1, v_slot");
            e.vmem("global_store_byte v_slot, v_dir, s_direction");
            e.valu("v_mov_b32 v_dir, lit_plus");
            e.vmem("global_store_dword v_slot, v_loci, s_mm_loci");
            e.valu("v_lshlrev_b32 v_off, 2, v_slot");
            e.salu("s_mov_b64 s_store_base, s[8:9]");
            e.salu("s_mov_b64 s_store_base2, s[10:11]");
        }
    }

    // --- Un-cached global scalars: a reload at every use site. ---------------
    if m.cached_global_scalars == 0 && m.global_scalar_use_sites > 0 {
        e.section("scalar_reloads");
        for i in 0..m.global_scalar_use_sites {
            e.vmem(format!(
                "global_load_dword v_loci, v_gid, s_loci ; use site {i}"
            ));
            e.wait();
            e.valu("v_mov_b32 v_addr, v_loci");
        }
    }

    if m.extra_valu > 0 {
        e.section("body");
        for _ in 0..m.extra_valu {
            e.valu("v_alu_op v_d, v_a, v_b");
        }
    }

    e.section("epilogue");
    e.salu("s_waitcnt_vscnt null, 0");
    e.salu("s_nop 0");
    e.salu("s_endpgm");

    // --- Registers (see module docs for the mechanisms). ---------------------
    let mut vgprs = 34; // ids, loop state, mismatch state, output temps
    vgprs += m.pointer_args; // one live address temporary per buffer
    vgprs += m.ladder_arms.min(16); // ladder temporaries (reused)
    if m.staging == Staging::Serial {
        vgprs += 7; // copy-loop temporaries pinned across the body
    }
    vgprs += m.cached_local_regs;

    let mut sgprs = 6 + m.scalar_args.div_ceil(2) * 2;
    if m.staging == Staging::Serial {
        sgprs += 12; // staging loop counters + extra buffer descriptors
    }

    let resources = ResourceUsage {
        code_bytes: e.total_bytes(),
        sgprs,
        vgprs,
        lds_bytes: 0,
    };
    Program {
        name: m.name.clone(),
        sections: e.sections,
        resources,
    }
}

/// Names used in the disassembly of the ladder arms.
const LADDER_NAMES: [&str; 13] = [
    "lit_R", "lit_Y", "lit_M", "lit_W", "lit_K", "lit_S", "lit_H", "lit_B", "lit_V", "lit_D",
    "lit_G", "lit_C", "lit_T",
];

/// `-O3` unroll factor of the pattern-comparison loop.
const UNROLL: u32 = 2;

/// Lower a [`CodeModel`] to estimated static resources (the Table X
/// numbers). Equivalent to `compile_program(model).resources()`.
pub fn compile(model: &CodeModel) -> ResourceUsage {
    compile_program(model).resources()
}

/// A generic fallback model for kernels that do not describe themselves:
/// small, register-light, no staging.
pub fn generic_model(name: &str) -> CodeModel {
    CodeModel::new(name)
        .pointer_args(4)
        .scalar_args(2)
        .extra_valu(40)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The five comparer variants as `cas-offinder` describes them; kept in
    /// sync with `cas_offinder::kernels::comparer` by cross-crate tests.
    fn comparer_variant(opt: u32) -> CodeModel {
        let mut m = CodeModel::new(format!("comparer-opt{opt}"))
            .pointer_args(10)
            .scalar_args(3)
            .staged_arrays(2)
            .guarded_blocks(2)
            .ladder_arms(13)
            .global_scalar_use_sites(30)
            .atomic_output(true)
            .staging(Staging::Serial);
        if opt >= 1 {
            m = m.noalias(true);
        }
        if opt >= 2 {
            m = m.cached_global_scalars(2);
        }
        if opt >= 3 {
            m = m.staging(Staging::Parallel);
        }
        if opt >= 4 {
            m = m.cached_local_regs(25);
        }
        m
    }

    #[test]
    fn code_length_decreases_monotonically_like_table_x() {
        let sizes: Vec<u32> = (0..=4)
            .map(|o| compile(&comparer_variant(o)).code_bytes)
            .collect();
        for w in sizes.windows(2) {
            assert!(
                w[1] < w[0],
                "code length must shrink with each optimization: {sizes:?}"
            );
        }
    }

    #[test]
    fn register_movement_matches_table_x() {
        let res: Vec<ResourceUsage> = (0..=4).map(|o| compile(&comparer_variant(o))).collect();
        // Table X: VGPRs 64,64,64,57,82 — constant through opt2, drop at
        // opt3, jump at opt4.
        assert_eq!(res[0].vgprs, res[1].vgprs);
        assert_eq!(res[1].vgprs, res[2].vgprs);
        assert!(res[3].vgprs < res[2].vgprs);
        assert!(res[4].vgprs > res[0].vgprs);
        // Table X: SGPRs 22,22,22,10,10.
        assert_eq!(res[0].sgprs, res[2].sgprs);
        assert!(res[3].sgprs < res[2].sgprs);
        assert_eq!(res[3].sgprs, res[4].sgprs);
    }

    #[test]
    fn exact_register_counts_for_comparer() {
        let res: Vec<ResourceUsage> = (0..=4).map(|o| compile(&comparer_variant(o))).collect();
        assert_eq!(
            res.iter().map(|r| r.vgprs).collect::<Vec<_>>(),
            vec![64, 64, 64, 57, 82],
            "VGPR model must reproduce Table X"
        );
        assert_eq!(
            res.iter().map(|r| r.sgprs).collect::<Vec<_>>(),
            vec![22, 22, 22, 10, 10],
            "SGPR model must reproduce Table X"
        );
    }

    #[test]
    fn code_bytes_within_tolerance_of_table_x() {
        let paper = [6064u32, 5852, 5408, 4408, 3660];
        for (opt, &expect) in paper.iter().enumerate() {
            let got = compile(&comparer_variant(opt as u32)).code_bytes;
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(
                err < 0.10,
                "opt{opt}: modeled {got} B vs paper {expect} B ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn program_stream_accounts_for_every_byte() {
        let program = compile_program(&comparer_variant(0));
        let from_stream: u32 = program
            .sections()
            .iter()
            .flat_map(|(_, v)| v.iter())
            .map(Instr::bytes)
            .sum();
        assert_eq!(from_stream, program.resources().code_bytes);
        assert_eq!(program.resources(), compile(&comparer_variant(0)));
        assert!(program.instruction_count() > 500);
        assert_eq!(program.name(), "comparer-opt0");
    }

    #[test]
    fn disassembly_is_well_formed() {
        let program = compile_program(&comparer_variant(3));
        let text = program.disassemble();
        assert!(text.starts_with("; kernel comparer-opt3"));
        assert!(text.contains("staging_parallel:"));
        assert!(text.contains("strand_block_0:"));
        assert!(text.contains("strand_block_1:"));
        assert!(text.contains("epilogue:"));
        assert!(text.contains("global_atomic_add"));
        assert!(text.contains("ds_read_u8"));
        // One listing line per instruction plus section labels + header.
        let lines = text.lines().count();
        assert_eq!(
            lines,
            1 + program.sections().len() + program.instruction_count()
        );
    }

    #[test]
    fn opt_variants_change_the_stream_structure() {
        let base = compile_program(&comparer_variant(0)).disassemble();
        let opt1 = compile_program(&comparer_variant(1)).disassemble();
        let opt2 = compile_program(&comparer_variant(2)).disassemble();
        let opt4 = compile_program(&comparer_variant(4)).disassemble();
        assert!(base.contains("alias reissue"));
        assert!(!opt1.contains("alias reissue"), "restrict removes reissues");
        assert!(base.contains("scalar_reloads:"));
        assert!(!opt2.contains("scalar_reloads:"));
        assert!(opt2.contains("register_cached_scalars:"));
        assert!(base.contains("staging_serial:"));
        assert!(opt4.contains("staging_parallel:"));
        assert!(opt4.contains("register_cached_pattern:"));
    }

    #[test]
    fn instr_class_widths_follow_gcn() {
        assert_eq!(InstrClass::Salu.bytes(), 4);
        assert_eq!(InstrClass::Vop3.bytes(), 8);
        assert_eq!(InstrClass::Vmem.bytes(), 8);
        assert_eq!(InstrClass::Wait.bytes(), 4);
    }

    #[test]
    fn generic_model_compiles() {
        let r = compile(&generic_model("finder"));
        assert!(r.code_bytes > 100);
        assert!(r.vgprs >= 34);
        assert_eq!(r.lds_bytes, 0);
    }

    /// A constant-folded comparer variant: no pattern buffers (the masks
    /// are immediates), no staging, no ladder; the threshold and length are
    /// folded so only one scalar argument (the candidate count) remains.
    fn folded_comparer(plen: u32) -> CodeModel {
        CodeModel::new("comparer-spec")
            .pointer_args(7)
            .scalar_args(1)
            .noalias(true)
            .cached_global_scalars(2)
            .guarded_blocks(2)
            .atomic_output(true)
            .folded_pattern(plen)
    }

    #[test]
    fn folded_variants_strictly_reduce_code_bytes_and_never_lower_occupancy() {
        use crate::occupancy::occupancy;
        use crate::{DeviceSpec, NdRange};

        let nd = NdRange::linear(8192, 64);
        for opt in 0..=4 {
            let generic = compile(&comparer_variant(opt));
            for plen in [11u32, 23, 31] {
                let folded = compile(&folded_comparer(plen));
                assert!(
                    folded.code_bytes < generic.code_bytes,
                    "plen {plen}: folded {} B must beat generic opt{opt} {} B",
                    folded.code_bytes,
                    generic.code_bytes
                );
                for spec in [
                    DeviceSpec::radeon_vii(),
                    DeviceSpec::mi60(),
                    DeviceSpec::mi100(),
                ] {
                    let waves_folded = occupancy(&folded, &nd, &spec).waves_per_simd;
                    let waves_generic = occupancy(&generic, &nd, &spec).waves_per_simd;
                    assert!(
                        waves_folded >= waves_generic,
                        "{}: folded {waves_folded} waves < generic opt{opt} {waves_generic}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn folded_code_bytes_grow_with_the_folded_length() {
        let short = compile(&folded_comparer(11)).code_bytes;
        let long = compile(&folded_comparer(23)).code_bytes;
        assert!(long > short, "{long} vs {short}");
    }

    #[test]
    fn folded_stream_has_immediates_and_no_pattern_reads() {
        let program = compile_program(&folded_comparer(23));
        let text = program.disassemble();
        assert!(text.contains("folded position 0"));
        assert!(text.contains("folded position 22"));
        assert!(text.contains("literal threshold trip"));
        assert!(
            !text.contains("ds_read"),
            "folded bodies load no pattern:\n{text}"
        );
        assert!(!text.contains("alias reissue"));
        let from_stream: u32 = program
            .sections()
            .iter()
            .flat_map(|(_, v)| v.iter())
            .map(Instr::bytes)
            .sum();
        assert_eq!(from_stream, program.resources().code_bytes);
    }

    #[test]
    fn display_formats_all_fields() {
        let r = ResourceUsage {
            code_bytes: 100,
            sgprs: 10,
            vgprs: 20,
            lds_bytes: 64,
        };
        assert_eq!(r.to_string(), "100 B, 10 SGPRs, 20 VGPRs, 64 B LDS");
    }
}
