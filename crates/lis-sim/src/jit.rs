//! JIT-lowered netlist execution: fused superinstructions dispatched in
//! per-opcode runs.
//!
//! The levelized `NetlistProgram` (`compile.rs`) is the input IR.
//! This module post-processes it **once** into a [`JitNetlistProgram`]:
//!
//! * **peephole fusion + folding** — inverters fuse into their
//!   consumers (NAND/NOR/and-not/or-not/De-Morgan rewrites and
//!   flip-flop pin inversions), AND/OR pairs fuse into 3-input
//!   superinstructions, MUXes of constants rewrite to gates, constants
//!   fold through, buffers propagate away, and identical computations
//!   dedup (CSE);
//! * **direct-threaded dispatch** — surviving instructions are sorted
//!   into contiguous same-opcode *runs* within each level, so execution
//!   branches once per run instead of once per gate, and dead nets are
//!   remapped away leaving a dense, cache-ordered slot space.
//!
//! [`JitNetlistSim`] (scalar) and [`JitPackedNetlistSim`] (64 lanes per
//! `u64`) expose the same [`NetlistExec`] surface as the interpreter;
//! property tests pin all three engines cycle-for-cycle equivalent.
//! Dead-code elimination never removes flip-flops or their pin cones,
//! so `step_changed()` — the quiescence probe the activity kernel keys
//! on — answers identically to the interpreter even for state no
//! output observes.

// Unsafe is confined to `SlotPtr`, the unchecked slot accessor behind
// the dispatch loops. `JitNetlistProgram::lower` asserts at build time
// that every operand/dest index is in bounds and every dest is written
// by exactly one instruction.
#![allow(unsafe_code)]

use crate::compile::{CompiledRom, NetlistProgram, OpCode};
use crate::kernel::SimError;
use crate::netlist_sim::NetlistExec;
use lis_netlist::{LoweringStats, Module, NetlistError, OpCount};
use std::collections::{BTreeMap, HashMap};

/// Number of independent simulation lanes in a [`JitPackedNetlistSim`].
pub const LANES: usize = 64;

/// A pre-resolved reference to a module port, produced by
/// [`JitNetlistSim::input_handle`]/[`JitNetlistSim::output_handle`]
/// (and the packed equivalents). Using a handle skips the name lookup on
/// every cycle — the fast path for harnesses that drive the same ports
/// millions of times.
///
/// A handle is only meaningful on executors compiled from the same
/// module; indexing with a foreign handle panics or reads the wrong
/// port.
#[derive(Debug, Clone, Copy)]
pub struct PortHandle {
    index: usize,
    output: bool,
}

/// The word an engine evaluates over: `bool` carries one scalar
/// simulation, `u64` one bit per lane. Gate semantics are the plain
/// bitwise operators for both, which is what lets the scalar and packed
/// engines share one dispatch loop and flip-flop commit instead of
/// maintaining two hand-synchronized copies.
trait SimWord:
    Copy
    + PartialEq
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
{
    /// Broadcasts one bit to every lane of the word.
    fn splat(bit: bool) -> Self;
}

impl SimWord for bool {
    fn splat(bit: bool) -> bool {
        bit
    }
}

impl SimWord for u64 {
    fn splat(bit: bool) -> u64 {
        if bit {
            u64::MAX
        } else {
            0
        }
    }
}

/// Fused opcodes. Declaration order is the within-level dispatch order
/// (instructions are grouped into runs by this sort key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum JitOp {
    And,
    /// `!a & b`
    AndNotA,
    /// `a & !b`
    AndNotB,
    /// `a & b & c`
    And3,
    /// Wide product-of-sums: the operand-pool span `a..b` (indices into
    /// [`JitNetlistProgram::args`]) holds `(x, y, z)` triples; the
    /// result is the conjunction of every `x | y | z` term. Narrower
    /// terms repeat an operand: a plain slot is `(x, x, x)`, a 2-input
    /// term `(x, y, y)`.
    AndN,
    Or,
    /// `!a | b`
    OrNotA,
    /// `a | !b`
    OrNotB,
    /// `a | b | c`
    Or3,
    /// Wide sum-of-products: the pool span `a..b` holds `(x, y, z)`
    /// triples; the result is the disjunction of every `x & y & z`
    /// term.
    OrN,
    Xor,
    Xnor,
    Nand,
    Nor,
    Not,
    Mux,
    Rom,
}

impl JitOp {
    fn mnemonic(self) -> &'static str {
        match self {
            JitOp::And => "and",
            JitOp::AndNotA => "and-not-a",
            JitOp::AndNotB => "and-not-b",
            JitOp::And3 => "and3",
            JitOp::AndN => "and-n",
            JitOp::Or => "or",
            JitOp::OrNotA => "or-not-a",
            JitOp::OrNotB => "or-not-b",
            JitOp::Or3 => "or3",
            JitOp::OrN => "or-n",
            JitOp::Xor => "xor",
            JitOp::Xnor => "xnor",
            JitOp::Nand => "nand",
            JitOp::Nor => "nor",
            JitOp::Not => "not",
            JitOp::Mux => "mux",
            JitOp::Rom => "rom",
        }
    }
}

/// One lowered instruction. The opcode lives on the [`Run`], not the
/// instruction, which is what makes the dispatch direct-threaded: one
/// branch selects a tight homogeneous loop over a whole run. For
/// [`JitOp::Rom`], `a` indexes `JitNetlistProgram::roms`.
#[derive(Debug, Clone, Copy)]
struct JitInstr {
    a: u32,
    b: u32,
    c: u32,
    dest: u32,
}

/// A contiguous same-opcode span of `instrs`.
#[derive(Debug, Clone, Copy)]
struct Run {
    op: JitOp,
    start: u32,
    end: u32,
}

const INV_D: u8 = 1;
const INV_EN: u8 = 2;
const INV_RST: u8 = 4;

/// A flip-flop with pin slots pre-resolved and absorbed inversions.
/// `inv` records pins whose driving inverter was fused away (the pin
/// reads the inverter's *input* and XORs at commit time).
#[derive(Debug, Clone, Copy)]
struct JitDff {
    d: u32,
    en: u32,
    rst: u32,
    q: u32,
    inv: u8,
    reset_value: bool,
}

/// Flip-flop commit classes, split at lowering time so the per-cycle
/// commit pays only for the logic each flip-flop actually has:
/// `always` (`q' = d`), `enable` (`q' = en ? d : q`), `reset`
/// (`q' = reset_value`, reset tied high), `full` (dynamic reset), and
/// an implicit *hold* class (enable and reset both tied low) that is
/// skipped entirely. Flip-flops with an inverter fused into a pin the
/// class reads go to the `*_inv` variant, so the hot plain loops pay
/// nothing for the absorbed inversions.
#[derive(Debug, Clone, Default)]
struct DffClasses {
    always: Vec<u32>,
    always_inv: Vec<u32>,
    enable: Vec<u32>,
    enable_inv: Vec<u32>,
    reset: Vec<u32>,
    full: Vec<u32>,
    full_inv: Vec<u32>,
}

/// A module's levelized instruction stream post-processed by fusion,
/// constant folding, copy propagation, CSE, dead-net elimination, slot
/// remapping and per-opcode run sorting. Immutable and engine-agnostic:
/// [`JitNetlistSim`] executes it over `bool`, [`JitPackedNetlistSim`]
/// over 64-lane `u64` words.
#[derive(Debug, Clone)]
pub struct JitNetlistProgram {
    /// Dense live slot count after remapping.
    slots: usize,
    instrs: Vec<JitInstr>,
    /// Per-opcode runs; a run never spans two levels.
    runs: Vec<Run>,
    /// Operand pool for the wide [`JitOp::AndN`]/[`JitOp::OrN`]
    /// accumulator instructions (each reads a span of this table).
    args: Vec<u32>,
    /// Constant slots, applied once at initialization.
    consts: Vec<(u32, bool)>,
    /// All flip-flops, in module cell order (the checkpoint seam
    /// depends on it).
    dffs: Vec<JitDff>,
    classes: DffClasses,
    roms: Vec<CompiledRom>,
    inputs: Vec<(String, Vec<u32>)>,
    outputs: Vec<(String, Vec<u32>)>,
    stats: LoweringStats,
}

/// The (rewritten) computation behind a canonical slot. Only the first
/// two operands are recorded — every fusion rule consuming a def reads
/// at most `a`/`b` (3-input and MUX defs are never re-fused).
#[derive(Debug, Clone, Copy)]
struct Def {
    op: JitOp,
    a: u32,
    b: u32,
}

enum Simplified {
    Const(bool),
    Alias(u32),
    Op(JitOp, u32, u32, u32),
}

/// Working state of the forward optimization pass. Rewriting a consumer
/// to bypass or fold its producer is always sound without use counts:
/// producers that lose every consumer are swept by the backward
/// dead-code pass afterwards.
struct Lowerer {
    /// slot -> canonical slot (buffer/copy/CSE forwarding).
    alias: Vec<u32>,
    /// slot -> compile-time constant value, if folded.
    konst: Vec<Option<bool>>,
    /// canonical slot -> the (rewritten) instruction that computes it.
    defs: Vec<Option<Def>>,
    stats: LoweringStats,
}

/// A flip-flop pin after alias resolution, constant lookup and
/// inverter absorption.
struct PinRes {
    slot: u32,
    inv: bool,
    konst: Option<bool>,
}

impl Lowerer {
    fn new(prog: &NetlistProgram) -> Self {
        let slots = prog.slots;
        let mut konst = vec![None; slots];
        for &(s, v) in &prog.consts {
            konst[s as usize] = Some(v);
        }
        Lowerer {
            alias: (0..slots as u32).collect(),
            konst,
            defs: vec![None; slots],
            stats: LoweringStats::default(),
        }
    }

    fn resolve(&self, mut s: u32) -> u32 {
        while self.alias[s as usize] != s {
            s = self.alias[s as usize];
        }
        s
    }

    fn const_of(&self, s: u32) -> Option<bool> {
        self.konst[s as usize]
    }

    fn def_of(&self, s: u32) -> Option<Def> {
        self.defs[s as usize]
    }

    fn not_def(&self, s: u32) -> Option<u32> {
        self.def_of(s).filter(|d| d.op == JitOp::Not).map(|d| d.a)
    }

    /// Simplifies `op` over already-canonical operands. Only base
    /// opcodes enter here; fused opcodes can come back out.
    fn simplify(&self, op: JitOp, a: u32, b: u32, c: u32) -> Simplified {
        use JitOp::*;
        match op {
            Not => {
                if let Some(v) = self.const_of(a) {
                    return Simplified::Const(!v);
                }
                if let Some(d) = self.def_of(a) {
                    // De-Morgan / double negation: fold the NOT into
                    // its producer's opcode.
                    let flipped = match d.op {
                        Not => return Simplified::Alias(d.a),
                        And => Nand,
                        Or => Nor,
                        Xor => Xnor,
                        Nand => And,
                        Nor => Or,
                        Xnor => Xor,
                        AndNotA => OrNotB, // !(!a & b) = a | !b
                        AndNotB => OrNotA, // !(a & !b) = !a | b
                        OrNotA => AndNotB, // !(!a | b) = a & !b
                        OrNotB => AndNotA, // !(a | !b) = !a & b
                        _ => return Simplified::Op(Not, a, 0, 0),
                    };
                    return Simplified::Op(flipped, d.a, d.b, 0);
                }
                Simplified::Op(Not, a, 0, 0)
            }
            And | Or | Xor | Nand | Nor | Xnor => self.simplify_bin(op, a, b),
            Mux => self.simplify_mux(a, b, c),
            _ => unreachable!("simplify only receives base opcodes"),
        }
    }

    fn simplify_bin(&self, op: JitOp, mut a: u32, mut b: u32) -> Simplified {
        use JitOp::*;
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            let v = match op {
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Nand => !(x & y),
                Nor => !(x | y),
                Xnor => !(x ^ y),
                _ => unreachable!(),
            };
            return Simplified::Const(v);
        }
        // Normalize a lone constant operand into position `a`.
        if self.const_of(b).is_some() {
            std::mem::swap(&mut a, &mut b);
        }
        if let Some(v) = self.const_of(a) {
            return match (op, v) {
                (And, true) | (Or, false) | (Xor, false) | (Xnor, true) => Simplified::Alias(b),
                (And, false) | (Nor, true) => Simplified::Const(false),
                (Or, true) | (Nand, false) => Simplified::Const(true),
                _ => self.simplify(Not, b, 0, 0),
            };
        }
        if a == b {
            return match op {
                And | Or => Simplified::Alias(a),
                Xor => Simplified::Const(false),
                Xnor => Simplified::Const(true),
                Nand | Nor => self.simplify(Not, a, 0, 0),
                _ => unreachable!(),
            };
        }
        match (self.not_def(a), self.not_def(b)) {
            (Some(x), Some(y)) => {
                // Both operands inverted: De Morgan back to a base op
                // over the uninverted sources, then re-simplify (the
                // sources may coincide or be constants).
                let flipped = match op {
                    And => Nor,
                    Or => Nand,
                    Nand => Or,
                    Nor => And,
                    Xor => Xor,
                    Xnor => Xnor,
                    _ => unreachable!(),
                };
                self.simplify_bin(flipped, x, y)
            }
            (Some(x), None) => self.fuse_one_not(op, x, b),
            (None, Some(y)) => self.fuse_one_not(op, y, a),
            (None, None) => {
                // AND/OR chains fuse into 3-input superinstructions.
                if op == And || op == Or {
                    let three = if op == And { And3 } else { Or3 };
                    if let Some(d) = self.def_of(a).filter(|d| d.op == op) {
                        return Simplified::Op(three, d.a, d.b, b);
                    }
                    if let Some(d) = self.def_of(b).filter(|d| d.op == op) {
                        return Simplified::Op(three, d.a, d.b, a);
                    }
                }
                Simplified::Op(op, a, b, 0)
            }
        }
    }

    /// Fuses one inverted operand into `op` (all callers are
    /// commutative ops, so only *which* operand carries the `!`
    /// matters, and the fused forms put it on `x`). `x` is the
    /// inverter's input, `other` the plain operand.
    fn fuse_one_not(&self, op: JitOp, x: u32, other: u32) -> Simplified {
        use JitOp::*;
        if x == other {
            // !x op x is constant for every op we fuse.
            return match op {
                And | Nor => Simplified::Const(false),
                Or | Nand | Xor => Simplified::Const(true),
                Xnor => Simplified::Const(false),
                _ => unreachable!(),
            };
        }
        match op {
            And => Simplified::Op(AndNotA, x, other, 0),
            Or => Simplified::Op(OrNotA, x, other, 0),
            Nand => Simplified::Op(OrNotB, x, other, 0), // !(!x & o) = x | !o
            Nor => Simplified::Op(AndNotB, x, other, 0), // !(!x | o) = x & !o
            Xor => self.simplify_bin(Xnor, x, other),
            Xnor => self.simplify_bin(Xor, x, other),
            _ => unreachable!(),
        }
    }

    /// `mux(sel, when0, when1)`.
    fn simplify_mux(&self, sel: u32, b: u32, c: u32) -> Simplified {
        use JitOp::*;
        if let Some(v) = self.const_of(sel) {
            return Simplified::Alias(if v { c } else { b });
        }
        if b == c {
            return Simplified::Alias(b);
        }
        if let Some(x) = self.not_def(sel) {
            // mux(!x, b, c) = mux(x, c, b)
            return self.simplify_mux(x, c, b);
        }
        if sel == b {
            // sel ? c : sel(=0)  =  sel & c
            return self.simplify_bin(And, sel, c);
        }
        if sel == c {
            // sel ? sel(=1) : b  =  sel | b
            return self.simplify_bin(Or, sel, b);
        }
        match (self.const_of(b), self.const_of(c)) {
            (Some(false), Some(true)) => Simplified::Alias(sel),
            (Some(true), Some(false)) => self.simplify(Not, sel, 0, 0),
            (Some(x), Some(_)) => Simplified::Const(x), // b == c as constants
            (Some(false), None) => self.simplify_bin(And, sel, c),
            (Some(true), None) => Simplified::Op(OrNotA, sel, c, 0), // !sel | c
            (None, Some(false)) => Simplified::Op(AndNotA, sel, b, 0), // !sel & b
            (None, Some(true)) => self.simplify_bin(Or, sel, b),
            (None, None) => Simplified::Op(Mux, sel, b, c),
        }
    }

    /// Resolves a flip-flop pin: through aliases, to a constant if
    /// folded, absorbing a driving inverter otherwise.
    fn pin(&self, pin: u32) -> PinRes {
        let s = self.resolve(pin);
        if let Some(v) = self.const_of(s) {
            return PinRes {
                slot: s,
                inv: false,
                konst: Some(v),
            };
        }
        if let Some(x) = self.not_def(s) {
            return PinRes {
                slot: x,
                inv: true,
                konst: None,
            };
        }
        PinRes {
            slot: s,
            inv: false,
            konst: None,
        }
    }
}

/// Sorts commutative operands so structurally-equal computations get
/// one CSE key.
fn normalize(op: JitOp, a: u32, b: u32, c: u32) -> (JitOp, u32, u32, u32) {
    use JitOp::*;
    match op {
        And | Or | Xor | Xnor | Nand | Nor => (op, a.min(b), a.max(b), 0),
        And3 | Or3 => {
            let mut v = [a, b, c];
            v.sort_unstable();
            (op, v[0], v[1], v[2])
        }
        _ => (op, a, b, c),
    }
}

fn touch(remap: &mut [u32], next: &mut u32, s: u32) -> u32 {
    let r = &mut remap[s as usize];
    if *r == u32::MAX {
        *r = *next;
        *next += 1;
    }
    *r
}

/// An optimized instruction pending dead-code elimination, still in
/// the original slot space.
#[derive(Debug, Clone, Copy)]
struct Pend {
    level: u32,
    op: JitOp,
    a: u32,
    b: u32,
    c: u32,
    dest: u32,
}

/// How many leading operands (`a`, `b`, `c`) an opcode reads.
fn arity(op: JitOp) -> usize {
    use JitOp::*;
    match op {
        Not => 1,
        Mux | And3 | Or3 => 3,
        Rom => 0,        // operands live on the ROM descriptor
        AndN | OrN => 0, // operands live in the `args` pool
        _ => 2,
    }
}

impl JitNetlistProgram {
    /// Compiles `module` to a levelized instruction stream and lowers
    /// it.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating or
    /// levelizing the module.
    pub fn compile(module: &Module) -> Result<Self, NetlistError> {
        Ok(Self::lower(&NetlistProgram::compile(module)?))
    }

    /// Lowers an already-compiled program: fusion, constant folding,
    /// copy propagation, CSE, dead-net elimination, slot remapping and
    /// per-opcode run sorting.
    pub(crate) fn lower(prog: &NetlistProgram) -> Self {
        let slots = prog.slots;
        let mut lw = Lowerer::new(prog);
        let mut cse: HashMap<(JitOp, u32, u32, u32), u32> = HashMap::new();
        let mut pend: Vec<Pend> = Vec::new();
        let mut roms: Vec<CompiledRom> = Vec::new();
        lw.stats.instrs_before = prog.instrs.len();
        lw.stats.nets_before = slots;

        // Forward pass in stream (level) order: operands of every
        // instruction were already canonicalized when it is reached.
        for (level, window) in prog.level_starts.windows(2).enumerate() {
            for instr in &prog.instrs[window[0]..window[1]] {
                let base = match instr.op {
                    OpCode::And => JitOp::And,
                    OpCode::Or => JitOp::Or,
                    OpCode::Xor => JitOp::Xor,
                    OpCode::Nand => JitOp::Nand,
                    OpCode::Nor => JitOp::Nor,
                    OpCode::Xnor => JitOp::Xnor,
                    OpCode::Not => JitOp::Not,
                    OpCode::Mux => JitOp::Mux,
                    OpCode::Buf => {
                        let src = lw.resolve(instr.a);
                        if let Some(v) = lw.const_of(src) {
                            lw.konst[instr.dest as usize] = Some(v);
                            lw.stats.const_folded += 1;
                        } else {
                            lw.alias[instr.dest as usize] = src;
                            lw.stats.copies_propagated += 1;
                        }
                        continue;
                    }
                    OpCode::Rom => {
                        let src = &prog.roms[instr.a as usize];
                        let idx = roms.len() as u32;
                        roms.push(CompiledRom {
                            addr: src.addr.iter().map(|&a| lw.resolve(a)).collect(),
                            data: src.data.clone(),
                            contents: src.contents.clone(),
                        });
                        pend.push(Pend {
                            level: level as u32,
                            op: JitOp::Rom,
                            a: idx,
                            b: 0,
                            c: 0,
                            dest: 0,
                        });
                        continue;
                    }
                };
                let a = lw.resolve(instr.a);
                let (b, c) = match arity(base) {
                    1 => (0, 0),
                    2 => (lw.resolve(instr.b), 0),
                    _ => (lw.resolve(instr.b), lw.resolve(instr.c)),
                };
                match lw.simplify(base, a, b, c) {
                    Simplified::Const(v) => {
                        lw.konst[instr.dest as usize] = Some(v);
                        lw.stats.const_folded += 1;
                    }
                    Simplified::Alias(s) => {
                        lw.alias[instr.dest as usize] = s;
                        lw.stats.copies_propagated += 1;
                    }
                    Simplified::Op(op, a, b, c) => {
                        let (op, a, b, c) = normalize(op, a, b, c);
                        if op != base {
                            lw.stats.fused += 1;
                        }
                        if let Some(&prev) = cse.get(&(op, a, b, c)) {
                            lw.alias[instr.dest as usize] = prev;
                            lw.stats.deduped += 1;
                        } else {
                            cse.insert((op, a, b, c), instr.dest);
                            lw.defs[instr.dest as usize] = Some(Def { op, a, b });
                            pend.push(Pend {
                                level: level as u32,
                                op,
                                a,
                                b,
                                c,
                                dest: instr.dest,
                            });
                        }
                    }
                }
            }
        }

        // Flip-flop pins: resolve, fold constants, absorb inverters,
        // and classify by which commit formula each flip-flop needs.
        let mut dffs = Vec::with_capacity(prog.dffs.len());
        let mut classes = DffClasses::default();
        for (i, dff) in prog.dffs.iter().enumerate() {
            let d = lw.pin(dff.d);
            let en = lw.pin(dff.en);
            let rst = lw.pin(dff.rst);
            let mut inv = 0u8;
            for (p, bit) in [(&d, INV_D), (&en, INV_EN), (&rst, INV_RST)] {
                if p.inv {
                    inv |= bit;
                    lw.stats.fused += 1;
                }
            }
            match (rst.konst, en.konst) {
                (Some(true), _) => classes.reset.push(i as u32),
                (Some(false), Some(true)) if inv & INV_D != 0 => classes.always_inv.push(i as u32),
                (Some(false), Some(true)) => classes.always.push(i as u32),
                (Some(false), Some(false)) => {} // hold: q' = q, skipped
                (Some(false), None) if inv & (INV_D | INV_EN) != 0 => {
                    classes.enable_inv.push(i as u32)
                }
                (Some(false), None) => classes.enable.push(i as u32),
                (None, _) if inv != 0 => classes.full_inv.push(i as u32),
                (None, _) => classes.full.push(i as u32),
            }
            dffs.push(JitDff {
                d: d.slot,
                en: en.slot,
                rst: rst.slot,
                q: dff.q,
                inv,
                reset_value: dff.reset_value,
            });
        }

        // Outputs read through aliases.
        let outputs: Vec<(String, Vec<u32>)> = prog
            .outputs
            .iter()
            .map(|(n, ss)| (n.clone(), ss.iter().map(|&s| lw.resolve(s)).collect()))
            .collect();

        // Backward dead-code pass. Roots: output ports plus the pins
        // each flip-flop class actually reads — every flip-flop keeps
        // committing (even ones no output observes) so `step_changed()`
        // answers exactly like the interpreter.
        let mut live = vec![false; slots];
        for (_, ss) in &outputs {
            for &s in ss {
                live[s as usize] = true;
            }
        }
        for (class, pins) in [
            (&classes.always, 1usize),
            (&classes.always_inv, 1),
            (&classes.enable, 2),
            (&classes.enable_inv, 2),
            (&classes.full, 3),
            (&classes.full_inv, 3),
        ] {
            for &i in class {
                let dff = &dffs[i as usize];
                live[dff.d as usize] = true;
                if pins >= 2 {
                    live[dff.en as usize] = true;
                }
                if pins >= 3 {
                    live[dff.rst as usize] = true;
                }
            }
        }
        let mut keep = vec![false; pend.len()];
        for (idx, p) in pend.iter().enumerate().rev() {
            let alive = match p.op {
                JitOp::Rom => roms[p.a as usize].data.iter().any(|&d| live[d as usize]),
                _ => live[p.dest as usize],
            };
            if !alive {
                lw.stats.dead_instrs += 1;
                continue;
            }
            keep[idx] = true;
            if p.op == JitOp::Rom {
                for &a in &roms[p.a as usize].addr {
                    live[a as usize] = true;
                }
            } else {
                for (n, s) in [p.a, p.b, p.c].into_iter().enumerate() {
                    if n < arity(p.op) {
                        live[s as usize] = true;
                    }
                }
            }
        }
        let mut pend: Vec<Pend> = pend
            .into_iter()
            .zip(keep)
            .filter(|&(_, k)| k)
            .map(|(p, _)| p)
            .collect();
        // Reindex surviving ROMs in stream order.
        let mut rom_map = vec![u32::MAX; roms.len()];
        let mut live_roms: Vec<CompiledRom> = Vec::new();
        for p in &mut pend {
            if p.op == JitOp::Rom {
                let old = p.a as usize;
                if rom_map[old] == u32::MAX {
                    rom_map[old] = live_roms.len() as u32;
                    live_roms.push(roms[old].clone());
                }
                p.a = rom_map[old];
            }
        }
        let roms = live_roms;

        // Collapse single-reader same-family AND/OR trees into wide
        // accumulator superinstructions whose operands live in a shared
        // pool. One-hot FSM wrappers decode state through wide OR trees;
        // flattening them deletes every interior store, so the hottest
        // runs touch each leaf slot once instead of streaming partial
        // results through memory.
        let mut args: Vec<u32> = Vec::new();
        {
            let mut producer: HashMap<u32, usize> = HashMap::new();
            for (idx, p) in pend.iter().enumerate() {
                if p.op != JitOp::Rom {
                    producer.insert(p.dest, idx);
                }
            }
            // Read counts per slot. Flip-flop pins are counted for every
            // flip-flop (even pins its commit class ignores) — an
            // overcount only inhibits a collapse, never unsounds one.
            let mut uses = vec![0u32; slots];
            for p in &pend {
                if p.op == JitOp::Rom {
                    for &a in &roms[p.a as usize].addr {
                        uses[a as usize] += 1;
                    }
                } else {
                    for (n, s) in [p.a, p.b, p.c].into_iter().enumerate() {
                        if n < arity(p.op) {
                            uses[s as usize] += 1;
                        }
                    }
                }
            }
            for dff in &dffs {
                for s in [dff.d, dff.en, dff.rst] {
                    uses[s as usize] += 1;
                }
            }
            for (_, ss) in &outputs {
                for &s in ss {
                    uses[s as usize] += 1;
                }
            }
            let family = |op: JitOp| match op {
                JitOp::And | JitOp::And3 => Some(JitOp::AndN),
                JitOp::Or | JitOp::Or3 => Some(JitOp::OrN),
                _ => None,
            };
            // The dual gates a wide op absorbs as one term: an OR tree
            // swallows single-reader AND/AND3 leaves (sum-of-products),
            // an AND tree swallows OR/OR3 leaves (product-of-sums).
            let is_term = |op: JitOp, wide: JitOp| {
                if wide == JitOp::OrN {
                    matches!(op, JitOp::And | JitOp::And3)
                } else {
                    matches!(op, JitOp::Or | JitOp::Or3)
                }
            };
            let mut absorbed = vec![false; pend.len()];
            // Reverse stream order: tree roots are visited before their
            // interior nodes, so each tree flattens into its topmost
            // consumer.
            for root in (0..pend.len()).rev() {
                if absorbed[root] {
                    continue;
                }
                let Some(wide) = family(pend[root].op) else {
                    continue;
                };
                // DFS over the root's operands; an operand folds into
                // the term list iff its producer is the same gate family
                // (expand) or the dual 2-input gate (absorb as one term)
                // and the root is its only reader.
                let mut terms: Vec<(u32, u32, u32)> = Vec::new();
                let mut stack: Vec<u32> = Vec::new();
                let mut interior = 0usize;
                let p = pend[root];
                for (n, s) in [p.a, p.b, p.c].into_iter().enumerate().rev() {
                    if n < arity(p.op) {
                        stack.push(s);
                    }
                }
                while let Some(s) = stack.pop() {
                    match producer.get(&s) {
                        Some(&pi)
                            if !absorbed[pi]
                                && family(pend[pi].op) == Some(wide)
                                && uses[s as usize] == 1 =>
                        {
                            absorbed[pi] = true;
                            interior += 1;
                            let q = pend[pi];
                            for (n, t) in [q.a, q.b, q.c].into_iter().enumerate().rev() {
                                if n < arity(q.op) {
                                    stack.push(t);
                                }
                            }
                        }
                        Some(&pi)
                            if !absorbed[pi]
                                && is_term(pend[pi].op, wide)
                                && uses[s as usize] == 1 =>
                        {
                            absorbed[pi] = true;
                            interior += 1;
                            let q = pend[pi];
                            if arity(q.op) == 3 {
                                terms.push((q.a, q.b, q.c));
                            } else {
                                terms.push((q.a, q.b, q.b));
                            }
                        }
                        _ => terms.push((s, s, s)),
                    }
                }
                if interior == 0 {
                    continue;
                }
                lw.stats.fused += interior;
                let p = &mut pend[root];
                if terms.len() == 3 && terms.iter().all(|&(x, y, z)| x == y && y == z) {
                    // Fits the fixed 3-input superinstruction — cheaper
                    // than an operand-pool indirection.
                    let three = if wide == JitOp::AndN {
                        JitOp::And3
                    } else {
                        JitOp::Or3
                    };
                    let (op, a, b, c) = normalize(three, terms[0].0, terms[1].0, terms[2].0);
                    (p.op, p.a, p.b, p.c) = (op, a, b, c);
                } else {
                    p.op = wide;
                    p.a = args.len() as u32;
                    for (x, y, z) in terms {
                        args.push(x);
                        args.push(y);
                        args.push(z);
                    }
                    p.b = args.len() as u32;
                    p.c = 0;
                }
            }
            let mut kept = absorbed.into_iter();
            pend.retain(|_| !kept.next().expect("one flag per pend"));
        }

        // Group surviving instructions by level, sort each level into
        // contiguous per-opcode runs, and remap every referenced slot
        // to a dense, first-touch-in-execution-order index space.
        let mut remap = vec![u32::MAX; slots];
        let mut next: u32 = 0;
        let inputs: Vec<(String, Vec<u32>)> = prog
            .inputs
            .iter()
            .map(|(n, ss)| {
                (
                    n.clone(),
                    ss.iter()
                        .map(|&s| touch(&mut remap, &mut next, s))
                        .collect(),
                )
            })
            .collect();
        for dff in &mut dffs {
            dff.q = touch(&mut remap, &mut next, dff.q);
        }

        let mut roms = roms;
        let mut instrs: Vec<JitInstr> = Vec::with_capacity(pend.len());
        let mut runs: Vec<Run> = Vec::new();
        let mut levels = 0;
        let mut lo = 0;
        while lo < pend.len() {
            let mut hi = lo;
            while hi < pend.len() && pend[hi].level == pend[lo].level {
                hi += 1;
            }
            pend[lo..hi].sort_by_key(|p| p.op);
            let instr_lo = instrs.len() as u32;
            for p in &pend[lo..hi] {
                // Open a new run unless the last run is this level's
                // and carries the same opcode.
                let start_new =
                    !matches!(runs.last(), Some(r) if r.op == p.op && r.start >= instr_lo);
                if start_new {
                    runs.push(Run {
                        op: p.op,
                        start: instrs.len() as u32,
                        end: instrs.len() as u32,
                    });
                }
                let (mut a, mut b, mut c, mut dest) = (p.a, p.b, p.c, 0u32);
                if p.op == JitOp::Rom {
                    let rom = &mut roms[p.a as usize];
                    for s in rom.addr.iter_mut() {
                        *s = touch(&mut remap, &mut next, *s);
                    }
                    for s in rom.data.iter_mut() {
                        *s = touch(&mut remap, &mut next, *s);
                    }
                } else if matches!(p.op, JitOp::AndN | JitOp::OrN) {
                    // `a..b` index the operand pool; the pooled slots
                    // are what get remapped.
                    for s in &mut args[p.a as usize..p.b as usize] {
                        *s = touch(&mut remap, &mut next, *s);
                    }
                    dest = touch(&mut remap, &mut next, p.dest);
                } else {
                    let ar = arity(p.op);
                    a = touch(&mut remap, &mut next, a);
                    if ar >= 2 {
                        b = touch(&mut remap, &mut next, b);
                    }
                    if ar >= 3 {
                        c = touch(&mut remap, &mut next, c);
                    }
                    dest = touch(&mut remap, &mut next, p.dest);
                }
                instrs.push(JitInstr { a, b, c, dest });
                runs.last_mut().expect("run pushed above").end = instrs.len() as u32;
            }
            levels += 1;
            lo = hi;
        }

        // Flip-flop pins (only the ones the commit class reads; unused
        // pins point at the flip-flop's own q so every stored index
        // stays in bounds).
        let used: Vec<u8> = {
            let mut used = vec![0u8; dffs.len()];
            for &i in classes.always.iter().chain(&classes.always_inv) {
                used[i as usize] = INV_D;
            }
            for &i in classes.enable.iter().chain(&classes.enable_inv) {
                used[i as usize] = INV_D | INV_EN;
            }
            for &i in classes.full.iter().chain(&classes.full_inv) {
                used[i as usize] = INV_D | INV_EN | INV_RST;
            }
            used
        };
        for (dff, &u) in dffs.iter_mut().zip(&used) {
            dff.d = if u & INV_D != 0 {
                touch(&mut remap, &mut next, dff.d)
            } else {
                dff.q
            };
            dff.en = if u & INV_EN != 0 {
                touch(&mut remap, &mut next, dff.en)
            } else {
                dff.q
            };
            dff.rst = if u & INV_RST != 0 {
                touch(&mut remap, &mut next, dff.rst)
            } else {
                dff.q
            };
        }
        // Sort each wide-op term span by final slot index: the
        // reduction then walks the values buffer mostly forward, which
        // the prefetcher rewards (the terms are commutative, so any
        // deterministic order is sound).
        for r in &runs {
            if matches!(r.op, JitOp::AndN | JitOp::OrN) {
                for i in &instrs[r.start as usize..r.end as usize] {
                    let span = &mut args[i.a as usize..i.b as usize];
                    let mut terms: Vec<(u32, u32, u32)> =
                        span.chunks_exact(3).map(|c| (c[0], c[1], c[2])).collect();
                    terms.sort_unstable();
                    for (t, c) in terms.into_iter().zip(span.chunks_exact_mut(3)) {
                        (c[0], c[1], c[2]) = t;
                    }
                }
            }
        }

        let outputs: Vec<(String, Vec<u32>)> = outputs
            .into_iter()
            .map(|(n, ss)| {
                (
                    n,
                    ss.into_iter()
                        .map(|s| touch(&mut remap, &mut next, s))
                        .collect(),
                )
            })
            .collect();
        let consts: Vec<(u32, bool)> = (0..slots)
            .filter_map(|s| {
                let new = remap[s];
                if new == u32::MAX {
                    return None;
                }
                lw.konst[s].map(|v| (new, v))
            })
            .collect();

        let slots_after = next as usize;
        let mut stats = lw.stats;
        stats.instrs_after = instrs.len();
        stats.nets_after = slots_after;
        stats.levels = levels;
        stats.runs = runs.len();
        let mut census: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for r in &runs {
            let e = census.entry(r.op.mnemonic()).or_default();
            e.0 += 1;
            e.1 += (r.end - r.start) as usize;
        }
        stats.ops = census
            .into_iter()
            .map(|(op, (runs, instrs))| OpCount {
                op: op.to_owned(),
                runs,
                instrs,
            })
            .collect();

        let prog = JitNetlistProgram {
            slots: slots_after,
            instrs,
            runs,
            args,
            consts,
            dffs,
            classes,
            roms,
            inputs,
            outputs,
            stats,
        };
        prog.validate_indices();
        prog
    }

    /// Build-time bounds validation — the safety contract the unsafe
    /// dispatch loops rely on: every operand/dest/pin/port/const index
    /// is in `0..slots`, run and level spans tile the instruction
    /// stream, and ROM operand indices are in range.
    fn validate_indices(&self) {
        let slots = self.slots as u32;
        let ck = |s: u32| assert!(s < slots, "slot {s} out of range {slots}");
        let mut covered = 0u32;
        for (ri, r) in self.runs.iter().enumerate() {
            assert_eq!(r.start, covered, "run {ri} not contiguous");
            assert!(r.end >= r.start && r.end <= self.instrs.len() as u32);
            covered = r.end;
            for i in &self.instrs[r.start as usize..r.end as usize] {
                if r.op == JitOp::Rom {
                    assert!((i.a as usize) < self.roms.len(), "rom index out of range");
                } else if matches!(r.op, JitOp::AndN | JitOp::OrN) {
                    assert!(
                        i.a <= i.b && (i.b as usize) <= self.args.len(),
                        "args span out of range"
                    );
                    assert_eq!(
                        (i.b - i.a) % 3,
                        0,
                        "wide-op span must hold (x, y, z) triples"
                    );
                    for &s in &self.args[i.a as usize..i.b as usize] {
                        ck(s);
                    }
                    ck(i.dest);
                } else {
                    let ar = arity(r.op);
                    ck(i.a);
                    if ar >= 2 {
                        ck(i.b);
                    }
                    if ar >= 3 {
                        ck(i.c);
                    }
                    ck(i.dest);
                }
            }
        }
        assert_eq!(covered, self.instrs.len() as u32, "runs must tile instrs");
        for rom in &self.roms {
            for &s in rom.addr.iter().chain(&rom.data) {
                ck(s);
            }
        }
        for dff in &self.dffs {
            ck(dff.d);
            ck(dff.en);
            ck(dff.rst);
            ck(dff.q);
        }
        let c = &self.classes;
        for class in [
            &c.always,
            &c.always_inv,
            &c.enable,
            &c.enable_inv,
            &c.reset,
            &c.full,
            &c.full_inv,
        ] {
            for &i in class {
                assert!(
                    (i as usize) < self.dffs.len(),
                    "class index {i} out of range"
                );
            }
        }
        for (_, ss) in self.inputs.iter().chain(&self.outputs) {
            for &s in ss {
                ck(s);
            }
        }
        for &(s, _) in &self.consts {
            ck(s);
        }
    }

    /// Lowering observability counters (what fusion/folding/DCE did).
    pub fn stats(&self) -> &LoweringStats {
        &self.stats
    }

    /// Instructions executed per cycle after lowering.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Per-opcode dispatch runs per cycle (one branch each).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Non-empty levels after lowering.
    pub fn depth(&self) -> usize {
        self.stats.levels
    }

    /// Dense live slot count after remapping.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    fn find_port(
        &self,
        ports: &[(String, Vec<u32>)],
        module: &Module,
        name: &str,
        output: bool,
    ) -> Result<usize, SimError> {
        ports
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| SimError::UnknownPort {
                module: module.name.clone(),
                port: name.to_owned(),
                output,
            })
    }

    fn resolve_input(&self, module: &Module, name: &str) -> Result<PortHandle, SimError> {
        Ok(PortHandle {
            index: self.find_port(&self.inputs, module, name, false)?,
            output: false,
        })
    }

    fn resolve_output(&self, module: &Module, name: &str) -> Result<PortHandle, SimError> {
        Ok(PortHandle {
            index: self.find_port(&self.outputs, module, name, true)?,
            output: true,
        })
    }

    /// Executes every run in order.
    ///
    /// # Safety
    ///
    /// `s` must point at a live buffer of at least `self.slots` words
    /// (see [`JitNetlistProgram::validate_indices`]), with no other
    /// reference touching it for the duration of the call.
    unsafe fn exec_runs<W: SimWord, F: Fn(&CompiledRom, SlotPtr<W>)>(
        &self,
        s: SlotPtr<W>,
        rom_read: &F,
    ) {
        for r in &self.runs {
            exec_slice(
                r.op,
                &self.instrs[r.start as usize..r.end as usize],
                &self.roms,
                &self.args,
                s,
                rom_read,
            );
        }
    }
}

/// Raw slot-buffer accessor shared by the dispatch loops. Bounds are
/// guaranteed by [`JitNetlistProgram::validate_indices`] at build time,
/// so the hot loops skip per-access bounds checks.
struct SlotPtr<W> {
    ptr: *mut W,
}

impl<W> Clone for SlotPtr<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for SlotPtr<W> {}

impl<W: Copy> SlotPtr<W> {
    /// # Safety
    ///
    /// `i` must be in bounds of the buffer this pointer was made from.
    #[inline(always)]
    unsafe fn get(self, i: u32) -> W {
        *self.ptr.add(i as usize)
    }

    /// # Safety
    ///
    /// `i` must be in bounds of the buffer this pointer was made from.
    #[inline(always)]
    unsafe fn set(self, i: u32, v: W) {
        *self.ptr.add(i as usize) = v;
    }
}

/// Executes one homogeneous run: a single opcode branch selects a
/// tight loop over the whole slice.
///
/// # Safety
///
/// See [`SlotPtr`]: every index in `instrs` (and in the referenced
/// ROMs) must be in bounds of `s`'s buffer.
unsafe fn exec_slice<W: SimWord, F: Fn(&CompiledRom, SlotPtr<W>)>(
    op: JitOp,
    instrs: &[JitInstr],
    roms: &[CompiledRom],
    args: &[u32],
    s: SlotPtr<W>,
    rom_read: &F,
) {
    macro_rules! run {
        (|$i:ident| $val:expr) => {
            for $i in instrs {
                let v = $val;
                s.set($i.dest, v);
            }
        };
    }
    match op {
        JitOp::And => run!(|i| s.get(i.a) & s.get(i.b)),
        JitOp::AndNotA => run!(|i| !s.get(i.a) & s.get(i.b)),
        JitOp::AndNotB => run!(|i| s.get(i.a) & !s.get(i.b)),
        JitOp::And3 => run!(|i| s.get(i.a) & s.get(i.b) & s.get(i.c)),
        JitOp::AndN => run!(|i| {
            // Four independent accumulators keep the reduction's
            // load-ALU chain out of the critical path.
            let ops = args.get_unchecked(i.a as usize..i.b as usize);
            let mut acc = [W::splat(true); 4];
            let mut ch = ops.chunks_exact(12);
            for c in &mut ch {
                for k in 0..4 {
                    acc[k] = acc[k] & (s.get(c[3 * k]) | s.get(c[3 * k + 1]) | s.get(c[3 * k + 2]));
                }
            }
            let mut rem = ch.remainder().chunks_exact(3);
            for c in &mut rem {
                acc[0] = acc[0] & (s.get(c[0]) | s.get(c[1]) | s.get(c[2]));
            }
            (acc[0] & acc[1]) & (acc[2] & acc[3])
        }),
        JitOp::Or => run!(|i| s.get(i.a) | s.get(i.b)),
        JitOp::OrNotA => run!(|i| !s.get(i.a) | s.get(i.b)),
        JitOp::OrNotB => run!(|i| s.get(i.a) | !s.get(i.b)),
        JitOp::Or3 => run!(|i| s.get(i.a) | s.get(i.b) | s.get(i.c)),
        JitOp::OrN => run!(|i| {
            let ops = args.get_unchecked(i.a as usize..i.b as usize);
            let mut acc = [W::splat(false); 4];
            let mut ch = ops.chunks_exact(12);
            for c in &mut ch {
                for k in 0..4 {
                    acc[k] = acc[k] | (s.get(c[3 * k]) & s.get(c[3 * k + 1]) & s.get(c[3 * k + 2]));
                }
            }
            let mut rem = ch.remainder().chunks_exact(3);
            for c in &mut rem {
                acc[0] = acc[0] | (s.get(c[0]) & s.get(c[1]) & s.get(c[2]));
            }
            (acc[0] | acc[1]) | (acc[2] | acc[3])
        }),
        JitOp::Xor => run!(|i| s.get(i.a) ^ s.get(i.b)),
        JitOp::Xnor => run!(|i| !(s.get(i.a) ^ s.get(i.b))),
        JitOp::Nand => run!(|i| !(s.get(i.a) & s.get(i.b))),
        JitOp::Nor => run!(|i| !(s.get(i.a) | s.get(i.b))),
        JitOp::Not => run!(|i| !s.get(i.a)),
        JitOp::Mux => run!(|i| {
            let sel = s.get(i.a);
            (sel & s.get(i.c)) | (!sel & s.get(i.b))
        }),
        JitOp::Rom => {
            for i in instrs {
                rom_read(&roms[i.a as usize], s);
            }
        }
    }
}

/// Gathers a ROM address bit by bit via `bit_of` and returns the
/// addressed word: 0 beyond the populated contents, and 0 when any set
/// address bit lies past bit 63 (such an address can never land inside
/// a `Vec`-backed table).
fn rom_word(rom: &CompiledRom, mut bit_of: impl FnMut(u32) -> bool) -> u64 {
    let mut addr = 0u64;
    let mut high = false;
    for (i, &a) in rom.addr.iter().enumerate() {
        if bit_of(a) {
            if i < 64 {
                addr |= 1 << i;
            } else {
                high = true;
            }
        }
    }
    if high {
        0
    } else {
        usize::try_from(addr)
            .ok()
            .and_then(|a| rom.contents.get(a))
            .copied()
            .unwrap_or(0)
    }
}

fn rom_read_scalar(rom: &CompiledRom, s: SlotPtr<bool>) {
    // SAFETY: ROM addr/data indices validated at build time.
    let word = rom_word(rom, |a| unsafe { s.get(a) });
    for (i, &d) in rom.data.iter().enumerate() {
        unsafe { s.set(d, (word >> i) & 1 == 1) };
    }
}

/// One packed ROM read: gathers a per-lane address and scatters the
/// per-lane word back onto the data slots.
///
/// Fast path: wrapper controllers almost always drive every lane to the
/// *same* ROM address (the slice table is indexed by a shared schedule
/// counter), which makes each address slot all-zeros or all-ones. In
/// that case one table lookup serves all 64 lanes and the per-lane
/// gather/scatter loop is skipped entirely.
fn rom_read_packed(rom: &CompiledRom, s: SlotPtr<u64>) {
    // SAFETY: ROM addr indices are validated at build time.
    let get = |a: u32| unsafe { s.get(a) };
    // SAFETY: ROM data indices are validated at build time.
    let set = |d: u32, w: u64| unsafe { s.set(d, w) };
    let shared_addr = rom.addr.iter().all(|&a| {
        let w = get(a);
        w == 0 || w == u64::MAX
    });
    if shared_addr {
        let word = rom_word(rom, |a| get(a) == u64::MAX);
        for (i, &d) in rom.data.iter().enumerate() {
            set(d, u64::splat((word >> i) & 1 == 1));
        }
        return;
    }
    let mut out = [0u64; 64];
    for lane in 0..LANES {
        let word = rom_word(rom, |a| (get(a) >> lane) & 1 == 1);
        for (i, slot) in out.iter_mut().enumerate().take(rom.data.len()) {
            *slot |= ((word >> i) & 1) << lane;
        }
    }
    for (&d, &w) in rom.data.iter().zip(&out) {
        set(d, w);
    }
}

/// Presents registered state on the q slots, then executes every run.
fn eval_jit<W: SimWord, F: Fn(&CompiledRom, SlotPtr<W>)>(
    prog: &JitNetlistProgram,
    values: &mut [W],
    state: &[W],
    rom_read: &F,
) {
    assert_eq!(values.len(), prog.slots);
    assert_eq!(state.len(), prog.dffs.len());
    for (i, dff) in prog.dffs.iter().enumerate() {
        // SAFETY: q slots are < slots (validated at build time) and the
        // buffer lengths were just asserted.
        unsafe { *values.get_unchecked_mut(dff.q as usize) = *state.get_unchecked(i) };
    }
    let s = SlotPtr {
        ptr: values.as_mut_ptr(),
    };
    // SAFETY: `values` has `prog.slots` words (asserted above) and is
    // exclusively borrowed; all indices were validated at build time.
    unsafe { prog.exec_runs(s, rom_read) }
}

/// Commits every flip-flop through its class formula; hold-class
/// flip-flops (enable and reset both tied low) can never change and
/// are skipped. Returns whether any flip-flop changed value — by
/// construction identical to what the interpreter reports.
///
/// Every class evaluates `q' = rst ? reset_value : (en ? d : q)`
/// bitwise, specialized to its constant pins; only the rare `*_inv`
/// classes pay for undoing pin-fused inverters.
fn commit_jit<W: SimWord>(prog: &JitNetlistProgram, values: &[W], state: &mut [W]) -> bool {
    assert_eq!(values.len(), prog.slots);
    assert_eq!(state.len(), prog.dffs.len());
    let c = &prog.classes;
    let mut changed = false;
    // SAFETY (every loop below): class indices are < dffs.len() and every
    // pin slot is < slots — both asserted by `validate_indices` at build
    // time — and the two length asserts above tie the buffers to those
    // bounds.
    macro_rules! class {
        ($list:expr, |$dff:ident, $q:ident| $next:expr) => {
            for &i in $list {
                unsafe {
                    let $dff = prog.dffs.get_unchecked(i as usize);
                    let $q = *state.get_unchecked(i as usize);
                    let next = $next;
                    changed |= next != $q;
                    *state.get_unchecked_mut(i as usize) = next;
                }
            }
        };
    }
    macro_rules! v {
        ($s:expr) => {
            *values.get_unchecked($s as usize)
        };
    }
    class!(&c.always, |dff, _q| v!(dff.d));
    class!(&c.enable, |dff, q| {
        let d = v!(dff.d);
        let en = v!(dff.en);
        (en & d) | (!en & q)
    });
    class!(&c.reset, |dff, _q| W::splat(dff.reset_value));
    class!(&c.full, |dff, q| {
        let d = v!(dff.d);
        let en = v!(dff.en);
        let rst = v!(dff.rst);
        let rv = W::splat(dff.reset_value);
        (rst & rv) | (!rst & ((en & d) | (!en & q)))
    });
    class!(&c.always_inv, |dff, _q| v!(dff.d)
        ^ W::splat(dff.inv & INV_D != 0));
    class!(&c.enable_inv, |dff, q| {
        let d = v!(dff.d) ^ W::splat(dff.inv & INV_D != 0);
        let en = v!(dff.en) ^ W::splat(dff.inv & INV_EN != 0);
        (en & d) | (!en & q)
    });
    class!(&c.full_inv, |dff, q| {
        let d = v!(dff.d) ^ W::splat(dff.inv & INV_D != 0);
        let en = v!(dff.en) ^ W::splat(dff.inv & INV_EN != 0);
        let rst = v!(dff.rst) ^ W::splat(dff.inv & INV_RST != 0);
        let rv = W::splat(dff.reset_value);
        (rst & rv) | (!rst & ((en & d) | (!en & q)))
    });
    changed
}

fn init_values<W: SimWord>(prog: &JitNetlistProgram) -> Vec<W> {
    let mut values = vec![W::splat(false); prog.slots];
    for &(s, v) in &prog.consts {
        values[s as usize] = W::splat(v);
    }
    values
}

fn init_state<W: SimWord>(prog: &JitNetlistProgram) -> Vec<W> {
    prog.dffs.iter().map(|d| W::splat(d.reset_value)).collect()
}

/// Scalar JIT executor: identical semantics to the interpreter
/// ([`crate::NetlistSim`]), executing the fused, run-sorted
/// [`JitNetlistProgram`] — no per-cell allocation, no id-chasing, one
/// branch per run, dense slots.
#[derive(Debug, Clone)]
pub struct JitNetlistSim {
    module: Module,
    prog: JitNetlistProgram,
    values: Vec<bool>,
    /// Registered state, indexed like `prog.dffs` (same program order
    /// as the other engines — the checkpoint seam).
    state: Vec<bool>,
}

impl JitNetlistSim {
    /// Compiles, lowers and initializes an executor for `module`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating the module.
    pub fn new(module: Module) -> Result<Self, NetlistError> {
        let prog = JitNetlistProgram::compile(&module)?;
        let values = init_values(&prog);
        let state = init_state(&prog);
        Ok(JitNetlistSim {
            module,
            prog,
            values,
            state,
        })
    }

    /// The module this executor was compiled from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The lowered program (for diagnostics and benches).
    pub fn program(&self) -> &JitNetlistProgram {
        &self.prog
    }

    /// Resets all flip-flops to their power-up values.
    pub fn reset_state(&mut self) {
        for (s, d) in self.state.iter_mut().zip(&self.prog.dffs) {
            *s = d.reset_value;
        }
    }

    /// The registered flip-flop state, in module cell order (the
    /// checkpoint seam, shared with [`JitPackedNetlistSim::dff_state`]'s
    /// lane planes).
    pub fn dff_state(&self) -> &[bool] {
        &self.state
    }

    /// Restores flip-flop state captured by
    /// [`JitNetlistSim::dff_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per flip-flop.
    pub fn set_dff_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "dff state length mismatch");
        self.state.copy_from_slice(state);
    }

    /// Resolves an input port name to a [`PortHandle`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    pub fn input_handle(&self, name: &str) -> Result<PortHandle, SimError> {
        self.prog.resolve_input(&self.module, name)
    }

    /// Resolves an output port name to a [`PortHandle`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no output port has that name.
    pub fn output_handle(&self, name: &str) -> Result<PortHandle, SimError> {
        self.prog.resolve_output(&self.module, name)
    }

    /// Drives an input port through a pre-resolved handle.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an input handle of this module.
    pub fn set_input_h(&mut self, h: PortHandle, value: u64) {
        assert!(!h.output, "set_input_h needs an input handle");
        let (_, slots) = &self.prog.inputs[h.index];
        for (i, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = i < 64 && (value >> i) & 1 == 1;
        }
    }

    /// Reads an output port through a pre-resolved handle.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an output handle of this module.
    pub fn get_output_h(&self, h: PortHandle) -> u64 {
        assert!(h.output, "get_output_h needs an output handle");
        let (_, slots) = &self.prog.outputs[h.index];
        let mut v = 0u64;
        for (i, &slot) in slots.iter().enumerate().take(64) {
            if self.values[slot as usize] {
                v |= 1 << i;
            }
        }
        v
    }

    /// Drives an input port with `value` (LSB-first; bits past 64 get 0).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    pub fn set_input(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        let h = self.input_handle(port)?;
        self.set_input_h(h, value);
        Ok(())
    }

    /// Reads an output port (low 64 bits for wider ports).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no output port has that name.
    pub fn get_output(&self, port: &str) -> Result<u64, SimError> {
        let h = self.output_handle(port)?;
        Ok(self.get_output_h(h))
    }

    /// Settles combinational logic: flip-flop outputs take their stored
    /// state, then every run executes once.
    pub fn eval(&mut self) {
        eval_jit(&self.prog, &mut self.values, &self.state, &rom_read_scalar);
    }

    /// One clock cycle: [`JitNetlistSim::eval`] then per-class
    /// flip-flop commit.
    pub fn step(&mut self) {
        self.step_changed();
    }

    /// [`JitNetlistSim::step`], reporting whether any flip-flop changed
    /// value.
    pub fn step_changed(&mut self) -> bool {
        self.eval();
        commit_jit(&self.prog, &self.values, &mut self.state)
    }
}

impl NetlistExec for JitNetlistSim {
    fn module(&self) -> &Module {
        JitNetlistSim::module(self)
    }

    fn reset_state(&mut self) {
        JitNetlistSim::reset_state(self);
    }

    fn set_input(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        JitNetlistSim::set_input(self, port, value)
    }

    fn get_output(&self, port: &str) -> Result<u64, SimError> {
        JitNetlistSim::get_output(self, port)
    }

    fn eval(&mut self) {
        JitNetlistSim::eval(self);
    }

    fn step(&mut self) {
        JitNetlistSim::step(self);
    }

    fn step_changed(&mut self) -> bool {
        JitNetlistSim::step_changed(self)
    }
}

/// 64-lane bit-parallel JIT executor: every net slot is a `u64` holding
/// one bit per lane, so each gate evaluates [`LANES`] independent
/// simulations with a single bitwise operation. Lanes share the netlist
/// but nothing else — inputs, outputs and flip-flop state are fully
/// independent per lane; ROM reads gather a per-lane address. The
/// [`NetlistExec`] impl broadcasts `set_input` to every lane and reads
/// `get_output` from lane 0.
#[derive(Debug)]
pub struct JitPackedNetlistSim {
    module: Module,
    prog: JitNetlistProgram,
    values: Vec<u64>,
    /// Registered state, indexed like `prog.dffs`; one bit per lane.
    state: Vec<u64>,
}

impl JitPackedNetlistSim {
    /// Compiles, lowers and initializes a 64-lane executor for
    /// `module`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating the module.
    pub fn new(module: Module) -> Result<Self, NetlistError> {
        let prog = JitNetlistProgram::compile(&module)?;
        let values = init_values(&prog);
        let state = init_state(&prog);
        Ok(JitPackedNetlistSim {
            module,
            prog,
            values,
            state,
        })
    }

    /// The module this executor was compiled from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The lowered program (for diagnostics and benches).
    pub fn program(&self) -> &JitNetlistProgram {
        &self.prog
    }

    /// Number of independent lanes (always [`crate::LANES`]).
    pub fn lanes(&self) -> usize {
        LANES
    }

    /// Resets all flip-flops to their power-up values in every lane.
    pub fn reset_state(&mut self) {
        for (s, d) in self.state.iter_mut().zip(&self.prog.dffs) {
            *s = if d.reset_value { u64::MAX } else { 0 };
        }
    }

    /// The registered flip-flop state, in module cell order, one bit per
    /// lane (the checkpoint seam; lane `l` of each word is a
    /// [`JitNetlistSim::dff_state`] entry).
    pub fn dff_state(&self) -> &[u64] {
        &self.state
    }

    /// Restores flip-flop state captured by
    /// [`JitPackedNetlistSim::dff_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per flip-flop.
    pub fn set_dff_state(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.state.len(), "dff state length mismatch");
        self.state.copy_from_slice(state);
    }

    /// Resolves an input port name to a [`PortHandle`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    pub fn input_handle(&self, name: &str) -> Result<PortHandle, SimError> {
        self.prog.resolve_input(&self.module, name)
    }

    /// Resolves an output port name to a [`PortHandle`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no output port has that name.
    pub fn output_handle(&self, name: &str) -> Result<PortHandle, SimError> {
        self.prog.resolve_output(&self.module, name)
    }

    /// Drives bit `bit` of an input port with one stimulus bit per
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an input handle or `bit` is out of range.
    pub fn set_input_bit_lanes(&mut self, h: PortHandle, bit: usize, lanes: u64) {
        assert!(!h.output, "set_input_bit_lanes needs an input handle");
        let (_, slots) = &self.prog.inputs[h.index];
        self.values[slots[bit] as usize] = lanes;
    }

    /// Reads bit `bit` of an output port across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an output handle or `bit` is out of range.
    pub fn get_output_bit_lanes(&self, h: PortHandle, bit: usize) -> u64 {
        assert!(h.output, "get_output_bit_lanes needs an output handle");
        let (_, slots) = &self.prog.outputs[h.index];
        self.values[slots[bit] as usize]
    }

    /// Drives an input port in one lane only, through a pre-resolved
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an input handle or `lane` is out of range.
    pub fn set_input_lane_h(&mut self, h: PortHandle, lane: usize, value: u64) {
        assert!(!h.output, "set_input_lane_h needs an input handle");
        assert!(lane < LANES, "lane {lane} out of range");
        let (_, slots) = &self.prog.inputs[h.index];
        for (i, &slot) in slots.iter().enumerate() {
            let bit = u64::from(i < 64 && (value >> i) & 1 == 1);
            let w = &mut self.values[slot as usize];
            *w = (*w & !(1 << lane)) | (bit << lane);
        }
    }

    /// Drives an input port in one lane only.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_input_lane(&mut self, lane: usize, port: &str, value: u64) -> Result<(), SimError> {
        let h = self.input_handle(port)?;
        self.set_input_lane_h(h, lane, value);
        Ok(())
    }

    /// Drives an input port with the same value in every lane.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    pub fn set_input_all(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        let h = self.input_handle(port)?;
        let (_, slots) = &self.prog.inputs[h.index];
        for (i, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = if i < 64 && (value >> i) & 1 == 1 {
                u64::MAX
            } else {
                0
            };
        }
        Ok(())
    }

    /// Reads an output port in one lane through a pre-resolved handle.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an output handle or `lane` is out of range.
    pub fn get_output_lane_h(&self, h: PortHandle, lane: usize) -> u64 {
        assert!(h.output, "get_output_lane_h needs an output handle");
        assert!(lane < LANES, "lane {lane} out of range");
        let (_, slots) = &self.prog.outputs[h.index];
        let mut v = 0u64;
        for (i, &slot) in slots.iter().enumerate().take(64) {
            if (self.values[slot as usize] >> lane) & 1 == 1 {
                v |= 1 << i;
            }
        }
        v
    }

    /// Reads an output port in one lane (low 64 bits for wider ports).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no output port has that name.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn get_output_lane(&self, lane: usize, port: &str) -> Result<u64, SimError> {
        let h = self.output_handle(port)?;
        Ok(self.get_output_lane_h(h, lane))
    }

    /// Settles combinational logic in every lane.
    pub fn eval(&mut self) {
        eval_jit(&self.prog, &mut self.values, &self.state, &rom_read_packed);
    }

    /// One clock cycle in every lane: eval then per-class, per-lane
    /// flip-flop commit.
    pub fn step(&mut self) {
        self.step_changed();
    }

    /// [`JitPackedNetlistSim::step`], reporting whether any flip-flop
    /// changed in *any* lane.
    pub fn step_changed(&mut self) -> bool {
        self.eval();
        commit_jit(&self.prog, &self.values, &mut self.state)
    }
}

impl NetlistExec for JitPackedNetlistSim {
    fn module(&self) -> &Module {
        JitPackedNetlistSim::module(self)
    }

    fn reset_state(&mut self) {
        JitPackedNetlistSim::reset_state(self);
    }

    fn set_input(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        self.set_input_all(port, value)
    }

    fn get_output(&self, port: &str) -> Result<u64, SimError> {
        self.get_output_lane(0, port)
    }

    fn eval(&mut self) {
        JitPackedNetlistSim::eval(self);
    }

    fn step(&mut self) {
        JitPackedNetlistSim::step(self);
    }

    fn step_changed(&mut self) -> bool {
        JitPackedNetlistSim::step_changed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistSim;
    use lis_netlist::{CellKind, ModuleBuilder};

    fn adder_module() -> Module {
        let mut b = ModuleBuilder::new("add4");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let (sum, cout) = b.add(&x, &y);
        b.output("sum", &sum);
        b.output_bit("cout", cout);
        b.finish().unwrap()
    }

    /// A module deliberately rich in fusable patterns: inverter chains,
    /// NOTs feeding gates, MUXes of constants, buffers, duplicate
    /// gates, dead logic, and inverted/constant flip-flop pins.
    fn fusion_rich_module() -> Module {
        let mut b = ModuleBuilder::new("fusion");
        let x = b.input("x", 4);
        let t = b.constant(true);
        let f = b.constant(false);
        let n0 = b.not(x.bit(0));
        let n1 = b.not(x.bit(1));
        let nn0 = b.not(n0); // double negation
        let a = b.and(n0, x.bit(2)); // and-not
        let o = b.or(n0, n1); // De Morgan -> nand
        let na = b.nand(n1, x.bit(3)); // or-not
        let m1 = b.mux(x.bit(0), f, t); // mux(s,0,1) -> copy of s
        let m2 = b.mux(x.bit(1), t, f); // mux(s,1,0) -> not s
        let m3 = b.mux(x.bit(2), f, x.bit(3)); // -> and
        let m4 = b.mux(n0, x.bit(3), a); // inverted select
        let buf1 = b.buf(a);
        let buf2 = b.buf(buf1); // buffer chain
        let dup1 = b.xor(x.bit(0), x.bit(1));
        let dup2 = b.xor(x.bit(1), x.bit(0)); // CSE after normalize
        let chain = b.and(a, o); // 3-input chain candidate
        let chain2 = b.and(chain, na);
        let _dead = b.or(dup1, m3); // never consumed -> DCE
        let same = b.xor(nn0, nn0); // -> const 0
        let d_inv = b.not(dup2); // inverted dff d pin
        let q0 = b.dff(d_inv, t, f, false); // always-class, inverted d
        let q1 = b.dff(m4, dup1, f, true); // enable-class
        let q2 = b.dff(buf2, t, m2, false); // full (dynamic reset)
        let q3 = b.dff(x.bit(0), f, f, true); // hold-class
        let q4 = b.dff(x.bit(1), t, t, false); // reset-class
        b.output_bit("m1", m1);
        b.output_bit("chain2", chain2);
        b.output_bit("same", same);
        b.output_bit("q0", q0);
        b.output_bit("q1", q1);
        b.output_bit("q2", q2);
        b.output_bit("q3", q3);
        b.output_bit("q4", q4);
        b.finish().unwrap()
    }

    #[test]
    fn jit_adder_is_exhaustively_correct() {
        let mut sim = JitNetlistSim::new(adder_module()).unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                sim.set_input("x", x).unwrap();
                sim.set_input("y", y).unwrap();
                sim.eval();
                assert_eq!(sim.get_output("sum").unwrap(), (x + y) & 0xF);
                assert_eq!(sim.get_output("cout").unwrap(), (x + y) >> 4);
            }
        }
    }

    #[test]
    fn fusion_rich_module_matches_interpreter_cycle_for_cycle() {
        let m = fusion_rich_module();
        let mut interp = NetlistSim::new(m.clone()).unwrap();
        let mut jit = JitNetlistSim::new(m).unwrap();
        let outs = ["m1", "chain2", "same", "q0", "q1", "q2", "q3", "q4"];
        for cycle in 0..64u64 {
            let x = (cycle * 7 + (cycle >> 2)) & 0xF;
            interp.set_input("x", x).unwrap();
            jit.set_input("x", x).unwrap();
            interp.eval();
            jit.eval();
            for o in outs {
                assert_eq!(
                    interp.get_output(o).unwrap(),
                    jit.get_output(o).unwrap(),
                    "output {o} cycle {cycle}"
                );
            }
            let ic = interp.step_changed();
            let jc = jit.step_changed();
            assert_eq!(ic, jc, "step_changed cycle {cycle}");
        }
    }

    #[test]
    fn lowering_stats_report_fusion_folding_and_elimination() {
        let prog = JitNetlistProgram::compile(&fusion_rich_module()).unwrap();
        let s = prog.stats();
        assert!(s.fused > 0, "expected fusions: {s}");
        assert!(s.const_folded > 0, "expected const folds: {s}");
        assert!(s.copies_propagated > 0, "expected copy props: {s}");
        assert!(s.deduped > 0, "expected CSE hits: {s}");
        assert!(s.dead_instrs > 0, "expected dead code: {s}");
        assert!(s.instrs_after < s.instrs_before, "{s}");
        assert!(s.nets_eliminated() > 0, "{s}");
        assert_eq!(s.runs, prog.run_count());
        assert_eq!(s.levels, prog.depth());
        let census: usize = s.ops.iter().map(|o| o.instrs).sum();
        assert_eq!(census, prog.instr_count());
    }

    #[test]
    fn jit_rom_reads_match_interpreter() {
        let mut b = ModuleBuilder::new("romtest");
        let addr = b.input("addr", 3);
        let data = b.rom("r", &addr, 8, vec![10, 20, 30, 40, 50]);
        b.output("data", &data);
        let m = b.finish().unwrap();
        let mut interp = NetlistSim::new(m.clone()).unwrap();
        let mut jit = JitNetlistSim::new(m).unwrap();
        for a in 0..8u64 {
            interp.set_input("addr", a).unwrap();
            jit.set_input("addr", a).unwrap();
            interp.eval();
            jit.eval();
            assert_eq!(
                interp.get_output("data").unwrap(),
                jit.get_output("data").unwrap(),
                "addr {a}"
            );
        }
    }

    #[test]
    fn jit_dff_state_seam_is_compatible_with_interpreter() {
        let mut b = ModuleBuilder::new("cnt");
        let en = b.input("en", 1).bit(0);
        let rst = b.input("rst", 1).bit(0);
        let count = b.counter_mod(4, en, rst, 10);
        b.output("count", &count);
        let m = b.finish().unwrap();
        let mut interp = NetlistSim::new(m.clone()).unwrap();
        let mut jit = JitNetlistSim::new(m.clone()).unwrap();
        for _ in 0..7 {
            for s in [&mut interp as &mut dyn NetlistExec, &mut jit] {
                s.set_input("en", 1).unwrap();
                s.set_input("rst", 0).unwrap();
                s.step();
            }
        }
        // The JIT's state vector is the interpreter's registers in
        // module cell order, so an interpreter snapshot restores into a
        // fresh JIT engine.
        interp.eval();
        let saved: Vec<bool> = m
            .cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Dff { .. }))
            .map(|c| interp.net_value(c.output))
            .collect();
        assert_eq!(jit.dff_state(), &saved[..]);
        let mut resumed = JitNetlistSim::new(m).unwrap();
        resumed.set_dff_state(&saved);
        resumed.set_input("en", 0).unwrap();
        resumed.set_input("rst", 0).unwrap();
        resumed.eval();
        assert_eq!(resumed.get_output("count").unwrap(), 7);
    }
}
