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
//! * **word pass** (scalar engine only) — buses of one-bit cells that
//!   differ only in bit index (multi-bit ports, registers, MUXes under
//!   one select) run as one `u64` word each, see [`widen`];
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

/// Both engines evaluate over `u64` slots with the plain bitwise
/// operators, so they share one dispatch loop and one flip-flop commit.
/// In the packed engine a slot carries one bit per lane. In the scalar
/// engine a one-bit net is a splat (all zeros or all ones) and a bus
/// that the word pass widened is one packed word, bit `i` its member
/// `i`; a splat select then picks a whole bus in one MUX.
fn splat(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// The low `width` bits set (`width` at most 64).
fn width_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
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

/// The commit class of one flip-flop (see [`DffClasses`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Always,
    AlwaysInv,
    Enable,
    EnableInv,
    Reset,
    Full,
    FullInv,
    Hold,
}

impl Class {
    /// The pins (`INV_*` bits) the class's commit formula reads.
    fn pins(self) -> u8 {
        match self {
            Class::Always | Class::AlwaysInv => INV_D,
            Class::Enable | Class::EnableInv => INV_D | INV_EN,
            Class::Full | Class::FullInv => INV_D | INV_EN | INV_RST,
            Class::Reset | Class::Hold => 0,
        }
    }
}

impl DffClasses {
    fn push(&mut self, class: Class, i: u32) {
        match class {
            Class::Always => self.always.push(i),
            Class::AlwaysInv => self.always_inv.push(i),
            Class::Enable => self.enable.push(i),
            Class::EnableInv => self.enable_inv.push(i),
            Class::Reset => self.reset.push(i),
            Class::Full => self.full.push(i),
            Class::FullInv => self.full_inv.push(i),
            Class::Hold => {}
        }
    }
}

/// How the scalar engine lays out what the word pass widened. The
/// packed engine has none: its word is the lane dimension.
#[derive(Debug, Clone, Default)]
struct WordLayout {
    /// Reset word of every flip-flop entry, indexed like
    /// [`JitNetlistProgram::dffs`]: a splat for a one-bit entry, the
    /// members' reset bits for a bus.
    reset: Vec<u64>,
    /// Per module flip-flop, in cell order: its entry and the entry
    /// bits it occupies (all ones for a one-bit entry). This keeps the
    /// checkpoint seam at one bool per flip-flop.
    seam: Vec<(u32, u64)>,
    /// Per input port: the width mask of a port that moves as one word
    /// (its slot list then holds that word's slot alone), 0 for a port
    /// driven bit by bit.
    word_inputs: Vec<u64>,
    /// Per output port: whether it is read as one word (its slot list
    /// then holds that word's slot alone).
    word_outputs: Vec<bool>,
}

/// A module's levelized instruction stream post-processed by fusion,
/// constant folding, copy propagation, CSE, dead-net elimination, slot
/// remapping and per-opcode run sorting. Immutable. Both engines
/// execute it over `u64` slots: [`JitPackedNetlistSim`] one bit per
/// lane, [`JitNetlistSim`] after a word pass that runs each widened bus
/// as one packed word (see [`JitNetlistProgram::compile`]).
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
    /// Flip-flop commit entries: one per flip-flop, in module cell
    /// order, except that the word pass makes each widened register one
    /// entry (the scalar engine's seam table maps them back).
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

/// The lowered netlist between dead-code elimination and slot
/// remapping, in the original slot space.
struct Flat {
    pend: Vec<Pend>,
    roms: Vec<CompiledRom>,
    args: Vec<u32>,
    dffs: Vec<JitDff>,
    class_of: Vec<Class>,
    inputs: Vec<(String, Vec<u32>)>,
    outputs: Vec<(String, Vec<u32>)>,
}

/// The word pass's "not a bus member" marker.
const NO_BUS: u32 = u32::MAX;

/// The buses the word pass tracks, over slot-indexed tables so the
/// pass stays linear in the netlist.
struct Buses {
    /// Slot -> the bus it is a member of, or [`NO_BUS`].
    bus_of: Vec<u32>,
    /// Slot -> its bit position in that bus.
    bit_of: Vec<u8>,
    /// Per bus: its width (2 to 64).
    width: Vec<u32>,
    demoted: Vec<bool>,
    /// Word-level reads between two buses: demoting one end demotes
    /// the other.
    links: Vec<(u32, u32)>,
}

impl Buses {
    fn new(slots: usize) -> Self {
        Buses {
            bus_of: vec![NO_BUS; slots],
            bit_of: vec![0; slots],
            width: Vec::new(),
            demoted: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a bus whose member `i` is `members[i]`.
    fn add(&mut self, members: &[u32]) -> u32 {
        let id = self.width.len() as u32;
        for (bit, &s) in members.iter().enumerate() {
            self.bus_of[s as usize] = id;
            self.bit_of[s as usize] = bit as u8;
        }
        self.width.push(members.len() as u32);
        self.demoted.push(false);
        id
    }

    /// The bus and bit position of `s`, if it is a member.
    fn at(&self, s: u32) -> Option<(u32, u32)> {
        let bus = self.bus_of[s as usize];
        (bus != NO_BUS).then(|| (bus, u32::from(self.bit_of[s as usize])))
    }

    fn alive(&self, bus: u32) -> bool {
        bus != NO_BUS && !self.demoted[bus as usize]
    }

    /// A one-bit read of `s`: the bus holding it cannot stay a word.
    fn read_bit(&mut self, s: u32) {
        if let Some((bus, _)) = self.at(s) {
            self.demoted[bus as usize] = true;
        }
    }

    /// The bus a port reads as one word: bit `i` of the port is member
    /// `i`, and the port is exactly as wide as the bus.
    fn port_bus(&self, ss: &[u32]) -> u32 {
        match ss.first().and_then(|&s| self.at(s)) {
            Some((bus, _))
                if ss.len() == self.width[bus as usize] as usize
                    && ss
                        .iter()
                        .enumerate()
                        .all(|(i, &s)| self.at(s) == Some((bus, i as u32))) =>
            {
                bus
            }
            _ => NO_BUS,
        }
    }

    /// Spreads demotion along the links to a fixed point: a bus is
    /// demoted when any bus linked to it, however indirectly, is. One
    /// union-find pass over the links groups them, so this stays
    /// linear.
    fn settle(&mut self) {
        let mut root: Vec<u32> = (0..self.width.len() as u32).collect();
        let find = |root: &mut Vec<u32>, mut b: u32| {
            while root[b as usize] != b {
                root[b as usize] = root[root[b as usize] as usize];
                b = root[b as usize];
            }
            b
        };
        for &(a, b) in &self.links {
            let (a, b) = (find(&mut root, a), find(&mut root, b));
            root[a as usize] = b;
        }
        let mut bad = vec![false; root.len()];
        for b in 0..root.len() as u32 {
            if self.demoted[b as usize] {
                bad[find(&mut root, b) as usize] = true;
            }
        }
        for b in 0..root.len() as u32 {
            self.demoted[b as usize] = bad[find(&mut root, b) as usize];
        }
    }
}

/// The word pass, for the scalar engine: runs whole buses of one-bit
/// cells as single `u64` words.
///
/// Seeds are the multi-bit input ports and the runs of consecutive
/// flip-flops that share commit class, enable and reset and have no
/// fused inversion. Within each level, one-bit MUXes that share a
/// select and read two equally wide buses, each at the MUX's own bit
/// position, form a bus MUX when they cover every position. A bus
/// survives only while every reader of every member is word-level at
/// the same position: a bus MUX's data operand, an output port exactly
/// as wide, or a bus register whose members all read that one bus.
/// Demotion runs to a fixed point, so no bits are ever packed or
/// extracted, and no word carries bits above its width.
///
/// A surviving bus lives in its position-0 member's slot. That
/// member's MUX or flip-flop becomes the word instruction or commit
/// entry, whose operands are already their buses' position-0 slots, and
/// the other members are dropped.
fn widen(flat: &mut Flat, slots: usize, stats: &mut LoweringStats) -> WordLayout {
    let mut buses = Buses::new(slots);
    let in_bus: Vec<u32> = flat
        .inputs
        .iter()
        .map(|(_, ss)| {
            if (2..=64).contains(&ss.len()) {
                buses.add(ss)
            } else {
                NO_BUS
            }
        })
        .collect();
    // A flip-flop run shares the plain class that reads `d` and every
    // other pin that class reads.
    let run_key = |i: usize| {
        let (dff, class) = (&flat.dffs[i], flat.class_of[i]);
        let pin = |bit: u8, slot: u32| if class.pins() & bit != 0 { slot } else { 0 };
        matches!(class, Class::Always | Class::Enable | Class::Full)
            .then(|| (class, pin(INV_EN, dff.en), pin(INV_RST, dff.rst)))
    };
    let mut i = 0;
    while i < flat.dffs.len() {
        let key = run_key(i);
        let mut j = i + 1;
        while key.is_some() && j < flat.dffs.len() && j - i < 64 && run_key(j) == key {
            j += 1;
        }
        if j - i >= 2 {
            let qs: Vec<u32> = flat.dffs[i..j].iter().map(|d| d.q).collect();
            buses.add(&qs);
        }
        i = j;
    }

    // Bus MUXes, level by level, so a group's output bus can feed the
    // groups of later levels.
    let mut group_of = vec![NO_BUS; flat.pend.len()];
    let mut cands: Vec<(u32, u32, u32, u32, usize)> = Vec::new();
    let mut lo = 0;
    while lo < flat.pend.len() {
        let mut hi = lo;
        while hi < flat.pend.len() && flat.pend[hi].level == flat.pend[lo].level {
            hi += 1;
        }
        cands.clear();
        for (k, p) in flat.pend.iter().enumerate().take(hi).skip(lo) {
            if p.op != JitOp::Mux {
                continue;
            }
            if let (Some((b, bit)), Some((c, c_bit))) = (buses.at(p.b), buses.at(p.c)) {
                if bit == c_bit && buses.width[b as usize] == buses.width[c as usize] {
                    cands.push((p.a, b, c, bit, k));
                }
            }
        }
        cands.sort_unstable();
        for group in cands.chunk_by(|x, y| (x.0, x.1, x.2) == (y.0, y.1, y.2)) {
            let (_, b, c, _, _) = group[0];
            let dense = group.len() == buses.width[b as usize] as usize
                && group.iter().enumerate().all(|(i, g)| g.3 == i as u32);
            if dense {
                let dests: Vec<u32> = group.iter().map(|g| flat.pend[g.4].dest).collect();
                let id = buses.add(&dests);
                buses.links.extend([(id, b), (id, c)]);
                for g in group {
                    group_of[g.4] = id;
                }
            }
        }
        lo = hi;
    }

    // Every other read of a member is a one-bit read.
    for (p, &group) in flat.pend.iter().zip(&group_of) {
        if group != NO_BUS {
            buses.read_bit(p.a); // the select is a control bit
            continue;
        }
        match p.op {
            JitOp::Rom => {
                for &a in &flat.roms[p.a as usize].addr {
                    buses.read_bit(a);
                }
            }
            JitOp::AndN | JitOp::OrN => {
                for &s in &flat.args[p.a as usize..p.b as usize] {
                    buses.read_bit(s);
                }
            }
            op => {
                for s in [p.a, p.b, p.c].into_iter().take(arity(op)) {
                    buses.read_bit(s);
                }
            }
        }
    }
    // A register reads one bus as a word: the one its position-0 member
    // (first in cell order) reads at position 0, if equally wide. Every
    // member must read that bus at its own position.
    let mut d_bus = vec![NO_BUS; buses.width.len()];
    for (dff, class) in flat.dffs.iter().zip(&flat.class_of) {
        let pins = class.pins();
        if pins & INV_EN != 0 {
            buses.read_bit(dff.en);
        }
        if pins & INV_RST != 0 {
            buses.read_bit(dff.rst);
        }
        if pins & INV_D == 0 {
            continue;
        }
        let Some((q, bit)) = buses.at(dff.q) else {
            buses.read_bit(dff.d);
            continue;
        };
        if bit == 0 {
            d_bus[q as usize] = match buses.at(dff.d) {
                Some((d, 0)) if buses.width[d as usize] == buses.width[q as usize] => d,
                _ => NO_BUS,
            };
        }
        let d = d_bus[q as usize];
        if d != NO_BUS && buses.at(dff.d) == Some((d, bit)) {
            buses.links.push((q, d));
        } else {
            buses.read_bit(dff.d);
            buses.demoted[q as usize] = true;
        }
    }
    let out_bus: Vec<u32> = flat
        .outputs
        .iter()
        .map(|(_, ss)| buses.port_bus(ss))
        .collect();
    for ((_, ss), &bus) in flat.outputs.iter().zip(&out_bus) {
        if bus == NO_BUS {
            for &s in ss {
                buses.read_bit(s);
            }
        }
    }
    buses.settle();

    // Rewrite: each surviving bus keeps only its position-0 member.
    let mut k = 0;
    flat.pend.retain(|p| {
        let group = group_of[k];
        k += 1;
        if !buses.alive(group) {
            return true;
        }
        let first = buses.bit_of[p.dest as usize] == 0;
        if first {
            stats.word_instrs += 1;
            stats.word_cells += buses.width[group as usize] as usize;
        }
        first
    });
    let mut words = WordLayout::default();
    let mut dffs = Vec::new();
    let mut class_of = Vec::new();
    for (dff, &class) in flat.dffs.iter().zip(&flat.class_of) {
        match buses.at(dff.q) {
            Some((bus, bit)) if buses.alive(bus) => {
                if bit == 0 {
                    dffs.push(*dff);
                    class_of.push(class);
                    words.reset.push(0);
                    stats.dff_words += 1;
                    stats.dff_word_bits += buses.width[bus as usize] as usize;
                }
                let e = dffs.len() - 1;
                words.reset[e] |= u64::from(dff.reset_value) << bit;
                words.seam.push((e as u32, 1 << bit));
            }
            _ => {
                words.seam.push((dffs.len() as u32, u64::MAX));
                dffs.push(*dff);
                class_of.push(class);
                words.reset.push(splat(dff.reset_value));
            }
        }
    }
    flat.dffs = dffs;
    flat.class_of = class_of;
    for ((_, ss), &bus) in flat.inputs.iter_mut().zip(&in_bus) {
        let word = buses.alive(bus);
        words
            .word_inputs
            .push(if word { width_mask(ss.len()) } else { 0 });
        if word {
            ss.truncate(1);
        }
    }
    for ((_, ss), &bus) in flat.outputs.iter_mut().zip(&out_bus) {
        let word = buses.alive(bus);
        words.word_outputs.push(word);
        if word {
            ss.truncate(1);
        }
    }
    words
}

impl JitNetlistProgram {
    /// Compiles `module` to a levelized instruction stream and lowers
    /// it one slot per net, as [`JitPackedNetlistSim`] runs it.
    /// [`JitNetlistSim`] lowers the same way plus the word pass, whose
    /// program its [`JitNetlistSim::program`] returns.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating or
    /// levelizing the module.
    pub fn compile(module: &Module) -> Result<Self, NetlistError> {
        Ok(Self::lower(&NetlistProgram::compile(module)?, false).0)
    }

    /// Lowers an already-compiled program: fusion, constant folding,
    /// copy propagation, CSE, dead-net elimination, the word pass when
    /// `widen_buses` is set (see [`widen`]; the layout is empty
    /// otherwise), slot remapping and per-opcode run sorting.
    fn lower(prog: &NetlistProgram, widen_buses: bool) -> (Self, WordLayout) {
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
        let mut class_of = Vec::with_capacity(prog.dffs.len());
        for dff in &prog.dffs {
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
            class_of.push(match (rst.konst, en.konst) {
                (Some(true), _) => Class::Reset,
                (Some(false), Some(true)) if inv & INV_D != 0 => Class::AlwaysInv,
                (Some(false), Some(true)) => Class::Always,
                (Some(false), Some(false)) => Class::Hold, // q' = q, skipped
                (Some(false), None) if inv & (INV_D | INV_EN) != 0 => Class::EnableInv,
                (Some(false), None) => Class::Enable,
                (None, _) if inv != 0 => Class::FullInv,
                (None, _) => Class::Full,
            });
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
        for (dff, class) in dffs.iter().zip(&class_of) {
            for (pin, slot) in [(INV_D, dff.d), (INV_EN, dff.en), (INV_RST, dff.rst)] {
                if class.pins() & pin != 0 {
                    live[slot as usize] = true;
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

        let mut flat = Flat {
            pend,
            roms,
            args,
            dffs,
            class_of,
            inputs: prog.inputs.clone(),
            outputs,
        };
        let words = if widen_buses {
            widen(&mut flat, slots, &mut lw.stats)
        } else {
            WordLayout::default()
        };
        let Flat {
            mut pend,
            roms,
            mut args,
            mut dffs,
            class_of,
            inputs,
            outputs,
        } = flat;
        let mut classes = DffClasses::default();
        for (i, &class) in class_of.iter().enumerate() {
            classes.push(class, i as u32);
        }

        // Group surviving instructions by level, sort each level into
        // contiguous per-opcode runs, and remap every referenced slot
        // to a dense, first-touch-in-execution-order index space.
        let mut remap = vec![u32::MAX; slots];
        let mut next: u32 = 0;
        let inputs: Vec<(String, Vec<u32>)> = inputs
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
        for (dff, class) in dffs.iter_mut().zip(&class_of) {
            let u = class.pins();
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
        prog.validate_indices(widen_buses.then_some(&words));
        (prog, words)
    }

    /// Build-time bounds validation — the safety contract the unsafe
    /// dispatch loops rely on: every operand/dest/pin/port/const index
    /// is in `0..slots`, run and level spans tile the instruction
    /// stream, and ROM operand indices are in range. With the scalar
    /// engine's word layout it also checks that layout (see
    /// [`JitNetlistProgram::validate_words`]).
    fn validate_indices(&self, words: Option<&WordLayout>) {
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
        if let Some(words) = words {
            self.validate_words(words);
        }
    }

    /// Build-time validation of the scalar engine's word layout, the
    /// second half of the safety contract: one reset word per entry; a
    /// word port holds exactly one slot under a mask of 2 to 64 low
    /// bits; and the seam covers every entry, either as one flip-flop
    /// owning all its bits, or as two or more flip-flops each owning a
    /// distinct single bit, together the entry's low bits, with the
    /// entry's reset word inside them.
    fn validate_words(&self, words: &WordLayout) {
        assert_eq!(
            words.reset.len(),
            self.dffs.len(),
            "one reset word per entry"
        );
        assert_eq!(words.word_inputs.len(), self.inputs.len());
        assert_eq!(words.word_outputs.len(), self.outputs.len());
        let word_port = |mask: u64, ss: &[u32]| {
            assert_eq!(ss.len(), 1, "a word port holds one slot");
            assert!(
                mask >= 3 && mask & mask.wrapping_add(1) == 0,
                "word port mask {mask:#x} is not 2 to 64 low bits"
            );
        };
        for (&mask, (_, ss)) in words.word_inputs.iter().zip(&self.inputs) {
            if mask != 0 {
                word_port(mask, ss);
            }
        }
        for (&word, (_, ss)) in words.word_outputs.iter().zip(&self.outputs) {
            if word {
                word_port(u64::MAX, ss);
            }
        }
        let mut owned = vec![(0u32, 0u64); self.dffs.len()];
        for &(e, bits) in &words.seam {
            let (count, mask) = owned
                .get_mut(e as usize)
                .unwrap_or_else(|| panic!("seam entry {e} out of range"));
            assert!(
                bits == u64::MAX || bits.is_power_of_two(),
                "seam bits {bits:#x} of entry {e}"
            );
            assert_eq!(*mask & bits, 0, "entry {e} bits owned twice");
            *count += 1;
            *mask |= bits;
        }
        for (e, (&(count, mask), &reset)) in owned.iter().zip(&words.reset).enumerate() {
            if mask == u64::MAX && count == 1 {
                assert!(
                    reset == 0 || reset == u64::MAX,
                    "entry {e} reset is no splat"
                );
            } else {
                assert!(
                    count >= 2 && mask & mask.wrapping_add(1) == 0,
                    "entry {e} is no bus of low bits ({count} flip-flops, {mask:#x})"
                );
                assert_eq!(reset & !mask, 0, "entry {e} reset word exceeds its width");
            }
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
    unsafe fn exec_runs<F: Fn(&CompiledRom, SlotPtr)>(&self, s: SlotPtr, rom_read: &F) {
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
#[derive(Clone, Copy)]
struct SlotPtr {
    ptr: *mut u64,
}

impl SlotPtr {
    /// # Safety
    ///
    /// `i` must be in bounds of the buffer this pointer was made from.
    #[inline(always)]
    unsafe fn get(self, i: u32) -> u64 {
        *self.ptr.add(i as usize)
    }

    /// # Safety
    ///
    /// `i` must be in bounds of the buffer this pointer was made from.
    #[inline(always)]
    unsafe fn set(self, i: u32, v: u64) {
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
unsafe fn exec_slice<F: Fn(&CompiledRom, SlotPtr)>(
    op: JitOp,
    instrs: &[JitInstr],
    roms: &[CompiledRom],
    args: &[u32],
    s: SlotPtr,
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
            let mut acc = [u64::MAX; 4];
            let mut ch = ops.chunks_exact(12);
            for c in &mut ch {
                for k in 0..4 {
                    acc[k] &= s.get(c[3 * k]) | s.get(c[3 * k + 1]) | s.get(c[3 * k + 2]);
                }
            }
            let mut rem = ch.remainder().chunks_exact(3);
            for c in &mut rem {
                acc[0] &= s.get(c[0]) | s.get(c[1]) | s.get(c[2]);
            }
            (acc[0] & acc[1]) & (acc[2] & acc[3])
        }),
        JitOp::Or => run!(|i| s.get(i.a) | s.get(i.b)),
        JitOp::OrNotA => run!(|i| !s.get(i.a) | s.get(i.b)),
        JitOp::OrNotB => run!(|i| s.get(i.a) | !s.get(i.b)),
        JitOp::Or3 => run!(|i| s.get(i.a) | s.get(i.b) | s.get(i.c)),
        JitOp::OrN => run!(|i| {
            let ops = args.get_unchecked(i.a as usize..i.b as usize);
            let mut acc = [0u64; 4];
            let mut ch = ops.chunks_exact(12);
            for c in &mut ch {
                for k in 0..4 {
                    acc[k] |= s.get(c[3 * k]) & s.get(c[3 * k + 1]) & s.get(c[3 * k + 2]);
                }
            }
            let mut rem = ch.remainder().chunks_exact(3);
            for c in &mut rem {
                acc[0] |= s.get(c[0]) & s.get(c[1]) & s.get(c[2]);
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

/// One scalar ROM read: the word pass never widens a ROM's address or
/// data nets, so every one is a splat.
fn rom_read_scalar(rom: &CompiledRom, s: SlotPtr) {
    // SAFETY: ROM addr/data indices validated at build time.
    let word = rom_word(rom, |a| unsafe { s.get(a) } != 0);
    for (i, &d) in rom.data.iter().enumerate() {
        unsafe { s.set(d, splat((word >> i) & 1 == 1)) };
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
fn rom_read_packed(rom: &CompiledRom, s: SlotPtr) {
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
            set(d, splat((word >> i) & 1 == 1));
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
fn eval_jit<F: Fn(&CompiledRom, SlotPtr)>(
    prog: &JitNetlistProgram,
    values: &mut [u64],
    state: &[u64],
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

/// Commits every flip-flop entry through its class formula; hold-class
/// flip-flops (enable and reset both tied low) can never change and
/// are skipped. Returns whether any flip-flop changed value — by
/// construction identical to what the interpreter reports.
///
/// Every class evaluates `q' = rst ? reset : (en ? d : q)` bitwise,
/// specialized to its constant pins; only the rare `*_inv` classes pay
/// for undoing pin-fused inverters. `reset(dff, i)` is entry `i`'s
/// reset word.
fn commit_jit(
    prog: &JitNetlistProgram,
    values: &[u64],
    state: &mut [u64],
    reset: impl Fn(&JitDff, usize) -> u64,
) -> bool {
    assert_eq!(values.len(), prog.slots);
    assert_eq!(state.len(), prog.dffs.len());
    let c = &prog.classes;
    let mut changed = false;
    // SAFETY (every loop below): class indices are < dffs.len() and every
    // pin slot is < slots — both asserted by `validate_indices` at build
    // time — and the two length asserts above tie the buffers to those
    // bounds.
    macro_rules! class {
        ($list:expr, |$dff:ident, $q:ident, $rv:ident| $next:expr) => {
            for &i in $list {
                unsafe {
                    let $dff = prog.dffs.get_unchecked(i as usize);
                    let $q = *state.get_unchecked(i as usize);
                    let $rv = || reset($dff, i as usize);
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
    class!(&c.always, |dff, _q, _rv| v!(dff.d));
    class!(&c.enable, |dff, q, _rv| {
        let d = v!(dff.d);
        let en = v!(dff.en);
        (en & d) | (!en & q)
    });
    class!(&c.reset, |_dff, _q, rv| rv());
    class!(&c.full, |dff, q, rv| {
        let d = v!(dff.d);
        let en = v!(dff.en);
        let rst = v!(dff.rst);
        (rst & rv()) | (!rst & ((en & d) | (!en & q)))
    });
    class!(&c.always_inv, |dff, _q, _rv| v!(dff.d)
        ^ splat(dff.inv & INV_D != 0));
    class!(&c.enable_inv, |dff, q, _rv| {
        let d = v!(dff.d) ^ splat(dff.inv & INV_D != 0);
        let en = v!(dff.en) ^ splat(dff.inv & INV_EN != 0);
        (en & d) | (!en & q)
    });
    class!(&c.full_inv, |dff, q, rv| {
        let d = v!(dff.d) ^ splat(dff.inv & INV_D != 0);
        let en = v!(dff.en) ^ splat(dff.inv & INV_EN != 0);
        let rst = v!(dff.rst) ^ splat(dff.inv & INV_RST != 0);
        (rst & rv()) | (!rst & ((en & d) | (!en & q)))
    });
    changed
}

/// The packed engine's reset word: the flip-flop's value in every lane.
fn lane_reset(dff: &JitDff, _: usize) -> u64 {
    splat(dff.reset_value)
}

fn init_values(prog: &JitNetlistProgram) -> Vec<u64> {
    let mut values = vec![0; prog.slots];
    for &(s, v) in &prog.consts {
        values[s as usize] = splat(v);
    }
    values
}

/// Scalar JIT executor: identical semantics to the interpreter
/// ([`crate::NetlistSim`]), executing the fused, run-sorted
/// [`JitNetlistProgram`] — no per-cell allocation, no id-chasing, one
/// branch per run, dense slots. Its lowering adds the word pass: a
/// one-bit net is a splat `u64`, and a bus the pass widened (a
/// multi-bit port, a register, a bus MUX) is one packed `u64`, so one
/// instruction, one commit or one port access moves the whole bus.
///
/// The engine knows whether its slot values are *settled*: computed
/// from the current inputs and flip-flop state. Driving an input with a
/// new word, a commit that moves a flip-flop, [`JitNetlistSim::set_dff_state`]
/// and [`JitNetlistSim::reset_state`] make them stale;
/// [`JitNetlistSim::step_changed`] evaluates only stale values, while
/// [`JitNetlistSim::eval`] always runs a pass.
#[derive(Debug, Clone)]
pub struct JitNetlistSim {
    module: Module,
    prog: JitNetlistProgram,
    /// Where the word pass put the buses.
    words: WordLayout,
    values: Vec<u64>,
    /// Registered state, indexed like `prog.dffs`: a splat per one-bit
    /// entry, a packed word per bus register.
    state: Vec<u64>,
    /// The word last driven on each input port, masked to the port's
    /// width, so re-driving an unchanged word costs one compare.
    input_words: Vec<u64>,
    /// `values` are settled for the current inputs and state.
    settled: bool,
    /// Program passes run so far.
    passes: u64,
}

impl JitNetlistSim {
    /// Compiles, lowers and initializes an executor for `module`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating the module.
    pub fn new(module: Module) -> Result<Self, NetlistError> {
        let (prog, words) = JitNetlistProgram::lower(&NetlistProgram::compile(&module)?, true);
        let values = init_values(&prog);
        let state = words.reset.clone();
        let input_words = vec![0; prog.inputs.len()];
        Ok(JitNetlistSim {
            module,
            prog,
            words,
            values,
            state,
            input_words,
            settled: false,
            passes: 0,
        })
    }

    /// The module this executor was compiled from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The lowered program, word pass included (for diagnostics and
    /// benches).
    pub fn program(&self) -> &JitNetlistProgram {
        &self.prog
    }

    /// Resets all flip-flops to their power-up values.
    pub fn reset_state(&mut self) {
        self.state.copy_from_slice(&self.words.reset);
        self.settled = false;
    }

    /// The registered flip-flop state, one bool per flip-flop in module
    /// cell order (the checkpoint seam, shared with the interpreter and
    /// with [`JitPackedNetlistSim::dff_state`]'s lane planes).
    pub fn dff_state(&self) -> Vec<bool> {
        self.words
            .seam
            .iter()
            .map(|&(e, bits)| self.state[e as usize] & bits != 0)
            .collect()
    }

    /// Restores flip-flop state captured by
    /// [`JitNetlistSim::dff_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per flip-flop.
    pub fn set_dff_state(&mut self, state: &[bool]) {
        assert_eq!(
            state.len(),
            self.words.seam.len(),
            "dff state length mismatch"
        );
        for (&(e, bits), &bit) in self.words.seam.iter().zip(state) {
            let word = &mut self.state[e as usize];
            *word = if bit { *word | bits } else { *word & !bits };
        }
        self.settled = false;
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

    /// Drives an input port through a pre-resolved handle. Re-driving
    /// the word the port already holds leaves the values settled.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not an input handle of this module.
    pub fn set_input_h(&mut self, h: PortHandle, value: u64) {
        assert!(!h.output, "set_input_h needs an input handle");
        let (_, slots) = &self.prog.inputs[h.index];
        let word = self.words.word_inputs[h.index];
        let value = value
            & if word != 0 {
                word
            } else {
                width_mask(slots.len())
            };
        if self.input_words[h.index] == value {
            return;
        }
        self.input_words[h.index] = value;
        self.settled = false;
        if word != 0 {
            self.values[slots[0] as usize] = value;
            return;
        }
        for (i, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = splat(i < 64 && (value >> i) & 1 == 1);
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
        if self.words.word_outputs[h.index] {
            return self.values[slots[0] as usize];
        }
        let mut v = 0u64;
        for (i, &slot) in slots.iter().enumerate().take(64) {
            if self.values[slot as usize] != 0 {
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
    /// state, then every run executes once. Always runs a pass, even
    /// when the values are already settled.
    pub fn eval(&mut self) {
        eval_jit(&self.prog, &mut self.values, &self.state, &rom_read_scalar);
        self.settled = true;
        self.passes += 1;
    }

    /// One clock cycle: [`JitNetlistSim::eval`] unless the values are
    /// already settled, then per-class flip-flop commit.
    pub fn step(&mut self) {
        self.step_changed();
    }

    /// [`JitNetlistSim::step`], reporting whether any flip-flop changed
    /// value. The outputs keep their pre-commit values, as after any
    /// step.
    pub fn step_changed(&mut self) -> bool {
        if !self.settled {
            self.eval();
        }
        let reset = &self.words.reset;
        let changed = commit_jit(&self.prog, &self.values, &mut self.state, |_, i| reset[i]);
        self.settled &= !changed;
        changed
    }

    /// Program passes run so far: every [`JitNetlistSim::eval`], plus
    /// the evaluations [`JitNetlistSim::step_changed`] ran on stale
    /// values.
    pub fn passes(&self) -> u64 {
        self.passes
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
///
/// Values are settled or stale exactly as in [`JitNetlistSim`]: a lane
/// word that changes any input bit, a commit that moves a flip-flop in
/// any lane, [`JitPackedNetlistSim::set_dff_state`] and
/// [`JitPackedNetlistSim::reset_state`] make them stale.
#[derive(Debug)]
pub struct JitPackedNetlistSim {
    module: Module,
    prog: JitNetlistProgram,
    values: Vec<u64>,
    /// Registered state, indexed like `prog.dffs`; one bit per lane.
    state: Vec<u64>,
    /// `values` are settled for the current inputs and state.
    settled: bool,
    /// Program passes run so far.
    passes: u64,
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
        let state = prog.dffs.iter().map(|d| lane_reset(d, 0)).collect();
        Ok(JitPackedNetlistSim {
            module,
            prog,
            values,
            state,
            settled: false,
            passes: 0,
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
            *s = lane_reset(d, 0);
        }
        self.settled = false;
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
        self.settled = false;
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
        let w = &mut self.values[slots[bit] as usize];
        self.settled &= *w == lanes;
        *w = lanes;
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
            let lanes = (*w & !(1 << lane)) | (bit << lane);
            self.settled &= *w == lanes;
            *w = lanes;
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
            let lanes = splat(i < 64 && (value >> i) & 1 == 1);
            let w = &mut self.values[slot as usize];
            self.settled &= *w == lanes;
            *w = lanes;
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

    /// Settles combinational logic in every lane. Always runs a pass,
    /// even when the values are already settled.
    pub fn eval(&mut self) {
        eval_jit(&self.prog, &mut self.values, &self.state, &rom_read_packed);
        self.settled = true;
        self.passes += 1;
    }

    /// One clock cycle in every lane: [`JitPackedNetlistSim::eval`]
    /// unless the values are already settled, then per-class, per-lane
    /// flip-flop commit.
    pub fn step(&mut self) {
        self.step_changed();
    }

    /// [`JitPackedNetlistSim::step`], reporting whether any flip-flop
    /// changed in *any* lane. The outputs keep their pre-commit values.
    pub fn step_changed(&mut self) -> bool {
        if !self.settled {
            self.eval();
        }
        let changed = commit_jit(&self.prog, &self.values, &mut self.state, lane_reset);
        self.settled &= !changed;
        changed
    }

    /// Program passes run so far: every [`JitPackedNetlistSim::eval`],
    /// plus the evaluations [`JitPackedNetlistSim::step_changed`] ran
    /// on stale values.
    pub fn passes(&self) -> u64 {
        self.passes
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
