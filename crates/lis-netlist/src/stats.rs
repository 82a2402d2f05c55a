//! Aggregate structural statistics of a module.

use crate::cell::CellKind;
use crate::module::Module;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cell/net/ROM census of a [`Module`], used by reports and by the
/// figure-reproduction binaries to describe wrapper structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Total nets.
    pub nets: usize,
    /// Total cells of any kind.
    pub cells: usize,
    /// Two-input logic gates (and/or/xor/nand/nor/xnor).
    pub gates2: usize,
    /// Inverters.
    pub inverters: usize,
    /// Buffers.
    pub buffers: usize,
    /// 2:1 multiplexers.
    pub muxes: usize,
    /// Flip-flops.
    pub flip_flops: usize,
    /// Constant drivers.
    pub constants: usize,
    /// ROM instances.
    pub roms: usize,
    /// Total ROM storage bits.
    pub rom_bits: usize,
    /// Input ports (bits).
    pub input_bits: usize,
    /// Output ports (bits).
    pub output_bits: usize,
    /// Combinational levels (logic depth in nodes, from
    /// [`crate::levelize`]); 0 when the module is cyclic or has no
    /// combinational nodes.
    pub levels: usize,
}

impl NetlistStats {
    /// Computes statistics for a module.
    pub fn of(module: &Module) -> Self {
        let mut s = NetlistStats {
            nets: module.net_count(),
            cells: module.cell_count(),
            roms: module.roms.len(),
            rom_bits: module.rom_bits(),
            input_bits: module.inputs.iter().map(|p| p.width()).sum(),
            output_bits: module.outputs.iter().map(|p| p.width()).sum(),
            levels: crate::levelize(module).map(|l| l.depth()).unwrap_or(0),
            ..NetlistStats::default()
        };
        for cell in &module.cells {
            match cell.kind {
                CellKind::And
                | CellKind::Or
                | CellKind::Xor
                | CellKind::Nand
                | CellKind::Nor
                | CellKind::Xnor => s.gates2 += 1,
                CellKind::Not => s.inverters += 1,
                CellKind::Buf => s.buffers += 1,
                CellKind::Mux => s.muxes += 1,
                CellKind::Dff { .. } => s.flip_flops += 1,
                CellKind::Const(_) => s.constants += 1,
            }
        }
        s
    }

    /// Combinational nodes the LUT mapper must cover.
    pub fn logic_nodes(&self) -> usize {
        self.gates2 + self.inverters + self.muxes
    }
}

/// Per-opcode census of a lowered (JIT) instruction stream: how many
/// contiguous dispatch `runs` an opcode occupies per cycle and how many
/// `instrs` those runs execute. Filled by the JIT lowering in `lis-sim`,
/// recorded by the scaling bench.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCount {
    /// Opcode mnemonic (e.g. `and`, `and-not-a`, `mux`, `rom`).
    pub op: String,
    /// Contiguous same-opcode dispatch runs per cycle.
    pub runs: usize,
    /// Instructions executed across those runs.
    pub instrs: usize,
}

/// Observability counters for a netlist lowering/optimization pass —
/// what fusion, constant folding and dead-net elimination did to the
/// instruction stream. Structural and deterministic: the scaling bench
/// records these and CI pins them against drift.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweringStats {
    /// Combinational instructions before optimization.
    pub instrs_before: usize,
    /// Combinational instructions after fusion/folding/elimination.
    pub instrs_after: usize,
    /// Peephole fusions applied (NOT-into-gate superinstructions,
    /// De Morgan rewrites, 3-input chains, MUX rewrites, and gate
    /// inversions absorbed into flip-flop pins).
    pub fused: usize,
    /// Net slots whose value folded to a compile-time constant.
    pub const_folded: usize,
    /// Buffer/copy instructions propagated away (consumers rewired to
    /// the source slot).
    pub copies_propagated: usize,
    /// Instructions removed as duplicates of an identical earlier
    /// computation (common-subexpression elimination).
    pub deduped: usize,
    /// Instructions removed because no live slot ever reads their
    /// result.
    pub dead_instrs: usize,
    /// Net slots before lowering.
    pub nets_before: usize,
    /// Dense live net slots after dead-net elimination and remapping.
    pub nets_after: usize,
    /// Non-empty combinational levels after lowering.
    pub levels: usize,
    /// Total per-opcode dispatch runs per cycle (one branch each).
    pub runs: usize,
    /// Word instructions the scalar engine's word pass emitted: bus
    /// MUXes, each computing a whole bus as one `u64`.
    pub word_instrs: usize,
    /// One-bit cells those word instructions replaced.
    pub word_cells: usize,
    /// Flip-flop commit entries that each commit a whole bus register.
    pub dff_words: usize,
    /// Flip-flops inside those entries.
    pub dff_word_bits: usize,
    /// Per-opcode run/instruction census, sorted by mnemonic.
    pub ops: Vec<OpCount>,
}

impl LoweringStats {
    /// Net slots eliminated by folding and dead-net elimination.
    pub fn nets_eliminated(&self) -> usize {
        self.nets_before.saturating_sub(self.nets_after)
    }
}

impl fmt::Display for LoweringStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instrs {}->{} (fused={} const={} copies={} cse={} dead={}) nets {}->{} levels={} runs={} words={}/{} dff_words={}/{}",
            self.instrs_before,
            self.instrs_after,
            self.fused,
            self.const_folded,
            self.copies_propagated,
            self.deduped,
            self.dead_instrs,
            self.nets_before,
            self.nets_after,
            self.levels,
            self.runs,
            self.word_instrs,
            self.word_cells,
            self.dff_words,
            self.dff_word_bits,
        )
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nets={} cells={} (gates2={} inv={} mux={} buf={} ff={} const={}) roms={} rom_bits={} io={}/{} levels={}",
            self.nets,
            self.cells,
            self.gates2,
            self.inverters,
            self.muxes,
            self.buffers,
            self.flip_flops,
            self.constants,
            self.roms,
            self.rom_bits,
            self.input_bits,
            self.output_bits,
            self.levels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn stats_census_matches_structure() {
        let mut b = ModuleBuilder::new("s");
        let a = b.input("a", 4);
        let en = b.constant(true);
        let rst = b.constant(false);
        let n = b.not(a.bit(0));
        let g = b.and(n, a.bit(1));
        let m = b.mux(g, a.bit(2), a.bit(3));
        let q = b.dff(m, en, rst, false);
        b.output_bit("q", q);
        let module = b.finish().unwrap();
        let s = NetlistStats::of(&module);
        assert_eq!(s.gates2, 1);
        assert_eq!(s.inverters, 1);
        assert_eq!(s.muxes, 1);
        assert_eq!(s.flip_flops, 1);
        assert_eq!(s.constants, 2);
        assert_eq!(s.input_bits, 4);
        assert_eq!(s.output_bits, 1);
        assert_eq!(s.logic_nodes(), 3);
        assert_eq!(s.cells, module.cell_count());
        // not -> and -> mux is a 3-deep chain.
        assert_eq!(s.levels, 3);
    }

    #[test]
    fn display_mentions_all_fields() {
        let b = ModuleBuilder::new("empty");
        let m = b.finish_unchecked();
        let text = NetlistStats::of(&m).to_string();
        assert!(text.contains("nets=0"));
        assert!(text.contains("rom_bits=0"));
    }
}
