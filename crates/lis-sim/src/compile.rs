//! Netlist compilation: the levelized program the JIT engines lower.
//!
//! [`NetlistSim`](crate::NetlistSim) re-walks the topological order every
//! cycle, chasing `NetId`s through the module and allocating a scratch
//! vector per cell. For the co-simulation sweeps and the 10^5-cycle
//! schedules on the roadmap that interpretation overhead dominates wall
//! time, so this module lowers a validated [`Module`] **once** into a
//! [`NetlistProgram`] — a flat, levelized instruction stream over dense
//! net slots with every operand index pre-resolved and ROM tables baked
//! in. The program is an internal IR: [`crate::JitNetlistProgram`]
//! post-processes it into the fused run-sorted form that
//! [`crate::JitNetlistSim`] and [`crate::JitPackedNetlistSim`] execute.

use lis_netlist::{levelize, CellKind, CombNode, Module, NetlistError};

/// One combinational instruction. Operands `a`/`b`/`c` and `dest` are
/// net-slot indices (pin order follows [`CellKind`]); for
/// [`OpCode::Rom`], `a` indexes [`NetlistProgram::roms`] instead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub(crate) op: OpCode,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    pub(crate) dest: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpCode {
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    Not,
    Buf,
    Mux,
    Rom,
}

/// A flip-flop with its pin slots pre-resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledDff {
    pub(crate) d: u32,
    pub(crate) en: u32,
    pub(crate) rst: u32,
    pub(crate) q: u32,
    pub(crate) reset_value: bool,
}

/// A ROM with address/data slots pre-resolved and contents baked in.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRom {
    pub(crate) addr: Vec<u32>,
    pub(crate) data: Vec<u32>,
    pub(crate) contents: Vec<u64>,
}

/// A [`Module`] lowered to a levelized, flat instruction stream: the
/// input IR of [`crate::JitNetlistProgram::compile`].
#[derive(Debug, Clone)]
pub(crate) struct NetlistProgram {
    /// Number of net slots (one per module net).
    pub(crate) slots: usize,
    /// Levelized combinational stream (constants excluded — they are
    /// applied once at initialization and never change).
    pub(crate) instrs: Vec<Instr>,
    /// `instrs[level_starts[l]..level_starts[l + 1]]` is level `l`.
    pub(crate) level_starts: Vec<usize>,
    /// Constant drivers, applied at initialization.
    pub(crate) consts: Vec<(u32, bool)>,
    pub(crate) dffs: Vec<CompiledDff>,
    pub(crate) roms: Vec<CompiledRom>,
    /// `(name, bit slots)` per input port, in module order.
    pub(crate) inputs: Vec<(String, Vec<u32>)>,
    /// `(name, bit slots)` per output port, in module order.
    pub(crate) outputs: Vec<(String, Vec<u32>)>,
}

impl NetlistProgram {
    /// Lowers `module` into a levelized instruction stream.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating or levelizing
    /// the module.
    pub(crate) fn compile(module: &Module) -> Result<Self, NetlistError> {
        lis_netlist::validate(module)?;
        let lv = levelize(module)?;
        let slot = |n: lis_netlist::NetId| n.index() as u32;

        let mut instrs = Vec::new();
        let mut level_starts = vec![0usize];
        let mut consts = Vec::new();
        let mut roms = Vec::new();
        for l in 0..lv.depth() {
            for &node in lv.level(l) {
                match node {
                    CombNode::Cell(cid) => {
                        let cell = module.cell(cid);
                        // validate() does not check pin counts (Cell::new
                        // does, but the fields are public); fail as
                        // loudly as the interpreter would rather than
                        // silently reading slot 0 for a missing operand.
                        assert_eq!(
                            cell.inputs.len(),
                            cell.kind.arity(),
                            "cell {cid} ({}) expects {} inputs, got {}",
                            cell.kind,
                            cell.kind.arity(),
                            cell.inputs.len()
                        );
                        let pin = |i: usize| cell.inputs.get(i).copied().map(slot).unwrap_or(0);
                        let op = match cell.kind {
                            CellKind::And => OpCode::And,
                            CellKind::Or => OpCode::Or,
                            CellKind::Xor => OpCode::Xor,
                            CellKind::Nand => OpCode::Nand,
                            CellKind::Nor => OpCode::Nor,
                            CellKind::Xnor => OpCode::Xnor,
                            CellKind::Not => OpCode::Not,
                            CellKind::Buf => OpCode::Buf,
                            CellKind::Mux => OpCode::Mux,
                            CellKind::Const(v) => {
                                consts.push((slot(cell.output), v));
                                continue;
                            }
                            CellKind::Dff { .. } => {
                                unreachable!("levelization excludes sequential cells")
                            }
                        };
                        instrs.push(Instr {
                            op,
                            a: pin(0),
                            b: pin(1),
                            c: pin(2),
                            dest: slot(cell.output),
                        });
                    }
                    CombNode::Rom(rid) => {
                        let rom = module.rom(rid);
                        let idx = roms.len() as u32;
                        roms.push(CompiledRom {
                            addr: rom.addr.iter().copied().map(slot).collect(),
                            data: rom.data.iter().copied().map(slot).collect(),
                            contents: rom.contents.clone(),
                        });
                        instrs.push(Instr {
                            op: OpCode::Rom,
                            a: idx,
                            b: 0,
                            c: 0,
                            dest: 0,
                        });
                    }
                }
            }
            level_starts.push(instrs.len());
        }

        let dffs = module
            .cells
            .iter()
            .filter_map(|cell| match cell.kind {
                CellKind::Dff { reset_value } => Some(CompiledDff {
                    d: slot(cell.inputs[0]),
                    en: slot(cell.inputs[1]),
                    rst: slot(cell.inputs[2]),
                    q: slot(cell.output),
                    reset_value,
                }),
                _ => None,
            })
            .collect();

        let port_slots = |ports: &[lis_netlist::Port]| {
            ports
                .iter()
                .map(|p| (p.name.clone(), p.bits.iter().copied().map(slot).collect()))
                .collect()
        };

        Ok(NetlistProgram {
            slots: module.net_count(),
            instrs,
            level_starts,
            consts,
            dffs,
            roms,
            inputs: port_slots(&module.inputs),
            outputs: port_slots(&module.outputs),
        })
    }
}

#[cfg(test)]
mod tests {
    //! The compiled program end to end: lowered by the JIT and executed
    //! by its scalar and 64-lane engines.

    use super::*;
    use crate::{JitNetlistSim, JitPackedNetlistSim, NetlistExec, NetlistSim, LANES};
    use lis_netlist::ModuleBuilder;

    fn adder_module() -> Module {
        let mut b = ModuleBuilder::new("add4");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let (sum, cout) = b.add(&x, &y);
        b.output("sum", &sum);
        b.output_bit("cout", cout);
        b.finish().unwrap()
    }

    fn rom_module() -> Module {
        let mut b = ModuleBuilder::new("romtest");
        let addr = b.input("addr", 3);
        let data = b.rom("r", &addr, 8, vec![7, 14, 21, 28, 35, 42, 49, 56]);
        b.output("data", &data);
        b.finish().unwrap()
    }

    #[test]
    fn compiled_adder_is_exhaustively_correct() {
        let mut sim = JitPackedNetlistSim::new(adder_module()).unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                sim.set_input_all("x", x).unwrap();
                sim.set_input_all("y", y).unwrap();
                sim.eval();
                for lane in [0, LANES - 1] {
                    assert_eq!(sim.get_output_lane(lane, "sum").unwrap(), (x + y) & 0xF);
                    assert_eq!(sim.get_output_lane(lane, "cout").unwrap(), (x + y) >> 4);
                }
            }
        }
    }

    #[test]
    fn compiled_counter_matches_interpreter() {
        let mut b = ModuleBuilder::new("cnt");
        let en = b.input("en", 1).bit(0);
        let rst = b.input("rst", 1).bit(0);
        let count = b.counter_mod(4, en, rst, 10);
        b.output("count", &count);
        let m = b.finish().unwrap();
        let mut interp = NetlistSim::new(m.clone()).unwrap();
        let mut packed = JitPackedNetlistSim::new(m).unwrap();
        for cycle in 0..40u64 {
            let en = u64::from(cycle % 3 != 0);
            let rst = u64::from(cycle == 25);
            for s in [&mut interp as &mut dyn NetlistExec, &mut packed] {
                s.set_input("en", en).unwrap();
                s.set_input("rst", rst).unwrap();
                s.eval();
            }
            assert_eq!(
                interp.get_output("count").unwrap(),
                packed.get_output_lane(LANES - 1, "count").unwrap(),
                "cycle {cycle}"
            );
            interp.step();
            packed.step();
        }
    }

    #[test]
    fn compiled_rom_reads_match_contents() {
        let mut b = ModuleBuilder::new("romtest");
        let addr = b.input("addr", 3);
        let data = b.rom("r", &addr, 8, vec![10, 20, 30, 40, 50]);
        b.output("data", &data);
        let m = b.finish().unwrap();
        let mut sim = JitNetlistSim::new(m).unwrap();
        for (a, expect) in [(0, 10), (1, 20), (4, 50), (6, 0)] {
            sim.set_input("addr", a).unwrap();
            sim.eval();
            assert_eq!(sim.get_output("data").unwrap(), expect);
        }
    }

    #[test]
    fn packed_lanes_are_independent() {
        let mut sim = JitPackedNetlistSim::new(adder_module()).unwrap();
        for lane in 0..LANES {
            sim.set_input_lane(lane, "x", lane as u64 & 0xF).unwrap();
            sim.set_input_lane(lane, "y", (lane as u64 >> 2) & 0xF)
                .unwrap();
        }
        sim.eval();
        for lane in 0..LANES {
            let x = lane as u64 & 0xF;
            let y = (lane as u64 >> 2) & 0xF;
            assert_eq!(
                sim.get_output_lane(lane, "sum").unwrap(),
                (x + y) & 0xF,
                "lane {lane}"
            );
            assert_eq!(sim.get_output_lane(lane, "cout").unwrap(), (x + y) >> 4);
        }
    }

    #[test]
    fn packed_dff_state_is_per_lane() {
        let mut b = ModuleBuilder::new("cnt");
        let en = b.input("en", 1).bit(0);
        let rst = b.input("rst", 1).bit(0);
        let count = b.counter_mod(4, en, rst, 16);
        b.output("count", &count);
        let m = b.finish().unwrap();
        let mut sim = JitPackedNetlistSim::new(m).unwrap();
        let en_h = sim.input_handle("en").unwrap();
        sim.set_input_all("rst", 0).unwrap();
        // Even lanes count every cycle, odd lanes never.
        let even = 0x5555_5555_5555_5555u64;
        sim.set_input_bit_lanes(en_h, 0, even);
        for _ in 0..5 {
            sim.step();
        }
        sim.eval();
        assert_eq!(sim.get_output_lane(0, "count").unwrap(), 5);
        assert_eq!(sim.get_output_lane(1, "count").unwrap(), 0);
        assert_eq!(sim.get_output_lane(2, "count").unwrap(), 5);
        // Reset restores every lane.
        sim.reset_state();
        sim.eval();
        assert_eq!(sim.get_output_lane(0, "count").unwrap(), 0);
    }

    #[test]
    fn packed_rom_gathers_per_lane_addresses() {
        let mut sim = JitPackedNetlistSim::new(rom_module()).unwrap();
        for lane in 0..LANES {
            sim.set_input_lane(lane, "addr", (lane % 8) as u64).unwrap();
        }
        sim.eval();
        for lane in 0..LANES {
            assert_eq!(
                sim.get_output_lane(lane, "data").unwrap(),
                7 * ((lane % 8) as u64 + 1),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn packed_rom_shared_address_fast_path_matches_general() {
        // All lanes share one address -> the gather takes the single-
        // lookup fast path; mixed per-lane addresses take the general
        // per-lane path. Both must agree with the interpreter.
        let mut scalar = NetlistSim::new(rom_module()).unwrap();
        let mut packed = JitPackedNetlistSim::new(rom_module()).unwrap();
        for a in 0..8u64 {
            // Shared-address: every lane drives the same address.
            packed.set_input_all("addr", a).unwrap();
            packed.eval();
            scalar.set_input("addr", a).unwrap();
            scalar.eval();
            let expect = scalar.get_output("data").unwrap();
            for lane in 0..LANES {
                assert_eq!(
                    packed.get_output_lane(lane, "data").unwrap(),
                    expect,
                    "shared addr {a} lane {lane}"
                );
            }
        }
        // Mixed addresses in the same program exercise the general
        // path and must still match the interpreter lane-by-lane.
        for lane in 0..LANES {
            packed
                .set_input_lane(lane, "addr", (lane % 7) as u64)
                .unwrap();
        }
        packed.eval();
        for lane in 0..LANES {
            scalar.set_input("addr", (lane % 7) as u64).unwrap();
            scalar.eval();
            assert_eq!(
                packed.get_output_lane(lane, "data").unwrap(),
                scalar.get_output("data").unwrap(),
                "mixed addr lane {lane}"
            );
        }
    }

    #[test]
    fn program_reports_levelized_shape() {
        let m = adder_module();
        let prog = NetlistProgram::compile(&m).unwrap();
        // A 4-bit ripple adder has a deep carry chain.
        assert!(prog.level_starts.len() > 4);
        assert_eq!(prog.instrs.len(), m.cell_count() - 1); // minus const
    }

    #[test]
    fn netlist_exec_broadcast_surface_on_packed() {
        let mut sim = JitPackedNetlistSim::new(adder_module()).unwrap();
        NetlistExec::set_input(&mut sim, "x", 6).unwrap();
        NetlistExec::set_input(&mut sim, "y", 7).unwrap();
        NetlistExec::eval(&mut sim);
        assert_eq!(NetlistExec::get_output(&sim, "sum").unwrap(), 13);
        assert_eq!(sim.get_output_lane(63, "sum").unwrap(), 13);
    }
}
