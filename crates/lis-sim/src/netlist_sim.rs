//! Cycle-accurate interpretation of gate-level [`Module`]s.
//!
//! [`NetlistSim`] is the reference executor for generated wrapper
//! hardware: `lis-wrappers` proves each wrapper netlist equivalent to its
//! behavioural model by co-simulating both on random stimuli. The JIT
//! engines ([`crate::JitNetlistSim`], [`crate::JitPackedNetlistSim`])
//! are proven equivalent to this interpreter property-test by
//! property-test, which is why the
//! interpreter stays deliberately simple: it re-walks the topological
//! order every cycle and evaluates one cell at a time.

use crate::kernel::SimError;
use lis_netlist::{topo_order, CellKind, CombNode, Module, NetlistError};

/// Common surface over netlist executors: the interpreting
/// [`NetlistSim`], the fused direct-threaded [`crate::JitNetlistSim`],
/// and the 64-lane [`crate::JitPackedNetlistSim`] (broadcast inputs,
/// lane-0 outputs) expose identical two-phase semantics, so the
/// equivalence suites drive all three through one call sequence.
///
/// # Examples
///
/// Drive a generated gate-level wrapper through any engine — the
/// README's "netlist execution engines" table, runnable:
///
/// ```
/// use lis_netlist::ModuleBuilder;
/// use lis_sim::{JitNetlistSim, JitPackedNetlistSim, NetlistExec, NetlistSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A gate-level mod-3 counter.
/// let mut b = ModuleBuilder::new("counter");
/// let en = b.constant(true);
/// let rst = b.constant(false);
/// let q = b.counter_mod(2, en, rst, 3);
/// b.output("q", &q);
/// let module = b.finish()?;
///
/// // Interpreter, scalar JIT and packed JIT behind the same trait.
/// let mut engines: Vec<Box<dyn NetlistExec>> = vec![
///     Box::new(NetlistSim::new(module.clone())?),
///     Box::new(JitNetlistSim::new(module.clone())?),
///     Box::new(JitPackedNetlistSim::new(module)?),
/// ];
/// for engine in &mut engines {
///     let counts: Vec<u64> = (0..5)
///         .map(|_| {
///             engine.eval();
///             let q = engine.get_output("q").expect("port exists");
///             engine.step();
///             q
///         })
///         .collect();
///     assert_eq!(counts, vec![0, 1, 2, 0, 1], "mod-3 wrap-around");
/// }
/// # Ok(())
/// # }
/// ```
pub trait NetlistExec: Send {
    /// The module being executed.
    fn module(&self) -> &Module;

    /// Resets all flip-flops to their power-up values.
    fn reset_state(&mut self);

    /// Drives an input port with `value` (LSB-first). Bits beyond 64
    /// (ports wider than the stimulus word) are driven to 0.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    fn set_input(&mut self, port: &str, value: u64) -> Result<(), SimError>;

    /// Reads an output port (valid after [`NetlistExec::eval`]). Ports
    /// wider than 64 bits return their low 64 bits.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no output port has that name.
    fn get_output(&self, port: &str) -> Result<u64, SimError>;

    /// Settles combinational logic for the current cycle.
    fn eval(&mut self);

    /// One clock cycle: [`NetlistExec::eval`] then commit flip-flops.
    fn step(&mut self);

    /// One clock cycle, reporting whether any flip-flop changed value —
    /// the quiescence probe of the component kernel's activity tracking
    /// (unchanged state + unchanged inputs means the next cycle is a
    /// no-op). The default conservatively steps and reports `true`;
    /// engines override it with an exact commit-time comparison.
    fn step_changed(&mut self) -> bool {
        self.step();
        true
    }
}

fn unknown_port(module: &Module, port: &str, output: bool) -> SimError {
    SimError::UnknownPort {
        module: module.name.clone(),
        port: port.to_owned(),
        output,
    }
}

/// An interpreter for one [`Module`], with two-phase semantics matching
/// [`crate::System`]: [`NetlistSim::eval`] settles combinational logic,
/// [`NetlistSim::step`] additionally commits flip-flops.
#[derive(Debug, Clone)]
pub struct NetlistSim {
    module: Module,
    order: Vec<CombNode>,
    /// Current value of every net.
    values: Vec<bool>,
    /// Registered state, indexed like `module.cells` (non-DFF entries
    /// unused).
    ff_state: Vec<bool>,
    /// Indices of sequential cells, for fast commit.
    seq_cells: Vec<usize>,
}

impl NetlistSim {
    /// Builds an interpreter for `module`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating the module
    /// (interpretation requires the module invariants to hold).
    pub fn new(module: Module) -> Result<Self, NetlistError> {
        lis_netlist::validate(&module)?;
        let order = topo_order(&module)?;
        let values = vec![false; module.net_count()];
        let mut ff_state = vec![false; module.cell_count()];
        let mut seq_cells = Vec::new();
        for (i, cell) in module.cells.iter().enumerate() {
            if let CellKind::Dff { reset_value } = cell.kind {
                ff_state[i] = reset_value;
                seq_cells.push(i);
            }
        }
        Ok(NetlistSim {
            module,
            order,
            values,
            ff_state,
            seq_cells,
        })
    }

    /// The module being interpreted.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Resets all flip-flops to their power-up values.
    pub fn reset_state(&mut self) {
        for &i in &self.seq_cells {
            if let CellKind::Dff { reset_value } = self.module.cells[i].kind {
                self.ff_state[i] = reset_value;
            }
        }
    }

    /// The registered flip-flop state, in module cell order (the layout
    /// of [`crate::JitNetlistSim::dff_state`]).
    pub fn dff_state(&self) -> Vec<bool> {
        self.seq_cells.iter().map(|&i| self.ff_state[i]).collect()
    }

    /// Restores flip-flop state captured by [`NetlistSim::dff_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per flip-flop.
    pub fn set_dff_state(&mut self, state: &[bool]) {
        assert_eq!(
            state.len(),
            self.seq_cells.len(),
            "dff state length mismatch"
        );
        for (&i, &q) in self.seq_cells.iter().zip(state) {
            self.ff_state[i] = q;
        }
    }

    /// Drives an input port with `value` (LSB-first).
    ///
    /// Ports wider than 64 bits are driven explicitly: bit `i >= 64`
    /// gets 0 (the stimulus word simply is not that wide).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no input port has that name.
    pub fn set_input(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        let port = self
            .module
            .input(port)
            .ok_or_else(|| unknown_port(&self.module, port, false))?;
        for (i, bit) in port.bits.iter().enumerate() {
            self.values[bit.index()] = i < 64 && (value >> i) & 1 == 1;
        }
        Ok(())
    }

    /// Reads an output port (valid after [`NetlistSim::eval`]). Ports
    /// wider than 64 bits return their low 64 bits.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if no output port has that name.
    pub fn get_output(&self, port: &str) -> Result<u64, SimError> {
        let port = self
            .module
            .output(port)
            .ok_or_else(|| unknown_port(&self.module, port, true))?;
        let mut v = 0u64;
        for (i, bit) in port.bits.iter().enumerate().take(64) {
            if self.values[bit.index()] {
                v |= 1 << i;
            }
        }
        Ok(v)
    }

    /// Reads the current value of an arbitrary net (for debugging).
    pub fn net_value(&self, net: lis_netlist::NetId) -> bool {
        self.values[net.index()]
    }

    /// Settles combinational logic: flip-flop outputs take their stored
    /// state, then every gate and ROM evaluates in topological order.
    pub fn eval(&mut self) {
        // Phase 1: present registered state on DFF output nets.
        for &i in &self.seq_cells {
            let out = self.module.cells[i].output;
            self.values[out.index()] = self.ff_state[i];
        }
        // Phase 2: combinational propagation.
        for &node in &self.order {
            match node {
                CombNode::Cell(cid) => {
                    let cell = self.module.cell(cid);
                    let inputs: Vec<bool> =
                        cell.inputs.iter().map(|n| self.values[n.index()]).collect();
                    self.values[cell.output.index()] = cell.kind.eval(&inputs);
                }
                CombNode::Rom(rid) => {
                    let rom = self.module.rom(rid);
                    let mut addr = 0usize;
                    for (i, a) in rom.addr.iter().enumerate() {
                        if self.values[a.index()] {
                            addr |= 1 << i;
                        }
                    }
                    let word = rom.read(addr);
                    for (i, d) in rom.data.iter().enumerate() {
                        self.values[d.index()] = (word >> i) & 1 == 1;
                    }
                }
            }
        }
    }

    /// One clock cycle: [`NetlistSim::eval`] then commit every flip-flop
    /// (`q' = rst ? reset_value : (en ? d : q)`).
    pub fn step(&mut self) {
        self.step_changed();
    }

    /// [`NetlistSim::step`], reporting whether any flip-flop changed.
    pub fn step_changed(&mut self) -> bool {
        self.eval();
        let mut changed = false;
        for &i in &self.seq_cells {
            let cell = &self.module.cells[i];
            let CellKind::Dff { reset_value } = cell.kind else {
                unreachable!("seq_cells holds only DFFs");
            };
            let d = self.values[cell.inputs[0].index()];
            let en = self.values[cell.inputs[1].index()];
            let rst = self.values[cell.inputs[2].index()];
            let q = if rst {
                reset_value
            } else if en {
                d
            } else {
                self.ff_state[i]
            };
            changed |= q != self.ff_state[i];
            self.ff_state[i] = q;
        }
        changed
    }
}

impl NetlistExec for NetlistSim {
    fn module(&self) -> &Module {
        NetlistSim::module(self)
    }

    fn reset_state(&mut self) {
        NetlistSim::reset_state(self);
    }

    fn set_input(&mut self, port: &str, value: u64) -> Result<(), SimError> {
        NetlistSim::set_input(self, port, value)
    }

    fn get_output(&self, port: &str) -> Result<u64, SimError> {
        NetlistSim::get_output(self, port)
    }

    fn eval(&mut self) {
        NetlistSim::eval(self);
    }

    fn step(&mut self) {
        NetlistSim::step(self);
    }

    fn step_changed(&mut self) -> bool {
        NetlistSim::step_changed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn combinational_adder_is_exhaustively_correct() {
        let mut sim = NetlistSim::new(adder_module()).unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                sim.set_input("x", x).unwrap();
                sim.set_input("y", y).unwrap();
                sim.eval();
                assert_eq!(sim.get_output("sum").unwrap(), (x + y) & 0xF, "x={x} y={y}");
                assert_eq!(sim.get_output("cout").unwrap(), (x + y) >> 4, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn unknown_ports_are_reported_not_panicked() {
        let mut sim = NetlistSim::new(adder_module()).unwrap();
        let err = sim.set_input("nope", 1).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownPort {
                module: "add4".into(),
                port: "nope".into(),
                output: false,
            }
        );
        assert!(err.to_string().contains("no input port named nope"));
        let err = sim.get_output("sum_typo").unwrap_err();
        assert!(matches!(err, SimError::UnknownPort { output: true, .. }));
        // Output ports are not inputs and vice versa.
        assert!(sim.set_input("sum", 1).is_err());
        assert!(sim.get_output("x").is_err());
    }

    #[test]
    fn ports_wider_than_64_bits_are_masked_not_panicking() {
        let mut b = ModuleBuilder::new("wide");
        let a = b.input("a", 80);
        b.output("y", &a);
        let m = b.finish().unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        // Would shift-overflow (`value >> 64`) before the fix.
        sim.set_input("a", u64::MAX).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("y").unwrap(), u64::MAX);
    }

    #[test]
    fn counter_module_counts_modulo() {
        let mut b = ModuleBuilder::new("cnt");
        let en = b.input("en", 1).bit(0);
        let rst = b.input("rst", 1).bit(0);
        let count = b.counter_mod(4, en, rst, 10);
        b.output("count", &count);
        let m = b.finish().unwrap();
        let mut sim = NetlistSim::new(m).unwrap();

        sim.set_input("en", 1).unwrap();
        sim.set_input("rst", 0).unwrap();
        for expect in 0..25u64 {
            sim.eval();
            assert_eq!(sim.get_output("count").unwrap(), expect % 10);
            sim.step();
        }
        // Hold: en=0 freezes the count.
        sim.set_input("en", 0).unwrap();
        let frozen = {
            sim.eval();
            sim.get_output("count").unwrap()
        };
        for _ in 0..5 {
            sim.step();
            sim.eval();
            assert_eq!(sim.get_output("count").unwrap(), frozen);
        }
        // Synchronous reset.
        sim.set_input("rst", 1).unwrap();
        sim.step();
        sim.set_input("rst", 0).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("count").unwrap(), 0);
    }

    #[test]
    fn rom_reads_through_interpreter() {
        let mut b = ModuleBuilder::new("romtest");
        let addr = b.input("addr", 3);
        let data = b.rom("r", &addr, 8, vec![10, 20, 30, 40, 50]);
        b.output("data", &data);
        let m = b.finish().unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        for (a, expect) in [(0, 10), (1, 20), (4, 50), (6, 0)] {
            sim.set_input("addr", a).unwrap();
            sim.eval();
            assert_eq!(sim.get_output("data").unwrap(), expect);
        }
    }

    #[test]
    fn reset_state_restores_power_up_values() {
        let mut b = ModuleBuilder::new("ff");
        let d = b.input("d", 1).bit(0);
        let one = b.constant(true);
        let zero = b.constant(false);
        let q = b.dff(d, one, zero, true);
        b.output_bit("q", q);
        let m = b.finish().unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("q").unwrap(), 1, "power-up value");
        sim.set_input("d", 0).unwrap();
        sim.step();
        sim.eval();
        assert_eq!(sim.get_output("q").unwrap(), 0);
        sim.reset_state();
        sim.eval();
        assert_eq!(sim.get_output("q").unwrap(), 1);
    }
}
