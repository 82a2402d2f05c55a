//! Gate-level synthesis of the synchronization processor (the paper's
//! §3, Figure 2).
//!
//! Architecture, exactly as specified by Bomel et al.:
//!
//! * an **operations memory** — an asynchronous ROM holding the packed
//!   `(input-mask, output-mask, run-cycles)` words, its interface
//!   "reduced to two buses: the operation address and operation word";
//! * an **operation read-counter** "incremented modulo the memory size"
//!   addressing the ROM;
//! * a **three-state concurrent FSM with datapath** (reset at power-up,
//!   operation-read, free-run) with a run-down counter;
//! * FIFO-style port signals (`ne` = not-empty per input port, `nf` =
//!   not-full per output port) and the `enable` line gating the IP clock.
//!
//! The synthesized logic is O(ports) + O(log schedule); the schedule
//! itself lives in ROM bits — the structural reason for Table 1's
//! constant SP area.

use lis_netlist::{Bus, Module, ModuleBuilder, NetId, NetlistError};
use lis_schedule::{OpEncoding, SpProgram};

/// Width of the ROM address (= read counter) for `n_ops` operations.
///
/// Every field of the generated processor is sized from the *program*,
/// never hard-coded: the address/read-counter width from the operation
/// count here, and the run-down counter width from the largest run via
/// [`OpEncoding::minimal_for`] — which is what lets the same generator
/// absorb the roadmap's 10^5-cycle schedules (a 17-bit run field)
/// without touching the logic. The regression test
/// `run_counter_survives_100_000_quiet_cycles` pins this.
fn addr_width(n_ops: usize) -> usize {
    (usize::BITS - (n_ops.max(2) - 1).leading_zeros()) as usize
}

/// Generates the SP wrapper controller for `program`.
///
/// Interface: inputs `rst`, `ne[n_in]`, `nf[n_out]`; outputs `enable`,
/// `pop[n_in]`, `push[n_out]`.
///
/// # Errors
///
/// Propagates netlist validation or operation-encoding errors.
pub fn generate_sp(program: &SpProgram) -> Result<Module, NetlistError> {
    let n_in = program.n_inputs();
    let n_out = program.n_outputs();
    let encoding = OpEncoding::minimal_for(program);
    let words = program
        .encode_words(encoding)
        .expect("minimal encoding always fits");
    let n_ops = program.len();
    let aw = addr_width(n_ops);
    let run_bits = encoding.run_bits;

    let mut b = ModuleBuilder::new("sp_wrapper");
    let rst = b.input("rst", 1).bit(0);
    let ne = b.input("ne", n_in);
    let nf = b.input("nf", n_out);
    let one = b.constant(true);

    // --- Operation read-counter (modulo the memory size). -------------
    let addr_nets: Vec<NetId> = (0..aw).map(|_| b.fresh()).collect();
    let addr = Bus::from_nets(addr_nets);

    // --- Operations memory (asynchronous ROM). -------------------------
    let word = b.rom("ops", &addr, encoding.word_width(), words);
    let in_mask = word.slice(0, n_in);
    let out_mask = word.slice(n_in, n_in + n_out);
    let run_field = word.slice(n_in + n_out, n_in + n_out + run_bits);

    // --- Three-state controller. ---------------------------------------
    // boot: one dead cycle at power-up / reset while the ROM output
    // settles (the paper's reset state).
    let zero = b.constant(false);
    let boot_q = b.dff(zero, one, rst, true);
    b.name_net(boot_q, "state_boot");

    // running: allocated now, driven below (feedback).
    let running_q = b.fresh_named("state_running");

    let not_boot = b.not(boot_q);
    let not_running = b.not(running_q);
    let at_sync = b.and(not_boot, not_running);

    // ready: for every input port, ¬mask ∨ not_empty; dually for outputs.
    let mut ready_terms: Vec<NetId> = Vec::with_capacity(n_in + n_out);
    for i in 0..n_in {
        let n_mask = b.not(in_mask.bit(i));
        let t = b.or(n_mask, ne.bit(i));
        ready_terms.push(t);
    }
    for o in 0..n_out {
        let n_mask = b.not(out_mask.bit(o));
        let t = b.or(n_mask, nf.bit(o));
        ready_terms.push(t);
    }
    let ready = b.reduce_and(&ready_terms);
    b.name_net(ready, "ready");

    let fire_sync = b.and(at_sync, ready);
    b.name_net(fire_sync, "fire_sync");

    // --- Run-down counter. ----------------------------------------------
    // Loaded with run_field (= run_cycles - 1) on a sync fire; decrements
    // while running; run ends when it reaches 1.
    let run_nets: Vec<NetId> = (0..run_bits).map(|_| b.fresh()).collect();
    let run_reg = Bus::from_nets(run_nets);
    let (run_dec, _) = b.decr(&run_reg);
    let run_next_data = b.mux_bus(fire_sync, &run_dec, &run_field);
    let run_en = b.or(fire_sync, running_q);
    let run_q = b.dff_bus(&run_next_data, run_en, rst, 0);
    for i in 0..run_bits {
        b.drive(run_reg.bit(i), run_q.bit(i));
    }

    // Field/remaining comparisons.
    let field_zero = b.is_zero(&run_field);
    let field_nonzero = b.not(field_zero);
    let run_is_one = b.eq_const(&run_reg, 1);

    // State transitions.
    // running' = (fire_sync ∧ field≠0) ∨ (running ∧ remaining≠1)
    let enter_run = b.and(fire_sync, field_nonzero);
    let not_last = b.not(run_is_one);
    let keep_run = b.and(running_q, not_last);
    let running_next = b.or(enter_run, keep_run);
    let running_d = b.dff(running_next, one, rst, false);
    b.drive(running_q, running_d);

    // advance = (fire_sync ∧ field=0) ∨ (running ∧ remaining=1)
    let adv_sync = b.and(fire_sync, field_zero);
    let adv_run = b.and(running_q, run_is_one);
    let advance = b.or(adv_sync, adv_run);
    b.name_net(advance, "advance");

    // Read counter: increments modulo n_ops when advancing.
    let (addr_inc, _) = b.incr(&addr);
    let wrap = b.eq_const(&addr, (n_ops - 1) as u64);
    let addr_zero = b.constant_bus(0, aw);
    let addr_next = b.mux_bus(wrap, &addr_inc, &addr_zero);
    let addr_q = b.dff_bus(&addr_next, advance, rst, 0);
    for i in 0..aw {
        b.drive(addr.bit(i), addr_q.bit(i));
    }

    // --- Outputs. ---------------------------------------------------------
    let enable = b.or(fire_sync, running_q);
    b.output_bit("enable", enable);

    let pop_bits: Vec<NetId> = (0..n_in)
        .map(|i| b.and(fire_sync, in_mask.bit(i)))
        .collect();
    b.output("pop", &Bus::from_nets(pop_bits));

    let push_bits: Vec<NetId> = (0..n_out)
        .map(|o| b.and(fire_sync, out_mask.bit(o)))
        .collect();
    b.output("push", &Bus::from_nets(push_bits));

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_schedule::{compress, ScheduleBuilder};
    use lis_sim::NetlistSim;

    fn viterbi_like_program() -> SpProgram {
        let s = ScheduleBuilder::new(2, 1)
            .read(0)
            .read(1)
            .quiet(5)
            .write(0)
            .build()
            .unwrap();
        compress(&s)
    }

    #[test]
    fn sp_netlist_validates_and_has_rom() {
        let p = viterbi_like_program();
        let m = generate_sp(&p).unwrap();
        assert_eq!(m.roms.len(), 1);
        assert_eq!(m.roms[0].contents.len(), 3);
        assert!(m.input("ne").is_some());
        assert!(m.output("enable").is_some());
    }

    #[test]
    fn sp_netlist_boots_then_waits() {
        let p = viterbi_like_program();
        let m = generate_sp(&p).unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("ne", 0b00).unwrap();
        sim.set_input("nf", 0b1).unwrap();
        // Boot cycle: no enable.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 0);
        sim.step();
        // At sync, port 0 empty: still no enable.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 0);
        sim.step();
        // Data arrives on port 0: fires with pop=01.
        sim.set_input("ne", 0b01).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 1);
        assert_eq!(sim.get_output("pop").unwrap(), 0b01);
        assert_eq!(sim.get_output("push").unwrap(), 0);
    }

    #[test]
    fn sp_netlist_free_runs_after_sync() {
        let p = viterbi_like_program();
        let m = generate_sp(&p).unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("nf", 1).unwrap();
        sim.set_input("ne", 0b11).unwrap();
        sim.step(); // boot
        sim.step(); // op0: read port 0 (run 1)
        sim.step(); // op1: read port 1 (run 6: 1 sync + 5 quiet)
                    // Now free-running: 5 cycles of enable with no pops, regardless
                    // of port state.
        sim.set_input("ne", 0b00).unwrap();
        sim.set_input("nf", 0).unwrap();
        for cycle in 0..5 {
            sim.eval();
            assert_eq!(
                sim.get_output("enable").unwrap(),
                1,
                "free-run cycle {cycle}"
            );
            assert_eq!(sim.get_output("pop").unwrap(), 0);
            sim.step();
        }
        // Back at a sync point (the write): waits for nf.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 0);
        sim.set_input("nf", 1).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 1);
        assert_eq!(sim.get_output("push").unwrap(), 1);
    }

    #[test]
    fn sp_logic_size_is_independent_of_schedule_length() {
        let short = {
            let s = ScheduleBuilder::new(4, 4)
                .io([0, 1, 2, 3], [0, 1, 2, 3])
                .quiet(7)
                .build()
                .unwrap();
            generate_sp(&compress(&s)).unwrap()
        };
        let long = {
            let s = ScheduleBuilder::new(4, 4)
                .io([0, 1, 2, 3], [0, 1, 2, 3])
                .quiet(4095)
                .build()
                .unwrap();
            generate_sp(&compress(&s)).unwrap()
        };
        let gates = |m: &Module| {
            m.cells
                .iter()
                .filter(|c| c.kind.is_combinational_logic())
                .count()
        };
        let g_short = gates(&short);
        let g_long = gates(&long);
        // 512× longer schedule: logic grows only with the run-counter
        // width (a log factor — 3 bits to 12 bits here), so well under
        // 2×, where an FSM would grow ~512×.
        assert!(
            g_long <= g_short * 2,
            "short={g_short} long={g_long}: SP logic must not scale with schedule length"
        );
        assert!(long.rom_bits() > short.rom_bits());
    }

    /// The roadmap's long-schedule stress case: a single operation
    /// free-running for 100_000 quiet cycles. The run field must be
    /// sized from the max run (17 bits here), the run-down counter must
    /// count the whole run without wrapping, and the processor must
    /// return to a synchronization point exactly on time.
    #[test]
    fn run_counter_survives_100_000_quiet_cycles() {
        use lis_schedule::{compress_bursty, OpEncoding};
        use lis_sim::JitNetlistSim;

        let s = ScheduleBuilder::new(1, 1)
            .read(0)
            .quiet(100_000)
            .write(0)
            .build()
            .unwrap();
        let p = compress(&s);
        assert_eq!(p.len(), 2);
        assert_eq!(p.ops()[0].run_cycles, 100_001);
        assert_eq!(p.period(), 100_002);
        // Burst compression folds the same way for this shape.
        assert_eq!(compress_bursty(&s), p);
        // The run field is sized from the max run, not a fixed width.
        assert_eq!(OpEncoding::minimal_for(&p).run_bits, 17);

        let m = generate_sp(&p).unwrap();
        let mut sim = JitNetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("ne", 0b1).unwrap();
        sim.set_input("nf", 0b1).unwrap();
        sim.step(); // boot
                    // Sync cycle of op 0: pops port 0.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 1);
        assert_eq!(sim.get_output("pop").unwrap(), 0b1);
        sim.step();
        // 100_000 free-run cycles, regardless of port state.
        sim.set_input("ne", 0).unwrap();
        sim.set_input("nf", 0).unwrap();
        for cycle in 0..100_000u32 {
            sim.eval();
            assert_eq!(sim.get_output("enable").unwrap(), 1, "free-run {cycle}");
            assert_eq!(sim.get_output("pop").unwrap(), 0, "free-run {cycle}");
            sim.step();
        }
        // Back at the write sync point: waits for nf, then pushes.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 0, "must stop after run");
        sim.set_input("nf", 0b1).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 1);
        assert_eq!(sim.get_output("push").unwrap(), 0b1);
    }

    #[test]
    fn reset_restarts_the_program() {
        let p = viterbi_like_program();
        let m = generate_sp(&p).unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("ne", 0b11).unwrap();
        sim.set_input("nf", 1).unwrap();
        for _ in 0..5 {
            sim.step();
        }
        // Pulse reset.
        sim.set_input("rst", 1).unwrap();
        sim.step();
        sim.set_input("rst", 0).unwrap();
        // Boot cycle again.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 0);
        sim.step();
        // Then op 0 (pop port 0) again.
        sim.eval();
        assert_eq!(sim.get_output("pop").unwrap(), 0b01);
    }
}
