//! Gate-level synthesis of the wrapper's FIFO ports (the input/output
//! port blocks of the paper's Figures 1 and 2) and assembly of the
//! *complete* synchronization wrapper — controller plus ports — as one
//! flat netlist.
//!
//! Each port is the 2-deep queue of `lis-proto`'s behavioural adapters,
//! in gates: two payload registers, a 2-bit occupancy counter, and the
//! LIS-side protocol logic (registered-by-construction `stop`,
//! combinational `void`).

use lis_netlist::{Bus, Module, ModuleBuilder, NetId, NetlistError};

/// Generates a 2-deep input port: LIS channel in, FIFO face out.
///
/// Interface — inputs: `rst`, `data_in[width]`, `void_in`, `pop`;
/// outputs: `stop_out`, `q[width]`, `not_empty`.
pub fn generate_input_port(width: usize) -> Result<Module, NetlistError> {
    let mut b = ModuleBuilder::new("input_port");
    let rst = b.input("rst", 1).bit(0);
    let data_in = b.input("data_in", width);
    let void_in = b.input("void_in", 1).bit(0);
    let pop = b.input("pop", 1).bit(0);
    let one = b.constant(true);

    // Occupancy counter (0, 1, 2) and its decodes, with feedback nets.
    let cnt_nets: Vec<NetId> = (0..2).map(|_| b.fresh()).collect();
    let cnt = Bus::from_nets(cnt_nets);
    let is0 = b.eq_const(&cnt, 0);
    let is1 = b.eq_const(&cnt, 1);
    let is2 = b.eq_const(&cnt, 2);

    // Transfers this cycle. `stop` presented = full; a transfer happens
    // only when we are not full (the producer honours our stop).
    let valid = b.not(void_in);
    let not_full_now = b.not(is2);
    let intake = b.and(valid, not_full_now);
    let not_empty = b.not(is0);
    // Popping an empty queue is a shell bug; the hardware simply does
    // not underflow the counter.
    let pop_act = b.and(pop, not_empty);

    // Next occupancy: +1 on intake-only, −1 on pop-only.
    let no_pop = b.not(pop_act);
    let up = b.and(intake, no_pop);
    let no_intake = b.not(intake);
    let down = b.and(pop_act, no_intake);
    let (inc, _) = b.incr(&cnt);
    let (dec, _) = b.decr(&cnt);
    let after_up = b.mux_bus(up, &cnt, &inc);
    let next_cnt = b.mux_bus(down, &after_up, &dec);
    let cnt_q = b.dff_bus(&next_cnt, one, rst, 0);
    for i in 0..2 {
        b.drive(cnt.bit(i), cnt_q.bit(i));
    }

    // Payload registers: reg0 = head, reg1 = tail.
    let reg0_nets: Vec<NetId> = (0..width).map(|_| b.fresh()).collect();
    let reg0 = Bus::from_nets(reg0_nets);
    let reg1_nets: Vec<NetId> = (0..width).map(|_| b.fresh()).collect();
    let reg1 = Bus::from_nets(reg1_nets);

    // Head register loads: on pop (shift from tail, or straight from the
    // wire when the queue is simultaneously refilled while count = 1),
    // or on intake into an empty queue.
    // reg0' = pop ? (cnt==1 && intake ? data_in : reg1)
    //             : (cnt==0 && intake ? data_in : reg0)
    let refill_head = b.and(is1, intake);
    let into_empty = b.and(is0, intake);
    let shifted = b.mux_bus(refill_head, &reg1, &data_in);
    let loaded = b.mux_bus(into_empty, &reg0, &data_in);
    let reg0_next = b.mux_bus(pop_act, &loaded, &shifted);
    let head_en_a = b.or(pop_act, into_empty);
    let reg0_q = b.dff_bus(&reg0_next, head_en_a, rst, 0);
    for i in 0..width {
        b.drive(reg0.bit(i), reg0_q.bit(i));
    }

    // Tail register loads on intake when one item is (still) present:
    // cnt==1 and no pop, or cnt==2 with pop (slot frees this edge).
    let keep_one = b.and(is1, no_pop);
    let rotate_full = b.and(is2, pop_act);
    let tail_cases = b.or(keep_one, rotate_full);
    let tail_en = b.and(intake, tail_cases);
    let reg1_q = b.dff_bus(&data_in, tail_en, rst, 0);
    for i in 0..width {
        b.drive(reg1.bit(i), reg1_q.bit(i));
    }

    b.output_bit("stop_out", is2);
    b.output("q", &reg0);
    b.output_bit("not_empty", not_empty);
    b.finish()
}

/// Generates a 2-deep output port: FIFO face in, LIS channel out.
///
/// Interface — inputs: `rst`, `d[width]`, `push`, `stop_in`;
/// outputs: `data_out[width]`, `void_out`, `not_full`.
pub fn generate_output_port(width: usize) -> Result<Module, NetlistError> {
    let mut b = ModuleBuilder::new("output_port");
    let rst = b.input("rst", 1).bit(0);
    let d = b.input("d", width);
    let push = b.input("push", 1).bit(0);
    let stop_in = b.input("stop_in", 1).bit(0);
    let one = b.constant(true);

    let cnt_nets: Vec<NetId> = (0..2).map(|_| b.fresh()).collect();
    let cnt = Bus::from_nets(cnt_nets);
    let is0 = b.eq_const(&cnt, 0);
    let is1 = b.eq_const(&cnt, 1);
    let is2 = b.eq_const(&cnt, 2);

    let not_empty = b.not(is0);
    let not_full = b.not(is2);
    // Downstream consumes the head unless it stalls.
    let no_stop = b.not(stop_in);
    let drain = b.and(no_stop, not_empty);
    // Pushing a full port is a shell bug; hardware refuses.
    let push_act = b.and(push, not_full);

    let no_drain = b.not(drain);
    let up = b.and(push_act, no_drain);
    let no_push = b.not(push_act);
    let down = b.and(drain, no_push);
    let (inc, _) = b.incr(&cnt);
    let (dec, _) = b.decr(&cnt);
    let after_up = b.mux_bus(up, &cnt, &inc);
    let next_cnt = b.mux_bus(down, &after_up, &dec);
    let cnt_q = b.dff_bus(&next_cnt, one, rst, 0);
    for i in 0..2 {
        b.drive(cnt.bit(i), cnt_q.bit(i));
    }

    let reg0_nets: Vec<NetId> = (0..width).map(|_| b.fresh()).collect();
    let reg0 = Bus::from_nets(reg0_nets);
    let reg1_nets: Vec<NetId> = (0..width).map(|_| b.fresh()).collect();
    let reg1 = Bus::from_nets(reg1_nets);

    let refill_head = b.and(is1, push_act);
    let into_empty = b.and(is0, push_act);
    let shifted = b.mux_bus(refill_head, &reg1, &d);
    let loaded = b.mux_bus(into_empty, &reg0, &d);
    let reg0_next = b.mux_bus(drain, &loaded, &shifted);
    let head_en = b.or(drain, into_empty);
    let reg0_q = b.dff_bus(&reg0_next, head_en, rst, 0);
    for i in 0..width {
        b.drive(reg0.bit(i), reg0_q.bit(i));
    }

    let keep_one = b.and(is1, no_drain);
    let rotate_full = b.and(is2, drain);
    let tail_cases = b.or(keep_one, rotate_full);
    let tail_en = b.and(push_act, tail_cases);
    let reg1_q = b.dff_bus(&d, tail_en, rst, 0);
    for i in 0..width {
        b.drive(reg1.bit(i), reg1_q.bit(i));
    }

    b.output("data_out", &reg0);
    b.output_bit("void_out", is0);
    b.output_bit("not_full", not_full);
    b.finish()
}

/// Assembles the complete synchronization wrapper — the controller plus
/// one gate-level FIFO per port — into a single flat module, as the
/// paper's Figures 1/2 draw it (the pearl stays a black box; its data
/// pins surface as `pearl_*` ports).
///
/// `controller` must expose exactly the standard interface, in this
/// order: inputs `rst`, `ne[n_in]`, `nf[n_out]`; outputs `enable`,
/// `pop[n_in]`, `push[n_out]`, where `n_in`/`n_out` are the lengths of
/// `in_widths`/`out_widths`, which give the data width of each port.
///
/// Interface of the result, per input port *i*: `in{i}_data`,
/// `in{i}_void` (inputs), `in{i}_stop` (output), `pearl_in{i}` (output,
/// to the pearl). Per output port *o*: `pearl_out{o}` (input, from the
/// pearl), `out{o}_data`, `out{o}_void` (outputs), `out{o}_stop`
/// (input). Plus `rst` in and `enable` out.
///
/// # Errors
///
/// [`NetlistError::PortMismatch`] naming the first controller port
/// that is missing, mis-sized or unexpected; otherwise propagates
/// netlist validation errors.
pub fn assemble_full_wrapper(
    controller: &Module,
    in_widths: &[usize],
    out_widths: &[usize],
) -> Result<Module, NetlistError> {
    check_controller_ports(controller, in_widths.len(), out_widths.len())?;
    let mut b = ModuleBuilder::new(format!("{}_full", controller.name));
    let rst = b.input("rst", 1);

    // Channel-side inputs first.
    let mut in_faces = Vec::new(); // (q, not_empty feedback net, pop feedback net)
    let mut ne_bits = Vec::new();
    let mut pop_feedback = Vec::new();
    for (i, &w) in in_widths.iter().enumerate() {
        let data = b.input(format!("in{i}_data"), w);
        let void = b.input(format!("in{i}_void"), 1);
        let pop_net = b.fresh_named(format!("pop{i}"));
        let port = generate_input_port(w)?;
        let outs = b.instantiate(
            &format!("inport{i}"),
            &port,
            &[rst.clone(), data, void, Bus::from_nets(vec![pop_net])],
        );
        // outs: [stop_out, q, not_empty]
        b.output(format!("in{i}_stop"), &outs[0]);
        b.output(format!("pearl_in{i}"), &outs[1]);
        ne_bits.push(outs[2].bit(0));
        pop_feedback.push(pop_net);
        in_faces.push(outs[1].clone());
    }

    // Output ports.
    let mut nf_bits = Vec::new();
    let mut push_feedback = Vec::new();
    for (o, &w) in out_widths.iter().enumerate() {
        let pearl_d = b.input(format!("pearl_out{o}"), w);
        let stop = b.input(format!("out{o}_stop"), 1);
        let push_net = b.fresh_named(format!("push{o}"));
        let port = generate_output_port(w)?;
        let outs = b.instantiate(
            &format!("outport{o}"),
            &port,
            &[rst.clone(), pearl_d, Bus::from_nets(vec![push_net]), stop],
        );
        // outs: [data_out, void_out, not_full]
        b.output(format!("out{o}_data"), &outs[0]);
        b.output(format!("out{o}_void"), &outs[1]);
        nf_bits.push(outs[2].bit(0));
        push_feedback.push(push_net);
    }

    // The controller, fed by the port statuses.
    let ctrl_outs = b.instantiate(
        "ctrl",
        controller,
        &[
            rst.clone(),
            Bus::from_nets(ne_bits),
            Bus::from_nets(nf_bits),
        ],
    );
    // ctrl_outs: [enable, pop, push]
    b.output("enable", &ctrl_outs[0]);
    for (i, &net) in pop_feedback.iter().enumerate() {
        b.drive(net, ctrl_outs[1].bit(i));
    }
    for (o, &net) in push_feedback.iter().enumerate() {
        b.drive(net, ctrl_outs[2].bit(o));
    }
    b.finish()
}

/// Checks that `controller` has the shell's controller interface port
/// for port, in the order [`assemble_full_wrapper`] wires it.
fn check_controller_ports(
    controller: &Module,
    n_in: usize,
    n_out: usize,
) -> Result<(), NetlistError> {
    let mismatch = |detail: String| NetlistError::PortMismatch {
        module: controller.name.clone(),
        detail,
    };
    let sides = [
        (
            "input",
            &controller.inputs,
            [("rst", 1), ("ne", n_in), ("nf", n_out)],
        ),
        (
            "output",
            &controller.outputs,
            [("enable", 1), ("pop", n_in), ("push", n_out)],
        ),
    ];
    for (side, ports, want) in sides {
        for (k, (name, width)) in want.into_iter().enumerate() {
            let detail = match ports.iter().position(|p| p.name == name) {
                None => format!("no {side} port {name} (the shell needs {name}[{width}])"),
                Some(j) if ports[j].width() != width => format!(
                    "{side} port {name} is {} bits wide, the shell needs {width}",
                    ports[j].width()
                ),
                Some(j) if j != k => {
                    format!("{side} port {name} is port {j}, the shell wires it as port {k}")
                }
                Some(_) => continue,
            };
            return Err(mismatch(detail));
        }
        if let Some(extra) = ports.get(want.len()) {
            return Err(mismatch(format!("unexpected {side} port {}", extra.name)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::WrapperKind;
    use lis_schedule::ScheduleBuilder;
    use lis_sim::NetlistSim;

    #[test]
    fn input_port_queues_two_and_backpressures() {
        let m = generate_input_port(8).unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("pop", 0).unwrap();
        // Push 10, 20; third value must be refused via stop.
        for v in [10u64, 20] {
            sim.set_input("data_in", v).unwrap();
            sim.set_input("void_in", 0).unwrap();
            sim.eval();
            assert_eq!(sim.get_output("stop_out").unwrap(), 0);
            sim.step();
        }
        sim.eval();
        assert_eq!(sim.get_output("stop_out").unwrap(), 1, "full after two");
        assert_eq!(sim.get_output("not_empty").unwrap(), 1);
        assert_eq!(sim.get_output("q").unwrap(), 10, "FIFO order");
        // A further write attempt while full is ignored.
        sim.set_input("data_in", 99).unwrap();
        sim.step();
        // Pop both.
        sim.set_input("void_in", 1).unwrap();
        sim.set_input("pop", 1).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("q").unwrap(), 10);
        sim.step();
        sim.eval();
        assert_eq!(sim.get_output("q").unwrap(), 20);
        sim.step();
        sim.eval();
        assert_eq!(sim.get_output("not_empty").unwrap(), 0);
        assert_eq!(sim.get_output("stop_out").unwrap(), 0);
    }

    #[test]
    fn input_port_sustains_one_token_per_cycle() {
        // Simultaneous pop+intake at occupancy 1 must stream at full
        // rate with FIFO order preserved.
        let m = generate_input_port(8).unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("void_in", 0).unwrap();
        sim.set_input("data_in", 1).unwrap();
        sim.set_input("pop", 0).unwrap();
        sim.step(); // occupancy 1, head = 1
        sim.set_input("pop", 1).unwrap();
        for v in 2..=10u64 {
            sim.set_input("data_in", v).unwrap();
            sim.eval();
            assert_eq!(sim.get_output("q").unwrap(), v - 1, "head in order");
            assert_eq!(sim.get_output("not_empty").unwrap(), 1);
            assert_eq!(sim.get_output("stop_out").unwrap(), 0, "full rate, no stop");
            sim.step();
        }
    }

    #[test]
    fn output_port_emits_in_order_and_respects_stop() {
        let m = generate_output_port(8).unwrap();
        let mut sim = NetlistSim::new(m).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("stop_in", 1).unwrap(); // downstream stalled
        sim.set_input("push", 1).unwrap();
        sim.set_input("d", 5).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("void_out").unwrap(), 1, "empty at power-up");
        assert_eq!(sim.get_output("not_full").unwrap(), 1);
        sim.step();
        sim.set_input("d", 6).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("data_out").unwrap(), 5);
        assert_eq!(sim.get_output("void_out").unwrap(), 0);
        sim.step();
        sim.set_input("push", 0).unwrap();
        sim.eval();
        assert_eq!(
            sim.get_output("not_full").unwrap(),
            0,
            "two queued, stalled"
        );
        // Release the stall; both drain in order.
        sim.set_input("stop_in", 0).unwrap();
        sim.eval();
        assert_eq!(sim.get_output("data_out").unwrap(), 5);
        sim.step();
        sim.eval();
        assert_eq!(sim.get_output("data_out").unwrap(), 6);
        sim.step();
        sim.eval();
        assert_eq!(sim.get_output("void_out").unwrap(), 1);
    }

    #[test]
    fn full_wrapper_assembles_and_validates() {
        let schedule = ScheduleBuilder::new(2, 1)
            .read(0)
            .read(1)
            .quiet(5)
            .write(0)
            .build()
            .unwrap();
        let controller = crate::kind::WrapperKind::Sp
            .generate_netlist(&schedule)
            .unwrap();
        let full = assemble_full_wrapper(&controller, &[8, 16], &[32]).unwrap();
        assert!(full.input("in0_data").is_some());
        assert!(full.input("pearl_out0").is_some());
        assert!(full.output("pearl_in1").is_some());
        assert!(full.output("enable").is_some());
        assert_eq!(full.roms.len(), 1, "the controller's ops memory");
        // Ports contribute registers: 2 payload regs per port + counters.
        assert!(full.ff_count() > controller.ff_count() + 2 * (8 + 16 + 32));
    }

    /// A shift-register controller has no `ne`/`nf`: assembly names the
    /// missing port instead of panicking inside the netlist builder. A
    /// controller sized for other port counts is named as mis-sized.
    #[test]
    fn full_wrapper_names_the_controller_port_that_does_not_fit() {
        let schedule = ScheduleBuilder::new(2, 1)
            .read(0)
            .read(1)
            .write(0)
            .build()
            .unwrap();
        let shiftreg = WrapperKind::ShiftReg.generate_netlist(&schedule).unwrap();
        let err = assemble_full_wrapper(&shiftreg, &[8, 8], &[8]).unwrap_err();
        assert!(matches!(err, NetlistError::PortMismatch { .. }), "{err:?}");
        assert_eq!(
            err.to_string(),
            "module shiftreg_wrapper does not fit its instance: \
             no input port ne (the shell needs ne[2])"
        );
        let sp = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let err = assemble_full_wrapper(&sp, &[8, 8, 8], &[8]).unwrap_err();
        assert!(
            err.to_string()
                .ends_with("input port ne is 2 bits wide, the shell needs 3"),
            "{err}"
        );
    }

    /// A pearl with no inputs or no outputs gives its controller a
    /// zero-width `ne`/`pop` or `nf`/`push`; the shell still assembles.
    #[test]
    fn full_wrapper_assembles_zero_width_status_ports() {
        let sink_only = ScheduleBuilder::new(1, 0).read(0).quiet(2).build().unwrap();
        let source_only = ScheduleBuilder::new(0, 1)
            .quiet(2)
            .write(0)
            .build()
            .unwrap();
        for kind in [
            WrapperKind::Sp,
            WrapperKind::Fsm(Default::default()),
            WrapperKind::Comb,
        ] {
            for (schedule, ins, outs) in
                [(&sink_only, &[8][..], &[][..]), (&source_only, &[], &[8])]
            {
                let controller = kind.generate_netlist(schedule).unwrap();
                let full = assemble_full_wrapper(&controller, ins, outs)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                NetlistSim::new(full).unwrap();
            }
        }
    }

    #[test]
    fn full_wrapper_streams_a_token_end_to_end() {
        // One input port, one output port, schedule: read then write.
        let schedule = ScheduleBuilder::new(1, 1).read(0).write(0).build().unwrap();
        let controller = crate::kind::WrapperKind::Sp
            .generate_netlist(&schedule)
            .unwrap();
        let full = assemble_full_wrapper(&controller, &[8], &[8]).unwrap();
        let mut sim = NetlistSim::new(full).unwrap();
        sim.set_input("rst", 0).unwrap();
        sim.set_input("in0_void", 1).unwrap();
        sim.set_input("out0_stop", 0).unwrap();
        sim.set_input("pearl_out0", 0).unwrap();
        sim.step(); // SP boot cycle

        // Offer a token on the input channel.
        sim.set_input("in0_data", 0x5A).unwrap();
        sim.set_input("in0_void", 0).unwrap();
        sim.step(); // lands in the input port queue
        sim.set_input("in0_void", 1).unwrap();

        // The controller should now fire the read op: enable pulses and
        // the head token reaches the pearl-side bus.
        sim.eval();
        assert_eq!(sim.get_output("enable").unwrap(), 1, "read op fires");
        assert_eq!(sim.get_output("pearl_in0").unwrap(), 0x5A);
        // Pretend the pearl computes +1 and presents it for the write op.
        sim.step();
        sim.set_input("pearl_out0", 0x5B).unwrap();
        sim.eval();
        assert_eq!(
            sim.get_output("enable").unwrap(),
            1,
            "write op fires (port empty)"
        );
        sim.step();
        // The token is now in the output port; it appears on the channel.
        sim.eval();
        assert_eq!(sim.get_output("out0_void").unwrap(), 0);
        assert_eq!(sim.get_output("out0_data").unwrap(), 0x5B);
    }
}
