//! Hardware-in-the-loop patient process: the pearl and port queues run
//! behaviourally, but every synchronization decision comes from a
//! *gate-level* wrapper controller executed by `lis-sim`'s **JIT**
//! netlist engine ([`JitNetlistSim`], proven cycle-for-cycle equivalent
//! to the interpreter by property tests) with all port lookups
//! pre-resolved to handles — the co-simulation hot path walks a fused,
//! run-sorted instruction stream instead of re-interpreting the module.
//!
//! This is the strongest evidence the generated hardware is right: a
//! [`NetlistPatientProcess`] must be indistinguishable — token for
//! token — from the [`crate::PatientProcess`] running the corresponding
//! behavioural policy, under arbitrary traffic.

use lis_netlist::Module;
use lis_proto::{LisChannel, Pearl, PortValues, Token, ViolationCounter, PORT_QUEUE_CAPACITY};
use lis_sim::{Activity, Component, JitNetlistSim, PortHandle, Ports, SignalView, System};
use std::collections::VecDeque;

/// A patient process whose control decisions are computed by a wrapper
/// controller *netlist* (`rst`/`ne`/`nf` in, `enable`/`pop`/`push` out).
pub struct NetlistPatientProcess {
    name: String,
    pearl: Box<dyn Pearl>,
    controller: JitNetlistSim,
    /// Pre-resolved controller ports (`ne`/`nf` are optional: a
    /// schedule with no inputs or no outputs omits them).
    h_rst: PortHandle,
    h_ne: Option<PortHandle>,
    h_nf: Option<PortHandle>,
    h_enable: PortHandle,
    schedule_step: usize,
    in_channels: Vec<LisChannel>,
    out_channels: Vec<LisChannel>,
    in_queues: Vec<VecDeque<u64>>,
    out_queues: Vec<VecDeque<u64>>,
    in_stop: Vec<bool>,
    violations: ViolationCounter,
    /// The pearl's port frames, reused by every clock.
    frame_in: PortValues,
    frame_out: PortValues,
}

impl std::fmt::Debug for NetlistPatientProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistPatientProcess")
            .field("name", &self.name)
            .field("controller", &self.controller.module().name)
            .finish()
    }
}

impl NetlistPatientProcess {
    /// Encapsulates `pearl` behind the gate-level `controller`.
    ///
    /// # Panics
    ///
    /// Panics if the controller's interface does not match the pearl's
    /// port counts, or the channel lists are mis-sized.
    pub fn new(
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        controller: Module,
        in_channels: Vec<LisChannel>,
        out_channels: Vec<LisChannel>,
        violations: ViolationCounter,
    ) -> Self {
        let n_in = pearl.interface().input_count();
        let n_out = pearl.interface().output_count();
        assert_eq!(in_channels.len(), n_in, "input channel count mismatch");
        assert_eq!(out_channels.len(), n_out, "output channel count mismatch");
        if let Some(ne) = controller.input("ne") {
            assert_eq!(ne.width(), n_in, "controller ne width mismatch");
        }
        let sim = JitNetlistSim::new(controller).expect("controller must validate");
        let h_rst = sim.input_handle("rst").expect("controller has rst");
        let h_ne = sim.input_handle("ne").ok();
        let h_nf = sim.input_handle("nf").ok();
        let h_enable = sim.output_handle("enable").expect("controller has enable");
        NetlistPatientProcess {
            name: name.into(),
            pearl,
            controller: sim,
            h_rst,
            h_ne,
            h_nf,
            h_enable,
            schedule_step: 0,
            in_queues: vec![VecDeque::new(); n_in],
            out_queues: vec![VecDeque::new(); n_out],
            in_stop: vec![false; n_in],
            in_channels,
            out_channels,
            violations,
            frame_in: PortValues::empty(n_in),
            frame_out: PortValues::empty(n_out),
        }
    }

    fn drive_controller_inputs(&mut self) {
        if let Some(h) = self.h_ne {
            let mut ne = 0u64;
            for (i, q) in self.in_queues.iter().enumerate() {
                if !q.is_empty() {
                    ne |= 1 << i;
                }
            }
            self.controller.set_input_h(h, ne);
        }
        if let Some(h) = self.h_nf {
            let mut nf = 0u64;
            for (o, q) in self.out_queues.iter().enumerate() {
                if q.len() < PORT_QUEUE_CAPACITY {
                    nf |= 1 << o;
                }
            }
            self.controller.set_input_h(h, nf);
        }
        self.controller.set_input_h(self.h_rst, 0);
    }
}

impl Component for NetlistPatientProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // Registered faces, as in the behavioural PatientProcess: the
        // controller netlist runs inside tick, not inside eval.
        let mut p = Ports::none();
        for ch in &self.in_channels {
            p = p.merge(ch.consumer_ports());
        }
        for ch in &self.out_channels {
            p = p.merge(ch.producer_ports());
        }
        p
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        for (i, ch) in self.in_channels.iter().enumerate() {
            ch.write_stop(sigs, self.in_stop[i]);
        }
        for (o, ch) in self.out_channels.iter().enumerate() {
            let tok = self.out_queues[o]
                .front()
                .map_or(Token::Void, |&v| Token::Data(v));
            ch.write_token(sigs, tok);
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let mut changed = false;
        // 1. Output channels drain.
        for (o, ch) in self.out_channels.iter().enumerate() {
            if !ch.read_stop(sigs) && !self.out_queues[o].is_empty() {
                self.out_queues[o].pop_front();
                changed = true;
            }
        }

        // 2. The gate-level controller decides whether the pearl's clock
        //    fires; the I/O performed follows the pearl's schedule (the
        //    data path bypasses the synchronization processor, exactly
        //    as in the paper's Figure 2).
        self.drive_controller_inputs();
        self.controller.eval();
        let enable = self.controller.get_output_h(self.h_enable) == 1;

        // 3. Fire the pearl.
        if enable {
            changed = true;
            let io = self.pearl.schedule().at(self.schedule_step);
            self.frame_in.clear();
            for (i, q) in self.in_queues.iter_mut().enumerate() {
                if io.reads.contains(i) {
                    match q.pop_front() {
                        Some(v) => self.frame_in.set(i, v),
                        None => {
                            self.violations.record();
                            self.frame_in.set(i, 0);
                        }
                    }
                }
            }
            self.frame_out.clear();
            self.pearl.clock(&self.frame_in, &mut self.frame_out);
            for (port, value) in self.frame_out.occupied() {
                if self.out_queues[port].len() < PORT_QUEUE_CAPACITY {
                    self.out_queues[port].push_back(value);
                } else {
                    self.violations.record();
                }
            }
            self.schedule_step = (self.schedule_step + 1) % self.pearl.schedule().period();
        }
        changed |= self.controller.step_changed();

        // 4. Input channels deliver.
        for (i, ch) in self.in_channels.iter().enumerate() {
            if !self.in_stop[i] {
                if let Token::Data(v) = ch.read_token(sigs) {
                    changed = true;
                    if self.in_queues[i].len() < PORT_QUEUE_CAPACITY {
                        self.in_queues[i].push_back(v);
                    } else {
                        self.violations.record();
                    }
                }
            }
            let stop = self.in_queues[i].len() >= PORT_QUEUE_CAPACITY;
            changed |= stop != self.in_stop[i];
            self.in_stop[i] = stop;
        }
        // Quiescent iff the queues, stops, controller flip-flops and
        // pearl all held still — the controller waiting at a sync point
        // on unchanged FIFO status.
        Activity::from_changed(changed)
    }
}

/// Wires a gate-level-controlled patient process into `system`, mirroring
/// [`crate::wrap_pearl`].
pub fn wrap_pearl_netlist(
    system: &mut System,
    name: &str,
    pearl: Box<dyn Pearl>,
    controller: Module,
    violations: &ViolationCounter,
) -> (Vec<LisChannel>, Vec<LisChannel>) {
    let iface = pearl.interface();
    let in_channels: Vec<LisChannel> = iface
        .inputs()
        .map(|p| LisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let out_channels: Vec<LisChannel> = iface
        .outputs()
        .map(|p| LisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let pp = NetlistPatientProcess::new(
        name,
        pearl,
        controller,
        in_channels.clone(),
        out_channels.clone(),
        violations.clone(),
    );
    system.add_component(pp);
    (in_channels, out_channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::WrapperKind;
    use crate::patient::wrap_pearl;
    use lis_proto::{AccumulatorPearl, TokenSink, TokenSource};

    /// Runs the same pearl/traffic under a behavioural policy and its
    /// gate-level controller; both streams must match exactly.
    fn cosim(kind: WrapperKind, src_stall: f64, sink_stall: f64) {
        let pearl_a = AccumulatorPearl::new("acc", 2, 1, 4);
        let schedule = pearl_a.schedule().clone();

        let run = |behavioural: bool| -> (Vec<u64>, u64) {
            let mut sys = System::new();
            let violations = ViolationCounter::new();
            let pearl = AccumulatorPearl::new("acc", 2, 1, 4);
            let (ins, outs) = if behavioural {
                let (i, o, _) = wrap_pearl(
                    &mut sys,
                    "pp",
                    Box::new(pearl),
                    kind.make_policy(&schedule),
                    &violations,
                );
                (i, o)
            } else {
                let controller = kind.generate_netlist(&schedule).unwrap();
                wrap_pearl_netlist(&mut sys, "pp", Box::new(pearl), controller, &violations)
            };
            sys.add_component(
                TokenSource::new("s0", ins[0], (1..=15).map(|v| v * 3)).with_stalls(src_stall, 5),
            );
            sys.add_component(TokenSource::new("s1", ins[1], 1..=15).with_stalls(src_stall, 6));
            let sink = TokenSink::new("k", outs[0]).with_stalls(sink_stall, 7);
            let got = sink.received();
            sys.add_component(sink);
            sys.run(1500).unwrap();
            let r = got.lock().unwrap().clone();
            (r, violations.count())
        };

        let (behavioural, v1) = run(true);
        let (hardware, v2) = run(false);
        assert_eq!(
            behavioural, hardware,
            "{kind}: netlist controller diverges from behavioural policy"
        );
        assert_eq!(v1, 0, "{kind}: behavioural violations");
        assert_eq!(v2, 0, "{kind}: hardware violations");
        assert!(!behavioural.is_empty(), "{kind}: no data flowed");
    }

    #[test]
    fn sp_netlist_matches_behavioural_sp_smooth() {
        cosim(WrapperKind::Sp, 0.0, 0.0);
    }

    #[test]
    fn sp_netlist_matches_behavioural_sp_irregular() {
        cosim(WrapperKind::Sp, 0.35, 0.25);
    }

    #[test]
    fn fsm_netlist_matches_behavioural_fsm_irregular() {
        cosim(WrapperKind::Fsm(Default::default()), 0.35, 0.25);
    }

    #[test]
    fn fsm_binary_netlist_matches_too() {
        cosim(
            WrapperKind::Fsm(crate::fsm_netlist::FsmEncoding::Binary),
            0.3,
            0.2,
        );
    }
}
