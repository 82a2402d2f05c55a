//! The fully gate-level patient process: the complete shell — controller
//! *and* port FIFOs, as assembled by [`crate::assemble_full_wrapper`] —
//! is executed gate by gate on `lis-sim`'s JIT netlist engine;
//! only the pearl remains behavioural (it is the black box the
//! methodology encapsulates). Every shell port is pre-resolved to a
//! handle at construction, so the per-cycle path performs no string
//! formatting or name lookups.
//!
//! This is the highest-fidelity executable model of the paper's
//! Figure 2, and the strongest equivalence evidence in the suite: a SoC
//! built from these must be token-for-token identical to one built from
//! behavioural wrappers.

use crate::fifo_netlist::assemble_full_wrapper;
use lis_netlist::Module;
use lis_proto::{LisChannel, Pearl, PortValues, Token};
use lis_sim::{Activity, Component, JitNetlistSim, PortHandle, Ports, SignalView, System};

/// A patient process whose complete shell is a gate-level netlist.
pub struct FullNetlistPatientProcess {
    name: String,
    pearl: Box<dyn Pearl>,
    shell: JitNetlistSim,
    /// Pre-resolved shell ports, one set per pearl port.
    h_rst: PortHandle,
    h_enable: PortHandle,
    h_in_data: Vec<PortHandle>,
    h_in_void: Vec<PortHandle>,
    h_in_stop: Vec<PortHandle>,
    h_pearl_in: Vec<PortHandle>,
    h_pearl_out: Vec<PortHandle>,
    h_out_stop: Vec<PortHandle>,
    h_out_data: Vec<PortHandle>,
    h_out_void: Vec<PortHandle>,
    schedule_step: usize,
    in_channels: Vec<LisChannel>,
    out_channels: Vec<LisChannel>,
    /// Pearl outputs for the current cycle (presented on `pearl_out*`).
    pearl_out: Vec<u64>,
    /// The pearl's port frames, reused by every clock.
    frame_in: PortValues,
    frame_out: PortValues,
    /// Whether the pearl has been clocked for the current cycle. The
    /// decision inputs are all registered inside the shell, so the
    /// first evaluation of a cycle decides; later ones cannot clock the
    /// pearl again.
    clocked_this_cycle: bool,
}

impl std::fmt::Debug for FullNetlistPatientProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullNetlistPatientProcess")
            .field("name", &self.name)
            .field("shell", &self.shell.module().name)
            .finish()
    }
}

impl FullNetlistPatientProcess {
    /// Builds the complete shell for `pearl` (controller of `controller`
    /// + one gate-level FIFO per port) and wires it to the channels.
    ///
    /// # Panics
    ///
    /// Panics if channel counts mismatch the pearl's interface or the
    /// assembled shell fails validation.
    pub fn new(
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        controller: Module,
        in_channels: Vec<LisChannel>,
        out_channels: Vec<LisChannel>,
    ) -> Self {
        let iface = pearl.interface();
        assert_eq!(in_channels.len(), iface.input_count());
        assert_eq!(out_channels.len(), iface.output_count());
        let in_widths: Vec<usize> = iface.inputs().map(|p| p.width as usize).collect();
        let out_widths: Vec<usize> = iface.outputs().map(|p| p.width as usize).collect();
        let full = assemble_full_wrapper(&controller, &in_widths, &out_widths)
            .expect("full wrapper must assemble");
        let n_out = out_widths.len();
        let shell = JitNetlistSim::new(full).expect("full wrapper must validate");
        let in_h = |name: String| shell.input_handle(&name).expect("shell port");
        let out_h = |name: String| shell.output_handle(&name).expect("shell port");
        let h_rst = in_h("rst".into());
        let h_enable = out_h("enable".into());
        let h_in_data = (0..in_widths.len())
            .map(|i| in_h(format!("in{i}_data")))
            .collect();
        let h_in_void = (0..in_widths.len())
            .map(|i| in_h(format!("in{i}_void")))
            .collect();
        let h_in_stop = (0..in_widths.len())
            .map(|i| out_h(format!("in{i}_stop")))
            .collect();
        let h_pearl_in = (0..in_widths.len())
            .map(|i| out_h(format!("pearl_in{i}")))
            .collect();
        let h_pearl_out = (0..n_out).map(|o| in_h(format!("pearl_out{o}"))).collect();
        let h_out_stop = (0..n_out).map(|o| in_h(format!("out{o}_stop"))).collect();
        let h_out_data = (0..n_out).map(|o| out_h(format!("out{o}_data"))).collect();
        let h_out_void = (0..n_out).map(|o| out_h(format!("out{o}_void"))).collect();
        FullNetlistPatientProcess {
            name: name.into(),
            pearl,
            shell,
            h_rst,
            h_enable,
            h_in_data,
            h_in_void,
            h_in_stop,
            h_pearl_in,
            h_pearl_out,
            h_out_stop,
            h_out_data,
            h_out_void,
            schedule_step: 0,
            in_channels,
            out_channels,
            pearl_out: vec![0; n_out],
            frame_in: PortValues::empty(in_widths.len()),
            frame_out: PortValues::empty(n_out),
            clocked_this_cycle: false,
        }
    }

    fn drive_shell_inputs(&mut self, sigs: &SignalView<'_>) {
        self.shell.set_input_h(self.h_rst, 0);
        for (i, ch) in self.in_channels.iter().enumerate() {
            let tok = ch.read_token(sigs);
            let (data, void) = tok.to_wires();
            self.shell.set_input_h(self.h_in_data[i], data);
            self.shell.set_input_h(self.h_in_void[i], u64::from(void));
        }
        for (o, ch) in self.out_channels.iter().enumerate() {
            self.shell
                .set_input_h(self.h_out_stop[o], u64::from(ch.read_stop(sigs)));
        }
        for (o, &v) in self.pearl_out.iter().enumerate() {
            self.shell.set_input_h(self.h_pearl_out[o], v);
        }
    }

    /// Clocks the pearl once per cycle when the shell's enable is high,
    /// reading `enable` and the `pearl_in*` heads from the shell's
    /// settled values. All decision inputs (FIFO occupancies, ROM word)
    /// are registered, so they are stable from the first evaluation of
    /// a cycle — this is what makes the one-shot latch sound.
    fn maybe_clock_pearl(&mut self) {
        if self.clocked_this_cycle || self.shell.get_output_h(self.h_enable) != 1 {
            return;
        }
        self.clocked_this_cycle = true;
        let io = self.pearl.schedule().at(self.schedule_step);
        self.frame_in.clear();
        for port in io.reads.iter() {
            // The head the FIFO presents this cycle; if the queue is
            // actually empty (burst underrun) the hardware hands over
            // whatever the register holds — poisoned data, which this
            // gate-level model does not flag, by design.
            self.frame_in
                .set(port, self.shell.get_output_h(self.h_pearl_in[port]));
        }
        self.frame_out.clear();
        self.pearl.clock(&self.frame_in, &mut self.frame_out);
        for (port, value) in self.frame_out.occupied() {
            self.pearl_out[port] = value;
        }
        self.schedule_step = (self.schedule_step + 1) % self.pearl.schedule().period();
    }
}

impl Component for FullNetlistPatientProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // The gate-level shell is evaluated *combinationally* inside
        // eval: it reads the incoming token wires and the downstream
        // back-pressure, and drives its own stops and token outputs.
        let mut p = Ports::none();
        for ch in &self.in_channels {
            p = p.merge(ch.consumer_ports()).merge(ch.downstream_reads());
        }
        for ch in &self.out_channels {
            p = p.merge(ch.producer_ports()).merge(ch.stop_reads());
        }
        p
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        // One pass per visit: the pearl clocks from it and the channel
        // wires are driven from it. A pearl write reaches `pearl_out*`
        // at the next drive, as a register would.
        self.drive_shell_inputs(sigs);
        self.shell.eval();
        self.maybe_clock_pearl();
        for (i, ch) in self.in_channels.iter().enumerate() {
            let stop = self.shell.get_output_h(self.h_in_stop[i]) == 1;
            ch.write_stop(sigs, stop);
        }
        for (o, ch) in self.out_channels.iter().enumerate() {
            let data = self.shell.get_output_h(self.h_out_data[o]);
            let void = self.shell.get_output_h(self.h_out_void[o]) == 1;
            ch.write_token(sigs, Token::from_wires(data, void));
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        // The kernel ticks a shell only in a cycle in which it also
        // evaluated it, and `enable` depends on registered state alone,
        // so that visit already decided the pearl's clock. The settled
        // wires equal the visit's, so re-driving them leaves the shell
        // settled unless the pearl wrote a new word; only then does the
        // commit need a pass of its own.
        self.drive_shell_inputs(sigs);
        let ff_changed = self.shell.step_changed();
        let pearl_clocked = std::mem::take(&mut self.clocked_this_cycle);
        // The shell's outputs are a pure function of its flip-flops and
        // the channel wires (all declared eval reads): with both frozen
        // and the pearl not clocked, the whole gate-level shell — FIFOs,
        // controller, ROM — can sleep. This is the state a back-pressured
        // mesh keeps most of its shells in.
        Activity::from_changed(ff_changed || pearl_clocked)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.schedule_step as u64);
        out.push(self.clocked_this_cycle as u64);
        out.extend(self.pearl_out.iter().copied());
        let dffs = self.shell.dff_state();
        out.push(dffs.len() as u64);
        out.extend(dffs.iter().map(|&b| b as u64));
        self.pearl.save_state(out);
    }

    fn load_state(&mut self, data: &[u64]) {
        self.schedule_step = data[0] as usize;
        self.clocked_this_cycle = data[1] != 0;
        let n_out = self.pearl_out.len();
        self.pearl_out.copy_from_slice(&data[2..2 + n_out]);
        let n_dffs = data[2 + n_out] as usize;
        let dffs: Vec<bool> = data[3 + n_out..3 + n_out + n_dffs]
            .iter()
            .map(|&w| w != 0)
            .collect();
        self.shell.set_dff_state(&dffs);
        self.pearl.load_state(&data[3 + n_out + n_dffs..]);
    }
}

/// Wires a fully gate-level patient process into `system`, mirroring
/// [`crate::wrap_pearl`].
pub fn wrap_pearl_full_netlist(
    system: &mut System,
    name: &str,
    pearl: Box<dyn Pearl>,
    controller: Module,
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
    let pp = FullNetlistPatientProcess::new(
        name,
        pearl,
        controller,
        in_channels.clone(),
        out_channels.clone(),
    );
    system.add_component(pp);
    (in_channels, out_channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::WrapperKind;
    use crate::patient::wrap_pearl;
    use lis_proto::{AccumulatorPearl, TokenSink, TokenSource, ViolationCounter};
    use lis_sim::SettleMode;
    use std::sync::{Arc, Mutex};

    /// The fully gate-level shell must match the behavioural wrapper
    /// token for token under irregular traffic.
    fn cosim_full(kind: WrapperKind, src_stall: f64, sink_stall: f64) {
        let pearl_ref = AccumulatorPearl::new("acc", 2, 1, 4);
        let schedule = pearl_ref.schedule().clone();

        let run = |gate_level: bool| -> (Vec<u64>, u64) {
            let mut sys = System::new();
            let violations = ViolationCounter::new();
            let pearl = AccumulatorPearl::new("acc", 2, 1, 4);
            let (ins, outs) = if gate_level {
                let controller = kind.generate_netlist(&schedule).unwrap();
                wrap_pearl_full_netlist(&mut sys, "pp", Box::new(pearl), controller)
            } else {
                let (i, o, _) = wrap_pearl(
                    &mut sys,
                    "pp",
                    Box::new(pearl),
                    kind.make_policy(&schedule),
                    &violations,
                );
                (i, o)
            };
            sys.add_component(
                TokenSource::new("s0", ins[0], (1..=12).map(|v| v * 7)).with_stalls(src_stall, 3),
            );
            sys.add_component(TokenSource::new("s1", ins[1], 1..=12).with_stalls(src_stall, 4));
            let sink = TokenSink::new("k", outs[0]).with_stalls(sink_stall, 5);
            let got = sink.received();
            sys.add_component(sink);
            sys.run(1200).unwrap();
            let r = got.lock().unwrap().clone();
            (r, violations.count())
        };

        let (behavioural, v1) = run(false);
        let (hardware, v2) = run(true);
        assert_eq!(v1, 0, "{kind}");
        assert_eq!(v2, 0, "{kind}");
        assert!(!behavioural.is_empty());
        assert_eq!(
            behavioural, hardware,
            "{kind}: full gate-level shell diverges from behavioural wrapper"
        );
    }

    #[test]
    fn full_sp_shell_matches_behavioural_smooth() {
        cosim_full(WrapperKind::Sp, 0.0, 0.0);
    }

    #[test]
    fn full_sp_shell_matches_behavioural_irregular() {
        cosim_full(WrapperKind::Sp, 0.3, 0.25);
    }

    #[test]
    fn full_fsm_shell_matches_behavioural_irregular() {
        cosim_full(WrapperKind::Fsm(Default::default()), 0.3, 0.2);
    }

    /// What one kernel call into a [`PassProbe`] cost, in shell passes.
    #[derive(Debug, Clone, Copy)]
    enum Visit {
        Eval { passes: u64 },
        Tick { passes: u64, pearl_wrote: bool },
    }

    /// Forwards every kernel call to a shell harness and logs the JIT
    /// passes each one ran.
    struct PassProbe {
        inner: FullNetlistPatientProcess,
        /// `pearl_out` as the last eval visit drove it.
        driven: Vec<u64>,
        log: Arc<Mutex<Vec<Visit>>>,
    }

    impl Component for PassProbe {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn ports(&self) -> Ports {
            self.inner.ports()
        }

        fn eval(&mut self, sigs: &mut SignalView<'_>) {
            let before = self.inner.shell.passes();
            self.driven.clone_from(&self.inner.pearl_out);
            self.inner.eval(sigs);
            let passes = self.inner.shell.passes() - before;
            self.log.lock().unwrap().push(Visit::Eval { passes });
        }

        fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
            let before = self.inner.shell.passes();
            let pearl_wrote = self.inner.pearl_out != self.driven;
            let activity = self.inner.tick(sigs);
            let passes = self.inner.shell.passes() - before;
            self.log.lock().unwrap().push(Visit::Tick {
                passes,
                pearl_wrote,
            });
            activity
        }
    }

    /// The shell protocol, pinned on both settle engines: every eval
    /// visit runs exactly one pass, a tick runs one only when the pearl
    /// wrote a new `pearl_out` word since that visit, and none
    /// otherwise.
    #[test]
    fn shell_runs_one_pass_per_visit_and_ticks_only_after_pearl_writes() {
        for mode in [SettleMode::FastForward, SettleMode::FullSweep] {
            let mut sys = System::new();
            sys.set_settle_mode(mode);
            let pearl = AccumulatorPearl::new("acc", 2, 1, 4);
            let controller = WrapperKind::Sp.generate_netlist(pearl.schedule()).unwrap();
            let ins: Vec<LisChannel> = (0..2)
                .map(|i| LisChannel::new(&mut sys, &format!("in{i}"), 32))
                .collect();
            let out = LisChannel::new(&mut sys, "out", 32);
            let inner = FullNetlistPatientProcess::new(
                "pp",
                Box::new(pearl),
                controller,
                ins.clone(),
                vec![out],
            );
            let log = Arc::new(Mutex::new(Vec::new()));
            sys.add_component(PassProbe {
                inner,
                driven: vec![0],
                log: Arc::clone(&log),
            });
            sys.add_component(TokenSource::new("s0", ins[0], 1..=60).with_stalls(0.3, 3));
            sys.add_component(TokenSource::new("s1", ins[1], 1..=60).with_stalls(0.1, 4));
            sys.add_component(TokenSink::new("k", out).with_stalls(0.25, 5));
            sys.run(400).unwrap();

            let log = log.lock().unwrap();
            let (mut evals, mut quiet_ticks, mut write_ticks) = (0, 0, 0);
            for visit in log.iter() {
                match *visit {
                    Visit::Eval { passes } => {
                        assert_eq!(passes, 1, "{mode:?}: an eval visit runs one pass");
                        evals += 1;
                    }
                    Visit::Tick {
                        passes,
                        pearl_wrote,
                    } => {
                        assert_eq!(passes, u64::from(pearl_wrote), "{mode:?}: {visit:?}");
                        if pearl_wrote {
                            write_ticks += 1;
                        } else {
                            quiet_ticks += 1;
                        }
                    }
                }
            }
            assert!(
                evals > 0 && quiet_ticks > 0 && write_ticks > 0,
                "{mode:?}: {evals} evals, {quiet_ticks} quiet ticks, {write_ticks} write ticks"
            );
        }
    }
}
