//! The lane-batched gate-level patient process: one
//! [`JitPackedNetlistSim`] executes up to [`LANES`] independent scenario
//! lanes of the *same* shell — controller and port FIFOs, as assembled
//! by [`crate::assemble_full_wrapper`] — with a single bitwise
//! instruction stream shared by every lane. Each lane keeps its own
//! behavioural pearl and schedule position, so lane `k` is
//! bit-identical to a solo [`crate::FullNetlistPatientProcess`] driven
//! by the same traffic.
//!
//! The harness speaks [`PackedLisChannel`]s: the channel's bit-planes
//! are exactly the shell's lane-words, so tokens move between the
//! packed plumbing and the packed netlist as whole 64-lane words — no
//! per-lane scatter/gather at the shell boundary. This is the engine
//! behind scenario fleets: a fleet batch pays for the expensive
//! gate-level shells *and* the channel plumbing once per node, not once
//! per node × scenario.

use crate::fifo_netlist::assemble_full_wrapper;
use lis_netlist::Module;
use lis_proto::{PackedLisChannel, Pearl, PortValues};
use lis_sim::{
    load_plane_lanes, save_plane_lanes, transpose64, Activity, Component, JitPackedNetlistSim,
    PortHandle, Ports, SignalView, System, LANES,
};

/// A patient process whose gate-level shell executes up to [`LANES`]
/// scenario lanes in one packed netlist, wired to packed channels.
///
/// All lanes share one JIT-lowered shell program; per-lane state is the
/// packed flip-flop words plus one pearl, schedule position and
/// deferred `pearl_out` register set per lane. Pearl ports cross the
/// shell boundary a word at a time: one 64×64 [`transpose64`] per port
/// turns the shell's bit-planes into per-lane words and back. Unused
/// lanes (when fewer than [`LANES`] scenarios are batched) are held in
/// reset so they stay quiescent and never disturb [`Activity`]
/// reporting.
pub struct PackedFullNetlistPatientProcess {
    name: String,
    /// One pearl per lane; all share interface and schedule shape.
    pearls: Vec<Box<dyn Pearl>>,
    shell: JitPackedNetlistSim,
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
    in_widths: Vec<usize>,
    out_widths: Vec<usize>,
    /// Schedule position per lane (lanes diverge under different
    /// back-pressure).
    schedule_steps: Vec<usize>,
    /// One packed channel per pearl input port.
    in_channels: Vec<PackedLisChannel>,
    /// One packed channel per pearl output port.
    out_channels: Vec<PackedLisChannel>,
    /// Pearl outputs presented on `pearl_out*`: word `lane` of entry
    /// `o` is lane `lane`'s register for output port `o`.
    pearl_out: Vec<[u64; LANES]>,
    /// `pearl_out` changed since the shell was last driven with it (a
    /// lane's pearl wrote, or a state load).
    pearl_out_dirty: bool,
    /// Per-lane `pearl_in*` heads, transposed from the shell's
    /// bit-planes when an enabled lane reads the port.
    pearl_in: Vec<[u64; LANES]>,
    /// The pearls' port frames, reused by every lane clock.
    frame_in: PortValues,
    frame_out: PortValues,
    /// Lanes whose pearl has been clocked this cycle (same one-shot
    /// latch as the scalar harness, one bit per lane).
    clocked_mask: u64,
    /// Bit set for every populated lane; the complement is held in
    /// reset.
    active_mask: u64,
}

impl std::fmt::Debug for PackedFullNetlistPatientProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedFullNetlistPatientProcess")
            .field("name", &self.name)
            .field("shell", &self.shell.module().name)
            .field("lanes", &self.pearls.len())
            .finish()
    }
}

impl PackedFullNetlistPatientProcess {
    /// Builds the shared shell for `pearls` (one behavioural pearl per
    /// lane) and wires it to one packed channel per port.
    ///
    /// # Panics
    ///
    /// Panics if there are zero or more than [`LANES`] pearls, if the
    /// pearls disagree on interface shape, if the channel counts
    /// mismatch, or if the assembled shell fails validation.
    pub fn new(
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        controller: Module,
        in_channels: Vec<PackedLisChannel>,
        out_channels: Vec<PackedLisChannel>,
    ) -> Self {
        let lanes = pearls.len();
        assert!(
            (1..=LANES).contains(&lanes),
            "a packed harness batches 1..={LANES} lanes, got {lanes}"
        );
        let iface = pearls[0].interface();
        let in_widths: Vec<usize> = iface.inputs().map(|p| p.width as usize).collect();
        let out_widths: Vec<usize> = iface.outputs().map(|p| p.width as usize).collect();
        let period = pearls[0].schedule().period();
        for pearl in &pearls[1..] {
            let iw: Vec<usize> = pearl
                .interface()
                .inputs()
                .map(|p| p.width as usize)
                .collect();
            let ow: Vec<usize> = pearl
                .interface()
                .outputs()
                .map(|p| p.width as usize)
                .collect();
            assert_eq!(
                iw, in_widths,
                "all lanes must share the pearl input interface"
            );
            assert_eq!(
                ow, out_widths,
                "all lanes must share the pearl output interface"
            );
            assert_eq!(
                pearl.schedule().period(),
                period,
                "all lanes must share the schedule period"
            );
        }
        assert_eq!(in_channels.len(), in_widths.len(), "one channel per input");
        assert_eq!(
            out_channels.len(),
            out_widths.len(),
            "one channel per output"
        );
        for (ch, &w) in in_channels.iter().zip(&in_widths) {
            assert_eq!(ch.width as usize, w, "input channel width");
        }
        for (ch, &w) in out_channels.iter().zip(&out_widths) {
            assert_eq!(ch.width as usize, w, "output channel width");
        }
        let full = assemble_full_wrapper(&controller, &in_widths, &out_widths)
            .expect("full wrapper must assemble");
        let n_out = out_widths.len();
        let shell = JitPackedNetlistSim::new(full).expect("full wrapper must validate");
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
        let active_mask = if lanes == LANES {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        PackedFullNetlistPatientProcess {
            name: name.into(),
            pearls,
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
            schedule_steps: vec![0; lanes],
            in_channels,
            out_channels,
            pearl_out: vec![[0; LANES]; n_out],
            pearl_out_dirty: true,
            pearl_in: vec![[0; LANES]; in_widths.len()],
            frame_in: PortValues::empty(in_widths.len()),
            frame_out: PortValues::empty(n_out),
            clocked_mask: 0,
            active_mask,
            in_widths,
            out_widths,
        }
    }

    /// Number of populated lanes.
    pub fn lanes(&self) -> usize {
        self.pearls.len()
    }

    fn assert_lanes(&self, first: usize, count: usize) {
        assert!(
            first + count <= self.lanes(),
            "lanes {first}..{} out of range",
            first + count
        );
    }

    /// Restores lane `lane`'s `pearl_out` registers, one word per
    /// output port; the shell sees them at the next drive.
    fn load_pearl_out(&mut self, lane: usize, words: &[u64]) {
        for (port, &word) in self.pearl_out.iter_mut().zip(words) {
            port[lane] = word;
        }
        self.pearl_out_dirty = true;
    }

    fn drive_shell_inputs(&mut self, sigs: &SignalView<'_>) {
        // Unpopulated lanes stay under reset forever: their flip-flops
        // never move, so they cannot pollute `step_changed`.
        self.shell
            .set_input_bit_lanes(self.h_rst, 0, !self.active_mask);
        for (i, ch) in self.in_channels.iter().enumerate() {
            // The channel's bit-planes ARE the shell's lane-words.
            for (bit, &plane) in ch.data.iter().enumerate() {
                self.shell
                    .set_input_bit_lanes(self.h_in_data[i], bit, sigs.get(plane));
            }
            let void = ch.read_void(sigs) | !self.active_mask;
            self.shell.set_input_bit_lanes(self.h_in_void[i], 0, void);
        }
        for (o, ch) in self.out_channels.iter().enumerate() {
            // Idle lanes see permanent back-pressure as well as reset.
            let stop = ch.read_stop(sigs) | !self.active_mask;
            self.shell.set_input_bit_lanes(self.h_out_stop[o], 0, stop);
        }
        if std::mem::take(&mut self.pearl_out_dirty) {
            for (o, &width) in self.out_widths.iter().enumerate() {
                let mut planes = self.pearl_out[o];
                transpose64(&mut planes);
                for (bit, &plane) in planes.iter().enumerate().take(width) {
                    self.shell
                        .set_input_bit_lanes(self.h_pearl_out[o], bit, plane);
                }
            }
        }
    }

    /// Transposes the shell's `pearl_in{port}` bit-planes into per-lane
    /// heads.
    fn load_pearl_in(&mut self, port: usize) {
        let heads = &mut self.pearl_in[port];
        for (bit, head) in heads.iter_mut().enumerate() {
            *head = if bit < self.in_widths[port] {
                self.shell.get_output_bit_lanes(self.h_pearl_in[port], bit)
            } else {
                0
            };
        }
        transpose64(heads);
    }

    /// Clocks each lane's pearl at most once per cycle, exactly when
    /// that lane's shell raises `enable` in the settled values — the
    /// packed twin of the scalar harness's one-shot latch.
    fn maybe_clock_pearls(&mut self) {
        let enabled = self.shell.get_output_bit_lanes(self.h_enable, 0)
            & !self.clocked_mask
            & self.active_mask;
        self.clocked_mask |= enabled;
        // Input ports whose heads are transposed for this call.
        let mut loaded = 0u64;
        let mut lanes = enabled;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let io = self.pearls[lane].schedule().at(self.schedule_steps[lane]);
            self.frame_in.clear();
            for port in io.reads.iter() {
                if loaded & (1 << port) == 0 {
                    loaded |= 1 << port;
                    self.load_pearl_in(port);
                }
                self.frame_in.set(port, self.pearl_in[port][lane]);
            }
            self.frame_out.clear();
            self.pearls[lane].clock(&self.frame_in, &mut self.frame_out);
            for (port, value) in self.frame_out.occupied() {
                self.pearl_out[port][lane] = value;
                self.pearl_out_dirty = true;
            }
            self.schedule_steps[lane] =
                (self.schedule_steps[lane] + 1) % self.pearls[lane].schedule().period();
        }
    }
}

impl Component for PackedFullNetlistPatientProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
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
        // One pass per visit, exactly as in the scalar harness.
        self.drive_shell_inputs(sigs);
        self.shell.eval();
        self.maybe_clock_pearls();
        for (i, h) in self.h_in_stop.iter().enumerate() {
            let stops = self.shell.get_output_bit_lanes(*h, 0) | !self.active_mask;
            self.in_channels[i].write_stop(sigs, stops);
        }
        for (o, h) in self.h_out_data.iter().enumerate() {
            let voids = self.shell.get_output_bit_lanes(self.h_out_void[o], 0) | !self.active_mask;
            let ch = &self.out_channels[o];
            // Void lanes drive zeroed data, exactly as the scalar
            // harness's `Token::Void.to_wires()` does.
            for (bit, &plane) in ch.data.iter().enumerate() {
                let word = self.shell.get_output_bit_lanes(*h, bit) & !voids;
                sigs.set(plane, word);
            }
            sigs.set(ch.void, voids);
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        // As in the scalar harness: the visit this cycle clocked every
        // enabled lane, and the commit evaluates only if some lane's
        // pearl wrote a new word since then.
        self.drive_shell_inputs(sigs);
        let ff_changed = self.shell.step_changed();
        let pearl_clocked = std::mem::take(&mut self.clocked_mask) != 0;
        // Quiescence is a whole-batch property: the shared shell sleeps
        // only when *no* lane's flip-flops moved and no pearl clocked.
        // Individual idle lanes still produce bit-identical streams —
        // re-evaluating them on unchanged signals changes nothing.
        Activity::from_changed(ff_changed || pearl_clocked)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.lanes() as u64);
        let dffs = self.shell.dff_state();
        out.push(dffs.len() as u64);
        out.extend(dffs.iter().copied());
        for lane in 0..self.lanes() {
            out.push(self.schedule_steps[lane] as u64);
            out.extend(self.pearl_out.iter().map(|words| words[lane]));
            let mut pearl = Vec::new();
            self.pearls[lane].save_state(&mut pearl);
            out.push(pearl.len() as u64);
            out.extend(pearl);
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        assert_eq!(data[0] as usize, self.lanes(), "checkpoint lane count");
        let n_dffs = data[1] as usize;
        self.shell.set_dff_state(&data[2..2 + n_dffs]);
        let mut at = 2 + n_dffs;
        let n_out = self.out_widths.len();
        for lane in 0..self.lanes() {
            self.schedule_steps[lane] = data[at] as usize;
            self.load_pearl_out(lane, &data[at + 1..at + 1 + n_out]);
            let n_pearl = data[at + 1 + n_out] as usize;
            self.pearls[lane].load_state(&data[at + 2 + n_out..at + 2 + n_out + n_pearl]);
            at += 2 + n_out + n_pearl;
        }
        self.clocked_mask = 0;
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        self.assert_lanes(first, outs.len());
        // The flip-flop planes, transposed 64 at a time: bit `i % 64`
        // of word `i / 64` is flip-flop `i`.
        save_plane_lanes(self.shell.dff_state(), first, outs);
        for (lane, out) in (first..).zip(outs) {
            out.push(self.schedule_steps[lane] as u64);
            out.extend(self.pearl_out.iter().map(|words| words[lane]));
            let at = out.len();
            out.push(0);
            self.pearls[lane].save_state(out);
            out[at] = (out.len() - at - 1) as u64;
        }
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        self.assert_lanes(first, blobs.len());
        let mut dffs = self.shell.dff_state().to_vec();
        load_plane_lanes(&mut dffs, first, blobs, 0);
        self.shell.set_dff_state(&dffs);
        let at = dffs.len().div_ceil(64);
        let n_out = self.out_widths.len();
        for (lane, data) in (first..).zip(blobs) {
            self.schedule_steps[lane] = data[at] as usize;
            self.load_pearl_out(lane, &data[at + 1..at + 1 + n_out]);
            let n_pearl = data[at + 1 + n_out] as usize;
            self.pearls[lane].load_state(&data[at + 2 + n_out..at + 2 + n_out + n_pearl]);
            self.clocked_mask &= !(1 << lane);
        }
    }
}

/// Wires a lane-batched gate-level patient process into `system`,
/// mirroring [`crate::wrap_pearl_full_netlist`] with one *packed*
/// channel per pearl port (named `{name}_{port}`).
///
/// Returns the `(input, output)` packed channel sets, indexed by port.
///
/// # Panics
///
/// Panics on the same conditions as
/// [`PackedFullNetlistPatientProcess::new`].
pub fn wrap_pearls_packed_full_netlist(
    system: &mut System,
    name: &str,
    pearls: Vec<Box<dyn Pearl>>,
    controller: Module,
) -> (Vec<PackedLisChannel>, Vec<PackedLisChannel>) {
    let iface = pearls[0].interface();
    let ins: Vec<PackedLisChannel> = iface
        .inputs()
        .map(|p| PackedLisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let outs: Vec<PackedLisChannel> = iface
        .outputs()
        .map(|p| PackedLisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let pp =
        PackedFullNetlistPatientProcess::new(name, pearls, controller, ins.clone(), outs.clone());
    system.add_component(pp);
    (ins, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_netlist_harness::wrap_pearl_full_netlist;
    use crate::kind::WrapperKind;
    use lis_proto::{
        AccumulatorPearl, PackedTokenSink, PackedTokenSource, StallPattern, TokenSink, TokenSource,
    };
    use lis_schedule::ScheduleBuilder;

    /// Runs `lanes` scenarios (different stall seeds per lane) through
    /// one packed harness and returns each lane's sink stream.
    fn run_packed(lanes: usize, cycles: u64) -> Vec<Vec<u64>> {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..lanes)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 2, 1, 4)) as Box<dyn Pearl>)
            .collect();
        let (ins, outs) = wrap_pearls_packed_full_netlist(&mut sys, "pp", pearls, controller);
        sys.add_component(PackedTokenSource::new(
            "s0",
            ins[0].clone(),
            (0..lanes)
                .map(|lane| {
                    let (s0, _, _) = lane_stalls(lane);
                    (
                        (1..=12u64).map(|v| v * 7).collect(),
                        StallPattern::from(s0),
                        3 + lane as u64,
                    )
                })
                .collect(),
        ));
        sys.add_component(PackedTokenSource::new(
            "s1",
            ins[1].clone(),
            (0..lanes)
                .map(|lane| {
                    let (_, s1, _) = lane_stalls(lane);
                    (
                        (1..=12u64).collect(),
                        StallPattern::from(s1),
                        40 + lane as u64,
                    )
                })
                .collect(),
        ));
        let sink = PackedTokenSink::new(
            "k",
            outs[0].clone(),
            (0..lanes)
                .map(|lane| {
                    let (_, _, k) = lane_stalls(lane);
                    (StallPattern::from(k), 80 + lane as u64)
                })
                .collect(),
        );
        let received: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        received
            .iter()
            .map(|got| got.lock().unwrap().clone())
            .collect()
    }

    /// One solo scalar-harness run with lane `lane`'s exact traffic.
    fn run_solo(lane: usize, cycles: u64) -> Vec<u64> {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearl = AccumulatorPearl::new("acc", 2, 1, 4);
        let (ins, outs) = wrap_pearl_full_netlist(&mut sys, "pp", Box::new(pearl), controller);
        let (s0, s1, k) = lane_stalls(lane);
        sys.add_component(
            TokenSource::new("s0", ins[0], (1..=12).map(|v| v * 7))
                .with_stalls(s0, 3 + lane as u64),
        );
        sys.add_component(TokenSource::new("s1", ins[1], 1..=12).with_stalls(s1, 40 + lane as u64));
        let sink = TokenSink::new("k", outs[0]).with_stalls(k, 80 + lane as u64);
        let got = sink.received();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        let stream = got.lock().unwrap().clone();
        stream
    }

    /// Per-lane stall probabilities: lane 0 smooth, others irregular.
    fn lane_stalls(lane: usize) -> (f64, f64, f64) {
        match lane % 4 {
            0 => (0.0, 0.0, 0.0),
            1 => (0.3, 0.1, 0.25),
            2 => (0.5, 0.4, 0.0),
            _ => (0.1, 0.2, 0.45),
        }
    }

    #[test]
    fn packed_lanes_match_solo_scalar_runs() {
        let lanes = 6;
        let packed = run_packed(lanes, 1500);
        for (lane, got) in packed.iter().enumerate() {
            let solo = run_solo(lane, 1500);
            assert!(!solo.is_empty(), "lane {lane} must produce tokens");
            assert_eq!(got, &solo, "lane {lane} diverges from its solo twin");
        }
    }

    #[test]
    fn full_lane_count_is_supported() {
        // All 64 lanes at once, short run: every lane must still produce
        // the smooth-lane prefix it would produce solo.
        let packed = run_packed(LANES, 400);
        let solo: Vec<_> = (0..4).map(|lane| run_solo(lane, 400)).collect();
        for (lane, got) in packed.iter().enumerate() {
            assert_eq!(got, &solo[lane % 4], "lane {lane}");
        }
    }

    #[test]
    fn packed_checkpoint_round_trips() {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let build = |sys: &mut System| {
            let lanes = 3;
            let pearls: Vec<Box<dyn Pearl>> = (0..lanes)
                .map(|_| Box::new(AccumulatorPearl::new("acc", 2, 1, 4)) as Box<dyn Pearl>)
                .collect();
            let (ins, outs) =
                wrap_pearls_packed_full_netlist(sys, "pp", pearls, controller.clone());
            sys.add_component(PackedTokenSource::new(
                "s0",
                ins[0].clone(),
                (0..lanes)
                    .map(|lane| {
                        (
                            (1..=30u64).map(|v| v * 7).collect(),
                            StallPattern::from(0.2),
                            3 + lane as u64,
                        )
                    })
                    .collect(),
            ));
            sys.add_component(PackedTokenSource::new(
                "s1",
                ins[1].clone(),
                (0..lanes)
                    .map(|lane| {
                        (
                            (1..=30u64).collect(),
                            StallPattern::from(0.1),
                            40 + lane as u64,
                        )
                    })
                    .collect(),
            ));
            let sink = PackedTokenSink::new(
                "k",
                outs[0].clone(),
                (0..lanes).map(|_| (StallPattern::None, 0)).collect(),
            );
            let received: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
            sys.add_component(sink);
            received
        };
        // Uninterrupted reference.
        let mut sys = System::new();
        let received = build(&mut sys);
        sys.run(600).unwrap();
        let want: Vec<Vec<u64>> = received.iter().map(|r| r.lock().unwrap().clone()).collect();
        // Interrupted twin: checkpoint at 250, restore into a fresh build.
        let mut sys_a = System::new();
        build(&mut sys_a);
        sys_a.run(250).unwrap();
        let snap = sys_a.checkpoint();
        let mut sys_b = System::new();
        let received_b = build(&mut sys_b);
        sys_b.restore(&snap);
        sys_b.run(350).unwrap();
        let got: Vec<Vec<u64>> = received_b
            .iter()
            .map(|r| r.lock().unwrap().clone())
            .collect();
        assert_eq!(got, want, "restored packed run diverges");
    }

    /// One lane whose controller pushes on every enabled cycle while the
    /// pearl writes on every other one: half the output FIFO's captures
    /// read the held `pearl_out` register, so a state load that fails to
    /// present the loaded register shows in the stream.
    fn held_register_system() -> System {
        let every_cycle = ScheduleBuilder::new(1, 1).io([0], [0]).build().unwrap();
        let controller = WrapperKind::Sp.generate_netlist(&every_cycle).unwrap();
        let pearl: Box<dyn Pearl> = Box::new(AccumulatorPearl::new("acc", 1, 1, 0));
        let mut sys = System::new();
        let (ins, outs) = wrap_pearls_packed_full_netlist(&mut sys, "pp", vec![pearl], controller);
        sys.add_component(PackedTokenSource::new(
            "src",
            ins[0].clone(),
            vec![((1..=400u64).collect(), StallPattern::from(0.2), 7)],
        ));
        sys.add_component(PackedTokenSink::new(
            "k",
            outs[0].clone(),
            vec![(StallPattern::from(0.3), 9)],
        ));
        sys
    }

    /// Restoring a checkpoint and loading a lane both re-present the
    /// loaded `pearl_out` registers to the shell, even into a system
    /// whose shell already holds other values.
    #[test]
    fn state_loads_present_the_held_pearl_out_register() {
        let end = 300;
        let mut reference = held_register_system();
        reference.run(end).unwrap();
        let want = reference.checkpoint().component_states;
        for at in 120..124 {
            let mut source = held_register_system();
            source.run(at).unwrap();
            let snap = source.checkpoint();
            let lane = source.save_lane(0);
            let mut restored = held_register_system();
            restored.run(37).unwrap();
            restored.restore(&snap);
            restored.run(end - at).unwrap();
            assert_eq!(
                restored.checkpoint().component_states,
                want,
                "restore at cycle {at}"
            );
            let mut loaded = held_register_system();
            loaded.run(37).unwrap();
            loaded.load_lane(0, &lane);
            loaded.run(end - at).unwrap();
            assert_eq!(
                loaded.checkpoint().component_states,
                want,
                "lane load at cycle {at}"
            );
        }
    }

    /// Lane-batched save/load across a whole packed gate-level system —
    /// the shape the bounded explorer drives. Lanes are first forced
    /// apart with lane-dependent sink stalls; then all 64 lanes' states
    /// are extracted and written straight back in one call each, which
    /// must be an exact no-op on the architectural state.
    #[test]
    fn packed_system_lane_states_round_trip() {
        use lis_proto::{PackedSeqSink, PackedSeqSource, StallControl, ViolationCounter};
        let schedule = AccumulatorPearl::new("acc", 1, 1, 0).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 1, 1, 0)) as Box<dyn Pearl>)
            .collect();
        let violations: Vec<ViolationCounter> =
            (0..LANES).map(|_| ViolationCounter::new()).collect();
        let (ins, outs) = wrap_pearls_packed_full_netlist(&mut sys, "pp", pearls, controller);
        sys.add_component(PackedSeqSource::new(
            "src",
            ins[0].clone(),
            StallControl::Scripted(vec![]),
            64,
            u64::MAX,
        ));
        // The upper 32 lanes are back-pressured for the whole run, so
        // at save time the lane populations are genuinely different
        // (short bursts would be absorbed by the port queues).
        sys.add_component(PackedSeqSink::new(
            "snk",
            outs[0].clone(),
            StallControl::Scripted(vec![0xFFFF_FFFF_0000_0000; 64]),
            64,
            u64::MAX,
            &violations,
        ));
        sys.run(40).unwrap();
        let mut lanes = vec![Vec::new(); LANES];
        sys.save_lanes(0, &mut lanes);
        assert!(
            lanes.iter().skip(1).any(|l| *l != lanes[0]),
            "stall skew must actually diverge the lanes"
        );
        let before = sys.checkpoint();
        let words: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
        sys.load_lanes(0, &words);
        let after = sys.checkpoint();
        assert_eq!(
            before.component_states, after.component_states,
            "lane extract + reinject must be an architectural no-op"
        );
        assert_eq!(before.signal_values, after.signal_values);
    }
}
