//! The gate-level patient process: the complete shell — controller
//! *and* port FIFOs, as assembled by [`crate::assemble_full_wrapper`] —
//! runs as one netlist; only the pearls remain behavioural (each is the
//! black box the methodology encapsulates). Every shell port is
//! pre-resolved to a handle at construction, so the per-cycle path
//! performs no string formatting or name lookups.
//!
//! This is the executable model of the paper's Figure 2, and the one
//! way gate-level hardware enters a system, at either lane width: the
//! channel type ([`ShellLanes`]) picks the engine. On [`LisChannel`]s
//! one scenario runs on the scalar JIT, whose word pass moves a whole
//! port in one word; on [`PackedLisChannel`]s up to [`LANES`] scenario
//! lanes of the *same* shell share one [`JitPackedNetlistSim`], whose
//! lane-words are the channels' bit-planes. Each lane keeps its own
//! pearl and schedule position, so lane `k` is bit-identical to a
//! one-lane shell driven by the same traffic, which in turn must be
//! token-for-token identical to the behavioural wrapper.

use crate::fifo_netlist::assemble_full_wrapper;
use lis_netlist::{Module, NetlistError};
use lis_proto::{Lanes, LisChannel, PackedLisChannel, Pearl, PortValues};
use lis_sim::{
    transpose64, Activity, Component, JitNetlistSim, JitPackedNetlistSim, NetlistExec, PortHandle,
    Ports, SignalView, SimError, System, LANES,
};
use std::borrow::Cow;
use std::fmt::Debug;

/// A channel encoding the gate-level shell runs on.
///
/// It names the netlist engine that runs the shell's lanes, and moves
/// shell ports in the channel's own encoding: a data port word by word,
/// one word per payload signal (the words of a [`Lanes::Reg`]), a
/// one-bit port as a lane mask (bit `k` = lane `k`), a pearl port as
/// one word per lane and the flip-flops as bit-planes. A [`LisChannel`]
/// runs [`JitNetlistSim`], a [`PackedLisChannel`] runs
/// [`JitPackedNetlistSim`].
pub trait ShellLanes: Lanes {
    /// The engine running every lane of the shell.
    type Engine: NetlistExec + Debug;
    /// One pearl-port word per lane.
    type LaneWords: AsRef<[u64]> + AsMut<[u64]> + Copy + Debug + Send;
    /// Every lane's word 0.
    const NO_WORDS: Self::LaneWords;

    /// Compiles `shell` for the engine.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found while validating `shell`.
    fn engine(shell: Module) -> Result<Self::Engine, NetlistError>;

    /// Resolves the input (or, with `output`, output) port `name`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if the shell has no such port.
    fn handle(engine: &Self::Engine, name: &str, output: bool) -> Result<PortHandle, SimError>;

    /// Drives word `i` of an input port: the payload signal `i`'s word
    /// on a data port, the lane mask (`i` = 0) on a one-bit port.
    fn set_word(engine: &mut Self::Engine, port: PortHandle, i: usize, word: u64);

    /// Reads word `i` of an output port, encoded as
    /// [`ShellLanes::set_word`]'s.
    fn word(engine: &Self::Engine, port: PortHandle, i: usize) -> u64;

    /// Drives a `width`-bit pearl port with one word per lane.
    fn set_lane_words(
        engine: &mut Self::Engine,
        port: PortHandle,
        width: u32,
        words: &Self::LaneWords,
    );

    /// Reads a `width`-bit pearl port into one word per lane.
    fn get_lane_words(
        engine: &Self::Engine,
        port: PortHandle,
        width: u32,
        words: &mut Self::LaneWords,
    );

    /// The flip-flops as bit-planes, in module cell order.
    fn dff_planes(engine: &Self::Engine) -> Cow<'_, [u64]>;

    /// Restores flip-flops read by [`ShellLanes::dff_planes`].
    fn set_dff_planes(engine: &mut Self::Engine, planes: &[u64]);
}

/// One lane on the scalar JIT: a port, a payload and a pearl port are
/// one word each.
impl ShellLanes for LisChannel {
    type Engine = JitNetlistSim;
    type LaneWords = [u64; 1];
    const NO_WORDS: [u64; 1] = [0];

    fn engine(shell: Module) -> Result<JitNetlistSim, NetlistError> {
        JitNetlistSim::new(shell)
    }

    fn handle(engine: &JitNetlistSim, name: &str, output: bool) -> Result<PortHandle, SimError> {
        if output {
            engine.output_handle(name)
        } else {
            engine.input_handle(name)
        }
    }

    // Inlined: the harness, instantiated in its callers' crates, moves
    // every payload word of every visit through `set_word` and `word`.
    #[inline]
    fn set_word(engine: &mut JitNetlistSim, port: PortHandle, _: usize, word: u64) {
        engine.set_input_h(port, word);
    }

    #[inline]
    fn word(engine: &JitNetlistSim, port: PortHandle, _: usize) -> u64 {
        engine.get_output_h(port)
    }

    fn set_lane_words(engine: &mut JitNetlistSim, port: PortHandle, _: u32, words: &[u64; 1]) {
        engine.set_input_h(port, words[0]);
    }

    fn get_lane_words(engine: &JitNetlistSim, port: PortHandle, _: u32, words: &mut [u64; 1]) {
        words[0] = engine.get_output_h(port);
    }

    fn dff_planes(engine: &JitNetlistSim) -> Cow<'_, [u64]> {
        engine.dff_state().into_iter().map(u64::from).collect()
    }

    fn set_dff_planes(engine: &mut JitNetlistSim, planes: &[u64]) {
        let bits: Vec<bool> = planes.iter().map(|&p| p & 1 == 1).collect();
        engine.set_dff_state(&bits);
    }
}

/// Up to [`LANES`] lanes on the packed JIT: a port is one bit-plane per
/// bit, and a pearl port crosses as one 64×64 [`transpose64`].
impl ShellLanes for PackedLisChannel {
    type Engine = JitPackedNetlistSim;
    type LaneWords = [u64; LANES];
    const NO_WORDS: [u64; LANES] = [0; LANES];

    fn engine(shell: Module) -> Result<JitPackedNetlistSim, NetlistError> {
        JitPackedNetlistSim::new(shell)
    }

    fn handle(
        engine: &JitPackedNetlistSim,
        name: &str,
        output: bool,
    ) -> Result<PortHandle, SimError> {
        if output {
            engine.output_handle(name)
        } else {
            engine.input_handle(name)
        }
    }

    // Inlined for the same reason as the one-lane impl's.
    #[inline]
    fn set_word(engine: &mut JitPackedNetlistSim, port: PortHandle, bit: usize, lanes: u64) {
        engine.set_input_bit_lanes(port, bit, lanes);
    }

    #[inline]
    fn word(engine: &JitPackedNetlistSim, port: PortHandle, bit: usize) -> u64 {
        engine.get_output_bit_lanes(port, bit)
    }

    fn set_lane_words(
        engine: &mut JitPackedNetlistSim,
        port: PortHandle,
        width: u32,
        words: &[u64; LANES],
    ) {
        let mut planes = *words;
        transpose64(&mut planes);
        for (bit, &lanes) in planes[..width as usize].iter().enumerate() {
            engine.set_input_bit_lanes(port, bit, lanes);
        }
    }

    fn get_lane_words(
        engine: &JitPackedNetlistSim,
        port: PortHandle,
        width: u32,
        words: &mut [u64; LANES],
    ) {
        let (planes, rest) = words.split_at_mut(width as usize);
        for (bit, lanes) in planes.iter_mut().enumerate() {
            *lanes = engine.get_output_bit_lanes(port, bit);
        }
        rest.fill(0);
        transpose64(words);
    }

    fn dff_planes(engine: &JitPackedNetlistSim) -> Cow<'_, [u64]> {
        Cow::Borrowed(engine.dff_state())
    }

    fn set_dff_planes(engine: &mut JitPackedNetlistSim, planes: &[u64]) {
        engine.set_dff_state(planes);
    }
}

/// One pearl port: its channel, its four shell ports and its word per
/// lane.
struct ShellPort<C: ShellLanes> {
    channel: C,
    /// The shell's `{in,out}{i}_data`, `_void` and `_stop` ports.
    data: PortHandle,
    void: PortHandle,
    stop: PortHandle,
    /// The shell's `pearl_{in,out}{i}` port.
    pearl: PortHandle,
    /// The pearl port's word per lane: the `pearl_in` heads read for
    /// the current clock, or the `pearl_out` registers.
    words: C::LaneWords,
}

impl<C: ShellLanes> ShellPort<C> {
    /// Resolves the shell ports of pearl port `i` in direction `dir`
    /// (`in` or `out`); an output port's token leaves the shell.
    fn new(shell: &C::Engine, channel: C, dir: &str, i: usize) -> Self {
        let out = dir == "out";
        let port = |name: String, output| C::handle(shell, &name, output).expect("shell port");
        ShellPort {
            data: port(format!("{dir}{i}_data"), out),
            void: port(format!("{dir}{i}_void"), out),
            stop: port(format!("{dir}{i}_stop"), !out),
            pearl: port(format!("pearl_{dir}{i}"), !out),
            words: C::NO_WORDS,
            channel,
        }
    }
}

/// A patient process whose complete shell is a gate-level netlist,
/// running one pearl per lane of its `C` channels.
///
/// All lanes share one JIT-lowered shell program; per-lane state is the
/// lane's flip-flop bits plus its pearl, schedule position and deferred
/// `pearl_out` registers. Unpopulated lanes (when fewer than
/// [`Lanes::LANE_COUNT`] pearls are batched) are held in reset so they
/// stay quiescent and never disturb [`Activity`] reporting.
pub struct FullNetlistPatientProcess<C: ShellLanes = LisChannel> {
    name: String,
    /// One pearl per lane, all of one port shape and schedule period.
    pearls: Vec<Box<dyn Pearl>>,
    /// Each lane's schedule position (lanes diverge under different
    /// back-pressure).
    steps: Vec<usize>,
    shell: C::Engine,
    rst: PortHandle,
    enable: PortHandle,
    inputs: Vec<ShellPort<C>>,
    outputs: Vec<ShellPort<C>>,
    /// The `pearl_out` words changed since the shell was last driven
    /// with them (a pearl wrote, or a state load).
    pearl_out_dirty: bool,
    /// The pearls' port frames, reused by every clock.
    frame_in: PortValues,
    frame_out: PortValues,
    /// Lanes whose pearl has been clocked this cycle. The decision
    /// inputs are all registered inside the shell, so the first
    /// evaluation of a cycle decides; later ones cannot clock a pearl
    /// again.
    clocked: u64,
    /// Bit set for every populated lane.
    lane_mask: u64,
}

impl<C: ShellLanes> Debug for FullNetlistPatientProcess<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullNetlistPatientProcess")
            .field("name", &self.name)
            .field("shell", &self.shell.module().name)
            .field("lanes", &self.pearls.len())
            .finish()
    }
}

impl<C: ShellLanes> FullNetlistPatientProcess<C> {
    /// Builds the shared shell for `pearls` (one behavioural pearl per
    /// lane): the controller `controller` plus one gate-level FIFO per
    /// port, wired to one channel per pearl port.
    ///
    /// # Panics
    ///
    /// Panics unless there are 1 to [`Lanes::LANE_COUNT`] pearls of one
    /// port shape and schedule period and one channel of each port's
    /// width per port, or if the shell does not assemble
    /// ([`assemble_full_wrapper`] names the controller port that does
    /// not fit).
    pub fn new(
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        controller: Module,
        in_channels: Vec<C>,
        out_channels: Vec<C>,
    ) -> Self {
        let lanes = pearls.len();
        assert!(
            (1..=C::LANE_COUNT).contains(&lanes),
            "a shell on this channel runs 1..={} lanes, got {lanes}",
            C::LANE_COUNT
        );
        let shape = |pearl: &dyn Pearl| {
            let iface = pearl.interface();
            let inputs: Vec<usize> = iface.inputs().map(|p| p.width as usize).collect();
            let outputs: Vec<usize> = iface.outputs().map(|p| p.width as usize).collect();
            (inputs, outputs, pearl.schedule().period())
        };
        let first = shape(&*pearls[0]);
        for pearl in &pearls[1..] {
            assert_eq!(
                shape(&**pearl),
                first,
                "all lanes must share the pearl's port widths and schedule period"
            );
        }
        let (in_widths, out_widths, _) = first;
        let widths = |channels: &[C]| -> Vec<usize> {
            channels.iter().map(|ch| ch.width() as usize).collect()
        };
        assert_eq!(
            widths(&in_channels),
            in_widths,
            "one channel per input, of its width"
        );
        assert_eq!(
            widths(&out_channels),
            out_widths,
            "one channel per output, of its width"
        );
        let full = assemble_full_wrapper(&controller, &in_widths, &out_widths)
            .expect("full wrapper must assemble");
        let shell = C::engine(full).expect("full wrapper must validate");
        let ports = |channels: Vec<C>, dir| -> Vec<ShellPort<C>> {
            let at = |(i, ch)| ShellPort::new(&shell, ch, dir, i);
            channels.into_iter().enumerate().map(at).collect()
        };
        let (inputs, outputs) = (ports(in_channels, "in"), ports(out_channels, "out"));
        let handle = |name, output| C::handle(&shell, name, output).expect("shell port");
        let (rst, enable) = (handle("rst", false), handle("enable", true));
        FullNetlistPatientProcess {
            name: name.into(),
            pearls,
            steps: vec![0; lanes],
            rst,
            enable,
            frame_in: PortValues::empty(inputs.len()),
            frame_out: PortValues::empty(outputs.len()),
            inputs,
            outputs,
            shell,
            pearl_out_dirty: true,
            clocked: 0,
            lane_mask: u64::MAX >> (64 - lanes),
        }
    }

    fn assert_lanes(&self, first: usize, count: usize) {
        assert!(
            first + count <= self.pearls.len(),
            "lanes {first}..{} out of range",
            first + count
        );
    }

    fn drive_shell_inputs(&mut self, sigs: &SignalView<'_>) {
        // Unpopulated lanes stay under reset forever, with void inputs
        // and back-pressured outputs: their flip-flops never move, so
        // they cannot pollute `step_changed`.
        let idle = !self.lane_mask;
        C::set_word(&mut self.shell, self.rst, 0, idle);
        for p in &self.inputs {
            for (i, &sig) in p.channel.data_signals().iter().enumerate() {
                C::set_word(&mut self.shell, p.data, i, sigs.get(sig));
            }
            let void = !p.channel.token_lanes(sigs) | idle;
            C::set_word(&mut self.shell, p.void, 0, void);
        }
        let dirty = std::mem::take(&mut self.pearl_out_dirty);
        for p in &self.outputs {
            let stop = p.channel.stop_lanes(sigs) | idle;
            C::set_word(&mut self.shell, p.stop, 0, stop);
            if dirty {
                C::set_lane_words(&mut self.shell, p.pearl, p.channel.width(), &p.words);
            }
        }
    }

    /// Clocks each lane's pearl at most once per cycle, exactly when
    /// that lane's shell raises `enable` in the settled values, reading
    /// the `pearl_in*` heads from them. All decision inputs (FIFO
    /// occupancies, ROM word) are registered, so they are stable from
    /// the first evaluation of a cycle: this is what makes the one-shot
    /// latch sound.
    fn clock_pearls(&mut self) {
        let mut lanes = C::word(&self.shell, self.enable, 0) & self.lane_mask & !self.clocked;
        self.clocked |= lanes;
        // Input ports whose heads are read for this call.
        let mut read = 0u64;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let pearl = &mut self.pearls[lane];
            self.frame_in.clear();
            for port in pearl.schedule().at(self.steps[lane]).reads.iter() {
                // The head the FIFO presents this cycle; if the queue is
                // actually empty (burst underrun) the hardware hands
                // over whatever the register holds — poisoned data,
                // which this gate-level model does not flag, by design.
                let p = &mut self.inputs[port];
                if read & (1 << port) == 0 {
                    read |= 1 << port;
                    C::get_lane_words(&self.shell, p.pearl, p.channel.width(), &mut p.words);
                }
                self.frame_in.set(port, p.words.as_ref()[lane]);
            }
            self.frame_out.clear();
            pearl.clock(&self.frame_in, &mut self.frame_out);
            for (port, value) in self.frame_out.occupied() {
                self.outputs[port].words.as_mut()[lane] = value;
                self.pearl_out_dirty = true;
            }
            self.steps[lane] = (self.steps[lane] + 1) % pearl.schedule().period();
        }
    }
}

impl<C: ShellLanes> Component for FullNetlistPatientProcess<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // The gate-level shell is evaluated *combinationally* inside
        // eval: it reads the incoming token wires and the downstream
        // back-pressure, and drives its own stops and token outputs.
        let mut ports = Ports::none();
        for ch in self.inputs.iter().map(|p| &p.channel) {
            ports = ports
                .merge(ch.consumer_ports())
                .merge(ch.downstream_reads());
        }
        for ch in self.outputs.iter().map(|p| &p.channel) {
            ports = ports.merge(ch.producer_ports()).merge(ch.stop_reads());
        }
        ports
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        // One pass per visit: the pearls clock from it and the channel
        // wires are driven from it. A pearl write reaches `pearl_out*`
        // at the next drive, as a register would.
        self.drive_shell_inputs(sigs);
        self.shell.eval();
        self.clock_pearls();
        let idle = !self.lane_mask;
        for p in &self.inputs {
            let stop = C::word(&self.shell, p.stop, 0) | idle;
            p.channel.set_stop_lanes(sigs, stop);
        }
        for p in &self.outputs {
            // Void lanes drive zeroed payload, as `Lanes::drive` does.
            let tokens = !C::word(&self.shell, p.void, 0) & self.lane_mask;
            let keep = C::spread(tokens);
            for (i, &sig) in p.channel.data_signals().iter().enumerate() {
                sigs.set(sig, C::word(&self.shell, p.data, i) & keep);
            }
            sigs.set(p.channel.void_signal(), !tokens);
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        // The kernel ticks a shell only in a cycle in which it also
        // evaluated it, and `enable` depends on registered state alone,
        // so that visit already clocked every enabled lane. The settled
        // wires equal the visit's, so re-driving them leaves the shell
        // settled unless a pearl wrote a new word; only then does the
        // commit need a pass of its own.
        self.drive_shell_inputs(sigs);
        let ff_changed = self.shell.step_changed();
        let pearl_clocked = std::mem::take(&mut self.clocked) != 0;
        // The shell's outputs are a pure function of its flip-flops and
        // the channel wires (all declared eval reads): with both frozen
        // and no pearl clocked, the whole gate-level shell — FIFOs,
        // controller, ROM — can sleep. This is the state a
        // back-pressured mesh keeps most of its shells in. Quiescence is
        // a whole-batch property; re-evaluating idle lanes on unchanged
        // signals changes nothing.
        Activity::from_changed(ff_changed || pearl_clocked)
    }

    /// The lane and flip-flop counts, then every lane's snapshot in
    /// lane order.
    fn save_state(&self, out: &mut Vec<u64>) {
        let dffs = C::dff_planes(&self.shell).len();
        out.extend([self.pearls.len() as u64, dffs as u64]);
        let mut lanes = vec![Vec::new(); self.pearls.len()];
        self.save_lanes_state(0, &mut lanes);
        out.extend(lanes.concat());
    }

    fn load_state(&mut self, data: &[u64]) {
        let dffs = C::dff_planes(&self.shell).len();
        let counts = [self.pearls.len() as u64, dffs as u64];
        assert_eq!(data[..2], counts, "checkpoint lane and flip-flop counts");
        // Where a lane snapshot holds its pearl state's length.
        let pearl_at = dffs.div_ceil(64) + 1 + self.outputs.len();
        let mut rest = &data[2..];
        let lanes: Vec<&[u64]> = (0..self.pearls.len())
            .map(|_| {
                let (lane, tail) = rest.split_at(pearl_at + 1 + rest[pearl_at] as usize);
                rest = tail;
                lane
            })
            .collect();
        self.load_lanes_state(0, &lanes);
    }

    /// A lane's snapshot: its flip-flop bits, 64 to a word (bit `i % 64`
    /// of word `i / 64` is flip-flop `i`), its schedule step, its
    /// `pearl_out` words and its length-prefixed pearl state.
    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        self.assert_lanes(first, outs.len());
        for planes in C::dff_planes(&self.shell).chunks(64) {
            C::save_mask_lanes(planes, first, outs);
        }
        for (lane, out) in (first..).zip(outs) {
            out.push(self.steps[lane] as u64);
            out.extend(self.outputs.iter().map(|p| p.words.as_ref()[lane]));
            let at = out.len();
            out.push(0);
            self.pearls[lane].save_state(out);
            out[at] = (out.len() - at - 1) as u64;
        }
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        self.assert_lanes(first, blobs.len());
        let mut planes = C::dff_planes(&self.shell).into_owned();
        for (word, block) in planes.chunks_mut(64).enumerate() {
            C::load_mask_lanes(block, first, blobs, word);
        }
        C::set_dff_planes(&mut self.shell, &planes);
        let at = planes.len().div_ceil(64);
        let pearl_at = at + 1 + self.outputs.len();
        for (lane, data) in (first..).zip(blobs) {
            self.steps[lane] = data[at] as usize;
            for (p, &word) in self.outputs.iter_mut().zip(&data[at + 1..]) {
                p.words.as_mut()[lane] = word;
            }
            let n_pearl = data[pearl_at] as usize;
            self.pearls[lane].load_state(&data[pearl_at + 1..pearl_at + 1 + n_pearl]);
            self.clocked &= !(1 << lane);
        }
        // The shell sees the loaded `pearl_out` registers at the next
        // drive.
        self.pearl_out_dirty = true;
    }
}

/// Wires a gate-level patient process running one pearl per lane into
/// `system`, with one `C` channel per pearl port (named
/// `{name}_{port}`), mirroring [`crate::wrap_pearl`].
///
/// Returns the `(input, output)` channels, indexed by port.
///
/// # Panics
///
/// Panics on the conditions of [`FullNetlistPatientProcess::new`].
pub fn wrap_pearl_full_netlist<C: ShellLanes>(
    system: &mut System,
    name: &str,
    pearls: Vec<Box<dyn Pearl>>,
    controller: Module,
) -> (Vec<C>, Vec<C>) {
    let iface = pearls.first().expect("one pearl per lane").interface();
    let ins: Vec<C> = iface
        .inputs()
        .map(|p| C::alloc(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let outs: Vec<C> = iface
        .outputs()
        .map(|p| C::alloc(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let pp = FullNetlistPatientProcess::new(name, pearls, controller, ins.clone(), outs.clone());
    system.add_component(pp);
    (ins, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::WrapperKind;
    use crate::patient::wrap_pearl;
    use crate::{generate_sp, FsmEncoding};
    use lis_proto::{AccumulatorPearl, StallPattern, TokenSink, TokenSource, ViolationCounter};
    use lis_schedule::{compress, PortSet, ScheduleBuilder, SpProgram, SyncOp};
    use lis_sim::SettleMode;
    use std::sync::{Arc, Mutex};

    /// Streams the accumulator testbench through the behavioural `kind`
    /// wrapper (`shell: None`) or through the complete gate-level shell
    /// around `shell`. Returns the sink's stream and the violations.
    fn stream(
        kind: WrapperKind,
        shell: Option<Module>,
        src_stall: f64,
        sink_stall: f64,
    ) -> (Vec<u64>, u64) {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let pearl: Box<dyn Pearl> = Box::new(AccumulatorPearl::new("acc", 2, 1, 4));
        let (ins, outs) = match shell {
            Some(controller) => wrap_pearl_full_netlist(&mut sys, "pp", vec![pearl], controller),
            None => {
                let policy = kind.make_policy(pearl.schedule());
                let (i, o, _) = wrap_pearl(&mut sys, "pp", pearl, policy, &violations);
                (i, o)
            }
        };
        sys.add_component(
            TokenSource::new("s0", ins[0], (1..=12).map(|v| v * 7)).with_stalls(src_stall, 3),
        );
        sys.add_component(TokenSource::new("s1", ins[1], 1..=12).with_stalls(src_stall, 4));
        let sink = TokenSink::new("k", outs[0]).with_stalls(sink_stall, 5);
        let got = sink.received(0);
        sys.add_component(sink);
        sys.run(1200).unwrap();
        let r = got.lock().unwrap().clone();
        (r, violations.count())
    }

    /// The fully gate-level shell must match the behavioural wrapper
    /// token for token under irregular traffic.
    fn cosim_full(kind: WrapperKind, src_stall: f64, sink_stall: f64) {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = kind.generate_netlist(&schedule).unwrap();
        let (behavioural, v1) = stream(kind, None, src_stall, sink_stall);
        let (hardware, v2) = stream(kind, Some(controller), src_stall, sink_stall);
        assert_eq!(v1, 0, "{kind}");
        assert_eq!(v2, 0, "{kind}");
        assert!(!behavioural.is_empty());
        assert_eq!(
            behavioural, hardware,
            "{kind}: full gate-level shell diverges from behavioural wrapper"
        );
    }

    /// The stress mesh's shell (2-in/2-out, 32-bit ports, SP
    /// controller): the word pass runs each FIFO's three data MUX buses
    /// and two data registers as words, and moves the four data ports
    /// as words.
    #[test]
    fn mesh_shell_runs_its_fifo_data_paths_as_words() {
        let pearl = AccumulatorPearl::new("acc", 2, 2, 2);
        let controller = WrapperKind::Sp.generate_netlist(pearl.schedule()).unwrap();
        let full = assemble_full_wrapper(&controller, &[32, 32], &[32, 32]).unwrap();
        let shell = JitNetlistSim::new(full).unwrap();
        let prog = shell.program();
        let s = prog.stats();
        assert_eq!((s.word_instrs, s.word_cells), (12, 12 * 32), "{s}");
        assert_eq!((s.dff_words, s.dff_word_bits), (8, 8 * 32), "{s}");
        // One commit entry per one-bit flip-flop and per register word.
        let entries = shell.dff_state().len() - s.dff_word_bits + s.dff_words;
        assert!(prog.instr_count() <= 131, "{s}");
        assert!(entries <= 21, "{s} entries={entries}");
        assert!(prog.slot_count() <= 172, "{s}");
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

    #[test]
    fn full_fsm_binary_shell_matches_behavioural() {
        cosim_full(WrapperKind::Fsm(FsmEncoding::Binary), 0.3, 0.2);
    }

    /// The shell records no violations, so a wrong controller shows only
    /// in the stream: an SP program with one fault must not deliver the
    /// behavioural stream. The unfaulted program does, under the same
    /// traffic (`full_sp_shell_matches_behavioural_irregular`).
    #[test]
    fn faulty_sp_programs_change_the_full_shell_stream() {
        let program = compress(AccumulatorPearl::new("acc", 2, 1, 4).schedule());
        // ops[0] reads both inputs and runs the compute; ops[1] writes.
        assert_eq!(program.len(), 2, "{program:?}");
        let faulty_stream = |fault: fn(&mut [SyncOp])| {
            let mut ops = program.ops().to_vec();
            fault(&mut ops);
            let program = SpProgram::new(program.n_inputs(), program.n_outputs(), ops).unwrap();
            let controller = generate_sp(&program).unwrap();
            stream(WrapperKind::Sp, Some(controller), 0.3, 0.25).0
        };
        let (behavioural, _) = stream(WrapperKind::Sp, None, 0.3, 0.25);
        let dropped_input = faulty_stream(|ops| ops[0].input_mask = PortSet::single(0));
        let cleared_output = faulty_stream(|ops| ops[1].output_mask = PortSet::EMPTY);
        let longer_run = faulty_stream(|ops| ops[0].run_cycles += 1);
        for (fault, got) in [
            ("input-mask bit dropped", &dropped_input),
            ("output mask cleared", &cleared_output),
            ("run length plus one", &longer_run),
        ] {
            assert_ne!(got, &behavioural, "{fault}: the fault went unseen");
        }
        assert!(
            cleared_output.is_empty(),
            "no push, no token: {cleared_output:?}"
        );
    }

    /// What one kernel call into a [`PassProbe`] cost, in shell passes.
    #[derive(Debug, Clone, Copy)]
    enum Visit {
        Eval { passes: u64 },
        Tick { passes: u64, pearl_wrote: bool },
    }

    /// Forwards every kernel call to a one-lane shell and logs the JIT
    /// passes each one ran.
    struct PassProbe {
        inner: FullNetlistPatientProcess,
        /// `pearl_out` as the last eval visit drove it.
        driven: Vec<u64>,
        log: Arc<Mutex<Vec<Visit>>>,
    }

    impl PassProbe {
        fn pearl_out(&self) -> Vec<u64> {
            self.inner.outputs.iter().map(|p| p.words[0]).collect()
        }
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
            self.driven = self.pearl_out();
            self.inner.eval(sigs);
            let passes = self.inner.shell.passes() - before;
            self.log.lock().unwrap().push(Visit::Eval { passes });
        }

        fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
            let before = self.inner.shell.passes();
            let pearl_wrote = self.pearl_out() != self.driven;
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
                vec![Box::new(pearl)],
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

    /// Runs `lanes` scenarios (different stall seeds per lane) through
    /// one packed shell and returns each lane's sink stream.
    fn run_packed(lanes: usize, cycles: u64) -> Vec<Vec<u64>> {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..lanes)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 2, 1, 4)) as Box<dyn Pearl>)
            .collect();
        let (ins, outs) =
            wrap_pearl_full_netlist::<PackedLisChannel>(&mut sys, "pp", pearls, controller);
        sys.add_component(TokenSource::with_lanes(
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
        sys.add_component(TokenSource::with_lanes(
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
        let sink = TokenSink::with_lanes(
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

    /// One solo one-lane run with lane `lane`'s exact traffic.
    fn run_solo(lane: usize, cycles: u64) -> Vec<u64> {
        let schedule = AccumulatorPearl::new("acc", 2, 1, 4).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearl: Box<dyn Pearl> = Box::new(AccumulatorPearl::new("acc", 2, 1, 4));
        let (ins, outs) = wrap_pearl_full_netlist(&mut sys, "pp", vec![pearl], controller);
        let (s0, s1, k) = lane_stalls(lane);
        sys.add_component(
            TokenSource::new("s0", ins[0], (1..=12).map(|v| v * 7))
                .with_stalls(s0, 3 + lane as u64),
        );
        sys.add_component(TokenSource::new("s1", ins[1], 1..=12).with_stalls(s1, 40 + lane as u64));
        let sink = TokenSink::new("k", outs[0]).with_stalls(k, 80 + lane as u64);
        let got = sink.received(0);
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
                wrap_pearl_full_netlist::<PackedLisChannel>(sys, "pp", pearls, controller.clone());
            sys.add_component(TokenSource::with_lanes(
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
            sys.add_component(TokenSource::with_lanes(
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
            let sink = TokenSink::with_lanes(
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
        let (ins, outs) =
            wrap_pearl_full_netlist::<PackedLisChannel>(&mut sys, "pp", vec![pearl], controller);
        sys.add_component(TokenSource::with_lanes(
            "src",
            ins[0].clone(),
            vec![((1..=400u64).collect(), StallPattern::from(0.2), 7)],
        ));
        sys.add_component(TokenSink::with_lanes(
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
        use lis_proto::{SeqSink, SeqSource, StallControl};
        let schedule = AccumulatorPearl::new("acc", 1, 1, 0).schedule().clone();
        let controller = WrapperKind::Sp.generate_netlist(&schedule).unwrap();
        let mut sys = System::new();
        let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 1, 1, 0)) as Box<dyn Pearl>)
            .collect();
        let violations: Vec<ViolationCounter> =
            (0..LANES).map(|_| ViolationCounter::new()).collect();
        let (ins, outs) =
            wrap_pearl_full_netlist::<PackedLisChannel>(&mut sys, "pp", pearls, controller);
        sys.add_component(SeqSource::new(
            "src",
            ins[0].clone(),
            StallControl::Scripted(vec![]),
            64,
        ));
        // The upper 32 lanes are back-pressured for the whole run, so
        // at save time the lane populations are genuinely different
        // (short bursts would be absorbed by the port queues).
        sys.add_component(SeqSink::new(
            "snk",
            outs[0].clone(),
            StallControl::Scripted(vec![0xFFFF_FFFF_0000_0000; 64]),
            64,
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

    /// The accumulator testbench on one lane of `C` channels: a
    /// one-lane shell, or a one-pearl packed shell, with the same
    /// traffic. Returns the system and the sink's stream.
    fn one_lane_system<C: ShellLanes>() -> (System, Arc<Mutex<Vec<u64>>>) {
        let pearl: Box<dyn Pearl> = Box::new(AccumulatorPearl::new("acc", 2, 1, 4));
        let controller = WrapperKind::Sp.generate_netlist(pearl.schedule()).unwrap();
        let mut sys = System::new();
        let (ins, outs) = wrap_pearl_full_netlist::<C>(&mut sys, "pp", vec![pearl], controller);
        for (i, (ch, stall)) in ins.into_iter().zip([0.3, 0.1]).enumerate() {
            let tokens = (1..=60).map(|v| v * (5 + i as u64)).collect();
            let lane = (tokens, StallPattern::from(stall), 3 + i as u64);
            sys.add_component(TokenSource::with_lanes(format!("s{i}"), ch, vec![lane]));
        }
        let lane = (StallPattern::from(0.25), 5);
        let sink = TokenSink::with_lanes("k", outs[0].clone(), vec![lane]);
        let received = sink.received(0);
        sys.add_component(sink);
        (sys, received)
    }

    /// A one-lane shell and lane 0 of a packed shell save one encoding:
    /// the same traffic gives the same lane snapshots at both widths,
    /// and the one-lane shell's checkpoint (its lane snapshot behind the
    /// lane and flip-flop counts) resumes a run bit-identically.
    #[test]
    fn shells_save_one_lane_encoding_at_both_widths() {
        let (mut solo, received) = one_lane_system::<LisChannel>();
        let (mut packed, _) = one_lane_system::<PackedLisChannel>();
        for _ in 0..60 {
            assert_eq!(
                solo.save_lane(0),
                packed.save_lane(0),
                "cycle {}",
                solo.cycle()
            );
            solo.run(7).unwrap();
            packed.run(7).unwrap();
        }
        assert!(received.lock().unwrap().len() > 20, "the traffic flowed");

        let (mut reference, _) = one_lane_system::<LisChannel>();
        reference.run(300).unwrap();
        let (mut source, _) = one_lane_system::<LisChannel>();
        source.run(130).unwrap();
        let snap = source.checkpoint();
        let (mut restored, _) = one_lane_system::<LisChannel>();
        restored.run(11).unwrap();
        restored.restore(&snap);
        restored.run(170).unwrap();
        assert_eq!(restored.checkpoint(), reference.checkpoint());
    }
}
