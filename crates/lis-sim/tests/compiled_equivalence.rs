//! Property tests pinning every fast engine to the interpreter —
//! three-way: interpreter / JIT scalar / JIT packed.
//!
//! [`NetlistSim`] is the simple, auditable reference; the fused
//! direct-threaded [`JitNetlistSim`] / [`JitPackedNetlistSim`] are the
//! engines the harnesses actually run. These properties
//! build random feed-forward netlists — gates, muxes, DFF chains with
//! random reset values and reset wiring, ROM cells with random
//! contents, single-reader sum-of-products / product-of-sums trees
//! (the exact shapes the JIT lowering collapses into wide
//! superinstructions), and buses of up to 64 bits (the shapes the
//! scalar engine's word pass widens or demotes) — and assert all
//! executors agree **cycle for cycle on every output port** under
//! random stimulus, including reset pulses. Random call sequences — repeated input words, `eval`,
//! `step_changed` and output reads back to back, flip-flop loads and
//! resets mid-run — pin the JIT engines' settled-value tracking to the
//! interpreter, which evaluates on every call.

use lis_netlist::{Bus, Module, ModuleBuilder, NetId};
use lis_sim::{JitNetlistSim, JitPackedNetlistSim, NetlistExec, NetlistSim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Thin wrapper over the workspace's deterministic generator so one
/// `u64` seed drives the whole netlist/stimulus construction.
struct Mix(StdRng);

impl Mix {
    fn seeded(seed: u64) -> Self {
        Mix(StdRng::seed_from_u64(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// A random bus width in 2..=64, 64 itself a quarter of the time.
fn bus_width(rng: &mut Mix) -> usize {
    if rng.chance(25) {
        64
    } else {
        2 + rng.below(63)
    }
}

/// `bits` misaligned by one position: rotated, or with one adjacent
/// pair swapped (every bit then sits at most one position off).
fn misalign(rng: &mut Mix, mut bits: Vec<NetId>) -> Vec<NetId> {
    if rng.chance(50) {
        bits.rotate_left(1);
    } else {
        let k = rng.below(bits.len() - 1);
        bits.swap(k, k + 1);
    }
    bits
}

/// The one kind of odd shape a module builds, so the word pass must
/// demote a bus for that reason. One kind per module, and at most one
/// odd data bus, keep a demotion from being masked by another.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Odd {
    /// None: whole chains widen.
    Clean,
    /// A single-bit tap of a bus bit into the one-bit soup.
    Tap,
    /// A data bus misaligned by one position.
    Misalign,
    /// One data member inverted.
    Invert,
    /// One data member from the one-bit soup.
    Soup,
    /// One data member from the same position of another equally wide
    /// bus.
    Mixed,
    /// A partial or misaligned bus output port.
    Output,
}

impl Odd {
    const ALL: [Odd; 7] = [
        Odd::Clean,
        Odd::Tap,
        Odd::Misalign,
        Odd::Invert,
        Odd::Soup,
        Odd::Mixed,
        Odd::Output,
    ];
}

/// A random bus to build on: one of `buses` (a recent one more often
/// than not), or a fresh input port when there is none yet.
fn pick_bus(rng: &mut Mix, b: &mut ModuleBuilder, buses: &mut Vec<Bus>) -> Bus {
    if buses.is_empty() {
        let width = bus_width(rng);
        buses.push(b.input("bus", width));
    }
    let recent = if rng.chance(60) {
        buses.len() - 1 - rng.below(buses.len().min(3))
    } else {
        rng.below(buses.len())
    };
    buses[recent].clone()
}

/// A bus cell over earlier buses: `mux_bus` over two equally wide buses
/// under a random select, or `dff_bus` with a shared enable and reset
/// and a random reset word. A quarter of the time its data bus is odd
/// the module's way (see [`Odd`]), which then turns `odd` clean.
fn bus_cell(
    rng: &mut Mix,
    b: &mut ModuleBuilder,
    buses: &mut Vec<Bus>,
    nets: &[NetId],
    rst: NetId,
    odd: &mut Odd,
) -> Bus {
    let sel = nets[rng.below(nets.len())];
    let data = pick_bus(rng, b, buses);
    let same: Vec<Bus> = buses
        .iter()
        .filter(|x| x.width() == data.width() && x.bits() != data.bits())
        .cloned()
        .collect();
    let mut bits = data.bits().to_vec();
    // Position 0 half the time: a register reads the bus its position-0
    // member reads.
    let k = if rng.chance(50) {
        0
    } else {
        rng.below(bits.len())
    };
    if rng.chance(25) {
        let spent = match *odd {
            Odd::Misalign => {
                bits = misalign(rng, bits);
                true
            }
            Odd::Invert => {
                bits[k] = b.not(bits[k]);
                true
            }
            Odd::Soup => {
                bits[k] = nets[rng.below(nets.len())];
                true
            }
            Odd::Mixed if !same.is_empty() => {
                bits[k] = same[rng.below(same.len())].bit(k);
                true
            }
            _ => false,
        };
        if spent {
            *odd = Odd::Clean;
        }
    }
    let data = Bus::from_nets(bits);
    // Enable and reset shared by a register, constant some of the time
    // so every plain commit class occurs.
    let en = if rng.chance(20) {
        b.constant(true)
    } else {
        nets[rng.below(nets.len())]
    };
    let rst_pin = match rng.below(3) {
        0 => rst,
        1 => b.constant(false),
        _ => nets[rng.below(nets.len())],
    };
    let word = rng.next();
    if rng.chance(50) {
        // The other operand: an equally wide bus, or a register of this
        // one when there is none.
        let other = if same.is_empty() {
            let q = b.dff_bus(&data, en, rst_pin, word);
            buses.push(q.clone());
            q
        } else {
            same[rng.below(same.len())].clone()
        };
        if rng.chance(50) {
            b.mux_bus(sel, &data, &other)
        } else {
            b.mux_bus(sel, &other, &data)
        }
    } else {
        b.dff_bus(&data, en, rst_pin, word)
    }
}

/// Builds a random acyclic module: input ports, a soup of gates/DFFs
/// over already-driven nets, buses, optionally a ROM, and random output
/// ports.
///
/// The buses feed the scalar JIT's word pass: wide input ports and
/// [`bus_cell`]s, 2 to 64 bits wide, drawn alongside the one-bit cells
/// so the soup keeps its shape and its input drive. A bus's bits reach
/// the soup only through explicit taps, and extra output ports read
/// whole buses, so whole chains can widen. Each module also draws one
/// [`Odd`] kind of shape that makes the pass demote buses.
fn random_module(seed: u64, n_gates: usize) -> Module {
    let mut rng = Mix::seeded(seed);
    let mut b = ModuleBuilder::new("rand");
    let rst = b.input("rst", 1).bit(0);
    let mut nets: Vec<NetId> = vec![rst];
    let n_ports = 1 + rng.below(3);
    for p in 0..n_ports {
        let width = 1 + rng.below(8);
        let port = b.input(format!("in{p}"), width);
        nets.extend(port.bits().iter().copied());
    }
    let mut odd = Odd::ALL[rng.below(Odd::ALL.len())];
    let mut buses: Vec<Bus> = (0..rng.below(3))
        .map(|p| {
            let width = bus_width(&mut rng);
            b.input(format!("wide{p}"), width)
        })
        .collect();

    for _ in 0..n_gates {
        if rng.chance(20) {
            let bus = bus_cell(&mut rng, &mut b, &mut buses, &nets, rst, &mut odd);
            buses.push(bus);
        }
        if odd == Odd::Tap && !buses.is_empty() && rng.chance(15) {
            // A single-bit tap: the soup may now read it.
            let bus = &buses[rng.below(buses.len())];
            nets.push(bus.bit(rng.below(bus.width())));
        }
        let a = nets[rng.below(nets.len())];
        let c = nets[rng.below(nets.len())];
        let d = nets[rng.below(nets.len())];
        let out = match rng.below(14) {
            0 => b.and(a, c),
            1 => b.or(a, c),
            2 => b.xor(a, c),
            3 => b.nand(a, c),
            4 => b.nor(a, c),
            5 => b.xnor(a, c),
            6 => b.not(a),
            7 => b.buf(a),
            8 => b.mux(a, c, d),
            9 => b.constant(rng.chance(50)),
            10 => {
                // Fused-pattern fodder: a sum-of-products tree whose
                // interior nets each have exactly one reader (they are
                // never pushed into `nets`) — the shape the JIT
                // lowering flattens into a single wide OrN.
                let mut acc = b.and(a, c);
                for _ in 0..2 + rng.below(6) {
                    let x = nets[rng.below(nets.len())];
                    let y = nets[rng.below(nets.len())];
                    let term = b.and(x, y);
                    acc = b.or(acc, term);
                }
                acc
            }
            11 => {
                // Product-of-sums twin, flattened into a wide AndN.
                let mut acc = b.or(a, c);
                for _ in 0..2 + rng.below(6) {
                    let x = nets[rng.below(nets.len())];
                    let y = nets[rng.below(nets.len())];
                    let term = b.or(x, y);
                    acc = b.and(acc, term);
                }
                acc
            }
            _ => {
                // DFF: enable and data random; reset pin is the module
                // reset half the time (so reset pulses actually land),
                // a random net otherwise; random reset polarity.
                let rst_pin = if rng.chance(50) {
                    rst
                } else {
                    nets[rng.below(nets.len())]
                };
                b.dff(a, c, rst_pin, rng.chance(50))
            }
        };
        nets.push(out);
    }

    if rng.chance(60) {
        let addr_bits = 1 + rng.below(3);
        let addr_nets: Vec<NetId> = (0..addr_bits)
            .map(|_| nets[rng.below(nets.len())])
            .collect();
        let width = 1 + rng.below(8);
        let n_words = 1 + rng.below(1 << addr_bits);
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let contents: Vec<u64> = (0..n_words).map(|_| rng.next() & mask).collect();
        let data = b.rom("tbl", &Bus::from_nets(addr_nets), width, contents);
        nets.extend(data.bits().iter().copied());
    }

    let n_outs = 1 + rng.below(3);
    for o in 0..n_outs {
        let width = 1 + rng.below(8);
        let bits: Vec<NetId> = (0..width).map(|_| nets[rng.below(nets.len())]).collect();
        b.output(format!("out{o}"), &Bus::from_nets(bits));
    }
    let n_bus_outs = if buses.is_empty() {
        0
    } else {
        1 + rng.below(3)
    };
    for o in 0..n_bus_outs {
        // A whole recent bus, or now and then a partial or misaligned
        // one, which the word pass must read bit by bit.
        let recent = buses.len() - 1 - rng.below(buses.len().min(4));
        let bus = buses[recent].bits().to_vec();
        let bits = match rng.below(4) {
            0 if odd == Odd::Output => {
                let n = 1 + rng.below(bus.len() - 1);
                if rng.chance(50) {
                    bus[..n].to_vec()
                } else {
                    bus[bus.len() - n..].to_vec()
                }
            }
            1 if odd == Odd::Output => misalign(&mut rng, bus),
            _ => bus,
        };
        b.output(format!("bus_out{o}"), &Bus::from_nets(bits));
    }
    b.finish()
        .expect("feed-forward construction is always valid")
}

/// The per-cycle stimulus for one lane: a value for every input port.
fn stimulus(seed: u64, module: &Module, cycles: usize) -> Vec<Vec<u64>> {
    let mut rng = Mix::seeded(seed ^ 0xDEAD_BEEF);
    (0..cycles)
        .map(|_| {
            module
                .inputs
                .iter()
                .map(|p| {
                    if p.name == "rst" {
                        // Occasional reset pulses exercise DFF reset.
                        u64::from(rng.chance(20))
                    } else {
                        rng.next()
                    }
                })
                .collect()
        })
        .collect()
}

/// Interpreter reference run: outputs of every port, per cycle.
fn reference_run(module: &Module, stim: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut sim = NetlistSim::new(module.clone()).unwrap();
    stim.iter()
        .map(|step| {
            for (port, &v) in module.inputs.iter().zip(step) {
                sim.set_input(&port.name, v).unwrap();
            }
            sim.eval();
            let outs = module
                .outputs
                .iter()
                .map(|p| sim.get_output(&p.name).unwrap())
                .collect();
            sim.step();
            outs
        })
        .collect()
}

/// One call of a [`Trio`] sequence.
#[derive(Debug, Clone)]
enum Call {
    /// Drive every input port: lane 0 of the packed engine, or every
    /// lane when the flag is set.
    Inputs(Vec<u64>, bool),
    Eval,
    Step,
    StepChanged,
    /// Load flip-flop state: lane 0's bits, then the other lanes'.
    SetDffState(Vec<bool>, Vec<u64>),
    ResetState,
}

/// A random call sequence: input words repeat half the time, and every
/// call kind can follow every other.
fn call_sequence(seed: u64, module: &Module, dffs: usize, len: usize) -> Vec<Call> {
    let mut rng = Mix::seeded(seed ^ 0x5EC5);
    let mut last: Vec<u64> = module.inputs.iter().map(|_| 0).collect();
    (0..len)
        .map(|_| match rng.below(6) {
            0 => {
                if rng.chance(50) {
                    for (word, port) in last.iter_mut().zip(&module.inputs) {
                        *word = if port.name == "rst" {
                            u64::from(rng.chance(20))
                        } else {
                            rng.next()
                        };
                    }
                }
                Call::Inputs(last.clone(), rng.chance(50))
            }
            1 => Call::Eval,
            2 => Call::Step,
            3 => Call::StepChanged,
            4 if rng.chance(50) => Call::ResetState,
            _ => Call::SetDffState(
                (0..dffs).map(|_| rng.chance(50)).collect(),
                (0..dffs).map(|_| rng.next()).collect(),
            ),
        })
        .collect()
}

/// The interpreter, the scalar JIT and the packed JIT, driven in step.
struct Trio {
    interp: NetlistSim,
    jit: JitNetlistSim,
    packed: JitPackedNetlistSim,
}

impl Trio {
    fn new(module: &Module) -> Self {
        let mut trio = Trio {
            interp: NetlistSim::new(module.clone()).unwrap(),
            jit: JitNetlistSim::new(module.clone()).unwrap(),
            packed: JitPackedNetlistSim::new(module.clone()).unwrap(),
        };
        // Constant nets exist only after a first evaluation.
        trio.call(module, &Call::Eval);
        trio
    }

    /// Applies `call` to all three engines; returns the `step_changed`
    /// answers of the interpreter and the scalar JIT, if it was one.
    fn call(&mut self, module: &Module, call: &Call) -> Option<(bool, bool)> {
        match call {
            Call::Inputs(words, broadcast) => {
                for (port, &v) in module.inputs.iter().zip(words) {
                    self.interp.set_input(&port.name, v).unwrap();
                    self.jit.set_input(&port.name, v).unwrap();
                    if *broadcast {
                        self.packed.set_input_all(&port.name, v).unwrap();
                    } else {
                        self.packed.set_input_lane(0, &port.name, v).unwrap();
                    }
                }
            }
            Call::Eval => {
                self.interp.eval();
                self.jit.eval();
                self.packed.eval();
            }
            Call::Step => {
                self.interp.step();
                self.jit.step();
                self.packed.step();
            }
            Call::StepChanged => {
                let answers = (self.interp.step_changed(), self.jit.step_changed());
                self.packed.step_changed();
                return Some(answers);
            }
            Call::SetDffState(lane0, others) => {
                self.interp.set_dff_state(lane0);
                self.jit.set_dff_state(lane0);
                let planes: Vec<u64> = lane0
                    .iter()
                    .zip(others)
                    .map(|(&bit, &rest)| (rest & !1) | u64::from(bit))
                    .collect();
                self.packed.set_dff_state(&planes);
            }
            Call::ResetState => {
                self.interp.reset_state();
                self.jit.reset_state();
                self.packed.reset_state();
            }
        }
        None
    }
}

proptest! {
    /// Every engine agrees on the flip-flop state after every call of a
    /// random sequence, and on every output whenever outputs are defined
    /// (no input driven since the last evaluating call), so no call may
    /// leave a JIT engine committing or reading values that are no
    /// longer settled.
    #[test]
    fn call_sequences_agree_after_every_call(seed in any::<u64>(), n_gates in 1usize..60, len in 1usize..40) {
        let module = random_module(seed, n_gates);
        let dffs = NetlistSim::new(module.clone()).unwrap().dff_state().len();
        let calls = call_sequence(seed, &module, dffs, len);
        let mut trio = Trio::new(&module);
        let mut outputs_defined = true;
        for (t, call) in calls.iter().enumerate() {
            if let Some((interp, jit)) = trio.call(&module, call) {
                prop_assert_eq!(interp, jit, "call {} {:?}: step_changed (seed {:#x})", t, call, seed);
            }
            match call {
                Call::Inputs(..) => outputs_defined = false,
                Call::Eval | Call::Step | Call::StepChanged => outputs_defined = true,
                Call::SetDffState(..) | Call::ResetState => {}
            }
            for port in module.outputs.iter().filter(|_| outputs_defined) {
                let want = trio.interp.get_output(&port.name).unwrap();
                prop_assert_eq!(
                    trio.jit.get_output(&port.name).unwrap(), want,
                    "call {} {:?}: jit output {} (seed {:#x})", t, call, &port.name, seed
                );
                prop_assert_eq!(
                    trio.packed.get_output_lane(0, &port.name).unwrap(), want,
                    "call {} {:?}: packed output {} (seed {:#x})", t, call, &port.name, seed
                );
            }
            let state = trio.interp.dff_state();
            prop_assert_eq!(trio.jit.dff_state(), &state[..], "call {} {:?} (seed {:#x})", t, call, seed);
            let lane0: Vec<bool> = trio.packed.dff_state().iter().map(|w| w & 1 == 1).collect();
            prop_assert_eq!(lane0, state, "call {} {:?}: packed lane 0 (seed {:#x})", t, call, seed);
        }
    }

    /// The 64-lane packed JIT engine, on its sequential path, agrees with
    /// the interpreter in every checked lane, each lane carrying an
    /// independent stimulus stream.
    #[test]
    fn packed_lanes_match_interpreter(seed in any::<u64>(), n_gates in 1usize..60, cycles in 1usize..25) {
        let module = random_module(seed, n_gates);
        // Give each checked lane its own stimulus stream.
        let lanes = [0usize, 1, 7, 31, 63];
        let streams: Vec<Vec<Vec<u64>>> = lanes
            .iter()
            .map(|&l| stimulus(seed.wrapping_add(l as u64), &module, cycles))
            .collect();
        let expected: Vec<Vec<Vec<u64>>> =
            streams.iter().map(|s| reference_run(&module, s)).collect();

        let mut packed = JitPackedNetlistSim::new(module.clone()).unwrap();
        for t in 0..cycles {
            for (li, &lane) in lanes.iter().enumerate() {
                for (port, &v) in module.inputs.iter().zip(&streams[li][t]) {
                    packed.set_input_lane(lane, &port.name, v).unwrap();
                }
            }
            packed.eval();
            for (li, &lane) in lanes.iter().enumerate() {
                for (o, port) in module.outputs.iter().enumerate() {
                    prop_assert_eq!(
                        packed.get_output_lane(lane, &port.name).unwrap(),
                        expected[li][t][o],
                        "cycle {} lane {} output {} (seed {:#x})", t, lane, &port.name, seed
                    );
                }
            }
            packed.step();
        }
    }

    /// `reset_state` returns the engines to an identical power-up
    /// state: re-running the same stimulus reproduces the same outputs,
    /// on the scalar and (broadcast) packed JIT engines alike.
    #[test]
    fn reset_state_restores_power_up_equivalence(seed in any::<u64>(), n_gates in 1usize..40) {
        let module = random_module(seed, n_gates);
        let stim = stimulus(seed, &module, 10);
        let expected = reference_run(&module, &stim);

        let mut engines: Vec<Box<dyn NetlistExec>> = vec![
            Box::new(JitNetlistSim::new(module.clone()).unwrap()),
            Box::new(JitPackedNetlistSim::new(module.clone()).unwrap()),
        ];
        for _ in 0..2 {
            for (t, step) in stim.iter().enumerate() {
                for engine in &mut engines {
                    for (port, &v) in module.inputs.iter().zip(step) {
                        engine.set_input(&port.name, v).unwrap();
                    }
                    engine.eval();
                    for (o, port) in module.outputs.iter().enumerate() {
                        prop_assert_eq!(engine.get_output(&port.name).unwrap(), expected[t][o]);
                    }
                    engine.step();
                }
            }
            for engine in &mut engines {
                engine.reset_state();
            }
        }
    }

    /// The JIT scalar engine — fused superinstructions executed as
    /// direct-threaded per-opcode runs — agrees with the interpreter
    /// cycle for cycle on every output of random netlists.
    #[test]
    fn jit_matches_interpreter(seed in any::<u64>(), n_gates in 1usize..80, cycles in 1usize..40) {
        let module = random_module(seed, n_gates);
        let stim = stimulus(seed, &module, cycles);
        let expected = reference_run(&module, &stim);

        let mut jit = JitNetlistSim::new(module.clone()).unwrap();
        for (t, step) in stim.iter().enumerate() {
            for (port, &v) in module.inputs.iter().zip(step) {
                jit.set_input(&port.name, v).unwrap();
            }
            jit.eval();
            for (o, port) in module.outputs.iter().enumerate() {
                prop_assert_eq!(
                    jit.get_output(&port.name).unwrap(),
                    expected[t][o],
                    "cycle {} output {} (seed {:#x})", t, &port.name, seed
                );
            }
            jit.step();
        }
    }

    /// `step_changed` — the quiescence signal the activity kernel
    /// relies on — agrees between the interpreter and the JIT scalar
    /// engine cycle for cycle under identical stimulus.
    #[test]
    fn step_changed_agrees_between_interpreter_and_jit(seed in any::<u64>(), n_gates in 1usize..60, cycles in 1usize..25) {
        let module = random_module(seed, n_gates);
        let stim = stimulus(seed, &module, cycles);

        let mut interp = NetlistSim::new(module.clone()).unwrap();
        let mut jit = JitNetlistSim::new(module.clone()).unwrap();
        for (t, step) in stim.iter().enumerate() {
            for (port, &v) in module.inputs.iter().zip(step) {
                interp.set_input(&port.name, v).unwrap();
                jit.set_input(&port.name, v).unwrap();
            }
            interp.eval();
            jit.eval();
            prop_assert_eq!(
                interp.step_changed(),
                jit.step_changed(),
                "cycle {} step_changed (seed {:#x})", t, seed
            );
        }
    }
}

/// A program the lowering strips to nothing — the only output is a
/// constant, every gate cone unread — must still construct, eval and
/// step, reporting `step_changed() == false` forever, on both JIT
/// engines.
#[test]
fn fully_eliminated_program_still_steps() {
    let mut b = ModuleBuilder::new("dead");
    let a = b.input("a", 1).bit(0);
    let x = b.and(a, a);
    let y = b.not(x);
    let _unread = b.or(y, a);
    let k = b.constant(true);
    b.output_bit("k", k);
    let module = b.finish().expect("dead module is structurally valid");

    let mut jit = JitNetlistSim::new(module.clone()).unwrap();
    assert_eq!(
        jit.program().stats().instrs_after,
        0,
        "constant folding + DCE must strip every instruction"
    );
    for v in [0, 1, 1, 0] {
        jit.set_input("a", v).unwrap();
        jit.eval();
        assert_eq!(jit.get_output("k").unwrap(), 1);
        assert!(!jit.step_changed(), "a dead program must stay quiescent");
    }

    let mut packed = JitPackedNetlistSim::new(module).unwrap();
    for _ in 0..3 {
        packed.eval();
        assert_eq!(packed.get_output_lane(63, "k").unwrap(), 1);
        assert!(
            !packed.step_changed(),
            "dead packed program must stay quiescent"
        );
    }
}

/// The bus cells reach the scalar JIT's word pass: over a fixed seed
/// range, at least 15% of random modules widen a bus MUX and at least
/// 25% widen a register (read from the lowering counters; 57 and 76 of
/// the 200 when this was written), so the properties above pin the
/// widened engine and not only one-bit lowering.
#[test]
fn random_modules_reach_the_word_path() {
    let seeds = 0..200u64;
    let (mut muxes, mut registers) = (0, 0);
    for seed in seeds.clone() {
        let jit = JitNetlistSim::new(random_module(seed, 40)).unwrap();
        let s = jit.program().stats();
        muxes += usize::from(s.word_instrs > 0);
        registers += usize::from(s.dff_words > 0);
    }
    let n = seeds.count();
    assert!(muxes * 100 >= n * 15, "{muxes} of {n} modules widen a MUX");
    assert!(
        registers * 100 >= n * 25,
        "{registers} of {n} modules widen a register"
    );
}

/// Runs `module` on the scalar JIT against the interpreter for 64
/// cycles of random stimulus (reset pulses included), comparing every
/// output and the flip-flop state each cycle.
fn assert_jit_tracks_interpreter(module: &Module) {
    let stim = stimulus(7, module, 64);
    let mut interp = NetlistSim::new(module.clone()).unwrap();
    let mut jit = JitNetlistSim::new(module.clone()).unwrap();
    for (t, step) in stim.iter().enumerate() {
        for (port, &v) in module.inputs.iter().zip(step) {
            interp.set_input(&port.name, v).unwrap();
            jit.set_input(&port.name, v).unwrap();
        }
        interp.eval();
        jit.eval();
        for port in &module.outputs {
            assert_eq!(
                jit.get_output(&port.name).unwrap(),
                interp.get_output(&port.name).unwrap(),
                "cycle {t} output {}",
                port.name
            );
        }
        assert_eq!(jit.dff_state(), interp.dff_state(), "cycle {t}");
        interp.step();
        jit.step();
    }
}

/// `bits` with positions 1 and 2 swapped.
fn swap_1_2(bus: &Bus) -> Bus {
    let mut bits = bus.bits().to_vec();
    bits.swap(1, 2);
    Bus::from_nets(bits)
}

/// A bus stays a word only when every reader reads it whole, each
/// member at its own position, so nothing may widen in these modules: a
/// register reading two buses (`{a[3], a[2], c[1], a[0]}`), a register
/// reading a bus and a gate (`{a[3], a[2], a[1], x}`, with `a` also
/// output whole, so `a` must not stay a word either), and a register
/// and a bus MUX reading a bus with bits 1 and 2 swapped.
#[test]
fn misfit_word_readers_stay_one_bit() {
    let build = |name: &str, body: &dyn Fn(&mut ModuleBuilder, NetId, NetId, &Bus, &Bus)| {
        let mut b = ModuleBuilder::new(name);
        let rst = b.input("rst", 1).bit(0);
        let en = b.input("en", 1).bit(0);
        let x = b.input("a", 4);
        let y = b.input("c", 4);
        body(&mut b, en, rst, &x, &y);
        b.finish().unwrap()
    };
    let modules = [
        build("two_buses", &|b, en, rst, x, y| {
            let d = Bus::from_nets(vec![x.bit(0), y.bit(1), x.bit(2), x.bit(3)]);
            let q = b.dff_bus(&d, en, rst, 0b0110);
            b.output("q", &q);
        }),
        build("bus_and_gate", &|b, en, rst, x, y| {
            let g = b.xor(y.bit(0), y.bit(1));
            let d = Bus::from_nets(vec![g, x.bit(1), x.bit(2), x.bit(3)]);
            let q = b.dff_bus(&d, en, rst, 0b1001);
            b.output("q", &q);
            b.output("a_copy", x);
        }),
        build("swapped_register", &|b, en, rst, x, _| {
            let q = b.dff_bus(&swap_1_2(x), en, rst, 0b0101);
            b.output("q", &q);
        }),
        build("mux_of_swapped_second_operand", &|b, en, _, x, y| {
            let out = b.mux_bus(en, x, &swap_1_2(y));
            b.output("out", &out);
        }),
        build("mux_of_swapped_first_operand", &|b, en, _, x, y| {
            let out = b.mux_bus(en, &swap_1_2(y), x);
            b.output("out", &out);
        }),
    ];
    for module in modules {
        assert_jit_tracks_interpreter(&module);
        let jit = JitNetlistSim::new(module.clone()).unwrap();
        let s = jit.program().stats();
        assert_eq!((s.word_instrs, s.dff_words), (0, 0), "{}: {s}", module.name);
    }
}
