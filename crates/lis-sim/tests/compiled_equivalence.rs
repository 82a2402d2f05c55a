//! Property tests pinning every fast engine to the interpreter —
//! three-way: interpreter / JIT scalar / JIT packed.
//!
//! [`NetlistSim`] is the simple, auditable reference; the fused
//! direct-threaded [`JitNetlistSim`] / [`JitPackedNetlistSim`] are the
//! engines the harnesses actually run. These properties
//! build random feed-forward netlists — gates, muxes, DFF chains with
//! random reset values and reset wiring, ROM cells with random
//! contents, and single-reader sum-of-products / product-of-sums trees
//! (the exact shapes the JIT lowering collapses into wide
//! superinstructions) — and assert all executors agree **cycle for
//! cycle on every output port** under random stimulus, including reset
//! pulses. Random call sequences — repeated input words, `eval`,
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

/// Builds a random acyclic module: input ports, a soup of gates/DFFs
/// over already-driven nets, optionally a ROM, and random output ports.
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

    for _ in 0..n_gates {
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
