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
//! pulses.

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

proptest! {
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
