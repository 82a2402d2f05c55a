//! Monte-Carlo co-simulation sweeps on the packed JIT netlist engine.
//!
//! One [`JitPackedNetlistSim`] carries 64 *independent* random traffic
//! scenarios (one per lane) through a wrapper controller netlist in a
//! single pass; every lane is then checked against its own scalar
//! interpreter run. This is the sweep workload the packed engine exists
//! for: 64 co-simulations for the price of one instruction walk.

use lis_schedule::{compress, compress_bursty, ScheduleBuilder, SpProgram};
use lis_sim::{JitPackedNetlistSim, NetlistSim, LANES};
use lis_wrappers::{generate_fsm, generate_sp, FsmEncoding};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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

/// Runs `module` for `cycles` with per-lane random `ne`/`nf` traffic on
/// the packed engine and verifies every lane against a scalar
/// interpreter fed the identical stimulus.
fn monte_carlo_sweep(module: lis_netlist::Module, n_in: usize, n_out: usize, cycles: usize) {
    let mut packed = JitPackedNetlistSim::new(module.clone()).unwrap();
    let mut refs: Vec<NetlistSim> = (0..LANES)
        .map(|_| NetlistSim::new(module.clone()).unwrap())
        .collect();

    let in_mask = (1u64 << n_in) - 1;
    let out_mask = (1u64 << n_out) - 1;
    // One deterministic stream per lane (reproducible in CI).
    let mut rngs: Vec<StdRng> = (0..LANES)
        .map(|l| StdRng::seed_from_u64(0xC051 ^ ((l as u64) << 17)))
        .collect();

    packed.set_input_all("rst", 0).unwrap();
    for r in &mut refs {
        r.set_input("rst", 0).unwrap();
    }
    for cycle in 0..cycles {
        for (lane, rng) in rngs.iter_mut().enumerate() {
            let r = rng.next_u64();
            let ne = r & in_mask;
            let nf = (r >> 32) & out_mask;
            packed.set_input_lane(lane, "ne", ne).unwrap();
            packed.set_input_lane(lane, "nf", nf).unwrap();
            refs[lane].set_input("ne", ne).unwrap();
            refs[lane].set_input("nf", nf).unwrap();
        }
        packed.eval();
        for (lane, r) in refs.iter_mut().enumerate() {
            r.eval();
            for port in ["enable", "pop", "push"] {
                assert_eq!(
                    packed.get_output_lane(lane, port).unwrap(),
                    r.get_output(port).unwrap(),
                    "cycle {cycle} lane {lane} port {port}"
                );
            }
            r.step();
        }
        packed.step();
    }
}

#[test]
fn packed_sp_sweep_matches_64_interpreter_runs() {
    let m = generate_sp(&viterbi_like_program()).unwrap();
    monte_carlo_sweep(m, 2, 1, 300);
}

#[test]
fn packed_fsm_sweep_matches_64_interpreter_runs() {
    let s = ScheduleBuilder::new(2, 2)
        .read(0)
        .io([1], [0])
        .quiet(3)
        .write(1)
        .build()
        .unwrap();
    let m = generate_fsm(&s, FsmEncoding::OneHot).unwrap();
    monte_carlo_sweep(m, 2, 2, 300);
}

#[test]
fn packed_burst_sp_sweep_matches_interpreter_runs() {
    let s = ScheduleBuilder::new(2, 1)
        .read(0)
        .read(1)
        .quiet(30)
        .write(0)
        .write(0)
        .build()
        .unwrap();
    let m = generate_sp(&compress_bursty(&s)).unwrap();
    monte_carlo_sweep(m, 2, 1, 400);
}
