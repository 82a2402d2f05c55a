//! E3/E4: the paper's central claim, swept. "Its complexity does not
//! depend on the number of cycles the IP needs for a whole computation
//! but only on the number of ports. Consequently its frequency and area
//! are constant, for a given number of ports." (§5)
//!
//! E3 sweeps schedule length at fixed ports; E4 sweeps port count at
//! fixed schedule length. Pass `--sweep ports` for E4 only, `--sweep
//! length` for E3 only, `--sweep sim` for the simulation-throughput
//! sweep only; `--sweep all` (the default) runs all three, and `--json`
//! and `--check` refuse any other, since only all three make up the
//! recorded baseline.
//!
//! A third sweep measures **simulation throughput** over the same
//! growing schedules, on all three netlist engines: the interpreting
//! `NetlistSim` (the oracle) and the two JIT-lowered engines (fused
//! direct-threaded scalar, and 64-lane packed). Both the
//! FSM wrapper (whose netlist grows with schedule length — the hard
//! case) and the SP wrapper (constant logic) are swept. This is the
//! baseline every future performance change has to beat, and `--check`
//! enforces the JIT speedup bars over the interpreter at the largest
//! FSM point. Every point times each engine five times (`REPS`), the
//! engines alternating, and its speedups are ratios of the medians.

use lis_bench::{
    bar, default_threads, object, print_rows, section, Arg, Artifact, Bar, Cli, Flag, CHECK, JSON,
    THREADS,
};
use lis_core::experiment::{median, scaling_by_length, scaling_by_ports};
use lis_netlist::{LoweringStats, Module, NetlistStats};
use lis_schedule::{random_schedule, IoSchedule, RandomScheduleParams};
use lis_sim::{JitNetlistSim, JitPackedNetlistSim, NetlistSim, WorkStealingPool, LANES};
use lis_synth::TechParams;
use lis_wrappers::{FsmEncoding, WrapperKind};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Serialize, Value};
use std::time::Instant;

/// Timed runs per engine and point.
const REPS: usize = 5;
/// The `--check` bars at the largest FSM point: scalar JIT and packed
/// JIT (lane throughput) over the interpreter, ratios of medians.
const JIT_BAR: f64 = 15.4;
const JIT_PACKED_BAR: f64 = 872.0;

/// One simulation-throughput point: a wrapper netlist at one schedule
/// length, timed on all three engines. Throughputs are million
/// cycles/second (`mcps`) and, for the packed engines, million
/// *lane*-cycles/second (`mlcps`, 64 Monte-Carlo lanes per cycle).
/// `jit_stats` records what the JIT lowering did to the instruction
/// stream — structural, deterministic counters that `--check` pins
/// against drift.
#[derive(Debug, Clone, Serialize)]
struct SimScalingRow {
    period: usize,
    model: String,
    nets: usize,
    cells: usize,
    levels: usize,
    cycles_run: u64,
    interp_mcps: f64,
    jit_mcps: f64,
    jit_packed_mlcps: f64,
    speedup_jit: f64,
    speedup_jit_packed: f64,
    jit_stats: LoweringStats,
}

impl std::fmt::Display for SimScalingRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "x={:5} {:12} {:6} cells {:3} levels | interp {:8.3} Mc/s | jit {:8.3} Mc/s ({:5.1}x) | jit packed {:8.1} Mlc/s ({:6.1}x)",
            self.period,
            self.model,
            self.cells,
            self.levels,
            self.interp_mcps,
            self.jit_mcps,
            self.speedup_jit,
            self.jit_packed_mlcps,
            self.speedup_jit_packed,
        )
    }
}

/// Times `cycles` of the interpreter under random `ne`/`nf` traffic;
/// returns (seconds, enable-count checksum).
fn time_interp(module: &Module, cycles: u64) -> (f64, u64) {
    let mut sim = NetlistSim::new(module.clone()).expect("wrapper validates");
    sim.set_input("rst", 0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5CA1_AB1E);
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..cycles {
        let r = rng.next_u64();
        sim.set_input("ne", r & 0b11).unwrap();
        sim.set_input("nf", (r >> 32) & 0b11).unwrap();
        sim.step();
        checksum += sim.get_output("enable").unwrap();
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// The packed engine's stimulus: one random 64-lane word per `ne`/`nf`
/// bit per cycle, so every lane sees its own traffic — exactly the
/// Monte-Carlo sweep workload.
fn packed_stimulus(rng: &mut StdRng) -> [u64; 4] {
    [
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
    ]
}

/// The interpreter's enable count under lane 0 of [`packed_stimulus`]:
/// the reference for [`time_jit_packed`]'s checksum (untimed).
fn interp_lane0_checksum(module: &Module, cycles: u64) -> u64 {
    let mut sim = NetlistSim::new(module.clone()).expect("wrapper validates");
    sim.set_input("rst", 0).unwrap();
    let mut rng = StdRng::seed_from_u64(0xB1A5_ED00);
    let mut checksum = 0u64;
    for _ in 0..cycles {
        let [ne0, ne1, nf0, nf1] = packed_stimulus(&mut rng);
        sim.set_input("ne", (ne0 & 1) | ((ne1 & 1) << 1)).unwrap();
        sim.set_input("nf", (nf0 & 1) | ((nf1 & 1) << 1)).unwrap();
        sim.step();
        checksum += sim.get_output("enable").unwrap();
    }
    checksum
}

/// Same protocol as [`time_interp`] on the JIT-lowered scalar engine,
/// through pre-resolved port handles.
fn time_jit(module: &Module, cycles: u64) -> (f64, u64) {
    let mut sim = JitNetlistSim::new(module.clone()).expect("wrapper validates");
    let h_ne = sim.input_handle("ne").unwrap();
    let h_nf = sim.input_handle("nf").unwrap();
    let h_en = sim.output_handle("enable").unwrap();
    sim.set_input("rst", 0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5CA1_AB1E);
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..cycles {
        let r = rng.next_u64();
        sim.set_input_h(h_ne, r & 0b11);
        sim.set_input_h(h_nf, (r >> 32) & 0b11);
        sim.step();
        checksum += sim.get_output_h(h_en);
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Times the JIT-lowered packed engine under [`packed_stimulus`].
/// Returns (seconds, lane-0 enable-count checksum) so the caller can
/// pin it against the interpreter's stream.
fn time_jit_packed(module: &Module, cycles: u64) -> (f64, u64) {
    let mut sim = JitPackedNetlistSim::new(module.clone()).expect("wrapper validates");
    let h_ne = sim.input_handle("ne").unwrap();
    let h_nf = sim.input_handle("nf").unwrap();
    let h_en = sim.output_handle("enable").unwrap();
    sim.set_input_all("rst", 0).unwrap();
    let mut rng = StdRng::seed_from_u64(0xB1A5_ED00);
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..cycles {
        let [ne0, ne1, nf0, nf1] = packed_stimulus(&mut rng);
        sim.set_input_bit_lanes(h_ne, 0, ne0);
        sim.set_input_bit_lanes(h_ne, 1, ne1);
        sim.set_input_bit_lanes(h_nf, 0, nf0);
        sim.set_input_bit_lanes(h_nf, 1, nf1);
        sim.step();
        checksum += sim.get_output_bit_lanes(h_en, 0) & 1;
    }
    (start.elapsed().as_secs_f64(), checksum)
}

fn sim_scaling_rows(periods: &[usize]) -> Vec<SimScalingRow> {
    let mut rows = Vec::new();
    for &period in periods {
        let schedule: IoSchedule = random_schedule(
            0xC0FFEE ^ period as u64,
            RandomScheduleParams {
                n_inputs: 2,
                n_outputs: 2,
                period,
                sync_density: 0.3,
                port_density: 0.5,
            },
        );
        for kind in [WrapperKind::Fsm(FsmEncoding::OneHot), WrapperKind::Sp] {
            let module = kind.generate_netlist(&schedule).expect("generation");
            let stats = NetlistStats::of(&module);
            // Deterministic cycle budget, inversely scaled with netlist
            // size so every point costs roughly the same wall time.
            let cycles = (2_000_000 / module.cell_count().max(1)).clamp(500, 20_000) as u64;
            // The engines alternate within every round, so drift on a
            // shared host hits them alike; each keeps its median.
            let packed_checksum = interp_lane0_checksum(&module, cycles * 2);
            let mut walls = [const { Vec::new() }; 3];
            for _ in 0..REPS {
                let (interp_s, interp_sum) = time_interp(&module, cycles);
                let (jit_s, jit_sum) = time_jit(&module, cycles);
                let (packed_s, packed_sum) = time_jit_packed(&module, cycles * 2);
                // Same stimulus stream => same enable checksum; a cheap
                // cross-check that the engines agreed while being timed.
                assert_eq!(interp_sum, jit_sum, "jit engine diverged during timing");
                assert_eq!(
                    packed_sum, packed_checksum,
                    "jit packed engine diverged during timing"
                );
                for (w, s) in walls.iter_mut().zip([interp_s, jit_s, packed_s]) {
                    w.push(s);
                }
            }
            let [interp_s, jit_s, jit_packed_s] = walls.map(median);
            let jit_stats = JitNetlistSim::new(module.clone())
                .expect("wrapper validates")
                .program()
                .stats()
                .clone();
            let interp_mcps = cycles as f64 / interp_s / 1e6;
            let jit_mcps = cycles as f64 / jit_s / 1e6;
            let jit_packed_mlcps = (cycles * 2 * LANES as u64) as f64 / jit_packed_s / 1e6;
            rows.push(SimScalingRow {
                period,
                model: kind.to_string(),
                nets: stats.nets,
                cells: stats.cells,
                levels: stats.levels,
                cycles_run: cycles,
                interp_mcps,
                jit_mcps,
                jit_packed_mlcps,
                speedup_jit: jit_mcps / interp_mcps,
                speedup_jit_packed: jit_packed_mlcps / interp_mcps,
                jit_stats,
            });
        }
    }
    rows
}

pub const ARTIFACT: Artifact = Artifact {
    name: "scaling",
    about: "E3/E4: wrapper area and fmax vs schedule length and port count, plus \
            netlist simulation throughput.",
    flags: &[
        Flag {
            name: "--sweep",
            arg: Arg::OneOf(&["length", "ports", "sim", "all"]),
            help: "run one sweep only (default: all of them)",
        },
        JSON,
        CHECK,
        THREADS,
    ],
    refuse,
    run,
};

/// The baseline holds every sweep, so `--json` and `--check` need them
/// all.
fn refuse(cli: &Cli) -> Result<(), String> {
    match (
        cli.value("--sweep"),
        ["--json", "--check"].iter().find(|f| cli.switch(f)),
    ) {
        (Some(sweep), Some(flag)) if sweep != "all" => Err(format!(
            "`{flag}` needs every sweep, but `--sweep {sweep}` runs one; drop `--sweep` \
             or give `--sweep all`"
        )),
        _ => Ok(()),
    }
}

fn run(cli: &Cli) -> (Value, Vec<Bar>) {
    let what = cli.value("--sweep").unwrap_or("all");
    let pool = WorkStealingPool::new(cli.count("--threads").unwrap_or_else(default_threads));
    eprintln!("synthesis fan-out: {} threads", pool.threads());
    let params = TechParams::default();
    let periods = [16usize, 64, 256, 1024, 4096];

    let mut length_rows = Vec::new();
    if what == "all" || what == "length" {
        section("E3 — area & fmax vs schedule length (2 in / 2 out ports)");
        length_rows = scaling_by_length(&periods, &params, &pool).expect("length sweep");
        print_rows(&length_rows);
        section("E3 — slices, charted");
        let max = length_rows.iter().map(|r| r.slices).max().unwrap_or(1) as f64;
        for r in &length_rows {
            println!(
                "x={:5} {:12} {:6} |{}",
                r.x,
                r.model,
                r.slices,
                bar(r.slices as f64, max, 50)
            );
        }
    }

    let mut port_rows = Vec::new();
    if what == "all" || what == "ports" {
        section("E4 — area & fmax vs port count (64-cycle schedule)");
        port_rows = scaling_by_ports(&[2, 4, 8, 16, 32], &params, &pool).expect("port sweep");
        print_rows(&port_rows);
    }

    let mut sim_rows = Vec::new();
    let mut margins = Vec::new();
    let mut bars = Vec::new();
    if what == "all" || what == "sim" {
        section(
            "Simulation throughput vs schedule length (interpreter / jit / 64-lane jit packed)",
        );
        println!("median of {REPS} alternating runs per engine and point");
        sim_rows = sim_scaling_rows(&periods);
        print_rows(&sim_rows);
        section("JIT lowering (per row: fusion / folding / elimination counters)");
        for r in &sim_rows {
            println!("x={:5} {:12} {}", r.period, r.model, r.jit_stats);
        }
        if let Some(worst) = sim_rows
            .iter()
            .filter(|r| r.model.starts_with("fsm"))
            .max_by_key(|r| r.cells)
        {
            println!(
                "largest point ({} @ {} cells): jit {:.1}x, jit packed {:.1}x lane-throughput",
                worst.model, worst.cells, worst.speedup_jit, worst.speedup_jit_packed,
            );
            println!("largest point opcode runs:");
            for oc in &worst.jit_stats.ops {
                println!(
                    "  {:10} {:5} instrs in {:3} runs",
                    oc.op, oc.instrs, oc.runs
                );
            }
            let (jit, packed) = (worst.speedup_jit, worst.speedup_jit_packed);
            let (jit_margin, packed_margin) = (jit - JIT_BAR, packed - JIT_PACKED_BAR);
            println!(
                "largest point, ratios of medians: jit/interp {jit:.1}x \
                 (bar {JIT_BAR}x, margin {jit_margin:+.1}x), jit-packed/interp \
                 {packed:.0}x (bar {JIT_PACKED_BAR}x, margin {packed_margin:+.0}x)"
            );
            margins = vec![
                ("speedup_jit_margin", jit_margin),
                ("speedup_jit_packed_margin", packed_margin),
            ];
            bars = vec![
                Bar::at_least("largest-point jit / interp", jit, JIT_BAR),
                Bar::at_least("largest-point jit packed / interp", packed, JIT_PACKED_BAR),
            ];
        }
    }

    let mut report: Vec<(&str, &dyn Serialize)> = vec![
        ("rows_length", &length_rows),
        ("rows_ports", &port_rows),
        ("sim_throughput", &sim_rows),
    ];
    report.extend(margins.iter().map(|(k, m)| (*k, m as &dyn Serialize)));
    (object(&report), bars)
}
