//! Regenerates **Table 1 "Applicative Results"** of Bomel et al.
//! (DATE 2005): FSM- vs SP-based synchronization wrapper synthesis for
//! the Viterbi and Reed-Solomon decoder IPs.
//!
//! Paper values for reference:
//!
//! ```text
//! Complexity        FSM            SP         Gain (%)
//! Port/wait/run   Sli.   Fr.    Sli.  Fr.    Sli.   Fr.
//! Viterbi 5/4/198  494   105     24   105    -95     0
//! RS    4/2957/1  2610    71     24   105    -99   +47
//! ```

use lis_bench::{default_threads, object, section, Artifact, Bar, Cli, CHECK, JSON, THREADS};
use lis_core::experiment::table1;
use lis_core::{synthesize_full_wrapper, SpCompression};
use lis_ip::{RsPearl, ViterbiPearl};
use lis_proto::Pearl;
use lis_schedule::{compress, compress_bursty};
use lis_sim::WorkStealingPool;
use lis_synth::TechParams;
use lis_wrappers::WrapperKind;
use serde::Value;
use std::time::Instant;

pub const ARTIFACT: Artifact = Artifact {
    name: "table1",
    about: "Table 1: FSM vs SP wrapper synthesis for the Viterbi and RS decoder IPs.",
    flags: &[JSON, CHECK, THREADS],
    refuse: |_| Ok(()),
    run,
};

fn run(cli: &Cli) -> (Value, Vec<Bar>) {
    let pool = WorkStealingPool::new(cli.count("--threads").unwrap_or_else(default_threads));
    let params = TechParams::default();
    section("Table 1 — Applicative Results (reproduction)");
    eprintln!("synthesis fan-out: {} threads", pool.threads());
    println!(
        "{:8} {:>14} | {:>10} {:>8} | {:>10} {:>8} | {:>9} {:>9} | paper",
        "IP", "port/wait/run", "FSM slices", "FSM MHz", "SP slices", "SP MHz", "Δslices", "ΔMHz"
    );
    let flow_start = Instant::now();
    let rows = table1(&params, &pool).expect("table 1 synthesis");
    let flow_ms = flow_start.elapsed().as_secs_f64() * 1e3;
    for r in &rows {
        println!(
            "{:8} {:>5}/{:<4}/{:<3} | {:>10} {:>8.1} | {:>10} {:>8.1} | {:>8.1}% {:>8.1}% | {:+.0}% / {:+.0}%",
            r.ip,
            r.ports,
            r.waits,
            r.max_run,
            r.fsm.report.area.slices,
            r.fsm.report.timing.fmax_mhz,
            r.sp.report.area.slices,
            r.sp.report.timing.fmax_mhz,
            r.slice_gain_pct(),
            r.freq_gain_pct(),
            r.paper_slice_gain_pct(),
            r.paper_freq_gain_pct(),
        );
    }

    section("Detail");
    for r in &rows {
        println!("[{}] FSM: {}", r.ip, r.fsm.report);
        println!("[{}] SP : {}", r.ip, r.sp.report);
        if let Some(ops) = r.sp.sp_ops {
            println!(
                "[{}] SP program: {} operations in ROM ({} bits of schedule storage)",
                r.ip,
                ops,
                r.sp.report.area.rom_bits_bram + r.sp.report.area.rom_bits_lutram
            );
        }
    }

    section("ROM compressibility (dictionary encoding, an SP-friendly optimization)");
    let (viterbi, rs) = (ViterbiPearl::new("v"), RsPearl::new("r"));
    for (ip, program) in [
        ("Viterbi", compress_bursty(viterbi.schedule())),
        ("RS", compress(rs.schedule())),
    ] {
        println!(
            "[{ip}] {} ops, {} distinct: direct {} bits -> dictionary {} bits ({:.1}x)",
            program.len(),
            program.unique_ops(),
            program.rom_bits_direct(),
            program.rom_bits_dictionary(),
            program.rom_bits_direct() as f64 / program.rom_bits_dictionary() as f64,
        );
    }

    section("Claim check");
    let (v, r) = (&rows[0], &rows[1]);
    println!(
        "SP slices Viterbi vs RS: {} vs {} — constant w.r.t. schedule length (paper: 24 vs 24)",
        v.sp.report.area.slices, r.sp.report.area.slices
    );
    println!(
        "FSM slices grow with schedule: {} (202 cycles) -> {} (2958 cycles)",
        v.fsm.report.area.slices, r.fsm.report.area.slices
    );

    section("Complete wrappers (controller + gate-level FIFO ports)");
    // Supplementary data beyond the paper's table: the complete
    // wrapper (ports included, as Figures 1/2 draw it).
    let ips: [(&str, &dyn Pearl, SpCompression); 2] = [
        ("Viterbi", &viterbi, SpCompression::Burst),
        ("RS", &rs, SpCompression::Safe),
    ];
    for (ip, pearl, compression) in ips {
        let io = pearl.interface();
        let ins: Vec<usize> = io.inputs().map(|p| p.width as usize).collect();
        let outs: Vec<usize> = io.outputs().map(|p| p.width as usize).collect();
        let (kind, schedule) = (WrapperKind::Sp, pearl.schedule());
        if let Ok(w) = synthesize_full_wrapper(kind, schedule, compression, &ins, &outs, &params) {
            println!("[{ip}] {w}");
        }
    }
    let report = object(&[("table1_flow_wall_ms", &flow_ms), ("rows", &rows)]);
    (report, Vec::new())
}
