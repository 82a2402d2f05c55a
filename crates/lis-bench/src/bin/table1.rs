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

use lis_bench::{default_threads, section, Arg, Cli, Flag};
use lis_core::experiment::table1;
use lis_sim::WorkStealingPool;
use lis_synth::TechParams;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag {
        name: "--json",
        arg: Arg::Path,
        help: "also write the rows and the flow's wall time as a JSON baseline",
    },
    Flag {
        name: "--threads",
        arg: Arg::Count,
        help: "pool workers fanning out the syntheses (default: cores, at most 8)",
    },
];

fn main() {
    let cli = Cli::from_env(
        "Table 1: FSM vs SP wrapper synthesis for the Viterbi and RS decoder IPs.",
        FLAGS,
    );
    let json_path = cli.value("--json");
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
    if let Some(path) = json_path {
        use serde::{Serialize, Value};
        let baseline = Value::Object(vec![
            ("table1_flow_wall_ms".into(), Value::Float(flow_ms)),
            ("rows".into(), rows.to_value()),
        ]);
        let json = serde_json::to_string_pretty(&baseline).expect("serialize table 1 rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }
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
    {
        use lis_proto::Pearl;
        use lis_schedule::{compress, compress_bursty};
        let viterbi = lis_ip::ViterbiPearl::new("v");
        let rs = lis_ip::RsPearl::new("r");
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
    }

    section("Claim check");
    let v = &rows[0];
    let rs = &rows[1];
    println!(
        "SP slices Viterbi vs RS: {} vs {} — constant w.r.t. schedule length (paper: 24 vs 24)",
        v.sp.report.area.slices, rs.sp.report.area.slices
    );
    println!(
        "FSM slices grow with schedule: {} (202 cycles) -> {} (2958 cycles)",
        v.fsm.report.area.slices, rs.fsm.report.area.slices
    );

    section("Complete wrappers (controller + gate-level FIFO ports)");
    use latency_insensitive_bench_support::full_wrapper_rows;
    for line in full_wrapper_rows(&params) {
        println!("{line}");
    }
}

/// Supplementary data beyond the paper's table: the complete wrapper
/// (ports included, as Figures 1/2 draw it).
mod latency_insensitive_bench_support {
    use lis_core::{synthesize_full_wrapper, SpCompression};
    use lis_ip::{RsPearl, ViterbiPearl};
    use lis_proto::Pearl;
    use lis_synth::TechParams;
    use lis_wrappers::WrapperKind;

    pub fn full_wrapper_rows(params: &TechParams) -> Vec<String> {
        let mut out = Vec::new();
        let viterbi = ViterbiPearl::new("v");
        let widths = |pearl: &dyn Pearl| {
            let ins: Vec<usize> = pearl
                .interface()
                .inputs()
                .map(|p| p.width as usize)
                .collect();
            let outs: Vec<usize> = pearl
                .interface()
                .outputs()
                .map(|p| p.width as usize)
                .collect();
            (ins, outs)
        };
        let (ins, outs) = widths(&viterbi);
        if let Ok(w) = synthesize_full_wrapper(
            WrapperKind::Sp,
            viterbi.schedule(),
            SpCompression::Burst,
            &ins,
            &outs,
            params,
        ) {
            out.push(format!("[Viterbi] {w}"));
        }
        let rs = RsPearl::new("r");
        let (ins, outs) = widths(&rs);
        if let Ok(w) = synthesize_full_wrapper(
            WrapperKind::Sp,
            rs.schedule(),
            SpCompression::Safe,
            &ins,
            &outs,
            params,
        ) {
            out.push(format!("[RS] {w}"));
        }
        out
    }
}
