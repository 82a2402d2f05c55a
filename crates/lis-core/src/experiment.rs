//! Experiment drivers: one function per table/figure of the paper plus
//! the claim-driven sweeps (see DESIGN.md §4 for the index).

use crate::flow::{synthesize_wrapper, SpCompression, WrapperSynthesis};
use crate::soc::SocBuilder;
use lis_ip::{RsPearl, ViterbiPearl};
use lis_proto::{AccumulatorPearl, Pearl};
use lis_schedule::{compress, compress_bursty, random_schedule, IoSchedule, RandomScheduleParams};
use lis_sim::{SchedulerStats, SettleMode, WorkStealingPool};
use lis_synth::TechParams;
use lis_wrappers::{FsmEncoding, WrapperKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Runs a batch of independent wrapper syntheses across `pool` (the
/// jobs share no state; results keep the submission order).
fn synthesize_batch(
    jobs: Vec<(WrapperKind, IoSchedule, SpCompression)>,
    params: &TechParams,
    pool: &WorkStealingPool,
) -> Result<Vec<WrapperSynthesis>, lis_netlist::NetlistError> {
    pool.map(jobs, |(kind, schedule, compression)| {
        synthesize_wrapper(kind, &schedule, compression, params)
    })
    .into_iter()
    .collect()
}

/// Reference values from the paper's Table 1.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PaperRow {
    /// FSM slices.
    pub fsm_slices: usize,
    /// FSM frequency (MHz).
    pub fsm_mhz: f64,
    /// SP slices.
    pub sp_slices: usize,
    /// SP frequency (MHz).
    pub sp_mhz: f64,
}

/// The paper's Viterbi row: FSM 494 slices / 105 MHz, SP 24 / 105.
pub const PAPER_VITERBI: PaperRow = PaperRow {
    fsm_slices: 494,
    fsm_mhz: 105.0,
    sp_slices: 24,
    sp_mhz: 105.0,
};

/// The paper's RS row: FSM 2610 slices / 71 MHz, SP 24 / 105.
pub const PAPER_RS: PaperRow = PaperRow {
    fsm_slices: 2610,
    fsm_mhz: 71.0,
    sp_slices: 24,
    sp_mhz: 105.0,
};

/// One reproduced row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// IP name.
    pub ip: String,
    /// Port count (paper column "Port").
    pub ports: usize,
    /// Synchronization operations (paper column "wait").
    pub waits: usize,
    /// Largest run count (paper column "run").
    pub max_run: u32,
    /// Our FSM synthesis.
    pub fsm: WrapperSynthesis,
    /// Our SP synthesis.
    pub sp: WrapperSynthesis,
    /// Paper reference numbers.
    pub paper: PaperRow,
}

impl Table1Row {
    /// Area gain in percent ((sp − fsm)/fsm × 100; negative = saved).
    pub fn slice_gain_pct(&self) -> f64 {
        let fsm = self.fsm.report.area.slices as f64;
        let sp = self.sp.report.area.slices as f64;
        (sp - fsm) / fsm * 100.0
    }

    /// Frequency gain in percent.
    pub fn freq_gain_pct(&self) -> f64 {
        let fsm = self.fsm.report.timing.fmax_mhz;
        let sp = self.sp.report.timing.fmax_mhz;
        (sp - fsm) / fsm * 100.0
    }

    /// The paper's area gain for this row.
    pub fn paper_slice_gain_pct(&self) -> f64 {
        (self.paper.sp_slices as f64 - self.paper.fsm_slices as f64) / self.paper.fsm_slices as f64
            * 100.0
    }

    /// The paper's frequency gain for this row.
    pub fn paper_freq_gain_pct(&self) -> f64 {
        (self.paper.sp_mhz - self.paper.fsm_mhz) / self.paper.fsm_mhz * 100.0
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:8} {}/{}/{:<4}  FSM: {:5} sli {:6.1} MHz | SP: {:4} sli {:6.1} MHz | gain {:+6.1}% sli {:+6.1}% MHz (paper {:+.1}% / {:+.1}%)",
            self.ip,
            self.ports,
            self.waits,
            self.max_run,
            self.fsm.report.area.slices,
            self.fsm.report.timing.fmax_mhz,
            self.sp.report.area.slices,
            self.sp.report.timing.fmax_mhz,
            self.slice_gain_pct(),
            self.freq_gain_pct(),
            self.paper_slice_gain_pct(),
            self.paper_freq_gain_pct(),
        )
    }
}

/// Reproduces Table 1: FSM vs SP synthesis of the Viterbi and RS wrapper
/// controllers, the four independent syntheses fanned out across
/// `pool`.
///
/// # Errors
///
/// Propagates netlist generation/validation errors.
pub fn table1(
    params: &TechParams,
    pool: &WorkStealingPool,
) -> Result<Vec<Table1Row>, lis_netlist::NetlistError> {
    // Viterbi: 5 ports, burst program (4 ops, run up to 198).
    let viterbi_schedule = ViterbiPearl::new("viterbi").schedule().clone();
    let viterbi_program = compress_bursty(&viterbi_schedule);
    // RS: 4 ports, safe program (one op per cycle, run 1).
    let rs_schedule = RsPearl::new("rs").schedule().clone();
    let rs_program = compress(&rs_schedule);

    let mut results = synthesize_batch(
        vec![
            (
                WrapperKind::Fsm(FsmEncoding::OneHot),
                viterbi_schedule.clone(),
                SpCompression::Safe,
            ),
            (WrapperKind::Sp, viterbi_schedule, SpCompression::Burst),
            (
                WrapperKind::Fsm(FsmEncoding::OneHot),
                rs_schedule.clone(),
                SpCompression::Safe,
            ),
            (WrapperKind::Sp, rs_schedule, SpCompression::Safe),
        ],
        params,
        pool,
    )?
    .into_iter();
    let mut next = || results.next().expect("one result per job");

    Ok(vec![
        Table1Row {
            ip: "Viterbi".to_owned(),
            ports: 5,
            waits: viterbi_program.len(),
            max_run: viterbi_program.max_run(),
            fsm: next(),
            sp: next(),
            paper: PAPER_VITERBI,
        },
        Table1Row {
            ip: "RS".to_owned(),
            ports: 4,
            waits: rs_program.len(),
            max_run: rs_program.max_run(),
            fsm: next(),
            sp: next(),
            paper: PAPER_RS,
        },
    ])
}

/// One point of the scaling sweep (experiment E3/E4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Swept quantity value (schedule cycles for E3, ports for E4).
    pub x: usize,
    /// Wrapper model.
    pub model: String,
    /// Occupied slices.
    pub slices: usize,
    /// Maximum frequency.
    pub fmax_mhz: f64,
    /// ROM bits (schedule storage — grows for the SP while logic stays
    /// flat).
    pub rom_bits: usize,
}

impl fmt::Display for ScalingRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "x={:6} {:12} {:6} slices {:7.1} MHz {:8} ROM bits",
            self.x, self.model, self.slices, self.fmax_mhz, self.rom_bits
        )
    }
}

fn sweep_schedule(period: usize, n_inputs: usize, n_outputs: usize) -> IoSchedule {
    random_schedule(
        0xC0FFEE ^ period as u64 ^ ((n_inputs as u64) << 32),
        RandomScheduleParams {
            n_inputs,
            n_outputs,
            period,
            sync_density: 0.3,
            port_density: 0.5,
        },
    )
}

/// E3: area/fmax vs schedule length at fixed port count, the
/// independent syntheses fanned out across `pool`.
///
/// # Errors
///
/// Propagates netlist generation/validation errors.
pub fn scaling_by_length(
    periods: &[usize],
    params: &TechParams,
    pool: &WorkStealingPool,
) -> Result<Vec<ScalingRow>, lis_netlist::NetlistError> {
    let mut jobs = Vec::new();
    let mut xs = Vec::new();
    for &period in periods {
        let schedule = sweep_schedule(period, 2, 2);
        for kind in [
            WrapperKind::Comb,
            WrapperKind::Fsm(FsmEncoding::OneHot),
            WrapperKind::ShiftReg,
            WrapperKind::Sp,
        ] {
            jobs.push((kind, schedule.clone(), SpCompression::Safe));
            xs.push(period);
        }
    }
    let rows = synthesize_batch(jobs, params, pool)?;
    Ok(xs
        .into_iter()
        .zip(rows)
        .map(|(x, w)| ScalingRow {
            x,
            model: w.model.clone(),
            slices: w.report.area.slices,
            fmax_mhz: w.report.timing.fmax_mhz,
            rom_bits: w.report.area.rom_bits_bram + w.report.area.rom_bits_lutram,
        })
        .collect())
}

/// E4: area/fmax vs port count at fixed schedule length, the
/// independent syntheses fanned out across `pool`.
///
/// # Errors
///
/// Propagates netlist generation/validation errors.
pub fn scaling_by_ports(
    port_counts: &[usize],
    params: &TechParams,
    pool: &WorkStealingPool,
) -> Result<Vec<ScalingRow>, lis_netlist::NetlistError> {
    let mut jobs = Vec::new();
    let mut xs = Vec::new();
    for &ports in port_counts {
        let n_in = ports.div_ceil(2);
        let n_out = ports / 2;
        let schedule = sweep_schedule(64, n_in, n_out.max(1));
        for kind in [
            WrapperKind::Comb,
            WrapperKind::Fsm(FsmEncoding::OneHot),
            WrapperKind::Sp,
        ] {
            jobs.push((kind, schedule.clone(), SpCompression::Safe));
            xs.push(ports);
        }
    }
    let rows = synthesize_batch(jobs, params, pool)?;
    Ok(xs
        .into_iter()
        .zip(rows)
        .map(|(x, w)| ScalingRow {
            x,
            model: w.model.clone(),
            slices: w.report.area.slices,
            fmax_mhz: w.report.timing.fmax_mhz,
            rom_bits: w.report.area.rom_bits_bram + w.report.area.rom_bits_lutram,
        })
        .collect())
}

/// One point of the throughput experiment (E5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Wrapper model.
    pub model: String,
    /// Relay stations on each link.
    pub latency: usize,
    /// Source/sink stall probability.
    pub stall: f64,
    /// Informative tokens delivered per cycle.
    pub tokens_per_cycle: f64,
    /// Whether the informative stream matched the zero-latency reference.
    pub stream_intact: bool,
    /// Protocol violations observed.
    pub violations: u64,
}

impl fmt::Display for ThroughputRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:12} latency={} stall={:.2}: {:.4} tok/cyc, intact={}, violations={}",
            self.model,
            self.latency,
            self.stall,
            self.tokens_per_cycle,
            self.stream_intact,
            self.violations
        )
    }
}

/// E5: throughput and correctness of a relayed accumulator pipeline
/// under every wrapper model, across link latencies and stall rates.
pub fn throughput_sweep(latencies: &[usize], stalls: &[f64], cycles: u64) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    let kinds = [
        WrapperKind::Comb,
        WrapperKind::Fsm(FsmEncoding::OneHot),
        WrapperKind::Sp,
    ];
    // Reference stream: what the pearl computes on ideal channels.
    let reference: Vec<u64> = (1..=u64::MAX)
        .scan(0u64, |acc, v| {
            *acc = acc.wrapping_add(v);
            Some(*acc)
        })
        .take(100_000)
        .collect();

    for kind in kinds {
        for &latency in latencies {
            for &stall in stalls {
                let mut b = SocBuilder::new();
                let ip = b.add_ip("acc", Box::new(AccumulatorPearl::new("acc", 1, 1, 0)), kind);
                let stage = b.channel("stage", 32);
                b.feed("src", stage, 1..=1_000_000, stall, 17);
                b.link(stage, ip.inputs[0], latency);
                let out_stage = b.channel("out_stage", 32);
                b.link(ip.outputs[0], out_stage, latency);
                b.capture("out", out_stage, stall, 23);
                let mut soc = b.build();
                soc.run(cycles).expect("simulation");
                let got = soc.received("out");
                let intact = got.len() <= reference.len() && got[..] == reference[..got.len()];
                rows.push(ThroughputRow {
                    model: kind.to_string(),
                    latency,
                    stall,
                    tokens_per_cycle: got.len() as f64 / cycles as f64,
                    stream_intact: intact,
                    violations: soc.violations(),
                });
            }
        }
    }
    rows
}

/// Configuration of the E5 settle-path throughput benchmark: a grid of
/// `chains` independent pipelines, each `depth` gate-level SP-wrapped
/// pearls deep, linked through relay stations.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SettleBenchConfig {
    /// Independent pearl pipelines (the width of each dependency level).
    pub chains: usize,
    /// Pearls per pipeline.
    pub depth: usize,
    /// Relay stations on each inter-stage link (0 = unbuffered).
    pub relays: usize,
    /// Extra zero-latency wire segments per link: the long unbuffered
    /// wires whose `stop` back-pressure ripples *combinationally* across
    /// the whole chain within one cycle — the settle problem relay
    /// stations exist to segment (paper §2). The blind full sweep pays
    /// one whole-system sweep per ripple hop; the activity kernel
    /// re-evaluates only the wires the ripple actually reaches.
    pub wire_hops: usize,
    /// Clock cycles to simulate per engine.
    pub cycles: u64,
    /// Source/sink stall probability (stalls are what launch `stop`
    /// ripples).
    pub stall: f64,
}

impl Default for SettleBenchConfig {
    fn default() -> Self {
        SettleBenchConfig {
            chains: 4,
            depth: 4,
            relays: 0,
            wire_hops: 8,
            cycles: 1500,
            stall: 0.3,
        }
    }
}

/// Stable structural shape of the settle-bench SoC (drift-checkable).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SettleBenchShape {
    /// Total pearls instantiated.
    pub pearls: usize,
    /// Simulator components (shells + relays + wires + endpoints).
    pub components: usize,
    /// Signals in the arena.
    pub signals: usize,
    /// Scheduler groups after clustering + SCC condensation.
    pub sched_groups: usize,
    /// Scheduler dependency levels.
    pub sched_levels: usize,
    /// Condensed combinational SCCs needing an inner fixpoint.
    pub sched_cyclic_groups: usize,
    /// Groups in the widest dependency level.
    pub sched_max_level_width: usize,
}

/// One engine measurement of the settle-path benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SettleBenchRow {
    /// Settle engine ("full-sweep" or "fast-forward").
    pub engine: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Median wall time over the timed runs (volatile; excluded from
    /// drift checks).
    pub wall_ms: f64,
    /// Simulated kilocycles per second at the median wall time
    /// (volatile).
    pub kcps: f64,
    /// Total informative tokens delivered across all sinks (stable —
    /// must be identical for every engine).
    pub received: u64,
    /// Wrapping sum of all delivered tokens (stable).
    pub checksum: u64,
    /// Groups evaluated by activity settles (stable; 0 for the full
    /// sweep).
    pub groups_evaluated: u64,
    /// Groups skipped as quiescent (stable; 0 for the full sweep).
    pub groups_skipped: u64,
    /// Component ticks executed (stable; 0 for the full sweep).
    pub components_ticked: u64,
    /// Component ticks skipped as quiescent (stable; 0 for the full
    /// sweep).
    pub components_quiescent: u64,
}

impl fmt::Display for SettleBenchRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:12}: {:8.1} kcyc/s ({:7.1} ms for {} cycles), {} tokens, checksum {:#x}",
            self.engine, self.kcps, self.wall_ms, self.cycles, self.received, self.checksum
        )?;
        let evals = self.groups_evaluated + self.groups_skipped;
        let ticks = self.components_ticked + self.components_quiescent;
        if evals > 0 || ticks > 0 {
            write!(
                f,
                ", skipped {:.1}% of group evals / {:.1}% of ticks",
                100.0 * self.groups_skipped as f64 / evals.max(1) as f64,
                100.0 * self.components_quiescent as f64 / ticks.max(1) as f64,
            )?;
        }
        Ok(())
    }
}

/// Builds the many-pearl settle-bench SoC: `chains` × `depth` gate-level
/// SP-wrapped accumulators (the complete Figure 2 shell, ports included,
/// so every settle evaluates real gate-level logic).
fn settle_bench_soc(cfg: &SettleBenchConfig, mode: SettleMode) -> crate::soc::Soc {
    let mut b = SocBuilder::new();
    b.set_settle_mode(mode);
    for c in 0..cfg.chains {
        let mut upstream: Option<lis_proto::LisChannel> = None;
        for d in 0..cfg.depth {
            let ip = b.add_ip_full_netlist(
                format!("p{c}_{d}"),
                Box::new(AccumulatorPearl::new("acc", 1, 1, 0)),
                WrapperKind::Sp,
            );
            match upstream {
                None => b.feed(
                    format!("src{c}"),
                    ip.inputs[0],
                    1..=1_000_000,
                    cfg.stall,
                    1000 + c as u64,
                ),
                Some(prev) => {
                    // A long unbuffered wire: `wire_hops` staged
                    // zero-latency segments, then the (optional) relay
                    // stations, then the pearl input.
                    let mut cur = prev;
                    for h in 0..cfg.wire_hops {
                        let next = b.channel(&format!("w{c}_{d}_{h}"), 32);
                        b.link(cur, next, 0);
                        cur = next;
                    }
                    b.link(cur, ip.inputs[0], cfg.relays);
                }
            }
            upstream = Some(ip.outputs[0]);
        }
        b.capture(
            format!("out{c}"),
            upstream.expect("depth >= 1"),
            cfg.stall,
            2000 + c as u64,
        );
    }
    b.build()
}

/// The median of repeated timings: the mean of the middle two for an
/// even count.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Canonical bench label of a [`SettleMode`].
pub fn engine_name(mode: SettleMode) -> &'static str {
    match mode {
        SettleMode::FullSweep => "full-sweep",
        SettleMode::FastForward => "fast-forward",
    }
}

/// E5 (settle path): wall-clock throughput of the component kernel on a
/// many-pearl SoC, one row per settle engine. Each engine is timed
/// `reps` times (at least once) on a freshly built SoC, the engines
/// alternating within every round so that drift on a shared host hits
/// them alike; a row reports the median wall time. Every run must
/// deliver the identical token streams — the checksum column proves it
/// — and repeat its engine's work counters exactly.
///
/// # Panics
///
/// Panics if `engines` is empty, if a run diverges, or if the SoC
/// reports protocol violations.
pub fn settle_bench(
    cfg: &SettleBenchConfig,
    engines: &[SettleMode],
    reps: usize,
) -> (SettleBenchShape, Vec<SettleBenchRow>) {
    let mut shape: Option<SettleBenchShape> = None;
    let mut rows: Vec<Option<SettleBenchRow>> = vec![None; engines.len()];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    for _ in 0..reps.max(1) {
        for (i, &mode) in engines.iter().enumerate() {
            let mut soc = settle_bench_soc(cfg, mode);
            if shape.is_none() {
                // The structural shape is mode-independent; read it off
                // the first SoC before timing it (the scheduler seal
                // this triggers is work every engine would do inside its
                // first settle anyway).
                let stats: SchedulerStats = soc.system_mut().scheduler_stats();
                shape = Some(SettleBenchShape {
                    pearls: cfg.chains * cfg.depth,
                    components: soc.system().component_count(),
                    signals: soc.system().signal_count(),
                    sched_groups: stats.groups,
                    sched_levels: stats.levels,
                    sched_cyclic_groups: stats.cyclic_groups,
                    sched_max_level_width: stats.max_level_width,
                });
            }
            let start = Instant::now();
            soc.run(cfg.cycles).expect("settle bench simulation");
            walls[i].push(start.elapsed().as_secs_f64() * 1e3);
            let mut received = 0u64;
            let mut checksum = 0u64;
            for c in 0..cfg.chains {
                for v in soc.received(&format!("out{c}")) {
                    received += 1;
                    checksum = checksum.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
                }
            }
            assert_eq!(soc.violations(), 0, "settle bench must stay protocol-clean");
            let run_stats = soc.scheduler_stats();
            let row = SettleBenchRow {
                engine: engine_name(mode).to_owned(),
                cycles: cfg.cycles,
                wall_ms: 0.0,
                kcps: 0.0,
                received,
                checksum,
                groups_evaluated: run_stats.groups_evaluated,
                groups_skipped: run_stats.groups_skipped,
                components_ticked: run_stats.components_ticked,
                components_quiescent: run_stats.components_quiescent,
            };
            let stable = |r: &SettleBenchRow| {
                (
                    r.received,
                    r.checksum,
                    r.groups_evaluated,
                    r.groups_skipped,
                    r.components_ticked,
                    r.components_quiescent,
                )
            };
            match &rows[i] {
                None => rows[i] = Some(row),
                Some(first) => assert_eq!(
                    stable(first),
                    stable(&row),
                    "{} must repeat its run exactly",
                    row.engine
                ),
            }
        }
    }
    let rows = rows
        .into_iter()
        .zip(walls)
        .map(|(row, walls)| {
            let mut row = row.expect("every engine ran");
            row.wall_ms = median(walls);
            row.kcps = cfg.cycles as f64 / 1e3 / (row.wall_ms / 1e3);
            row
        })
        .collect();
    (shape.expect("at least one engine"), rows)
}

/// One row of the ablation study (E6): FSM encodings and the static
/// wrapper's failure under irregular streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// What was varied.
    pub variant: String,
    /// Slices (synthesis ablations) — 0 for behavioural rows.
    pub slices: usize,
    /// fmax (synthesis ablations) — 0 for behavioural rows.
    pub fmax_mhz: f64,
    /// Stall probability injected (behavioural rows).
    pub stall: f64,
    /// Whether the output stream was correct.
    pub stream_intact: bool,
    /// Protocol violations.
    pub violations: u64,
}

impl fmt::Display for AblationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.slices > 0 {
            write!(
                f,
                "{:24} {:6} slices {:7.1} MHz",
                self.variant, self.slices, self.fmax_mhz
            )
        } else {
            write!(
                f,
                "{:24} stall={:.2} intact={} violations={}",
                self.variant, self.stall, self.stream_intact, self.violations
            )
        }
    }
}

/// E6: design ablations — one-hot vs binary FSM encoding on the Table 1
/// schedules, and shift-register correctness vs stream irregularity.
///
/// # Errors
///
/// Propagates netlist generation/validation errors.
pub fn ablation(params: &TechParams) -> Result<Vec<AblationRow>, lis_netlist::NetlistError> {
    let mut rows = Vec::new();

    let viterbi = ViterbiPearl::new("v");
    for (label, enc) in [
        ("viterbi fsm one-hot", FsmEncoding::OneHot),
        ("viterbi fsm binary", FsmEncoding::Binary),
    ] {
        let w = synthesize_wrapper(
            WrapperKind::Fsm(enc),
            viterbi.schedule(),
            SpCompression::Safe,
            params,
        )?;
        rows.push(AblationRow {
            variant: label.to_owned(),
            slices: w.report.area.slices,
            fmax_mhz: w.report.timing.fmax_mhz,
            stall: 0.0,
            stream_intact: true,
            violations: 0,
        });
    }

    // Fabric generation: does the SP still win on a modern 6-LUT
    // device? (The paper's claim is structural, so it should.)
    let rs = RsPearl::new("r");
    for (label, p) in [
        ("rs sp  on 6-LUT fabric", TechParams::modern_6lut()),
        ("rs fsm on 6-LUT fabric", TechParams::modern_6lut()),
    ] {
        let kind = if label.contains("sp") {
            WrapperKind::Sp
        } else {
            WrapperKind::Fsm(FsmEncoding::OneHot)
        };
        let w = synthesize_wrapper(kind, rs.schedule(), SpCompression::Safe, &p)?;
        rows.push(AblationRow {
            variant: label.to_owned(),
            slices: w.report.area.slices,
            fmax_mhz: w.report.timing.fmax_mhz,
            stall: 0.0,
            stream_intact: true,
            violations: 0,
        });
    }

    // Shift-register wrapper: correct only without irregularity. The
    // Casu-style pattern (one warm-up slot, then streaming at 3/4 rate)
    // is rate-matched to an ideal source; a source stalling beyond the
    // slack the 2-deep port queues provide starves the fixed schedule.
    for stall in [0.0, 0.2, 0.5, 0.7] {
        let mut b = SocBuilder::new();
        let pearl = AccumulatorPearl::new("acc", 1, 1, 0);
        let policy = Box::new(lis_wrappers::ShiftRegPolicy::with_pattern(
            pearl.schedule().clone(),
            vec![false, true, true, true],
        ));
        let ip = b.add_ip_with_policy("acc", Box::new(pearl), policy);
        // Feed more tokens than the static schedule can consume in the
        // run: a static wrapper has no way to stop at end-of-stream, so
        // the experiment must not starve it artificially.
        b.feed("src", ip.inputs[0], 1..=1000, stall, 31);
        b.capture("out", ip.outputs[0], 0.0, 32);
        let mut soc = b.build();
        soc.run(700).expect("simulation");
        let got = soc.received("out");
        let reference: Vec<u64> = (1..=1000u64)
            .scan(0u64, |acc, v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        let intact =
            !got.is_empty() && got.len() <= reference.len() && got[..] == reference[..got.len()];
        rows.push(AblationRow {
            variant: "shiftreg stream".to_owned(),
            slices: 0,
            fmax_mhz: 0.0,
            stall,
            stream_intact: intact && soc.violations() == 0,
            violations: soc.violations(),
        });
    }
    Ok(rows)
}

/// Structural inventory of the two figure architectures (F1/F2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureReport {
    /// Which figure ("Figure 1" / "Figure 2").
    pub figure: String,
    /// Wrapper model depicted.
    pub model: String,
    /// Interface ports of the generated controller (name, width, dir).
    pub interface: Vec<(String, usize, String)>,
    /// Netlist census.
    pub stats: String,
    /// ROM geometry, when present (words × width).
    pub rom: Option<(usize, usize)>,
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} — {} wrapper", self.figure, self.model)?;
        for (name, width, dir) in &self.interface {
            writeln!(f, "    {dir:6} {name:10} [{width} bit]")?;
        }
        if let Some((words, width)) = self.rom {
            writeln!(f, "    operations memory: {words} words × {width} bits")?;
        }
        writeln!(f, "    {}", self.stats)
    }
}

/// F1/F2: regenerate the structural content of the paper's two figures
/// from the actual generators.
///
/// # Errors
///
/// Propagates netlist generation/validation errors.
pub fn figures() -> Result<Vec<FigureReport>, lis_netlist::NetlistError> {
    let viterbi = ViterbiPearl::new("v");
    let schedule = viterbi.schedule();

    let mut out = Vec::new();
    for (figure, kind, compression) in [
        ("Figure 1", WrapperKind::Comb, SpCompression::Safe),
        ("Figure 2", WrapperKind::Sp, SpCompression::Burst),
    ] {
        let module = match (kind, compression) {
            (WrapperKind::Sp, SpCompression::Burst) => {
                lis_wrappers::generate_sp(&compress_bursty(schedule))?
            }
            _ => kind.generate_netlist(schedule)?,
        };
        let interface: Vec<(String, usize, String)> = module
            .inputs
            .iter()
            .map(|p| (p.name.clone(), p.width(), "input".to_owned()))
            .chain(
                module
                    .outputs
                    .iter()
                    .map(|p| (p.name.clone(), p.width(), "output".to_owned())),
            )
            .collect();
        let rom = module
            .roms
            .first()
            .map(|r| (r.contents.len(), r.data.len()));
        out.push(FigureReport {
            figure: figure.to_owned(),
            model: kind.to_string(),
            interface,
            stats: lis_netlist::NetlistStats::of(&module).to_string(),
            rom,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_paper_shape() {
        let rows = table1(&TechParams::default(), &WorkStealingPool::new(1)).unwrap();
        assert_eq!(rows.len(), 2);
        let viterbi = &rows[0];
        let rs = &rows[1];

        // Column "Port/wait/run" matches the paper (RS waits off by one:
        // ours synchronizes on the marker cycle too).
        assert_eq!(viterbi.ports, 5);
        assert_eq!(viterbi.waits, 4);
        assert_eq!(viterbi.max_run, 198);
        assert_eq!(rs.ports, 4);
        assert!((2956..=2958).contains(&rs.waits));
        assert_eq!(rs.max_run, 1);

        // Shape: SP beats the FSM on area for both IPs; decisively for RS.
        assert!(viterbi.slice_gain_pct() < -50.0, "{viterbi}");
        assert!(rs.slice_gain_pct() < -90.0, "{rs}");

        // Shape: SP area is (nearly) the same for both IPs — independent
        // of schedule length.
        let s1 = viterbi.sp.report.area.slices as f64;
        let s2 = rs.sp.report.area.slices as f64;
        assert!(
            (s1 - s2).abs() / s1.max(s2) < 0.5,
            "SP slices must be schedule-independent: {s1} vs {s2}"
        );

        // Shape: the RS FSM is slower than the SP; the Viterbi FSM is
        // within ~15% of the SP (paper: exactly equal).
        assert!(rs.freq_gain_pct() > 10.0, "{rs}");
        assert!(viterbi.freq_gain_pct().abs() < 25.0, "{viterbi}");

        // The FSM for RS is much bigger than for Viterbi (2958 vs 202
        // states).
        assert!(rs.fsm.report.area.slices > 3 * viterbi.fsm.report.area.slices);
    }

    #[test]
    fn scaling_by_length_shows_flat_sp() {
        let rows = scaling_by_length(
            &[32, 256, 1024],
            &TechParams::default(),
            &WorkStealingPool::new(1),
        )
        .unwrap();
        let slices_of = |model: &str, x: usize| {
            rows.iter()
                .find(|r| r.model == model && r.x == x)
                .map(|r| r.slices)
                .unwrap()
        };
        let sp_growth = slices_of("sp", 1024) as f64 / slices_of("sp", 32).max(1) as f64;
        let fsm_growth =
            slices_of("fsm-onehot", 1024) as f64 / slices_of("fsm-onehot", 32).max(1) as f64;
        assert!(
            fsm_growth > 6.0 * sp_growth,
            "fsm×{fsm_growth:.1} vs sp×{sp_growth:.1}"
        );
    }

    #[test]
    fn throughput_sweep_streams_stay_intact_for_protocol_wrappers() {
        let rows = throughput_sweep(&[0, 3], &[0.0, 0.3], 1500);
        for row in &rows {
            assert!(row.stream_intact, "{row}");
            assert_eq!(row.violations, 0, "{row}");
            assert!(row.tokens_per_cycle > 0.0, "{row}");
        }
        // Latency reduces or maintains throughput, never corrupts.
        let tp = |model: &str, lat: usize, stall: f64| {
            rows.iter()
                .find(|r| r.model == model && r.latency == lat && (r.stall - stall).abs() < 1e-9)
                .map(|r| r.tokens_per_cycle)
                .unwrap()
        };
        assert!(tp("sp", 0, 0.0) >= tp("sp", 3, 0.0) * 0.8);
    }

    #[test]
    fn settle_bench_engines_agree_and_shape_is_parallel() {
        let cfg = SettleBenchConfig {
            chains: 2,
            depth: 2,
            relays: 1,
            wire_hops: 3,
            cycles: 120,
            stall: 0.2,
        };
        let (shape, rows) =
            settle_bench(&cfg, &[SettleMode::FullSweep, SettleMode::FastForward], 2);
        assert_eq!(shape.pearls, 4);
        assert!(
            shape.sched_max_level_width >= cfg.chains,
            "independent chains must share dependency levels: {shape:?}"
        );
        assert!(rows[0].received > 0, "data must flow: {:?}", rows[0]);
        for pair in rows.windows(2) {
            assert_eq!(pair[0].received, pair[1].received, "{pair:?}");
            assert_eq!(pair[0].checksum, pair[1].checksum, "{pair:?}");
        }
    }

    #[test]
    fn parallel_synthesis_matches_sequential() {
        let params = TechParams::default();
        let seq = scaling_by_length(&[32, 64], &params, &WorkStealingPool::new(1)).unwrap();
        let par = scaling_by_length(&[32, 64], &params, &WorkStealingPool::new(4)).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.model, b.model);
            assert_eq!(a.slices, b.slices);
            assert_eq!(a.rom_bits, b.rom_bits);
        }
    }

    #[test]
    fn ablation_shows_shiftreg_fragility() {
        let rows = ablation(&TechParams::default()).unwrap();
        let clean = rows
            .iter()
            .find(|r| r.variant == "shiftreg stream" && r.stall == 0.0)
            .unwrap();
        assert!(
            clean.stream_intact,
            "static wrapper must be correct on regular streams: {clean}"
        );
        let dirty = rows
            .iter()
            .find(|r| r.variant == "shiftreg stream" && r.stall == 0.7)
            .unwrap();
        assert!(dirty.violations > clean.violations, "{dirty}");
        assert!(!dirty.stream_intact, "{dirty}");
    }

    #[test]
    fn figures_describe_both_architectures() {
        let figs = figures().unwrap();
        assert_eq!(figs.len(), 2);
        assert!(figs[0].rom.is_none(), "Fig 1 wrapper has no memory");
        let (words, width) = figs[1].rom.expect("Fig 2 wrapper has the ops memory");
        assert_eq!(words, 4, "Viterbi burst program: 4 operations");
        assert!(width >= 5 + 8, "masks + run field");
        let text = format!("{}", figs[1]);
        assert!(text.contains("operations memory"));
    }
}
