//! The three simulation workloads: the 8×8 gate-level SP stress mesh
//! solo (streaming or periodically back-pressured) and as a 64-lane
//! fleet.
//!
//! One repetition builds the system from its spec (set-up), runs a
//! fixed number of cycles (run phase), and runs the program's own
//! output check. Untraced repetitions call `Soc::run` /
//! `SocFleet::run`; traced ones drive the same settle / step /
//! fast-forward loop through `System`, recording one span per call.

use crate::check::{agree, check_lane_streams, check_violations, Tally};
use crate::metrics::{median, quantile, ratio, RunReport};
use crate::trace::{Recorder, ROOT};
use crate::{end_to_end, repeat, sample_setups, RepTimes};
use lis_sim::{SchedulerStats, SettleMode, SimError, System, WorkStealingPool};
use lis_topo::{
    expected_sink_streams, fleet_scenario, stream_checksum, FleetScenario, FleetTopologyBuilder,
    GeneratedFleet, GeneratedSoc, NodeModel, SyncVariant, TopologyBuilder, TopologyGraph,
    TopologyShape, TopologySpec, TrafficPattern,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span names of the traced loop.
pub const SETTLE: &str = "lis-sim.settle";
/// Tick-only `System::step` (the system is already settled).
pub const TICK: &str = "lis-sim.tick";
/// `System::fast_forward` to the run's target cycle.
pub const JUMP: &str = "lis-sim.jump";

/// Scenario lanes of fleet-mixed: one packed batch.
const FLEET_LANES: usize = 64;

/// Set-ups timed between repetitions, on top of each repetition's own,
/// so `setup_s` is a median of many samples.
const SETUP_SAMPLES: usize = 1;

/// What one repetition of a simulation workload builds and runs.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// The shared spec (per-lane traffic and seed live in `scenarios`).
    pub spec: TopologySpec,
    /// Settle engine.
    pub mode: SettleMode,
    /// Clock cycles each repetition simulates.
    pub cycles: u64,
    /// `None` for a solo SoC, else one scenario per fleet lane.
    pub scenarios: Option<Vec<FleetScenario>>,
}

/// The E6/E7/fleet stress mesh: 64 gate-level SP-compressed shells,
/// links of 6 units under a budget of 2 (two relay stations per hop).
fn stress_mesh(traffic: TrafficPattern, tokens_per_source: usize, seed: u64) -> TopologySpec {
    TopologySpec {
        shape: TopologyShape::Mesh { rows: 8, cols: 8 },
        compute_latency: 2,
        hop_distance: 6,
        relay_budget: 2,
        wire_segments: 0,
        traffic,
        model: NodeModel::GateLevel,
        variant: SyncVariant::SpCompressed,
        tokens_per_source,
        seed,
    }
}

/// mesh-stream: streaming traffic, default settle mode. A pearl fires
/// at most once per 4-cycle schedule period, so `cycles / 2` tokens per
/// source never run dry (see `lis-topo.peak_offer_use`).
pub fn mesh_stream(seed: u64) -> SimPlan {
    const CYCLES: u64 = 2_500;
    SimPlan {
        spec: stress_mesh(TrafficPattern::Streaming, CYCLES as usize / 2, seed),
        mode: SettleMode::default(),
        cycles: CYCLES,
        scenarios: None,
    }
}

/// mesh-periodic: every sink accepts for 4 cycles in each 4,096, in
/// lockstep, on the fast-forward kernel. Sinks take at most 4 tokens a
/// window, so twice that per window crossed never runs dry.
pub fn mesh_periodic(seed: u64) -> SimPlan {
    const PERIOD: u64 = 4_096;
    const ON: u64 = 4;
    const CYCLES: u64 = 160 * PERIOD;
    let windows = CYCLES / PERIOD + 1;
    SimPlan {
        spec: stress_mesh(
            TrafficPattern::PeriodicBackPressured {
                on: ON,
                period: PERIOD,
            },
            (2 * ON * windows) as usize,
            seed,
        ),
        mode: SettleMode::FastForward,
        cycles: CYCLES,
        scenarios: None,
    }
}

/// fleet-mixed: 64 lanes of the mesh in one packed batch, lane `k`
/// running `fleet_scenario(seed, k)` (streaming, bursty, hotspot and
/// back-pressured traffic), default settle mode.
pub fn fleet_mixed(seed: u64) -> SimPlan {
    const CYCLES: u64 = 500;
    SimPlan {
        spec: stress_mesh(TrafficPattern::Streaming, CYCLES as usize / 2, seed),
        mode: SettleMode::default(),
        cycles: CYCLES,
        scenarios: Some(
            (0..FLEET_LANES)
                .map(|lane| fleet_scenario(seed, lane))
                .collect(),
        ),
    }
}

/// A built simulation: a solo SoC or a fleet.
#[derive(Debug)]
pub enum Target {
    /// One SoC.
    Solo(Box<GeneratedSoc>),
    /// Lane batches of one spec.
    Fleet(Box<GeneratedFleet>),
}

impl Target {
    /// The set-up: `TopologyBuilder::build` or
    /// `FleetTopologyBuilder::build` pinned to one thread, with the
    /// scheduler sealed so the run phase starts ready to run.
    pub fn build(plan: &SimPlan) -> Target {
        match &plan.scenarios {
            None => Target::Solo(Box::new(
                TopologyBuilder::new(plan.spec.clone())
                    .settle_mode(plan.mode)
                    .threads(1)
                    .build(),
            )),
            Some(scenarios) => {
                let mut fleet = FleetTopologyBuilder::new(plan.spec.clone(), scenarios.clone())
                    .settle_mode(plan.mode)
                    .threads(1)
                    .build();
                for batch in fleet.fleet.batches_mut() {
                    batch.system_mut().scheduler_stats();
                }
                Target::Fleet(Box::new(fleet))
            }
        }
    }

    /// The program's own run loop (`Soc::run` / `SocFleet::run`).
    ///
    /// # Errors
    ///
    /// The simulator's [`SimError`].
    pub fn run(&mut self, cycles: u64, pool: &WorkStealingPool) -> Result<(), SimError> {
        match self {
            Target::Solo(t) => t.soc.run(cycles),
            Target::Fleet(f) => f.run(cycles, pool),
        }
    }

    /// The benchmark's traced copy of that loop: per system (one per
    /// fleet batch, in order, as a one-worker pool runs them),
    /// `settle`, then the tick-only `step`, then `fast_forward` to the
    /// target, one span each, until the target cycle. Returns the
    /// visited cycles.
    ///
    /// # Errors
    ///
    /// The simulator's [`SimError`].
    pub fn run_traced(
        &mut self,
        cycles: u64,
        rec: &mut Recorder,
        parent: u32,
    ) -> Result<u64, SimError> {
        let mut visited = 0;
        for sys in self.systems() {
            visited += traced_loop(sys, cycles, rec, parent)?;
        }
        Ok(visited)
    }

    fn systems(&mut self) -> Vec<&mut System> {
        match self {
            Target::Solo(t) => vec![t.soc.system_mut()],
            Target::Fleet(f) => f
                .fleet
                .batches_mut()
                .iter_mut()
                .map(|b| b.system_mut())
                .collect(),
        }
    }

    /// The program's own output check: `token_exact` plus every
    /// violation counter.
    pub fn program_check(&self) -> bool {
        match self {
            Target::Solo(t) => t.token_exact() && t.soc.violations() == 0,
            Target::Fleet(f) => {
                f.token_exact() && (0..f.scenarios.len()).all(|lane| f.lane_violations(lane) == 0)
            }
        }
    }

    /// Scenario lanes (1 for a solo SoC).
    pub fn lanes(&self) -> usize {
        match self {
            Target::Solo(_) => 1,
            Target::Fleet(f) => f.scenarios.len(),
        }
    }

    /// Streams lane `lane` received, in sink order.
    pub fn lane_received(&self, lane: usize) -> Vec<Vec<u64>> {
        match self {
            Target::Solo(t) => t.received(),
            Target::Fleet(f) => f.lane_received(lane),
        }
    }

    /// Protocol violations lane `lane` observed.
    pub fn lane_violations(&self, lane: usize) -> u64 {
        match self {
            Target::Solo(t) => t.soc.violations(),
            Target::Fleet(f) => f.lane_violations(lane),
        }
    }

    /// The flattened graph every lane was built from.
    pub fn graph(&self) -> &TopologyGraph {
        match self {
            Target::Solo(t) => &t.graph,
            Target::Fleet(f) => &f.graph,
        }
    }

    /// Scheduler statistics, summed over fleet batches.
    pub fn scheduler_stats(&mut self) -> SchedulerStats {
        let mut sum = SchedulerStats::default();
        for sys in self.systems() {
            let s = sys.scheduler_stats();
            sum.components += s.components;
            sum.groups += s.groups;
            sum.levels += s.levels;
            sum.cyclic_groups += s.cyclic_groups;
            sum.max_level_width += s.max_level_width;
            sum.groups_evaluated += s.groups_evaluated;
            sum.groups_skipped += s.groups_skipped;
            sum.components_ticked += s.components_ticked;
            sum.components_quiescent += s.components_quiescent;
            sum.cycles_fast_forwarded += s.cycles_fast_forwarded;
        }
        sum
    }

    /// Signals in the arenas, summed over fleet batches.
    pub fn signals(&self) -> usize {
        match self {
            Target::Solo(t) => t.stats.signals,
            Target::Fleet(f) => f.stats.signals,
        }
    }
}

/// Drives `sys` to `cycles` cycles past its current one exactly as
/// `Soc::run` and `FleetBatch::run` do, recording a settle, a tick and a
/// jump span per visited cycle under `parent`. Returns the visited
/// cycles.
///
/// # Errors
///
/// The simulator's [`SimError`].
pub fn traced_loop(
    sys: &mut System,
    cycles: u64,
    rec: &mut Recorder,
    parent: u32,
) -> Result<u64, SimError> {
    let target = sys.cycle() + cycles;
    let mut visited = 0;
    while sys.cycle() < target {
        let t0 = Instant::now();
        sys.settle()?;
        let t1 = Instant::now();
        sys.step()?;
        let t2 = Instant::now();
        sys.fast_forward(target);
        let t3 = Instant::now();
        rec.push(SETTLE, parent, t0, t1);
        rec.push(TICK, parent, t1, t2);
        rec.push(JUMP, parent, t2, t3);
        visited += 1;
    }
    Ok(visited)
}

/// The deterministic outputs of one repetition: they must repeat
/// exactly across repetitions, seeds aside, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Informative tokens received over all lanes and sinks.
    pub tokens: u64,
    /// `stream_checksum` over every lane's streams, lane then sink order.
    pub checksum: u64,
    /// Scheduler counters (cumulative over the repetition).
    pub stats: SchedulerStats,
    /// Largest share of its oracle stream any sink received: below 1,
    /// the sources never ran dry.
    pub peak_offer_use: f64,
}

/// Checks every (lane, sink) stream against the oracle streams `want`
/// and every lane's violation counter, counting one operation each, and
/// returns the repetition's deterministic outputs.
pub fn account(target: &mut Target, want: &[Vec<u64>], tally: &mut Tally) -> SimOutcome {
    let mut all = Vec::new();
    let mut peak_offer_use: f64 = 0.0;
    for lane in 0..target.lanes() {
        let got = target.lane_received(lane);
        check_lane_streams(tally, &got, want);
        check_violations(tally, target.lane_violations(lane));
        for (g, w) in got.iter().zip(want) {
            peak_offer_use = peak_offer_use.max(ratio(g.len() as f64, w.len() as f64));
        }
        all.extend(got);
    }
    SimOutcome {
        tokens: all.iter().map(|s| s.len() as u64).sum(),
        checksum: stream_checksum(&all),
        stats: target.scheduler_stats(),
        peak_offer_use,
    }
}

/// One untraced repetition.
fn untraced_rep(
    plan: &SimPlan,
    pool: &WorkStealingPool,
    want: &[Vec<u64>],
    tally: &mut Tally,
    first: &mut Option<SimOutcome>,
) -> RepTimes {
    let t = Instant::now();
    let mut target = Target::build(plan);
    let setup = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ran = target.run(plan.cycles, pool);
    let run = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let program_ok = target.program_check();
    let check = t.elapsed().as_secs_f64();
    tally.record(ran.is_ok());
    tally.record(program_ok);
    let outcome = account(&mut target, want, tally);
    agree(tally, first, outcome);
    RepTimes { setup, run, check }
}

/// Per-layer figures of one traced repetition.
#[derive(Debug)]
struct TracedRep {
    rec: Recorder,
    setup_s: f64,
    run_s: f64,
    check_s: f64,
    oracle_s: f64,
    visited: u64,
    settle_s: f64,
    tick_s: f64,
    jump_s: f64,
    cycle_us_p50: f64,
    cycle_us_p90: f64,
    signals: usize,
}

/// One traced repetition: the same work, with spans around each call.
fn traced_rep(
    plan: &SimPlan,
    want: &[Vec<u64>],
    tally: &mut Tally,
    first: &mut Option<SimOutcome>,
) -> TracedRep {
    let mut rec = Recorder::new();
    let rep = rec.open("rep", ROOT);
    let span = rec.open("lis-topo.build", rep);
    let mut target = Target::build(plan);
    let setup_ns = rec.close(span);
    let run = rec.open("run", rep);
    let ran = target.run_traced(plan.cycles, &mut rec, run);
    let run_ns = rec.close(run);
    let span = rec.open("lis-topo.token_exact", rep);
    let program_ok = target.program_check();
    let check_ns = rec.close(span);
    let span = rec.open("lis-topo.expected_sink_streams", rep);
    black_box(expected_sink_streams(
        target.graph(),
        plan.spec.tokens_per_source,
    ));
    let oracle_ns = rec.close(span);
    rec.close(rep);

    tally.record(ran.is_ok());
    tally.record(program_ok);
    let outcome = account(&mut target, want, tally);
    agree(tally, first, outcome);

    // Each visited cycle left a settle, a tick and a jump span, in order.
    let mut per_cycle: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.parent == run)
        .collect::<Vec<_>>()
        .chunks(3)
        .map(|c| c.iter().map(|s| s.ns() as f64).sum::<f64>() / 1e3)
        .collect();
    per_cycle.sort_by(f64::total_cmp);
    let s = |ns: u64| ns as f64 / 1e9;
    TracedRep {
        setup_s: s(setup_ns),
        run_s: s(run_ns),
        check_s: s(check_ns),
        oracle_s: s(oracle_ns),
        visited: ran.unwrap_or(0),
        settle_s: s(rec.total_ns(SETTLE, run)),
        tick_s: s(rec.total_ns(TICK, run)),
        jump_s: s(rec.total_ns(JUMP, run)),
        cycle_us_p50: quantile(&per_cycle, 0.5),
        cycle_us_p90: quantile(&per_cycle, 0.9),
        signals: target.signals(),
        rec,
    }
}

/// The oracle streams every lane must observe (a prefix of).
fn oracle(plan: &SimPlan) -> Vec<Vec<u64>> {
    expected_sink_streams(&plan.spec.graph(), plan.spec.tokens_per_source)
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn measure(plan: &SimPlan, budget: Duration) -> Result<RunReport, String> {
    let pool = WorkStealingPool::new(1);
    let want = oracle(plan);
    let mut tally = Tally::default();
    let mut first = None;
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    repeat(budget, |_| {
        sample_setups(SETUP_SAMPLES, &mut setups, || Target::build(plan));
        reps.push(untraced_rep(plan, &pool, &want, &mut tally, &mut first));
    });
    end_to_end(tally, setups, &reps)
}

/// The traced run: untraced and traced repetitions alternate; the
/// per-layer metrics are medians over the traced ones, the counts come
/// from them (and must equal the untraced ones), and the last traced
/// repetition's spans are returned for the ledger file.
pub fn ledger(plan: &SimPlan, budget: Duration) -> (RunReport, Recorder) {
    let pool = WorkStealingPool::new(1);
    let want = oracle(plan);
    let mut tally = Tally::default();
    let mut first = None;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    repeat(budget, |i| {
        // Alternate which side goes first, so neither always runs on a
        // freshly freed heap.
        if i % 2 == 0 {
            plain.push(untraced_rep(plan, &pool, &want, &mut tally, &mut first));
            traced.push(traced_rep(plan, &want, &mut tally, &mut first));
        } else {
            traced.push(traced_rep(plan, &want, &mut tally, &mut first));
            plain.push(untraced_rep(plan, &pool, &want, &mut tally, &mut first));
        }
    });
    let med = |f: &dyn Fn(&TracedRep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let plain_run = median(&plain.iter().map(|r| r.run).collect::<Vec<_>>());
    let outcome = first.expect("at least one repetition");
    let st = outcome.stats;
    let last = traced.last().expect("at least one traced repetition");
    let (visited, signals) = (last.visited, last.signals);
    let lanes = plan.scenarios.as_ref().map_or(1, Vec::len);
    let scenario_cycles = plan.cycles as f64 * lanes as f64;
    let count = |n: u64| n as f64;
    let values = vec![
        ("setup.build_s", med(&|t| t.setup_s)),
        ("run.phase_s", med(&|t| t.run_s)),
        ("check.span_s", med(&|t| t.check_s)),
        ("trace_overhead", med(&|t| t.run_s) / plain_run - 1.0),
        (
            "lis-sim.span_coverage",
            med(&|t| ratio(t.settle_s + t.tick_s + t.jump_s, t.run_s)),
        ),
        ("lis-sim.components", count(st.components as u64)),
        ("lis-sim.signals", count(signals as u64)),
        ("lis-sim.groups", count(st.groups as u64)),
        ("lis-sim.levels", count(st.levels as u64)),
        ("lis-sim.settle_share", med(&|t| ratio(t.settle_s, t.run_s))),
        ("lis-sim.groups_evaluated", count(st.groups_evaluated)),
        ("lis-sim.groups_skipped", count(st.groups_skipped)),
        (
            "lis-sim.eval_skip_ratio",
            ratio(
                st.groups_skipped as f64,
                (st.groups_evaluated + st.groups_skipped) as f64,
            ),
        ),
        (
            "lis-sim.settle_ns_per_group",
            med(&|t| ratio(t.settle_s * 1e9, st.groups_evaluated as f64)),
        ),
        ("lis-sim.tick_share", med(&|t| ratio(t.tick_s, t.run_s))),
        ("lis-sim.components_ticked", count(st.components_ticked)),
        (
            "lis-sim.components_quiescent",
            count(st.components_quiescent),
        ),
        (
            "lis-sim.tick_skip_ratio",
            ratio(
                st.components_quiescent as f64,
                (st.components_ticked + st.components_quiescent) as f64,
            ),
        ),
        (
            "lis-sim.tick_ns_per_component",
            med(&|t| ratio(t.tick_s * 1e9, st.components_ticked as f64)),
        ),
        ("lis-sim.jump_share", med(&|t| ratio(t.jump_s, t.run_s))),
        ("lis-sim.cycles", count(plan.cycles)),
        ("lis-sim.visited_cycles", count(visited)),
        ("lis-sim.cycles_jumped", count(st.cycles_fast_forwarded)),
        (
            "lis-sim.jump_ratio",
            ratio(st.cycles_fast_forwarded as f64, plan.cycles as f64),
        ),
        (
            "lis-sim.jump_ns_per_visited_cycle",
            med(&|t| ratio(t.jump_s * 1e9, t.visited as f64)),
        ),
        ("lis-sim.cycle_us_p50", med(&|t| t.cycle_us_p50)),
        ("lis-sim.cycle_us_p90", med(&|t| t.cycle_us_p90)),
        ("lis-topo.lanes", count(lanes as u64)),
        (
            "lis-topo.check_over_oracle",
            med(&|t| ratio(t.check_s, t.oracle_s)),
        ),
        ("lis-topo.tokens", count(outcome.tokens)),
        (
            "lis-topo.stream_checksum",
            count(outcome.checksum & ((1 << 52) - 1)),
        ),
        (
            "lis-topo.tokens_per_kcycle",
            ratio(outcome.tokens as f64 * 1e3, scenario_cycles),
        ),
        ("lis-topo.peak_offer_use", outcome.peak_offer_use),
    ];
    let rec = traced.pop().expect("at least one traced repetition").rec;
    (
        RunReport {
            tally,
            values: crate::with_unused_layers_zeroed(values),
        },
        rec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::FleetBatch;

    fn mini(traffic: TrafficPattern, mode: SettleMode) -> SimPlan {
        mini_seeded(traffic, mode, 3)
    }

    fn mini_seeded(traffic: TrafficPattern, mode: SettleMode, seed: u64) -> SimPlan {
        SimPlan {
            spec: TopologySpec {
                shape: TopologyShape::Mesh { rows: 2, cols: 2 },
                tokens_per_source: 400,
                ..stress_mesh(traffic, 0, seed)
            },
            mode,
            cycles: 600,
            scenarios: None,
        }
    }

    fn mini_fleet() -> SimPlan {
        SimPlan {
            scenarios: Some((0..6).map(|lane| fleet_scenario(5, lane)).collect()),
            ..mini(TrafficPattern::Streaming, SettleMode::default())
        }
    }

    /// Runs `plan` once through the program's loop and once through the
    /// benchmark's traced loop; both must deliver the same outputs, and
    /// the phase spans must tile the traced run phase.
    fn assert_traced_loop_equivalent(plan: &SimPlan) {
        let want = oracle(plan);
        let pool = WorkStealingPool::new(1);
        let mut tally = Tally::default();

        let mut plain = Target::build(plan);
        plain.run(plan.cycles, &pool).unwrap();
        let plain_out = account(&mut plain, &want, &mut tally);

        let mut traced = Target::build(plan);
        let mut rec = Recorder::new();
        let run = rec.open("run", ROOT);
        let visited = traced.run_traced(plan.cycles, &mut rec, run).unwrap();
        let run_ns = rec.close(run);
        let traced_out = account(&mut traced, &want, &mut tally);

        assert_eq!(tally.failed, 0, "{tally:?}");
        assert!(plain_out.tokens > 0, "data must flow");
        assert_eq!(plain_out, traced_out);
        for lane in 0..plain.lanes() {
            assert_eq!(plain.lane_received(lane), traced.lane_received(lane));
        }
        let jumped = plain_out.stats.cycles_fast_forwarded;
        assert_eq!(visited + jumped, plan.cycles, "one batch: visited + jumped");
        let phases: u64 = [SETTLE, TICK, JUMP]
            .iter()
            .map(|n| rec.total_ns(n, run))
            .sum();
        let gap = 1.0 - phases as f64 / run_ns as f64;
        assert!(
            (0.0..0.05).contains(&gap),
            "phase spans cover {phases} of {run_ns} ns"
        );
    }

    #[test]
    fn traced_loop_matches_soc_run_streaming() {
        assert_traced_loop_equivalent(&mini(TrafficPattern::Streaming, SettleMode::default()));
    }

    #[test]
    fn traced_loop_matches_soc_run_periodic() {
        let plan = mini(
            TrafficPattern::PeriodicBackPressured { on: 4, period: 64 },
            SettleMode::FastForward,
        );
        assert_traced_loop_equivalent(&plan);
        let mut t = Target::build(&plan);
        t.run(plan.cycles, &WorkStealingPool::new(1)).unwrap();
        assert!(
            t.scheduler_stats().cycles_fast_forwarded > 0,
            "the periodic plan must exercise the event wheel"
        );
    }

    #[test]
    fn traced_loop_matches_fleet_run() {
        assert_traced_loop_equivalent(&mini_fleet());
    }

    /// The traced fleet loop is `FleetBatch::run` on every batch.
    #[test]
    fn fleet_batch_run_is_the_traced_loop_on_one_batch() {
        let plan = mini_fleet();
        let Target::Fleet(mut a) = Target::build(&plan) else {
            unreachable!()
        };
        let Target::Fleet(mut b) = Target::build(&plan) else {
            unreachable!()
        };
        let batch: &mut FleetBatch = &mut a.fleet.batches_mut()[0];
        batch.run(plan.cycles).unwrap();
        let mut rec = Recorder::new();
        traced_loop(
            b.fleet.batches_mut()[0].system_mut(),
            plan.cycles,
            &mut rec,
            ROOT,
        )
        .unwrap();
        for lane in 0..a.scenarios.len() {
            assert_eq!(a.lane_received(lane), b.lane_received(lane));
        }
        assert_eq!(
            a.fleet.batches_mut()[0].system_mut().scheduler_stats(),
            b.fleet.batches_mut()[0].system_mut().scheduler_stats()
        );
    }

    #[test]
    fn a_corrupted_lane_is_counted_not_fatal() {
        let plan = mini(TrafficPattern::Streaming, SettleMode::default());
        let mut want = oracle(&plan);
        want[0][0] ^= 1;
        let mut target = Target::build(&plan);
        target.run(plan.cycles, &WorkStealingPool::new(1)).unwrap();
        let mut tally = Tally::default();
        account(&mut target, &want, &mut tally);
        let sinks = want.len() as u64;
        assert_eq!(tally.attempted, sinks + 1);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn seed_is_a_no_op_for_the_solo_meshes_and_feeds_the_fleet() {
        for (a, b) in [
            (mesh_stream(1), mesh_stream(2)),
            (mesh_periodic(1), mesh_periodic(2)),
        ] {
            assert_eq!(
                TopologySpec { seed: 0, ..a.spec },
                TopologySpec { seed: 0, ..b.spec }
            );
        }
        // Neither traffic draws from the stall seed: outputs repeat
        // exactly under another seed.
        for (traffic, mode) in [
            (TrafficPattern::Streaming, SettleMode::default()),
            (
                TrafficPattern::PeriodicBackPressured { on: 4, period: 64 },
                SettleMode::FastForward,
            ),
        ] {
            let outcome = |seed| {
                let plan = mini_seeded(traffic, mode, seed);
                let mut t = Target::build(&plan);
                t.run(plan.cycles, &WorkStealingPool::new(1)).unwrap();
                account(&mut t, &oracle(&plan), &mut Tally::default())
            };
            assert_eq!(outcome(1), outcome(2), "{traffic}");
        }
        assert_ne!(fleet_mixed(1).scenarios, fleet_mixed(2).scenarios);
        assert_eq!(fleet_mixed(11).scenarios.unwrap().len(), FLEET_LANES);
    }
}
