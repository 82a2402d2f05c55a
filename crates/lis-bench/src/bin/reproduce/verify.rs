//! Verify — bounded model checking of the SP wrapper protocol.
//!
//! Runs the `lis-verify` explorer over every registered closed
//! configuration: the correct gate-level and behavioural SP systems
//! must come out clean for *all* adversary stall schedules up to the
//! depth bound, and every seeded protocol mutant must be caught. This
//! is the paper's central correctness claim — wrapped systems are
//! patient, i.e. functionally insensitive to any stall/latency
//! assignment — checked exhaustively-within-bound instead of sampled.
//!
//! Each exploration shards its BFS levels across `--threads`
//! configuration twins (default 1) with the configuration's
//! partial-order and symmetry reductions on; the merge is
//! deterministic, so every structural number is identical at any
//! thread count.
//!
//! `--corpus <dir>` re-emits each mutant's minimized counterexample as
//! JSON (the committed corpus under
//! `crates/lis-verify/tests/counterexamples/`), and `--check` enforces
//! the bars (it refuses a `--depth` override, which changes the census
//! BENCH_verify.json records):
//!
//! * every correct configuration explores to depth ≥ 16 with zero
//!   violations and no truncation;
//! * the correct configurations together cover ≥ 10⁵ deduplicated
//!   states;
//! * on the join workhorse, a reduced and an unreduced reference walk
//!   agree state-for-state (the reductions are census-preserving), and
//!   the reduction counters attest an effective speedup ≥ 4× whenever
//!   ≥ 4 threads are in play;
//! * the symmetric join folds mirror states (`sym_folds > 0`);
//! * every mutant is caught with the expected verdict kind (the corpus
//!   tests replay its minimized counterexample).

use lis_bench::{object, section, Arg, Artifact, Bar, Cli, Flag, CHECK, JSON};
use lis_verify::{
    build_config, explore_pool, ExploreOptions, ExploreReport, CORRECT_CONFIGS, MUTANT_CONFIGS,
};
use serde::{Serialize, Value};
use std::time::Instant;

/// Depth the acceptance bars require.
const REQUIRED_DEPTH: u32 = 16;
/// Deduplicated-state floor across the correct configurations.
const REQUIRED_STATES: u64 = 100_000;
/// Depth bound for the mutant hunts. Deeper than [`REQUIRED_DEPTH`]
/// because a fault needs *detection latency* on top of its trigger: a
/// token dropped at the wrapper's input edge is only observed once its
/// successor has crossed the whole period-3 pipeline to the sink
/// (~8 more cycles).
const MUTANT_DEPTH: u32 = 24;
/// Depth of the reduced-vs-unreduced census cross-check on the join
/// workhorse (kept below its full depth: the unreduced reference walk
/// pays for every pruned transition).
const REFERENCE_DEPTH: u32 = 12;

/// Per-config exploration depth: every config must clear
/// [`REQUIRED_DEPTH`]; the packed join config is the state-space
/// workhorse (3 controlled edges, two skewed branches) and goes deepest
/// to carry the deduplicated-state floor, while the cheaper configs go
/// deeper than required for margin.
fn default_depth(config: &str) -> u32 {
    match config {
        "spj" => 22,
        "spj-sym" => 18,
        _ => 20,
    }
}

fn expected_kinds(config: &str) -> &'static [&'static str] {
    match config {
        // A lost token surfaces either as a sink order fault (its
        // successor arrives out of sequence) or — under enough
        // back-pressure — as a conservation fault first: every drop
        // leaves a phantom token in the ledger's in-flight count, and
        // the BFS reaches the capacity overflow before the skip has
        // crossed the pipeline to the sink. Duplicates are symmetric.
        "mut-drop" => &["sequencing", "conservation"],
        "mut-dup" => &["sequencing", "conservation"],
        "mut-stuck" => &["deadlock"],
        "mut-eager" => &["sequencing"],
        _ => &[],
    }
}

struct Run {
    report: ExploreReport,
    wall_ms: u64,
    threads: usize,
}

impl Run {
    /// Deduplicated states per wall-clock second.
    fn states_per_sec(&self) -> u64 {
        self.report.states * 1000 / self.wall_ms.max(1)
    }

    /// Deterministic speedup evidence: the thread fan-out times the
    /// POR work-avoidance factor `(transitions + por_pruned) /
    /// transitions` — the unreduced single-thread walk executes that
    /// many times this run's per-thread transition load.
    fn effective_speedup(&self) -> f64 {
        let r = &self.report;
        let avoided = (r.transitions + r.por_pruned) as f64 / (r.transitions.max(1)) as f64;
        self.threads as f64 * avoided
    }
}

fn run_config(name: &str, opts: &ExploreOptions, threads: usize) -> Run {
    let mut twins: Vec<_> = (0..threads.max(1))
        .map(|_| build_config(name).expect("registered config"))
        .collect();
    let start = Instant::now();
    let report = explore_pool(&mut twins, opts);
    Run {
        report,
        wall_ms: start.elapsed().as_millis() as u64,
        threads: threads.max(1),
    }
}

impl Serialize for Run {
    fn to_value(&self) -> Value {
        let r = &self.report;
        let first = r.counterexamples.first();
        object(&[
            ("config", &r.config),
            ("depth", &r.depth),
            ("edges", &r.edges),
            ("states", &r.states),
            ("transitions", &r.transitions),
            ("dedup_hits", &r.dedup_hits),
            ("por_pruned", &r.por_pruned),
            ("sym_folds", &r.sym_folds),
            ("deadlock_checks", &r.deadlock_checks),
            ("total_violations", &r.total_violations),
            ("truncated", &r.truncated),
            ("first_kind", &first.map(|cx| &cx.kind)),
            ("minimized_schedule_len", &first.map(|cx| cx.schedule.len())),
            ("threads", &self.threads),
            ("states_per_sec", &self.states_per_sec()),
            ("wall_ms", &self.wall_ms),
        ])
    }
}

pub const ARTIFACT: Artifact = Artifact {
    name: "verify",
    about: "Verify: bounded model checking of the SP wrapper protocol over every stall schedule.",
    flags: &[
        CHECK,
        JSON,
        Flag {
            name: "--corpus",
            arg: Arg::Path,
            help: "re-emit each mutant's minimized counterexample into this directory",
        },
        Flag {
            name: "--depth",
            arg: Arg::Count,
            help: "override every correct configuration's depth bound",
        },
        Flag {
            name: "--threads",
            arg: Arg::Threads,
            help: "configuration twins per exploration (default: 1)",
        },
    ],
    refuse,
    run,
};

/// The baseline records the default depths, so `--check` takes no
/// `--depth`.
fn refuse(cli: &Cli) -> Result<(), String> {
    match cli.value("--depth") {
        Some(depth) if cli.switch("--check") => Err(format!(
            "`--check` compares with the default depths, but `--depth {depth}` overrides \
             them; drop `--depth` or `--check`"
        )),
        _ => Ok(()),
    }
}

fn run(cli: &Cli) -> (Value, Vec<Bar>) {
    let depth_override = cli
        .count("--depth")
        .map(|d| u32::try_from(d).expect("counts fit in u32"));
    let threads = cli.count("--threads").unwrap_or(1);

    section("Verify — correct configurations (every stall schedule to the depth bound)");
    println!("threads: {threads} configuration twin(s) per exploration");
    let mut correct = Vec::new();
    let mut total_states = 0u64;
    for name in CORRECT_CONFIGS {
        let run = run_config(
            name,
            &ExploreOptions {
                depth: depth_override.unwrap_or_else(|| default_depth(name)),
                ..ExploreOptions::default()
            },
            threads,
        );
        let r = &run.report;
        total_states += r.states;
        println!(
            "{:<11} depth {:>2}  states {:>8}  transitions {:>9}  dedup {:>9}  \
             pruned {:>9}  folds {:>7}  violations {}  [{} states/s, {} ms]",
            r.config,
            r.depth,
            r.states,
            r.transitions,
            r.dedup_hits,
            r.por_pruned,
            r.sym_folds,
            r.total_violations,
            run.states_per_sec(),
            run.wall_ms
        );
        correct.push(run);
    }
    println!("total deduplicated states: {total_states}");

    section("Verify — seeded mutants (each must be caught)");
    let mut mutants = Vec::new();
    for name in MUTANT_CONFIGS {
        let run = run_config(
            name,
            &ExploreOptions {
                depth: MUTANT_DEPTH,
                stop_at_first_violation: true,
                ..ExploreOptions::default()
            },
            threads,
        );
        let r = &run.report;
        match r.counterexamples.first() {
            Some(cx) => println!(
                "{:<11} CAUGHT as {:<12} after {:>6} states; minimized schedule {:?} \
                 (+{} free-run)  [{} ms]",
                r.config, cx.kind, r.states, cx.schedule, cx.free_run, run.wall_ms
            ),
            None => println!(
                "{:<11} MISSED within depth {} ({} states)  [{} ms]",
                r.config, r.depth, r.states, run.wall_ms
            ),
        }
        mutants.push(run);
    }

    if let Some(dir) = cli.value("--corpus") {
        std::fs::create_dir_all(dir).expect("create corpus directory");
        for run in &mutants {
            if let Some(cx) = run.report.counterexamples.first() {
                let path = format!("{dir}/{}.json", run.report.config);
                std::fs::write(&path, cx.to_json() + "\n").expect("write counterexample");
                eprintln!("wrote {path}");
            }
        }
    }

    let report = object(&[
        ("verify_correct", &correct),
        ("verify_mutants", &mutants),
        ("verify_total_states", &total_states),
    ]);
    let bars = cli
        .switch("--check")
        .then(|| bars(&correct, &mutants, total_states, threads));
    (report, bars.unwrap_or_default())
}

/// The `--check` bars, including the reduced-vs-unreduced reference
/// walks they need.
fn bars(correct: &[Run], mutants: &[Run], total_states: u64, threads: usize) -> Vec<Bar> {
    let mut bars = Vec::new();
    for r in correct.iter().map(|run| &run.report) {
        let clean = r.total_violations == 0 && !r.truncated;
        let what = format!(
            "{}: clean {clean}, depth {} >= {REQUIRED_DEPTH}",
            r.config, r.depth
        );
        bars.push(Bar(clean && r.depth >= REQUIRED_DEPTH, what));
    }
    let states = (total_states as f64, REQUIRED_STATES as f64);
    bars.push(Bar::at_least("deduplicated states", states.0, states.1));

    // Census cross-check: a reduced and an unreduced reference walk
    // of the join workhorse must agree state for state — live proof
    // that the POR guards prune only provably inert choices.
    let walk = |reduce: bool| {
        let opts = ExploreOptions {
            depth: REFERENCE_DEPTH,
            por: reduce,
            symmetry: reduce,
            ..ExploreOptions::default()
        };
        run_config("spj", &opts, 1).report
    };
    let (r, u) = (walk(true), walk(false));
    let what = format!(
        "spj census at depth {REFERENCE_DEPTH}: {} states reduced, {} unreduced; \
         {} + {} pruned = {} unreduced transitions",
        r.states, u.states, r.transitions, r.por_pruned, u.transitions
    );
    let census = r.states == u.states && r.transitions + r.por_pruned == u.transitions;
    bars.push(Bar(
        census && r.total_violations + u.total_violations == 0,
        what,
    ));

    let find = |config: &str| correct.iter().find(|run| run.report.config == config);
    if threads >= 4 {
        let speedup = find("spj").expect("spj is registered").effective_speedup();
        bars.push(Bar::at_least(
            "spj effective speedup (twins x work avoided)",
            speedup,
            4.0,
        ));
    }
    let folds = find("spj-sym")
        .expect("spj-sym is registered")
        .report
        .sym_folds;
    bars.push(Bar(
        folds > 0,
        format!("spj-sym folds mirror states: {folds} folds"),
    ));

    for r in mutants.iter().map(|run| &run.report) {
        let kind = r
            .counterexamples
            .first()
            .map_or("nothing", |cx| cx.kind.as_str());
        let expected = expected_kinds(&r.config);
        let what = format!("{} caught {kind}, expected one of {expected:?}", r.config);
        bars.push(Bar(expected.contains(&kind), what));
    }
    bars
}
