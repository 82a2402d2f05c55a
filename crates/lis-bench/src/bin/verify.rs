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
//! `--json <path>` records the structural results (e.g.
//! BENCH_verify.json; wall-clock, rate, and thread-count fields are
//! volatile and excluded from the CI drift diff), `--corpus <dir>`
//! re-emits each mutant's minimized counterexample as JSON (the
//! committed corpus under `crates/lis-verify/tests/counterexamples/`),
//! and `--check` enforces the bars:
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
//! * every mutant is caught with the expected verdict kind, and its
//!   minimized counterexample still reproduces.

use lis_bench::{section, Arg, Cli, Flag};
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
/// workhorse (3 controlled edges, two skewed branches) and carries the
/// deduplicated-state floor, while the cheaper configs go deeper than
/// required for margin.
fn default_depth(config: &str) -> u32 {
    match config {
        "spj" => 18,
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
    wall_ms: u128,
    threads: usize,
}

impl Run {
    /// Deduplicated states per wall-clock second.
    fn states_per_sec(&self) -> u64 {
        self.report.states * 1000 / (self.wall_ms.max(1) as u64)
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
        wall_ms: start.elapsed().as_millis(),
        threads: threads.max(1),
    }
}

fn report_value(run: &Run) -> Value {
    let r = &run.report;
    Value::Object(vec![
        ("config".into(), Value::Str(r.config.clone())),
        ("depth".into(), Value::UInt(u64::from(r.depth))),
        ("edges".into(), r.edges.to_value()),
        ("states".into(), Value::UInt(r.states)),
        ("transitions".into(), Value::UInt(r.transitions)),
        ("dedup_hits".into(), Value::UInt(r.dedup_hits)),
        ("por_pruned".into(), Value::UInt(r.por_pruned)),
        ("sym_folds".into(), Value::UInt(r.sym_folds)),
        ("deadlock_checks".into(), Value::UInt(r.deadlock_checks)),
        ("total_violations".into(), Value::UInt(r.total_violations)),
        ("truncated".into(), Value::Bool(r.truncated)),
        (
            "first_kind".into(),
            match r.counterexamples.first() {
                Some(cx) => Value::Str(cx.kind.clone()),
                None => Value::Null,
            },
        ),
        (
            "minimized_schedule_len".into(),
            match r.counterexamples.first() {
                Some(cx) => Value::UInt(cx.schedule.len() as u64),
                None => Value::Null,
            },
        ),
        ("threads".into(), Value::UInt(run.threads as u64)),
        ("states_per_sec".into(), Value::UInt(run.states_per_sec())),
        ("wall_ms".into(), Value::UInt(run.wall_ms as u64)),
    ])
}

const FLAGS: &[Flag] = &[
    Flag {
        name: "--check",
        arg: Arg::Switch,
        help: "enforce the depth, coverage, reduction and mutant bars",
    },
    Flag {
        name: "--json",
        arg: Arg::Path,
        help: "write the structural results as a JSON baseline (e.g. BENCH_verify.json)",
    },
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
        arg: Arg::Count,
        help: "configuration twins per exploration (default: 1)",
    },
];

fn main() {
    let cli = Cli::from_env(
        "Verify: bounded model checking of the SP wrapper protocol over every stall schedule.",
        FLAGS,
    );
    let json_path = cli.value("--json");
    let check = cli.switch("--check");
    let corpus_dir = cli.value("--corpus");
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

    if let Some(dir) = corpus_dir {
        std::fs::create_dir_all(dir).expect("create corpus directory");
        for run in &mutants {
            if let Some(cx) = run.report.counterexamples.first() {
                let path = format!("{dir}/{}.json", run.report.config);
                std::fs::write(&path, cx.to_json() + "\n").expect("write counterexample");
                eprintln!("wrote {path}");
            }
        }
    }

    if let Some(path) = json_path {
        let baseline = Value::Object(vec![
            (
                "verify_correct".into(),
                Value::Array(correct.iter().map(report_value).collect()),
            ),
            (
                "verify_mutants".into(),
                Value::Array(mutants.iter().map(report_value).collect()),
            ),
            ("verify_total_states".into(), Value::UInt(total_states)),
        ]);
        let json = serde_json::to_string_pretty(&baseline).expect("serialize verify rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }

    if check {
        for run in &correct {
            let r = &run.report;
            assert_eq!(
                r.total_violations, 0,
                "{}: the correct configuration must be violation-free, found {:?}",
                r.config, r.counterexamples
            );
            assert!(!r.truncated, "{}: exploration truncated", r.config);
            assert!(
                r.depth >= REQUIRED_DEPTH,
                "{}: depth {} below the required {REQUIRED_DEPTH}",
                r.config,
                r.depth
            );
        }
        assert!(
            total_states >= REQUIRED_STATES,
            "correct configurations covered {total_states} deduplicated states, \
             need >= {REQUIRED_STATES}"
        );

        section("Check — reduction soundness and speedup evidence");
        // Census cross-check: a reduced and an unreduced reference walk
        // of the join workhorse must agree state for state — live proof
        // that the POR guards prune only provably inert choices.
        let reduced = run_config(
            "spj",
            &ExploreOptions {
                depth: REFERENCE_DEPTH,
                ..ExploreOptions::default()
            },
            1,
        );
        let unreduced = run_config(
            "spj",
            &ExploreOptions {
                depth: REFERENCE_DEPTH,
                por: false,
                symmetry: false,
                ..ExploreOptions::default()
            },
            1,
        );
        assert_eq!(
            reduced.report.states, unreduced.report.states,
            "spj: the reduced walk must preserve the census at depth {REFERENCE_DEPTH}"
        );
        assert_eq!(
            reduced.report.transitions + reduced.report.por_pruned,
            unreduced.report.transitions,
            "spj: pruning must account for every skipped transition"
        );
        assert_eq!(reduced.report.total_violations, 0);
        assert_eq!(unreduced.report.total_violations, 0);
        println!(
            "spj census cross-check at depth {REFERENCE_DEPTH}: {} states both ways, \
             {} of {} transitions pruned",
            reduced.report.states, reduced.report.por_pruned, unreduced.report.transitions
        );

        let spj = correct
            .iter()
            .find(|run| run.report.config == "spj")
            .expect("spj is registered");
        println!(
            "spj effective speedup: {:.2}x ({} threads x {:.2} work avoidance)",
            spj.effective_speedup(),
            spj.threads,
            spj.effective_speedup() / spj.threads as f64
        );
        if threads >= 4 {
            assert!(
                spj.effective_speedup() >= 4.0,
                "spj: effective speedup {:.2} below the 4x bar at {} threads",
                spj.effective_speedup(),
                threads
            );
        }

        let spj_sym = correct
            .iter()
            .find(|run| run.report.config == "spj-sym")
            .expect("spj-sym is registered");
        assert!(
            spj_sym.report.sym_folds > 0,
            "spj-sym: the branch symmetry must fold mirror states"
        );

        for run in &mutants {
            let r = &run.report;
            let cx = r.counterexamples.first().unwrap_or_else(|| {
                panic!(
                    "{}: mutant escaped the checker within depth {}",
                    r.config, r.depth
                )
            });
            assert!(
                expected_kinds(&r.config).contains(&cx.kind.as_str()),
                "{}: caught as {:?}, expected one of {:?}",
                r.config,
                cx.kind,
                expected_kinds(&r.config)
            );
        }
        println!(
            "\nCHECK PASSED: {} correct configs clean to depth >= {REQUIRED_DEPTH} \
             ({total_states} states), {} mutants caught",
            correct.len(),
            mutants.len()
        );
    }
}
