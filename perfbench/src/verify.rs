//! verify-spj: the bounded model check of the SP join configuration.
//!
//! One repetition builds the `spj` configuration (set-up), proves it
//! clean to the verify binary's spj depth with `explore_pool` over one
//! twin (run phase), and checks the verdict.

use crate::check::{agree, check_proof, Tally};
use crate::metrics::{median, ratio, RunReport};
use crate::trace::{Recorder, ROOT};
use crate::{end_to_end, repeat, sample_setups, RepTimes};
use lis_verify::{build_config, explore_pool, ExploreOptions, ExploreReport};
use std::time::{Duration, Instant};

/// Configuration proved.
const CONFIG: &str = "spj";
/// The verify binary's spj depth.
const DEPTH: u32 = 18;
/// Set-ups timed between repetitions, on top of each repetition's own:
/// `build_config` takes about a millisecond, so `setup_s` needs many
/// samples to be steady.
const SETUP_SAMPLES: usize = 40;

fn options() -> ExploreOptions {
    ExploreOptions {
        depth: DEPTH,
        ..ExploreOptions::default()
    }
}

/// One repetition, with spans under `rec` when given.
fn rep(
    tally: &mut Tally,
    first: &mut Option<ExploreReport>,
    mut rec: Option<&mut Recorder>,
) -> Result<RepTimes, String> {
    let parent = rec.as_mut().map_or(ROOT, |r| r.open("rep", ROOT));
    let t0 = Instant::now();
    let built = build_config(CONFIG);
    let t1 = Instant::now();
    let mut cfg = built.ok_or_else(|| format!("build_config({CONFIG:?}) knows no such config"))?;
    let t2 = Instant::now();
    let report = explore_pool(std::slice::from_mut(&mut cfg), &options());
    let t3 = Instant::now();
    check_proof(tally, &report);
    let t4 = Instant::now();
    if let Some(r) = rec {
        r.push("lis-verify.build_config", parent, t0, t1);
        r.push("lis-verify.explore_pool", parent, t2, t3);
        r.push("check.verdict", parent, t3, t4);
        r.close(parent);
    }
    agree(tally, first, report);
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(RepTimes {
        setup: s(t0, t1),
        run: s(t2, t3),
        check: s(t3, t4),
    })
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// When the configuration is unknown or peak memory cannot be read.
pub fn measure(budget: Duration) -> Result<RunReport, String> {
    let mut tally = Tally::default();
    let mut first = None;
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    let mut failure = None;
    repeat(budget, |_| {
        sample_setups(SETUP_SAMPLES, &mut setups, || build_config(CONFIG));
        match rep(&mut tally, &mut first, None) {
            Ok(r) => reps.push(r),
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    end_to_end(tally, setups, &reps)
}

/// The traced run: untraced and traced repetitions alternate; returns
/// the per-layer metrics and the last traced repetition's spans.
///
/// # Errors
///
/// When the configuration is unknown.
pub fn ledger(budget: Duration) -> Result<(RunReport, Recorder), String> {
    let mut tally = Tally::default();
    let mut first = None;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = Recorder::new();
    let mut failure = None;
    repeat(budget, |i| {
        let mut rec = Recorder::new();
        let pair = if i % 2 == 0 {
            rep(&mut tally, &mut first, None)
                .and_then(|p| rep(&mut tally, &mut first, Some(&mut rec)).map(|t| (p, t)))
        } else {
            rep(&mut tally, &mut first, Some(&mut rec))
                .and_then(|t| rep(&mut tally, &mut first, None).map(|p| (p, t)))
        };
        match pair {
            Ok((p, t)) => {
                plain.push(p);
                traced.push(t);
                last = rec;
            }
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let med = |f: fn(&RepTimes) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let plain_run = median(&plain.iter().map(|r| r.run).collect::<Vec<_>>());
    let r = first.expect("at least one repetition");
    let count = |n: u64| n as f64;
    let values = vec![
        ("setup.build_s", med(|t| t.setup)),
        ("run.phase_s", med(|t| t.run)),
        ("check.span_s", med(|t| t.check)),
        ("trace_overhead", med(|t| t.run) / plain_run - 1.0),
        ("lis-verify.states", count(r.states)),
        ("lis-verify.transitions", count(r.transitions)),
        ("lis-verify.dedup_hits", count(r.dedup_hits)),
        ("lis-verify.por_pruned", count(r.por_pruned)),
        ("lis-verify.sym_folds", count(r.sym_folds)),
        ("lis-verify.deadlock_checks", count(r.deadlock_checks)),
        (
            "lis-verify.new_state_ratio",
            ratio(r.states as f64, r.transitions as f64),
        ),
        (
            "lis-verify.por_prune_ratio",
            ratio(r.por_pruned as f64, (r.transitions + r.por_pruned) as f64),
        ),
        (
            "lis-verify.us_per_transition",
            med(|t| t.run) * 1e6 / r.transitions.max(1) as f64,
        ),
    ];
    Ok((
        RunReport {
            tally,
            values: crate::with_unused_layers_zeroed(values),
        },
        last,
    ))
}
