//! Reduction equivalence: pruning the walk must never change what the
//! checker concludes. Partial-order reduction is census-preserving —
//! same reachable states, same back-pointers, same counterexamples,
//! with `transitions + por_pruned` accounting for every skipped
//! expansion exactly. Symmetry reduction may shrink the census (mirror
//! states fold into one orbit) but must preserve the verdict. And the
//! parallel frontier expansion must be bit-identical at any twin
//! count, reductions on or off.

use lis_verify::{
    build_config, explore, explore_pool, replay_on_checker, ExploreOptions, ExploreReport,
    MUTANT_CONFIGS,
};
use proptest::prelude::*;

fn options(depth: u32, por: bool, symmetry: bool) -> ExploreOptions {
    ExploreOptions {
        depth,
        por,
        symmetry,
        ..ExploreOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn reduced_and_unreduced_explorations_agree(
        which in 0usize..3,
        depth in 3u32..6,
    ) {
        let name = ["sp1-scalar", "sp2-scalar", "spj-sym"][which];
        let full = explore(&mut build_config(name).unwrap(), &options(depth, true, true));
        let bare = explore(&mut build_config(name).unwrap(), &options(depth, false, false));
        prop_assert_eq!(full.total_violations, bare.total_violations);
        prop_assert_eq!(full.truncated, bare.truncated);

        // POR alone preserves the census, the liveness queue, and the
        // recorded counterexamples exactly; the pruning counter
        // accounts for every transition the unreduced walk executes.
        let por_only = explore(&mut build_config(name).unwrap(), &options(depth, true, false));
        prop_assert_eq!(por_only.states, bare.states);
        prop_assert_eq!(por_only.deadlock_checks, bare.deadlock_checks);
        prop_assert_eq!(por_only.transitions + por_only.por_pruned, bare.transitions);
        prop_assert_eq!(&por_only.counterexamples, &bare.counterexamples);

        // Symmetry on top can only shrink the census, never grow it.
        prop_assert!(full.states <= por_only.states);
    }
}

#[test]
fn mutants_are_caught_in_every_reduction_mode_with_replayable_schedules() {
    for name in MUTANT_CONFIGS {
        for (por, symmetry) in [(true, true), (false, false)] {
            let mut cfg = build_config(name).unwrap();
            let report = explore(
                &mut cfg,
                &ExploreOptions {
                    depth: 24,
                    stop_at_first_violation: true,
                    por,
                    symmetry,
                    ..ExploreOptions::default()
                },
            );
            let cx = report
                .counterexamples
                .into_iter()
                .next()
                .unwrap_or_else(|| panic!("{name}: mutant escaped with por={por}"));
            let mut replay_cfg = build_config(name).unwrap();
            let verdict = replay_on_checker(&mut replay_cfg, &cx.schedule, cx.free_run);
            assert_eq!(
                verdict.map(|(kind, _)| kind),
                Some(cx.kind.clone()),
                "{name} por={por}: schedule {:?} must replay to the recorded verdict",
                cx.schedule
            );
        }
    }
}

/// Explores `name` on 1 twin and on 2, 3 and 4 twins (two and three
/// split the super-chunks unevenly), asserting identical reports, and
/// returns the 1-twin report.
fn same_report_at_every_twin_count(name: &str, opts: &ExploreOptions) -> ExploreReport {
    let one = explore(&mut build_config(name).unwrap(), opts);
    for n in 2..=4 {
        let mut twins: Vec<_> = (0..n).map(|_| build_config(name).unwrap()).collect();
        let pooled = explore_pool(&mut twins, opts);
        assert_eq!(one, pooled, "{name} at {n} twins, {opts:?}");
    }
    one
}

#[test]
fn parallel_exploration_is_bit_identical_across_twin_counts() {
    for name in ["sp1-scalar", "spj-sym"] {
        for (por, symmetry) in [(true, true), (false, false)] {
            same_report_at_every_twin_count(name, &options(5, por, symmetry));
        }
    }
}

#[test]
fn early_stop_is_bit_identical_across_twin_counts() {
    // The merge must stop at the same job at every twin count, even when
    // that job sits in the middle of a super-chunk the twins ran ahead on.
    let report = same_report_at_every_twin_count(
        "mut-dup",
        &ExploreOptions {
            depth: 24,
            stop_at_first_violation: true,
            ..ExploreOptions::default()
        },
    );
    assert_eq!(report.total_violations, 1, "{report:?}");
    assert_eq!(report.counterexamples.len(), 1);
}
