//! Failure accounting: every output the benchmark checks is one
//! attempted operation, and a check that does not hold is one failed
//! operation. Nothing here panics on a bad output; the run reports
//! failed/attempted instead.

use lis_verify::ExploreReport;

/// Attempted and failed operations of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check did not hold.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns `ok` so callers can chain.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// Keeps the first repetition's deterministic outputs in `first`; for
/// every later one, counts one operation: `outcome` equals the first.
pub fn agree<T: PartialEq>(tally: &mut Tally, first: &mut Option<T>, outcome: T) {
    match first {
        None => *first = Some(outcome),
        Some(f) => {
            tally.record(*f == outcome);
        }
    }
}

/// Whether `got` is an exact prefix of `want`: the latency-insensitivity
/// criterion (timing may differ, content never).
pub fn is_prefix(got: &[u64], want: &[u64]) -> bool {
    got.len() <= want.len() && got == &want[..got.len()]
}

/// Counts one operation per sink stream of one lane, checked against
/// the KPN oracle's streams. A lane with a missing or extra sink fails
/// every stream the oracle names.
pub fn check_lane_streams(tally: &mut Tally, got: &[Vec<u64>], want: &[Vec<u64>]) {
    let same_shape = got.len() == want.len();
    for (k, want_k) in want.iter().enumerate() {
        let ok = same_shape && is_prefix(&got[k], want_k);
        tally.record(ok);
    }
}

/// Counts one operation for one violation counter, which must read 0.
pub fn check_violations(tally: &mut Tally, violations: u64) {
    tally.record(violations == 0);
}

/// Counts one operation for one proof verdict: clean (no violation, no
/// counterexample) and not truncated by the state cap.
pub fn check_proof(tally: &mut Tally, report: &ExploreReport) {
    tally.record(
        report.total_violations == 0 && report.counterexamples.is_empty() && !report.truncated,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_repetitions_must_agree_with_the_first() {
        let mut tally = Tally::default();
        let mut first = None;
        agree(&mut tally, &mut first, 7);
        assert_eq!(first, Some(7));
        assert_eq!(tally, Tally::default());
        agree(&mut tally, &mut first, 7);
        agree(&mut tally, &mut first, 8);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(first, Some(7));
    }

    #[test]
    fn prefix_criterion() {
        assert!(is_prefix(&[], &[1, 2]));
        assert!(is_prefix(&[1, 2], &[1, 2]));
        assert!(!is_prefix(&[1, 3], &[1, 2, 3]));
        assert!(!is_prefix(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn a_fabricated_bad_stream_fails_exactly_one_operation() {
        let want = vec![vec![1, 3, 6, 10], vec![2, 4]];
        let mut tally = Tally::default();
        check_lane_streams(&mut tally, &[vec![1, 3], vec![2, 4]], &want);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        check_lane_streams(&mut tally, &[vec![1, 3, 7], vec![2]], &want);
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
    }

    #[test]
    fn a_missing_sink_fails_every_stream_of_the_lane() {
        let want = vec![vec![1], vec![2]];
        let mut tally = Tally::default();
        check_lane_streams(&mut tally, &[vec![1]], &want);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }

    #[test]
    fn violation_counters_must_read_zero() {
        let mut tally = Tally::default();
        check_violations(&mut tally, 0);
        check_violations(&mut tally, 3);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    fn clean_report() -> ExploreReport {
        ExploreReport {
            config: "spj".into(),
            depth: 18,
            edges: vec!["in".into(), "out".into()],
            states: 10,
            transitions: 40,
            dedup_hits: 30,
            por_pruned: 0,
            sym_folds: 0,
            deadlock_checks: 10,
            total_violations: 0,
            truncated: false,
            counterexamples: Vec::new(),
        }
    }

    #[test]
    fn proof_verdicts_fail_on_violations_or_truncation() {
        let mut tally = Tally::default();
        check_proof(&mut tally, &clean_report());
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );

        let violating = ExploreReport {
            total_violations: 2,
            ..clean_report()
        };
        check_proof(&mut tally, &violating);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );

        let truncated = ExploreReport {
            truncated: true,
            ..clean_report()
        };
        check_proof(&mut tally, &truncated);
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
