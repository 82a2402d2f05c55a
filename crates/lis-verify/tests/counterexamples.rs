//! Counterexample replay corpus: every committed JSON trace under
//! `tests/counterexamples/` is loaded and replayed through the
//! ordinary [`lis_core::Soc`] simulator. The verdict must hold on both
//! sides of the fault: the seeded-mutant SoC reproduces the recorded
//! violation, and the fixed SoC of the same shape replays the very
//! same adversary schedule cleanly. Regenerate the corpus with
//! `cargo run --release -p lis-bench --bin reproduce -- verify --corpus
//! crates/lis-verify/tests/counterexamples`.

use lis_verify::{build_config, replay_on_checker, replay_on_soc, Counterexample};

fn corpus() -> Vec<(String, Counterexample)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/counterexamples");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    entries
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let json = std::fs::read_to_string(&path).expect("readable corpus file");
            let cx = Counterexample::from_json(&json)
                .unwrap_or_else(|e| panic!("{name}: malformed counterexample: {e}"));
            (name, cx)
        })
        .collect()
}

#[test]
fn corpus_covers_every_mutant() {
    let names: Vec<String> = corpus().into_iter().map(|(_, cx)| cx.config).collect();
    for required in lis_verify::MUTANT_CONFIGS {
        assert!(
            names.iter().any(|n| n == required),
            "no committed counterexample for {required} (have {names:?})"
        );
    }
}

#[test]
fn every_committed_trace_reproduces_on_the_seeded_soc() {
    for (name, cx) in corpus() {
        let verdict = replay_on_soc(&cx, true);
        assert!(
            verdict.reproduces(&cx.kind),
            "{name}: expected a {} violation, got {verdict:?}",
            cx.kind
        );
    }
}

#[test]
fn every_committed_trace_passes_on_the_fixed_soc() {
    for (name, cx) in corpus() {
        let verdict = replay_on_soc(&cx, false);
        assert!(
            verdict.clean(),
            "{name}: the fixed SoC must be insensitive to this schedule, got {verdict:?}"
        );
    }
}

#[test]
fn every_committed_trace_reproduces_on_the_checker() {
    for (name, cx) in corpus() {
        let mut cfg = build_config(&cx.config)
            .unwrap_or_else(|| panic!("{name}: unknown config {:?}", cx.config));
        let verdict = replay_on_checker(&mut cfg, &cx.schedule, cx.free_run);
        assert_eq!(
            verdict.as_ref().map(|(kind, _)| kind.as_str()),
            Some(cx.kind.as_str()),
            "{name}: checker replay disagrees with the recorded kind"
        );
    }
}
