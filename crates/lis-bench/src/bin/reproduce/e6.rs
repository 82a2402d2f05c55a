//! E6: design ablations.
//!
//! 1. FSM state-encoding (one-hot vs binary) on the Viterbi schedule —
//!    the baseline's area/fmax trade-off — and the shift-register
//!    wrapper (Casu & Macchiarulo) corrupting data under irregularity.
//! 2. The NoC-scale topology ablation: SP-with-ROM-compression vs
//!    SP-uncompressed vs per-pearl FSM synchronizers, swept across mesh
//!    scales with schedule length growing alongside — the regime where
//!    the paper's flat-cost claim becomes decisive. Every variant also
//!    drives the generated mesh gate-level through the activity
//!    kernel, checked token-exact against the dataflow oracle.
//! 3. The 10⁵-cycle long-schedule stress run: an 8×8 mesh of gate-level
//!    SP shells under bursty traffic and relay back-pressure.
//!
//! The E6 headline claim — compressed-SP slice/ROM cost flat within
//! ±10% across scales, FSM cost growing monotonically, stress run
//! token-exact — is asserted unconditionally: a regression aborts the
//! run. `--check` only compares the report with BENCH_e6.json.

use lis_bench::{object, print_rows, section, Artifact, Bar, Cli, CHECK, JSON};
use lis_core::experiment::ablation;
use lis_synth::TechParams;
use lis_topo::{assert_e6_claim, stress_run, topology_ablation, AblationBenchConfig, StressConfig};
use serde::Value;

pub const ARTIFACT: Artifact = Artifact {
    name: "e6",
    about: "E6: FSM-encoding and topology ablations plus the 1e5-cycle stress run.",
    flags: &[JSON, CHECK],
    refuse: |_| Ok(()),
    run,
};

fn run(_: &Cli) -> (Value, Vec<Bar>) {
    let params = TechParams::default();

    section("E6 — classic ablations (FSM encodings, static-wrapper fragility)");
    let classic = ablation(&params).expect("ablation");
    print_rows(&classic);

    section("E6 — synchronizer cost & behaviour across NoC topology scale");
    let topo_cfg = AblationBenchConfig::default();
    println!(
        "square meshes, gate-level shells, bursty stall {:.2}, hop distance {} / budget {}",
        topo_cfg.stall, topo_cfg.hop_distance, topo_cfg.relay_budget
    );
    let topo_rows = topology_ablation(&topo_cfg, &params).expect("topology ablation");
    print_rows(&topo_rows);
    assert_e6_claim(&topo_rows, 0.10);
    println!(
        "claim holds: compressed-SP cost flat (±10%), FSM/uncompressed growing, streams exact"
    );

    section("E6 — long-schedule stress run (SP run counters + relay back-pressure)");
    let stress_cfg = StressConfig::default();
    let stress = stress_run(&stress_cfg);
    println!("{stress}");
    assert!(stress.token_exact, "stress streams must be token-exact");
    assert_eq!(stress.violations, 0, "stress must stay protocol-clean");
    assert!(
        stress.pearls >= 64 && stress.cycles >= 100_000,
        "stress bar: >=64 pearls for >=1e5 cycles"
    );

    let report = object(&[
        ("e6_classic", &classic),
        ("topo_config", &topo_cfg),
        ("topo_ablation", &topo_rows),
        ("stress_config", &stress_cfg),
        ("stress", &stress),
    ]);
    (report, Vec::new())
}
