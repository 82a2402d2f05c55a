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
//! `--json <path>` records the rows (e.g. BENCH_e6.json; wall-clock
//! fields are volatile and excluded from the CI drift diff). The E6
//! headline claim — compressed-SP slice/ROM cost flat within ±10%
//! across scales, FSM cost growing monotonically, stress run
//! token-exact — is asserted unconditionally: a regression aborts the
//! binary.

use lis_bench::{print_rows, section, Arg, Cli, Flag};
use lis_core::experiment::ablation;
use lis_synth::TechParams;
use lis_topo::{assert_e6_claim, stress_run, topology_ablation, AblationBenchConfig, StressConfig};
use serde::{Serialize, Value};

const FLAGS: &[Flag] = &[Flag {
    name: "--json",
    arg: Arg::Path,
    help: "write the rows as a JSON baseline (e.g. BENCH_e6.json)",
}];

fn main() {
    let cli = Cli::from_env(
        "E6: FSM-encoding and topology ablations plus the 1e5-cycle stress run.",
        FLAGS,
    );
    let json_path = cli.value("--json");
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

    if let Some(path) = json_path {
        let baseline = Value::Object(vec![
            ("e6_classic".into(), classic.to_value()),
            ("topo_config".into(), topo_cfg.to_value()),
            ("topo_ablation".into(), topo_rows.to_value()),
            ("stress_config".into(), stress_cfg.to_value()),
            ("stress".into(), stress.to_value()),
        ]);
        let json = serde_json::to_string_pretty(&baseline).expect("serialize E6 rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_bench::CliError;

    /// The kernel is single-threaded, so a leftover `--threads 4` fails
    /// loudly instead of being ignored.
    #[test]
    fn rejects_a_stale_threads_flag() {
        let args = ["--threads".to_owned(), "4".to_owned()];
        assert_eq!(
            Cli::parse(FLAGS, &args).unwrap_err(),
            CliError::Bad("unknown flag `--threads`".to_owned())
        );
    }
}
