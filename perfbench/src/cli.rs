//! Command-line parsing. Every flag is checked where it enters: an
//! unknown workload, an unknown flag, a repeated flag or a malformed
//! value is an error, and `--help` only prints the usage.

use std::fmt;

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 8×8 gate-level SP stress mesh under streaming traffic.
    MeshStream,
    /// The same mesh, sinks accepting 4 cycles in every 4,096, on the
    /// fast-forward kernel.
    MeshPeriodic,
    /// 64 scenario lanes of the mesh in one packed batch.
    FleetMixed,
    /// `explore_pool` over one `spj` twin to depth 18.
    VerifySpj,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::MeshStream,
        Workload::MeshPeriodic,
        Workload::FleetMixed,
        Workload::VerifySpj,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshStream => "mesh-stream",
            Workload::MeshPeriodic => "mesh-periodic",
            Workload::FleetMixed => "fleet-mixed",
            Workload::VerifySpj => "verify-spj",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated benchmark invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs (only fleet-mixed draws from it).
    pub seed: u64,
    /// Measuring budget of the run, in seconds.
    pub seconds: u64,
    /// Whether to run the traced per-layer ledger instead of the
    /// end-to-end measurement.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Print the usage and run nothing.
    Help,
    /// Run one workload.
    Run(Args),
}

/// Default `--seed`: the fleet bench's base seed.
pub const DEFAULT_SEED: u64 = 11;
/// Default `--seconds`.
pub const DEFAULT_SECONDS: u64 = 25;
/// Largest accepted `--seconds` (a run must end within 180 s).
pub const MAX_SECONDS: u64 = 120;

/// The `--help` text.
pub const USAGE: &str = "\
usage: perfbench --workload <name> [--seed <u64>] [--seconds <1-120>] [--trace <0|1>]

workloads:
  mesh-stream    8x8 gate-level SP mesh, streaming traffic, default settle mode
  mesh-periodic  same mesh, sinks accept 4 cycles in every 4096, fast-forward kernel
  fleet-mixed    64 scenario lanes of the mesh in one packed batch (mixed traffic)
  verify-spj     explore_pool over one spj twin to depth 18

options:
  --seed <u64>     seed of the generated inputs (default 11). Only fleet-mixed
                   draws from it; it is a no-op for mesh-stream, mesh-periodic
                   and verify-spj, which have no stochastic input.
  --seconds <n>    measuring budget; repetitions run until it is spent
                   (default 25, at least 3 repetitions)
  --trace <0|1>    0: end-to-end metrics, tracing off (default)
                   1: the traced per-layer ledger; spans go to perfbench/out/
  --help           print this text and run nothing

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything runs on one thread;
LIS_SIM_THREADS is ignored.";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = || -> Result<&String, String> { Err(format!("{flag} needs a value")) };
        let slot_taken = |taken: bool| {
            if taken {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                let v = it.next().map_or_else(value, Ok)?;
                workload = Some(Workload::parse(v)?);
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                let v = it.next().map_or_else(value, Ok)?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed {v:?} is not an unsigned 64-bit integer"))?,
                );
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let v = it.next().map_or_else(value, Ok)?;
                let n = v
                    .parse::<u64>()
                    .ok()
                    .filter(|n| (1..=MAX_SECONDS).contains(n))
                    .ok_or_else(|| {
                        format!("--seconds {v:?} is not a whole number from 1 to {MAX_SECONDS}")
                    })?;
                seconds = Some(n);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                let v = it.next().map_or_else(value, Ok)?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v:?} must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn full_invocation_parses() {
        assert_eq!(
            parse_str("--workload fleet-mixed --seed 7 --seconds 9 --trace 1"),
            Ok(Command::Run(Args {
                workload: Workload::FleetMixed,
                seed: 7,
                seconds: 9,
                trace: true,
            }))
        );
    }

    #[test]
    fn defaults_fill_optional_flags() {
        assert_eq!(
            parse_str("--workload verify-spj"),
            Ok(Command::Run(Args {
                workload: Workload::VerifySpj,
                seed: DEFAULT_SEED,
                seconds: DEFAULT_SECONDS,
                trace: false,
            }))
        );
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            let cmd = parse_str(&format!("--workload {w}")).unwrap();
            assert!(matches!(cmd, Command::Run(a) if a.workload == w));
        }
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert_eq!(parse_str("--help"), Ok(Command::Help));
        assert_eq!(parse_str("--workload nope --help"), Ok(Command::Help));
        assert_eq!(parse_str("-h"), Ok(Command::Help));
    }

    #[test]
    fn bad_input_is_an_error() {
        for bad in [
            "",
            "--workload",
            "--workload mesh",
            "--workload mesh-stream --seed -1",
            "--workload mesh-stream --seed 1.5",
            "--workload mesh-stream --seconds 0",
            "--workload mesh-stream --seconds 121",
            "--workload mesh-stream --seconds ten",
            "--workload mesh-stream --trace 2",
            "--workload mesh-stream --trace",
            "--workload mesh-stream --threads 2",
            "--workload mesh-stream --workload verify-spj",
            "--workload mesh-stream --seed 1 --seed 2",
            "mesh-stream",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
