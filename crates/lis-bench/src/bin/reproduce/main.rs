//! `reproduce <artifact> [flags]`: regenerates one table, figure or
//! experiment of the paper (see the `lis_bench` crate docs).

mod e5;
mod e6;
mod e7;
mod fig1_fig2;
mod fleet;
mod scaling;
mod table1;
mod verify;

use lis_bench::Artifact;
use std::process::ExitCode;

/// Every artifact, in the order `reproduce --help` lists them.
const ARTIFACTS: &[Artifact] = &[
    table1::ARTIFACT,
    fig1_fig2::ARTIFACT,
    scaling::ARTIFACT,
    e5::ARTIFACT,
    e6::ARTIFACT,
    e7::ARTIFACT,
    fleet::ARTIFACT,
    verify::ARTIFACT,
];

fn main() -> ExitCode {
    lis_bench::reproduce(ARTIFACTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_bench::{command, Cli};

    /// What a command line must come to.
    enum Want {
        Run,
        Help,
        /// Refused with a message containing every one of these.
        Refuse(&'static [&'static str]),
    }

    fn outcome(args: &[&str]) -> Result<(&'static Artifact, Cli), (u8, String)> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        command(ARTIFACTS, &args)
    }

    /// Command lines are only parsed here, never run.
    #[test]
    fn command_lines_run_help_or_are_refused_by_name() {
        use Want::*;
        let cases: &[(&[&str], Want)] = &[
            (&["table1"], Run),
            (&["table1", "--check", "--threads", "2"], Run),
            (&["e6", "--check", "--json", "out.json"], Run),
            (&["scaling", "--check", "--sweep", "all"], Run),
            (&["scaling", "--sweep", "length"], Run),
            (
                &["verify", "--threads", "4", "--check", "--corpus", "dir"],
                Run,
            ),
            (&["verify", "--depth", "16", "--json", "out.json"], Run),
            (&["--help"], Help),
            (&["verify", "--help"], Help),
            (&["scaling", "--check", "--sweep", "ports", "--help"], Help),
            (&[], Refuse(&["name an artifact", "table1", "verify"])),
            (
                &["throughput"],
                Refuse(&["unknown artifact `throughput`", "e5"]),
            ),
            (&["--check"], Refuse(&["unknown artifact `--check`"])),
            // The kernel is single-threaded, so a leftover `--threads`
            // fails loudly instead of being ignored.
            (
                &["e5", "--threads", "4"],
                Refuse(&["unknown flag `--threads`"]),
            ),
            (
                &["e6", "--threads", "4"],
                Refuse(&["unknown flag `--threads`"]),
            ),
            (
                &["e7", "--threads", "4"],
                Refuse(&["unknown flag `--threads`"]),
            ),
            (
                &["verify", "--threads", "100000"],
                Refuse(&["`--threads`", "from 1 to 64", "`100000`"]),
            ),
            (
                &["fig1_fig2", "--check"],
                Refuse(&["unknown flag `--check`"]),
            ),
            (
                &["scaling", "--sweep", "both"],
                Refuse(&["one of length|ports|sim|all"]),
            ),
            (
                &["scaling", "--json", "out.json", "--sweep", "sim"],
                Refuse(&["`--json`", "`--sweep sim`"]),
            ),
            (
                &["scaling", "--sweep", "length", "--check"],
                Refuse(&["`--check`", "`--sweep length`"]),
            ),
            (
                &["scaling", "--check", "--sweep", "ports"],
                Refuse(&["`--check`", "`--sweep ports`"]),
            ),
            (
                &["verify", "--check", "--depth", "16"],
                Refuse(&["`--check`", "`--depth 16`"]),
            ),
        ];
        for (args, want) in cases {
            match (outcome(args), want) {
                (Ok((artifact, _)), Run) => assert_eq!(artifact.name, args[0]),
                (Err((0, text)), Help) => assert!(text.starts_with("usage: reproduce")),
                (Err((2, text)), Refuse(parts)) => {
                    for part in *parts {
                        assert!(text.contains(part), "{args:?}: {part:?} not in {text}");
                    }
                }
                (got, _) => panic!("{args:?}: unexpected {got:?}"),
            }
        }
    }

    /// `--threads` asks for that many systems and workers, so every
    /// artifact that takes it refuses more than `MAX_THREADS`.
    #[test]
    fn threads_are_capped_for_every_artifact_that_takes_them() {
        let threaded: Vec<&str> = ARTIFACTS
            .iter()
            .filter(|a| a.flags.iter().any(|f| f.name == "--threads"))
            .map(|a| a.name)
            .collect();
        assert_eq!(threaded, ["table1", "scaling", "fleet", "verify"]);
        for name in threaded {
            assert!(outcome(&[name, "--threads", "64"]).is_ok());
            for n in ["65", "100000"] {
                let Err((2, text)) = outcome(&[name, "--threads", n]) else {
                    panic!("{name} --threads {n} must be refused");
                };
                assert!(text.contains("from 1 to 64"), "{text}");
            }
        }
    }

    /// Every artifact with `--check` has a committed baseline to
    /// compare with.
    #[test]
    fn every_checked_artifact_has_a_baseline() {
        for a in ARTIFACTS {
            let checked = a.flags.iter().any(|f| f.name == "--check");
            let baseline = format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), a.name);
            assert_eq!(
                std::path::Path::new(&baseline).exists(),
                checked,
                "{}",
                a.name
            );
        }
    }
}
