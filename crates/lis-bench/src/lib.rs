//! # lis-bench — the reproduction harness
//!
//! One binary per table/figure of Bomel et al. (DATE 2005), plus
//! Criterion benches for the flow kernels. The table below is the
//! experiment index; the README's experiment sections describe each
//! one, and the `BENCH_*.json` files at the repository root hold the
//! recorded results that CI diffs fresh runs against.
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table 1 — FSM vs SP synthesis of Viterbi/RS wrappers |
//! | `fig1_fig2` | Figures 1 & 2 — wrapper architectures, regenerated structurally |
//! | `scaling` | E3/E4 — area/fmax vs schedule length and port count |
//! | `throughput` | E5 — relayed-pipeline throughput & latency-insensitivity |
//! | `ablation` | E6 — FSM encodings; static wrapper fragility |
//! | `e7` | E7 — activity kernel (run vs step-only) vs full sweep on the stress mesh |
//! | `fleet` | Scenario fleets — 64 lane-batched traffic scenarios vs sequential solo runs |
//! | `verify` | Bounded model check — SP protocol proven clean to depth 16; mutants caught |
//!
//! Every binary parses its command line with [`Cli`] against its own
//! [`Flag`] list: `--help` prints the usage and runs nothing, and an
//! unknown, repeated or malformed flag exits with status 2 naming it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// What a command-line flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Nothing: a bare switch such as `--check`.
    Switch,
    /// A file or directory path.
    Path,
    /// A positive integer that fits in 32 bits.
    Count,
    /// One word out of a fixed set.
    OneOf(&'static [&'static str]),
}

/// One flag a bench binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--json`.
    pub name: &'static str,
    /// What follows the flag.
    pub arg: Arg,
    /// One line for the usage text.
    pub help: &'static str,
}

/// Why a command line is not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was given: print the usage and run nothing.
    Help,
    /// An unknown, repeated or malformed flag, or a stray argument; the
    /// message names it.
    Bad(String),
}

/// A command line checked against one binary's [`Flag`] list.
#[derive(Debug)]
pub struct Cli {
    flags: &'static [Flag],
    given: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Parses `args` (without the program name) against `flags`. Every
    /// flag may appear at most once; values are checked here, so the
    /// accessors never fail on input.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] if `--help` appears anywhere, otherwise
    /// [`CliError::Bad`] naming the first unknown, repeated or malformed
    /// flag or stray argument.
    pub fn parse(flags: &'static [Flag], args: &[String]) -> Result<Cli, CliError> {
        if args.iter().any(|a| a == "--help") {
            return Err(CliError::Help);
        }
        let bad = |msg: String| Err(CliError::Bad(msg));
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let Some(&Flag {
                name, arg: kind, ..
            }) = flags.iter().find(|f| f.name == arg)
            else {
                return if arg.starts_with('-') {
                    bad(format!("unknown flag `{arg}`"))
                } else {
                    bad(format!("unexpected argument `{arg}`"))
                };
            };
            if given.iter().any(|(n, _)| *n == name) {
                return bad(format!("flag `{arg}` given twice"));
            }
            let value = match kind {
                Arg::Switch => None,
                _ => {
                    let Some(v) = rest.next().filter(|v| !v.starts_with("--")) else {
                        return bad(format!("flag `{arg}` needs {}", describe(kind)));
                    };
                    let valid = match kind {
                        Arg::Count => v.parse::<u32>().is_ok_and(|n| n >= 1),
                        Arg::OneOf(words) => words.contains(&v.as_str()),
                        Arg::Switch | Arg::Path => true,
                    };
                    if !valid {
                        return bad(format!("flag `{arg}` needs {}, got `{v}`", describe(kind)));
                    }
                    Some(v.clone())
                }
            };
            given.push((name, value));
        }
        Ok(Cli { flags, given })
    }

    /// Parses the process's command line. On `--help` prints the usage
    /// to stdout and exits 0; on a bad command line prints the error
    /// and the usage to stderr and exits 2.
    pub fn from_env(about: &str, flags: &'static [Flag]) -> Cli {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let bin = std::path::Path::new(&program)
            .file_name()
            .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
        let args: Vec<String> = args.collect();
        match Cli::parse(flags, &args) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                println!("{}", usage(&bin, about, flags));
                std::process::exit(0);
            }
            Err(CliError::Bad(msg)) => {
                eprintln!("{bin}: {msg}\n\n{}", usage(&bin, about, flags));
                std::process::exit(2);
            }
        }
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value given to `name` (a path or a word), if the flag was
    /// given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name).and_then(Option::as_deref)
    }

    /// The positive integer given to `name`, if the flag was given.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.value(name)
            .map(|v| v.parse().expect("counts are validated by `parse`"))
    }

    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        assert!(
            self.flags.iter().any(|f| f.name == name),
            "flag `{name}` is not declared by this binary"
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

fn describe(arg: Arg) -> String {
    match arg {
        Arg::Switch => String::new(),
        Arg::Path => "a PATH".to_owned(),
        Arg::Count => "a positive integer N".to_owned(),
        Arg::OneOf(words) => format!("one of {}", words.join("|")),
    }
}

/// The usage text of binary `bin`: a synopsis, `about`, and one line
/// per flag (plus `--help`).
pub fn usage(bin: &str, about: &str, flags: &[Flag]) -> String {
    let metavar = |&Flag { name, arg, .. }: &Flag| match arg {
        Arg::Switch => name.to_owned(),
        Arg::Path => format!("{name} PATH"),
        Arg::Count => format!("{name} N"),
        Arg::OneOf(words) => format!("{name} {}", words.join("|")),
    };
    let mut out = format!("usage: {bin}");
    for f in flags {
        out += &format!(" [{}]", metavar(f));
    }
    out += &format!("\n\n{about}\n\n");
    for f in flags {
        out += &format!("  {:<24} {}\n", metavar(f), f.help);
    }
    out += &format!("  {:<24} print this message and run nothing", "--help");
    out
}

/// Default worker count for the binaries whose `--threads` fans whole
/// independent jobs (syntheses, fleet batches) across a pool: the
/// machine's available parallelism, capped at 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(8)
}

/// Prints a titled rule-delimited section.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints any row sequence, one `Display` per line.
pub fn print_rows<T: Display>(rows: &[T]) {
    for row in rows {
        println!("{row}");
    }
}

/// A quick textual bar for ASCII charts, scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag {
            name: "--check",
            arg: Arg::Switch,
            help: "enforce the bars",
        },
        Flag {
            name: "--json",
            arg: Arg::Path,
            help: "write a JSON baseline",
        },
        Flag {
            name: "--threads",
            arg: Arg::Count,
            help: "worker threads",
        },
        Flag {
            name: "--sweep",
            arg: Arg::OneOf(&["length", "sim"]),
            help: "which sweep",
        },
    ];

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::parse(FLAGS, &args)
    }

    /// The error message of a rejected command line.
    fn rejection(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Bad(msg)) => msg,
            other => panic!("{args:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn parses_declared_flags() {
        let cli = parse(&["--json", "out.json", "--check", "--threads", "3"]).unwrap();
        assert!(cli.switch("--check"));
        assert_eq!(cli.value("--json"), Some("out.json"));
        assert_eq!(cli.count("--threads"), Some(3));
        assert_eq!(cli.value("--sweep"), None);
        let empty = parse(&[]).unwrap();
        assert!(!empty.switch("--check"));
        assert_eq!(empty.count("--threads"), None);
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert_eq!(parse(&["--check", "--help"]).unwrap_err(), CliError::Help);
        assert_eq!(parse(&["--bogus", "--help"]).unwrap_err(), CliError::Help);
        let text = usage("e7", "About.", FLAGS);
        assert!(
            text.starts_with("usage: e7 [--check] [--json PATH]"),
            "{text}"
        );
        assert!(
            text.contains("--threads N") && text.contains("--help"),
            "{text}"
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(rejection(&["--bogus"]).contains("`--bogus`"));
        assert!(rejection(&["--check", "stray"]).contains("`stray`"));
    }

    #[test]
    fn rejects_repeated_flags() {
        assert!(rejection(&["--check", "--check"]).contains("`--check` given twice"));
        assert!(rejection(&["--json", "a", "--json", "b"]).contains("`--json` given twice"));
    }

    #[test]
    fn rejects_missing_values() {
        assert!(rejection(&["--json"]).contains("`--json` needs a PATH"));
        assert!(rejection(&["--json", "--check"]).contains("`--json` needs a PATH"));
    }

    #[test]
    fn rejects_malformed_counts() {
        assert!(rejection(&["--threads", "0"]).contains("`--threads`"));
        assert!(rejection(&["--threads", "x"]).contains("got `x`"));
        assert!(rejection(&["--threads", "-2"]).contains("`--threads`"));
    }

    #[test]
    fn rejects_words_outside_the_set() {
        let msg = rejection(&["--sweep", "ports"]);
        assert!(
            msg.contains("one of length|sim") && msg.contains("got `ports`"),
            "{msg}"
        );
    }

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
