//! # lis-bench — the reproduction harness
//!
//! One binary, `reproduce`, regenerates the tables, figures and
//! experiments of Bomel et al. (DATE 2005), one artifact per call:
//! `table1`, `fig1_fig2`, `scaling` (E3/E4), `e5`, `e6`, `e7`, `fleet`
//! and `verify`. The README's experiment sections describe each one,
//! and `BENCH_<artifact>.json` at the repository root holds its
//! recorded report, in the one schema of [`report`]. [`reproduce`]
//! parses the command line, writes reports and enforces `--check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use serde::{Serialize, Value};
use std::fmt::Display;
use std::process::ExitCode;

/// The most worker threads (or verify twins) `--threads` accepts.
pub const MAX_THREADS: u32 = 64;

/// What a command-line flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Nothing: a bare switch such as `--check`.
    Switch,
    /// A file or directory path.
    Path,
    /// A positive integer that fits in 32 bits.
    Count,
    /// A thread count from 1 to [`MAX_THREADS`].
    Threads,
    /// One word out of a fixed set.
    OneOf(&'static [&'static str]),
}

/// One flag an artifact accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--json`.
    pub name: &'static str,
    /// What follows the flag.
    pub arg: Arg,
    /// One line for the usage text.
    pub help: &'static str,
}

/// The `--json` flag every artifact with a baseline takes.
pub const JSON: Flag = Flag {
    name: "--json",
    arg: Arg::Path,
    help: "write the report as JSON (the recorded one is BENCH_<artifact>.json)",
};

/// The `--check` flag every artifact with a baseline takes.
pub const CHECK: Flag = Flag {
    name: "--check",
    arg: Arg::Switch,
    help: "enforce the bars and compare the stable section with BENCH_<artifact>.json",
};

/// The `--threads` flag of the artifacts that fan whole jobs across a
/// pool.
pub const THREADS: Flag = Flag {
    name: "--threads",
    arg: Arg::Threads,
    help: "pool workers fanning out whole jobs (default: cores, at most 8)",
};

/// A command line checked against one artifact's [`Flag`] list.
#[derive(Debug)]
pub struct Cli {
    given: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Parses `args` (the flags after the artifact's name) against
    /// `flags`. Every flag may appear at most once; values are checked
    /// here, so the accessors never fail on input.
    ///
    /// # Errors
    ///
    /// Names the first unknown, repeated or malformed flag or stray
    /// argument.
    pub fn parse(flags: &'static [Flag], args: &[String]) -> Result<Cli, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let Some(&Flag {
                name, arg: kind, ..
            }) = flags.iter().find(|f| f.name == arg)
            else {
                return Err(if arg.starts_with('-') {
                    format!("unknown flag `{arg}`")
                } else {
                    format!("unexpected argument `{arg}`")
                });
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("flag `{arg}` given twice"));
            }
            let value = match kind {
                Arg::Switch => None,
                _ => {
                    let Some(v) = rest.next().filter(|v| !v.starts_with("--")) else {
                        return Err(format!("flag `{arg}` needs {}", describe(kind)));
                    };
                    let valid = match kind {
                        Arg::Count => v.parse::<u32>().is_ok_and(|n| n >= 1),
                        Arg::Threads => v
                            .parse::<u32>()
                            .is_ok_and(|n| (1..=MAX_THREADS).contains(&n)),
                        Arg::OneOf(words) => words.contains(&v.as_str()),
                        Arg::Switch | Arg::Path => true,
                    };
                    if !valid {
                        return Err(format!("flag `{arg}` needs {}, got `{v}`", describe(kind)));
                    }
                    Some(v.clone())
                }
            };
            given.push((name, value));
        }
        Ok(Cli { given })
    }

    /// Whether the flag `name` was given.
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
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

fn describe(arg: Arg) -> String {
    match arg {
        Arg::Switch => String::new(),
        Arg::Path => "a PATH".to_owned(),
        Arg::Count => "a positive integer N".to_owned(),
        Arg::Threads => format!("a thread count N from 1 to {MAX_THREADS}"),
        Arg::OneOf(words) => format!("one of {}", words.join("|")),
    }
}

/// The usage text of command `bin`: a synopsis, `about`, and one line
/// per flag (plus `--help`).
fn usage(bin: &str, about: &str, flags: &[Flag]) -> String {
    let metavar = |&Flag { name, arg, .. }: &Flag| match arg {
        Arg::Switch => name.to_owned(),
        Arg::Path => format!("{name} PATH"),
        Arg::Count | Arg::Threads => format!("{name} N"),
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

/// One table, figure or experiment `reproduce` regenerates.
#[derive(Debug)]
pub struct Artifact {
    /// The name it is run by, also naming its baseline `BENCH_<name>.json`.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// The flags it accepts; it has a baseline if they include [`CHECK`].
    pub flags: &'static [Flag],
    /// Names the flags that contradict each other, if any do.
    pub refuse: fn(&Cli) -> Result<(), String>,
    /// Runs it, printing its tables, and returns its report as one tree
    /// plus the bars `--check` enforces besides the drift comparison.
    pub run: fn(&Cli) -> (Value, Vec<Bar>),
}

/// One `--check` bar: whether the run meets it, and what it demands and
/// measured.
#[derive(Debug)]
pub struct Bar(pub bool, pub String);

impl Bar {
    /// The bar `value >= min`, reported with its margin.
    pub fn at_least(what: &str, value: f64, min: f64) -> Bar {
        let what = format!("{what} >= {min}: {value:.2} (margin {:+.2})", value - min);
        Bar(value >= min, what)
    }
}

/// A report object with `fields` in order.
pub fn object(fields: &[(&str, &dyn Serialize)]) -> Value {
    let fields = fields.iter().map(|(k, v)| ((*k).to_owned(), v.to_value()));
    Value::Object(fields.collect())
}

/// Reads `args` (without the program name) as `<artifact> [flags]`.
///
/// # Errors
///
/// The exit status and the text to print instead of running: 0 and the
/// usage when `--help` appears anywhere (it wins over everything else),
/// 2 and the refusal followed by the usage for a bad command line.
pub fn command<'a>(
    artifacts: &'a [Artifact],
    args: &[String],
) -> Result<(&'a Artifact, Cli), (u8, String)> {
    let mut overview = "usage: reproduce <artifact> [flags]\n\n\
         Regenerates one table, figure or experiment of Bomel et al. (DATE 2005).\n\n"
        .to_owned();
    for a in artifacts {
        overview += &format!("  {:<10} {}\n", a.name, a.about);
    }
    overview += "\n`reproduce <artifact> --help` lists the artifact's flags.";
    let help = args.iter().any(|a| a == "--help");
    let Some(artifact) = args
        .first()
        .and_then(|name| artifacts.iter().find(|a| a.name == name))
    else {
        return Err(match args.first() {
            _ if help => (0, overview),
            None => (2, format!("name an artifact\n\n{overview}")),
            Some(name) => (2, format!("unknown artifact `{name}`\n\n{overview}")),
        });
    };
    let name = format!("reproduce {}", artifact.name);
    let usage = usage(&name, artifact.about, artifact.flags).replace("<artifact>", artifact.name);
    if help {
        return Err((0, usage));
    }
    let cli = Cli::parse(artifact.flags, &args[1..]).and_then(|cli| {
        (artifact.refuse)(&cli)?;
        Ok((artifact, cli))
    });
    cli.map_err(|msg| (2, format!("{msg}\n\n{usage}")))
}

/// The `reproduce` binary: runs the artifact the process's command
/// line names, writes its report to `--json`, and under `--check`
/// reports every bar plus the drift comparison with
/// `BENCH_<artifact>.json`. Exits 2 on a refused command line and 1 on
/// a failed check.
pub fn reproduce(artifacts: &[Artifact]) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (artifact, cli) = match command(artifacts, &args) {
        Ok(run) => run,
        Err((0, usage)) => {
            println!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err((status, refusal)) => {
            eprintln!("reproduce: {refusal}");
            return ExitCode::from(status);
        }
    };
    // Read before the run, so a `--json` naming the baseline itself
    // cannot hide drift.
    let baseline = format!("BENCH_{}.json", artifact.name);
    let recorded = cli
        .switch("--check")
        .then(|| std::fs::read_to_string(&baseline));
    let (report, mut bars) = (artifact.run)(&cli);
    let json = report::to_json(&report);
    if let Some(path) = cli.value("--json") {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("reproduce: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    let Some(recorded) = recorded else {
        return ExitCode::SUCCESS;
    };
    let drift = match recorded {
        Ok(recorded) => report::drift(&recorded, &json)
            .map_err(|at| format!("stable section drifted from {baseline}: {at}")),
        Err(e) => Err(format!("cannot read ./{baseline}: {e}")),
    };
    let matches = format!("stable section matches {baseline}");
    bars.push(Bar(drift.is_ok(), drift.err().unwrap_or(matches)));
    section("Check");
    for Bar(holds, what) in &bars {
        println!("{} {what}", if *holds { "pass" } else { "FAIL" });
    }
    let failed = bars.iter().filter(|Bar(holds, _)| !holds).count();
    if failed > 0 {
        println!("--check FAILED: {failed} of {} bars", bars.len());
        return ExitCode::FAILURE;
    }
    println!("--check passed: all {} bars", bars.len());
    ExitCode::SUCCESS
}

/// The default of [`THREADS`]: the machine's available parallelism,
/// capped at 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(8)
}

/// Prints a titled rule-delimited section.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
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
        CHECK,
        JSON,
        Flag {
            name: "--threads",
            arg: Arg::Threads,
            help: "worker threads",
        },
        Flag {
            name: "--sweep",
            arg: Arg::OneOf(&["length", "sim"]),
            help: "which sweep",
        },
        Flag {
            name: "--depth",
            arg: Arg::Count,
            help: "depth bound",
        },
    ];

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::parse(FLAGS, &args)
    }

    /// The error message of a rejected command line.
    fn rejection(args: &[&str]) -> String {
        match parse(args) {
            Err(msg) => msg,
            Ok(cli) => panic!("{args:?} must be rejected, got {cli:?}"),
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
        let deep = parse(&["--depth", "100000", "--threads", "64"]).unwrap();
        assert_eq!(deep.count("--depth"), Some(100_000));
        assert_eq!(deep.count("--threads"), Some(64));
    }

    #[test]
    fn help_wins_over_everything_else() {
        const ARTIFACTS: &[Artifact] = &[Artifact {
            name: "e7",
            about: "About.",
            flags: FLAGS,
            refuse: |_| Err("contradiction".to_owned()),
            run: |_| unreachable!("help runs nothing"),
        }];
        let help = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            match command(ARTIFACTS, &args) {
                Err((0, text)) => text,
                other => panic!("{args:?} must print help, got {other:?}"),
            }
        };
        let text = help(&["e7", "--check", "--help"]);
        assert!(
            text.starts_with("usage: reproduce e7 [--check] [--json PATH]"),
            "{text}"
        );
        assert!(
            text.contains("--threads N") && text.contains("BENCH_e7.json"),
            "{text}"
        );
        assert_eq!(help(&["e7", "--bogus", "--help"]), text);
        assert!(help(&["bogus", "--help"]).starts_with("usage: reproduce <artifact>"));
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
        assert!(rejection(&["--depth", "0"]).contains("`--depth` needs a positive integer"));
        let msg = rejection(&["--threads", "65"]);
        assert!(
            msg.contains("from 1 to 64") && msg.contains("got `65`"),
            "{msg}"
        );
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
