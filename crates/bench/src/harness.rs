//! The command line and the finishing step shared by the bench gate
//! binaries (`perfbase`, `chaosbench`, `fleetbench`, `adaptbench`).
//!
//! Each binary declares a [`Cli`]. [`Cli::args`] parses the command line in
//! one pass before any work starts: `--help` prints the usage and exits 0;
//! an unknown flag, a missing value, a value that starts with `--`, an
//! unparsable number or a zero count prints the problem and exits 2.
//! [`Cli::finish`] writes the baseline JSON, reads the file back, validates
//! the re-read document and applies the gate, exiting 1 on any failure.

use std::process::ExitCode;

use serde::{Deserialize, Serialize};

/// What a bench binary accepts: `--smoke`, `--out <PATH>`, `-h`/`--help`
/// and its own [`Flag`]s.
pub struct Cli {
    /// Binary name: the usage heading and the prefix of every error line.
    pub bin: &'static str,
    /// What the binary measures, for the usage text and the run banner.
    pub about: &'static str,
    /// Default `--out` path.
    pub out: &'static str,
    /// Help text of `--smoke`.
    pub smoke: &'static str,
    /// The binary's own value-taking flags, in usage order.
    pub flags: &'static [Flag],
    /// The gate that exit code 0 vouches for ("the exactly-once gate").
    pub gate: &'static str,
}

/// One value-taking flag of a [`Cli`].
pub struct Flag {
    name: &'static str,
    help: &'static str,
    kind: Kind,
}

enum Kind {
    /// At least 1; the defaults of a full and of a smoke run.
    Count(u64, u64),
    /// Any `u64`, 0 included; the default.
    Seed(u64),
    /// Repeatable; every value must be one of these.
    Names(&'static [&'static str]),
}

impl Flag {
    /// A count of at least 1, defaulting to `full`, or to `smoke` under
    /// `--smoke`.
    pub const fn count(name: &'static str, help: &'static str, full: u64, smoke: u64) -> Flag {
        Flag {
            name,
            help,
            kind: Kind::Count(full, smoke),
        }
    }

    /// A seed: any `u64`, 0 included.
    pub const fn seed(name: &'static str, help: &'static str, default: u64) -> Flag {
        Flag {
            name,
            help,
            kind: Kind::Seed(default),
        }
    }

    /// A flag that may be repeated, each value one of `valid`.
    pub const fn names(
        name: &'static str,
        help: &'static str,
        valid: &'static [&'static str],
    ) -> Flag {
        Flag {
            name,
            help,
            kind: Kind::Names(valid),
        }
    }
}

/// Why [`Cli::parse`] returned no [`Args`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// `-h` or `--help`: print the usage and exit 0.
    Help,
    /// A malformed command line: print this and the usage, exit 2.
    Usage(String),
}

/// A parsed command line.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// The output path: `--out`, else [`Cli::out`].
    pub out: String,
    numbers: Vec<(&'static str, u64)>,
    names: Vec<(&'static str, String)>,
}

impl Args {
    /// The value of the count or seed flag `flag`: the last one given, else
    /// its default.
    ///
    /// # Panics
    ///
    /// Panics if the [`Cli`] declared no count or seed flag `flag`: a bug
    /// in the calling binary.
    pub fn number(&self, flag: &str) -> u64 {
        match self.numbers.iter().rev().find(|(name, _)| *name == flag) {
            Some(&(_, value)) => value,
            // lint: allow(PANIC_IN_LIB) -- only a binary asking for a flag it never declared gets here
            None => panic!("{flag} is not a declared count or seed flag"),
        }
    }

    /// Every value given to the repeatable flag `flag`, in order.
    pub fn names(&self, flag: &str) -> Vec<&str> {
        let given = self.names.iter().filter(|(name, _)| *name == flag);
        given.map(|(_, value)| value.as_str()).collect()
    }
}

impl Cli {
    /// Parse the process's command line, or end the process: with exit
    /// code 0 after printing the usage for `--help`, with exit code 2 after
    /// printing the problem and the usage for a malformed command line.
    pub fn args(&self) -> Args {
        match self.parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(Stop::Help) => {
                println!("{}", self.usage());
                std::process::exit(0)
            }
            Err(Stop::Usage(problem)) => {
                eprintln!("{}: {problem}\n\n{}", self.bin, self.usage());
                std::process::exit(2)
            }
        }
    }

    /// Parse `tokens`, the command line without the program name, reading
    /// each token exactly once.
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] at `-h`/`--help`; [`Stop::Usage`] at the first
    /// malformed token.
    pub(crate) fn parse(&self, tokens: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
        let usage = |problem: String| Err(Stop::Usage(problem));
        let mut args = Args {
            smoke: false,
            out: self.out.to_string(),
            numbers: Vec::new(),
            names: Vec::new(),
        };
        let mut tokens = tokens.into_iter();
        while let Some(token) = tokens.next() {
            match token.as_str() {
                "-h" | "--help" => return Err(Stop::Help),
                "--smoke" => {
                    args.smoke = true;
                    continue;
                }
                _ => {}
            }
            let flag = self.flags.iter().find(|f| f.name == token);
            if flag.is_none() && token != "--out" {
                return usage(format!("unknown flag {token:?}"));
            }
            let value = match tokens.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => return usage(format!("flag {token} is missing its value")),
            };
            let Some(flag) = flag else {
                args.out = value;
                continue;
            };
            if let Kind::Names(valid) = flag.kind {
                if !valid.contains(&value.as_str()) {
                    let valid = valid.join(", ");
                    return usage(format!(
                        "flag {token}: unknown name {value:?}; valid: {valid}"
                    ));
                }
                args.names.push((flag.name, value));
                continue;
            }
            let Ok(number) = value.parse::<u64>() else {
                return usage(format!("flag {token}: {value:?} is not a whole number"));
            };
            if number == 0 && matches!(flag.kind, Kind::Count(..)) {
                return usage(format!("flag {token} must be at least 1"));
            }
            args.numbers.push((flag.name, number));
        }
        for flag in self.flags {
            let default = match flag.kind {
                Kind::Count(_, smoke) if args.smoke => smoke,
                Kind::Count(full, _) | Kind::Seed(full) => full,
                Kind::Names(_) => continue,
            };
            if !args.numbers.iter().any(|(name, _)| *name == flag.name) {
                args.numbers.push((flag.name, default));
            }
        }
        Ok(args)
    }

    /// The `--help` text, generated from the declaration.
    fn usage(&self) -> String {
        let row = |head: &str, help: &str| format!("\n    {head:<18}{help}");
        let (bin, out) = (self.bin, self.out);
        let mut text = format!(
            "{bin} — {} (writes {out})\n\nUSAGE:\n    {bin} [OPTIONS]\n\nOPTIONS:",
            self.about
        );
        text += &row("--smoke", self.smoke);
        text += &row(
            "--out <PATH>",
            &format!("output JSON path (default: {out})"),
        );
        for flag in self.flags {
            let (value, default) = match flag.kind {
                Kind::Count(full, smoke) => ("<N>", format!("default: {full}, smoke: {smoke}")),
                Kind::Seed(seed) => ("<N>", format!("default: {seed:#X}")),
                Kind::Names(valid) => (
                    "<NAME>",
                    format!("repeatable; one of: {}", valid.join(", ")),
                ),
            };
            text += &row(
                &format!("{} {value}", flag.name),
                &format!("{} ({default})", flag.help),
            );
        }
        text += &row("-h, --help", "print this help and exit");
        text + &format!(
            "\n\nEXIT CODES:\n    0  baseline written and {} passed\n    \
             1  gate failed or the run errored\n    2  unknown flag or malformed invocation",
            self.gate
        )
    }

    /// Print the run banner (`== bin: about (smoke|full) ==` and the core
    /// count) and return the core count.
    pub fn banner(&self, smoke: bool) -> usize {
        let mode = if smoke { "smoke" } else { "full" };
        println!("== {}: {} ({mode}) ==", self.bin, self.about);
        let cores = available_cores();
        println!("available parallelism: {cores} core(s)");
        cores
    }

    /// Write `doc` to `out`, read the file back, run `validate` and then
    /// `gate` on the re-read document, and print `gate`'s summary line, or
    /// the first failure on stderr. Returns success only if every step
    /// passed.
    pub fn finish<T: Serialize + Deserialize>(
        &self,
        out: &str,
        doc: &T,
        schema: &str,
        validate: impl FnOnce(&T) -> Result<(), String>,
        gate: impl FnOnce(&T) -> Result<String, String>,
    ) -> ExitCode {
        let checked = write_json(out, doc).and_then(|()| {
            let written =
                std::fs::read_to_string(out).map_err(|e| format!("cannot read {out} back: {e}"))?;
            let parsed: T = serde_json::from_str(&written)
                .map_err(|e| format!("written JSON does not parse: {e}"))?;
            validate(&parsed).map_err(|e| format!("schema validation failed: {e}"))?;
            println!("schema validation: ok ({schema})");
            gate(&parsed)
        });
        match checked {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(problem) => {
                eprintln!("{}: {problem}", self.bin);
                ExitCode::FAILURE
            }
        }
    }
}

/// Write `doc` to `out` as pretty JSON and say so.
///
/// # Errors
///
/// Describes a serialization or write failure.
pub fn write_json<T: Serialize>(out: &str, doc: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(doc).map_err(|e| format!("cannot serialize: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(())
}

/// Cores visible to this process (1 if the runtime cannot tell).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of a latency sample in
/// microseconds. Sorts a copy; fine at bench sample sizes.
///
/// # Panics
///
/// Panics on an empty sample or a `q` outside `[0, 1]` — both are harness
/// bugs, not measurement outcomes.
pub fn percentile_micros(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside [0, 1]"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The checks every baseline schema opens with: the schema identifier is
/// `expected`, and at least one core was visible.
///
/// # Errors
///
/// Describes the first violation.
pub(crate) fn check_header(schema: &str, expected: &str, cores: usize) -> Result<(), String> {
    if schema != expected {
        return Err(format!("schema is {schema:?}, expected {expected:?}"));
    }
    if cores == 0 {
        return Err("available_parallelism must be >= 1".into());
    }
    Ok(())
}

/// Latency percentiles are positive, finite and ordered.
///
/// # Errors
///
/// Describes the first violation.
pub(crate) fn check_percentiles(p50: f64, p99: f64) -> Result<(), String> {
    for (field, value) in [("p50_micros", p50), ("p99_micros", p99)] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(format!("{field} {value} not positive finite"));
        }
    }
    if p50 > p99 {
        return Err(format!("percentiles out of order (p50 {p50} / p99 {p99})"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        bin: "testbench",
        about: "a test harness",
        out: "BENCH_TEST.json",
        smoke: "quick run",
        flags: &[
            Flag::count("--requests", "requests per client", 200, 50),
            Flag::seed("--seed", "fault schedule seed", 0xCA05),
            Flag::names("--section", "run only this section", &["alpha", "beta"]),
        ],
        gate: "the test gate",
    };

    fn parse(line: &str) -> Result<Args, Stop> {
        CLI.parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_follow_the_mode() {
        let full = parse("").unwrap();
        assert!(!full.smoke);
        assert_eq!(full.out, "BENCH_TEST.json");
        assert_eq!(full.number("--requests"), 200);
        assert_eq!(full.number("--seed"), 0xCA05);
        assert!(full.names("--section").is_empty());
        let smoke = parse("--smoke").unwrap();
        assert_eq!((smoke.smoke, smoke.number("--requests")), (true, 50));
        let given = parse("--requests 7 --out x.json --seed 0 --smoke").unwrap();
        assert_eq!(
            (given.number("--requests"), given.out.as_str()),
            (7, "x.json")
        );
        assert_eq!(given.number("--seed"), 0, "0 is a valid seed");
    }

    #[test]
    fn help_stops_parsing_and_usage_lists_every_flag() {
        assert_eq!(parse("--help"), Err(Stop::Help));
        assert_eq!(parse("--smoke --requests 3 -h"), Err(Stop::Help));
        let usage = CLI.usage();
        for needle in [
            "testbench — a test harness (writes BENCH_TEST.json)",
            "--requests <N>    requests per client (default: 200, smoke: 50)",
            "(default: 0xCA05)",
            "--section <NAME>",
            "repeatable; one of: alpha, beta",
            "the test gate passed",
        ] {
            assert!(usage.contains(needle), "usage lacks {needle:?}:\n{usage}");
        }
    }

    #[test]
    fn section_repeats_in_order() {
        let args = parse("--section beta --smoke --section alpha").unwrap();
        assert_eq!(args.names("--section"), ["beta", "alpha"]);
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        for (line, problem) in [
            ("--definitely-not-a-flag", "unknown flag"),
            ("--smok", "unknown flag \"--smok\""),
            ("--smoke stray", "unknown flag \"stray\""),
            ("--out", "--out is missing its value"),
            ("--smoke --requests", "--requests is missing its value"),
            ("--section", "--section is missing its value"),
            ("--out --smoke", "--out is missing its value"),
            ("--requests --seed 3", "--requests is missing its value"),
            ("--section --smoke", "--section is missing its value"),
            ("--smoke --requests abc", "\"abc\" is not a whole number"),
            ("--requests -3", "is not a whole number"),
            ("--requests 1.5", "is not a whole number"),
            ("--seed abc", "--seed: \"abc\" is not a whole number"),
            ("--smoke --requests 0", "--requests must be at least 1"),
            ("--section gamma", "unknown name \"gamma\"; valid: alpha"),
        ] {
            match parse(line) {
                Err(Stop::Usage(got)) => assert!(got.contains(problem), "{line:?}: {got:?}"),
                other => panic!("{line:?} should be a usage error, got {other:?}"),
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Doc {
        schema: String,
        answered: u64,
    }

    fn finish(name: &str, doc: &Doc) -> ExitCode {
        let dir = std::env::temp_dir().join(format!("cqm_harness_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("doc.json");
        let code = CLI.finish(
            out.to_str().unwrap(),
            doc,
            "test/v1",
            |d: &Doc| check_header(&d.schema, "test/v1", 1),
            |d: &Doc| match d.answered {
                0 => Err("test gate failed: nothing answered".into()),
                _ => Ok("test gate: ok".into()),
            },
        );
        std::fs::remove_dir_all(&dir).unwrap();
        code
    }

    #[test]
    fn finish_passes_only_a_document_that_validates_and_gates() {
        let good = Doc {
            schema: "test/v1".into(),
            answered: 10,
        };
        assert_eq!(finish("good", &good), ExitCode::SUCCESS);
        let other = Doc {
            schema: "other/v0".into(),
            ..good.clone()
        };
        assert_eq!(finish("invalid", &other), ExitCode::FAILURE);
        let silent = Doc {
            answered: 0,
            ..good
        };
        assert_eq!(finish("gated", &silent), ExitCode::FAILURE);
    }

    #[test]
    fn shared_checks_keep_their_texts() {
        let header = |schema, cores| check_header(schema, "test/v1", cores).unwrap_err();
        assert_eq!(header("v0", 1), "schema is \"v0\", expected \"test/v1\"");
        assert_eq!(header("test/v1", 0), "available_parallelism must be >= 1");
        assert_eq!(check_percentiles(400.0, 9000.0), Ok(()));
        assert_eq!(
            check_percentiles(0.0, 1.0).unwrap_err(),
            "p50_micros 0 not positive finite"
        );
        assert_eq!(
            check_percentiles(10_000.0, 9000.0).unwrap_err(),
            "percentiles out of order (p50 10000 / p99 9000)"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        let rank = |samples: &[f64], p: f64| percentile_micros(samples, p).to_bits();
        assert_eq!(rank(&samples, 0.5), 3.0f64.to_bits());
        assert_eq!(rank(&samples, 0.0), 1.0f64.to_bits());
        assert_eq!(rank(&samples, 1.0), 5.0f64.to_bits());
        assert_eq!(rank(&samples, 0.99), 5.0f64.to_bits());
        assert_eq!(rank(&[7.5], 0.5), 7.5f64.to_bits());
    }
}
