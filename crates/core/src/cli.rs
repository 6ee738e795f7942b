//! The one front end of the eight binaries: an argument cursor whose
//! every token is either consumed or a usage error, the four exit codes,
//! and the one place an error becomes a message and a code.
//!
//! A tool's `parse(Args)` takes its flags, then its positionals, then
//! calls [`Args::finish`]; whatever it did not take — a misspelled flag,
//! a surplus positional — is a usage error there, never a silent default.

use std::process::ExitCode;
use std::str::FromStr;

/// Nothing to report.
pub const EXIT_OK: u8 = 0;
/// The tool could not do its work (I/O, unusable data).
pub const EXIT_ERROR: u8 = 1;
/// The command line is not one the tool reads.
pub const EXIT_USAGE: u8 = 2;
/// The tool ran and found what it looks for (diagnostics, drift, a
/// failed `--check`).
pub const EXIT_FINDINGS: u8 = 4;

/// The code of a run that completed: [`EXIT_FINDINGS`] if it found what
/// it looks for, else [`EXIT_OK`].
pub fn findings(found: bool) -> u8 {
    if found {
        EXIT_FINDINGS
    } else {
        EXIT_OK
    }
}

/// Why a tool stops early; [`run`] prints it and picks the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `--help`: exit 0 with this text on stdout.
    Help(&'static str),
    /// Exit 2, printed above the usage text.
    Usage(String),
    /// Exit 1.
    Failed(String),
}

impl Error {
    pub fn usage(message: impl Into<String>) -> Error {
        Error::Usage(message.into())
    }

    /// The usage error for a name the tool has no meaning for: an
    /// `"option"`, a `"subcommand"`, a `"scope"`.
    pub fn unknown(kind: &str, name: &str) -> Error {
        Error::usage(format!("unknown {kind} {name:?}"))
    }
}

impl From<String> for Error {
    fn from(message: String) -> Error {
        Error::Failed(message)
    }
}

impl From<&str> for Error {
    fn from(message: &str) -> Error {
        Error::Failed(message.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Failed(e.to_string())
    }
}

/// The arguments not yet taken, in command-line order.
pub struct Args(Vec<String>);

/// `--flag` and `-h` are options; a lone `-` is a positional.
fn is_option(arg: &str) -> bool {
    arg.len() > 1 && arg.starts_with('-')
}

impl Args {
    /// The process's arguments after the program name.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// A command line split on whitespace (what the tools' tests feed
    /// their `parse`).
    pub fn of(line: &str) -> Args {
        Args(line.split_whitespace().map(String::from).collect())
    }

    /// Take every occurrence of the switch `name`; was there one?
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() < before
    }

    /// Take `-h` / `--help`: either one ends the parse as [`Error::Help`].
    pub fn help(&mut self, text: &'static str) -> Result<(), Error> {
        match self.flag("-h") | self.flag("--help") {
            true => Err(Error::Help(text)),
            false => Ok(()),
        }
    }

    /// Take `name VALUE`. `name` as the last argument, or given twice,
    /// is a usage error.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, Error> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 == self.0.len() {
            return Err(Error::usage(format!("{name} needs a value")));
        }
        let value = self.0.drain(at..at + 2).nth(1);
        if self.0.iter().any(|a| a == name) {
            return Err(Error::usage(format!("{name} given more than once")));
        }
        Ok(value)
    }

    /// Take `name VALUE` and parse the value; `what` names the expected
    /// form in the error ("a factor", "a run sequence number").
    pub fn parsed<T: FromStr>(&mut self, name: &str, what: &str) -> Result<Option<T>, Error> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(parsed) => Ok(Some(parsed)),
                Err(_) => Err(Error::usage(format!("{name} needs {what}, got {v:?}"))),
            },
        }
    }

    /// Take `name N` where `N` is an integer of at least 1.
    pub fn positive<T: FromStr + PartialEq + From<u8>>(
        &mut self,
        name: &str,
    ) -> Result<Option<T>, Error> {
        match self.parsed::<T>(name, "a positive integer")? {
            Some(zero) if zero == T::from(0) => Err(Error::usage(format!(
                "{name} needs a positive integer, got 0"
            ))),
            n => Ok(n),
        }
    }

    /// Take the first argument as the subcommand.
    pub fn subcommand(&mut self) -> Result<String, Error> {
        match self.0.first() {
            Some(first) if !is_option(first) => Ok(self.0.remove(0)),
            _ => Err(Error::usage("the first argument must be a subcommand")),
        }
    }

    /// Take the next positional. Call after the flags: an option still
    /// here is one the tool does not read.
    pub fn positional(&mut self) -> Result<Option<String>, Error> {
        match self.0.first() {
            None => Ok(None),
            Some(first) if is_option(first) => Err(Error::unknown("option", first)),
            Some(_) => Ok(Some(self.0.remove(0))),
        }
    }

    /// Every argument must have been taken by now.
    pub fn finish(mut self) -> Result<(), Error> {
        match self.positional()? {
            Some(extra) => Err(Error::usage(format!("unexpected argument {extra:?}"))),
            None => Ok(()),
        }
    }
}

/// The tools' one table test: `parse` reads every `|`-separated command
/// line of `ok` (or answers it with help) and calls every one of `bad` a
/// usage error.
pub fn check_parse<T>(parse: impl Fn(Args) -> Result<T, Error>, ok: &str, bad: &str) {
    for line in ok.split('|') {
        let parsed = parse(Args::of(line));
        assert!(
            matches!(parsed, Ok(_) | Err(Error::Help(_))),
            "{line:?} must parse"
        );
    }
    for line in bad.split('|') {
        let parsed = parse(Args::of(line));
        assert!(
            matches!(parsed, Err(Error::Usage(_))),
            "{line:?} must be a usage error"
        );
    }
}

/// A tool's `main`: hand `body` the arguments, exit with the code it
/// returns, or print the help and exit 0, or print `tool: message` (and
/// `usage` under a usage error) and exit 2 or 1.
pub fn run(tool: &str, usage: &str, body: impl FnOnce(Args) -> Result<u8, Error>) -> ExitCode {
    ExitCode::from(match body(Args::from_env()) {
        Ok(code) => code,
        Err(Error::Help(text)) => {
            print!("{text}");
            EXIT_OK
        }
        Err(Error::Usage(message)) => {
            eprintln!("{tool}: {message}\n{}", usage.trim_end());
            EXIT_USAGE
        }
        Err(Error::Failed(message)) => {
            eprintln!("{tool}: {message}");
            EXIT_ERROR
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_values_and_positionals_are_taken_in_any_mix() {
        let mut args = Args::of("milan --scope 50 cg --check --out p.json -");
        assert!(args.flag("--check") && !args.flag("--json"));
        assert_eq!(args.positive::<usize>("--scope"), Ok(Some(50)));
        assert_eq!(args.value("--out"), Ok(Some("p.json".to_string())));
        assert_eq!(args.parsed::<f64>("--alpha", "a level"), Ok(None));
        for expected in [Some("milan"), Some("cg"), Some("-"), None] {
            assert_eq!(args.positional().unwrap().as_deref(), expected);
        }
        assert_eq!(args.finish(), Ok(()));
        assert_eq!(Args::of("run --json").subcommand().unwrap(), "run");
    }

    #[test]
    fn what_a_tool_cannot_read_is_a_usage_error_that_says_why() {
        fn why<T>(r: Result<T, Error>) -> String {
            match r {
                Err(Error::Usage(message)) => message,
                _ => panic!("expected a usage error"),
            }
        }
        let of = Args::of;
        let sub = "the first argument must be a subcommand";
        let zero = of("-t 0").positive::<u8>("-t");
        let word = of("-t x").positive::<u8>("-t");
        let factor = of("-b x").parsed::<f64>("-b", "a factor");
        for (got, want) in [
            (why(of("--arhc x").finish()), "unknown option \"--arhc\""),
            (why(of("a").finish()), "unexpected argument \"a\""),
            (why(of("--json run").subcommand()), sub),
            (why(of("").subcommand()), sub),
            (why(of("--seeds").value("--seeds")), "--seeds needs a value"),
            (why(of("-o a -o b").value("-o")), "-o given more than once"),
            (why(zero), "-t needs a positive integer, got 0"),
            (why(word), "-t needs a positive integer, got \"x\""),
            (why(factor), "-b needs a factor, got \"x\""),
        ] {
            assert_eq!(got, want);
        }
        assert_eq!(Error::from("disk"), Error::Failed("disk".to_string()));
    }
}
