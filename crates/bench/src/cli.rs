//! Flag parsing for the `soak` and `replay` bins: `--name value` pairs
//! and bare `--name` switches anywhere after the subcommand, checked
//! against the flags the bin declares. An unknown or repeated flag, or
//! one without its value, prints `<prog>: <why>` and exits 2; so does
//! an integer that does not fit its flag's type, never truncated.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;

/// The flags one bin accepts, each list separated by whitespace.
pub struct Flags {
    /// Flags followed by a value.
    pub values: &'static str,
    /// Bare switches.
    pub switches: &'static str,
}

/// One bin's command line.
pub struct Cli {
    prog: &'static str,
    subcommand: Option<String>,
    /// Each flag given, in order, with its value (`None` for a switch).
    given: Vec<(String, Option<String>)>,
}

impl Cli {
    /// `args` without the program path, e.g. `env::args().skip(1)`.
    pub fn new(prog: &'static str, args: Vec<String>, flags: &Flags) -> Cli {
        Cli::parse(prog, args, flags).unwrap_or_else(|why| die(prog, &why))
    }

    fn parse(prog: &'static str, args: Vec<String>, flags: &Flags) -> Result<Cli, String> {
        let declared = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
        let mut args = args.into_iter();
        let subcommand = args.next();
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        while let Some(arg) = args.next() {
            let value = if declared(flags.values, &arg) {
                Some(args.next().ok_or_else(|| format!("{arg} needs a value"))?)
            } else if !declared(flags.switches, &arg) {
                return Err(format!("unknown flag {arg}"));
            } else {
                None
            };
            if given.iter().any(|(name, _)| *name == arg) {
                return Err(format!("repeated flag {arg}"));
            }
            given.push((arg, value));
        }
        Ok(Cli {
            prog,
            subcommand,
            given,
        })
    }

    /// The first argument.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// The value of flag `name`, if the flag is present.
    pub fn value(&self, name: &str) -> Option<String> {
        self.given
            .iter()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, value)| value.clone())
    }

    /// Flag `name`'s value as an integer of type `T`.
    pub fn int<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| parse_int(name, &v).unwrap_or_else(|why| self.die(&why)))
    }

    /// Whether flag `name` is present (a switch, or a flag with a value).
    pub fn set(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The required path flag `name`.
    pub fn dir(&self, name: &str) -> PathBuf {
        PathBuf::from(
            self.value(name)
                .unwrap_or_else(|| self.die(&format!("{name} is required"))),
        )
    }

    /// Write `bytes` to `path`, creating its parent directories.
    pub fn write(&self, path: &Path, bytes: &[u8]) {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, bytes)
            .unwrap_or_else(|e| self.die(&format!("write {}: {e}", path.display())));
        eprintln!("{}: wrote {}", self.prog, path.display());
    }

    pub fn die(&self, msg: &str) -> ! {
        die(self.prog, msg)
    }
}

fn die(prog: &str, msg: &str) -> ! {
    eprintln!("{prog}: {msg}");
    exit(2);
}

fn parse_int<T: FromStr>(name: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e| {
        let ty = std::any::type_name::<T>();
        format!("{name} needs a {ty} integer, got {v:?} ({e})")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags = Flags {
        values: "--ranks --loss --stream",
        switches: "--decisions",
    };

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse("test", args.iter().map(|a| a.to_string()).collect(), &FLAGS)
    }

    #[test]
    fn integer_flags_reject_overflow_instead_of_truncating() {
        let cli = parse(&["run", "--ranks", "7"]).unwrap();
        assert_eq!(cli.subcommand(), Some("run"));
        assert_eq!(cli.int::<u32>("--ranks"), Some(7));
        assert_eq!(cli.int::<u32>("--loss"), None);
        // 2^32 + 1 used to run as `ranks = 1`.
        let err = parse_int::<u32>("--ranks", "4294967297").unwrap_err();
        assert!(err.starts_with("--ranks needs a u32 integer"), "{err}");
        assert!(parse_int::<u32>("--episode", "4294967296").is_err());
        assert_eq!(parse_int::<u32>("--episode", "4294967295"), Ok(u32::MAX));
        assert_eq!(parse_int::<u64>("--seed", "4294967296"), Ok(1 << 32));
        assert!(parse_int::<u64>("--seed", "-1").is_err());
    }

    /// An appended override used to lose silently to the first value.
    #[test]
    fn repeated_flags_are_refused() {
        let err = parse(&["run", "--loss", "10", "--loss", "70"]).err();
        assert_eq!(err.as_deref(), Some("repeated flag --loss"));
    }

    /// A misspelt flag used to be ignored, running a different campaign.
    #[test]
    fn unknown_flags_are_refused() {
        let err = parse(&["run", "--steam", "8"]).err();
        assert_eq!(err.as_deref(), Some("unknown flag --steam"));
        let err = parse(&["run", "--decisions", "--stream"]).err();
        assert_eq!(err.as_deref(), Some("--stream needs a value"));
    }
}
