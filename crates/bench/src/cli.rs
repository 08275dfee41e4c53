//! Flag parsing for the `soak` and `replay` bins: `--name value` pairs
//! and bare `--name` switches anywhere after the subcommand. A bad flag
//! prints `<prog>: <why>` and exits 2; an integer that does not fit its
//! flag's type is a bad flag, never a truncated value.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;

/// One bin's command line.
pub struct Cli {
    prog: &'static str,
    args: Vec<String>,
}

impl Cli {
    /// `args` without the program path, e.g. `env::args().skip(1)`.
    pub fn new(prog: &'static str, args: Vec<String>) -> Cli {
        Cli { prog, args }
    }

    /// The first argument.
    pub fn subcommand(&self) -> Option<&str> {
        self.args.first().map(String::as_str)
    }

    /// The argument after flag `name`, if the flag is present.
    pub fn value(&self, name: &str) -> Option<String> {
        self.args.iter().position(|a| a == name).map(|i| {
            self.args
                .get(i + 1)
                .unwrap_or_else(|| self.die(&format!("{name} needs a value")))
                .clone()
        })
    }

    /// Flag `name`'s value as an integer of type `T`.
    pub fn int<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| parse_int(name, &v).unwrap_or_else(|why| self.die(&why)))
    }

    /// Whether the bare switch `name` is present.
    pub fn set(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
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
        eprintln!("{}: {msg}", self.prog);
        exit(2);
    }
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

    #[test]
    fn integer_flags_reject_overflow_instead_of_truncating() {
        let cli = Cli::new("test", vec!["run".into(), "--ranks".into(), "7".into()]);
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
}
