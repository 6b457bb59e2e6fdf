//! Command-line flags for the bench binaries.
//!
//! A binary declares its bare flags (`"--quick"`) and its valued flags
//! with their usage (`"--threads N"`); anything else on the command line
//! is an error. A bench is run by hand or by CI, so errors panic with the
//! usage of the offending flag instead of returning.
//!
//! ```
//! use cc_bench::cli::Args;
//!
//! let argv = ["--reps", "3", "--quick"].map(String::from);
//! let args = Args::from_args(&["--quick"], &["--threads N", "--reps N"], argv);
//! assert!(args.flag("--quick"));
//! assert_eq!(args.value::<usize>("--reps"), Some(3));
//! assert_eq!(args.threads(4), 4);
//! ```

use std::str::FromStr;

/// The flags one bench binary was given.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Bare flags, in command-line order.
    bare: Vec<&'static str>,
    /// `(usage, value)` of each valued flag, in command-line order.
    valued: Vec<(&'static str, String)>,
}

/// `"--threads"` of the usage `"--threads N"`.
fn name(usage: &str) -> &str {
    usage.split(' ').next().unwrap_or(usage)
}

impl Args {
    /// Parses the process's arguments against the declared flags (see
    /// [`Args::from_args`]).
    pub fn parse(bare: &[&'static str], valued: &[&'static str]) -> Args {
        Args::from_args(bare, valued, std::env::args().skip(1))
    }

    /// Parses `argv` against the declared `bare` flags and `valued` flag
    /// usages.
    ///
    /// # Panics
    ///
    /// Panics with `unknown argument "…"` on an undeclared argument, and
    /// with the flag's usage (`--threads N`) when a valued flag ends the
    /// command line.
    pub fn from_args(
        bare: &[&'static str],
        valued: &[&'static str],
        argv: impl IntoIterator<Item = String>,
    ) -> Args {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if let Some(&flag) = bare.iter().find(|&&f| f == arg) {
                args.bare.push(flag);
            } else if let Some(&usage) = valued.iter().find(|&&u| name(u) == arg) {
                args.valued.push((usage, argv.next().expect(usage)));
            } else {
                panic!("unknown argument {arg:?}");
            }
        }
        args
    }

    /// Whether the bare flag `flag` was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.bare.contains(&flag)
    }

    /// The last value given for `flag`, parsed; `None` if it was not given.
    ///
    /// # Panics
    ///
    /// Panics with the flag's usage if the value does not parse as `T`.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (usage, text) = self.valued.iter().rev().find(|(u, _)| name(u) == flag)?;
        Some(text.parse().ok().expect(usage))
    }

    /// `--threads`, or `default` if it was not given.
    ///
    /// # Panics
    ///
    /// Panics if the thread count is 0.
    pub fn threads(&self, default: usize) -> usize {
        let threads = self.value("--threads").unwrap_or(default);
        assert!(threads >= 1, "--threads must be at least 1");
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::from_args(
            &["--quick"],
            &["--threads N", "--reps N", "--metrics-out FILE"],
            argv.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn defaults_when_nothing_is_given() {
        let args = parse(&[]);
        assert!(!args.flag("--quick"));
        assert_eq!(args.value::<usize>("--reps"), None);
        assert_eq!(args.value::<String>("--metrics-out"), None);
        assert_eq!(args.threads(4), 4);
    }

    #[test]
    fn bare_and_valued_flags() {
        let args = parse(&[
            "--quick",
            "--threads",
            "2",
            "--metrics-out",
            "m.txt",
            "--threads",
            "3",
        ]);
        assert!(args.flag("--quick"));
        assert_eq!(args.threads(4), 3, "the last value wins");
        assert_eq!(
            args.value::<String>("--metrics-out").as_deref(),
            Some("m.txt")
        );
    }

    #[test]
    #[should_panic(expected = "unknown argument \"--fast\"")]
    fn unknown_argument_panics() {
        parse(&["--fast"]);
    }

    #[test]
    #[should_panic(expected = "--reps N")]
    fn missing_value_panics_with_the_usage() {
        parse(&["--reps"]);
    }

    #[test]
    #[should_panic(expected = "--reps N")]
    fn unparsable_value_panics_with_the_usage() {
        parse(&["--reps", "many"]).value::<usize>("--reps");
    }

    #[test]
    #[should_panic(expected = "--threads must be at least 1")]
    fn zero_threads_is_rejected() {
        parse(&["--threads", "0"]).threads(4);
    }
}
