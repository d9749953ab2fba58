//! The command-line reader of every binary: a `match` arm per flag over
//! [`FlagReader::next_arg`], each value read typed and range-checked, and
//! each refusal a [`CliError`] that [`exit_usage`] prints with `USAGE`.

use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

/// `(0, 1]`: a machine scale factor.
pub const SCALE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Included(1.0));

/// `(0, ∞)`: a positive, finite float.
pub const POSITIVE: (Bound<f64>, Bound<f64>) =
    (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY));

/// A refused command line: what was wrong, naming the flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

/// A command line read front to back.
pub struct FlagReader {
    args: std::vec::IntoIter<String>,
    /// The argument [`FlagReader::next_arg`] returned last.
    flag: String,
}

impl FlagReader {
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let args = args.into_iter().collect::<Vec<_>>().into_iter();
        let flag = String::new();
        Self { args, flag }
    }

    /// The next flag or positional argument; `None` at the end.
    pub fn next_arg(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String, CliError> {
        let missing = || CliError(format!("{} needs a value", self.flag));
        self.args.next().ok_or_else(missing)
    }

    /// The current flag's value read by `read`, such as a type's `parse`.
    pub fn value_with<T, E: Display>(
        &mut self,
        read: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, CliError> {
        let v = self.value()?;
        read(&v).map_err(|e| CliError(format!("{} {v:?}: {e}", self.flag)))
    }

    /// The current flag's value parsed as `T`, refusing a value outside
    /// `range` (`..` takes any; a NaN is outside every range with a bound).
    pub fn parse_in<T: FromStr<Err: Display> + PartialOrd>(
        &mut self,
        range: impl RangeBounds<T>,
    ) -> Result<T, CliError> {
        self.value_with(|v| match v.parse() {
            Ok(n) if range.contains(&n) => Ok(n),
            Ok(_) => Err("out of range".to_string()),
            Err(e) => Err(e.to_string()),
        })
    }

    /// The current argument refused as unknown.
    pub fn unknown(&self) -> CliError {
        CliError(format!("unknown argument: {}", self.flag))
    }
}

/// Refuse a command line: `err` and `usage` on stderr, exit status 2.
pub fn exit_usage(err: &CliError, usage: &str) -> ! {
    eprintln!("error: {}\n\n{usage}", err.0);
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(args: &[&str]) -> FlagReader {
        let mut r = FlagReader::new(args.iter().map(|s| s.to_string()));
        r.next_arg();
        r
    }

    #[test]
    fn a_value_is_parsed_and_range_checked() {
        assert_eq!(reader(&["--n", "3"]).parse_in(1usize..), Ok(3));
        assert_eq!(reader(&["--f", "0.5"]).parse_in(SCALE), Ok(0.5));
        assert_eq!(reader(&["--f", "1"]).parse_in(SCALE), Ok(1.0));
        assert_eq!(reader(&["--s", "x y"]).value(), Ok("x y".to_string()));
    }

    #[test]
    fn each_refusal_names_the_flag_and_the_value() {
        let err = |r: Result<f64, CliError>| r.unwrap_err().0;
        assert_eq!(
            err(reader(&["--f", "0"]).parse_in(SCALE)),
            "--f \"0\": out of range"
        );
        assert_eq!(
            err(reader(&["--f", "nan"]).parse_in(POSITIVE)),
            "--f \"nan\": out of range"
        );
        assert_eq!(
            err(reader(&["--f", "inf"]).parse_in(POSITIVE)),
            "--f \"inf\": out of range"
        );
        assert_eq!(
            err(reader(&["--f", "abc"]).parse_in(..)),
            "--f \"abc\": invalid float literal"
        );
        assert_eq!(err(reader(&["--f"]).parse_in(..)), "--f needs a value");
        assert_eq!(reader(&["--g"]).unknown().0, "unknown argument: --g");
    }

    #[test]
    fn arguments_come_back_in_order() {
        let mut r = FlagReader::new(["a", "--b", "c"].map(String::from));
        assert_eq!(r.next_arg().as_deref(), Some("a"));
        assert_eq!(r.next_arg().as_deref(), Some("--b"));
        assert_eq!(r.value().as_deref(), Ok("c"));
        assert_eq!(r.next_arg(), None);
    }
}
