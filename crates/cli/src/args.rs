//! A small dependency-free argument parser.
//!
//! Supports `--flag value` and `--flag=value` options plus positional
//! arguments; options a command's usage text does not name are errors.
//! Kept deliberately tiny — the CLI has a handful of commands and the
//! workspace avoids pulling an argument parser for them.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A parsed command line: positionals plus `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Errors from parsing or typed access.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// An option was given without a value (`--foo` at the end, or followed
    /// by another option).
    MissingValue(String),
    /// A required option was absent.
    MissingOption(String),
    /// A value failed to parse as the requested type.
    InvalidValue {
        /// Option name.
        option: String,
        /// Raw value.
        value: String,
        /// Expected type description.
        expected: &'static str,
    },
    /// An option appeared twice.
    Duplicate(String),
    /// An option the command's usage text does not name.
    UnknownOption(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(o) => write!(f, "option --{o} requires a value"),
            ArgsError::MissingOption(o) => write!(f, "required option --{o} is missing"),
            ArgsError::InvalidValue {
                option,
                value,
                expected,
            } => write!(f, "option --{option}: `{value}` is not a valid {expected}"),
            ArgsError::Duplicate(o) => write!(f, "option --{o} given more than once"),
            ArgsError::UnknownOption(o) => {
                write!(f, "unknown option --{o} (see the command's --help)")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingValue`] / [`ArgsError::Duplicate`] on malformed
    /// input.
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(token) = iter.next() {
            if let Some(stripped) = token.strip_prefix("--") {
                let (key, value) = match stripped.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => {
                        let key = stripped.to_string();
                        match iter.peek() {
                            Some(next) if !next.starts_with("--") => {
                                (key, iter.next().expect("peeked"))
                            }
                            _ => return Err(ArgsError::MissingValue(key)),
                        }
                    }
                };
                if args.options.insert(key.clone(), value).is_some() {
                    return Err(ArgsError::Duplicate(key));
                }
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// Rejects the first option (in name order) whose `--name` the `usage`
    /// text never mentions, so a misspelt option fails instead of silently
    /// falling back to its default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnknownOption`] naming the undocumented option.
    pub(crate) fn reject_undocumented(&self, usage: &str) -> Result<(), ArgsError> {
        let documented = documented_options(usage);
        self.options
            .keys()
            .find(|k| !documented.contains(k.as_str()))
            .map_or(Ok(()), |unknown| {
                Err(ArgsError::UnknownOption(unknown.clone()))
            })
    }

    /// Positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The raw value of a required option.
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingOption`] when absent.
    pub fn required(&self, name: &str) -> Result<&str, ArgsError> {
        self.get(name)
            .ok_or_else(|| ArgsError::MissingOption(name.to_string()))
    }

    /// A typed optional value.
    ///
    /// # Errors
    ///
    /// [`ArgsError::InvalidValue`] when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgsError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| ArgsError::InvalidValue {
                option: name.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// A typed value with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::InvalidValue`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
        default: T,
    ) -> Result<T, ArgsError> {
        Ok(self.get_parsed(name, expected)?.unwrap_or(default))
    }

    /// A typed required value.
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingOption`] / [`ArgsError::InvalidValue`].
    pub fn required_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
    ) -> Result<T, ArgsError> {
        self.required(name)?
            .parse()
            .map_err(|_| ArgsError::InvalidValue {
                option: name.to_string(),
                value: self.get(name).unwrap_or_default().to_string(),
                expected,
            })
    }
}

/// Every `--name` a usage text mentions: the name runs up to the first
/// character that is neither alphanumeric nor `-`.
pub(crate) fn documented_options(usage: &str) -> BTreeSet<&str> {
    usage
        .split("--")
        .skip(1)
        .filter_map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            (end > 0).then(|| &rest[..end])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_forms() {
        let a = Args::parse(["gen", "--seed", "42", "--city=dublin", "extra"]).unwrap();
        assert_eq!(a.positionals(), &["gen", "extra"]);
        assert_eq!(a.get("seed"), Some("42"));
        assert_eq!(a.get("city"), Some("dublin"));
        assert_eq!(a.get("absent"), None);
    }

    #[test]
    fn typed_access() {
        let a = Args::parse(["--k", "5", "--d=2500"]).unwrap();
        assert_eq!(a.required_parsed::<usize>("k", "integer").unwrap(), 5);
        assert_eq!(a.get_or::<u64>("d", "integer", 0).unwrap(), 2_500);
        assert_eq!(a.get_or::<u64>("missing", "integer", 7).unwrap(), 7);
        assert_eq!(a.get_parsed::<f64>("missing", "number").unwrap(), None);
    }

    #[test]
    fn missing_value_is_error() {
        assert_eq!(
            Args::parse(["--seed"]).unwrap_err(),
            ArgsError::MissingValue("seed".into())
        );
        assert_eq!(
            Args::parse(["--seed", "--city", "x"]).unwrap_err(),
            ArgsError::MissingValue("seed".into())
        );
    }

    #[test]
    fn duplicates_and_bad_types_are_errors() {
        assert_eq!(
            Args::parse(["--k", "1", "--k", "2"]).unwrap_err(),
            ArgsError::Duplicate("k".into())
        );
        let a = Args::parse(["--k", "abc"]).unwrap();
        assert!(matches!(
            a.required_parsed::<usize>("k", "integer"),
            Err(ArgsError::InvalidValue { .. })
        ));
    }

    #[test]
    fn required_missing_is_error() {
        let a = Args::parse(["cmd"]).unwrap();
        assert_eq!(
            a.required("graph").unwrap_err(),
            ArgsError::MissingOption("graph".into())
        );
    }

    #[test]
    fn undocumented_options_are_rejected() {
        let usage = "cmd --snapshot-every N [--k N] [--d=FEET]";
        let ok = Args::parse(["--snapshot-every", "2", "--k", "1", "--d", "9"]).unwrap();
        assert_eq!(ok.reject_undocumented(usage), Ok(()));
        // A prefix of a documented name is not documented.
        let prefix = Args::parse(["--snapshot", "x"]).unwrap();
        assert_eq!(
            prefix.reject_undocumented(usage),
            Err(ArgsError::UnknownOption("snapshot".into()))
        );
        let typo = Args::parse(["--k", "1", "--kk", "2"]).unwrap();
        assert_eq!(
            typo.reject_undocumented(usage),
            Err(ArgsError::UnknownOption("kk".into()))
        );
    }

    #[test]
    fn documented_options_read_every_name() {
        let names = documented_options("a --x-y N [--z=1]\n--w, text --, -- v");
        assert_eq!(names.into_iter().collect::<Vec<_>>(), ["w", "x-y", "z"]);
    }

    #[test]
    fn error_display() {
        assert!(ArgsError::MissingValue("x".into())
            .to_string()
            .contains("--x"));
        assert!(ArgsError::MissingOption("y".into())
            .to_string()
            .contains("--y"));
        assert!(ArgsError::InvalidValue {
            option: "k".into(),
            value: "z".into(),
            expected: "integer"
        }
        .to_string()
        .contains("integer"));
        assert!(ArgsError::UnknownOption("thread".into())
            .to_string()
            .contains("--thread"));
    }
}
