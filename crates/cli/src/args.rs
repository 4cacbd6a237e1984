//! Minimal flag parser (no external dependencies).
//!
//! Supports `--name value` and `--flag` boolean forms. Unknown flags are
//! errors; every command documents its accepted flags.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed flags: name → raw value (empty string for bare boolean flags).
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

/// Error from argument parsing.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Flags {
    /// Parses `--name value` / `--flag` pairs, validating against the
    /// allowed flag list (`bool_flags` take no value).
    pub fn parse(
        args: &[String],
        allowed: &[&str],
        bool_flags: &[&str],
    ) -> Result<Flags, ArgError> {
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected a --flag, got {arg:?}")))?;
            if !allowed.contains(&name) && !bool_flags.contains(&name) {
                return Err(ArgError(format!("unknown flag --{name}")));
            }
            if bool_flags.contains(&name) {
                values.insert(name.to_string(), String::new());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                values.insert(name.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(Flags { values })
    }

    /// Raw string value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// True if a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Parses a flag value via `FromStr`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.get_with(name, default, str::parse)
    }

    /// Parses a flag value with `parse`, with a default. The error names
    /// the flag.
    pub fn get_with<T, E: fmt::Display>(
        &self,
        name: &str,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => {
                parse(raw).map_err(|e| ArgError(format!("invalid value for --{name}: {e}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_bools() {
        let f = Flags::parse(
            &argv(&["--ws", "80G", "--persistent"]),
            &["ws"],
            &["persistent"],
        )
        .unwrap();
        assert_eq!(f.get("ws"), Some("80G"));
        assert!(f.has("persistent"));
        assert!(!f.has("ws-count"));
    }

    #[test]
    fn rejects_unknown_and_missing_value() {
        assert!(Flags::parse(&argv(&["--bogus", "1"]), &["ws"], &[]).is_err());
        assert!(Flags::parse(&argv(&["--ws"]), &["ws"], &[]).is_err());
        assert!(Flags::parse(&argv(&["ws", "80G"]), &["ws"], &[]).is_err());
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let f = Flags::parse(&argv(&["--scale", "64"]), &["scale"], &[]).unwrap();
        assert_eq!(f.get_parsed("scale", 1u64).unwrap(), 64);
        assert_eq!(f.get_parsed("missing", 7u64).unwrap(), 7);
        let bad = Flags::parse(&argv(&["--scale", "x"]), &["scale"], &[]).unwrap();
        assert!(bad.get_parsed("scale", 1u64).is_err());
    }
}
