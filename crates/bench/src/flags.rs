//! The command-line reader of the bench binaries: arguments read front to
//! back, each flag's value parsed where the flag is read, and every
//! mistake an error that names the flag, never a panic or a silent
//! default.

use std::str::FromStr;

/// A command's arguments, read front to back.
pub struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// Reads `args`.
    pub fn new(args: &'a [String]) -> Self {
        Flags(args.iter())
    }

    /// The value that follows `flag`, parsed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.next().ok_or(format!("{flag} takes a value"))?;
        value.parse().map_err(|_| {
            let kind = std::any::type_name::<T>();
            format!("{flag} takes a {kind}, not {value:?}")
        })
    }
}

/// Each argument in turn: a flag, or a bare value.
impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// The error for an argument the command does not know.
pub fn unknown(arg: &str) -> String {
    format!("unknown argument {arg:?}")
}
