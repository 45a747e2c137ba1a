//! Command-line parsing shared by the bench binaries.
//!
//! Every binary answers `--help` (or `-h`) with its usage on stdout and exit
//! status 0, and bad input — an unknown flag, a missing or malformed value —
//! with the problem and its usage on stderr and exit status 2, never with a
//! panic.  A binary supplies its usage text and a function that reads its
//! flags through [`Args`]:
//!
//! ```no_run
//! use wg_bench::cli::{self, Args};
//!
//! const USAGE: &str = "usage: demo [--kb N]";
//!
//! let kb: u64 = cli::parse_or_exit("demo", USAGE, |args: &mut Args| {
//!     let mut kb = 512;
//!     while let Some(flag) = args.next_flag() {
//!         match flag.as_str() {
//!             "--kb" => kb = args.number(&flag)?,
//!             other => return Err(cli::unknown(other)),
//!         }
//!     }
//!     Ok(kb)
//! });
//! ```

use std::str::FromStr;

/// The arguments of one invocation, read flag by flag.
pub struct Args {
    iter: std::vec::IntoIter<String>,
}

impl Args {
    /// The next flag, or `None` once every argument is read.
    pub fn next_flag(&mut self) -> Option<String> {
        self.iter.next()
    }

    /// The value after `flag`; `what` names it in the error (`"a path"`).
    pub fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.iter
            .next()
            .ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The number after `flag`.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.iter
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    }

    /// The comma-separated numbers after `flag`.
    pub fn numbers<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        self.iter
            .next()
            .and_then(|list| list.split(',').map(|v| v.trim().parse().ok()).collect())
            .ok_or_else(|| format!("{flag} needs comma-separated numbers"))
    }
}

/// The error for a flag the binary does not have.
pub fn unknown(flag: &str) -> String {
    format!("unknown argument {flag}")
}

/// Read `args` with `parse`: `Ok(None)` when `--help` or `-h` was given
/// anywhere, otherwise what `parse` made of the arguments.
pub fn parse<T>(
    args: impl IntoIterator<Item = String>,
    parse: impl FnOnce(&mut Args) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    parse(&mut Args {
        iter: args.into_iter(),
    })
    .map(Some)
}

/// Parse this process's arguments with `parse`, or exit: `--help` prints
/// `usage` and exits 0; bad input prints `name: <problem>` and `usage` to
/// stderr and exits 2.
pub fn parse_or_exit<T>(
    name: &str,
    usage: &str,
    parse: impl FnOnce(&mut Args) -> Result<T, String>,
) -> T {
    match self::parse(std::env::args().skip(1), parse) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{name}: {msg}\n{usage}");
            std::process::exit(2);
        }
    }
}
