//! Regenerate Tables 1–6 of the paper.
//!
//! ```text
//! cargo run --release -p wg-bench --bin tables                # all six tables
//! cargo run --release -p wg-bench --bin tables -- --table 3   # just Table 3
//! cargo run --release -p wg-bench --bin tables -- --file-mb 2 # smaller copy
//! cargo run --release -p wg-bench --bin tables -- --json      # machine readable
//! ```

use wg_bench::cli::{self, Args};
use wg_bench::{run_table, table_spec, TABLES};

const USAGE: &str = "\
usage: tables [--table N] [--file-mb N] [--json]
       tables --help

  --table N     regenerate only table N (1-6; default all six)
  --file-mb N   size of the copy in MB (default 10)
  --json        one JSON object per table instead of the rendered text";

/// Parsed command line.
struct Options {
    table: Option<u8>,
    file_mb: u64,
    json: bool,
}

/// Read the flags.
fn parse_args(args: &mut Args) -> Result<Options, String> {
    let mut opts = Options {
        table: None,
        file_mb: 10,
        json: false,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--table" => {
                let n = args.number(&flag)?;
                if table_spec(n).is_none() {
                    return Err(format!("--table needs a number 1-6, not {n}"));
                }
                opts.table = Some(n);
            }
            "--file-mb" => opts.file_mb = args.number(&flag)?,
            "--json" => opts.json = true,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn main() {
    let args = cli::parse_or_exit("tables", USAGE, parse_args);
    let file_size = args.file_mb * 1024 * 1024;
    let specs: Vec<_> = match args.table {
        Some(n) => vec![*table_spec(n).expect("parse_args accepts only tables 1-6")],
        None => TABLES.to_vec(),
    };
    for spec in specs {
        let output = run_table(&spec, file_size);
        if args.json {
            use wg_workload::results::json;
            let cells = |results: &[wg_workload::FileCopyResult]| {
                json::array(&results.iter().map(|r| r.to_json()).collect::<Vec<_>>())
            };
            let j = json::object(&[
                ("table", spec.number.to_string()),
                ("caption", json::string(spec.caption)),
                ("without", cells(&output.without)),
                ("with", cells(&output.with)),
            ]);
            println!("{j}");
        } else {
            println!("{}", output.render());
        }
    }
}
