//! Regenerate Figures 2 and 3: SPEC SFS 1.0-style throughput vs average
//! latency, with and without write gathering, without (Figure 2) and with
//! (Figure 3) Prestoserve.
//!
//! ```text
//! cargo run --release -p wg-bench --bin figure2_3                 # both figures
//! cargo run --release -p wg-bench --bin figure2_3 -- --figure 2
//! cargo run --release -p wg-bench --bin figure2_3 -- --secs 30    # longer runs
//! ```

use wg_bench::{cli, render_figure, run_figure};
use wg_server::WritePolicy;

const USAGE: &str = "\
usage: figure2_3 [--figure 2|3] [--secs N]
       figure2_3 --help

  --figure 2|3   regenerate only one figure (default both)
  --secs N       simulated seconds per load point (default 15)";

fn main() {
    let (figure, secs) = cli::parse_or_exit("figure2_3", USAGE, |args| {
        let (mut figure, mut secs) = (None, 15);
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--figure" => match args.number(&flag)? {
                    f @ (2 | 3) => figure = Some(f),
                    f => return Err(format!("--figure needs 2 or 3, not {f}")),
                },
                "--secs" => secs = args.number(&flag)?,
                other => return Err(cli::unknown(other)),
            }
        }
        Ok((figure, secs))
    });
    let figures: Vec<u8> = match figure {
        Some(f) => vec![f],
        None => vec![2, 3],
    };
    for f in figures {
        let without = run_figure(f, WritePolicy::Standard, secs);
        let with = run_figure(f, WritePolicy::Gathering, secs);
        println!("{}", render_figure(f, &without, &with));
        // Summarise the two headline numbers the paper quotes for Figure 2:
        // the capacity gain and the latency reduction.
        let cap_without = without
            .iter()
            .map(|p| p.achieved_ops_per_sec)
            .fold(0.0f64, f64::max);
        let cap_with = with
            .iter()
            .map(|p| p.achieved_ops_per_sec)
            .fold(0.0f64, f64::max);
        let lat_without: f64 =
            without.iter().map(|p| p.avg_latency_ms).sum::<f64>() / without.len() as f64;
        let lat_with: f64 = with.iter().map(|p| p.avg_latency_ms).sum::<f64>() / with.len() as f64;
        println!(
            "capacity: {:.0} -> {:.0} ops/s ({:+.1}%), mean latency over the sweep: {:.2} -> {:.2} ms ({:+.1}%)\n",
            cap_without,
            cap_with,
            (cap_with / cap_without - 1.0) * 100.0,
            lat_without,
            lat_with,
            (lat_with / lat_without - 1.0) * 100.0,
        );
    }
}
