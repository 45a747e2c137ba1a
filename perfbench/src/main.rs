//! `perfbench` — the repository benchmark of the write-gathering simulator.
//!
//! Runs one named workload for a fixed host time, repeating whole passes,
//! and prints every metric by name with its unit.  The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones.  METRICS.md describes every metric.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use trace::{Layer, LayerTotals};
use workloads::{Size, Tally, Workload};

const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spans FILE]
       perfbench --compare OLD NEW
       perfbench --help

  --workload NAME  paper_copy, sfs_knee, fanin_unstable, lease_storm, or all
  --seed N         seed of the SFS request streams (sfs_knee, lease_storm);
                   the copy workloads have no random input and ignore it
                   (default 1993)
  --seconds S      host seconds to repeat measured passes for (default 10)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics (default 0)
  --smoke          tiny passes that exercise every code path (for tests)
  --spans FILE     with --trace 1 on paper_copy or fanin_unstable, write
                   the first traced pass's spans to FILE as CSV
  --compare OLD NEW  compare two saved outputs of this program; refuses
                   when their host fingerprints differ

Exit status: 0 on success, 1 when an oracle or the determinism check fails
(the message names the workload and the oracle), 2 on bad usage, 3 when
--compare finds incomparable results.";

/// End-to-end metrics, printed with `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_write_kb_s", "KB/s"),
    ("sim_ops_s", "ops/s"),
    ("sim_capacity_ops_s", "ops/s"),
    ("sim_latency_ms", "sim_ms"),
    ("sim_fidelity_err_pct", "%"),
];

/// Per-layer metrics, printed with `--trace 1`: name and unit.
const PER_LAYER: [(&str, &str); 48] = [
    ("setup.host_ns", "ns"),
    ("run.host_ns", "ns"),
    ("calq.host_ns", "ns"),
    ("calq.calls", "count"),
    ("writer.host_ns", "ns"),
    ("writer.calls", "count"),
    ("medium.host_ns", "ns"),
    ("medium.calls", "count"),
    ("server.host_ns", "ns"),
    ("server.calls", "count"),
    ("driver.self_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
    ("calq.max_depth", "count"),
    ("calq.resizes", "count"),
    ("calq.rotations", "count"),
    ("medium.util_pct", "%"),
    ("medium.lost", "count"),
    ("sockbuf.drops", "count"),
    ("server.cpu_util_pct", "%"),
    ("server.residence_p50_ms", "sim_ms"),
    ("server.residence_p99_ms", "sim_ms"),
    ("server.write_residence_p99_ms", "sim_ms"),
    ("server.residence_samples", "count"),
    ("gather.mean_batch", "writes"),
    ("gather.writes_gathered", "count"),
    ("gather.procrastination_hit_ratio", "ratio"),
    ("ufs.cache_evictions", "count"),
    ("ufs.throttle_stalls", "count"),
    ("ufs.writeback_blocks", "count"),
    ("ufs.metadata_flushes", "count"),
    ("server.commits", "count"),
    ("server.unstable_writes", "count"),
    ("server.forced_file_sync", "count"),
    ("disk.trans", "count"),
    ("disk.kb_per_trans", "KB"),
    ("disk.util_pct", "%"),
    ("disk.spindle_busy_max_pct", "%"),
    ("state.leases_granted", "count"),
    ("state.renewals", "count"),
    ("state.lock_grants", "count"),
    ("state.grace_denials", "count"),
    ("state.table_bytes", "bytes"),
    ("writer.retransmissions", "count"),
    ("writer.gave_up", "count"),
    ("sfs.retransmissions", "count"),
    ("sfs.gave_up", "count"),
    ("failed_frac", "ratio"),
];

/// Measured passes per run never drop below this, however long one takes.
const MIN_PASSES: usize = 3;

/// The largest share of the traced wall time the spans may leave
/// unaccounted before the traced run is rejected.
const UNACCOUNTED_TOLERANCE: f64 = 0.02;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans: Option<PathBuf>,
}

enum Request {
    Help,
    Compare(PathBuf, PathBuf),
    Run(Options),
}

fn parse(args: &[String]) -> Result<Request, String> {
    let mut opts = Options {
        workload: None,
        seed: 1993,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        spans: None,
    };
    let mut workload_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Request::Help),
            "--compare" => {
                let old = value("--compare")?;
                let new = value("--compare")?;
                return Ok(Request::Compare(old.into(), new.into()));
            }
            "--workload" => {
                let name = value(arg)?;
                workload_given = true;
                opts.workload = if name == "all" {
                    None
                } else {
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?)
                };
            }
            "--seed" => {
                let v = value(arg)?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value(arg)?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or(format!(
                        "--seconds {v:?} is not a number of seconds in 0..=3600"
                    ))?;
            }
            "--trace" => {
                opts.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} must be 0 or 1")),
                }
            }
            "--smoke" => opts.size = Size::Smoke,
            "--spans" => opts.spans = Some(value(arg)?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workload_given {
        return Err("--workload is required".into());
    }
    if opts.spans.is_some() && !(opts.trace && opts.workload.is_some_and(traced)) {
        return Err("--spans needs --trace 1 and --workload paper_copy or fanin_unstable".into());
    }
    Ok(Request::Run(opts))
}

/// Host facts that must match for two results to be comparable.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}}}",
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_PROFILE")),
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set, in MB.  One workload runs per process,
/// so this is the workload's peak.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A workload's finished measurement.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    passes: usize,
    sim_digest: u64,
}

/// Checks one measured pass against the verified reference pass.
fn check_pass(workload: Workload, reference: &Tally, pass: &Tally) -> Result<(), String> {
    if let Some(v) = pass.violations.first() {
        return Err(format!("{}: oracle violated: {v}", workload.name()));
    }
    for ((name, want), (_, got)) in reference.sim_values().iter().zip(pass.sim_values()) {
        if want.to_bits() != got.to_bits() {
            return Err(format!(
                "{}: determinism check failed: {name} was {want} in the first pass and {got} in a later one",
                workload.name()
            ));
        }
    }
    Ok(())
}

fn span_error(e: std::io::Error) -> String {
    format!("cannot write the span dump: {e}")
}

fn span_out(spans: &mut Option<BufWriter<File>>) -> Option<&mut dyn std::io::Write> {
    spans.as_mut().map(|w| w as &mut dyn std::io::Write)
}

/// Whether the traced run replays the workload span by span.
fn traced(workload: Workload) -> bool {
    matches!(workload, Workload::PaperCopy | Workload::FaninUnstable)
}

/// Folds a pass's simulated values into one number, so runs can be compared
/// at a glance.
fn sim_digest(tally: &Tally) -> u64 {
    tally
        .sim_values()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, (_, v)| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Repeats passes until `seconds` of host time have gone by, calling `each`
/// on every pass after checking it.
fn repeat(
    workload: Workload,
    opts: &Options,
    reference: &Tally,
    mut each: impl FnMut(Tally) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < budget {
        let tally = workloads::pass(workload, opts.size, opts.seed, false);
        check_pass(workload, reference, &tally)?;
        each(tally)?;
        passes += 1;
    }
    Ok(passes)
}

fn measure(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    // The first pass is untimed: it warms caches and lazy set-up, and is the
    // only one that re-reads every acknowledged byte from disk.
    let reference = workloads::pass(workload, opts.size, opts.seed, true);
    if let Some(v) = reference.violations.first() {
        return Err(format!("{}: oracle violated: {v}", workload.name()));
    }
    let mut sim = reference.sim_metrics();
    if workload != Workload::PaperCopy {
        sim[4].1 = workloads::fidelity_probe(opts.size)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
    }
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        passes: 0,
        sim_digest: sim_digest(&reference),
    };
    if opts.trace {
        measure_traced(workload, opts, &reference, &mut outcome)?;
    } else {
        let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        outcome.passes = repeat(workload, opts, &reference, |t| {
            wall.push((t.setup + t.run).as_secs_f64());
            setup.push(t.setup.as_secs_f64());
            rate.push(t.events as f64 / t.run.as_secs_f64());
            outcome.attempted += t.attempted;
            outcome.failed += t.failed;
            Ok(())
        })?;
        outcome.metrics = vec![
            ("wall_s", median(&wall)),
            ("events_per_s", median(&rate)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        outcome.metrics.extend(sim);
    }
    Ok(outcome)
}

/// The traced run.  The copy workloads replay every run through the traced
/// replica next to the library's own run; the SFS drivers keep their event
/// loops private, so their host time splits only into set-up and run.
fn measure_traced(
    workload: Workload,
    opts: &Options,
    reference: &Tally,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let mut layers: Vec<LayerTotals> = Vec::new();
    let mut overhead = Vec::new();
    let mut medium = (0.0, 0.0, 0u64);
    if traced(workload) {
        let mut spans = match &opts.spans {
            Some(path) => {
                let file = File::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let mut out = BufWriter::new(file);
                std::io::Write::write_all(
                    &mut out,
                    format!("{}\n", trace::SPAN_CSV_HEADER).as_bytes(),
                )
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                Some(out)
            }
            None => None,
        };
        let start = Instant::now();
        let budget = Duration::from_secs_f64(opts.seconds);
        while layers.len() < MIN_PASSES || start.elapsed() < budget {
            let mut plain = Tally::default();
            let mut totals = LayerTotals::default();
            medium = (0.0, 0.0, 0);
            let mut replay = |replica: trace::ReplicaResult,
                              library: (u64, f64, u64),
                              what: &str|
             -> Result<(), String> {
                let got = (replica.events, replica.kb_s, replica.disk_trans);
                if got != library {
                    return Err(format!(
                        "{}: traced replica diverged from the library's run in {what}: \
                         (events, KB/s, disk trans) {got:?} vs {library:?}",
                        workload.name()
                    ));
                }
                medium.0 += replica.medium_util_pct * replica.elapsed_s;
                medium.1 += replica.elapsed_s;
                medium.2 += replica.medium_lost;
                Ok(())
            };
            if workload == Workload::PaperCopy {
                for curve in workloads::paper_cells(opts.size) {
                    let mut points = Vec::new();
                    for cfg in curve {
                        let (system, result) = workloads::run_copy(&mut plain, cfg.clone());
                        let replica =
                            trace::run_copy_traced(&cfg, &mut totals, span_out(&mut spans))
                                .map_err(span_error)?;
                        let library = (
                            system.events_processed(),
                            result.client_write_kb_per_sec,
                            system.server().device_stats().transfers.events(),
                        );
                        replay(replica, library, &workloads::copy_label(&cfg))?;
                        points.push(workloads::absorb_copy(&mut plain, &system, &result, false));
                    }
                    plain.curves.push(points);
                }
            } else {
                let (system, result) = workloads::run_fanin(&mut plain, opts.size);
                let replica =
                    trace::run_fanin_traced(system.config(), &mut totals, span_out(&mut spans))
                        .map_err(span_error)?;
                let library = (
                    system.events_processed(),
                    result.aggregate_kb_per_sec,
                    system.server().device_stats().transfers.events(),
                );
                replay(replica, library, "the fan-in")?;
                workloads::absorb_fanin(&mut plain, &system, &result);
            }
            if let Some(out) = spans.take() {
                out.into_inner().map_err(|e| span_error(e.into_error()))?;
            }
            check_pass(workload, reference, &plain)?;
            if totals.unaccounted_frac() > UNACCOUNTED_TOLERANCE {
                return Err(format!(
                    "{}: the spans account for the traced wall time only within {:.2}%, \
                     above the {:.0}% tolerance",
                    workload.name(),
                    100.0 * totals.unaccounted_frac(),
                    100.0 * UNACCOUNTED_TOLERANCE
                ));
            }
            let plain_s = (plain.setup + plain.run).as_secs_f64();
            overhead.push(100.0 * (totals.wall_ns as f64 / 1e9 / plain_s - 1.0));
            setup.push(plain.setup.as_secs_f64() * 1e9);
            run.push(plain.run.as_secs_f64() * 1e9);
            outcome.attempted += plain.attempted;
            outcome.failed += plain.failed;
            layers.push(totals);
        }
        outcome.passes = layers.len();
    } else {
        outcome.passes = repeat(workload, opts, reference, |t| {
            setup.push(t.setup.as_secs_f64() * 1e9);
            run.push(t.run.as_secs_f64() * 1e9);
            outcome.attempted += t.attempted;
            outcome.failed += t.failed;
            Ok(())
        })?;
    }
    // Untraced workloads have no layer totals: their span metrics read 0.
    let layer_median = |f: &dyn Fn(&LayerTotals) -> f64| {
        let v: Vec<f64> = layers.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let layer_ns = |layer: Layer| layer_median(&|t| t.ns(layer) as f64);
    let calls = |layer: Layer| layers.first().map_or(0.0, |t| t.calls(layer) as f64);
    let overhead = if overhead.is_empty() {
        0.0
    } else {
        median(&overhead)
    };
    outcome.metrics = vec![
        ("setup.host_ns", median(&setup)),
        ("run.host_ns", median(&run)),
        ("calq.host_ns", layer_ns(Layer::Calq)),
        ("calq.calls", calls(Layer::Calq)),
        ("writer.host_ns", layer_ns(Layer::Writer)),
        ("writer.calls", calls(Layer::Writer)),
        ("medium.host_ns", layer_ns(Layer::Medium)),
        ("medium.calls", calls(Layer::Medium)),
        ("server.host_ns", layer_ns(Layer::Server)),
        ("server.calls", calls(Layer::Server)),
        (
            "driver.self_ns",
            layer_median(&|t| t.driver_self_ns() as f64),
        ),
        ("trace.overhead_pct", overhead),
        (
            "trace.unaccounted_pct",
            layer_median(&|t| 100.0 * t.unaccounted_frac()),
        ),
    ];
    let counts = reference.sim_counts();
    outcome.metrics.extend(counts[..3].iter().copied());
    let util = if medium.1 > 0.0 {
        medium.0 / medium.1
    } else {
        0.0
    };
    outcome.metrics.push(("medium.util_pct", util));
    outcome.metrics.push(("medium.lost", medium.2 as f64));
    outcome.metrics.extend(counts[3..].iter().copied());
    Ok(())
}

/// The result line.  `units` lists the metrics in the order they were
/// measured.
fn render_json(outcome: &Outcome, units: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, ((name, value), (_, unit))) in outcome.metrics.iter().zip(units).enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    )
}

fn run_one(workload: Workload, opts: &Options) -> ExitCode {
    println!("fingerprint: {}", fingerprint());
    println!(
        "workload: {} (seed {}; {}), trace {}",
        workload.name(),
        opts.seed,
        if workload.seeded() {
            "seeds the SFS request streams"
        } else {
            "no random input, the seed is not used"
        },
        u8::from(opts.trace),
    );
    let outcome = match measure(workload, opts) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(1);
        }
    };
    let units: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let expected: Vec<&str> = units.iter().map(|(n, _)| *n).collect();
    let got: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        got, expected,
        "metric list out of step with its declaration"
    );
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: {}: metric {name} is {value}", workload.name());
        return ExitCode::from(1);
    }
    println!(
        "passes: {}   sim digest: {:016x}   attempted {}  failed {}",
        outcome.passes, outcome.sim_digest, outcome.attempted, outcome.failed
    );
    for ((name, value), (_, unit)) in outcome.metrics.iter().zip(units) {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    if opts.trace && !traced(workload) {
        println!(
            "  (host time on {} splits only into set-up and run: the SFS driver's event loop \
             is private, so the calq, writer, medium, server and driver spans read 0)",
            workload.name()
        );
    }
    println!("{}", render_json(&outcome, units));
    ExitCode::SUCCESS
}

/// Runs every workload, each in a process of its own so that its peak RSS
/// is its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--workload" {
                it.next();
                child_args.extend(["--workload".into(), workload.name().into()]);
            } else {
                child_args.push(arg.clone());
            }
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            Ok(_) => status = ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name());
                status = ExitCode::from(1);
            }
        }
    }
    status
}

/// Reads a saved output: its fingerprint line and its metrics.
fn read_result(path: &PathBuf) -> Result<(String, Vec<(String, f64)>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let fingerprint = text
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint: "))
        .ok_or(format!("{}: no fingerprint line", path.display()))?
        .to_string();
    let json = text
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"correct\""))
        .ok_or(format!("{}: no result line", path.display()))?;
    let mut metrics = Vec::new();
    let body = json
        .split_once("\"metrics\": {")
        .ok_or(format!("{}: result line has no metrics", path.display()))?
        .1;
    for entry in body.split("}, \"").map(|e| e.trim_start_matches('"')) {
        let (name, rest) = entry
            .split_once("\": {\"value\": ")
            .ok_or("malformed metric")?;
        let value = rest.split(',').next().unwrap_or("").trim();
        let value: f64 = value
            .parse()
            .map_err(|_| format!("malformed value {value:?}"))?;
        metrics.push((name.to_string(), value));
    }
    Ok((fingerprint, metrics))
}

fn compare(old: &PathBuf, new: &PathBuf) -> ExitCode {
    let (a, b) = match (read_result(old), read_result(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.0 != b.0 {
        println!("incomparable: the host fingerprints differ");
        println!("  {}: {}", old.display(), a.0);
        println!("  {}: {}", new.display(), b.0);
        return ExitCode::from(3);
    }
    println!(
        "{:<34} {:>18} {:>18} {:>9}",
        "metric", "old", "new", "new/old"
    );
    for (name, old_value) in &a.1 {
        match b.1.iter().find(|(n, _)| n == name) {
            Some((_, new_value)) => println!(
                "{name:<34} {old_value:>18.6} {new_value:>18.6} {:>9.4}",
                new_value / old_value
            ),
            None => println!("{name:<34} {old_value:>18.6} {:>18}", "missing"),
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(msg) => {
            eprintln!("perfbench: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Request::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Request::Compare(old, new)) => compare(&old, &new),
        Ok(Request::Run(opts)) => match opts.workload {
            Some(workload) => run_one(workload, &opts),
            None => run_all(&args),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bad_usage_is_an_error_not_a_panic() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload paper_copy --trace 2",
            "--workload paper_copy --seed x",
            "--workload paper_copy --seconds -1",
            "--workload paper_copy --bogus",
            "--workload sfs_knee --trace 1 --spans x.csv",
            "--workload paper_copy --spans x.csv",
            "--compare only_one",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
        assert!(matches!(parse(&args("--help")), Ok(Request::Help)));
        assert!(matches!(
            parse(&args("--workload sfs_knee --seed 7 --seconds 1 --trace 1")),
            Ok(Request::Run(Options {
                workload: Some(Workload::SfsKnee),
                seed: 7,
                trace: true,
                ..
            }))
        ));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
