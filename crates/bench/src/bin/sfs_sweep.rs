//! SFS scale-out sweep: the Figure 2 throughput/latency curve measured twice
//! — once with the original single-generator harness against the paper's
//! monolithic server (the `"baseline"` curve) and once with N generator
//! streams over per-client LANs through the sharded, multi-core, pipelined
//! server (the `"current"` curve).
//!
//! Every point is checked for a clean run: zero `InProgress` duplicate-cache
//! evictions (the §6.9 orphaned-write hazard) and zero payload
//! materialisations (the zero-copy datapath).  In a full (non-`--smoke`) run
//! the sweep also asserts the headline results:
//!
//! * **knee shift** — the scaled configuration's peak achieved ops/sec beats
//!   the single-client baseline's by ≥ 1.3× at equal-or-lower average
//!   latency, and
//! * **parallel sweep** — running the independent load points on a worker
//!   pool is ≥ 2× faster in wall-clock than the serial runner, with
//!   bit-identical output points.
//!
//! The sweep also records the **stability ablation** — the three ways the
//! write path can promise durability, measured over the SFS mix and the file
//! copy: `sync` (the paper's synchronous FILE_SYNC writes), `nvram`
//! (Prestoserve absorbing the sync writes), and `unstable` (the NFSv3-style
//! `WRITE(UNSTABLE)` + `COMMIT` protocol over the bounded unified buffer
//! cache — the experiment the paper could not run).  A fourth SFS cell runs
//! the unstable mode in the **memory-pressure regime** (cache smaller than
//! the working set) and asserts the bounded cache actually evicts and
//! throttles instead of silently behaving like the old infinite store.
//! Every cell ends with an unmount-style quiesce and asserts zero
//! acknowledged-and-lost bytes and zero bytes left uncommitted.
//!
//! Results are merged into `BENCH_writepath.json` under the `"sfs_scale"`
//! and `"stability"` keys (the other bench binaries preserve them when they
//! rewrite the file).
//!
//! ```text
//! cargo run --release -p wg-bench --bin sfs_sweep                   # full sweep
//! cargo run --release -p wg-bench --bin sfs_sweep -- --smoke --clients 4 --shards 4 --spindles 6 --overlap
//! cargo run --release -p wg-bench --bin sfs_sweep -- --smoke --stability all --unified-cache
//! cargo run --release -p wg-bench --bin sfs_sweep -- --clients 8 --lans --threads 8
//! cargo run --release -p wg-bench --bin sfs_sweep -- --out other.json
//! cargo run --release -p wg-bench --bin sfs_sweep -- --help
//! ```
//!
//! `--help` prints the usage and exits 0; an unknown flag, a missing value
//! or a non-numeric value prints the usage and exits 2.

use std::time::Instant;

use wg_bench::cli::{self, Args};
use wg_bench::report::{host_parallelism, stamp_cell, upsert_object};
use wg_server::{StabilityMode, WritePolicy};
use wg_workload::results::json;
use wg_workload::sfs::SfsSystem;
use wg_workload::{
    ExperimentConfig, FileCopySystem, MultiClientConfig, MultiClientSystem, NetworkKind, SfsConfig,
    SfsRunStats, SfsSweep,
};

/// Offered loads of the full sweep: the figure range plus enough headroom to
/// find the scaled configuration's knee.
const FULL_LOADS: [f64; 15] = [
    200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2400.0, 2800.0,
    3200.0, 4000.0, 4800.0,
];

/// One measured curve: per-point stats plus the sweep's wall clocks.
struct Curve {
    config: SfsConfig,
    stats: Vec<SfsRunStats>,
    serial_wall_ms: f64,
    parallel_wall_ms: f64,
    threads: usize,
}

impl Curve {
    /// The peak point: highest achieved ops/sec over the curve.
    fn peak(&self) -> &SfsRunStats {
        self.stats
            .iter()
            .max_by(|a, b| {
                a.point
                    .achieved_ops_per_sec
                    .total_cmp(&b.point.achieved_ops_per_sec)
            })
            .expect("curve has points")
    }

    fn parallel_speedup(&self) -> f64 {
        self.serial_wall_ms / self.parallel_wall_ms.max(1e-9)
    }

    fn to_json(&self) -> String {
        let points: Vec<String> = self.stats.iter().map(|s| s.to_json()).collect();
        let peak = self.peak();
        json::object(&[
            ("clients", self.config.clients.to_string()),
            ("shards", self.config.shards.to_string()),
            ("cores", self.config.cores.to_string()),
            ("spindles", self.config.spindles.to_string()),
            ("io_overlap", self.config.io_overlap.to_string()),
            ("per_client_lans", self.config.per_client_lans.to_string()),
            ("inode_groups", self.config.inode_groups.to_string()),
            ("read_caching", self.config.read_caching.to_string()),
            (
                "duration_secs",
                json::number(self.config.duration.as_secs_f64()),
            ),
            (
                "peak_achieved_ops_per_sec",
                json::number(peak.point.achieved_ops_per_sec),
            ),
            (
                "peak_avg_latency_ms",
                json::number(peak.point.avg_latency_ms),
            ),
            ("serial_wall_ms", json::number(self.serial_wall_ms)),
            ("parallel_wall_ms", json::number(self.parallel_wall_ms)),
            ("threads", self.threads.to_string()),
            ("host_parallelism", host_parallelism().to_string()),
            ("parallel_speedup", json::number(self.parallel_speedup())),
            ("points", json::array(&points)),
        ])
    }
}

/// Run one curve: a timed serial pass collecting health counters, then a
/// timed parallel pass that must reproduce the points bit-identically.
fn run_curve(label: &str, config: SfsConfig, loads: &[f64], threads: usize) -> Curve {
    let sweep = SfsSweep::new(config.clone());
    let serial_start = Instant::now();
    let stats = sweep.run_stats(loads);
    let serial_wall_ms = serial_start.elapsed().as_secs_f64() * 1e3;
    let parallel_start = Instant::now();
    let parallel = sweep.run_parallel(loads, threads);
    let parallel_wall_ms = parallel_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(parallel.len(), stats.len());
    for (serial, parallel) in stats.iter().zip(parallel.iter()) {
        assert!(
            serial.point.achieved_ops_per_sec == parallel.achieved_ops_per_sec
                && serial.point.avg_latency_ms == parallel.avg_latency_ms
                && serial.point.server_cpu_percent == parallel.server_cpu_percent,
            "{label}: parallel sweep diverged from serial at offered {} ops/s",
            serial.point.offered_ops_per_sec
        );
    }
    for s in &stats {
        assert_eq!(
            s.evicted_in_progress, 0,
            "{label} @ {} ops/s: dupcache evicted an InProgress entry: a \
             deferred gathered-write reply could have been orphaned (§6.9)",
            s.point.offered_ops_per_sec
        );
        assert_eq!(
            s.materializations, 0,
            "{label} @ {} ops/s: the zero-copy datapath materialised a payload",
            s.point.offered_ops_per_sec
        );
        assert_eq!(
            s.clamped_past, 0,
            "{label} @ {} ops/s: an event was scheduled into the past and \
             silently clamped",
            s.point.offered_ops_per_sec
        );
        println!(
            "{label:<9} offered {:>6.0}  achieved {:>7.1} ops/s  latency {:>9.2} ms  \
             cpu {:>5.1}%  fairness {:.3}  mints {}",
            s.point.offered_ops_per_sec,
            s.point.achieved_ops_per_sec,
            s.point.avg_latency_ms,
            s.point.server_cpu_percent,
            s.fairness,
            s.name_mints,
        );
    }
    println!(
        "{label:<9} sweep wall: serial {serial_wall_ms:.1} ms, parallel {parallel_wall_ms:.1} ms \
         on {threads} threads ({:.2}x)",
        serial_wall_ms / parallel_wall_ms.max(1e-9)
    );
    Curve {
        config,
        stats,
        serial_wall_ms,
        parallel_wall_ms,
        threads,
    }
}

/// One stability-ablation cell over the SFS mix: the workload run to
/// completion, the server quiesced (an unmount-style drain of the
/// write-behind cache), and the durability ledger asserted clean.
#[allow(clippy::too_many_arguments)]
fn run_stability_sfs_cell(
    label: &str,
    presto: bool,
    stability: StabilityMode,
    cache_pages: u64,
    dirty_ratio: f64,
    load: f64,
    secs: u64,
    expect_pressure: bool,
) -> String {
    let mut config = if presto {
        SfsConfig::figure3(load, WritePolicy::Gathering)
    } else {
        SfsConfig::figure2(load, WritePolicy::Gathering)
    };
    config.duration = wg_simcore::Duration::from_secs(secs);
    let config = config
        .with_unified_cache(cache_pages)
        .with_dirty_ratio(dirty_ratio)
        .with_stability(stability);
    let before = wg_nfsproto::payload::materialize_count();
    let mut system = SfsSystem::new(config);
    let point = system.run();
    let materializations = wg_nfsproto::payload::materialize_count() - before;
    system.quiesce_server();
    let evicted = system.server().dupcache_evicted_in_progress();
    let uncommitted = system.server().uncommitted_bytes();
    let stats = system.server().stats();
    let fs = system.server().fs().counters();

    assert_eq!(
        stats.lost_acked_bytes, 0,
        "{label}: acknowledged write data was lost without a crash"
    );
    assert_eq!(
        uncommitted, 0,
        "{label}: the quiesce left acknowledged-unstable bytes uncommitted"
    );
    assert_eq!(
        stats.forced_file_sync, 0,
        "{label}: the server downgraded an unstable write with a healthy battery"
    );
    assert_eq!(evicted, 0, "{label}: dupcache evicted an InProgress entry");
    assert_eq!(
        materializations, 0,
        "{label}: the zero-copy datapath materialised a payload"
    );
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );
    match stability {
        StabilityMode::Unstable => {
            assert!(
                stats.unstable_writes > 0 && stats.commits > 0,
                "{label}: the unstable cell never spoke WRITE(UNSTABLE)+COMMIT"
            );
        }
        StabilityMode::Stable => {
            assert_eq!(
                stats.unstable_writes + stats.commits,
                0,
                "{label}: a FILE_SYNC cell spoke the v3 protocol"
            );
        }
    }
    if expect_pressure {
        // The whole point of the memory-pressure cell: a cache smaller than
        // the working set must evict and throttle, not silently behave like
        // the old infinite store.
        assert!(
            fs.cache_evictions > 0,
            "{label}: cache smaller than the working set never evicted"
        );
        assert!(
            fs.throttle_stalls > 0,
            "{label}: dirty ratio over threshold never throttled a writer"
        );
    }

    println!(
        "{label:<18} achieved {:>7.1} ops/s  latency {:>8.2} ms  unstable {:>6}  \
         commits {:>4}  evictions {:>6}  throttle {:>5}  writeback {:>6}  \
         lost_acked {}  uncommitted {}",
        point.achieved_ops_per_sec,
        point.avg_latency_ms,
        stats.unstable_writes,
        stats.commits,
        fs.cache_evictions,
        fs.throttle_stalls,
        fs.writeback_blocks,
        stats.lost_acked_bytes,
        uncommitted,
    );
    let mut fields = vec![
        (
            "stability",
            json::string(match stability {
                StabilityMode::Stable => "file_sync",
                StabilityMode::Unstable => "unstable",
            }),
        ),
        ("prestoserve", presto.to_string()),
        ("cache_pages", cache_pages.to_string()),
        ("dirty_ratio", json::number(dirty_ratio)),
        (
            "offered_ops_per_sec",
            json::number(point.offered_ops_per_sec),
        ),
        (
            "achieved_ops_per_sec",
            json::number(point.achieved_ops_per_sec),
        ),
        ("avg_latency_ms", json::number(point.avg_latency_ms)),
        ("unstable_writes", stats.unstable_writes.to_string()),
        ("commits", stats.commits.to_string()),
        ("forced_file_sync", stats.forced_file_sync.to_string()),
        ("cache_evictions", fs.cache_evictions.to_string()),
        ("throttle_stalls", fs.throttle_stalls.to_string()),
        ("writeback_blocks", fs.writeback_blocks.to_string()),
        ("lost_acked_bytes", stats.lost_acked_bytes.to_string()),
        ("lost_unstable_bytes", stats.lost_unstable_bytes.to_string()),
        ("uncommitted_after_quiesce", uncommitted.to_string()),
        ("evicted_in_progress", evicted.to_string()),
        ("materializations", materializations.to_string()),
    ];
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// One stability-ablation cell over the file copy: the 4-biod FDDI copy in
/// each durability mode, the client committing its unstable ranges at close.
fn run_stability_copy_cell(
    label: &str,
    presto: bool,
    stability: StabilityMode,
    cache_pages: u64,
    file_mb: u64,
) -> String {
    let config = ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
        .with_presto(presto)
        .with_file_size(file_mb * 1024 * 1024)
        .with_unified_cache(cache_pages)
        .with_stability(stability);
    let mut system = FileCopySystem::new(config);
    let result = system.run();
    let stats = system.server().stats();
    let client = system.client().stats();

    assert!(result.completed, "{label}: the copy did not complete");
    assert_eq!(
        stats.lost_acked_bytes, 0,
        "{label}: acknowledged write data was lost without a crash"
    );
    assert_eq!(
        system.lost_acked_bytes_on_disk(),
        0,
        "{label}: acknowledged data missing from the on-disk file"
    );
    assert_eq!(
        system.server().uncommitted_bytes(),
        0,
        "{label}: the client closed with acknowledged-unstable bytes uncommitted"
    );
    assert!(
        system.client().uncommitted_ranges().is_empty(),
        "{label}: the client still tracks uncommitted ranges after close"
    );
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );
    if stability == StabilityMode::Unstable {
        assert!(
            stats.unstable_writes > 0 && client.commits_sent > 0,
            "{label}: the unstable copy never spoke WRITE(UNSTABLE)+COMMIT"
        );
    }

    println!(
        "{label:<18} {:>7.0} KB/s  unstable {:>6}  commits {:>3}  \
         mismatches {}  lost_acked {}  completed {}",
        result.client_write_kb_per_sec,
        stats.unstable_writes,
        client.commits_sent,
        client.verifier_mismatches,
        stats.lost_acked_bytes,
        result.completed,
    );
    let mut fields = vec![
        (
            "stability",
            json::string(match stability {
                StabilityMode::Stable => "file_sync",
                StabilityMode::Unstable => "unstable",
            }),
        ),
        ("prestoserve", presto.to_string()),
        ("cache_pages", cache_pages.to_string()),
        ("file_mb", file_mb.to_string()),
        (
            "client_write_kb_per_sec",
            json::number(result.client_write_kb_per_sec),
        ),
        ("unstable_writes", stats.unstable_writes.to_string()),
        ("commits_sent", client.commits_sent.to_string()),
        (
            "verifier_mismatches",
            client.verifier_mismatches.to_string(),
        ),
        ("lost_acked_bytes", stats.lost_acked_bytes.to_string()),
        ("completed", result.completed.to_string()),
    ];
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// One commit-pacing cell: the unstable multi-client fan-in with the client
/// either batching its whole file behind one close-time COMMIT
/// (`commit_interval = 0`, the default) or paying a COMMIT every
/// `commit_interval` acknowledged bytes.  Pacing trades commit traffic for a
/// bounded unstable backlog; either way the run must end fully committed,
/// verified on disk, with zero acknowledged loss.
fn run_commit_pacing_cell(
    label: &str,
    commit_interval: u64,
    cache_pages: u64,
    file_mb: u64,
) -> String {
    let config = MultiClientConfig::new(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
        .with_bytes_per_client(file_mb * 1024 * 1024)
        .with_unified_cache(cache_pages)
        .with_stability(StabilityMode::Unstable)
        .with_commit_interval(commit_interval);
    let mut system = MultiClientSystem::new(config);
    let result = system.run();
    let stats = system.server().stats();
    let paced = system.paced_commits();

    assert!(result.completed, "{label}: a client never finished");
    system
        .verify_on_disk()
        .unwrap_or_else(|e| panic!("{label}: on-disk verification failed: {e}"));
    assert_eq!(
        stats.lost_acked_bytes, 0,
        "{label}: acknowledged write data was lost without a crash"
    );
    assert_eq!(
        system.server().uncommitted_bytes(),
        0,
        "{label}: the run ended with acknowledged-unstable bytes uncommitted"
    );
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );
    if commit_interval == 0 {
        assert_eq!(paced, 0, "{label}: pacing fired with the knob off");
    } else {
        // Each client writes file_mb MB: pacing at `commit_interval` bytes
        // must fire well before close.
        assert!(paced > 0, "{label}: the pacing knob never issued a COMMIT");
    }

    println!(
        "{label:<18} {:>7.0} KB/s  commits {:>4}  paced {:>4}  unstable {:>6}  \
         lost_acked {}",
        result.aggregate_kb_per_sec,
        stats.commits,
        paced,
        stats.unstable_writes,
        stats.lost_acked_bytes,
    );
    let mut fields = vec![
        ("commit_interval_bytes", commit_interval.to_string()),
        ("file_mb", file_mb.to_string()),
        ("cache_pages", cache_pages.to_string()),
        (
            "aggregate_kb_per_sec",
            json::number(result.aggregate_kb_per_sec),
        ),
        ("commits", stats.commits.to_string()),
        ("paced_commits", paced.to_string()),
        ("unstable_writes", stats.unstable_writes.to_string()),
        ("lost_acked_bytes", stats.lost_acked_bytes.to_string()),
        ("completed", result.completed.to_string()),
    ];
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// Dirty-ratio threshold of the memory-pressure cell: tight enough that the
/// tiny cache's writers must stall on writeback instead of dirtying freely.
const PRESSURE_DIRTY_RATIO: f64 = 0.05;

/// The three-way stability ablation (sync vs NVRAM vs unstable+COMMIT) over
/// the SFS mix and the file copy, plus the memory-pressure cell.  `modes`
/// filters which durability modes run; the recorded object carries only the
/// cells that ran.
fn run_stability_ablation(
    modes: &str,
    cache_pages: u64,
    sync_cache_pages: u64,
    dirty_ratio: f64,
    smoke: bool,
) -> String {
    let (load, secs, file_mb, pressure_pages) = if smoke {
        (300.0, 3, 1, 64)
    } else {
        (800.0, 10, 4, 128)
    };
    let stable = modes == "all" || modes == "stable";
    let unstable = modes == "all" || modes == "unstable";

    let mut sfs_cells: Vec<(&str, String)> = Vec::new();
    let mut copy_cells: Vec<(&str, String)> = Vec::new();
    if stable {
        sfs_cells.push((
            "sync",
            run_stability_sfs_cell(
                "sfs_sync",
                false,
                StabilityMode::Stable,
                sync_cache_pages,
                dirty_ratio,
                load,
                secs,
                false,
            ),
        ));
        sfs_cells.push((
            "nvram",
            run_stability_sfs_cell(
                "sfs_nvram",
                true,
                StabilityMode::Stable,
                0,
                dirty_ratio,
                load,
                secs,
                false,
            ),
        ));
        copy_cells.push((
            "sync",
            run_stability_copy_cell("copy_sync", false, StabilityMode::Stable, 0, file_mb),
        ));
        copy_cells.push((
            "nvram",
            run_stability_copy_cell("copy_nvram", true, StabilityMode::Stable, 0, file_mb),
        ));
    }
    if unstable {
        sfs_cells.push((
            "unstable",
            run_stability_sfs_cell(
                "sfs_unstable",
                false,
                StabilityMode::Unstable,
                cache_pages,
                dirty_ratio,
                load,
                secs,
                false,
            ),
        ));
        // The memory-pressure regime: a cache far smaller than the working
        // set, with a correspondingly tight dirty threshold — a handful of
        // dirty pages is all the tiny cache can absorb before writers must
        // wait on the flush.
        sfs_cells.push((
            "unstable_pressure",
            run_stability_sfs_cell(
                "sfs_unstable_mp",
                false,
                StabilityMode::Unstable,
                pressure_pages,
                PRESSURE_DIRTY_RATIO,
                load,
                secs,
                true,
            ),
        ));
        copy_cells.push((
            "unstable",
            run_stability_copy_cell(
                "copy_unstable",
                false,
                StabilityMode::Unstable,
                cache_pages,
                file_mb,
            ),
        ));
    }

    // The commit-pacing comparison rides on the unstable modes: the same
    // fan-in with close-only COMMITs vs a COMMIT every 256 KiB of
    // acknowledged data.
    let mut pacing_cells: Vec<(&str, String)> = Vec::new();
    if unstable {
        pacing_cells.push((
            "close_only",
            run_commit_pacing_cell("pace_close_only", 0, cache_pages, file_mb),
        ));
        pacing_cells.push((
            "paced_256k",
            run_commit_pacing_cell("pace_256k", 256 * 1024, cache_pages, file_mb),
        ));
    }

    json::object(&[
        ("modes", json::string(modes)),
        ("smoke", smoke.to_string()),
        ("secs", secs.to_string()),
        ("offered_ops_per_sec", json::number(load)),
        ("cache_pages", cache_pages.to_string()),
        ("pressure_cache_pages", pressure_pages.to_string()),
        ("dirty_ratio", json::number(dirty_ratio)),
        ("sfs", json::object(&sfs_cells)),
        ("copy", json::object(&copy_cells)),
        ("commit_pacing", json::object(&pacing_cells)),
    ])
}

const USAGE: &str = "\
usage: sfs_sweep [--smoke] [--out PATH] [--clients N] [--shards N] [--cores N]
                 [--spindles N] [--inode-groups N] [--threads N] [--secs N]
                 [--loads A,B,C] [--overlap | --no-overlap] [--lans | --no-lans]
                 [--read-caching | --no-read-caching] [--stability MODE]
                 [--unified-cache] [--cache-pages N] [--dirty-ratio X]
       sfs_sweep --help

  --smoke             short sweep (3 s, two loads) without the headline asserts
  --out PATH          report to merge into (default BENCH_writepath.json)
  --clients N         generator streams of the scaled curve (default 4)
  --shards N          server request-path shards of the scaled curve
  --cores N           server CPU cores of the scaled curve
  --spindles N        stripe-set disks of the scaled curve
  --inode-groups N    inode groups of the scaled curve's filesystem
  --threads N         worker threads running independent load points (default 4)
  --secs N            simulated seconds per point (default 20, smoke 3)
  --loads A,B,C       offered loads in ops/s
  --overlap, --lans, --read-caching
                      switch scaled-stack pieces on (the default) or off (--no-*)
  --stability MODE    durability modes of the ablation: stable, unstable or all
  --unified-cache     also bound the sync cell's page cache
  --cache-pages N     unified cache size of the ablation cells (default 4096)
  --dirty-ratio X     dirty-page throttle fraction (default 0.5)";

/// Parsed command line.  Scaled-stack defaults come from the one canonical
/// definition (`SfsConfig::scaled`, also what tests/sfs_scale.rs measures)
/// so the recorded "current" curve cannot drift from it.
struct Options {
    out_path: String,
    smoke: bool,
    clients: usize,
    shards: usize,
    cores: usize,
    spindles: usize,
    overlap: bool,
    lans: bool,
    inode_groups: usize,
    read_caching: bool,
    threads: usize,
    secs: Option<u64>,
    loads: Option<Vec<f64>>,
    stability: String,
    unified_cache: bool,
    cache_pages: u64,
    dirty_ratio: f64,
}

/// Read the flags.
fn parse_args(args: &mut Args) -> Result<Options, String> {
    let scaled = SfsConfig::scaled(0.0, WritePolicy::Gathering, 4);
    let mut opts = Options {
        out_path: "BENCH_writepath.json".to_string(),
        smoke: false,
        clients: scaled.clients,
        shards: scaled.shards,
        cores: scaled.cores,
        spindles: scaled.spindles,
        overlap: scaled.io_overlap,
        lans: scaled.per_client_lans,
        inode_groups: scaled.inode_groups,
        read_caching: scaled.read_caching,
        threads: 4,
        secs: None,
        loads: None,
        stability: "all".to_string(),
        unified_cache: false,
        cache_pages: 4096,
        dirty_ratio: 0.5,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--out" => opts.out_path = args.value(&flag, "a path")?,
            "--smoke" => opts.smoke = true,
            "--clients" => opts.clients = args.number(&flag)?,
            "--shards" => opts.shards = args.number(&flag)?,
            "--cores" => opts.cores = args.number(&flag)?,
            "--spindles" => opts.spindles = args.number(&flag)?,
            "--inode-groups" => opts.inode_groups = args.number(&flag)?,
            "--threads" => opts.threads = args.number(&flag)?,
            "--secs" => opts.secs = Some(args.number(&flag)?),
            "--loads" => opts.loads = Some(args.numbers(&flag)?),
            // The scaled topology is the default; the bare flags exist so CI
            // invocations can spell the configuration out, and the --no-*
            // forms give ablations a way to switch pieces off.
            "--overlap" => opts.overlap = true,
            "--no-overlap" => opts.overlap = false,
            "--lans" => opts.lans = true,
            "--no-lans" => opts.lans = false,
            "--read-caching" => opts.read_caching = true,
            "--no-read-caching" => opts.read_caching = false,
            "--stability" => {
                opts.stability = args.value(&flag, "stable|unstable|all")?;
                if !matches!(opts.stability.as_str(), "stable" | "unstable" | "all") {
                    return Err("--stability needs stable|unstable|all".to_string());
                }
            }
            "--unified-cache" => opts.unified_cache = true,
            "--cache-pages" => opts.cache_pages = args.number(&flag)?,
            "--dirty-ratio" => opts.dirty_ratio = args.number(&flag)?,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn main() {
    let Options {
        out_path,
        smoke,
        clients,
        shards,
        cores,
        spindles,
        overlap,
        lans,
        inode_groups,
        read_caching,
        threads,
        secs,
        loads,
        stability,
        unified_cache,
        cache_pages,
        dirty_ratio,
    } = cli::parse_or_exit("sfs_sweep", USAGE, parse_args);

    // Smoke shortens the sweep, but an explicit --secs/--loads always wins
    // regardless of where it sits on the command line.
    let secs = secs.unwrap_or(if smoke { 3 } else { 20 });
    let loads = loads.unwrap_or_else(|| {
        if smoke {
            vec![300.0, 900.0]
        } else {
            FULL_LOADS.to_vec()
        }
    });
    let duration = wg_simcore::Duration::from_secs(secs);
    let mut baseline_config = SfsConfig::figure2(0.0, WritePolicy::Gathering);
    baseline_config.duration = duration;
    let mut current_config = SfsConfig::scaled(0.0, WritePolicy::Gathering, clients)
        .with_shards(shards)
        .with_cores(cores)
        .with_spindles(spindles)
        .with_io_overlap(overlap)
        .with_per_client_lans(lans)
        .with_inode_groups(inode_groups)
        .with_read_caching(read_caching);
    current_config.duration = duration;

    let baseline = run_curve("baseline", baseline_config, &loads, threads);
    let current = run_curve("current", current_config, &loads, threads);

    let base_peak = baseline.peak();
    let cur_peak = current.peak();
    let peak_ratio =
        cur_peak.point.achieved_ops_per_sec / base_peak.point.achieved_ops_per_sec.max(1e-9);
    println!(
        "knee shift: baseline peak {:.1} ops/s @ {:.1} ms -> current peak {:.1} ops/s @ {:.1} ms \
         ({peak_ratio:.2}x)",
        base_peak.point.achieved_ops_per_sec,
        base_peak.point.avg_latency_ms,
        cur_peak.point.achieved_ops_per_sec,
        cur_peak.point.avg_latency_ms,
    );
    if !smoke {
        // The headline asserts only make sense at full duration and span.
        assert!(
            peak_ratio >= 1.3,
            "the scaled configuration's knee did not shift: {peak_ratio:.2}x < 1.3x"
        );
        assert!(
            cur_peak.point.avg_latency_ms <= base_peak.point.avg_latency_ms,
            "the scaled peak pays more latency than the baseline knee: {:.1} ms > {:.1} ms",
            cur_peak.point.avg_latency_ms,
            base_peak.point.avg_latency_ms
        );
        // The bit-identity of parallel vs serial points is asserted in every
        // run (see `run_curve`); the wall-clock win can only exist where the
        // host actually has cores to run the workers on.
        let host = host_parallelism();
        if loads.len() >= 8 && threads >= 4 && host >= 4 {
            let speedup = current.parallel_speedup();
            assert!(
                speedup >= 2.0,
                "parallel sweep speedup {speedup:.2}x < 2x on {threads} threads \
                 over {} points",
                loads.len()
            );
        } else if host < 4 {
            println!(
                "note: host offers {host} CPU(s); recording the parallel wall \
                 clock without asserting the >=2x speedup"
            );
        }
    }

    let sfs_scale = json::object(&[
        ("baseline", baseline.to_json()),
        ("current", current.to_json()),
        (
            "knee_shift",
            json::object(&[
                (
                    "baseline_peak_ops_per_sec",
                    json::number(base_peak.point.achieved_ops_per_sec),
                ),
                (
                    "current_peak_ops_per_sec",
                    json::number(cur_peak.point.achieved_ops_per_sec),
                ),
                ("peak_ratio", json::number(peak_ratio)),
                (
                    "baseline_peak_latency_ms",
                    json::number(base_peak.point.avg_latency_ms),
                ),
                (
                    "current_peak_latency_ms",
                    json::number(cur_peak.point.avg_latency_ms),
                ),
            ]),
        ),
    ]);
    // The three-way durability ablation: sync vs NVRAM vs unstable+COMMIT,
    // over the SFS mix and the file copy, plus the memory-pressure cell.
    // `--unified-cache` additionally bounds the sync cell's page cache (the
    // default sync cell keeps the paper's write path untouched).
    let sync_cache_pages = if unified_cache { cache_pages } else { 0 };
    let stability_cells = run_stability_ablation(
        &stability,
        cache_pages,
        sync_cache_pages,
        dirty_ratio,
        smoke,
    );

    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    let report = upsert_object(&previous, "sfs_scale", &sfs_scale);
    let report = upsert_object(&report, "stability", &stability_cells);
    std::fs::write(&out_path, report).expect("write report");
    println!("wrote {out_path}");
}
