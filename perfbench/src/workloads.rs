//! The four benchmark workloads, each run as repeatable passes.
//!
//! A pass builds every simulated system the workload needs, runs it, checks
//! the universal oracles and folds the simulated results into a [`Tally`].
//! Only the `::new` constructors (set-up) and the `run` calls are timed;
//! result collection and oracle checks sit outside both.

use std::time::{Duration as HostDuration, Instant};

use wg_bench::{paper, TABLES};
use wg_nfsproto::payload::materialize_count;
use wg_server::{NfsServer, StabilityMode, WritePolicy};
use wg_simcore::{CalStats, Duration, LatencyStat};
use wg_workload::sfs::SfsSystem;
use wg_workload::{
    ExperimentConfig, FileCopyResult, FileCopySystem, MultiClientConfig, MultiClientResult,
    MultiClientSystem, NetworkKind, SfsConfig,
};

/// The SPEC SFS 1.0 mean-latency limit a ladder point must meet to count
/// toward capacity.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// The named workloads, in the order `--workload all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own experiment: every cell of Tables 1–6, both policies,
    /// 10 MB per copy.
    PaperCopy,
    /// The Figure 2 and Figure 3 SFS ladders, both policies, across the knee.
    SfsKnee,
    /// Sixteen concurrent unstable writers overflowing an 8 MB server cache.
    FaninUnstable,
    /// 256 lease-holding SFS clients with churn on the sharded server.
    LeaseStorm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCopy,
        Workload::SfsKnee,
        Workload::FaninUnstable,
        Workload::LeaseStorm,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCopy => "paper_copy",
            Workload::SfsKnee => "sfs_knee",
            Workload::FaninUnstable => "fanin_unstable",
            Workload::LeaseStorm => "lease_storm",
        }
    }

    /// Parse a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `--seed` reaches the simulated inputs.  The copy workloads
    /// have no random input: their clients write a fixed fill pattern.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::SfsKnee | Workload::LeaseStorm)
    }
}

/// How large a pass is: the measured size, or a tiny one for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// A few milliseconds per pass; exercises every code path.
    Smoke,
}

/// The offered loads of the `sfs_knee` ladder (ops/s).  The Figure 2
/// curves bend between 100 and 400 ops/s and the Figure 3 ones near 500, so
/// the ladder is dense there and stops at 1000, where every curve is past
/// its knee and the socket buffer drops calls.
pub const SFS_LADDER: [f64; 10] = [
    50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 600.0, 800.0, 1000.0,
];

/// Simulated seconds per `sfs_knee` point.
pub const SFS_SECONDS: u64 = 30;

/// The fixed `sfs_knee` rate below every curve's knee at which latency is
/// read.
pub const SFS_REFERENCE_RATE: f64 = 100.0;

/// Simulated seconds of the reference point.  Mean latency near a knee
/// swings with the arrival pattern, so the reference point runs ten times
/// longer than the others to hold its seed-to-seed spread to a few percent.
pub const SFS_REFERENCE_SECONDS: u64 = 300;

/// One point of a curve: what the modelled server delivered at one rung of
/// a load ladder (an SFS offered rate, or a copy's biod count).
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// NFS operations completed per simulated second.
    pub ops_s: f64,
    /// Mean latency in simulated milliseconds: the SFS client's mean call
    /// latency, or for a copy the server's mean WRITE residence.
    pub latency_ms: f64,
    /// Write throughput in KB per simulated second: the copy client's
    /// write speed, or for SFS the server's completed-WRITE throughput.
    pub write_kb_s: f64,
    /// Whether the point is one of the workload's reference points, at which
    /// `sim_latency_ms` and the residence percentiles are read.
    pub reference: bool,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Tally {
    /// Host time spent in the systems' `::new` constructors.
    pub setup: HostDuration,
    /// Host time spent in the systems' `run` calls.
    pub run: HostDuration,
    /// Load ladders, each a list of points in rising load.
    pub curves: Vec<Vec<Point>>,
    /// Simulated events processed.
    pub events: u64,
    /// Operations attempted (WRITE RPCs sent, or SFS calls issued).
    pub attempted: u64,
    /// Operations that failed: given-up writes and calls, plus incomplete
    /// copy cells.
    pub failed: u64,
    /// Oracle violations, each naming the oracle and the cell.
    pub violations: Vec<String>,
    /// `(simulated, paper)` client KB/s pairs for the fidelity metric.
    pub fidelity: Vec<(f64, f64)>,
    sched: CalStats,
    sock_drops: u64,
    sim_s: f64,
    cpu_busy_s: f64,
    residence: LatencyStat,
    write_residence: LatencyStat,
    writes_gathered: u64,
    batches: u64,
    batched_writes: u64,
    proc_hits: u64,
    proc_misses: u64,
    cache_evictions: u64,
    throttle_stalls: u64,
    writeback_blocks: u64,
    metadata_flushes: u64,
    commits: u64,
    unstable_writes: u64,
    forced_file_sync: u64,
    disk_trans: u64,
    disk_bytes: u64,
    disk_busy_s: f64,
    spindle_busy_max_pct: f64,
    leases_granted: u64,
    renewals: u64,
    lock_grants: u64,
    grace_denials: u64,
    table_bytes: u64,
    writer_retx: u64,
    writer_gave_up: u64,
    sfs_retx: u64,
    sfs_gave_up: u64,
}

/// The throughput at which a ladder's mean latency crosses
/// [`LATENCY_LIMIT_MS`], interpolated linearly between the last point that
/// meets the limit and the first that does not (from the origin when the
/// first point already misses it).  A curve that never crosses reports its
/// peak.  Interpolating keeps the figure continuous in the inputs instead of
/// jumping a whole rung when one point's latency moves across the limit.
fn capacity_ops_s(curve: &[Point]) -> f64 {
    let Some(i) = curve.iter().position(|p| p.latency_ms > LATENCY_LIMIT_MS) else {
        return curve.iter().map(|p| p.ops_s).fold(0.0, f64::max);
    };
    let (ops0, lat0) = match i {
        0 => (0.0, 0.0),
        _ => (curve[i - 1].ops_s, curve[i - 1].latency_ms),
    };
    let b = curve[i];
    ops0 + (b.ops_s - ops0) * (LATENCY_LIMIT_MS - lat0) / (b.latency_ms - lat0)
}

/// Times a constructor and a run, checking that neither materialised a
/// payload.
fn timed<S, R>(
    tally: &mut Tally,
    cell: &str,
    build: impl FnOnce() -> S,
    run: impl FnOnce(&mut S) -> R,
) -> (S, R) {
    let before = materialize_count();
    let t0 = Instant::now();
    let mut system = build();
    let t1 = Instant::now();
    let result = run(&mut system);
    let t2 = Instant::now();
    tally.setup += t1 - t0;
    tally.run += t2 - t1;
    let materialized = materialize_count() - before;
    tally.check(
        materialized == 0,
        cell,
        "payload materialisations",
        materialized,
    );
    (system, result)
}

impl Tally {
    fn check(&mut self, ok: bool, cell: &str, oracle: &str, value: impl std::fmt::Display) {
        if !ok {
            self.violations
                .push(format!("{oracle} = {value} in {cell}"));
        }
    }

    /// Folds one server's simulated counters in.  `observed` is the
    /// simulated span the server's rates are taken over.
    fn absorb_server(
        &mut self,
        server: &NfsServer,
        observed: Duration,
        cell: &str,
        reference: bool,
    ) {
        let st = server.stats();
        self.check(
            st.lost_acked_bytes == 0,
            cell,
            "lost acknowledged bytes",
            st.lost_acked_bytes,
        );
        let evicted = server.dupcache_evicted_in_progress();
        self.check(evicted == 0, cell, "InProgress dupcache evictions", evicted);
        let state = server.state_stats();
        self.check(
            state.grace_conflicts == 0,
            cell,
            "grace conflicts",
            state.grace_conflicts,
        );
        self.check(
            state.expired_lease_writes == 0,
            cell,
            "expired-lease writes",
            state.expired_lease_writes,
        );

        let secs = observed.as_secs_f64();
        self.sock_drops += server.socket_drops();
        self.sim_s += secs;
        self.cpu_busy_s += server.cpu_utilization_percent(observed) / 100.0 * secs;
        if reference {
            self.residence.merge(&st.residence);
            self.write_residence.merge(&st.write_residence);
        }
        self.writes_gathered += st.writes_gathered;
        for (size, &count) in st.batch_sizes.iter().enumerate() {
            self.batches += count;
            self.batched_writes += size as u64 * count;
        }
        self.proc_hits += st.procrastination_hits;
        self.proc_misses += st.procrastination_misses;
        let fs = server.fs().counters();
        self.cache_evictions += fs.cache_evictions;
        self.throttle_stalls += fs.throttle_stalls;
        self.writeback_blocks += fs.writeback_blocks;
        self.metadata_flushes += st.metadata_flushes;
        self.commits += st.commits;
        self.unstable_writes += st.unstable_writes;
        self.forced_file_sync += st.forced_file_sync;
        let device = server.device_stats();
        self.disk_trans += device.transfers.events();
        self.disk_bytes += device.transfers.bytes();
        let spindles = server.spindle_stats();
        for spindle in &spindles {
            self.disk_busy_s +=
                spindle.stats.busy.busy_time().as_secs_f64() / spindles.len() as f64;
            self.spindle_busy_max_pct = self
                .spindle_busy_max_pct
                .max(spindle.busy_percent(observed));
        }
        self.leases_granted += state.leases_granted;
        self.renewals += state.renewals;
        self.lock_grants += state.locks_granted;
        self.grace_denials += state.grace_rejections;
        self.table_bytes += server.state_table_bytes();
    }

    fn absorb_queue(&mut self, events: u64, clamped: u64, sched: CalStats, cell: &str) {
        self.check(clamped == 0, cell, "clamped_past", clamped);
        self.events += events;
        self.sched.absorb(&sched);
    }

    /// The simulated end-to-end metrics, in the order of `BENCHMARK.json`.
    pub fn sim_metrics(&self) -> [(&'static str, f64); 5] {
        let reference: Vec<&Point> = self
            .curves
            .iter()
            .flatten()
            .filter(|p| p.reference)
            .collect();
        let geomean = |values: &mut dyn Iterator<Item = f64>| {
            let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
            (sum / n.max(1) as f64).exp()
        };
        let write_kb_s = geomean(&mut self.curves.iter().flatten().map(|p| p.write_kb_s));
        let peak_ops_s = geomean(
            &mut self
                .curves
                .iter()
                .map(|c| c.iter().map(|p| p.ops_s).fold(0.0, f64::max)),
        );
        let capacity: f64 = self.curves.iter().map(|c| capacity_ops_s(c)).sum();
        let latency_ms = geomean(&mut reference.iter().map(|p| p.latency_ms));
        let fidelity = 100.0
            * self
                .fidelity
                .iter()
                .map(|(sim, want)| (sim - want).abs() / want)
                .sum::<f64>()
            / self.fidelity.len().max(1) as f64;
        [
            ("sim_write_kb_s", write_kb_s),
            ("sim_ops_s", peak_ops_s),
            ("sim_capacity_ops_s", capacity),
            ("sim_latency_ms", latency_ms),
            ("sim_fidelity_err_pct", fidelity),
        ]
    }

    /// The simulated per-layer counts, in the order of `BENCHMARK.json`.
    pub fn sim_counts(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let ms = |d: Duration| d.as_millis_f64();
        vec![
            ("calq.max_depth", self.sched.max_depth as f64),
            ("calq.resizes", self.sched.resizes as f64),
            ("calq.rotations", self.sched.rotations as f64),
            ("sockbuf.drops", self.sock_drops as f64),
            (
                "server.cpu_util_pct",
                100.0 * ratio(self.cpu_busy_s, self.sim_s),
            ),
            (
                "server.residence_p50_ms",
                ms(self.residence.percentile(50.0)),
            ),
            (
                "server.residence_p99_ms",
                ms(self.residence.percentile(99.0)),
            ),
            (
                "server.write_residence_p99_ms",
                ms(self.write_residence.percentile(99.0)),
            ),
            ("server.residence_samples", self.residence.count() as f64),
            (
                "gather.mean_batch",
                ratio(self.batched_writes as f64, self.batches as f64),
            ),
            ("gather.writes_gathered", self.writes_gathered as f64),
            (
                "gather.procrastination_hit_ratio",
                ratio(
                    self.proc_hits as f64,
                    (self.proc_hits + self.proc_misses) as f64,
                ),
            ),
            ("ufs.cache_evictions", self.cache_evictions as f64),
            ("ufs.throttle_stalls", self.throttle_stalls as f64),
            ("ufs.writeback_blocks", self.writeback_blocks as f64),
            ("ufs.metadata_flushes", self.metadata_flushes as f64),
            ("server.commits", self.commits as f64),
            ("server.unstable_writes", self.unstable_writes as f64),
            ("server.forced_file_sync", self.forced_file_sync as f64),
            ("disk.trans", self.disk_trans as f64),
            (
                "disk.kb_per_trans",
                ratio(self.disk_bytes as f64 / 1024.0, self.disk_trans as f64),
            ),
            ("disk.util_pct", 100.0 * ratio(self.disk_busy_s, self.sim_s)),
            ("disk.spindle_busy_max_pct", self.spindle_busy_max_pct),
            ("state.leases_granted", self.leases_granted as f64),
            ("state.renewals", self.renewals as f64),
            ("state.lock_grants", self.lock_grants as f64),
            ("state.grace_denials", self.grace_denials as f64),
            ("state.table_bytes", self.table_bytes as f64),
            ("writer.retransmissions", self.writer_retx as f64),
            ("writer.gave_up", self.writer_gave_up as f64),
            ("sfs.retransmissions", self.sfs_retx as f64),
            ("sfs.gave_up", self.sfs_gave_up as f64),
            (
                "failed_frac",
                ratio(self.failed as f64, self.attempted as f64),
            ),
        ]
    }

    /// Every simulated value of the pass, for the determinism check.
    pub fn sim_values(&self) -> Vec<(&'static str, f64)> {
        let mut values = self.sim_metrics().to_vec();
        values.extend(self.sim_counts());
        values.push(("events", self.events as f64));
        values.push(("attempted", self.attempted as f64));
        values.push(("failed", self.failed as f64));
        values
    }
}

/// The copy cells of `paper_copy`: every column of every table, without and
/// with gathering.
pub fn paper_cells(size: Size) -> Vec<Vec<ExperimentConfig>> {
    let file_size = copy_file_size(size);
    let mut curves = Vec::new();
    for spec in &TABLES {
        for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
            curves.push(
                spec.biods
                    .iter()
                    .map(|&biods| {
                        ExperimentConfig::new(spec.network, biods, policy)
                            .with_presto(spec.prestoserve)
                            .with_spindles(spec.spindles)
                            .with_file_size(file_size)
                    })
                    .collect(),
            );
        }
    }
    curves
}

fn copy_file_size(size: Size) -> u64 {
    match size {
        Size::Full => 10 * 1024 * 1024,
        Size::Smoke => 128 * 1024,
    }
}

/// A copy cell's label, for oracle messages.
pub fn copy_label(cfg: &ExperimentConfig) -> String {
    format!(
        "{:?} {:?} presto={} spindles={} biods={}",
        cfg.network, cfg.policy, cfg.prestoserve, cfg.spindles, cfg.biods
    )
}

/// The paper's Table 1 and Table 3 client KB/s for a cell, if it has one.
fn paper_kb_s(cfg: &ExperimentConfig) -> Option<f64> {
    if cfg.prestoserve || cfg.spindles != 1 {
        return None;
    }
    let (without, with) = match cfg.network {
        NetworkKind::Ethernet => (paper::T1_WITHOUT_KBS, paper::T1_WITH_KBS),
        NetworkKind::Fddi => (paper::T3_WITHOUT_KBS, paper::T3_WITH_KBS),
    };
    let column = TABLES[0].biods.iter().position(|&b| b == cfg.biods)?;
    match cfg.policy {
        WritePolicy::Standard => Some(without[column]),
        WritePolicy::Gathering => Some(with[column]),
        _ => None,
    }
}

/// Folds one finished copy cell into the tally.  `verify_disk` re-reads every
/// acknowledged byte, which is too slow to repeat on every pass.
pub fn absorb_copy(
    tally: &mut Tally,
    system: &FileCopySystem,
    result: &FileCopyResult,
    verify_disk: bool,
) -> Point {
    let cfg = system.config();
    let label = copy_label(cfg);
    if verify_disk {
        let lost = system.lost_acked_bytes_on_disk();
        tally.check(lost == 0, &label, "lost acknowledged bytes on disk", lost);
    }
    let elapsed = Duration::from_secs_f64(result.elapsed_secs);
    tally.absorb_queue(
        system.events_processed(),
        system.clamped_past(),
        system.sched_stats(),
        &label,
    );
    tally.absorb_server(system.server(), elapsed, &label, true);
    let client = system.client().stats();
    tally.attempted += client.requests_sent;
    tally.failed += client.gave_up + u64::from(!result.completed);
    tally.writer_retx += client.retransmissions;
    tally.writer_gave_up += client.gave_up;
    if let Some(want) = paper_kb_s(cfg) {
        tally.fidelity.push((result.client_write_kb_per_sec, want));
    }
    let st = system.server().stats();
    let ops = st.writes_completed.events() + st.other_ops_completed.events();
    Point {
        ops_s: ops as f64 / result.elapsed_secs,
        latency_ms: st.write_residence.mean().as_millis_f64(),
        write_kb_s: result.client_write_kb_per_sec,
        reference: true,
    }
}

/// Builds and runs one copy cell, timed.
pub fn run_copy(tally: &mut Tally, cfg: ExperimentConfig) -> (FileCopySystem, FileCopyResult) {
    let label = copy_label(&cfg);
    timed(tally, &label, || FileCopySystem::new(cfg), |s| s.run())
}

/// Runs one copy cell, timed, and folds it into the tally.
pub fn copy_cell(tally: &mut Tally, cfg: ExperimentConfig, verify_disk: bool) -> Point {
    let (system, result) = run_copy(tally, cfg);
    absorb_copy(tally, &system, &result, verify_disk)
}

fn paper_copy(tally: &mut Tally, size: Size, verify_disk: bool) {
    for curve in paper_cells(size) {
        let points = curve
            .into_iter()
            .map(|cfg| copy_cell(tally, cfg, verify_disk))
            .collect();
        tally.curves.push(points);
    }
}

/// The Table 1 and Table 3 cells alone: the fidelity probe the workloads
/// without a paper reference of their own report (untimed).
pub fn fidelity_probe(size: Size) -> Result<f64, String> {
    let mut probe = Tally::default();
    for cfg in paper_cells(size).into_iter().flatten() {
        if paper_kb_s(&cfg).is_some() {
            copy_cell(&mut probe, cfg, false);
        }
    }
    match probe.violations.first() {
        Some(v) => Err(format!("fidelity probe: oracle violated: {v}")),
        None => Ok(probe.sim_metrics()[4].1),
    }
}

/// Runs one SFS measurement point, timed, and folds it into the tally.
fn sfs_point(tally: &mut Tally, cfg: SfsConfig, reference: bool) -> Point {
    let label = format!(
        "{:?} presto={} clients={} offered={}",
        cfg.policy, cfg.prestoserve, cfg.clients, cfg.offered_ops_per_sec
    );
    let duration = cfg.duration;
    let retries = cfg.faults_enabled();
    let (system, point) = timed(tally, &label, || SfsSystem::new(cfg), |s| s.run());
    let (issued, completed) = system.counts();
    let (lease_issued, lease_completed) = system.lease_counts();
    let gave_up = system.gave_up();
    // Every call ends completed or given up.  Without an armed fault layer
    // the generator never retransmits, so a call the server's socket buffer
    // dropped stays unanswered and is counted there instead.
    let unanswered = if retries {
        0
    } else {
        system.server().socket_drops()
    };
    let accounted = completed + lease_completed + gave_up + unanswered;
    tally.check(
        issued + lease_issued == accounted,
        &label,
        "issued - (completed + gave_up + unanswered)",
        (issued + lease_issued) as i64 - accounted as i64,
    );
    tally.absorb_queue(
        system.events_processed(),
        system.clamped_past(),
        system.sched_stats(),
        &label,
    );
    tally.absorb_server(system.server(), duration, &label, reference);
    tally.attempted += issued;
    tally.failed += gave_up;
    tally.sfs_retx += system.retransmissions();
    tally.sfs_gave_up += gave_up;
    Point {
        ops_s: point.achieved_ops_per_sec,
        latency_ms: point.avg_latency_ms,
        write_kb_s: system.server().stats().write_kb_per_sec(duration),
        reference,
    }
}

/// The request-stream seed of one ladder rung.  Rungs draw independent
/// streams, so a seed's luck with the operation mix averages out over the
/// ladder instead of shifting every point the same way; the four curves
/// share each rung's stream, so policies and figures compare on equal input.
fn point_seed(seed: u64, rate: f64) -> u64 {
    let mut z = seed ^ rate.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sfs_knee(tally: &mut Tally, size: Size, seed: u64) {
    let (secs, ladder): (u64, &[f64]) = match size {
        Size::Full => (SFS_SECONDS, &SFS_LADDER),
        Size::Smoke => (1, &[SFS_REFERENCE_RATE, 2000.0]),
    };
    for figure3 in [false, true] {
        for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
            let points = ladder
                .iter()
                .map(|&rate| {
                    let mut cfg = if figure3 {
                        SfsConfig::figure3(rate, policy)
                    } else {
                        SfsConfig::figure2(rate, policy)
                    };
                    let reference = rate == SFS_REFERENCE_RATE;
                    let secs = match size {
                        Size::Full if reference => SFS_REFERENCE_SECONDS,
                        _ => secs,
                    };
                    cfg.duration = Duration::from_secs(secs);
                    cfg.seed = point_seed(seed, rate);
                    sfs_point(tally, cfg, reference)
                })
                .collect();
            tally.curves.push(points);
        }
    }
}

/// The `fanin_unstable` configuration.
pub fn fanin_config(size: Size) -> MultiClientConfig {
    let (clients, mb) = match size {
        Size::Full => (16, 16),
        Size::Smoke => (2, 1),
    };
    MultiClientConfig::new(NetworkKind::Fddi, clients, 8, WritePolicy::Gathering)
        .with_per_client_lans(true)
        .with_shards(4)
        .with_cores(2)
        .with_io_overlap(true)
        .with_spindles(3)
        .with_unified_cache(1024)
        .with_stability(StabilityMode::Unstable)
        .with_commit_interval(1024 * 1024)
        .with_bytes_per_client(mb * 1024 * 1024)
}

/// Builds and runs the `fanin_unstable` system, timed.
pub fn run_fanin(tally: &mut Tally, size: Size) -> (MultiClientSystem, MultiClientResult) {
    let cfg = fanin_config(size);
    let label = format!("{} clients", cfg.clients);
    timed(tally, &label, || MultiClientSystem::new(cfg), |s| s.run())
}

/// Folds the finished fan-in into the tally.
///
/// `MultiClientSystem::verify_on_disk` cannot be used here: the bounded
/// cache drops an evicted page's contents (the filesystem model keeps data
/// only for resident blocks), so re-reading evicted blocks yields zeros.  The
/// acknowledged data is checked through the server's lost-acknowledged-bytes
/// counter, the byte count every client saw acknowledged and the server's
/// uncommitted bytes instead.
pub fn absorb_fanin(tally: &mut Tally, system: &MultiClientSystem, result: &MultiClientResult) {
    let cfg = system.config();
    let label = format!("{} clients", cfg.clients);
    let budget = cfg.clients as u64 * cfg.bytes_per_client;
    tally.check(
        result.total_bytes_acked == budget,
        &label,
        "unacknowledged bytes",
        budget as i64 - result.total_bytes_acked as i64,
    );
    let uncommitted = system.server().uncommitted_bytes();
    tally.check(
        uncommitted == 0,
        &label,
        "uncommitted bytes after the run",
        uncommitted,
    );
    let elapsed = Duration::from_secs_f64(result.elapsed_secs);
    tally.absorb_queue(
        system.events_processed(),
        system.clamped_past(),
        system.sched_stats(),
        &label,
    );
    tally.absorb_server(system.server(), elapsed, &label, true);
    let st = system.server().stats();
    let ops = st.writes_completed.events() + st.other_ops_completed.events();
    for client in &result.clients {
        tally.writer_retx += client.retransmissions;
        tally.writer_gave_up += client.gave_up;
        tally.failed += client.gave_up + u64::from(!client.completed);
    }
    tally.attempted += ops;
    tally.curves.push(vec![Point {
        ops_s: ops as f64 / result.elapsed_secs,
        latency_ms: st.write_residence.mean().as_millis_f64(),
        write_kb_s: result.aggregate_kb_per_sec,
        reference: true,
    }]);
}

fn lease_storm(tally: &mut Tally, size: Size, seed: u64) {
    let (clients, secs) = match size {
        Size::Full => (256, 80),
        Size::Smoke => (16, 2),
    };
    // 600 ops/s keeps the hottest spindle below saturation: at 800 the mean
    // latency is set by rare disk-queue stalls and swings by half between
    // seeds.
    let mut cfg = SfsConfig::scaled(600.0, WritePolicy::Gathering, clients)
        .with_leases(true)
        .with_churn(Duration::from_secs(5))
        .with_stability(StabilityMode::Unstable)
        .with_unified_cache(4096);
    cfg.duration = Duration::from_secs(secs);
    cfg.seed = seed;
    let point = sfs_point(tally, cfg, true);
    tally.curves.push(vec![point]);
}

/// Runs one pass of a workload.  `verify_disk` adds `paper_copy`'s on-disk
/// re-read of every acknowledged byte.
pub fn pass(workload: Workload, size: Size, seed: u64, verify_disk: bool) -> Tally {
    let mut tally = Tally::default();
    match workload {
        Workload::PaperCopy => paper_copy(&mut tally, size, verify_disk),
        Workload::SfsKnee => sfs_knee(&mut tally, size, seed),
        Workload::FaninUnstable => {
            let (system, result) = run_fanin(&mut tally, size);
            absorb_fanin(&mut tally, &system, &result);
        }
        Workload::LeaseStorm => lease_storm(&mut tally, size, seed),
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_simcore::{FaultKind, FaultPlan, SimTime};

    #[test]
    fn a_crash_under_dangerous_async_trips_the_lost_bytes_oracle() {
        let crash = FaultPlan::new().at(
            SimTime::ZERO + Duration::from_millis(300),
            FaultKind::ServerCrash,
        );
        let cfg = ExperimentConfig::new(NetworkKind::Fddi, 8, WritePolicy::DangerousAsync)
            .with_file_size(2 * 1024 * 1024)
            .with_fault_plan(crash);
        let mut tally = Tally::default();
        copy_cell(&mut tally, cfg, true);
        assert!(
            tally
                .violations
                .iter()
                .any(|v| v.starts_with("lost acknowledged bytes = ")),
            "{:?}",
            tally.violations
        );
        assert!(
            tally
                .violations
                .iter()
                .any(|v| v.starts_with("lost acknowledged bytes on disk = ")),
            "{:?}",
            tally.violations
        );
    }

    #[test]
    fn the_paper_cells_pass_every_oracle() {
        let mut tally = Tally::default();
        paper_copy(&mut tally, Size::Smoke, true);
        assert!(tally.violations.is_empty(), "{:?}", tally.violations);
        assert_eq!(tally.curves.len(), 12);
        assert_eq!(tally.fidelity.len(), 20);
    }

    #[test]
    fn capacity_interpolates_where_latency_crosses_the_limit() {
        let p = |ops_s, latency_ms| Point {
            ops_s,
            latency_ms,
            write_kb_s: 1.0,
            reference: false,
        };
        assert_eq!(capacity_ops_s(&[p(100.0, 10.0), p(200.0, 90.0)]), 150.0);
        assert_eq!(capacity_ops_s(&[p(100.0, 100.0)]), 50.0);
        assert_eq!(capacity_ops_s(&[p(100.0, 10.0), p(300.0, 20.0)]), 300.0);
    }
}
