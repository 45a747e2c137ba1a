//! Chaos sweep: the SFS workload and the file copy run under injected
//! faults — periodic server crashes with NVRAM-replay reboots, datagram
//! loss, and an NVRAM battery failure — with the recovery oracle asserted
//! on every cell.
//!
//! The oracle is the headline robustness claim: after every crash the
//! server walks the write data it acknowledged and counts any byte that was
//! still volatile when it died.  For every policy that honours the NFS
//! stable-storage rule (standard, gathering, Prestoserve) that count must
//! be **zero**, no matter what the fault schedule did; only the
//! deliberately unsafe `DangerousAsync` mode is allowed a positive count,
//! and the sweep records it rather than hiding it.
//!
//! Every cell also re-asserts the standing health invariants: zero
//! `InProgress` duplicate-cache evictions (§6.9) and zero payload
//! materialisations (the zero-copy datapath), both of which must survive
//! crash/reboot and retransmission storms.
//!
//! Results are merged into `BENCH_writepath.json` under the `"faults"` key;
//! the other bench binaries preserve it when they rewrite the file.
//!
//! ```text
//! cargo run --release -p wg-bench --bin fault_sweep              # full grid
//! cargo run --release -p wg-bench --bin fault_sweep -- --smoke
//! cargo run --release -p wg-bench --bin fault_sweep -- --out other.json
//! ```

use wg_bench::cli;
use wg_bench::report::{stamp_cell, upsert_object};
use wg_server::{StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultKind, FaultPlan, SimTime};
use wg_workload::results::json;
use wg_workload::sfs::SfsSystem;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind, SfsConfig};

/// One SFS chaos cell: the workload under a crash schedule and a steady
/// loss rate, with the oracle and health counters checked.
#[allow(clippy::too_many_arguments)]
fn run_sfs_cell(
    label: &str,
    presto: bool,
    load: f64,
    secs: u64,
    crash_interval_secs: f64,
    loss: f64,
    battery_failure: bool,
) -> String {
    let mut config = if presto {
        SfsConfig::figure3(load, WritePolicy::Gathering)
    } else {
        SfsConfig::figure2(load, WritePolicy::Gathering)
    };
    config.duration = Duration::from_secs(secs);
    let mut plan = if crash_interval_secs > 0.0 {
        FaultPlan::crash_every(
            Duration::from_secs_f64(crash_interval_secs),
            config.duration,
        )
    } else {
        FaultPlan::new()
    };
    if battery_failure {
        // The battery dies a third of the way in and is repaired a third
        // later: the cell measures write-through degradation and recovery.
        plan = plan.at(
            SimTime::ZERO + Duration::from_secs(secs / 3),
            FaultKind::BatteryFailure {
                repair_after: Duration::from_secs(secs / 3),
            },
        );
    }
    let config = config.with_fault_plan(plan).with_loss(loss);
    let before = wg_nfsproto::payload::materialize_count();
    let mut system = SfsSystem::new(config);
    let point = system.run();
    let materializations = wg_nfsproto::payload::materialize_count() - before;
    let (issued, completed) = system.counts();
    let gave_up = system.gave_up();
    let stats = system.server().stats();
    let evicted = system.server().dupcache_evicted_in_progress();

    // The recovery oracle and the standing health invariants, per cell.
    assert_eq!(
        stats.lost_acked_bytes, 0,
        "{label}: a safe policy lost acknowledged write data across a crash"
    );
    assert_eq!(
        evicted, 0,
        "{label}: dupcache evicted an InProgress entry (§6.9 hazard)"
    );
    assert_eq!(
        materializations, 0,
        "{label}: the zero-copy datapath materialised a payload"
    );
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );
    // With the fault layer armed, the client-side retry machinery drives
    // every issued call to a counted outcome.  (Unarmed cells legitimately
    // end with calls still queued at the cutoff.)
    if crash_interval_secs > 0.0 || loss > 0.0 {
        assert_eq!(
            issued,
            completed + gave_up,
            "{label}: an issued call neither completed nor was counted given up"
        );
    }

    println!(
        "{label:<26} achieved {:>7.1} ops/s  latency {:>8.2} ms  crashes {:>2}  \
         retrans {:>5}  gave_up {:>4}  dropped@boot {:>5}",
        point.achieved_ops_per_sec,
        point.avg_latency_ms,
        stats.crashes,
        system.retransmissions(),
        gave_up,
        stats.dropped_during_recovery,
    );
    let mut fields = vec![
        (
            "offered_ops_per_sec",
            json::number(point.offered_ops_per_sec),
        ),
        (
            "achieved_ops_per_sec",
            json::number(point.achieved_ops_per_sec),
        ),
        ("avg_latency_ms", json::number(point.avg_latency_ms)),
        ("crash_interval_secs", json::number(crash_interval_secs)),
        ("loss_rate", json::number(loss)),
        ("prestoserve", presto.to_string()),
        ("battery_failure", battery_failure.to_string()),
        ("crashes", stats.crashes.to_string()),
        ("battery_failures", stats.battery_failures.to_string()),
        ("lost_acked_bytes", stats.lost_acked_bytes.to_string()),
        (
            "discarded_dirty_bytes",
            stats.discarded_dirty_bytes.to_string(),
        ),
        (
            "dropped_during_recovery",
            stats.dropped_during_recovery.to_string(),
        ),
        ("issued", issued.to_string()),
        ("completed", completed.to_string()),
        ("retransmissions", system.retransmissions().to_string()),
        ("gave_up", gave_up.to_string()),
        ("evicted_in_progress", evicted.to_string()),
        ("materializations", materializations.to_string()),
    ];
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// The battery-failure × unstable-mode cell: the Prestoserve configuration
/// speaking `WRITE(UNSTABLE)` + `COMMIT` over the unified cache while the
/// NVRAM battery dies mid-run.  A dead battery leaves unstable data with no
/// stable destination, so the server must force `FILE_SYNC` semantics for
/// the outage — counted in `forced_file_sync` — rather than silently acking
/// unstable writes it could lose.  The oracle still demands zero lost
/// acknowledged bytes and zero bytes left uncommitted after the quiesce.
fn run_unstable_battery_cell(label: &str, load: f64, secs: u64) -> String {
    let mut config = SfsConfig::figure3(load, WritePolicy::Gathering);
    config.duration = Duration::from_secs(secs);
    let plan = FaultPlan::new().at(
        SimTime::ZERO + Duration::from_secs(secs / 3),
        FaultKind::BatteryFailure {
            repair_after: Duration::from_secs(secs / 3),
        },
    );
    let config = config
        .with_fault_plan(plan)
        .with_unified_cache(4096)
        .with_stability(StabilityMode::Unstable);
    let before = wg_nfsproto::payload::materialize_count();
    let mut system = SfsSystem::new(config);
    let point = system.run();
    let materializations = wg_nfsproto::payload::materialize_count() - before;
    system.quiesce_server();
    let evicted = system.server().dupcache_evicted_in_progress();
    let uncommitted = system.server().uncommitted_bytes();
    let stats = system.server().stats();

    assert!(
        stats.battery_failures > 0,
        "{label}: the battery-failure fault never fired"
    );
    assert!(
        stats.forced_file_sync > 0,
        "{label}: a dead battery must downgrade unstable writes to FILE_SYNC, \
         not ack them with no stable destination"
    );
    assert!(
        stats.unstable_writes > 0 && stats.commits > 0,
        "{label}: the healthy-battery phases never spoke WRITE(UNSTABLE)+COMMIT"
    );
    assert_eq!(
        stats.lost_acked_bytes, 0,
        "{label}: acknowledged write data was lost across the battery outage"
    );
    assert_eq!(
        uncommitted, 0,
        "{label}: the quiesce left acknowledged-unstable bytes uncommitted"
    );
    assert_eq!(
        evicted, 0,
        "{label}: dupcache evicted an InProgress entry (§6.9 hazard)"
    );
    assert_eq!(
        materializations, 0,
        "{label}: the zero-copy datapath materialised a payload"
    );
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );

    println!(
        "{label:<26} achieved {:>7.1} ops/s  latency {:>8.2} ms  unstable {:>6}  \
         forced_sync {:>5}  commits {:>4}  lost_acked {}",
        point.achieved_ops_per_sec,
        point.avg_latency_ms,
        stats.unstable_writes,
        stats.forced_file_sync,
        stats.commits,
        stats.lost_acked_bytes,
    );
    let mut fields = vec![
        (
            "offered_ops_per_sec",
            json::number(point.offered_ops_per_sec),
        ),
        (
            "achieved_ops_per_sec",
            json::number(point.achieved_ops_per_sec),
        ),
        ("avg_latency_ms", json::number(point.avg_latency_ms)),
        ("prestoserve", "true".to_string()),
        ("stability", json::string("unstable")),
        ("battery_failures", stats.battery_failures.to_string()),
        ("unstable_writes", stats.unstable_writes.to_string()),
        ("forced_file_sync", stats.forced_file_sync.to_string()),
        ("commits", stats.commits.to_string()),
        ("lost_acked_bytes", stats.lost_acked_bytes.to_string()),
        ("lost_unstable_bytes", stats.lost_unstable_bytes.to_string()),
        ("uncommitted_after_quiesce", uncommitted.to_string()),
        ("evicted_in_progress", evicted.to_string()),
        ("materializations", materializations.to_string()),
    ];
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// One file-copy chaos cell: a mid-copy crash under a given policy, the
/// client retransmitting through the reboot.  Safe policies must finish the
/// copy with zero acknowledged loss; `DangerousAsync` reports its counted
/// losses instead of hiding them.
fn run_copy_cell(label: &str, policy: WritePolicy, presto: bool, file_mb: u64) -> String {
    let crash_at = SimTime::ZERO + Duration::from_millis(700);
    let plan = FaultPlan::new().at(crash_at, FaultKind::ServerCrash);
    let mut system = FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, 8, policy)
            .with_presto(presto)
            .with_file_size(file_mb * 1024 * 1024)
            .with_fault_plan(plan),
    );
    let result = system.run();
    let stats = system.server().stats();
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );
    let safe = policy != WritePolicy::DangerousAsync;
    if safe {
        assert_eq!(
            stats.lost_acked_bytes, 0,
            "{label}: a safe policy lost acknowledged write data"
        );
        assert_eq!(
            system.lost_acked_bytes_on_disk(),
            0,
            "{label}: acknowledged data missing from the recovered disk"
        );
        assert!(
            result.completed,
            "{label}: the copy did not survive the crash"
        );
    }
    println!(
        "{label:<26} {:>7.0} KB/s  crashes {:>2}  retrans {:>4}  gave_up {:>3}  \
         lost_acked {:>8} B  completed {}",
        result.client_write_kb_per_sec,
        stats.crashes,
        result.retransmissions,
        result.gave_up,
        stats.lost_acked_bytes,
        result.completed,
    );
    let mut fields = vec![
        (
            "client_write_kb_per_sec",
            json::number(result.client_write_kb_per_sec),
        ),
        ("file_mb", file_mb.to_string()),
        ("prestoserve", presto.to_string()),
        ("safe_policy", safe.to_string()),
        ("crashes", stats.crashes.to_string()),
        ("lost_acked_bytes", stats.lost_acked_bytes.to_string()),
        (
            "discarded_dirty_bytes",
            stats.discarded_dirty_bytes.to_string(),
        ),
        ("retransmissions", result.retransmissions.to_string()),
        ("gave_up", result.gave_up.to_string()),
        ("completed", result.completed.to_string()),
        (
            "evicted_in_progress",
            system.server().dupcache_evicted_in_progress().to_string(),
        ),
    ];
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

const USAGE: &str = "\
usage: fault_sweep [--smoke] [--out PATH] [--secs N] [--load N]
       fault_sweep --help

  --smoke     small grid: one crash interval, two loss rates (default 6 s, 300 ops/s)
  --out PATH  report to merge into (default BENCH_writepath.json)
  --secs N    simulated seconds per cell (default 20)
  --load N    offered load in ops/s (default 800)";

fn main() {
    let (out_path, smoke, secs, load) = cli::parse_or_exit("fault_sweep", USAGE, |args| {
        let mut out_path = "BENCH_writepath.json".to_string();
        let (mut smoke, mut secs, mut load) = (false, None, None);
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--out" => out_path = args.value(&flag, "a path")?,
                "--smoke" => smoke = true,
                "--secs" => secs = Some(args.number::<u64>(&flag)?),
                "--load" => load = Some(args.number::<f64>(&flag)?),
                other => return Err(cli::unknown(other)),
            }
        }
        Ok((out_path, smoke, secs, load))
    });
    let secs = secs.unwrap_or(if smoke { 6 } else { 20 });
    let load = load.unwrap_or(if smoke { 300.0 } else { 800.0 });
    let (crash_intervals, loss_rates): (&[f64], &[f64]) = if smoke {
        (&[2.0], &[0.0, 0.02])
    } else {
        (&[2.0, 5.0, 10.0], &[0.0, 0.01, 0.05])
    };

    // The degradation grid: crash interval x loss rate over the SFS
    // gathering workload.
    let mut cells: Vec<(String, String)> = Vec::new();
    for &interval in crash_intervals {
        for &loss in loss_rates {
            let name = format!("crash{interval}s_loss{loss}");
            let cell = run_sfs_cell(&name, false, load, secs, interval, loss, false);
            cells.push((name, cell));
        }
    }
    // A fault-free reference cell at the same load, so the grid reads as
    // "degradation relative to this".
    let reference = run_sfs_cell("reference_no_fault", false, load, secs, 0.0, 0.0, false);
    // Battery failure mid-run on the Prestoserve configuration: NVRAM
    // drains, degrades to write-through, recovers on repair.
    let battery = run_sfs_cell("presto_battery_failure", true, load, secs, 0.0, 0.0, true);
    // The same outage with the v3 unstable-write protocol armed: the dead
    // battery must force FILE_SYNC semantics, never ack unstable data with
    // no stable destination.
    let battery_unstable = run_unstable_battery_cell("presto_battery_unstable", load, secs);
    // Mid-copy crash under each policy: the copy survives on the safe
    // policies; the dangerous one's losses are counted, never hidden.
    let copy_standard = run_copy_cell("copy_crash_standard", WritePolicy::Standard, false, 2);
    let copy_gathering = run_copy_cell("copy_crash_gathering", WritePolicy::Gathering, false, 2);
    let copy_presto = run_copy_cell("copy_crash_presto", WritePolicy::Gathering, true, 2);
    let copy_dangerous = run_copy_cell(
        "copy_crash_dangerous",
        WritePolicy::DangerousAsync,
        false,
        2,
    );

    let grid_fields: Vec<(&str, String)> = cells
        .iter()
        .map(|(name, cell)| (name.as_str(), cell.clone()))
        .collect();
    let faults = json::object(&[
        ("smoke", smoke.to_string()),
        ("secs", secs.to_string()),
        ("offered_ops_per_sec", json::number(load)),
        ("grid", json::object(&grid_fields)),
        ("reference_no_fault", reference),
        ("presto_battery_failure", battery),
        ("presto_battery_unstable", battery_unstable),
        ("copy_crash_standard", copy_standard),
        ("copy_crash_gathering", copy_gathering),
        ("copy_crash_presto", copy_presto),
        ("copy_crash_dangerous", copy_dangerous),
    ]);
    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    let report = upsert_object(&previous, "faults", &faults);
    std::fs::write(&out_path, report).expect("write report");
    println!("wrote {out_path}");
}
