//! Client-state storm sweep: lease registration/renewal storms, client
//! reboot churn, and server crashes with grace-period recovery, all over the
//! sharded client-state layer — the robustness grid for the state manager.
//!
//! Two oracles are asserted on every cell, leases armed or not:
//!
//! * **Grace leak** — a fresh (non-reclaim) lock admitted during the grace
//!   window that conflicts with a reclaimable pre-crash lock
//!   (`grace_conflicts`), or a write accepted under an expired lease
//!   (`expired_lease_writes`).  Both must be zero everywhere: the grace
//!   period exists precisely so neither can happen.
//! * **Recovery** — the PR 6 crash oracle (`lost_acked_bytes`) and the
//!   standing health invariants (zero `InProgress` dupcache evictions, zero
//!   events clamped into the past) must survive the state machinery.
//!
//! The headline cell is the 10 000-client lease storm: every client
//! registering, renewing and locking against the sharded table while the SFS
//! mix runs underneath.  The cell records the knee shift (achieved ops with
//! the state layer armed vs the stateless baseline at the same offered load)
//! and the state-table footprint in bytes per client.
//!
//! Results are merged into `BENCH_writepath.json` under the `"state_storms"`
//! key; the other bench binaries preserve it when they rewrite the file.
//!
//! ```text
//! cargo run --release -p wg-bench --bin state_sweep              # full grid
//! cargo run --release -p wg-bench --bin state_sweep -- --smoke
//! cargo run --release -p wg-bench --bin state_sweep -- --out other.json
//! ```

use wg_bench::cli;
use wg_bench::report::{stamp_cell, upsert_object};
use wg_server::WritePolicy;
use wg_simcore::{Duration, FaultPlan, SimTime};
use wg_workload::results::json;
use wg_workload::sfs::SfsSystem;
use wg_workload::SfsConfig;

/// The two state oracles plus the standing health invariants, asserted the
/// same way on every cell.
fn assert_state_oracles(label: &str, system: &SfsSystem) {
    let st = system.server().state_stats();
    assert_eq!(
        st.grace_conflicts, 0,
        "{label}: a fresh lock granted during grace conflicted with a \
         reclaimable pre-crash lock"
    );
    assert_eq!(
        st.expired_lease_writes, 0,
        "{label}: a write was accepted under an expired lease"
    );
    assert_eq!(
        system.server().stats().lost_acked_bytes,
        0,
        "{label}: acknowledged write data was lost across a crash"
    );
    assert_eq!(
        system.server().dupcache_evicted_in_progress(),
        0,
        "{label}: dupcache evicted an InProgress entry (§6.9 hazard)"
    );
    assert_eq!(
        system.clamped_past(),
        0,
        "{label}: an event was scheduled into the past and silently clamped"
    );
}

/// The per-cell state readout: grant/renewal/reclaim counters, the oracle
/// values (always zero, recorded anyway so the report shows they were
/// measured), and the table footprint.
fn state_fields(system: &SfsSystem) -> Vec<(&'static str, String)> {
    let st = system.server().state_stats();
    let clients = system.config().clients.max(1) as u64;
    let (issued, completed) = system.lease_counts();
    let (fresh, reclaimed) = system.lock_grants();
    vec![
        ("lease_ops_issued", issued.to_string()),
        ("lease_ops_completed", completed.to_string()),
        ("leases_granted", st.leases_granted.to_string()),
        ("renewals", st.renewals.to_string()),
        ("leases_expired", st.leases_expired.to_string()),
        ("state_orphaned", st.state_orphaned.to_string()),
        ("locks_granted", fresh.to_string()),
        ("locks_reclaimed", reclaimed.to_string()),
        ("client_reboots", st.client_reboots.to_string()),
        ("reboot_revoked_locks", st.reboot_revoked_locks.to_string()),
        ("grace_rejections", st.grace_rejections.to_string()),
        ("seqid_rejections", st.seqid_rejections.to_string()),
        ("grace_conflicts", st.grace_conflicts.to_string()),
        ("expired_lease_writes", st.expired_lease_writes.to_string()),
        (
            "active_lease_clients",
            system.server().active_lease_clients().to_string(),
        ),
        ("held_locks", system.server().held_locks().to_string()),
        (
            "state_table_bytes",
            system.server().state_table_bytes().to_string(),
        ),
        (
            "state_bytes_per_client",
            (system.server().state_table_bytes() / clients).to_string(),
        ),
        (
            "evicted_in_progress",
            system.server().dupcache_evicted_in_progress().to_string(),
        ),
        (
            "lost_acked_bytes",
            system.server().stats().lost_acked_bytes.to_string(),
        ),
    ]
}

/// One storm-grid cell: `clients` streams renewing every `renew_ms` over the
/// 4-way-sharded state table, optionally rebooting (churn) and optionally
/// with the server crashing on a schedule while they hold locks.
#[allow(clippy::too_many_arguments)]
fn run_state_cell(
    label: &str,
    clients: usize,
    load: f64,
    secs: u64,
    renew_ms: u64,
    churn_ms: u64,
    crash_interval_secs: f64,
) -> String {
    let crashed = crash_interval_secs > 0.0;
    let mut config = SfsConfig::figure2(load, WritePolicy::Gathering)
        .with_clients(clients)
        .with_shards(4)
        .with_leases(true);
    config.duration = Duration::from_secs(secs);
    config = if crashed {
        // Crash cells use the timing the grace-recovery scenario needs: a
        // lease long enough to survive the 1 s reboot and a grace window
        // wide enough for every live client to reclaim.
        config
            .with_lease_timing(
                Duration::from_millis(renew_ms),
                Duration::from_secs(2),
                Duration::from_millis(1500),
            )
            .with_fault_plan(FaultPlan::crash_every(
                Duration::from_secs_f64(crash_interval_secs),
                Duration::from_secs(secs),
            ))
            .with_retry(Duration::from_millis(300), 6)
    } else {
        config.with_lease_timing(
            Duration::from_millis(renew_ms),
            Duration::from_millis(renew_ms * 3),
            Duration::from_millis(renew_ms),
        )
    };
    if churn_ms > 0 {
        config = config.with_churn(Duration::from_millis(churn_ms));
    }
    let mut system = SfsSystem::new(config);
    let point = system.run();
    assert_state_oracles(label, &system);
    let st = system.server().state_stats();
    assert!(
        st.leases_granted >= clients as u64,
        "{label}: not every stream registered a lease"
    );
    if crashed {
        assert!(
            system.observed_server_reboots() > 0,
            "{label}: no stream ever observed the scheduled crash"
        );
        // A churning client may be mid-reboot (lock dropped) when the server
        // dies, so only the pure-crash cell is guaranteed a reclaim.
        if churn_ms == 0 {
            assert!(
                st.locks_reclaimed > 0,
                "{label}: the crash cell never exercised a grace-period reclaim"
            );
        }
    }
    if churn_ms > 0 {
        assert!(
            st.client_reboots > 0,
            "{label}: churn never produced a verifier-visible client reboot"
        );
    }

    println!(
        "{label:<28} achieved {:>7.1} ops/s  leases {:>6}  renewals {:>6}  \
         locks {:>5}+{:<4} reclaimed  reboots c{:<3}/s{:<2}  table {:>7} B",
        point.achieved_ops_per_sec,
        st.leases_granted,
        st.renewals,
        st.locks_granted,
        st.locks_reclaimed,
        st.client_reboots,
        system.server().stats().crashes,
        system.server().state_table_bytes(),
    );
    let mut fields = vec![
        ("clients", clients.to_string()),
        ("renew_ms", renew_ms.to_string()),
        ("churn_ms", churn_ms.to_string()),
        ("crash_interval_secs", json::number(crash_interval_secs)),
        (
            "offered_ops_per_sec",
            json::number(point.offered_ops_per_sec),
        ),
        (
            "achieved_ops_per_sec",
            json::number(point.achieved_ops_per_sec),
        ),
        ("avg_latency_ms", json::number(point.avg_latency_ms)),
        ("crashes", system.server().stats().crashes.to_string()),
        ("churn_reboots", system.churn_reboots().to_string()),
        ("gave_up", system.gave_up().to_string()),
        ("retransmissions", system.retransmissions().to_string()),
    ];
    fields.extend(state_fields(&system));
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// The abandoned-client cell: datagram loss with a short retry budget makes
/// some streams give up mid-run.  A gave-up stream goes lease-dead — it
/// stops renewing — so the server's expiry sweep must reclaim its lease and
/// orphan its lock rather than hold the state forever.
fn run_abandoned_cell(label: &str, clients: usize, load: f64, secs: u64) -> String {
    let mut config = SfsConfig::figure2(load, WritePolicy::Gathering)
        .with_clients(clients)
        .with_shards(4)
        .with_leases(true)
        .with_lease_timing(
            Duration::from_millis(300),
            Duration::from_millis(900),
            Duration::from_millis(300),
        )
        .with_loss(0.08)
        .with_retry(Duration::from_millis(150), 2);
    config.duration = Duration::from_secs(secs);
    let mut system = SfsSystem::new(config);
    let point = system.run();
    assert_state_oracles(label, &system);
    let st = system.server().state_stats();
    let dead = system.lease_dead_streams();
    if dead > 0 {
        // The point of the cell: abandoned state must drain.  Every
        // lease-dead stream's lease outlives its last renewal by at most
        // the lease duration, so by end-of-run expiry it is reclaimed.
        assert!(
            st.leases_expired > 0,
            "{label}: {dead} streams went lease-dead but no lease expired"
        );
    }
    // Expired state is actually gone: whoever still holds a lock also still
    // holds a live lease at the end of the run.
    let end = SimTime::ZERO + system.config().duration;
    assert_eq!(
        system.server().unleased_locks(end),
        0,
        "{label}: a lock survived its owner's lease expiry"
    );

    println!(
        "{label:<28} achieved {:>7.1} ops/s  gave_up {:>4}  lease_dead {:>4}  \
         expired {:>4}  orphaned {:>4}",
        point.achieved_ops_per_sec,
        system.gave_up(),
        dead,
        st.leases_expired,
        st.state_orphaned,
    );
    let mut fields = vec![
        ("clients", clients.to_string()),
        ("loss_rate", json::number(0.08)),
        (
            "achieved_ops_per_sec",
            json::number(point.achieved_ops_per_sec),
        ),
        ("gave_up", system.gave_up().to_string()),
        ("lease_dead_streams", dead.to_string()),
    ];
    fields.extend(state_fields(&system));
    stamp_cell(&mut fields, system.clamped_past(), &system.sched_stats());
    json::object(&fields)
}

/// The headline 10k-client lease storm: the same shared-LAN SFS mix run
/// twice at the same offered load — stateless, then with every one of the
/// `clients` streams registering, renewing and locking against the 8-way
/// sharded state table.  The knee shift (achieved-ops delta) prices the
/// state layer; the table footprint is reported per client.
fn run_storm_cell(label: &str, clients: usize, load: f64, secs: u64) -> String {
    let base = {
        // The scaled PR 3-4 topology (per-client LANs, sharded multi-core
        // server) is the only deployment that can face 10k clients at all;
        // the state table rides its 8-way sharding.
        let mut config = SfsConfig::scaled(load, WritePolicy::Gathering, clients)
            .with_shards(8)
            // The storm is about state traffic, not the file working set: a
            // small scratch rotation limit plus a widened inode spread keep
            // the 10k x 32-slot scratch namespace (~320k inodes) inside the
            // inode region (96 groups x 3584 inodes, under the 109-group
            // region cap).
            .with_scratch_file_limit(256 * 1024)
            .with_inode_groups(96);
        config.duration = Duration::from_secs(secs);
        config.file_count = 30;
        config
    };

    let mut off = SfsSystem::new(base.clone());
    let off_point = off.run();
    assert_state_oracles(&format!("{label}_off"), &off);
    assert_eq!(
        off.server().state_stats(),
        &wg_server::StateStats::default(),
        "{label}: the stateless baseline touched the state table"
    );

    // All 10k registrations land in a microseconds-wide wave — deliberately
    // far past the server's per-second capacity, so the run measures
    // *survival under overload*: the backlog must drain in arrival order
    // with zero oracle violations and zero InProgress dupcache evictions,
    // and whatever fraction of the wave the server absorbs in-window must
    // be internally consistent.  The lease outlives the run so absorption
    // is pure throughput, not a race against the expiry clock.
    let mut on = SfsSystem::new(base.with_leases(true).with_lease_timing(
        Duration::from_millis(1000),
        Duration::from_secs(10 * secs),
        Duration::from_millis(500),
    ));
    let on_point = on.run();
    assert_state_oracles(&format!("{label}_on"), &on);
    let st = on.server().state_stats();
    let registered = on.server().active_lease_clients();
    assert!(
        registered > 0 && registered <= clients,
        "{label}: registration count {registered} is not sane for {clients} clients"
    );
    assert!(
        st.locks_granted > 0,
        "{label}: no registered stream ever acquired its lock"
    );
    let end = SimTime::ZERO + on.config().duration;
    assert_eq!(
        on.server().unleased_locks(end),
        0,
        "{label}: a lock is held by a client with no live lease"
    );
    assert_eq!(
        st.leases_expired, 0,
        "{label}: a lease expired even though the lease outlives the run"
    );

    let knee_shift = off_point.achieved_ops_per_sec - on_point.achieved_ops_per_sec;
    let bytes_per_client = on.server().state_table_bytes() / registered.max(1) as u64;
    println!(
        "{label:<28} off {:>7.1} ops/s  on {:>7.1} ops/s  knee shift {:>6.1}  \
         registered {:>5}/{clients}  table {:>8} B ({} B/client)",
        off_point.achieved_ops_per_sec,
        on_point.achieved_ops_per_sec,
        knee_shift,
        registered,
        on.server().state_table_bytes(),
        bytes_per_client,
    );
    let mut fields = vec![
        ("clients", clients.to_string()),
        ("registered_clients", registered.to_string()),
        (
            "registration_ratio",
            json::number(registered as f64 / clients.max(1) as f64),
        ),
        (
            "state_bytes_per_registered_client",
            bytes_per_client.to_string(),
        ),
        ("offered_ops_per_sec", json::number(load)),
        (
            "achieved_ops_per_sec_stateless",
            json::number(off_point.achieved_ops_per_sec),
        ),
        (
            "achieved_ops_per_sec_leases",
            json::number(on_point.achieved_ops_per_sec),
        ),
        ("knee_shift_ops_per_sec", json::number(knee_shift)),
        (
            "avg_latency_ms_stateless",
            json::number(off_point.avg_latency_ms),
        ),
        (
            "avg_latency_ms_leases",
            json::number(on_point.avg_latency_ms),
        ),
    ];
    fields.extend(state_fields(&on));
    let mut sched = on.sched_stats();
    sched.absorb(&off.sched_stats());
    stamp_cell(&mut fields, on.clamped_past() + off.clamped_past(), &sched);
    json::object(&fields)
}

const USAGE: &str = "\
usage: state_sweep [--smoke] [--out PATH] [--secs N] [--load N] [--storm-clients N]
       state_sweep --help

  --smoke              small grid (default 4 s, 150 ops/s, 16 grid clients)
  --out PATH           report to merge into (default BENCH_writepath.json)
  --secs N             simulated seconds per grid cell (default 10)
  --load N             offered load in ops/s (default 400)
  --storm-clients N    clients of the lease-storm headline cell (default 10000)";

fn main() {
    let (out_path, smoke, secs, load, storm_clients) =
        cli::parse_or_exit("state_sweep", USAGE, |args| {
            let mut out_path = "BENCH_writepath.json".to_string();
            let (mut smoke, mut secs, mut load, mut storm_clients) = (false, None, None, None);
            while let Some(flag) = args.next_flag() {
                match flag.as_str() {
                    "--out" => out_path = args.value(&flag, "a path")?,
                    "--smoke" => smoke = true,
                    "--secs" => secs = Some(args.number::<u64>(&flag)?),
                    "--load" => load = Some(args.number::<f64>(&flag)?),
                    "--storm-clients" => storm_clients = Some(args.number::<usize>(&flag)?),
                    other => return Err(cli::unknown(other)),
                }
            }
            Ok((out_path, smoke, secs, load, storm_clients))
        });
    let secs = secs.unwrap_or(if smoke { 4 } else { 10 });
    let load = load.unwrap_or(if smoke { 150.0 } else { 400.0 });
    let grid_clients = if smoke { 16 } else { 64 };
    let storm_clients = storm_clients.unwrap_or(10_000);
    // The storm needs at least four renewal intervals: register, lock,
    // renew, and a margin for the replies to land.
    let storm_secs = if smoke { 4 } else { 5 };
    let storm_load = if smoke { 100.0 } else { 200.0 };
    let (renews, churns, crashes): (&[u64], &[u64], &[f64]) = if smoke {
        (&[400], &[0, 900], &[0.0, 1.5])
    } else {
        (&[200, 500], &[0, 1100], &[0.0, 2.0])
    };

    // The storm grid: renewal rate x churn rate x crash schedule over the
    // sharded state table.
    let mut cells: Vec<(String, String)> = Vec::new();
    for &renew in renews {
        for &churn in churns {
            for &crash in crashes {
                let name = format!("renew{renew}ms_churn{churn}ms_crash{crash}s");
                let cell = run_state_cell(&name, grid_clients, load, secs, renew, churn, crash);
                cells.push((name, cell));
            }
        }
    }
    // Abandoned clients: give-ups must drain their server-side state.
    let abandoned = run_abandoned_cell("abandoned_streams", grid_clients, load, secs);
    // The headline storm: 10k clients against the sharded table, priced
    // against the stateless baseline.
    let storm = run_storm_cell("lease_storm_10k", storm_clients, storm_load, storm_secs);

    let grid_fields: Vec<(&str, String)> = cells
        .iter()
        .map(|(name, cell)| (name.as_str(), cell.clone()))
        .collect();
    let state_storms = json::object(&[
        ("smoke", smoke.to_string()),
        ("secs", secs.to_string()),
        ("grid_clients", grid_clients.to_string()),
        ("offered_ops_per_sec", json::number(load)),
        ("grid", json::object(&grid_fields)),
        ("abandoned_streams", abandoned),
        ("lease_storm_10k", storm),
    ]);
    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    let report = upsert_object(&previous, "state_storms", &state_storms);
    std::fs::write(&out_path, report).expect("write report");
    println!("wrote {out_path}");
}
