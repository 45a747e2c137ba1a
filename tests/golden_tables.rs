//! Golden-output test: the rendered Table 1 (at a reduced file size) must be
//! byte-identical to the checked-in snapshot.
//!
//! The zero-copy write datapath is a pure wall-clock optimisation; it must
//! not perturb a single simulated number.  This test pins every rendered cell
//! of a full Table 1 sweep (both policies, all five biod columns) so any
//! accidental behaviour change in the payload representation, the wire-size
//! accounting or the event loop shows up as a diff against the snapshot
//! captured before the refactor.
//!
//! A second snapshot, `drivers.txt`, pins the driver paths the table does
//! not reach: a copy under every fault kind, a leased and churned SFS cell on
//! per-client LANs under a crash, a targeted loss burst, a battery failure and
//! a disk degrade, and a multi-client fan-in.  Each run records its result,
//! its event counts and the server's crash, lost-byte and commit counters, so
//! a change to the event loop that reorders or drops a single event shows up
//! as a diff.
//!
//! To regenerate after an *intentional* simulation change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release -p wg-apps --test golden_tables
//! ```

use wg_bench::{run_table, run_table_with, table_spec};
use wg_server::{NfsServer, WritePolicy};
use wg_simcore::{Duration, FaultKind, FaultPlan, SimTime};
use wg_workload::sfs::{SfsConfig, SfsSystem};
use wg_workload::{
    ExperimentConfig, FileCopySystem, MultiClientConfig, MultiClientSystem, NetworkKind,
};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/table1_1mb.txt"
);
const DRIVERS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/drivers.txt"
);
const FILE_SIZE: u64 = 1024 * 1024;

/// Compare `rendered` against the snapshot at `path`, or rewrite the
/// snapshot under `GOLDEN_REGEN`.
fn check_golden(path: &str, rendered: &str, what: &str) {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(path, rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "{what} drifted from the golden snapshot; if the simulation change is \
         intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn table1_reduced_render_matches_golden() {
    let spec = table_spec(1).expect("table 1 exists");
    let rendered = run_table(spec, FILE_SIZE).render();
    check_golden(GOLDEN_PATH, &rendered, "Table 1 render");
}

#[test]
fn explicitly_serial_server_matches_golden_exactly() {
    // The sharded request path, the multi-core CPU model and the pipelined
    // storage stack must all collapse to the paper's machine when explicitly
    // configured down to one shard, one core and the serial driver: every
    // rendered cell of Table 1 stays byte-identical to the golden snapshot,
    // so neither the sharding nor the I/O-overlap refactor can have moved a
    // single simulated number.
    let spec = table_spec(1).expect("table 1 exists");
    let rendered = run_table_with(spec, FILE_SIZE, |server_config| {
        server_config.shards = 1;
        server_config.cores = 1;
        server_config.io_overlap = false;
    })
    .render();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "a shards=1, cores=1, io_overlap=off server no longer reproduces \
         the paper's numbers"
    );
}

/// One snapshot line: the run's result, its event counts and the server's
/// crash, lost-byte and commit counters.
fn driver_line(
    name: &str,
    result: &dyn std::fmt::Debug,
    events: u64,
    scheduled: u64,
    server: &NfsServer,
) -> String {
    let stats = server.stats();
    format!(
        "{name}: {result:?} events={events} scheduled={scheduled} crashes={} \
         lost_acked={} lost_unstable={} commits={}\n",
        stats.crashes, stats.lost_acked_bytes, stats.lost_unstable_bytes, stats.commits
    )
}

#[test]
fn driver_runs_match_golden() {
    let ms = SimTime::from_millis;
    let mut rendered = String::new();

    // A copy under all four fault kinds, against a client that gives up
    // quickly.
    let copy_plan = FaultPlan::new()
        .at(ms(200), FaultKind::ServerCrash)
        .at(
            ms(500),
            FaultKind::BatteryFailure {
                repair_after: Duration::from_millis(300),
            },
        )
        .at(
            ms(900),
            FaultKind::LossBurst {
                duration: Duration::from_millis(400),
                probability: 0.7,
                segment: None,
            },
        )
        .at(
            ms(1500),
            FaultKind::DiskDegrade {
                duration: Duration::from_millis(200),
                stall: Duration::from_millis(3),
                retries: 2,
            },
        );
    let mut copy = FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
            .with_file_size(512 * 1024)
            .with_fault_plan(copy_plan)
            .with_client_retry(Duration::from_millis(150), 3),
    );
    let result = copy.run();
    rendered += &driver_line(
        "faulted_copy",
        &result,
        copy.events_processed(),
        copy.scheduled_total(),
        copy.server(),
    );

    // A leased, churned SFS cell on per-client LANs behind Prestoserve,
    // under a crash, a loss burst aimed at one segment, a battery failure
    // and a disk degrade.
    let sfs_plan = FaultPlan::new()
        .at(ms(1200), FaultKind::ServerCrash)
        .at(
            ms(1500),
            FaultKind::LossBurst {
                duration: Duration::from_millis(300),
                probability: 0.5,
                segment: Some(1),
            },
        )
        .at(
            ms(2000),
            FaultKind::BatteryFailure {
                repair_after: Duration::from_millis(500),
            },
        )
        .at(
            ms(2600),
            FaultKind::DiskDegrade {
                duration: Duration::from_millis(300),
                stall: Duration::from_millis(4),
                retries: 2,
            },
        );
    let sfs_config = SfsConfig {
        duration: Duration::from_secs(4),
        file_count: 30,
        file_size: 64 * 1024,
        ..SfsConfig::figure3(300.0, WritePolicy::Gathering)
    }
    .with_clients(3)
    .with_per_client_lans(true)
    .with_leases(true)
    .with_lease_timing(
        Duration::from_millis(400),
        Duration::from_secs(2),
        Duration::from_millis(800),
    )
    .with_churn(Duration::from_millis(1500))
    .with_fault_plan(sfs_plan)
    .with_retry(Duration::from_millis(300), 6);
    let mut sfs = SfsSystem::new(sfs_config);
    let point = sfs.run();
    let result = (
        point,
        sfs.counts(),
        sfs.retransmissions(),
        sfs.gave_up(),
        sfs.lock_grants(),
    );
    rendered += &driver_line(
        "faulted_leased_sfs",
        &result,
        sfs.events_processed(),
        sfs.scheduled_total(),
        sfs.server(),
    );

    // Three writers, each on its own LAN, rolling over two segment files.
    let mut fanin = MultiClientSystem::new(
        MultiClientConfig::new(NetworkKind::Fddi, 3, 4, WritePolicy::Gathering)
            .with_bytes_per_client(1024 * 1024)
            .with_file_limit(512 * 1024)
            .with_per_client_lans(true),
    );
    let result = fanin.run();
    rendered += &driver_line(
        "fanin_per_client_lans",
        &result,
        fanin.events_processed(),
        fanin.scheduled_total(),
        fanin.server(),
    );

    check_golden(DRIVERS_PATH, &rendered, "driver runs");
}
