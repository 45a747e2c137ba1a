//! The paper's file copy (Tables 1–6, Figure 1): the writer population with one client.

use std::collections::VecDeque;

use wg_client::{ClientConfig, ClientInput, FileWriterClient};
use wg_net::MediumParams;
use wg_server::{NfsServer, ServerConfig, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultPlan, SimTime, Trace};

use crate::multi::{event_budget, Writers};
use crate::results::FileCopyResult;
use crate::testbed::{
    create_file, server_config, server_knob_builders, stable_how, testbed_accessors, ClientLans,
    Testbed,
};

/// Which network the experiment runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NetworkKind {
    /// Private 10 Mb/s Ethernet (Tables 1 and 2).
    Ethernet,
    /// Private 100 Mb/s FDDI (Tables 3–6, Figures 1–3).
    Fddi,
}

impl NetworkKind {
    /// The medium calibration for this network.
    pub fn params(self) -> MediumParams {
        match self {
            NetworkKind::Ethernet => MediumParams::ethernet(),
            NetworkKind::Fddi => MediumParams::fddi(),
        }
    }
}

/// Configuration of one file-copy experiment cell.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Network medium.
    pub network: NetworkKind,
    /// Client biod count (the column of the tables).
    pub biods: usize,
    /// Server write policy (Standard vs Gathering is the with/without split of
    /// every table).
    pub policy: WritePolicy,
    /// Prestoserve acceleration on the server.
    pub prestoserve: bool,
    /// Number of server disk spindles (1 or 3).
    pub spindles: usize,
    /// Bytes the client writes (10 MB in the paper).
    pub file_size: u64,
    /// Number of server nfsds (8 in the paper's file-copy experiments).
    pub nfsds: usize,
    /// Server request-path shards (1 = the paper's monolithic dispatch).
    pub shards: usize,
    /// Server CPU cores (1 = the paper's serial CPU).
    pub cores: usize,
    /// Pipelined storage-stack execution (see
    /// [`wg_server::ServerConfig::io_overlap`]).  `false` is the paper's
    /// serial driver.
    pub io_overlap: bool,
    /// Record a Figure-1 style event trace on the server.
    pub trace: bool,
    /// Fault-injection schedule.  Empty (the default) means the fault layer
    /// is completely inert: no events are scheduled and the run is
    /// bit-identical to one built before the layer existed.
    pub fault_plan: FaultPlan,
    /// Override of the client's `(initial_timeout, max_retransmits)` retry
    /// knobs, used by fault tests to force a give-up quickly.  `None` keeps
    /// [`wg_client::ClientConfig::default`].
    pub client_retry: Option<(Duration, u32)>,
    /// Inert: nothing in the workspace reads or sets it, and every run uses
    /// the one serial event loop.  Kept only because `perfbench`'s replica
    /// guards still read it; drop it once they do not.
    pub sim_threads: usize,
    /// Pages of the server's bounded unified buffer cache (`0`, the default,
    /// keeps the paper's unbounded delayed-write pool — every table cell is
    /// byte-identical to a build without the cache).
    pub cache_pages: u64,
    /// Fraction of the unified cache allowed to sit dirty before writers are
    /// throttled (only meaningful with [`ExperimentConfig::cache_pages`] set).
    pub dirty_ratio: f64,
    /// The write-stability regime of the cell: [`StabilityMode::Stable`] is
    /// the paper's world (every WRITE durable before its reply);
    /// [`StabilityMode::Unstable`] issues NFSv3-style `WRITE(UNSTABLE)` from
    /// the client and `COMMIT` at close.
    pub stability: StabilityMode,
}

impl ExperimentConfig {
    /// The paper's default 10 MB copy cell.
    pub fn new(network: NetworkKind, biods: usize, policy: WritePolicy) -> Self {
        ExperimentConfig {
            network,
            biods,
            policy,
            prestoserve: false,
            spindles: 1,
            file_size: 10 * 1024 * 1024,
            nfsds: 8,
            shards: 1,
            cores: 1,
            io_overlap: false,
            trace: false,
            fault_plan: FaultPlan::new(),
            client_retry: None,
            sim_threads: 0,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
        }
    }

    /// Enable Prestoserve.
    pub fn with_presto(mut self, on: bool) -> Self {
        self.prestoserve = on;
        self
    }

    server_knob_builders!();

    /// Use a smaller file (keeps unit tests fast).
    pub fn with_file_size(mut self, bytes: u64) -> Self {
        self.file_size = bytes;
        self
    }

    /// Record a server event trace.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Attach a fault-injection schedule to the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the client's retry knobs (initial retransmit timeout and the
    /// attempt cap after which it gives up).
    pub fn with_client_retry(mut self, initial_timeout: Duration, max_retransmits: u32) -> Self {
        self.client_retry = Some((initial_timeout, max_retransmits));
        self
    }
}

/// The assembled single-client system: the writer population with one
/// client copying one file.
pub struct FileCopySystem {
    config: ExperimentConfig,
    bed: Testbed<ClientInput>,
    writers: Writers<ClientInput>,
}

impl FileCopySystem {
    /// Build the system: the server exports a fresh filesystem containing the
    /// target file, the client is parameterised by the biod count.
    pub fn new(config: ExperimentConfig) -> Self {
        Self::new_customized(config, |_| {})
    }

    /// Build the system with a final hook over the derived [`ServerConfig`],
    /// used by the ablation harness to vary knobs (procrastination interval,
    /// reply order, mbuf hunter) that the paper discusses but the tables do
    /// not sweep.
    pub fn new_customized(
        config: ExperimentConfig,
        customize: impl FnOnce(&mut ServerConfig),
    ) -> Self {
        let mut server_config = server_config!(config);
        customize(&mut server_config);
        let mut server = NfsServer::new(server_config);
        if config.trace {
            server.enable_trace();
        }
        // The target file is created outside the measured window (the paper
        // measures the data transfer of an established copy).
        let handle = create_file(&mut server, "copy-target");

        let mut client_config = ClientConfig {
            biods: config.biods,
            file_size: config.file_size,
            stability: stable_how(config.stability),
            ..ClientConfig::default()
        };
        if let Some((initial_timeout, max_retransmits)) = config.client_retry {
            client_config.initial_timeout = initial_timeout;
            client_config.max_retransmits = max_retransmits;
        }
        let mut writers = Writers::new(0);
        writers.push(client_config, handle, VecDeque::new());
        let lans = ClientLans::new(&config.network.params(), 1, false, None);
        FileCopySystem {
            bed: Testbed::new(server, lans, config.fault_plan.clone()),
            writers,
            config,
        }
    }

    testbed_accessors!();

    /// Run the copy to completion and return the table-cell result.
    ///
    /// The loop drains the queue fully: after the client completes, the only
    /// remaining events are bounded housekeeping wake-ups (nfsd-free timers,
    /// gather continuations), and letting them run keeps the server's final
    /// statistics consistent.
    pub fn run(&mut self) -> FileCopyResult {
        self.bed
            .run(&mut self.writers, event_budget(self.config.file_size));
        self.result()
    }

    fn result(&self) -> FileCopyResult {
        let stats = self.client().stats();
        // A copy only counts as completed when every byte was acknowledged:
        // a client that abandoned writes after exhausting its retransmits
        // reports a counted failure, never a silent success.
        let completed_at = self.writers.slots[0].completed_at;
        let completed = completed_at.is_some() && stats.gave_up == 0;
        // A drained event queue with the client still unfinished means the
        // simulation lost work (a dropped wake-up, an orphaned write): surface
        // it immediately in debug builds, and flag it in the result so sweeps
        // can't mistake a dead cell for a slow one.  Under an injected fault
        // schedule an incomplete cell is a legitimate outcome (that is what
        // the chaos sweep measures), so the assert only covers fault-free
        // runs.
        debug_assert!(
            completed || !self.config.fault_plan.is_empty(),
            "file copy did not complete: {} bytes acked of {}, {} writes given up",
            stats.bytes_acked,
            self.config.file_size,
            stats.gave_up
        );
        let elapsed = completed_at
            .unwrap_or_else(|| self.bed.queue.now())
            .since(SimTime::ZERO);
        let elapsed = Duration::from_nanos(elapsed.as_nanos().max(1));
        let server = &self.bed.server;
        let device = server.device_stats();
        FileCopyResult {
            biods: self.config.biods,
            client_write_kb_per_sec: stats.write_kb_per_sec(),
            server_cpu_percent: server.cpu_utilization_percent(elapsed),
            disk_kb_per_sec: device.kb_per_sec(elapsed),
            disk_trans_per_sec: device.transfers_per_sec(elapsed),
            elapsed_secs: elapsed.as_secs_f64(),
            mean_batch_size: server.stats().mean_batch_size(),
            retransmissions: stats.retransmissions,
            gave_up: stats.gave_up,
            completed,
        }
    }

    /// Recovery oracle: re-read every byte range the client saw acknowledged
    /// and count the bytes whose content no longer matches the fill pattern
    /// that was written.  Zero for every policy that honours the NFS
    /// stable-storage rule, no matter what the fault plan did; positive only
    /// when an acknowledged write was lost (the
    /// [`wg_server::WritePolicy::DangerousAsync`] failure mode).
    pub fn lost_acked_bytes_on_disk(&self) -> u64 {
        let mut fs = self.bed.server.fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").expect("target file exists");
        let client = self.client();
        let mut lost = 0u64;
        for &(offset, len) in client.acked_writes() {
            let fill = client.fill_byte_for(offset);
            let data = fs.read(ino, offset, len).expect("acked range readable");
            lost += data.to_vec().iter().filter(|&&b| b != fill).count() as u64;
        }
        lost
    }

    /// The server's event trace (enable with [`ExperimentConfig::with_trace`]).
    pub fn trace(&self) -> &Trace {
        self.bed.server.trace()
    }

    /// The client, for post-run inspection.
    pub fn client(&self) -> &FileWriterClient {
        &self.writers.slots[0].writer
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }
}

/// Run one cell: convenience wrapper used by the benches and examples.
pub fn run_cell(config: ExperimentConfig) -> FileCopyResult {
    FileCopySystem::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Ev;
    use wg_simcore::FaultKind;

    /// Pin the driver event's footprint.  Every schedule moves one `Ev` by
    /// value into the calendar queue and every pop moves it back out, so a
    /// grown variant taxes the whole event loop.  The size is set by the
    /// largest payload (a `ServerInput` carrying an `NfsCall`); box a new
    /// large variant instead of raising this pin.
    #[test]
    fn driver_event_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Ev<ClientInput>>() <= 104,
            "Ev grew to {} bytes; box the large variant",
            std::mem::size_of::<Ev<ClientInput>>()
        );
    }

    const SMALL: u64 = 1024 * 1024; // 1 MB keeps unit tests quick

    fn run(
        network: NetworkKind,
        biods: usize,
        policy: WritePolicy,
        presto: bool,
    ) -> FileCopyResult {
        run_cell(
            ExperimentConfig::new(network, biods, policy)
                .with_presto(presto)
                .with_file_size(SMALL),
        )
    }

    #[test]
    fn copy_completes_and_data_is_intact() {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(SMALL),
        );
        let result = system.run();
        assert!(result.client_write_kb_per_sec > 0.0);
        assert!(result.completed);
        assert_eq!(result.retransmissions, 0);
        // Every byte the client acknowledged is present and committed.
        assert_eq!(system.client().stats().bytes_acked, SMALL);
        assert_eq!(system.server().uncommitted_bytes(), 0);
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, SMALL);
        // Spot-check the block fill pattern written by the client.
        let block7 = fs.read(ino, 7 * 8192, 8192).unwrap().to_vec();
        assert!(block7.iter().all(|&b| b == 7));
    }

    #[test]
    fn unstable_copy_commits_at_close_and_lands_the_same_file() {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(SMALL)
                .with_unified_cache(4096)
                .with_stability(StabilityMode::Unstable),
        );
        let result = system.run();
        assert!(result.completed);
        let stats = system.server().stats();
        assert!(stats.unstable_writes > 0, "no WRITE(UNSTABLE) reached disk");
        assert!(stats.commits > 0, "the close never issued a COMMIT");
        assert_eq!(stats.forced_file_sync, 0);
        // COMMIT made everything durable before close(2) returned...
        assert_eq!(system.server().uncommitted_bytes(), 0);
        assert_eq!(system.client().uncommitted_ranges().len(), 0);
        assert_eq!(system.client().stats().verifier_mismatches, 0);
        // ...and the bytes on disk are the bytes the client wrote.
        assert_eq!(system.lost_acked_bytes_on_disk(), 0);
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, SMALL);
    }

    #[test]
    fn unstable_copy_crashed_mid_writeback_voids_and_recovers_its_cache() {
        // A 512 KB WRITE(UNSTABLE) copy through a small bounded cache,
        // crashed at 50 ms: the crash must catch uncommitted dirty pages
        // (counted, never acknowledged as durable), the client must see the
        // boot-verifier change, and the re-sent ranges must land the file.
        let config = ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
            .with_file_size(512 * 1024)
            .with_unified_cache(1024)
            .with_stability(StabilityMode::Unstable)
            .with_fault_plan(FaultPlan::new().at(SimTime::from_millis(50), FaultKind::ServerCrash));
        let mut system = FileCopySystem::new(config.clone());
        let result = system.run();
        let stats = system.server().stats();
        assert!(
            stats.lost_unstable_bytes > 0,
            "the crash missed the writeback window"
        );
        assert_eq!(stats.lost_acked_bytes, 0);
        assert!(
            system.client().stats().verifier_mismatches > 0,
            "the client never noticed the reboot"
        );
        assert!(result.completed);
        assert_eq!(system.lost_acked_bytes_on_disk(), 0);
        assert_eq!(system.clamped_past(), 0);
        let mut replay = FileCopySystem::new(config);
        assert_eq!(format!("{result:?}"), format!("{:?}", replay.run()));
        assert_eq!(replay.events_processed(), system.events_processed());
    }

    #[test]
    fn faulted_copy_replays_bit_for_bit_even_when_it_never_completes() {
        // A crash, a battery failure, a loss burst and a disk degrade
        // mid-copy against a client that gives up quickly: the faulted
        // (possibly incomplete) cell, including the elapsed-time fallback to
        // the queue clock, must replay identically.
        let plan = FaultPlan::new()
            .at(SimTime::from_millis(200), FaultKind::ServerCrash)
            .at(
                SimTime::from_millis(500),
                FaultKind::BatteryFailure {
                    repair_after: Duration::from_millis(300),
                },
            )
            .at(
                SimTime::from_millis(900),
                FaultKind::LossBurst {
                    duration: Duration::from_millis(400),
                    probability: 0.7,
                    segment: None,
                },
            )
            .at(
                SimTime::from_millis(1500),
                FaultKind::DiskDegrade {
                    duration: Duration::from_millis(200),
                    stall: Duration::from_millis(3),
                    retries: 2,
                },
            );
        let config = ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
            .with_file_size(512 * 1024)
            .with_fault_plan(plan)
            .with_client_retry(Duration::from_millis(150), 3);
        let mut first = FileCopySystem::new(config.clone());
        let a = first.run();
        let mut second = FileCopySystem::new(config);
        let b = second.run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(first.events_processed(), second.events_processed());
        assert_eq!(first.clamped_past(), 0);
        assert_eq!(first.server().stats().crashes, 1);
        assert_eq!(first.server().stats().lost_acked_bytes, 0);
        assert_eq!(
            first.lost_acked_bytes_on_disk(),
            second.lost_acked_bytes_on_disk()
        );
    }

    #[test]
    fn unstable_copy_is_never_slower_than_file_sync() {
        let run = |stability| {
            FileCopySystem::new(
                ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Standard)
                    .with_file_size(SMALL)
                    .with_unified_cache(4096)
                    .with_stability(stability),
            )
            .run()
        };
        let stable = run(StabilityMode::Stable);
        let unstable = run(StabilityMode::Unstable);
        assert!(stable.completed && unstable.completed);
        // Acking from the cache and batching durability into one COMMIT must
        // beat per-write synchronous commits on a standard-policy server.
        assert!(
            unstable.client_write_kb_per_sec > stable.client_write_kb_per_sec,
            "unstable {:.0} KB/s vs stable {:.0} KB/s",
            unstable.client_write_kb_per_sec,
            stable.client_write_kb_per_sec
        );
    }

    #[test]
    fn gathering_beats_standard_with_many_biods_on_fddi() {
        let standard = run(NetworkKind::Fddi, 15, WritePolicy::Standard, false);
        let gathering = run(NetworkKind::Fddi, 15, WritePolicy::Gathering, false);
        assert!(
            gathering.client_write_kb_per_sec > standard.client_write_kb_per_sec * 1.8,
            "gathering {:.0} KB/s vs standard {:.0} KB/s",
            gathering.client_write_kb_per_sec,
            standard.client_write_kb_per_sec
        );
        // And it does so with far fewer disk transactions per second relative
        // to the data rate.
        let std_tx_per_kb = standard.disk_trans_per_sec / standard.disk_kb_per_sec;
        let gat_tx_per_kb = gathering.disk_trans_per_sec / gathering.disk_kb_per_sec;
        assert!(gat_tx_per_kb < std_tx_per_kb * 0.6);
    }

    #[test]
    fn gathering_costs_a_little_with_zero_biods() {
        let standard = run(NetworkKind::Ethernet, 0, WritePolicy::Standard, false);
        let gathering = run(NetworkKind::Ethernet, 0, WritePolicy::Gathering, false);
        // §6.10: the single-threaded client loses, but not catastrophically.
        assert!(gathering.client_write_kb_per_sec < standard.client_write_kb_per_sec);
        assert!(
            gathering.client_write_kb_per_sec > standard.client_write_kb_per_sec * 0.6,
            "loss too large: {:.0} vs {:.0}",
            gathering.client_write_kb_per_sec,
            standard.client_write_kb_per_sec
        );
    }

    #[test]
    fn standard_throughput_is_flat_in_biods_without_presto() {
        let few = run(NetworkKind::Fddi, 3, WritePolicy::Standard, false);
        let many = run(NetworkKind::Fddi, 15, WritePolicy::Standard, false);
        // The vnode lock serialises everything; extra biods barely help.
        assert!(many.client_write_kb_per_sec < few.client_write_kb_per_sec * 1.3);
    }

    #[test]
    fn presto_lifts_standard_server_throughput() {
        let plain = run(NetworkKind::Ethernet, 7, WritePolicy::Standard, false);
        let presto = run(NetworkKind::Ethernet, 7, WritePolicy::Standard, true);
        assert!(
            presto.client_write_kb_per_sec > plain.client_write_kb_per_sec * 2.0,
            "presto {:.0} vs plain {:.0}",
            presto.client_write_kb_per_sec,
            plain.client_write_kb_per_sec
        );
    }

    #[test]
    fn presto_gathering_trades_throughput_for_cpu() {
        let without = run(NetworkKind::Ethernet, 7, WritePolicy::Standard, true);
        let with = run(NetworkKind::Ethernet, 7, WritePolicy::Gathering, true);
        // Table 2's shape: some client throughput is given up...
        assert!(with.client_write_kb_per_sec <= without.client_write_kb_per_sec * 1.05);
        // ...but server CPU per byte moved drops.
        let cpu_per_kb_without = without.server_cpu_percent / without.client_write_kb_per_sec;
        let cpu_per_kb_with = with.server_cpu_percent / with.client_write_kb_per_sec;
        assert!(
            cpu_per_kb_with < cpu_per_kb_without,
            "cpu/KB with {cpu_per_kb_with:.5} vs without {cpu_per_kb_without:.5}"
        );
    }

    #[test]
    fn overlapped_stripe_copy_is_never_slower_and_lands_the_same_file() {
        let run = |overlap: bool| {
            let mut system = FileCopySystem::new(
                ExperimentConfig::new(NetworkKind::Fddi, 8, WritePolicy::Gathering)
                    .with_spindles(3)
                    .with_io_overlap(overlap)
                    .with_file_size(SMALL),
            );
            let result = system.run();
            assert!(result.completed);
            let device = system.server().device_stats();
            (result, device.transfers.bytes(), system)
        };
        let (serial, serial_bytes, _s1) = run(false);
        let (overlapped, ov_bytes, system) = run(true);
        // Same bytes reach the platters; the copy never slows down.
        assert_eq!(serial_bytes, ov_bytes);
        assert!(
            overlapped.elapsed_secs <= serial.elapsed_secs * 1.0001,
            "overlap {:.4}s vs serial {:.4}s",
            overlapped.elapsed_secs,
            serial.elapsed_secs
        );
        // And the file is intact.
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, SMALL);
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn trace_records_the_figure1_story() {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(256 * 1024)
                .with_trace(true),
        );
        system.run();
        let trace = system.trace();
        use wg_simcore::TraceKind;
        assert!(trace.count_of(TraceKind::RequestArrived) >= 32);
        assert!(trace.count_of(TraceKind::ReplySent) >= 32);
        assert!(trace.count_of(TraceKind::Procrastinate) >= 1);
        assert!(trace.count_of(TraceKind::MetadataToDisk) >= 1);
    }
}
