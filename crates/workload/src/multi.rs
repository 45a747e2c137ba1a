//! The multi-client scale-out system.
//!
//! The paper remarks (§6) that write gathering pays off even more with
//! "several clients", because independent write streams give the server more
//! company to gather per metadata flush — but its tables only measure one
//! client.  [`MultiClientSystem`] puts N [`FileWriterClient`]s on the
//! testbed — one shared segment or one LAN per client, into one
//! [`NfsServer`] — each client copying its own byte budget into its own
//! files, and reports per-client plus aggregate [`FileCopyResult`]s and a
//! fairness readout ([`MultiClientResult`]).  The same writer population,
//! with one client and one file, is the paper's copy
//! ([`crate::FileCopySystem`]).
//!
//! GB-scale budgets do not fit one UFS file (12 direct + 2048 indirect 8 KB
//! blocks ≈ 16 MB), so each client writes a chain of segment files of at most
//! [`MultiClientConfig::file_limit`] bytes, rolling to the next segment when
//! the previous one's `close(2)` returns — the shape of a real bulk copy of
//! many files.  Segments reuse the single-client state machine unchanged;
//! only the xid base moves per segment so the server's duplicate request
//! cache never confuses two generations of requests.
//!
//! Everything rides the zero-copy datapath: payloads are fill patterns salted
//! per client (see [`wg_client::ClientConfig::fill_salt`]), so a million-op
//! multi-client run allocates no payload bytes and
//! [`MultiClientSystem::verify_on_disk`] can attribute every landed block to
//! the client that wrote it.

use std::collections::VecDeque;
use std::marker::PhantomData;

use wg_client::{ClientAction, ClientConfig, ClientInput, ClientStats, FileWriterClient};
use wg_nfsproto::{FileHandle, NfsReply};
use wg_server::{NfsServer, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultPlan, SimTime};

use crate::results::{FileCopyResult, MultiClientResult};
use crate::system::NetworkKind;
use crate::testbed::{
    create_file, server_config, server_knob_builders, stable_how, testbed_accessors, ClientLans,
    Population, Testbed,
};

/// Configuration of one multi-client scale-out run.
#[derive(Clone, Debug)]
pub struct MultiClientConfig {
    /// Network medium shared by every client.
    pub network: NetworkKind,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Biods per client.
    pub biods: usize,
    /// Server write policy.
    pub policy: WritePolicy,
    /// Prestoserve acceleration on the server.
    pub prestoserve: bool,
    /// Number of server disk spindles.
    pub spindles: usize,
    /// Number of server nfsds.  More clients need more nfsds: each file being
    /// gathered can hold one nfsd in its procrastination window.
    pub nfsds: usize,
    /// Bytes each client writes in total.
    pub bytes_per_client: u64,
    /// Largest single file a client writes before rolling to the next segment
    /// (must fit UFS's single-indirect limit of ≈16 MB).
    pub file_limit: u64,
    /// Number of server request-path shards (see
    /// [`wg_server::ServerConfig::shards`]).  `1` is the monolithic server.
    pub shards: usize,
    /// Number of server CPU cores (see [`wg_server::ServerConfig::cores`]).
    pub cores: usize,
    /// Give every client its own network segment (one LAN per client, all
    /// feeding the one server) instead of contending on a single shared
    /// medium — the paper's private-segment topology scaled out.
    pub per_client_lans: bool,
    /// Pipelined storage-stack execution on the server (see
    /// [`wg_server::ServerConfig::io_overlap`]).
    pub io_overlap: bool,
    /// Inert: nothing in the workspace reads or sets it, and every run uses
    /// the one serial event loop.  Kept only because `perfbench`'s replica
    /// guards still read it; drop it once they do not.
    pub sim_threads: usize,
    /// Pages of the server's bounded unified buffer cache (`0`, the default,
    /// keeps the paper's unbounded delayed-write pool).
    pub cache_pages: u64,
    /// Dirty-page throttle fraction of the unified cache.
    pub dirty_ratio: f64,
    /// Write-stability regime: [`StabilityMode::Unstable`] makes every client
    /// issue `WRITE(UNSTABLE)` and `COMMIT` each segment at its close.
    pub stability: StabilityMode,
    /// Periodic COMMIT pacing (unstable mode): each client COMMITs once this
    /// many bytes sit uncommitted instead of only at segment close.  `0`
    /// (the default) keeps close-only commits.
    pub commit_interval: u64,
}

/// Minimum headroom a segment's xid window keeps beyond the writes the
/// segment actually issues (file creation, close-time attribute traffic and
/// a safety margin for future per-segment requests).
const XID_SEGMENT_SLACK: u32 = 64;

impl MultiClientConfig {
    /// A scale-out run with the paper's client parameters (10 MB per client,
    /// 8 MB segment files) and an nfsd pool sized to the client count.
    pub fn new(network: NetworkKind, clients: usize, biods: usize, policy: WritePolicy) -> Self {
        MultiClientConfig {
            network,
            clients: clients.max(1),
            biods,
            policy,
            prestoserve: false,
            spindles: 1,
            nfsds: 8.max(4 * clients),
            bytes_per_client: 10 * 1024 * 1024,
            file_limit: 8 * 1024 * 1024,
            shards: 1,
            cores: 1,
            per_client_lans: false,
            io_overlap: false,
            sim_threads: 0,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
            commit_interval: 0,
        }
    }

    /// Set the per-client byte budget.
    pub fn with_bytes_per_client(mut self, bytes: u64) -> Self {
        self.bytes_per_client = bytes;
        self
    }

    /// Set the per-segment file size cap.
    pub fn with_file_limit(mut self, bytes: u64) -> Self {
        self.file_limit = bytes;
        self
    }

    /// Enable Prestoserve.
    pub fn with_presto(mut self, on: bool) -> Self {
        self.prestoserve = on;
        self
    }

    server_knob_builders!();

    /// Set the nfsd pool size.
    pub fn with_nfsds(mut self, n: usize) -> Self {
        self.nfsds = n;
        self
    }

    /// Give every client its own network segment.
    pub fn with_per_client_lans(mut self, on: bool) -> Self {
        self.per_client_lans = on;
        self
    }

    /// Pace COMMITs every `bytes` of uncommitted data (see
    /// [`MultiClientConfig::commit_interval`]; `0` keeps close-only).
    pub fn with_commit_interval(mut self, bytes: u64) -> Self {
        self.commit_interval = bytes;
        self
    }

    /// The fill-byte salt of a client, distinct per client id (odd multiplier
    /// so the mapping is a bijection modulo 256).
    pub fn fill_salt(client: usize) -> u8 {
        (client as u8).wrapping_mul(61).wrapping_add(17)
    }

    /// Segments each client's byte budget splits into.
    fn segments_per_client(&self) -> u64 {
        self.bytes_per_client
            .div_ceil(self.file_limit.max(1))
            .max(1)
    }

    /// The xid-space partition: the full 32-bit space is split evenly across
    /// the configured client count, and each client's window is split evenly
    /// across its segments.  (Duplicate detection is keyed by `(client,
    /// xid)`, so cross-client collisions would even be harmless — the even
    /// split simply keeps every request globally unique and debuggable.)
    /// Returns `(client_stride, segment_stride)`.
    fn xid_strides(&self) -> (u32, u32) {
        let client_stride = u32::MAX / self.clients.max(1) as u32;
        // Divide in u64: a segment count beyond u32 must collapse the stride
        // to 1 (and fail the constructor's window-width assert), not wrap
        // into another client's window.
        let segment_stride = (client_stride as u64 / self.segments_per_client()).max(1) as u32;
        (client_stride, segment_stride)
    }

    /// Xids a single segment can consume: one per 8 KB write, plus slack for
    /// the surrounding per-segment requests.
    fn xids_per_segment(&self) -> u64 {
        self.file_limit.max(1).div_ceil(8192) + XID_SEGMENT_SLACK as u64
    }

    fn xid_base(&self, client: usize, segment: usize) -> u32 {
        let (client_stride, segment_stride) = self.xid_strides();
        (client as u32).wrapping_mul(client_stride) + (segment as u32).wrapping_mul(segment_stride)
    }

    /// The (name, size) segment layout of one client's byte budget.
    fn layout(&self, client: usize) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut remaining = self.bytes_per_client;
        let mut segment = 0usize;
        while remaining > 0 {
            let size = remaining.min(self.file_limit);
            out.push((format!("mc{client:03}_seg{segment:03}"), size));
            remaining -= size;
            segment += 1;
        }
        out
    }
}

/// Event budget of a writer run over `bytes` in aggregate: a 10 MB copy
/// needs ~13 k events, and this allows ~400x that per 10 MB.
pub(crate) fn event_budget(bytes: u64) -> u64 {
    5_000_000 * (bytes / (1024 * 1024)).max(1)
}

/// One file-writing client: the live writer, the segment files it has not
/// started yet and the stats of the ones it finished.
pub(crate) struct ClientSlot {
    /// The writer of the current segment.
    pub(crate) writer: FileWriterClient,
    /// Segments not yet started: front = next.
    pending: VecDeque<(FileHandle, u64)>,
    /// Stats of *finished* segments; the live writer's are folded in on its
    /// `Completed` action (see [`ClientSlot::total`]).
    finished: ClientStats,
    /// When the client's last segment closed.
    pub(crate) completed_at: Option<SimTime>,
}

impl ClientSlot {
    /// One stat summed over every segment, the live writer's included.  An
    /// incomplete client (stalled mid-segment) must still report what it
    /// did transfer — that partial count is exactly what diagnosing a dead
    /// multi-client cell needs.
    pub(crate) fn total(&self, stat: impl Fn(&ClientStats) -> u64) -> u64 {
        // A completed client's final segment was folded in on completion;
        // the writer still holds it, so don't count it twice.
        let live = if self.completed_at.is_some() {
            0
        } else {
            stat(&self.writer.stats())
        };
        stat(&self.finished) + live
    }
}

/// A writer-population event: one client's input.  The single-client copy
/// speaks bare [`ClientInput`]s, which keeps its events 8 bytes smaller than
/// the fan-in's `(client, input)` pairs.
pub(crate) trait WriterEvent {
    /// Address `input` to `client`.
    fn new(client: usize, input: ClientInput) -> Self;
    /// The addressed client and its input.
    fn into_parts(self) -> (usize, ClientInput);
}

impl WriterEvent for ClientInput {
    fn new(client: usize, input: ClientInput) -> Self {
        debug_assert_eq!(client, 0, "a bare client input addresses client 0");
        input
    }

    fn into_parts(self) -> (usize, ClientInput) {
        (0, self)
    }
}

impl WriterEvent for (usize, ClientInput) {
    fn new(client: usize, input: ClientInput) -> Self {
        (client, input)
    }

    fn into_parts(self) -> (usize, ClientInput) {
        self
    }
}

/// The writer population: file-writing clients, each copying a chain of
/// segment files and rolling to the next when the previous one's `close(2)`
/// returns.  A single file copy is the one-client, one-segment case.
pub(crate) struct Writers<E> {
    pub(crate) slots: Vec<ClientSlot>,
    /// Xid distance between one client's consecutive segments.
    segment_stride: u32,
    /// Action buffer reused for every event.
    actions: Vec<ClientAction>,
    event: PhantomData<E>,
}

impl<E> Writers<E> {
    /// An empty population whose clients move `segment_stride` xids on at
    /// every segment roll.
    pub(crate) fn new(segment_stride: u32) -> Self {
        Writers {
            slots: Vec::new(),
            segment_stride,
            actions: Vec::new(),
            event: PhantomData,
        }
    }

    /// Add a client writing `handle` under `config`, then each of `pending`
    /// in turn.
    pub(crate) fn push(
        &mut self,
        config: ClientConfig,
        handle: FileHandle,
        pending: VecDeque<(FileHandle, u64)>,
    ) {
        self.slots.push(ClientSlot {
            writer: FileWriterClient::new(config, handle),
            pending,
            finished: ClientStats::default(),
            completed_at: None,
        });
    }
}

impl<E: WriterEvent> Population for Writers<E> {
    type Event = E;

    fn start(&mut self, bed: &mut Testbed<E>) {
        for client in 0..self.slots.len() {
            bed.schedule(SimTime::ZERO, E::new(client, ClientInput::Start));
        }
    }

    fn handle(&mut self, t: SimTime, event: E, bed: &mut Testbed<E>) {
        let (client, input) = event.into_parts();
        let slot = &mut self.slots[client];
        slot.writer.handle_into(t, input, &mut self.actions);
        for action in self.actions.drain(..) {
            match action {
                ClientAction::Send { at, call } => bed.send(at, client, call),
                ClientAction::Wakeup { at, token } => {
                    bed.schedule(at, E::new(client, ClientInput::Wakeup { token }));
                }
                ClientAction::Completed { at } => {
                    let stats = slot.writer.stats();
                    slot.finished.bytes_acked += stats.bytes_acked;
                    slot.finished.retransmissions += stats.retransmissions;
                    slot.finished.gave_up += stats.gave_up;
                    slot.finished.paced_commits += stats.paced_commits;
                    if let Some((handle, size)) = slot.pending.pop_front() {
                        // Roll to the next segment file: a fresh writer with
                        // the next xid generation, started at this close's
                        // return time.
                        let config = ClientConfig {
                            file_size: size,
                            xid_base: slot
                                .writer
                                .config()
                                .xid_base
                                .wrapping_add(self.segment_stride),
                            ..slot.writer.config().clone()
                        };
                        slot.writer = FileWriterClient::new(config, handle);
                        bed.schedule(at, E::new(client, ClientInput::Start));
                    } else {
                        slot.completed_at = Some(at);
                    }
                }
            }
        }
    }

    fn reply(client: u32, reply: NfsReply) -> E {
        E::new(client as usize, ClientInput::Reply(reply))
    }
}

/// The assembled N-client system.
pub struct MultiClientSystem {
    config: MultiClientConfig,
    /// The server behind one shared segment, or one segment per client when
    /// [`MultiClientConfig::per_client_lans`] is set.
    bed: Testbed<(usize, ClientInput)>,
    writers: Writers<(usize, ClientInput)>,
}

impl MultiClientSystem {
    /// Build the system: the server exports one fresh filesystem holding
    /// every client's segment files, created outside the measured window.
    pub fn new(config: MultiClientConfig) -> Self {
        // The 32-bit xid space is partitioned clients × segments; the run is
        // only valid if each segment's window covers the requests it issues.
        let (_, segment_stride) = config.xid_strides();
        assert!(
            segment_stride as u64 >= config.xids_per_segment(),
            "xid space too small: {} clients x {} segments leaves a {}-xid \
             window per segment but one segment can use {}; raise file_limit \
             or lower the client count",
            config.clients,
            config.segments_per_client(),
            segment_stride,
            config.xids_per_segment()
        );
        let mut server_config = server_config!(config);
        // GB-scale aggregates must fit the data region; keep the default
        // geometry unless the sweep actually needs more.
        let aggregate = config.clients as u64 * config.bytes_per_client;
        server_config.data_capacity = server_config.data_capacity.max(aggregate + aggregate / 4);
        let mut server = NfsServer::new(server_config);

        let mut writers = Writers::new(segment_stride);
        for client in 0..config.clients {
            let mut pending: VecDeque<(FileHandle, u64)> = config
                .layout(client)
                .iter()
                .map(|(name, size)| (create_file(&mut server, name), *size))
                .collect();
            let (handle, size) = pending.pop_front().unwrap_or((
                // A zero-byte budget still gets a writer so the slot completes
                // immediately through the normal path.
                server.root_handle(),
                0,
            ));
            let client_config = ClientConfig {
                biods: config.biods,
                file_size: size,
                xid_base: config.xid_base(client, 0),
                fill_salt: MultiClientConfig::fill_salt(client),
                stability: stable_how(config.stability),
                commit_interval: config.commit_interval,
                ..ClientConfig::default()
            };
            writers.push(client_config, handle, pending);
        }
        let lans = ClientLans::new(
            &config.network.params(),
            config.clients,
            config.per_client_lans,
            None,
        );
        MultiClientSystem {
            bed: Testbed::new(server, lans, FaultPlan::new()),
            writers,
            config,
        }
    }

    /// Run every client to completion and return the scale-out result.
    pub fn run(&mut self) -> MultiClientResult {
        let aggregate = self.config.clients as u64 * self.config.bytes_per_client;
        self.bed.run(&mut self.writers, event_budget(aggregate));
        self.result()
    }

    fn result(&self) -> MultiClientResult {
        let slots = &self.writers.slots;
        let now = self.bed.queue.now();
        let last_completion = slots
            .iter()
            .filter_map(|s| s.completed_at)
            .max()
            .unwrap_or(now);
        let elapsed = last_completion.since(SimTime::ZERO);
        let elapsed = Duration::from_nanos(elapsed.as_nanos().max(1));
        let server = &self.bed.server;
        let device = server.device_stats();
        let total_gave_up: u64 = slots.iter().map(|s| s.total(|c| c.gave_up)).sum();
        let all_completed = slots.iter().all(|s| s.completed_at.is_some()) && total_gave_up == 0;
        // On a loss-free fan-in every client must finish; a lossy or faulted
        // run may legitimately end with counted give-ups instead.
        debug_assert!(
            all_completed || total_gave_up > 0,
            "a client never finished its byte budget"
        );
        let clients: Vec<FileCopyResult> = slots
            .iter()
            .map(|slot| {
                let gave_up = slot.total(|c| c.gave_up);
                let client_elapsed = slot
                    .completed_at
                    .unwrap_or(now)
                    .since(SimTime::ZERO)
                    .as_secs_f64()
                    .max(1e-9);
                FileCopyResult {
                    biods: self.config.biods,
                    client_write_kb_per_sec: slot.total(|c| c.bytes_acked) as f64
                        / 1024.0
                        / client_elapsed,
                    // Server-side quantities are shared; report them over the
                    // whole run so the per-client rows stay comparable.
                    server_cpu_percent: server.cpu_utilization_percent(elapsed),
                    disk_kb_per_sec: device.kb_per_sec(elapsed),
                    disk_trans_per_sec: device.transfers_per_sec(elapsed),
                    elapsed_secs: client_elapsed,
                    mean_batch_size: server.stats().mean_batch_size(),
                    retransmissions: slot.total(|c| c.retransmissions),
                    gave_up,
                    completed: slot.completed_at.is_some() && gave_up == 0,
                }
            })
            .collect();
        let total_bytes_acked: u64 = slots.iter().map(|s| s.total(|c| c.bytes_acked)).sum();
        let rates: Vec<f64> = clients.iter().map(|c| c.client_write_kb_per_sec).collect();
        MultiClientResult {
            aggregate_kb_per_sec: total_bytes_acked as f64 / 1024.0 / elapsed.as_secs_f64(),
            total_bytes_acked,
            elapsed_secs: elapsed.as_secs_f64(),
            fairness: MultiClientResult::jain_fairness(&rates),
            min_client_kb_per_sec: rates.iter().copied().fold(f64::INFINITY, f64::min),
            max_client_kb_per_sec: rates.iter().copied().fold(0.0, f64::max),
            completed: all_completed,
            clients,
        }
    }

    /// Check every client's data on the server: each segment file must exist
    /// at its full size and every block must carry that client's salted fill
    /// byte.  Catches cross-client bleed, lost writes and mis-routed replies.
    /// Assumes a loss-free run (every write acknowledged).
    pub fn verify_on_disk(&self) -> Result<(), String> {
        let mut fs = self.bed.server.fs().clone();
        let root = fs.root();
        let block = fs.params().block_size;
        for client in 0..self.config.clients {
            let salt = MultiClientConfig::fill_salt(client);
            for (name, size) in self.config.layout(client) {
                let ino = fs
                    .lookup(root, &name)
                    .map_err(|e| format!("client {client}: {name} missing: {e}"))?;
                let attrs = fs
                    .getattr(ino)
                    .map_err(|e| format!("client {client}: {name} getattr: {e}"))?;
                if attrs.size != size {
                    return Err(format!(
                        "client {client}: {name} is {} bytes, expected {size}",
                        attrs.size
                    ));
                }
                for lbn in 0..size.div_ceil(block) {
                    let offset = lbn * block;
                    let want = (lbn as u8).wrapping_add(salt);
                    let got = fs
                        .read(ino, offset, block)
                        .map_err(|e| format!("client {client}: {name} read: {e}"))?;
                    if got.data.iter_bytes().any(|b| b != want) {
                        return Err(format!(
                            "client {client}: {name} block {lbn} does not carry \
                             fill byte {want:#04x} (cross-client bleed or lost write)"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    testbed_accessors!();

    /// Interval-paced COMMITs sent across all clients (zero unless
    /// [`MultiClientConfig::commit_interval`] is armed).
    pub fn paced_commits(&self) -> u64 {
        self.writers
            .slots
            .iter()
            .map(|s| s.total(|c| c.paced_commits))
            .sum()
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &MultiClientConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Ev;

    /// Pin the driver event's footprint.  Every schedule parks one `Ev` in
    /// the event queue's slab and every pop moves it back out, so a grown
    /// variant taxes the whole event loop.  The size is set by the
    /// largest payload (a `ServerInput` carrying an `NfsCall`); box a new
    /// large variant instead of raising this pin.
    #[test]
    fn driver_event_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Ev<(usize, ClientInput)>>() <= 112,
            "Ev grew to {} bytes; box the large variant",
            std::mem::size_of::<Ev<(usize, ClientInput)>>()
        );
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    fn layout_splits_budgets_at_the_file_limit() {
        let cfg = MultiClientConfig::new(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
            .with_bytes_per_client(20 * MB)
            .with_file_limit(8 * MB);
        let layout = cfg.layout(1);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout[0].1, 8 * MB);
        assert_eq!(layout[2].1, 4 * MB);
        assert!(layout[0].0.starts_with("mc001_"));
        // Distinct clients get distinct salts and xid spaces.
        assert_ne!(
            MultiClientConfig::fill_salt(0),
            MultiClientConfig::fill_salt(1)
        );
        let last_segment = cfg.segments_per_client() as usize - 1;
        assert!(cfg.xid_base(1, 0) > cfg.xid_base(0, last_segment));
    }

    #[test]
    fn xid_partitioning_scales_past_128_clients() {
        // 256 clients split the 32-bit xid space without overlap: every
        // segment window is disjoint and wide enough for its writes.
        let cfg = MultiClientConfig::new(NetworkKind::Fddi, 256, 2, WritePolicy::Gathering)
            .with_bytes_per_client(256 * 1024)
            .with_file_limit(128 * 1024);
        let (client_stride, segment_stride) = cfg.xid_strides();
        assert!(segment_stride as u64 >= cfg.xids_per_segment());
        assert!(client_stride as u64 * 256 <= u32::MAX as u64 + 1);
        let mut bases: Vec<u32> = (0..256)
            .flat_map(|c| (0..cfg.segments_per_client() as usize).map(move |s| (c, s)))
            .map(|(c, s)| cfg.xid_base(c, s))
            .collect();
        let total = bases.len();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), total, "xid bases collide");
        // Consecutive windows never overlap the xids a segment can use.
        assert!(bases
            .windows(2)
            .all(|w| (w[1] - w[0]) as u64 >= cfg.xids_per_segment()));
    }

    #[test]
    #[should_panic(expected = "xid space too small")]
    fn oversized_segment_count_is_rejected_not_wrapped() {
        // ~4.9 billion 8 KB segments: more segments than u32 can index.  The
        // stride math must collapse to a too-narrow window and trip the
        // constructor assert, never truncate and wrap xid windows silently.
        let cfg = MultiClientConfig::new(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
            .with_bytes_per_client(40_000_000_000_000)
            .with_file_limit(8192);
        let _ = MultiClientSystem::new(cfg);
    }

    #[test]
    fn two_hundred_fifty_six_clients_run_to_completion() {
        // ROADMAP "client-count scaling past 128": a 256-client run finishes
        // and every client's data survives the fan-in.
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 256, 1, WritePolicy::Gathering)
                .with_bytes_per_client(32 * 1024)
                .with_shards(4)
                .with_cores(4)
                .with_io_overlap(true)
                .with_spindles(3),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.clients.len(), 256);
        assert_eq!(result.total_bytes_acked, 256 * 32 * 1024);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn overlapped_multi_client_run_is_not_slower_and_stays_intact() {
        let run = |overlap: bool| {
            let mut system = MultiClientSystem::new(
                MultiClientConfig::new(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                    .with_bytes_per_client(2 * MB)
                    .with_shards(4)
                    .with_spindles(3)
                    .with_io_overlap(overlap),
            );
            let result = system.run();
            assert!(result.completed);
            system.verify_on_disk().expect("per-client data intact");
            assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
            result
        };
        let serial = run(false);
        let overlapped = run(true);
        // Same acknowledged work either way; the pipelined stack never loses
        // throughput on the striped device.
        assert_eq!(serial.total_bytes_acked, overlapped.total_bytes_acked);
        assert!(
            overlapped.aggregate_kb_per_sec >= serial.aggregate_kb_per_sec * 0.999,
            "overlap {:.0} KB/s vs serial {:.0} KB/s",
            overlapped.aggregate_kb_per_sec,
            serial.aggregate_kb_per_sec
        );
    }

    #[test]
    fn two_clients_complete_and_verify() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
                .with_bytes_per_client(MB)
                .with_file_limit(512 * 1024),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.total_bytes_acked, 2 * MB);
        assert_eq!(result.clients.len(), 2);
        assert!(result.fairness > 0.8, "fairness {}", result.fairness);
        assert!(result.aggregate_kb_per_sec > 0.0);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn unstable_clients_commit_every_segment_and_verify_on_disk() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 3, 4, WritePolicy::Gathering)
                .with_bytes_per_client(MB)
                .with_file_limit(512 * 1024)
                .with_unified_cache(4096)
                .with_stability(StabilityMode::Unstable),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.total_bytes_acked, 3 * MB);
        let stats = system.server().stats();
        assert!(stats.unstable_writes > 0);
        // Each client COMMITs every one of its two segments at close.
        assert!(stats.commits >= 6, "commits {}", stats.commits);
        assert_eq!(stats.forced_file_sync, 0);
        assert_eq!(system.server().uncommitted_bytes(), 0);
        system.verify_on_disk().expect("per-client data intact");
    }

    #[test]
    fn sharded_server_with_per_client_lans_completes_and_verifies() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 3, 4, WritePolicy::Gathering)
                .with_bytes_per_client(MB)
                .with_file_limit(512 * 1024)
                .with_shards(3)
                .with_cores(2)
                .with_per_client_lans(true),
        );
        assert_eq!(system.server().shard_count(), 3);
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.total_bytes_acked, 3 * MB);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
        assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
        // Independent segments: no client retransmits, fairness stays high.
        assert!(result.clients.iter().all(|c| c.retransmissions == 0));
        assert!(result.fairness > 0.9, "fairness {}", result.fairness);
    }

    #[test]
    fn per_client_lans_do_not_slow_the_aggregate() {
        let run = |lans: bool, shards: usize, cores: usize| {
            MultiClientSystem::new(
                MultiClientConfig::new(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                    .with_bytes_per_client(MB)
                    .with_shards(shards)
                    .with_cores(cores)
                    .with_per_client_lans(lans),
            )
            .run()
        };
        let shared = run(false, 1, 1);
        let sharded = run(true, 4, 4);
        assert!(shared.completed && sharded.completed);
        // Removing wire contention and CPU serialisation must not lose
        // throughput (the shared disk remains the floor).
        assert!(
            sharded.aggregate_kb_per_sec > shared.aggregate_kb_per_sec * 0.95,
            "sharded {:.0} KB/s vs shared {:.0} KB/s",
            sharded.aggregate_kb_per_sec,
            shared.aggregate_kb_per_sec
        );
    }

    #[test]
    fn single_client_cell_matches_the_single_client_system_shape() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 1, 15, WritePolicy::Gathering)
                .with_bytes_per_client(MB),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.clients.len(), 1);
        let lone = &result.clients[0];
        assert!(lone.completed);
        assert_eq!(lone.retransmissions, 0);
        assert!((result.fairness - 1.0).abs() < 1e-12);
        assert!(
            (result.aggregate_kb_per_sec - lone.client_write_kb_per_sec).abs()
                < lone.client_write_kb_per_sec * 1e-6
        );
    }
}
