//! The traced copy runs: host time per layer, measured from outside.
//!
//! [`run_copy_traced`] and [`run_fanin_traced`] rebuild a `paper_copy` cell
//! and the `fanin_unstable` system from public calls only, and replay the
//! serial event loop `FileCopySystem` and `MultiClientSystem` share.  They
//! record a span around every call into a layer: `EventQueue::pop` and
//! `schedule_at` (`calq`), `FileWriterClient::handle_into` (`writer`),
//! `Medium::transmit` (`medium`) and `NfsServer::handle_into` (`server`).
//! Each popped event gets an `event` span whose self time is the driver's
//! dispatch, and each run a `setup` span (the constructors) and a `cell` span
//! (the loop).  Spans stay in memory for one run and are summed when its
//! loop ends.
//!
//! A replica must reproduce the library's run exactly (events, KB/s, disk
//! transactions); the caller checks that, because a replica that diverged
//! would be timing a different program.

use std::collections::VecDeque;
use std::io::Write;
use std::time::Instant;

use wg_client::{ClientAction, ClientConfig, ClientInput, FileWriterClient};
use wg_net::medium::Direction;
use wg_net::{Medium, TransmitOutcome};
use wg_nfsproto::{FileHandle, StableHow};
use wg_server::{NfsServer, ServerAction, ServerConfig, ServerInput, StabilityMode};
use wg_simcore::{Duration, EventQueue, SimTime};
use wg_workload::{ExperimentConfig, MultiClientConfig};

/// The layer a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The cell's constructors.
    Setup,
    /// One cell's event loop.
    Cell,
    /// One popped event's dispatch.
    Event,
    /// A call into the event queue.
    Calq,
    /// A call into the file-writing client.
    Writer,
    /// A call into the network medium.
    Medium,
    /// A call into the NFS server.
    Server,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Cell => "cell",
            Layer::Event => "event",
            Layer::Calq => "calq",
            Layer::Writer => "writer",
            Layer::Medium => "medium",
            Layer::Server => "server",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Sequence number of the popped event the span belongs to.
    event: u32,
}

/// Host-time totals per layer, summed over replayed runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Total span duration per layer, indexed by `Layer as usize`.
    pub ns: [u64; 7],
    /// Self time per layer: duration minus the child spans it contains.
    pub self_ns: [u64; 7],
    /// Spans per layer.
    pub calls: [u64; 7],
    /// Host time measured independently around each whole replayed run.
    pub wall_ns: u64,
}

impl LayerTotals {
    /// Total duration of one layer's spans.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Number of one layer's spans.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// The driver's own time: the self time of the cell loops and of each
    /// event's dispatch.
    pub fn driver_self_ns(&self) -> u64 {
        self.self_ns[Layer::Cell as usize] + self.self_ns[Layer::Event as usize]
    }

    /// The share of the independently measured wall time that the spans do
    /// not account for (set-up, the layers and the driver's self time).
    pub fn unaccounted_frac(&self) -> f64 {
        let accounted = self.ns(Layer::Setup)
            + self.ns(Layer::Calq)
            + self.ns(Layer::Writer)
            + self.ns(Layer::Medium)
            + self.ns(Layer::Server)
            + self.driver_self_ns();
        (self.wall_ns as f64 - accounted as f64).abs() / self.wall_ns.max(1) as f64
    }
}

/// In-memory span recorder for one replayed run.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, parent: u32, event: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            event,
        });
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Adds the run's spans to the totals, writes them to `out` when asked,
    /// and clears them.
    fn drain_into(
        &mut self,
        totals: &mut LayerTotals,
        out: Option<&mut dyn Write>,
    ) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let i = span.layer as usize;
            let dur = span.end_ns - span.start_ns;
            totals.ns[i] += dur;
            totals.self_ns[i] += dur.saturating_sub(*children);
            totals.calls[i] += 1;
        }
        if let Some(out) = out {
            for (id, s) in self.spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    String::new()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{id},{},{},{},{parent},{}",
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns,
                    s.event
                )?;
            }
        }
        self.spans.clear();
        Ok(())
    }
}

/// What the replica computed, for comparison with the library's run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaResult {
    /// Events popped.
    pub events: u64,
    /// The library's headline KB per simulated second: the copy client's
    /// write speed (`FileCopyResult::client_write_kb_per_sec`), or the
    /// fan-in's acknowledged bytes over all clients
    /// (`MultiClientResult::aggregate_kb_per_sec`).
    pub kb_s: f64,
    /// Disk transactions.
    pub disk_trans: u64,
    /// Mean utilisation of the network segments, percent of simulated time.
    pub medium_util_pct: f64,
    /// Datagrams the segments dropped.
    pub medium_lost: u64,
    /// Simulated seconds from start to the last client's completion.
    pub elapsed_s: f64,
}

enum Ev {
    Client(usize, ClientInput),
    Server(ServerInput),
}

/// The header line of a span dump.
pub const SPAN_CSV_HEADER: &str = "id,layer,start_ns,end_ns,parent,event";

/// One writing client: its live writer and the segment files it has left.
struct Slot {
    writer: FileWriterClient,
    pending: VecDeque<(FileHandle, u64)>,
    segment: usize,
    finished_bytes_acked: u64,
    completed_at: Option<SimTime>,
}

/// The replica's simulated system: the same parts the library's drivers
/// assemble, reached only through public calls.
struct Testbed {
    server: NfsServer,
    /// One shared segment, or one per client.
    media: Vec<Medium>,
    slots: Vec<Slot>,
    /// The fan-in configuration that mints each follow-on segment's writer;
    /// `None` for a single copy, which has no follow-on segment.
    fanin: Option<MultiClientConfig>,
}

fn client_stability(mode: StabilityMode) -> StableHow {
    match mode {
        StabilityMode::Stable => StableHow::FileSync,
        StabilityMode::Unstable => StableHow::Unstable,
    }
}

/// Replays one copy cell with spans around every layer call.  The config
/// must have no fault plan, trace or partitioned execution: `paper_copy`
/// uses none.  Mirrors `FileCopySystem::new` and its serial `run`.
pub fn run_copy_traced(
    config: &ExperimentConfig,
    totals: &mut LayerTotals,
    out: Option<&mut dyn Write>,
) -> std::io::Result<ReplicaResult> {
    assert!(
        config.fault_plan.is_empty() && !config.trace && config.sim_threads < 2,
        "the traced replica covers the fault-free serial copy only"
    );
    let mut tr = Tracer::new();
    let wall = Instant::now();
    let setup = tr.open(Layer::Setup, NO_PARENT, 0);
    let medium_params = config.network.params();
    let mut server_config = ServerConfig {
        policy: config.policy,
        nfsds: config.nfsds,
        ..ServerConfig::standard()
    };
    server_config.storage.prestoserve = config.prestoserve;
    server_config.storage.spindles = config.spindles;
    server_config.procrastination = medium_params.procrastination;
    server_config.shards = config.shards;
    server_config.cores = config.cores;
    server_config.io_overlap = config.io_overlap;
    server_config = server_config
        .with_unified_cache(config.cache_pages)
        .with_dirty_ratio(config.dirty_ratio)
        .with_stability(config.stability);
    let mut server = NfsServer::new(server_config);
    let root = server.fs().root();
    let ino = server
        .fs_mut()
        .create(root, "copy-target", 0o644, 0)
        .expect("fresh filesystem");
    let handle = server.handle_for_ino(ino).expect("live inode");
    let mut client_config = ClientConfig {
        biods: config.biods,
        file_size: config.file_size,
        stability: client_stability(config.stability),
        ..ClientConfig::default()
    };
    if let Some((initial_timeout, max_retransmits)) = config.client_retry {
        client_config.initial_timeout = initial_timeout;
        client_config.max_retransmits = max_retransmits;
    }
    let bed = Testbed {
        server,
        media: vec![Medium::new(medium_params)],
        slots: vec![Slot {
            writer: FileWriterClient::new(client_config, handle),
            pending: VecDeque::new(),
            segment: 0,
            finished_bytes_acked: 0,
            completed_at: None,
        }],
        fanin: None,
    };
    tr.close(setup);
    bed.run(tr, wall, totals, out)
}

/// The xid window of one fan-in client's segment, as `MultiClientConfig`
/// partitions the 32-bit space: evenly across clients, then evenly across
/// each client's segments.
fn fanin_xid_base(config: &MultiClientConfig, client: usize, segment: usize) -> u32 {
    let segments = config
        .bytes_per_client
        .div_ceil(config.file_limit.max(1))
        .max(1);
    let client_stride = u32::MAX / config.clients.max(1) as u32;
    let segment_stride = (client_stride as u64 / segments).max(1) as u32;
    (client as u32).wrapping_mul(client_stride) + (segment as u32).wrapping_mul(segment_stride)
}

fn fanin_client_config(
    config: &MultiClientConfig,
    client: usize,
    segment: usize,
    file_size: u64,
) -> ClientConfig {
    ClientConfig {
        biods: config.biods,
        file_size,
        xid_base: fanin_xid_base(config, client, segment),
        fill_salt: MultiClientConfig::fill_salt(client),
        stability: client_stability(config.stability),
        commit_interval: config.commit_interval,
        ..ClientConfig::default()
    }
}

/// Replays the fan-in with spans around every layer call.  Mirrors
/// `MultiClientSystem::new` and its serial `run`; the configuration must
/// give every client a non-empty byte budget and no partitioned execution.
pub fn run_fanin_traced(
    config: &MultiClientConfig,
    totals: &mut LayerTotals,
    out: Option<&mut dyn Write>,
) -> std::io::Result<ReplicaResult> {
    assert!(
        config.sim_threads < 2 && config.bytes_per_client > 0,
        "the traced replica covers the serial fan-in with data to write"
    );
    let mut tr = Tracer::new();
    let wall = Instant::now();
    let setup = tr.open(Layer::Setup, NO_PARENT, 0);
    let medium_params = config.network.params();
    let mut server_config = ServerConfig {
        policy: config.policy,
        nfsds: config.nfsds,
        ..ServerConfig::standard()
    };
    server_config.storage.prestoserve = config.prestoserve;
    server_config.storage.spindles = config.spindles;
    server_config.procrastination = medium_params.procrastination;
    server_config.shards = config.shards.max(1);
    server_config.cores = config.cores.max(1);
    server_config.io_overlap = config.io_overlap;
    server_config = server_config
        .with_unified_cache(config.cache_pages)
        .with_dirty_ratio(config.dirty_ratio)
        .with_stability(config.stability);
    let aggregate = config.clients as u64 * config.bytes_per_client;
    server_config.data_capacity = server_config.data_capacity.max(aggregate + aggregate / 4);
    let mut server = NfsServer::new(server_config);
    let root = server.fs().root();
    let mut slots = Vec::with_capacity(config.clients);
    for client in 0..config.clients {
        let mut pending = VecDeque::new();
        let mut remaining = config.bytes_per_client;
        while remaining > 0 {
            let size = remaining.min(config.file_limit);
            let name = format!("mc{client:03}_seg{:03}", pending.len());
            let ino = server
                .fs_mut()
                .create(root, &name, 0o644, 0)
                .expect("fresh namespace");
            pending.push_back((server.handle_for_ino(ino).expect("live inode"), size));
            remaining -= size;
        }
        let (handle, size) = pending.pop_front().expect("a non-empty byte budget");
        slots.push(Slot {
            writer: FileWriterClient::new(fanin_client_config(config, client, 0, size), handle),
            pending,
            segment: 0,
            finished_bytes_acked: 0,
            completed_at: None,
        });
    }
    let lans = if config.per_client_lans {
        config.clients
    } else {
        1
    };
    let bed = Testbed {
        server,
        media: (0..lans)
            .map(|_| Medium::new(medium_params.clone()))
            .collect(),
        slots,
        fanin: Some(config.clone()),
    };
    tr.close(setup);
    bed.run(tr, wall, totals, out)
}

impl Testbed {
    fn medium_index(&self, client: usize) -> usize {
        if self.media.len() > 1 {
            client
        } else {
            0
        }
    }

    /// The drivers' serial event loop, with a span around every layer call.
    fn run(
        mut self,
        mut tr: Tracer,
        wall: Instant,
        totals: &mut LayerTotals,
        out: Option<&mut dyn Write>,
    ) -> std::io::Result<ReplicaResult> {
        let cell = tr.open(Layer::Cell, NO_PARENT, 0);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut events = 0u64;
        for client in 0..self.slots.len() {
            let s = tr.open(Layer::Calq, cell, 0);
            queue.schedule_at(SimTime::ZERO, Ev::Client(client, ClientInput::Start));
            tr.close(s);
        }
        let mut client_actions: Vec<ClientAction> = Vec::new();
        let mut server_actions: Vec<ServerAction> = Vec::new();
        loop {
            let id = events as u32;
            let s = tr.open(Layer::Calq, cell, id);
            let popped = queue.pop();
            tr.close(s);
            let Some((t, ev)) = popped else { break };
            events += 1;
            let e = tr.open(Layer::Event, cell, id);
            match ev {
                Ev::Client(c, input) => {
                    let s = tr.open(Layer::Writer, e, id);
                    self.slots[c]
                        .writer
                        .handle_into(t, input, &mut client_actions);
                    tr.close(s);
                    for action in client_actions.drain(..) {
                        match action {
                            ClientAction::Send { at, call } => {
                                let m = self.medium_index(c);
                                let size = call.wire_size();
                                let fragments = self.media[m].params().fragments_for(size);
                                let s = tr.open(Layer::Medium, e, id);
                                let outcome = self.media[m].transmit(at, size, Direction::ToServer);
                                tr.close(s);
                                if let TransmitOutcome::Delivered { arrives_at } = outcome {
                                    let s = tr.open(Layer::Calq, e, id);
                                    queue.schedule_at(
                                        arrives_at,
                                        Ev::Server(ServerInput::Datagram {
                                            client: c as u32,
                                            call,
                                            wire_size: size,
                                            fragments,
                                        }),
                                    );
                                    tr.close(s);
                                }
                            }
                            ClientAction::Wakeup { at, token } => {
                                let s = tr.open(Layer::Calq, e, id);
                                queue.schedule_at(at, Ev::Client(c, ClientInput::Wakeup { token }));
                                tr.close(s);
                            }
                            ClientAction::Completed { at } => {
                                let slot = &mut self.slots[c];
                                slot.finished_bytes_acked += slot.writer.stats().bytes_acked;
                                match (slot.pending.pop_front(), &self.fanin) {
                                    (Some((handle, size)), Some(config)) => {
                                        // Roll to the client's next segment file.
                                        slot.segment += 1;
                                        slot.writer = FileWriterClient::new(
                                            fanin_client_config(config, c, slot.segment, size),
                                            handle,
                                        );
                                        let s = tr.open(Layer::Calq, e, id);
                                        queue.schedule_at(at, Ev::Client(c, ClientInput::Start));
                                        tr.close(s);
                                    }
                                    _ => slot.completed_at = Some(at),
                                }
                            }
                        }
                    }
                }
                Ev::Server(input) => {
                    let s = tr.open(Layer::Server, e, id);
                    self.server.handle_into(t, input, &mut server_actions);
                    tr.close(s);
                    for action in server_actions.drain(..) {
                        match action {
                            ServerAction::Wakeup { at, token } => {
                                let s = tr.open(Layer::Calq, e, id);
                                queue.schedule_at(at, Ev::Server(ServerInput::Wakeup { token }));
                                tr.close(s);
                            }
                            ServerAction::Reply { at, client, reply } => {
                                let c = client as usize;
                                let m = self.medium_index(c);
                                let size = reply.wire_size();
                                let s = tr.open(Layer::Medium, e, id);
                                let outcome = self.media[m].transmit(at, size, Direction::ToClient);
                                tr.close(s);
                                if let TransmitOutcome::Delivered { arrives_at } = outcome {
                                    let s = tr.open(Layer::Calq, e, id);
                                    queue.schedule_at(
                                        arrives_at,
                                        Ev::Client(c, ClientInput::Reply(reply)),
                                    );
                                    tr.close(s);
                                }
                            }
                        }
                    }
                }
            }
            tr.close(e);
        }
        tr.close(cell);
        totals.wall_ns += wall.elapsed().as_nanos() as u64;
        tr.drain_into(totals, out)?;

        let last = self
            .slots
            .iter()
            .filter_map(|s| s.completed_at)
            .max()
            .unwrap_or_else(|| queue.now());
        let elapsed = last.since(SimTime::ZERO).max(Duration::from_nanos(1));
        let kb_s = if self.fanin.is_some() {
            let acked: u64 = self
                .slots
                .iter()
                .map(|s| {
                    let live = if s.completed_at.is_some() {
                        0
                    } else {
                        s.writer.stats().bytes_acked
                    };
                    s.finished_bytes_acked + live
                })
                .sum();
            acked as f64 / 1024.0 / elapsed.as_secs_f64()
        } else {
            self.slots[0].writer.stats().write_kb_per_sec()
        };
        Ok(ReplicaResult {
            events,
            kb_s,
            disk_trans: self.server.device_stats().transfers.events(),
            medium_util_pct: self
                .media
                .iter()
                .map(|m| m.utilization_percent(elapsed))
                .sum::<f64>()
                / self.media.len() as f64,
            medium_lost: self.media.iter().map(|m| m.lost_datagrams()).sum(),
            elapsed_s: elapsed.as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_server::WritePolicy;
    use wg_workload::{FileCopySystem, NetworkKind};

    #[test]
    fn replica_matches_the_library_run_and_accounts_for_its_wall_time() {
        let cfg = ExperimentConfig::new(NetworkKind::Fddi, 7, WritePolicy::Gathering)
            .with_file_size(256 * 1024);
        let mut system = FileCopySystem::new(cfg.clone());
        let result = system.run();
        let mut totals = LayerTotals::default();
        let mut dump = Vec::new();
        let replica = run_copy_traced(&cfg, &mut totals, Some(&mut dump)).unwrap();
        assert_eq!(replica.events, system.events_processed());
        assert_eq!(replica.kb_s, result.client_write_kb_per_sec);
        assert_eq!(
            replica.disk_trans,
            system.server().device_stats().transfers.events()
        );
        assert_eq!(replica.elapsed_s, result.elapsed_secs);
        // One pop per event plus the final empty pop, one schedule per event
        // ever queued.
        assert_eq!(
            totals.calls(Layer::Calq),
            replica.events + 1 + system.scheduled_total()
        );
        assert_eq!(totals.calls(Layer::Event), replica.events);
        assert!(totals.unaccounted_frac() < 0.05, "{totals:?}");
        let lines = String::from_utf8(dump).unwrap();
        assert_eq!(
            lines.lines().count() as u64,
            totals.calls.iter().sum::<u64>()
        );
    }

    #[test]
    fn fanin_replica_matches_the_library_run() {
        let cfg = crate::workloads::fanin_config(crate::workloads::Size::Smoke);
        let mut system = wg_workload::MultiClientSystem::new(cfg.clone());
        let result = system.run();
        let mut totals = LayerTotals::default();
        let replica = run_fanin_traced(&cfg, &mut totals, None).unwrap();
        assert_eq!(replica.events, system.events_processed());
        assert_eq!(replica.kb_s, result.aggregate_kb_per_sec);
        assert_eq!(
            replica.disk_trans,
            system.server().device_stats().transfers.events()
        );
        assert_eq!(replica.elapsed_s, result.elapsed_secs);
        assert_eq!(
            totals.calls(Layer::Calq),
            replica.events + 1 + system.scheduled_total()
        );
    }
}
