//! The testbed every driver runs on: one server behind its LAN fan-in, one
//! event queue and the one event loop.
//!
//! Every experiment of the paper puts one server behind one wire and changes
//! only the client load.  [`Testbed`] is the fixed half: it owns the
//! [`NfsServer`], the [`ClientLans`] fan-in and the [`EventQueue`]; it runs
//! the loop, routes server actions, sends client datagrams and applies the
//! fault plan.  A [`Population`] is the client half: the file-writing clients
//! of the copy and the fan-in ([`crate::multi::Writers`]) or the SFS load
//! generators.

use wg_net::medium::{Direction, MediumParams};
use wg_net::{Medium, TransmitOutcome};
use wg_nfsproto::{FileHandle, NfsCall, NfsReply, StableHow};
use wg_server::{NfsServer, ServerAction, ServerInput, StabilityMode};
use wg_simcore::{EventQueue, FaultKind, FaultPlan, SimTime};

/// Map the server knobs every driver config mirrors (network, policy,
/// nfsds, Prestoserve, spindles, shards, cores, `io_overlap`, unified cache,
/// dirty ratio and stability) onto a [`wg_server::ServerConfig`].  A macro
/// because the three configs carry these knobs under the same field names
/// but share no type; it goes once the configs embed a `ServerConfig`.
macro_rules! server_config {
    ($config:expr) => {{
        let config = &$config;
        let mut server = wg_server::ServerConfig {
            policy: config.policy,
            nfsds: config.nfsds,
            procrastination: config.network.params().procrastination,
            shards: config.shards.max(1),
            cores: config.cores.max(1),
            io_overlap: config.io_overlap,
            ..wg_server::ServerConfig::standard()
        };
        server.storage.prestoserve = config.prestoserve;
        server.storage.spindles = config.spindles;
        server
            .with_unified_cache(config.cache_pages)
            .with_dirty_ratio(config.dirty_ratio)
            .with_stability(config.stability)
    }};
}
pub(crate) use server_config;

/// The builders of the knobs [`server_config!`] maps, written once for every
/// driver config.
macro_rules! server_knob_builders {
    () => {
        /// Use a stripe set of `n` spindles.
        pub fn with_spindles(mut self, n: usize) -> Self {
            self.spindles = n.max(1);
            self
        }

        /// Shard the server's request path `n` ways.
        pub fn with_shards(mut self, n: usize) -> Self {
            self.shards = n.max(1);
            self
        }

        /// Give the server `n` CPU cores.
        pub fn with_cores(mut self, n: usize) -> Self {
            self.cores = n.max(1);
            self
        }

        /// Enable pipelined storage-stack execution on the server (see
        /// [`wg_server::ServerConfig::io_overlap`]).
        pub fn with_io_overlap(mut self, on: bool) -> Self {
            self.io_overlap = on;
            self
        }

        /// Arm the server's bounded unified buffer cache with `pages` pages
        /// (`0` disarms it and restores the paper's unbounded pool).
        pub fn with_unified_cache(mut self, pages: u64) -> Self {
            self.cache_pages = pages;
            self
        }

        /// Set the dirty-page throttle fraction of the unified cache.
        pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
            self.dirty_ratio = ratio;
            self
        }

        /// Select the write-stability regime of the cell.
        pub fn with_stability(mut self, mode: wg_server::StabilityMode) -> Self {
            self.stability = mode;
            self
        }
    };
}
pub(crate) use server_knob_builders;

/// The scheduler and server accessors every driver exposes over its
/// testbed (a `bed` field).
macro_rules! testbed_accessors {
    () => {
        /// Number of events processed by the most recent run.
        pub fn events_processed(&self) -> u64 {
            self.bed.events_processed
        }

        /// Total events ever scheduled.
        pub fn scheduled_total(&self) -> u64 {
            self.bed.queue.scheduled_total()
        }

        /// Events scheduled into the simulated past and clamped.  Always zero
        /// in a healthy model (see [`wg_simcore::EventQueue::clamped_past`]).
        pub fn clamped_past(&self) -> u64 {
            self.bed.queue.clamped_past()
        }

        /// Scheduler-health counters of the pending-event set (the calendar
        /// queue's geometry).
        pub fn sched_stats(&self) -> wg_simcore::CalStats {
            self.bed.queue.sched_stats()
        }

        /// The server, for post-run inspection.
        pub fn server(&self) -> &wg_server::NfsServer {
            &self.bed.server
        }
    };
}
pub(crate) use testbed_accessors;

/// How a client marks its writes under a cell's stability regime.
pub(crate) fn stable_how(mode: StabilityMode) -> StableHow {
    match mode {
        StabilityMode::Stable => StableHow::FileSync,
        StabilityMode::Unstable => StableHow::Unstable,
    }
}

/// Create an empty file named `name` in the export's root, outside the
/// measured window, and return its handle.
pub(crate) fn create_file(server: &mut NfsServer, name: &str) -> FileHandle {
    let root = server.fs().root();
    let ino = server
        .fs_mut()
        .create(root, name, 0o644, 0)
        .expect("file names are fresh");
    server.handle_for_ino(ino).expect("live inode")
}

/// The network fan-in: one segment shared by every client, or one private
/// LAN per client, every segment terminating at the one server.
pub(crate) struct ClientLans {
    pub(crate) media: Vec<Medium>,
}

impl ClientLans {
    /// Build the fan-in: `clients` private segments when `per_client` is set,
    /// one shared segment otherwise.  With `loss = Some((p, seed))` every
    /// segment drops datagrams at `p`, its loss stream seeded from `(seed,
    /// segment index)` alone — never from construction order or wall-clock —
    /// so a sweep cell built on a worker thread draws exactly the loss
    /// pattern the same cell draws in a serial sweep.  With `None` a segment
    /// drops nothing outside an injected loss window.
    pub(crate) fn new(
        params: &MediumParams,
        clients: usize,
        per_client: bool,
        loss: Option<(f64, u64)>,
    ) -> Self {
        let count = if per_client { clients.max(1) } else { 1 };
        let medium = |segment| match loss {
            Some((p, seed)) => {
                Medium::with_loss(params.clone(), p, Self::segment_seed(seed, segment))
            }
            None => Medium::new(params.clone()),
        };
        ClientLans {
            media: (0..count).map(medium).collect(),
        }
    }

    /// Per-segment rng seed: a splitmix-style mix of the base seed and the
    /// segment index, so adjacent segments do not share prefixes.
    fn segment_seed(seed: u64, segment: usize) -> u64 {
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((segment as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Open a loss window on one segment (`Some(idx)`, clamped into range) or
    /// on every segment (`None`).
    fn inject_loss_window(
        &mut self,
        segment: Option<usize>,
        from: SimTime,
        until: SimTime,
        probability: f64,
    ) {
        match segment {
            Some(idx) => {
                let idx = idx.min(self.media.len() - 1);
                self.media[idx].inject_loss_window(from, until, probability);
            }
            None => {
                for medium in &mut self.media {
                    medium.inject_loss_window(from, until, probability);
                }
            }
        }
    }

    /// The segment a client transmits and receives on.
    fn medium_mut(&mut self, client: usize) -> &mut Medium {
        let idx = if self.media.len() > 1 { client } else { 0 };
        &mut self.media[idx]
    }
}

/// Events flowing through a testbed whose population speaks `E`.
pub(crate) enum Ev<E> {
    /// A datagram or timer for the server.
    Server(ServerInput),
    /// One of the population's own events, routed replies included.
    Client(E),
    /// An injected fault fires (scheduled only when the plan is non-empty).
    Fault(FaultKind),
    /// The NVRAM battery comes back after a `BatteryFailure`.
    BatteryRepair,
}

/// The client side of a run.
pub(crate) trait Population {
    /// The population's own events.
    type Event;

    /// Schedule the population's opening events.
    fn start(&mut self, bed: &mut Testbed<Self::Event>);

    /// Handle one of the population's own events at `t`.
    fn handle(&mut self, t: SimTime, event: Self::Event, bed: &mut Testbed<Self::Event>);

    /// Wrap a reply the server sent `client` as a population event.
    fn reply(client: u32, reply: NfsReply) -> Self::Event;
}

/// One server, its LAN fan-in and the event queue that drives them.
pub(crate) struct Testbed<E> {
    /// The server under test.
    pub(crate) server: NfsServer,
    /// The segments between the clients and the server.
    pub(crate) lans: ClientLans,
    pub(crate) queue: EventQueue<Ev<E>>,
    faults: FaultPlan,
    /// Events processed by the most recent run.
    pub(crate) events_processed: u64,
}

impl<E> Testbed<E> {
    /// Wire `server` behind `lans`, with `faults` to inject once the run
    /// starts.  An empty plan schedules nothing, so the run is identical to
    /// one without the fault layer.
    pub(crate) fn new(server: NfsServer, lans: ClientLans, faults: FaultPlan) -> Self {
        Testbed {
            server,
            lans,
            queue: EventQueue::new(),
            faults,
            events_processed: 0,
        }
    }

    /// Schedule one of the population's own events.
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule_at(at, Ev::Client(event));
    }

    /// Transmit a call from `client` toward the server at `at`; a datagram
    /// the segment drops never arrives.
    pub(crate) fn send(&mut self, at: SimTime, client: usize, call: NfsCall) {
        let size = call.wire_size();
        let medium = self.lans.medium_mut(client);
        let fragments = medium.params().fragments_for(size);
        if let TransmitOutcome::Delivered { arrives_at } =
            medium.transmit(at, size, Direction::ToServer)
        {
            self.queue.schedule_at(
                arrives_at,
                Ev::Server(ServerInput::Datagram {
                    client: client as u32,
                    call,
                    wire_size: size,
                    fragments,
                }),
            );
        }
    }

    /// Run `population` until the queue drains.  `max_events` is the runaway
    /// guard: hitting it means the system re-schedules work without making
    /// progress, not that the experiment is merely large.
    ///
    /// Action buffers are allocated once and reused for every event, so the
    /// steady-state loop performs no per-event allocation.
    pub(crate) fn run<P: Population<Event = E>>(&mut self, population: &mut P, max_events: u64) {
        self.events_processed = 0;
        population.start(self);
        for event in self.faults.events() {
            self.queue.schedule_at(event.at, Ev::Fault(event.kind));
        }
        let mut server_actions: Vec<ServerAction> = Vec::new();
        while let Some((t, ev)) = self.queue.pop() {
            self.events_processed += 1;
            assert!(
                self.events_processed < max_events,
                "runaway simulation: {} events without draining (simulated time \
                 {t:?}, {} events still queued, {} scheduled in total)",
                self.events_processed,
                self.queue.len(),
                self.queue.scheduled_total(),
            );
            match ev {
                Ev::Client(event) => population.handle(t, event, self),
                Ev::Server(input) => {
                    self.server.handle_into(t, input, &mut server_actions);
                    for action in server_actions.drain(..) {
                        match action {
                            ServerAction::Wakeup { at, token } => {
                                self.queue
                                    .schedule_at(at, Ev::Server(ServerInput::Wakeup { token }));
                            }
                            ServerAction::Reply { at, client, reply } => {
                                let medium = self.lans.medium_mut(client as usize);
                                if let TransmitOutcome::Delivered { arrives_at } =
                                    medium.transmit(at, reply.wire_size(), Direction::ToClient)
                                {
                                    let event = Ev::Client(P::reply(client, reply));
                                    self.queue.schedule_at(arrives_at, event);
                                }
                            }
                        }
                    }
                }
                Ev::Fault(kind) => self.apply_fault(t, kind),
                Ev::BatteryRepair => {
                    self.server.set_battery(true, t);
                }
            }
        }
    }

    fn apply_fault(&mut self, t: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::ServerCrash => {
                self.server.crash(t);
            }
            FaultKind::BatteryFailure { repair_after } => {
                self.server.set_battery(false, t);
                self.queue.schedule_at(t + repair_after, Ev::BatteryRepair);
            }
            FaultKind::DiskDegrade {
                duration,
                stall,
                retries,
            } => self.server.inject_disk_fault(t, duration, stall, retries),
            FaultKind::LossBurst {
                duration,
                probability,
                segment,
            } => self
                .lans
                .inject_loss_window(segment, t, t + duration, probability),
        }
    }
}
