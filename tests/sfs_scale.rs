//! Multi-client SFS scale-out: the contracts behind the `"sfs_scale"` bench
//! cells.
//!
//! * per-seed determinism across thread-pool schedules — a parallel sweep is
//!   bit-identical to the serial runner,
//! * per-client fairness (Jain's index over per-stream achieved throughput),
//! * zero payload materialisations across a mixed READ/WRITE sweep point,
//! * the knee shift itself — the scaled stack (per-client LANs, shards,
//!   cores, overlapped I/O, inode groups, read caching) beats the
//!   single-generator baseline at the same offered load,
//! * and the hot-loop allocation contract: steady-state op generation
//!   (LOOKUP / READ / GETATTR / WRITE bursts) and a warmed event queue's
//!   schedule/pop cycle perform **zero** heap allocations, pinned by a
//!   counting global allocator, not by eyeball,
//! * and the outstanding-call rings of a default-length lease storm never
//!   lap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use wg_nfsproto::payload::materialize_count;
use wg_server::{StabilityMode, WritePolicy};
use wg_simcore::{Duration, EventQueue, SimRng, SimTime};
use wg_workload::sfs::SfsSystem;
use wg_workload::{SfsConfig, SfsMix, SfsSweep};

/// A pass-through allocator that counts the allocations made on threads
/// that armed the probe ([`allocations_during`]).  Counting per thread
/// keeps the probe's window free of the test harness's own bookkeeping —
/// libtest spawns, joins and reports other tests' threads concurrently with
/// whichever test is running — while still catching every allocation the
/// generator makes, since generation never leaves the calling thread.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.  `const`-initialised
    /// and drop-free, so reading it from inside the allocator never
    /// allocates and stays valid during thread teardown.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `work` and return how many allocations the calling thread made
/// during it.
fn allocations_during(work: impl FnOnce()) -> u64 {
    COUNTED.with(|counted| counted.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTED.with(|counted| counted.set(false));
    delta
}

/// The payload materialisation counter is process-global, so a probe of it
/// can only measure its own window if no sibling test runs concurrently —
/// libtest runs this binary's tests on parallel threads.  Every test takes
/// this lock, serialising the whole file.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn quick(load: f64) -> SfsConfig {
    let mut cfg = SfsConfig::figure2(load, WritePolicy::Gathering);
    cfg.duration = Duration::from_secs(4);
    cfg.file_count = 40;
    cfg.file_size = 64 * 1024;
    cfg
}

fn quick_scaled(load: f64, clients: usize) -> SfsConfig {
    let mut cfg = SfsConfig::scaled(load, WritePolicy::Gathering, clients);
    cfg.duration = Duration::from_secs(4);
    cfg.file_count = 40;
    cfg.file_size = 64 * 1024;
    cfg
}

#[test]
fn steady_state_generation_performs_no_heap_allocation() {
    let _serial = serialised();
    // A mix of only the allocation-free operations: LOOKUP, READ, GETATTR
    // and WRITE bursts.  CREATE legitimately mints a name (it must) and is
    // excluded, exactly as the hot-loop contract states.
    let mut cfg = quick_scaled(1000.0, 2);
    cfg.mix = SfsMix::steady_state();
    let mut system = SfsSystem::new(cfg);
    let now = SimTime::ZERO + Duration::from_millis(1);
    // Warm up: first bursts grow the burst queue to its steady capacity.
    for client in 0..2 {
        for _ in 0..2000 {
            let _ = system.generate_one(now, client);
        }
    }
    let mints_before = system.name_mints();
    let delta = allocations_during(|| {
        for client in 0..2 {
            for _ in 0..10_000 {
                let call = system.generate_one(now, client);
                std::hint::black_box(&call);
            }
        }
    });
    assert_eq!(
        delta, 0,
        "steady-state op generation allocated {delta} times over 20k ops"
    );
    // The generator-level counter agrees: nothing was minted either.
    assert_eq!(system.name_mints(), mints_before);
}

#[test]
fn warmed_event_queue_schedules_and_pops_without_allocating() {
    let _serial = serialised();
    // A bounded pending set of 256 events, each about a driver event's
    // size, with near timers (< 65 µs) and far ones (< 67 ms): every pop
    // schedules one replacement, so the set never outgrows its warm-up
    // high-water mark.
    let mut queue: EventQueue<[u64; 13]> = EventQueue::new();
    let mut rng = SimRng::seed_from(11);
    let mut cycle = |queue: &mut EventQueue<[u64; 13]>, i: u64| {
        let delay = if i.is_multiple_of(8) {
            rng.next_below(1 << 26)
        } else {
            rng.next_below(1 << 16)
        };
        queue.schedule_in(Duration::from_nanos(delay), [i; 13]);
    };
    for i in 0..256 {
        cycle(&mut queue, i);
    }
    // A heap bucket allocates only when its depth passes its own
    // high-water mark: on the clock's first crossing of each power of two,
    // and on rarer and rarer depth records after that.  So the warm-up runs
    // the clock past 2^35 ns, about 20 times the measured window's advance
    // of about 2^31 ns, and the window must not reach 2^36 ns.
    let mut i = 0;
    while queue.now() < SimTime::from_nanos(1 << 35) {
        std::hint::black_box(queue.pop());
        cycle(&mut queue, i);
        i += 1;
    }
    let delta = allocations_during(|| {
        for i in 0..100_000 {
            std::hint::black_box(queue.pop());
            cycle(&mut queue, i);
        }
    });
    assert!(queue.now() < SimTime::from_nanos(1 << 36));
    assert_eq!(
        delta, 0,
        "a warmed event queue allocated {delta} times over 100k schedule/pop cycles"
    );
    assert_eq!(queue.len(), 256);
    assert_eq!(queue.clamped_past(), 0);
}

#[test]
fn default_length_lease_storm_rings_never_lap() {
    let _serial = serialised();
    // The benchmark's lease storm: 256 lease-holding streams with churn
    // over 80 simulated seconds.  Each stream's ring is sized from its own
    // expected calls; none may reclaim a slot from an unanswered call.
    for seed in [1, 7, 1993] {
        let mut cfg = SfsConfig::scaled(600.0, WritePolicy::Gathering, 256)
            .with_leases(true)
            .with_churn(Duration::from_secs(5))
            .with_stability(StabilityMode::Unstable)
            .with_unified_cache(4096);
        cfg.duration = Duration::from_secs(80);
        cfg.seed = seed;
        let mut system = SfsSystem::new(cfg);
        system.run();
        assert_eq!(system.stale_overwrites(), 0, "seed {seed}");
    }
}

#[test]
fn create_heavy_generation_allocates_only_name_mints() {
    let _serial = serialised();
    // With CREATEs back in the mix the only allocations are name mints —
    // the generator-level counter tracks every one of them.
    let mut system = SfsSystem::new(quick(500.0));
    let now = SimTime::ZERO + Duration::from_millis(1);
    for _ in 0..500 {
        let _ = system.generate_one(now, 0);
    }
    assert!(
        system.name_mints() > 0,
        "the LADDIS mix draws CREATEs, which mint names"
    );
}

#[test]
fn parallel_sweep_is_bit_identical_across_schedules() {
    let _serial = serialised();
    let sweep = SfsSweep::new(quick_scaled(0.0, 3));
    let loads = [150.0, 300.0, 450.0, 600.0, 750.0, 900.0, 1050.0, 1200.0];
    let serial = sweep.run(&loads);
    for threads in [2, 4, 8] {
        let parallel = sweep.run_parallel(&loads, threads);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.offered_ops_per_sec, p.offered_ops_per_sec);
            assert_eq!(s.achieved_ops_per_sec, p.achieved_ops_per_sec);
            assert_eq!(s.avg_latency_ms, p.avg_latency_ms);
            assert_eq!(s.server_cpu_percent, p.server_cpu_percent);
        }
    }
}

#[test]
fn multi_client_point_is_fair_and_materialisation_free() {
    let _serial = serialised();
    let before = materialize_count();
    let sweep = SfsSweep::new(quick_scaled(0.0, 4));
    let stats = sweep.run_stats(&[800.0]);
    assert_eq!(
        materialize_count() - before,
        0,
        "a payload was materialised"
    );
    let point = &stats[0];
    assert_eq!(point.materializations, 0);
    assert_eq!(point.evicted_in_progress, 0);
    assert_eq!(point.per_client_achieved_ops.len(), 4);
    assert!(
        point.per_client_achieved_ops.iter().all(|&ops| ops > 0.0),
        "every stream carried load: {:?}",
        point.per_client_achieved_ops
    );
    assert!(
        point.fairness > 0.9,
        "per-client fairness {} (Jain)",
        point.fairness
    );
}

#[test]
fn scaled_stack_beats_the_single_client_baseline_at_heavy_load() {
    let _serial = serialised();
    // A reduced-duration rendition of the recorded knee shift: at the same
    // heavy offered load the full scaled stack completes more operations at
    // lower average latency than the single-generator baseline.
    let load = 1600.0;
    let baseline = SfsSystem::new(quick(load)).run();
    let scaled = SfsSystem::new(quick_scaled(load, 4)).run();
    assert!(
        scaled.achieved_ops_per_sec > baseline.achieved_ops_per_sec * 1.3,
        "scaled {:.0} ops/s vs baseline {:.0} ops/s",
        scaled.achieved_ops_per_sec,
        baseline.achieved_ops_per_sec
    );
    assert!(
        scaled.avg_latency_ms < baseline.avg_latency_ms,
        "scaled latency {:.1} ms vs baseline {:.1} ms",
        scaled.avg_latency_ms,
        baseline.avg_latency_ms
    );
}

/// Run the scaled stack at one offered load twice: the point must run to
/// the horizon, schedule nothing into the past, and replay every recorded
/// field — figure point, per-client breakdown, health counters — bit for
/// bit.
fn assert_scaled_point_replays(load: f64) {
    let sweep = SfsSweep::new(quick_scaled(0.0, 4));
    let first = sweep.run_stats(&[load]);
    assert_eq!(first[0].clamped_past, 0);
    assert!(first[0].completed > 0, "{first:?}");
    assert_eq!(
        format!("{first:?}"),
        format!("{:?}", sweep.run_stats(&[load]))
    );
}

#[test]
fn scaled_busy_point_clamps_nothing_and_replays_bit_for_bit() {
    let _serial = serialised();
    assert_scaled_point_replays(900.0);
}

#[test]
fn near_idle_segments_reach_the_horizon_and_replay_bit_for_bit() {
    let _serial = serialised();
    // A trickle load over per-client LANs: at 8 ops/s the segments sit idle
    // for most of the run and the last arrivals land against the duration
    // boundary.
    assert_scaled_point_replays(8.0);
}

#[test]
fn scaled_run_keeps_the_dupcache_and_scratch_contracts() {
    let _serial = serialised();
    let mut system = SfsSystem::new(quick_scaled(1200.0, 4));
    system.run();
    assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
    // Scratch offsets never cross the rotation limit (satellite: the old
    // unbounded append stream wrapped `offset as u32` past the UFS cap).
    assert!(system.max_scratch_offset() <= 8 * 1024 * 1024);
    assert_eq!(system.clients(), 4);
    assert_eq!(system.lan_segments(), 4);
}
