//! The pending-event set: a monotone radix heap over parked payloads.
//!
//! [`crate::EventQueue`] clamps every time to its clock and mints a larger
//! `seq` on every schedule, so a new `(time_ns, seq)` key never sorts below
//! the last popped key: the one precondition of a radix heap (Ahuja,
//! Mehlhorn, Orlin and Tarjan, 1990), asserted by [`RadixQueue::schedule`].
//! The module keeps its old name, `calq`, which the benchmark's labels use.
//!
//! Read as one 128-bit number `time << 64 | seq`, a key lands in the bucket
//! of the highest bit in which it differs from `last`, the last popped key:
//! bucket 0 holds `last` itself, buckets 1–64 keys with the same time and
//! buckets 65–128 keys with a later time.  Every key in bucket `b` sorts
//! below every key in bucket `b + 1`.  A pop takes bucket 0, or *splits*
//! the lowest non-empty bucket: its minimum becomes `last` and the other
//! entries fall into lower buckets.  Entries only move down, so schedule
//! and pop are O(1) amortised, and pops follow the global key order (the
//! differential fuzz suites here and in [`crate::queue`] pin it against
//! the retained `BinaryHeap` oracle).
//!
//! Buckets hold 24-byte `(key, slot)` entries; the event is parked once in
//! a slab slot, so a split never moves it.  Bucket vectors keep their
//! capacity and slab slots are recycled, so a warmed queue does not
//! allocate (`tests/sfs_scale.rs` pins it).

/// `(firing time in nanoseconds, insertion sequence)`: same-instant events
/// pop in sequence order.
type Key = (u64, u64);

/// Bucket 0 plus one bucket per bit of the 128-bit key.
const BUCKETS: usize = 129;

/// Scheduler-health counters of one [`RadixQueue`], stamped into bench
/// cells; the names date from the calendar queue it replaced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalStats {
    /// Number of buckets: fixed at 129 (bucket 0 plus one per key bit).
    pub buckets: u64,
    /// Bucket splits that moved two or more entries to lower buckets.
    pub resizes: u64,
    /// High-water mark of entries in a single bucket.
    pub max_depth: u64,
    /// Entries moved by the splits counted in `resizes`: the heap's
    /// amortised overhead.
    pub rotations: u64,
}

impl CalStats {
    /// Fold another queue's counters into an accumulated view: counts add,
    /// high-water marks take the maximum.
    pub fn absorb(&mut self, other: &CalStats) {
        self.buckets = self.buckets.max(other.buckets);
        self.resizes += other.resizes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.rotations += other.rotations;
    }
}

/// One pending event in a bucket: its key and its slab slot.
#[derive(Clone, Copy)]
struct Entry {
    key: Key,
    slot: u32,
}

/// The bucket of `key` relative to the last popped key `last <= key`.
#[inline]
fn bucket_of(key: Key, last: Key) -> usize {
    let time = key.0 ^ last.0;
    if time != 0 {
        128 - time.leading_zeros() as usize
    } else {
        64 - (key.1 ^ last.1).leading_zeros() as usize
    }
}

/// A monotone radix heap of payloads `E` keyed by `(time_ns, seq)`; the
/// simulator-facing API (clamping, sequence minting) is [`crate::EventQueue`].
pub struct RadixQueue<E> {
    buckets: Box<[Vec<Entry>; BUCKETS]>,
    /// Bit `b - 1` is set iff bucket `b >= 1` is non-empty.
    occupied: u128,
    /// The last popped key; no pending key is below it.
    last: Key,
    /// Parked events; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    stats: CalStats,
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> RadixQueue<E> {
    /// An empty queue whose last popped key is `(0, 0)`.
    pub fn new() -> Self {
        RadixQueue {
            buckets: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: 0,
            last: (0, 0),
            slab: Vec::new(),
            free: Vec::new(),
            stats: CalStats {
                buckets: BUCKETS as u64,
                ..CalStats::default()
            },
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current health counters.
    pub fn stats(&self) -> CalStats {
        self.stats
    }

    /// Schedule `event` under a unique key at or above the last popped key.
    pub fn schedule(&mut self, key: Key, event: E) {
        assert!(
            key >= self.last,
            "key {key:?} sorts below the last popped key {:?}",
            self.last
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("under 2^32 pending events")
        });
        self.slab[slot as usize] = Some(event);
        self.place(Entry { key, slot });
    }

    fn place(&mut self, entry: Entry) {
        let b = bucket_of(entry.key, self.last);
        let bucket = &mut self.buckets[b];
        if bucket.capacity() == 0 {
            // Skip the 4-entry step: its freed blocks pile up in the
            // allocator's fast bins and slow the next large allocation.
            bucket.reserve_exact(8);
        }
        bucket.push(entry);
        self.stats.max_depth = self.stats.max_depth.max(bucket.len() as u64);
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
    }

    fn lowest_occupied(&self) -> Option<usize> {
        (self.occupied != 0).then(|| self.occupied.trailing_zeros() as usize + 1)
    }

    /// Key of the earliest pending event (scans one bucket; tests only).
    pub fn peek_key(&self) -> Option<Key> {
        if let Some(entry) = self.buckets[0].last() {
            return Some(entry.key);
        }
        let b = self.lowest_occupied()?;
        self.buckets[b].iter().map(|e| e.key).min()
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(Key, E)> {
        let entry = self.buckets[0].pop().or_else(|| self.split_lowest())?;
        let event = self.slab[entry.slot as usize].take();
        self.free.push(entry.slot);
        Some((entry.key, event.expect("a pending slot holds its event")))
    }

    /// Empty the lowest non-empty bucket: its minimum becomes `last` and is
    /// returned, and every other entry moves to a lower bucket.
    fn split_lowest(&mut self) -> Option<Entry> {
        let b = self.lowest_occupied()?;
        self.occupied &= !(1 << (b - 1));
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let at = (0..bucket.len()).min_by_key(|&i| bucket[i].key);
        let min = bucket.swap_remove(at.expect("an occupied bucket holds an entry"));
        self.last = min.key;
        if bucket.len() >= 2 {
            self.stats.resizes += 1;
            self.stats.rotations += bucket.len() as u64;
        }
        for entry in bucket.drain(..) {
            self.place(entry);
        }
        // Put the emptied vector back so the bucket keeps its capacity.
        self.buckets[b] = bucket;
        Some(min)
    }
}

#[cfg(test)]
pub(crate) mod heap_oracle {
    //! The previous `BinaryHeap` pending-event set, kept as the reference
    //! oracle for the differential fuzz suites: it is exactly the
    //! implementation `EventQueue` shipped with before the first bucketed
    //! queue, made generic over the key.

    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<K, E> {
        key: K,
        event: E,
    }

    impl<K: Ord, E> PartialEq for Entry<K, E> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<K: Ord, E> Eq for Entry<K, E> {}
    impl<K: Ord, E> PartialOrd for Entry<K, E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord, E> Ord for Entry<K, E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap inverted: the smallest key pops first.
            other.key.cmp(&self.key)
        }
    }

    /// A min-queue on `BinaryHeap`, ordered by the full key.
    pub struct HeapQueue<K, E> {
        heap: BinaryHeap<Entry<K, E>>,
    }

    impl<K: Ord, E> HeapQueue<K, E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }

        pub fn schedule(&mut self, key: K, event: E) {
            self.heap.push(Entry { key, event });
        }

        pub fn pop(&mut self) -> Option<(K, E)> {
            self.heap.pop().map(|e| (e.key, e.event))
        }

        pub fn peek_key(&self) -> Option<&K> {
            self.heap.peek().map(|e| &e.key)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::heap_oracle::HeapQueue;
    use super::*;

    /// A tiny deterministic RNG (xorshift64*) so the fuzz streams are
    /// reproducible without any external crate.
    pub(crate) struct Rng(u64);

    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(seed.max(1))
        }

        pub fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn pops_in_key_order_across_slots_and_years() {
        let mut q = RadixQueue::new();
        // Times whose highest set bits span the time levels from bit 0 to
        // bit 40, scheduled out of order.
        let times = [
            1u64 << 40,
            65_536,
            0,
            u64::from(u32::MAX),
            1,
            (1 << 22) + 3,
            65_535,
            1 << 22,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule((t, i as u64), i);
        }
        let mut got = Vec::new();
        while let Some(((t, _), _)) = q.pop() {
            got.push(t);
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn ties_pop_in_seq_order() {
        let mut q = RadixQueue::new();
        for seq in 0..1000u64 {
            q.schedule((42, seq), seq);
        }
        for want in 0..1000u64 {
            let ((_, seq), _) = q.pop().unwrap();
            assert_eq!(seq, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_below_the_scan_cursor_is_still_popped_first() {
        let mut q = RadixQueue::new();
        // Pop an early event, then peek at a distant one: the peek must not
        // commit to the far bucket.
        q.schedule((100, 0), "early");
        q.schedule((1 << 30, 1), "far");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.peek_key().unwrap().0, 1 << 30);
        // A key between the last pop and the far event pops first.
        q.schedule((200, 2), "mid");
        assert_eq!(q.peek_key().unwrap().0, 200);
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn every_bucket_level_is_reachable_and_pops_in_order() {
        let mut q = RadixQueue::new();
        // Relative to the initial last key (0, 0): (0, 0) lands in bucket
        // 0, (0, 1 << i) in bucket i + 1, and (1 << i, 0) in bucket i + 65.
        let mut keys = vec![(0u64, 0u64)];
        keys.extend((0..64).map(|i| (0, 1u64 << i)));
        keys.extend((0..64).map(|i| (1u64 << i, 0)));
        for (i, &key) in keys.iter().enumerate().rev() {
            q.schedule(key, i);
        }
        assert!(q.buckets.iter().all(|b| b.len() == 1));
        assert_eq!(q.stats().max_depth, 1);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(q.pop(), Some((key, i)));
        }
        assert!(q.pop().is_none());
        // Every split emptied a one-entry bucket: nothing moved.
        assert_eq!(q.stats().resizes, 0);
        assert_eq!(q.stats().rotations, 0);
    }

    #[test]
    fn splits_count_resizes_and_the_entries_they_move() {
        let mut q = RadixQueue::new();
        // Times 8..=11 differ from 0 first in bit 3: one bucket of four.
        for (seq, t) in (8u64..=11).enumerate() {
            q.schedule((t, seq as u64), t);
        }
        assert_eq!(q.stats().max_depth, 4);
        // The first pop splits it: 8 pops, 9 falls to bit 0's bucket and
        // 10, 11 to bit 1's — one split that moved three entries.
        assert_eq!(q.pop().unwrap().1, 8);
        assert_eq!(q.stats().resizes, 1);
        assert_eq!(q.stats().rotations, 3);
        // 9 is alone in its bucket; the split of {10, 11} moves only 11.
        // Neither moved two entries, so neither counts.
        assert_eq!(q.pop().unwrap().1, 9);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 11);
        let s = q.stats();
        assert_eq!((s.buckets, s.resizes, s.rotations), (129, 1, 3));
    }

    #[test]
    fn slab_slots_and_bucket_storage_are_recycled() {
        let mut q = RadixQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..10 {
            for i in 0..64u64 {
                q.schedule((now + i * 977 + (i % 3) * (1 << 33), seq), seq);
                seq += 1;
            }
            while let Some(((t, _), _)) = q.pop() {
                now = t;
            }
            if round == 0 {
                assert_eq!(q.slab.len(), 64);
            }
        }
        // The slab never grew past one round's pending set, and every slot
        // went back to the free list.
        assert_eq!(q.slab.len(), 64);
        assert_eq!(q.free.len(), 64);
        assert!(q.slab.iter().all(Option::is_none));
        assert!(q.stats().resizes > 0 && q.stats().rotations >= 2 * q.stats().resizes);
    }

    #[test]
    #[should_panic(expected = "sorts below the last popped key")]
    fn schedule_below_the_last_pop_panics() {
        let mut q = RadixQueue::new();
        q.schedule((1_000, 0), ());
        q.pop();
        q.schedule((999, 1), ());
    }

    #[test]
    fn differential_fuzz_matches_the_heap_oracle() {
        // The satellite contract: seeded random schedule streams with
        // duplicate timestamps, interleaved pop/schedule and long idle
        // jumps produce pop sequences identical to the old BinaryHeap
        // implementation.
        for seed in 1..=20u64 {
            let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut q = RadixQueue::new();
            let mut oracle = HeapQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = 0u64;
            for _ in 0..5_000 {
                match rng.below(100) {
                    // Schedule: mostly near-future, sometimes at `now`
                    // exactly (the post-clamp shape of a past-time
                    // schedule), sometimes far out.
                    0..=59 => {
                        let t = match rng.below(10) {
                            0 => now,
                            1..=7 => now + rng.below(1 << 20),
                            _ => now + rng.below(1 << 36),
                        };
                        q.schedule((t, seq), seq);
                        oracle.schedule((t, seq), seq);
                        seq += 1;
                    }
                    // Duplicate-timestamp burst at one instant.
                    60..=69 => {
                        let t = now + rng.below(1 << 14);
                        for _ in 0..rng.below(8) + 2 {
                            q.schedule((t, seq), seq);
                            oracle.schedule((t, seq), seq);
                            seq += 1;
                        }
                    }
                    // Interleaved pops (with occasional peeks, which
                    // must not disturb the pop order).
                    _ => {
                        if rng.below(4) == 0 {
                            assert_eq!(q.peek_key(), oracle.peek_key().copied());
                        }
                        let got = q.pop();
                        let want = oracle.pop();
                        assert_eq!(got, want, "seed {seed} diverged after {popped} pops");
                        if let Some(((t, _), _)) = got {
                            now = t;
                            popped += 1;
                        }
                    }
                }
            }
            // Full drain must agree too.
            loop {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "seed {seed} diverged during drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// One fuzz stream: the queue under test and the oracle.
    struct Walk {
        q: RadixQueue<u64>,
        oracle: HeapQueue<Key, u64>,
        rng: Rng,
        seq: u64,
        now: u64,
    }

    impl Walk {
        fn schedule(&mut self, t: u64) {
            self.q.schedule((t, self.seq), self.seq);
            self.oracle.schedule((t, self.seq), self.seq);
            // Rare sequence gaps of any size, so same-time keys also
            // differ in high bits.
            let gap = if self.rng.below(64) == 0 {
                1 << self.rng.below(64)
            } else {
                1
            };
            self.seq = self.seq.checked_add(gap).unwrap_or(self.seq + 1);
        }

        fn pop_and_compare(&mut self, context: &str) -> bool {
            assert_eq!(self.q.peek_key(), self.oracle.peek_key().copied());
            let got = self.q.pop();
            assert_eq!(got, self.oracle.pop(), "{context}");
            match got {
                Some(((t, _), _)) => {
                    self.now = t;
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn differential_fuzz_walks_every_radix_level() {
        // Shapes aimed at the radix levels: timers up to 2^60 ns ahead,
        // same-instant bursts of 1,000, schedules exactly at the last
        // popped time, and long idle jumps after a full drain.  Streams
        // start at staggered clocks up to 2^63 ns so the top time bits
        // flip too (and the clock saturates at u64::MAX on some).  Every
        // bucket must hold an entry at some point.
        let mut levels = [false; BUCKETS];
        for seed in 1..=8u64 {
            let mut w = Walk {
                q: RadixQueue::new(),
                oracle: HeapQueue::new(),
                rng: Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03)),
                seq: 0,
                now: (seed - 1) << 60,
            };
            for step in 0..3_000 {
                let context = format!("seed {seed} step {step}");
                match step % 7 + w.rng.below(3) {
                    0 | 1 => {
                        let level = w.rng.below(61);
                        let t = w.now.saturating_add(w.rng.below(1 << level));
                        w.schedule(t);
                    }
                    2 => w.schedule(w.now),
                    3 if w.rng.below(40) == 0 => {
                        let t = w.now.saturating_add(w.rng.below(1 << 20));
                        for _ in 0..1_000 {
                            w.schedule(t);
                        }
                    }
                    4 if w.rng.below(100) == 0 => {
                        while w.pop_and_compare(&context) {}
                        let t = w.now.saturating_add(w.rng.below(1 << 60));
                        w.schedule(t);
                    }
                    _ => {
                        w.pop_and_compare(&context);
                    }
                }
                for (b, bucket) in w.q.buckets.iter().enumerate() {
                    levels[b] |= !bucket.is_empty();
                }
            }
            while w.pop_and_compare(&format!("seed {seed} final drain")) {}
            assert_eq!(w.oracle.len(), 0);
        }
        let missed: Vec<usize> = (0..BUCKETS).filter(|&b| !levels[b]).collect();
        assert!(missed.is_empty(), "levels never scheduled into: {missed:?}");
    }

    #[test]
    fn stats_track_geometry_and_depth() {
        let mut q = RadixQueue::new();
        let s = q.stats();
        assert_eq!(s.buckets, BUCKETS as u64);
        assert_eq!(s.max_depth, 0);
        for seq in 0..10u64 {
            q.schedule((1 << 20, seq), ());
        }
        assert_eq!(q.stats().max_depth, 10);
        let mut acc = CalStats::default();
        acc.absorb(&q.stats());
        let more = CalStats {
            buckets: 32,
            resizes: 2,
            max_depth: 4,
            rotations: 1,
        };
        acc.absorb(&more);
        assert_eq!(acc.buckets, BUCKETS as u64);
        assert_eq!(acc.resizes, 2);
        assert_eq!(acc.max_depth, 10);
        assert_eq!(acc.rotations, 1);
    }
}
