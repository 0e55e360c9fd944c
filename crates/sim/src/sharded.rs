//! Region-sharded event queue with deterministic cross-shard ordering:
//! the workspace's one discrete-event scheduler.
//!
//! [`ShardedEventQueue`] splits the queue by spatial region (the caller
//! picks the shard map — `netperf` uses a coarse grid over the field) and
//! defines the **canonical global order**
//!
//! ```text
//! (time, shard, unit, seq)
//! ```
//!
//! where `unit` is a caller-chosen label inside the shard (node id,
//! cluster id, …) and `seq` is the shard-local schedule counter. This
//! order is a pure function of *what was scheduled*, never of which
//! thread scheduled it — so per-shard event batches generated on the
//! rayon pool and scheduled in shard order drain as byte-identical a
//! stream as a serial run, extending the
//! `derive(seed, unit)` discipline to `derive(seed, shard)`: each shard
//! owns an independent RNG stream and a private seq counter, and the
//! merge is deterministic by construction.
//!
//! With one shard and a constant unit the order collapses to `(time,
//! seq)`: same-instant events pop in schedule (FIFO) order, including
//! events scheduled at `now()` while the drain is running. Cluster
//! recruitment, fault injection and the chaos replay all run on that
//! one-shard form.
//!
//! [`map_shards`] is the workspace's order-stable fan-out: it maps a
//! closure over per-item work (shards, trials, grid points, campaign
//! chunks) on the rayon pool, or inline (one thread, one item, or
//! already inside a map that fills the pool), and returns the outputs
//! **in item order**, so the caller's fold is a barrier merge that keeps
//! results bit-identical at any thread count.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Canonical coordinates of one scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// Absolute due time.
    pub at: SimTime,
    /// Shard the event belongs to.
    pub shard: u32,
    /// Caller-chosen unit label inside the shard (node, cluster, …).
    pub unit: u64,
    /// Shard-local schedule sequence (FIFO tie-break).
    pub seq: u64,
}

#[derive(Debug)]
struct ShardEntry<E> {
    at: SimTime,
    unit: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for ShardEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.unit, self.seq) == (other.at, other.unit, other.seq)
    }
}
impl<E> Eq for ShardEntry<E> {}
impl<E> PartialOrd for ShardEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ShardEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.unit, self.seq).cmp(&(other.at, other.unit, other.seq))
    }
}

#[derive(Debug)]
struct Shard<E> {
    heap: BinaryHeap<Reverse<ShardEntry<E>>>,
    next_seq: u64,
}

/// A deterministic event queue sharded by region.
#[derive(Debug)]
pub struct ShardedEventQueue<E> {
    shards: Vec<Shard<E>>,
    /// Merge tokens `(at, shard)`, one per live entry; the multiset of
    /// tokens always equals the multiset of `(entry.at, shard)` pairs, so
    /// the min token names a shard whose head is globally next.
    merge: BinaryHeap<Reverse<(SimTime, u32)>>,
    now: SimTime,
    len: usize,
}

impl<E> ShardedEventQueue<E> {
    /// A queue with `n_shards` shards, at time zero.
    ///
    /// # Panics
    /// If `n_shards` is zero.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        u32::try_from(n_shards).expect("shard count fits u32");
        Self {
            shards: (0..n_shards)
                .map(|_| Shard {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                })
                .collect(),
            merge: BinaryHeap::new(),
            now: SimTime::ZERO,
            len: 0,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current time (the due time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Live events across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` on `shard` at absolute time `at`, labelled
    /// `unit`. The shard-local sequence number breaks `(at, unit)` ties
    /// in FIFO order.
    ///
    /// # Panics
    /// If `at` is in the past or `shard` is out of range.
    pub fn schedule_at(&mut self, shard: u32, at: SimTime, unit: u64, payload: E) -> ShardKey {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let s = &mut self.shards[shard as usize];
        let seq = s.next_seq;
        s.next_seq += 1;
        s.heap.push(Reverse(ShardEntry {
            at,
            unit,
            seq,
            payload,
        }));
        self.merge.push(Reverse((at, shard)));
        self.len += 1;
        ShardKey {
            at,
            shard,
            unit,
            seq,
        }
    }

    /// Pops the globally next event in canonical `(time, shard, unit,
    /// seq)` order, advancing `now`.
    pub fn pop(&mut self) -> Option<(ShardKey, E)> {
        let Reverse((at, shard)) = self.merge.pop()?;
        let s = &mut self.shards[shard as usize];
        let Reverse(entry) = s.heap.pop().expect("merge token without entry");
        debug_assert_eq!(entry.at, at, "merge token desynced from shard heap");
        self.now = entry.at;
        self.len -= 1;
        Some((
            ShardKey {
                at: entry.at,
                shard,
                unit: entry.unit,
                seq: entry.seq,
            },
            entry.payload,
        ))
    }
}

#[cfg(feature = "parallel")]
thread_local! {
    /// Set on the workers of a [`map_shards`] call that fills the pool: a
    /// map called from inside one of its items runs inline on that worker.
    static FILLS_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Maps `f` over per-shard work items. Outputs come back **in shard
/// order** however the map is scheduled, so the fold downstream is
/// schedule-independent. It is the workspace's one order-stable fan-out
/// and its only parallelism decision: the Table-1 trials, fault
/// schedules, testbed experiments, STBC Monte-Carlo shards, the `ē_b`
/// table, campaign chunks and chaos runs map over it too, so callers
/// must derive any randomness per item (never thread one stream
/// through).
///
/// The map fans out on the rayon pool only when there is more than one
/// item, the pool has more than one thread and the caller is not a
/// worker of a map that fills the pool; otherwise it runs inline. A map
/// fills the pool when it has at least as many items as the pool has
/// threads: every thread then has work, so the maps nested below it run
/// inline instead of spawning a second level of workers. A narrower map
/// (`bergrid`'s two configurations on three or more threads) leaves
/// threads idle, and the maps below it still fan
/// out. `RAYON_NUM_THREADS=1` forces one thread at run time; building
/// without the `parallel` feature links no rayon and always runs inline.
///
/// There is no retry and no isolation: a panic in any item unwinds out of
/// the map with that item's own payload, on either path.
pub fn map_shards<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(u32, &T) -> R + Send + Sync,
{
    #[cfg(feature = "parallel")]
    {
        let threads = rayon::current_num_threads();
        if items.len() > 1 && threads > 1 && !FILLS_POOL.with(|w| w.get()) {
            use rayon::prelude::*;
            let fills_pool = items.len() >= threads;
            let indexed: Vec<(u32, &T)> = items
                .iter()
                .enumerate()
                .map(|(s, t)| (s as u32, t))
                .collect();
            return indexed
                .into_par_iter()
                .map(|(s, t)| {
                    FILLS_POOL.with(|w| w.set(fills_pool));
                    f(s, t)
                })
                .collect();
        }
    }
    items
        .iter()
        .enumerate()
        .map(|(s, t)| f(s as u32, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_canonical_time_shard_unit_seq_order() {
        let mut q = ShardedEventQueue::new(3);
        // same instant on three shards, scheduled out of shard order
        q.schedule_at(2, ns(10), 7, "s2");
        q.schedule_at(0, ns(10), 9, "s0");
        q.schedule_at(1, ns(10), 1, "s1");
        // earlier time beats lower shard
        q.schedule_at(2, ns(5), 0, "early");
        // same (time, shard): unit then seq
        q.schedule_at(0, ns(10), 3, "s0-u3");
        q.schedule_at(0, ns(10), 3, "s0-u3-later");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["early", "s0-u3", "s0-u3-later", "s0", "s1", "s2"]
        );
        assert_eq!(q.now(), ns(10));
        assert!(q.is_empty());
    }

    #[test]
    fn canonical_order_is_schedule_independent() {
        // two queues receive the same events in different call orders;
        // the popped streams must be identical
        let events = [
            (0u32, 30u64, 5u64),
            (3, 10, 2),
            (1, 10, 9),
            (2, 20, 0),
            (0, 10, 5),
            (3, 10, 1),
        ];
        let mut fwd = ShardedEventQueue::new(4);
        for &(s, t, u) in &events {
            fwd.schedule_at(s, ns(t), u, (s, t, u));
        }
        let mut rev = ShardedEventQueue::new(4);
        for &(s, t, u) in events.iter().rev() {
            rev.schedule_at(s, ns(t), u, (s, t, u));
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop())
            .map(|(k, e)| ((k.at, k.shard, k.unit), e))
            .collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop())
            .map(|(k, e)| ((k.at, k.shard, k.unit), e))
            .collect();
        // keys match exactly; seq differs only where (at, shard, unit)
        // ties, which FIFO resolves per schedule order by design
        assert_eq!(a, b);
    }

    #[test]
    fn interleaved_batches_keep_shard_streams_fifo() {
        let mut q = ShardedEventQueue::new(2);
        q.schedule_at(0, ns(1), 0, 1);
        q.schedule_at(0, ns(1), 0, 2);
        let first: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(first, vec![1, 2]);
        // the next batch reuses the shard's seq counter: still FIFO
        q.schedule_at(0, ns(2), 0, 3);
        q.schedule_at(0, ns(2), 0, 4);
        let second: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(second, vec![3, 4]);
    }

    #[test]
    fn one_shard_reschedule_at_now_pops_after_queued_ties() {
        // the one-shard FIFO contract the MAC and recruitment rely on: an
        // event scheduled at `now()` mid-drain queues behind the
        // same-instant events already waiting
        let mut q = ShardedEventQueue::new(1);
        q.schedule_at(0, ns(1), 0, "first");
        q.schedule_at(0, ns(1), 0, "second");
        q.schedule_at(0, ns(2), 0, "later");
        let mut order = Vec::new();
        while let Some((key, e)) = q.pop() {
            order.push(e);
            if e == "first" {
                q.schedule_at(0, q.now(), 0, "rescheduled");
            }
            assert_eq!(key.at, q.now());
        }
        assert_eq!(order, vec!["first", "second", "rescheduled", "later"]);
        assert_eq!(q.now(), ns(2));
    }

    #[test]
    fn map_shards_is_order_stable() {
        let items: Vec<u64> = (0..64).collect();
        let out = map_shards(&items, |s, &v| (s as u64) * 1000 + v);
        let expect: Vec<u64> = (0..64).map(|i| i * 1000 + i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_shards_reraises_an_items_panic_message() {
        // on the pool (the parallel feature at two or more threads) the
        // item panics on a worker, and the caller still sees its message
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..8).collect();
        let ran_on = std::sync::Mutex::new(None);
        let payload = std::panic::catch_unwind(|| {
            map_shards(&items, |_, &v| {
                if v == 5 {
                    *ran_on.lock().unwrap() = Some(std::thread::current().id());
                    panic!("item {v} failed");
                }
                v
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 5 failed");
        #[cfg(feature = "parallel")]
        let pooled = rayon::current_num_threads() > 1;
        #[cfg(not(feature = "parallel"))]
        let pooled = false;
        let worker = ran_on.into_inner().unwrap().unwrap();
        assert_eq!(worker != caller, pooled, "panicked on a pool worker");
    }

    #[test]
    fn nested_map_shards_runs_inline_on_the_outer_worker() {
        use std::thread::current;
        #[cfg(feature = "parallel")]
        let pool = rayon::current_num_threads();
        #[cfg(not(feature = "parallel"))]
        let pool = 1;
        let inner: Vec<u64> = (0..8).collect();

        // an outer map that fills the pool runs every inner map inline
        let outer: Vec<u64> = (0..pool.max(4) as u64).collect();
        let nested = map_shards(&outer, |_, &o| {
            let worker = current().id();
            map_shards(&inner, |_, &i| (current().id() == worker, o * 100 + i))
        });
        let flat: Vec<Vec<(bool, u64)>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| (true, o * 100 + i)).collect())
            .collect();
        assert_eq!(nested, flat, "inner items run on their outer worker");

        // a narrower outer map (one item runs inline, two fan out) leaves
        // threads idle, so the map below each of its items still fans out
        for width in [1, 2] {
            let fanned = map_shards(&vec![(); width], |_, ()| {
                let caller = current().id();
                let ids = map_shards(&inner, |_, _| current().id());
                ids.into_iter().any(|id| id != caller)
            });
            assert_eq!(fanned, vec![pool > width; width], "outer width {width}");
        }
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = ShardedEventQueue::new(1);
        q.schedule_at(0, ns(10), 0, ());
        q.pop();
        q.schedule_at(0, ns(5), 0, ());
    }

    #[test]
    #[should_panic]
    fn bad_shard_panics() {
        let mut q = ShardedEventQueue::new(2);
        q.schedule_at(2, ns(1), 0, ());
    }
}
