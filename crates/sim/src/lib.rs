//! # comimo-sim
//!
//! A small deterministic discrete-event simulation engine: the clock,
//! the one scheduler and the one fan-out that cluster recruitment, fault
//! injection, the chaos replay and the million-SU topology engine run on.
//!
//! * [`time::SimTime`] — integer nanoseconds, total ordering, no float
//!   drift;
//! * [`sharded::ShardedEventQueue`] — the one scheduler: a queue sharded
//!   by spatial region with a canonical `(time, shard, unit, seq)` pop
//!   order. With one shard and unit 0 it pops in `(time, schedule
//!   order)`, which is how recruitment, fault injection and the chaos
//!   replay run; `netperf` spreads it over regions, fills the shards on
//!   the rayon pool and drains them in canonical order;
//! * [`sharded::map_shards`] — the one order-stable fan-out and the
//!   workspace's only parallelism decision: it runs on the rayon pool
//!   when it has more than one item, the pool more than one thread and
//!   the caller is not a worker of a map that fills the pool (at least as
//!   many items as threads), and inline otherwise, so a map below one
//!   that keeps every thread busy spawns no second level of workers. `RAYON_NUM_THREADS=1` forces one thread at run time;
//!   without the `parallel` feature no rayon is linked.

pub mod sharded;
pub mod time;

pub use sharded::{map_shards, ShardKey, ShardedEventQueue};
pub use time::SimTime;
