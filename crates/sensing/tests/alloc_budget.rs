//! Heap-allocation budget of the fusion head and the reputation fold.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread, so the test harness's other threads cannot disturb a
//! count. Budgets per call:
//!
//! * `fuse_soft_weighted`: 0 with no view, 0 with a converged view, 0
//!   with a cold view below 3 reports, at most 1 with a cold view at 3
//!   or more (the robust-median guard's one buffer);
//! * `ReputationTracker::observe_round`: 0;
//! * `ReputationTracker::view`: exactly 1.
//!
//! Run with `cargo test --release -p comimo-sensing --test alloc_budget`.

use comimo_sensing::{
    fuse_soft_weighted, FusionConfig, ReputationConfig, ReputationTracker, ReputationView, RuleUsed,
};
use comimo_stbc::SoftReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so an allocation during thread teardown is not a panic
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    (ALLOCS.with(Cell::get) - before, out)
}

/// `n` confident finite reports from distinct reporters, three of four
/// busy, plus a late duplicate of the first.
fn reports(n: usize) -> Vec<(usize, SoftReport)> {
    let mut out: Vec<(usize, SoftReport)> = (0..n)
        .map(|i| {
            let llr = if i % 4 == 3 { -6.0 } else { 5.0 + i as f64 };
            (
                i,
                SoftReport {
                    llr,
                    channel_gain: 1.0,
                    report_snr: llr.abs(),
                },
            )
        })
        .collect();
    if let Some(&first) = out.first() {
        out.push(first);
    }
    out
}

/// A tracker over 8 reporters after `rounds` rounds in which reporter
/// 7 always disagrees and the others agree at unequal confidence, so a
/// converged view has unequal weights and one quarantined reporter.
fn tracker(rounds: usize) -> ReputationTracker {
    let mut t = ReputationTracker::new(ReputationConfig::paper(), 8);
    let scored: Vec<(usize, bool, f64)> =
        (0..8).map(|i| (i, i != 7, 0.5 + i as f64 / 16.0)).collect();
    for _ in 0..rounds {
        t.observe_round(true, &scored);
    }
    t
}

/// Every rung the config can reach, so each budget covers the soft
/// rung (floor 0.6), hard decoding (floor `+∞`) and the OR fallback.
fn configs() -> [FusionConfig; 2] {
    [FusionConfig::paper_llr(0.6), FusionConfig::paper()]
}

fn fuse_allocs(reports: &[(usize, SoftReport)], view: Option<&ReputationView>) -> u64 {
    let mut worst = 0;
    for cfg in configs() {
        let (allocs, _) = count(|| fuse_soft_weighted(&cfg, reports, false, view));
        worst = worst.max(allocs);
    }
    worst
}

#[test]
fn fusion_without_a_view_allocates_nothing() {
    for n in 0..=8 {
        let r = reports(n);
        assert_eq!(fuse_allocs(&r, None), 0, "n = {n}");
    }
}

#[test]
fn fusion_under_a_converged_view_allocates_nothing() {
    let converged = tracker(30).view();
    assert!(converged.converged());
    assert_eq!(converged.n_quarantined(), 1);
    assert!(converged.min_weight() < converged.max_weight());
    let uniform = ReputationView::uniform_converged(8);
    for n in 1..=8 {
        let r = reports(n);
        assert_eq!(fuse_allocs(&r, Some(&converged)), 0, "n = {n}");
        assert_eq!(fuse_allocs(&r, Some(&uniform)), 0, "n = {n}");
    }
}

#[test]
fn cold_fusion_allocates_only_under_the_median_guard() {
    let cold = tracker(0).view();
    assert!(!cold.converged());
    for n in 1..=8 {
        let r = reports(n);
        let budget = if n < 3 { 0 } else { 1 };
        assert!(fuse_allocs(&r, Some(&cold)) <= budget, "n = {n}");
    }
    // the guard really runs at n = 8: the soft rung decides
    let r = reports(8);
    let (allocs, (d, _)) =
        count(|| fuse_soft_weighted(&FusionConfig::paper_llr(0.6), &r, false, Some(&cold)));
    assert_eq!(d.rule_used, RuleUsed::WeightedLlr);
    assert_eq!(allocs, 1, "the guard's one buffer");
}

#[test]
fn the_reputation_fold_allocates_nothing() {
    let mut t = tracker(3);
    let scored: Vec<(usize, bool, f64)> = reports(8)
        .iter()
        .map(|&(id, r)| (id, r.hard_bit(), r.confidence()))
        .chain([(42, true, 1.0)])
        .collect();
    for verdict in [true, false, true] {
        let (allocs, ()) = count(|| t.observe_round(verdict, &scored));
        assert_eq!(allocs, 0);
    }
}

#[test]
fn a_view_is_one_allocation() {
    for rounds in [0, 30] {
        let t = tracker(rounds);
        let (allocs, view) = count(|| t.view());
        assert_eq!(allocs, 1);
        assert_eq!(view.n(), 8);
    }
}
