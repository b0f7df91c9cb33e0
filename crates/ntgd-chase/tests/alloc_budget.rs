//! Allocation gate for the incremental chase's trigger loop.
//!
//! A counting global allocator wraps every `IncrementalChase::assert_facts`
//! call of the chase-rw-shaped chain session (`common::chain_session`) on a
//! fork of its frozen 400-fact base, at one thread, and divides the
//! allocations made inside those calls by the triggers they applied
//! (`chase.triggers`).  Allocation counts are deterministic, unlike time, so
//! this bounds the per-trigger bookkeeping exactly.  The binary holds a
//! single test so that no other test allocates while it counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use common::{chain_session, drive};
use ntgd_core::{obs, parallel};

/// Upper bound on allocations per applied trigger.
const MAX_ALLOCATIONS_PER_TRIGGER: f64 = 0.81;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while `COUNTING` is set.
struct CountingAllocator;

impl CountingAllocator {
    fn tick() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// Safety: every call forwards to `System` unchanged; counting touches only
// atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn triggers_so_far() -> u64 {
    obs::counters_snapshot()
        .into_iter()
        .find(|(name, _)| *name == "chase.triggers")
        .map_or(0, |(_, value)| value)
}

#[test]
fn chase_asserts_stay_within_the_allocation_budget() {
    parallel::set_thread_override(Some(1));
    obs::set_enabled_override(Some(true));
    let session = chain_session(1, 160);
    // A first pass registers the chase's counters and spans, which
    // allocates once per process; only the second pass is counted.
    drive(&session, &mut |assert| assert(), &mut |_, _| {});
    let mut asserts = 0u64;
    let mut triggers = 0u64;
    let mut allocations = 0u64;
    drive(
        &session,
        &mut |assert| {
            let before = triggers_so_far();
            ALLOCATIONS.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
            assert();
            COUNTING.store(false, Ordering::SeqCst);
            allocations += ALLOCATIONS.load(Ordering::SeqCst);
            triggers += triggers_so_far() - before;
            asserts += 1;
        },
        &mut |_, _| {},
    );
    parallel::set_thread_override(None);
    obs::set_enabled_override(None);
    assert!(triggers > 0, "the session applies triggers");
    let per_trigger = allocations as f64 / triggers as f64;
    eprintln!(
        "{asserts} asserts, {triggers} triggers, {allocations} allocations: \
         {:.1} per assert, {per_trigger:.2} per trigger",
        allocations as f64 / asserts as f64
    );
    assert!(
        per_trigger <= MAX_ALLOCATIONS_PER_TRIGGER,
        "{per_trigger:.2} allocations per applied trigger exceed the budget of \
         {MAX_ALLOCATIONS_PER_TRIGGER}"
    );
}
