//! Deterministic parallelism for chase, grounding and stability workloads,
//! executed on a **persistent worker pool**.
//!
//! The whole engine is built around fixpoint rounds whose work items —
//! `(rule, delta-pivot)` matching tasks, per-rule grounding tasks, stability
//! checks of independent candidates — are embarrassingly parallel *within*
//! one round: every item only **reads** a snapshot of the shared state and
//! emits into a private buffer.  This module provides the one primitive all
//! of them share, [`par_map_with`]: apply a function to every item of a slice
//! on up to a given number of workers and return the results **in item
//! order**, independently of how the items were scheduled.
//!
//! # The persistent pool
//!
//! Every parallel round runs on **long-lived workers** fed by a job queue:
//!
//! * Workers are spawned lazily, on the first round that asks for them, and
//!   then parked on a condition variable between rounds.  All sessions and
//!   all fixpoints of the process share the one pool.
//! * A round is published as a *job*: an atomic cursor over the item slice
//!   plus a result slot per item.  The **submitting thread always works the
//!   job itself** alongside at most `threads - 1` pool workers, so a job
//!   completes even if every worker is busy elsewhere — there is no
//!   possibility of deadlock, and a nested [`par_map_with`] issued from
//!   inside a pool worker simply runs inline.
//! * Each item index is claimed exactly once (an atomic fetch-add) and its
//!   result is written into the slot of that index, so the output is in item
//!   order regardless of the schedule.
//!
//! # Sharding and determinism invariants
//!
//! Parallel consumers rely on (and must preserve) the following invariants;
//! together they guarantee that every thread count — including 1 — produces
//! bit-identical results:
//!
//! * **Snapshot reads.**  During a parallel round the shared
//!   [`Interpretation`](crate::interpretation::Interpretation) (arena,
//!   per-predicate and per-position indexes) is only accessed through `&`
//!   references: insertions happen strictly *between* rounds, on one thread.
//!   A compiled plan ([`CompiledConjunction`](crate::matcher::CompiledConjunction),
//!   [`CompiledRuleSet`](crate::ruleset::CompiledRuleSet)) is immutable after
//!   construction and is executed concurrently by any number of workers; all
//!   per-execution state (slot vector, trail) lives on the worker's stack.
//! * **`AtomId` stability.**  Arena ids are assigned in insertion order and
//!   never reused, so the (predicate, position) index slices a worker probes
//!   are identical to what a sequential run would probe — a watermark
//!   observed before the round selects the same delta suffix on every
//!   thread.
//! * **Deterministic result order.**  Workers never publish results into a
//!   shared stream: each item's output goes into the result slot of the
//!   item's index (work items are ordered by rule index, then delta pivot,
//!   then the matcher's enumeration order within one item).  The merged
//!   stream is therefore exactly the sequential stream, so downstream
//!   consumers (trigger worklists, closure insertion, null invention) behave
//!   identically at every thread count.
//!
//! # Thread-count selection
//!
//! [`num_threads`] resolves, in order: the process-wide override installed
//! with [`set_thread_override`] (used by benchmarks and determinism tests,
//! and checked on every call), the `NTGD_THREADS` environment variable (CI
//! runs the test matrix at `NTGD_THREADS=1` and at default parallelism), and
//! finally [`std::thread::available_parallelism`].  The last two are
//! resolved once per process: detecting the parallelism reads the cgroup
//! quota files on every call, which costs microseconds per round.  Callers
//! gate rounds with [`threads_for`]: a round fans out from
//! [`MIN_POOLED_WORK`] work units.

use std::cell::{Cell, UnsafeCell};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Minimum number of "work units" (delta atoms, closure atoms, …) a round
/// must involve before the persistent pool fans it out.  Dispatching to
/// already-running workers costs one queue-push and a wake, so even small
/// deltas — the bread and butter of an incremental reasoning session — go
/// parallel; only degenerate rounds (a single work unit) stay inline.
pub const MIN_POOLED_WORK: usize = 2;

/// Hard cap on the number of pool workers ever spawned, as a guard against
/// pathological `NTGD_THREADS` values.
const MAX_POOL_WORKERS: usize = 128;

/// Process-wide thread-count override; `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `None` removes) a process-wide thread-count override
/// taking precedence over `NTGD_THREADS` and the detected parallelism.
///
/// Intended for benchmarks and determinism tests that compare runs at fixed
/// thread counts; because every consumer is deterministic, concurrent tests
/// observing each other's override can at most change how fast they run.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count a round with `work` work units should fan out to: `1`
/// (run inline) below [`MIN_POOLED_WORK`], [`num_threads`] otherwise.
///
/// This is the shared gating policy of every parallel consumer — chase
/// trigger discovery, the grounding closures, stability checks — so the
/// heuristic lives in exactly one place.
pub fn threads_for(work: usize) -> usize {
    if work >= MIN_POOLED_WORK {
        num_threads()
    } else {
        1
    }
}

/// The number of worker threads parallel rounds use: the
/// [`set_thread_override`] value if set, else `NTGD_THREADS` (values `>= 1`;
/// anything else is ignored), else [`std::thread::available_parallelism`].
/// The fallback is resolved on the first call and kept for the process.
pub fn num_threads() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if overridden >= 1 {
        return overridden;
    }
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("NTGD_THREADS")
            .ok()
            .and_then(|text| text.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Snapshot of the persistent pool's counters (surfaced by the reasoning
/// service's `STATS` command and by tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of long-lived workers spawned so far.
    pub workers: usize,
    /// Number of jobs (parallel rounds) dispatched to the pool.
    pub jobs: u64,
    /// Number of work items executed by pool dispatch (including the
    /// submitter's share).
    pub items: u64,
}

/// Counters and stats of the persistent pool.
pub fn pool_stats() -> PoolStats {
    let pool = pool();
    let workers = pool.queue.lock().expect("pool queue poisoned").workers;
    PoolStats {
        workers,
        jobs: pool.jobs_run.load(Ordering::Relaxed),
        items: pool.items_run.load(Ordering::Relaxed),
    }
}

/// Applies `f` to every item of `items` using up to `threads` workers and
/// returns the results in item order.  Callers pass [`threads_for`] of the
/// round's work, or `1` to force the inline path when a round is too small
/// to be worth fanning out.
///
/// Work is distributed dynamically (an atomic cursor), so heterogeneous
/// items balance across workers; each item's result is written into the
/// result slot of the item's index, which makes the output independent of
/// the schedule.  With one worker (or fewer than two items) the items are
/// processed inline with no dispatch.
///
/// Panics in `f` are propagated to the caller once the round has quiesced.
pub fn par_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len());
    // Nested rounds issued from inside a pool worker run inline: the worker
    // is already one lane of an outer job, and draining the nested round on
    // the spot keeps the pool deadlock-free by construction.
    if threads <= 1 || IN_POOL_WORKER.get() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    par_map_pooled(items, threads, &f)
}

/// A `Sync` view over one element of a `&mut [T]`, submittable through
/// [`par_map_with`]'s shared-slice interface.  Soundness rests on the pool's
/// unique-claim contract: every item index is claimed by exactly one
/// executor, so exactly one `&mut T` is ever produced per element.
#[repr(transparent)]
struct MutCell<T>(UnsafeCell<T>);

// Safety: see `MutCell` — each cell is accessed by the unique claimer of its
// index only, so the element effectively *moves* to that worker for the
// duration of the call (hence `T: Send`, not `T: Sync`).
unsafe impl<T: Send> Sync for MutCell<T> {}

/// The **batch-submit entry point**: applies `f` to every element of a
/// mutable slice — each element handed to its executor as `&mut T` — and
/// returns the results in item order.
///
/// This is what stateful batch consumers use: the server's event-driven
/// connection layer collects the sessions that have complete requests
/// buffered and submits the whole batch here, so independent sessions
/// execute concurrently on the persistent pool while each individual
/// session stays strictly serial (it is one item, owned by one claimer for
/// the whole call).  A nested [`par_map_with`] issued from inside `f`
/// follows the usual rule: inline on a pool worker, pooled on the
/// submitting thread — so a batch of one still fans its inner
/// chase/grounding rounds out.
///
/// `threads` follows [`par_map_with`]: pass [`threads_for`]`(items.len())`
/// (or `1` to force the inline path).
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    // Safety: `MutCell<T>` is `repr(transparent)` over `UnsafeCell<T>`,
    // which is `repr(transparent)` over `T`, so the slice layouts match.
    let cells: &[MutCell<T>] = unsafe { &*(items as *mut [T] as *const [MutCell<T>]) };
    par_map_with(cells, threads, |index, cell| {
        // Safety: the pool claims each index exactly once (documented on
        // `JobCore`), so this is the only reference to the element.
        f(index, unsafe { &mut *cell.0.get() })
    })
}

// ---------------------------------------------------------------------------
// Persistent pool.
// ---------------------------------------------------------------------------

thread_local! {
    /// Whether the current thread is a long-lived pool worker (nested
    /// `par_map_with` calls from such a thread run inline).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A type-erased parallel round published to the pool.
///
/// `data` points at the submitting call's stack frame (`JobData`); the
/// pointer is only dereferenced by `run` for item indexes `< len`, and the
/// submitter does not return before every claimed index has finished
/// executing (`active == 0` with the cursor exhausted), so the frame always
/// outlives every dereference.  Workers that attach late claim an index
/// `>= len` and touch nothing but the atomics.
struct JobCore {
    /// Erased `&JobData<'_, T, R, F>`.
    data: *const (),
    /// Monomorphised executor: runs item `i` of the job against `data`.
    run: unsafe fn(*const (), usize),
    /// Next unclaimed item index (claims are unique: `fetch_add`).
    cursor: AtomicUsize,
    /// Number of items.
    len: usize,
    /// How many more pool workers may attach (the submitter is not counted).
    helper_slots: AtomicIsize,
    /// Attached executors (including the submitter while it works).
    active: AtomicUsize,
    /// First panic payload raised by an item, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion flag + signal for the submitter.
    done: Mutex<bool>,
    done_ready: Condvar,
}

// Safety: `data` is only dereferenced under the discipline documented on
// `JobCore` (unique index claims, submitter outlives all claims), and the
// pointee (`JobData`) only exposes `Sync` state (`&[T]`, `&F`, result slots
// written by exactly one claimer each).
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

/// One result slot, written by whichever executor claims the slot's index.
struct ResultSlot<R>(UnsafeCell<Option<R>>);

// Safety: each slot is written exactly once, by the unique claimer of its
// index, and only read by the submitter after the round quiesced.
unsafe impl<R: Send> Sync for ResultSlot<R> {}

/// The borrowed state of one `par_map_with` round (lives on the submitter's
/// stack; reached from workers through `JobCore::data`).
struct JobData<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    slots: &'a [ResultSlot<R>],
}

/// Monomorphised item executor behind `JobCore::run`.
///
/// # Safety
///
/// `data` must point at a live `JobData<'_, T, R, F>` and `index` must be a
/// uniquely claimed in-bounds item index.
unsafe fn run_erased<T, R, F>(data: *const (), index: usize)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let data = unsafe { &*(data as *const JobData<'_, T, R, F>) };
    let result = (data.f)(index, &data.items[index]);
    unsafe { *data.slots[index].0.get() = Some(result) };
}

/// Job queue + worker accounting, behind the pool mutex.
struct PoolQueue {
    /// Jobs with unclaimed items (the submitter removes its job on return).
    jobs: Vec<Arc<JobCore>>,
    /// Workers spawned so far.
    workers: usize,
}

/// The process-wide persistent pool.
struct Pool {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    jobs_run: AtomicU64,
    items_run: AtomicU64,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(PoolQueue {
            jobs: Vec::new(),
            workers: 0,
        }),
        work_ready: Condvar::new(),
        jobs_run: AtomicU64::new(0),
        items_run: AtomicU64::new(0),
    })
}

/// Spawns workers until `queue.workers >= wanted` (capped).  Called with the
/// pool mutex held.
fn ensure_workers(queue: &mut PoolQueue, wanted: usize) {
    let wanted = wanted.min(MAX_POOL_WORKERS);
    while queue.workers < wanted {
        let name = format!("ntgd-pool-{}", queue.workers);
        std::thread::Builder::new()
            .name(name)
            .spawn(worker_loop)
            .expect("failed to spawn a pool worker");
        queue.workers += 1;
    }
}

/// The long-lived worker body: park until a job has both unclaimed items and
/// a free helper slot, attach, drain, repeat.  Workers live for the rest of
/// the process.
fn worker_loop() {
    IN_POOL_WORKER.set(true);
    let pool = pool();
    let mut queue = pool.queue.lock().expect("pool queue poisoned");
    loop {
        let claimed = queue.jobs.iter().find_map(|job| {
            if job.cursor.load(Ordering::Relaxed) >= job.len {
                return None;
            }
            if job.helper_slots.fetch_sub(1, Ordering::AcqRel) > 0 {
                job.active.fetch_add(1, Ordering::AcqRel);
                Some(Arc::clone(job))
            } else {
                job.helper_slots.fetch_add(1, Ordering::AcqRel);
                None
            }
        });
        match claimed {
            Some(job) => {
                drop(queue);
                run_job(&job);
                queue = pool.queue.lock().expect("pool queue poisoned");
            }
            None => {
                queue = pool
                    .work_ready
                    .wait(queue)
                    .expect("pool queue poisoned while waiting");
            }
        }
    }
}

/// Drains a job's cursor as one attached executor, then detaches; the last
/// executor to detach signals the submitter.  Panics in items are caught,
/// recorded on the job and re-raised by the submitter — a pool worker never
/// dies.
fn run_job(job: &JobCore) {
    let mut executed = 0u64;
    loop {
        let index = job.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= job.len {
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.data, index) }));
        executed += 1;
        if let Err(payload) = outcome {
            let mut panic = job.panic.lock().expect("job panic slot poisoned");
            if panic.is_none() {
                *panic = Some(payload);
            }
            // Stop claiming further items; in-flight claims on other lanes
            // finish normally.  (The store can only move the cursor *down*
            // to `len` after an overshoot, never below it, so no index is
            // ever handed out twice.)
            job.cursor.store(job.len, Ordering::Relaxed);
        }
    }
    pool().items_run.fetch_add(executed, Ordering::Relaxed);
    if job.active.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = job.done.lock().expect("job done flag poisoned");
        *done = true;
        job.done_ready.notify_all();
    }
}

/// Pool batch telemetry: one `pool.batches` tick and the item count per
/// submitted round, plus a `pool.batch` span over submit-to-quiesce (the
/// submitting thread works the job too, so the span is the batch's wall
/// time, not queueing overhead alone).
static POOL_BATCHES: crate::obs::Counter = crate::obs::Counter::new("pool.batches");
static POOL_BATCH_ITEMS: crate::obs::Counter = crate::obs::Counter::new("pool.batch_items");

/// Publishes the round to the pool, works it from the submitting thread, and
/// waits for stragglers before collecting the slots in item order.
fn par_map_pooled<T, R, F>(items: &[T], threads: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    POOL_BATCHES.incr();
    POOL_BATCH_ITEMS.add(items.len() as u64);
    let _batch = crate::obs::span("pool.batch");
    let slots: Vec<ResultSlot<R>> = items
        .iter()
        .map(|_| ResultSlot(UnsafeCell::new(None)))
        .collect();
    let data = JobData {
        items,
        f,
        slots: &slots,
    };
    let job = Arc::new(JobCore {
        data: (&data as *const JobData<'_, T, R, F>).cast(),
        run: run_erased::<T, R, F>,
        cursor: AtomicUsize::new(0),
        len: items.len(),
        helper_slots: AtomicIsize::new((threads - 1) as isize),
        active: AtomicUsize::new(1), // the submitter
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_ready: Condvar::new(),
    });
    let pool = pool();
    {
        let mut queue = pool.queue.lock().expect("pool queue poisoned");
        ensure_workers(&mut queue, threads - 1);
        queue.jobs.push(Arc::clone(&job));
        pool.jobs_run.fetch_add(1, Ordering::Relaxed);
        pool.work_ready.notify_all();
    }
    // The submitter is an executor too: the job completes even if every
    // worker is busy with other sessions' rounds.
    run_job(&job);
    {
        let mut done = job.done.lock().expect("job done flag poisoned");
        while !*done {
            done = job
                .done_ready
                .wait(done)
                .expect("job done flag poisoned while waiting");
        }
    }
    {
        let mut queue = pool.queue.lock().expect("pool queue poisoned");
        queue.jobs.retain(|queued| !Arc::ptr_eq(queued, &job));
    }
    if let Some(payload) = job.panic.lock().expect("job panic slot poisoned").take() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.0
                .into_inner()
                .expect("every item of a quiesced job has a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that flip the process-wide thread override so
    /// they do not observe each other's transient settings.
    fn settings_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_item_order_at_any_thread_count() {
        let items: Vec<usize> = (0..200).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 3, 8] {
            let got = par_map_with(&items, threads, |index, item| {
                assert_eq!(index, *item);
                item * 3
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(&empty, 8, |_, x| *x).is_empty());
        assert_eq!(par_map_with(&[7u32], 8, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn override_wins_over_environment_and_detection() {
        let _guard = settings_lock();
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn dynamic_scheduling_handles_skewed_items() {
        // One expensive item among many cheap ones must not break ordering.
        let items: Vec<usize> = (0..64).collect();
        let got = par_map_with(&items, 4, |_, &item| {
            if item == 0 {
                // Simulate a heavy item.
                let mut acc = 0u64;
                for k in 0..50_000u64 {
                    acc = acc.wrapping_add(k ^ acc.rotate_left(7));
                }
                std::hint::black_box(acc);
            }
            item * 2
        });
        let expected: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn tiny_rounds_dispatch_to_the_pool() {
        // The persistent-pool gate lets 2-item rounds go parallel; the
        // result must still be in item order.
        let before = pool_stats();
        let got = par_map_pooled(&[10u32, 20u32], 2, &|i, x| x + i as u32);
        assert_eq!(got, vec![10, 21]);
        let after = pool_stats();
        assert!(after.jobs > before.jobs, "the round went through the pool");
        assert!(after.workers >= 1);
    }

    #[test]
    fn nested_rounds_from_pool_workers_run_inline_and_complete() {
        let items: Vec<usize> = (0..32).collect();
        let got = par_map_pooled(&items, 4, &|_, &outer| {
            let inner: Vec<usize> = (0..8).collect();
            // May run on a pool worker (inline) or on the submitter
            // (pooled): both must return the same ordered results.
            let nested = par_map_with(&inner, 4, |_, &x| x + outer);
            nested.iter().sum::<usize>()
        });
        let expected: Vec<usize> = items.iter().map(|outer| 28 + 8 * outer).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn concurrent_jobs_share_the_pool() {
        let handles: Vec<_> = (0..4)
            .map(|salt: usize| {
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..100).collect();
                    let got = par_map_pooled(&items, 3, &|_, &i| i * 2 + salt);
                    let expected: Vec<usize> = items.iter().map(|i| i * 2 + salt).collect();
                    assert_eq!(got, expected);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("concurrent submitter panicked");
        }
    }

    #[test]
    fn panics_in_pooled_items_propagate_to_the_submitter() {
        let items: Vec<usize> = (0..64).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            par_map_pooled(&items, 4, &|_, &i| {
                if i == 17 {
                    panic!("item 17 exploded");
                }
                i
            })
        }));
        let payload = outcome.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("item 17 exploded"), "got: {message}");
        // The pool survives the panic and keeps serving jobs.
        let after = par_map_pooled(&[1usize, 2, 3], 2, &|_, &x| x * 10);
        assert_eq!(after, vec![10, 20, 30]);
    }

    #[test]
    fn threads_for_fans_out_from_min_pooled_work() {
        let _guard = settings_lock();
        set_thread_override(Some(4));
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(MIN_POOLED_WORK - 1), 1);
        assert_eq!(threads_for(MIN_POOLED_WORK), 4, "small deltas fan out");
        set_thread_override(None);
    }
}
