//! Order-preserving parallel executor for pipeline stages.
//!
//! The pipeline previously parallelised with hand-rolled scoped threads
//! over static chunks: split the work list into `n_threads` contiguous
//! slices up front, one thread each. That balances badly when item costs
//! are skewed (long trips, dense traces): the slowest chunk gates the
//! stage. This module replaces those with a single shared primitive:
//!
//! - a shared atomic cursor over the work list — each worker claims the
//!   next unclaimed index ("work stealing" in the bakery sense: idle
//!   workers immediately pull whatever work remains, so imbalance is
//!   bounded by one item, not one chunk);
//! - results carry their original index and are scattered back into their
//!   original slot, so the output order equals the input order no matter
//!   which worker ran which item, or in what interleaving.
//!
//! # Fault isolation
//!
//! Every task runs under `catch_unwind`: a panicking task becomes a typed
//! [`TaskError`] in its output slot instead of tearing down sibling
//! workers mid-run. The fallible entry point
//! ([`try_par_map_init_metered`]) returns one `Result` per item and never
//! rejects the batch: the caller decides what its failures cost. Its
//! `max_attempts` retries *fallible* errors (never panics — a panic may
//! leave the per-worker scratch in an unspecified state) a bounded,
//! deterministic number of times on the same worker. The infallible
//! wrappers ([`par_map`] and friends) keep their historical contract —
//! a task panic still reaches the caller — but only after every sibling
//! worker has completed, and always as the payload of the failing item
//! with the smallest input index, so the surfaced panic is deterministic.
//!
//! # Determinism
//!
//! `par_map(items, f)` is observationally equivalent to
//! `items.iter().map(f).collect()` whenever `f` is a pure function of the
//! item (plus per-worker scratch that does not alter results, such as
//! reusable search buffers). Scheduling affects only *which worker*
//! computes an item and *when*, never the value written to slot `i`. The
//! pipeline relies on this: `repro` output is byte-identical across runs
//! and thread counts. Scratch that carries a memo from one item to the
//! next would keep the values but make the work each item costs, and any
//! counter of it, depend on the schedule.
//!
//! # Observability
//!
//! The `*_metered` variants report executor behaviour through a
//! [`taxitrace_obs::Registry`] via [`ExecMeter`]: tasks executed, steals
//! (items a worker claimed beyond its fair share), cumulative idle time,
//! worker counts, a histogram of per-worker task loads, and fault
//! counters (task panics, task failures, retries). Metering never
//! changes results — it only counts what the schedule did.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use taxitrace_obs::{Counter, Gauge, Histogram, Registry};

/// Process-wide worker override set by [`set_max_workers`]; `0` means
/// "auto" (one worker per available CPU).
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count used by every subsequent batch in this
/// process. `0` restores the automatic per-CPU default.
///
/// The override is taken literally rather than capped at
/// `available_parallelism()`: forcing e.g. 8 workers on a 1-core host
/// deliberately oversubscribes, which is exactly what thread-count
/// invariance tests need to exercise multi-worker interleavings anywhere.
/// Results never depend on the value (see *Determinism* above) — only
/// wall time does.
pub fn set_max_workers(n: usize) {
    // sync(MAX_WORKERS): standalone config cell; nothing else is published
    // through it, so Relaxed suffices (SeqCst here would imply a protocol
    // that does not exist).
    MAX_WORKERS.store(n, Ordering::Relaxed);
}

/// Number of worker threads for a work list of `len` items: one per
/// available CPU (or the [`set_max_workers`] override), capped by the
/// number of items (never zero).
pub fn worker_count(len: usize) -> usize {
    // sync(MAX_WORKERS): standalone config cell, value-only read.
    let cap = MAX_WORKERS.load(Ordering::Relaxed);
    let workers = if cap == 0 {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    } else {
        cap
    };
    workers.min(len).max(1)
}

/// Why a single task's output slot holds no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError<E> {
    /// The task panicked; the payload is reduced to its message. Panics
    /// are never retried: the per-worker scratch state may be poisoned.
    Panicked {
        /// Stringified panic payload (`&str`/`String` payloads verbatim).
        message: String,
    },
    /// The task returned `Err` on every one of `attempts` tries.
    Failed {
        /// The error from the final attempt.
        error: E,
        /// How many times the task ran (≥ 1, ≤ the batch's `max_attempts`).
        attempts: u32,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for TaskError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { message } => write!(f, "task panicked: {message}"),
            TaskError::Failed { error, attempts } => {
                write!(f, "task failed after {attempts} attempt(s): {error}")
            }
        }
    }
}

/// Per-item outcomes of a fallible batch, one slot per input item in
/// input order.
pub type TaskSlots<R, E> = Vec<Result<R, TaskError<E>>>;

/// Executor metric handles, registered once and reused across stages.
///
/// * `exec.tasks` — items executed across all metered calls;
/// * `exec.steals` — items claimed by a worker beyond its fair share
///   (`ceil(len / workers)`); non-zero means the cursor rebalanced skew;
/// * `exec.idle_us` — cumulative worker idle time (stage wall minus the
///   worker's busy time), microseconds;
/// * `exec.batches` — metered stage invocations;
/// * `exec.workers` — workers used by the most recent batch (gauge);
/// * `exec.worker_tasks` — per-worker task-count distribution;
/// * `exec.task_panics` — tasks whose final attempt panicked;
/// * `exec.task_failures` — tasks whose final attempt returned `Err`;
/// * `exec.task_retries` — extra attempts beyond the first.
#[derive(Debug, Clone)]
pub struct ExecMeter {
    tasks: Counter,
    steals: Counter,
    idle_us: Counter,
    batches: Counter,
    task_panics: Counter,
    task_failures: Counter,
    task_retries: Counter,
    workers: Gauge,
    worker_tasks: Histogram,
}

impl ExecMeter {
    pub fn new(registry: &Registry) -> Self {
        Self {
            tasks: registry.counter("exec.tasks"),
            steals: registry.counter("exec.steals"),
            idle_us: registry.counter("exec.idle_us"),
            batches: registry.counter("exec.batches"),
            task_panics: registry.counter("exec.task_panics"),
            task_failures: registry.counter("exec.task_failures"),
            task_retries: registry.counter("exec.task_retries"),
            workers: registry.gauge("exec.workers"),
            worker_tasks: registry.histogram(
                "exec.worker_tasks",
                &[16.0, 64.0, 256.0, 1024.0, 4096.0],
            ),
        }
    }

    fn record_batch(&self, wall_s: f64, workers: usize, per_worker: &[(usize, f64)]) {
        let len: usize = per_worker.iter().map(|(tasks, _)| tasks).sum();
        let fair = len.div_ceil(workers.max(1));
        self.batches.inc();
        self.workers.set(workers as f64);
        self.tasks.add(len as u64);
        for &(tasks, busy_s) in per_worker {
            self.steals.add(tasks.saturating_sub(fair) as u64);
            self.idle_us.add(((wall_s - busy_s).max(0.0) * 1e6) as u64);
            self.worker_tasks.observe(tasks as f64);
        }
    }

    fn record_faults(&self, panics: u64, failures: u64, retries: u64) {
        self.task_panics.add(panics);
        self.task_failures.add(failures);
        self.task_retries.add(retries);
    }
}

/// Maps `f` over `items` in parallel, preserving input order in the
/// returned vector.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, _) = par_map_init(items, || (), |(), item| f(item));
    results
}

/// Like [`par_map`], but each worker first builds a local state with
/// `init` and threads it through every item it claims. Use this to hold
/// per-worker scratch (reusable search state, audit counters) across items.
/// The worker states are returned so callers can fold up statistics;
/// their order is by worker index and carries no meaning beyond that.
pub fn par_map_init<T, R, S, I, F>(items: &[T], init: I, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    par_map_core(items, init, f, None)
}

/// [`par_map_init`] with executor metrics recorded through `meter`.
pub fn par_map_init_metered<T, R, S, I, F>(
    items: &[T],
    init: I,
    f: F,
    meter: &ExecMeter,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    par_map_core(items, init, f, Some(meter))
}

/// Fault-isolated parallel map with per-worker scratch states and
/// executor metrics: each slot is `Ok(value)` or the [`TaskError`] that
/// emptied it, and a task returning `Err` runs up to `max_attempts` times
/// (at least once). See the module docs for the isolation contract.
pub fn try_par_map_init_metered<T, R, S, E, I, F>(
    items: &[T],
    init: I,
    f: F,
    max_attempts: u32,
    meter: &ExecMeter,
) -> (TaskSlots<R, E>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, E> + Sync,
{
    let (slots, states) = par_try_core(items, init, f, max_attempts, Some(meter));
    (slots.into_iter().map(|slot| slot.map_err(RawTaskError::typed)).collect(), states)
}

/// A slot failure as captured inside the workers: panics keep their raw
/// payload so the infallible wrappers can re-raise it unchanged.
enum RawTaskError<E> {
    Panic(Box<dyn Any + Send>),
    Failed { error: E, attempts: u32 },
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<E> RawTaskError<E> {
    fn typed(self) -> TaskError<E> {
        match self {
            RawTaskError::Panic(payload) => {
                TaskError::Panicked { message: panic_message(payload.as_ref()) }
            }
            RawTaskError::Failed { error, attempts } => TaskError::Failed { error, attempts },
        }
    }
}

/// Runs one task to completion: up to `max_attempts` executions, retrying
/// only fallible `Err` outcomes. Returns the outcome plus the number of
/// extra attempts spent.
fn run_task<T, R, S, E, F>(
    f: &F,
    state: &mut S,
    item: &T,
    max_attempts: u32,
) -> (Result<R, RawTaskError<E>>, u64)
where
    F: Fn(&mut S, &T) -> Result<R, E>,
{
    let max_attempts = max_attempts.max(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        // The closure only touches the caller's state and the item; a
        // caught panic leaves `state` logically unspecified, which is why
        // panics are terminal (never retried) and why per-worker scratch
        // must be rebuildable from scratch semantics alone.
        match catch_unwind(AssertUnwindSafe(|| f(state, item))) {
            Ok(Ok(value)) => return (Ok(value), u64::from(attempts - 1)),
            Ok(Err(error)) => {
                if attempts < max_attempts {
                    continue;
                }
                return (Err(RawTaskError::Failed { error, attempts }), u64::from(attempts - 1));
            }
            Err(payload) => {
                return (Err(RawTaskError::Panic(payload)), u64::from(attempts - 1))
            }
        }
    }
}

fn par_try_core<T, R, S, E, I, F>(
    items: &[T],
    init: I,
    f: F,
    max_attempts: u32,
    meter: Option<&ExecMeter>,
) -> (Vec<Result<R, RawTaskError<E>>>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, E> + Sync,
{
    let workers = worker_count(items.len());
    let stage_start = Instant::now();
    if workers <= 1 {
        let mut state = init();
        let mut retries = 0u64;
        let results: Vec<Result<R, RawTaskError<E>>> = items
            .iter()
            .map(|item| {
                let (outcome, extra) = run_task(&f, &mut state, item, max_attempts);
                retries += extra;
                outcome
            })
            .collect();
        if let Some(meter) = meter {
            let wall_s = stage_start.elapsed().as_secs_f64();
            meter.record_batch(wall_s, 1, &[(items.len(), wall_s)]);
            record_fault_counts(meter, &results, retries);
        }
        return (results, vec![state]);
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, RawTaskError<E>>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let mut states = Vec::with_capacity(workers);
    let mut per_worker: Vec<(usize, f64)> = Vec::with_capacity(workers);
    let mut retries = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        // Workers buffer (index, outcome) pairs locally and the parent
        // scatters them after join: no shared &mut slots, and the hot
        // loop has no synchronisation beyond one fetch_add per item.
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            let init = &init;
            handles.push(scope.spawn(move || {
                let busy_start = Instant::now();
                let mut state = init();
                let mut local: Vec<(usize, Result<R, RawTaskError<E>>)> = Vec::new();
                let mut retries = 0u64;
                loop {
                    // sync(cursor): claim uniqueness needs only RMW
                    // atomicity; results publish via thread join below.
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= items.len() {
                        break;
                    }
                    // Task panics are caught inside run_task, so a worker
                    // thread can no longer die from a poison item.
                    let (outcome, extra) = run_task(f, &mut state, &items[index], max_attempts);
                    retries += extra;
                    local.push((index, outcome));
                }
                (state, local, busy_start.elapsed().as_secs_f64(), retries)
            }));
        }
        for handle in handles {
            // Every task runs under catch_unwind, so join can only fail if
            // the harness itself (cursor bookkeeping, Vec pushes) panicked —
            // re-raise that in the caller: it is a bug, not a task fault.
            let (state, local, busy_s, worker_retries) = match handle.join() {
                Ok(result) => result,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            states.push(state);
            per_worker.push((local.len(), busy_s));
            retries += worker_retries;
            for (index, value) in local {
                debug_assert!(slots[index].is_none(), "slot {index} written twice");
                slots[index] = Some(value);
            }
        }
    });

    let results: Vec<Result<R, RawTaskError<E>>> = slots
        .into_iter()
        // lint:allow(panic-free-library): the steal loop fills every slot
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect();
    if let Some(meter) = meter {
        meter.record_batch(stage_start.elapsed().as_secs_f64(), workers, &per_worker);
        record_fault_counts(meter, &results, retries);
    }
    (results, states)
}

fn record_fault_counts<R, E>(
    meter: &ExecMeter,
    slots: &[Result<R, RawTaskError<E>>],
    retries: u64,
) {
    let panics =
        slots.iter().filter(|s| matches!(s, Err(RawTaskError::Panic(_)))).count() as u64;
    let failures =
        slots.iter().filter(|s| matches!(s, Err(RawTaskError::Failed { .. }))).count() as u64;
    meter.record_faults(panics, failures, retries);
}

fn par_map_core<T, R, S, I, F>(
    items: &[T],
    init: I,
    f: F,
    meter: Option<&ExecMeter>,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let (slots, states) = par_try_core(
        items,
        init,
        |state, item| Ok::<R, std::convert::Infallible>(f(state, item)),
        1,
        meter,
    );
    let mut results = Vec::with_capacity(slots.len());
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for slot in slots {
        match slot {
            Ok(value) => results.push(value),
            Err(RawTaskError::Panic(payload)) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
            Err(RawTaskError::Failed { error, .. }) => match error {},
        }
    }
    if let Some(payload) = first_panic {
        // The infallible API has no error channel: re-raise the original
        // payload — but only now, after every sibling task has completed,
        // and always the failure with the smallest input index.
        std::panic::resume_unwind(payload);
    }
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The fallible entry point without scratch, metered into a throwaway
    /// registry.
    fn try_map<T: Sync, R: Send, E: Send>(
        items: &[T],
        f: impl Fn(&T) -> Result<R, E> + Sync,
        max_attempts: u32,
    ) -> TaskSlots<R, E> {
        let meter = ExecMeter::new(&Registry::new());
        try_par_map_init_metered(items, || (), |(), item| f(item), max_attempts, &meter).0
    }

    /// The infallible map, metered through `meter`.
    fn metered_map<T: Sync, R: Send>(
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
        meter: &ExecMeter,
    ) -> Vec<R> {
        par_map_init_metered(items, || (), |(), item| f(item), meter).0
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed); // sync(counter): merged by join
            x
        });
        // sync(counter): par_map joined every worker, so the count is exact.
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn matches_sequential_map_under_skewed_costs() {
        // Item cost grows with value; static chunking would leave the
        // last worker with most of the work. Results must still be in
        // input order.
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|&x| (0..x % 37).sum::<u64>() + x).collect();
        let got = par_map(&items, |&x| (0..x % 37).sum::<u64>() + x);
        assert_eq!(got, expect);
    }

    #[test]
    fn worker_states_cover_all_items() {
        let items: Vec<usize> = (0..500).collect();
        let (results, states) = par_map_init(
            &items,
            || 0usize,
            |processed, &x| {
                *processed += 1;
                x + 1
            },
        );
        assert_eq!(results.len(), items.len());
        assert_eq!(states.iter().sum::<usize>(), items.len());
        assert_eq!(results[499], 500);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(10_000) >= 1);
    }

    #[test]
    fn metered_map_counts_every_task() {
        let registry = Registry::new();
        let meter = ExecMeter::new(&registry);
        let items: Vec<usize> = (0..777).collect();
        let out = metered_map(&items, |&x| x + 1, &meter);
        assert_eq!(out.len(), items.len());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.tasks"), Some(777));
        assert_eq!(snap.counter("exec.batches"), Some(1));
        assert!(snap.gauge("exec.workers").is_some_and(|w| w >= 1.0));
        // Per-worker task counts land in the histogram and sum to the
        // task total.
        let hist = snap.histograms.iter().find(|h| h.name == "exec.worker_tasks");
        assert!(hist.is_some_and(|h| (h.sum - 777.0).abs() < 1e-9));
    }

    #[test]
    fn registry_counters_exact_under_par_map() {
        // Many workers hammering shared counter handles through the
        // work-stealing map must lose no increments.
        let registry = Registry::new();
        let meter = ExecMeter::new(&registry);
        let hits = registry.counter("test.hits");
        let weighted = registry.counter("test.weighted");
        let items: Vec<u64> = (0..5000).collect();
        let out = metered_map(
            &items,
            |&x| {
                hits.inc();
                weighted.add(x % 7);
                x
            },
            &meter,
        );
        assert_eq!(out, items);
        let expect_weighted: u64 = items.iter().map(|x| x % 7).sum();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("test.hits"), Some(5000));
        assert_eq!(snap.counter("test.weighted"), Some(expect_weighted));
        assert_eq!(snap.counter("exec.tasks"), Some(5000));
    }

    #[test]
    fn metered_results_equal_unmetered() {
        let registry = Registry::new();
        let meter = ExecMeter::new(&registry);
        let items: Vec<u64> = (0..300).collect();
        let plain = par_map(&items, |&x| x * x);
        let metered = metered_map(&items, |&x| x * x, &meter);
        assert_eq!(plain, metered);
    }

    #[test]
    fn panicking_task_is_isolated_into_its_slot() {
        let items: Vec<u32> = (0..100).collect();
        let slots = try_map(
            &items,
            |&x| {
                if x == 37 {
                    panic!("poison item {x}");
                }
                Ok::<u32, String>(x * 2)
            },
            1,
        );
        // Every sibling completed; only the poison slot is empty.
        for (i, slot) in slots.iter().enumerate() {
            if i == 37 {
                assert_eq!(
                    slot,
                    &Err(TaskError::Panicked { message: "poison item 37".into() })
                );
            } else {
                assert_eq!(slot, &Ok(i as u32 * 2));
            }
        }
    }

    #[test]
    fn bounded_retry_is_deterministic_and_counted() {
        // Each item fails (attempts_needed - 1) times before succeeding;
        // retry happens on the same worker so attempt counts are exact.
        let registry = Registry::new();
        let meter = ExecMeter::new(&registry);
        let items: Vec<u32> = (0..40).collect();
        let (slots, states) = try_par_map_init_metered(
            &items,
            std::collections::BTreeMap::<u32, u32>::new,
            |tries, &x| {
                let t = tries.entry(x).or_insert(0);
                *t += 1;
                let needed = x % 3 + 1; // 1..=3 attempts
                if *t >= needed {
                    Ok(x)
                } else {
                    Err(format!("transient {x}"))
                }
            },
            3,
            &meter,
        );
        assert!(slots.iter().all(|s| s.is_ok()));
        let total_tries: u32 = states.iter().flat_map(|m| m.values()).sum();
        let expect_tries: u32 = items.iter().map(|x| x % 3 + 1).sum();
        assert_eq!(total_tries, expect_tries);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("exec.task_retries"),
            Some(u64::from(expect_tries - items.len() as u32))
        );
        assert_eq!(snap.counter("exec.task_failures"), Some(0));
        assert_eq!(snap.counter("exec.task_panics"), Some(0));
    }

    #[test]
    fn retry_exhaustion_reports_attempt_count() {
        let items = [1u32];
        let slots = try_map(&items, |_| Err::<u32, _>("always"), 3);
        assert_eq!(slots, [Err(TaskError::Failed { error: "always", attempts: 3 })]);
    }

    #[test]
    fn panics_are_never_retried() {
        let attempts = AtomicUsize::new(0);
        let items = [0u8];
        let slots = try_map(
            &items,
            |_| -> Result<u8, String> {
                attempts.fetch_add(1, Ordering::Relaxed); // sync(attempts): merged by join
                panic!("boom");
            },
            5,
        );
        // sync(attempts): try_map joined every worker.
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
        assert!(matches!(slots[0], Err(TaskError::Panicked { .. })));
    }

    #[test]
    fn infallible_map_reraises_lowest_index_panic_after_siblings_finish() {
        let completed = AtomicUsize::new(0);
        let items: Vec<u32> = (0..300).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 123 || x == 222 {
                    panic!("die {x}");
                }
                completed.fetch_add(1, Ordering::Relaxed); // sync(completed): merged by join
                x
            })
        }));
        let payload = caught.unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "die 123");
        // All non-panicking siblings ran to completion despite the panic.
        // sync(completed): all workers joined before the panic re-raise.
        assert_eq!(completed.load(Ordering::Relaxed), items.len() - 2);
    }

    #[test]
    fn metered_fault_counters_cover_panics_and_failures() {
        let registry = Registry::new();
        let meter = ExecMeter::new(&registry);
        let items: Vec<u32> = (0..30).collect();
        let slots = try_par_map_init_metered(
            &items,
            || (),
            |(), &x| -> Result<u32, String> {
                if x == 3 {
                    panic!("p");
                }
                if x == 7 {
                    return Err("f".into());
                }
                Ok(x)
            },
            1,
            &meter,
        )
        .0;
        assert_eq!(slots.iter().filter(|s| s.is_err()).count(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.task_panics"), Some(1));
        assert_eq!(snap.counter("exec.task_failures"), Some(1));
    }

    #[test]
    fn max_workers_override_controls_worker_count() {
        // Serialised within one test: the override is process-global.
        set_max_workers(3);
        // Taken literally even above available_parallelism, capped by len.
        assert_eq!(worker_count(100), 3);
        assert_eq!(worker_count(2), 2);
        assert_eq!(worker_count(0), 1);
        // Results are identical to the sequential map under any override.
        let items: Vec<u64> = (0..200).collect();
        let (forced, _) = par_map_init(&items, || (), |(), &x| x * x);
        set_max_workers(1);
        let (seq, _) = par_map_init(&items, || (), |(), &x| x * x);
        set_max_workers(0);
        assert_eq!(forced, seq);
        assert_eq!(worker_count(1), 1);
    }
}
