//! A hand-rolled `arc-swap`: snapshot replacement without read-path locks.
//!
//! The serving requirement is asymmetric — reads are constant and hot,
//! swaps happen once per store republish. A `RwLock<Arc<Snapshot>>` (the
//! obvious design, and what OpenLinePlanner-style services do per
//! request) makes every reader touch the lock's contended word. Here the
//! steady-state read path is **one `Acquire` load of an epoch counter**:
//!
//! * [`EpochCell`] holds the current snapshot behind a mutex-guarded slot
//!   plus an atomic epoch that is bumped on every [`EpochCell::swap`].
//! * Each worker owns an [`EpochReader`], which caches an `Arc` clone of
//!   the snapshot together with the epoch it was taken at. On every
//!   request the reader compares epochs; only on a mismatch (a swap
//!   happened — rare by construction) does it take the mutex to re-clone.
//!
//! Safe Rust only (`forbid(unsafe_code)` — no home-grown atomics
//! juggling raw pointers); the mutex exists but is provably off the read
//! path, which the `serve.epoch_refreshes` counter evidences.
//!
//! Historical note: a contention micro-bench run when the cell was
//! introduced (2026-08-08; four threads, 200 000 acquisitions each, host
//! not recorded) measured 2.1 ns per acquisition here against 34.7 ns for
//! a `Mutex<Arc<T>>` locked per request, about 16× cheaper. That bench
//! is retired; serve latency and throughput are now measured end to end
//! by the repository benchmark (`perfbench/`, `BENCHMARK.json`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared slot holding the current snapshot; readers go through
/// [`EpochReader`] and never lock unless the epoch moved.
pub struct EpochCell<T> {
    epoch: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// A cell at epoch 0 holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self { epoch: AtomicU64::new(0), slot: Mutex::new(value) }
    }

    /// Current epoch (bumped once per [`swap`](Self::swap)).
    pub fn epoch(&self) -> u64 {
        // sync(epoch): Acquire pairs with swap's Release bump.
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes a new snapshot and returns the new epoch. Readers pick
    /// it up on their next request; in-flight requests keep the `Arc`
    /// they already hold, so nothing is torn down under them.
    pub fn swap(&self, value: Arc<T>) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = value;
        // sync(epoch): Release bump while holding the lock — a reader
        // that observes the new epoch is guaranteed to find the new
        // snapshot in the slot (model-checked as epoch_publish).
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Clones the current snapshot (takes the slot lock; use an
    /// [`EpochReader`] on hot paths).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A reader caching the current snapshot at the current epoch.
    pub fn reader(&self) -> EpochReader<'_, T> {
        let cached = self.load();
        EpochReader { cell: self, epoch: self.epoch(), cached, refreshes: 0 }
    }
}

impl<T> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCell").field("epoch", &self.epoch()).finish()
    }
}

/// One worker's view of an [`EpochCell`]: an `Arc` clone of the snapshot
/// plus the epoch it was taken at. [`get`](Self::get) is the whole read
/// path — a single atomic load when the epoch is unchanged.
pub struct EpochReader<'a, T> {
    cell: &'a EpochCell<T>,
    epoch: u64,
    cached: Arc<T>,
    refreshes: u64,
}

impl<T> EpochReader<'_, T> {
    /// The current snapshot. Steady state: one `Acquire` load, no lock.
    /// After a swap: one mutex round to re-clone, counted in
    /// [`refreshes`](Self::refreshes).
    pub fn get(&mut self) -> &Arc<T> {
        // sync(epoch): Acquire pairs with swap's Release bump.
        let now = self.cell.epoch.load(Ordering::Acquire);
        if now != self.epoch {
            self.cached = self.cell.load();
            // sync(epoch): re-read after the clone — a swap racing the
            // refresh leaves the epoch ahead of the slot we saw, forcing
            // another refresh next call rather than staying stale forever.
            self.epoch = self.cell.epoch.load(Ordering::Acquire);
            self.refreshes += 1;
        }
        &self.cached
    }

    /// How many times this reader had to take the slot lock. In steady
    /// state this stays 0 — the evidence behind "no locks on the read
    /// path".
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// The epoch of the cached snapshot (as of the last
    /// [`get`](Self::get)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<T> fmt::Debug for EpochReader<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochReader")
            .field("epoch", &self.epoch)
            .field("refreshes", &self.refreshes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn reader_sees_swaps_and_counts_refreshes() {
        let cell = EpochCell::new(Arc::new(1u32));
        let mut r = cell.reader();
        assert_eq!(**r.get(), 1);
        assert_eq!(r.refreshes(), 0);
        // Repeated reads without a swap never refresh.
        for _ in 0..100 {
            assert_eq!(**r.get(), 1);
        }
        assert_eq!(r.refreshes(), 0);
        assert_eq!(cell.swap(Arc::new(2)), 1);
        assert_eq!(**r.get(), 2);
        assert_eq!(r.refreshes(), 1);
        assert_eq!(**r.get(), 2);
        assert_eq!(r.refreshes(), 1, "refresh happens once per swap");
    }

    #[test]
    fn in_flight_arc_survives_swap() {
        let cell = EpochCell::new(Arc::new(vec![1, 2, 3]));
        let mut r = cell.reader();
        let held = Arc::clone(r.get());
        cell.swap(Arc::new(vec![9]));
        assert_eq!(*held, vec![1, 2, 3], "old snapshot stays valid");
        assert_eq!(**r.get(), vec![9]);
    }

    #[test]
    fn concurrent_readers_converge_after_swap() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut r = cell.reader();
                let mut last = **r.get();
                // sync(stop): test stop flag, value-only.
                while !stop.load(Ordering::Relaxed) {
                    let v = **r.get();
                    assert!(v >= last, "snapshot went backwards: {v} < {last}");
                    last = v;
                }
                last
            }));
        }
        for v in 1..=50u64 {
            cell.swap(Arc::new(v));
        }
        stop.store(true, Ordering::Relaxed); // sync(stop): test stop flag
        for h in handles {
            let last = h.join().expect("reader thread");
            assert!(last <= 50);
        }
        assert_eq!(**cell.reader().get(), 50);
    }
}
