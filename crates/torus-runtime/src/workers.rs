//! A persistent, reusable worker-thread pool with gang scheduling.
//!
//! [`Runtime::run`](crate::Runtime::run) runs the first worker on the
//! calling thread and spawns and joins the other `W − 1` per exchange —
//! no thread at all at one worker, fine for one-shot measurement, pure
//! overhead for a service executing thousands of multi-worker exchanges
//! (and a pooled run keeps its gang off the caller's thread, so several
//! jobs can share one pool). A [`WorkerPool`] keeps its
//! threads alive across runs: each thread parks on its task channel
//! between jobs and wakes only when handed work, so steady-state job
//! submission spawns no threads at all.
//!
//! # Gang scheduling
//!
//! An exchange run is a *gang*: its worker tasks rendezvous on a shared
//! [`Barrier`](std::sync::Barrier) every step, so all of them must be
//! running simultaneously or none makes progress. Handing a run's tasks
//! to a smaller free set would deadlock the pool — task 1 would wait on a
//! barrier that task 2, queued behind it on the same thread, can never
//! reach. [`WorkerPool::gang`] therefore reserves all `n` threads
//! atomically: it blocks until `n` are simultaneously free and takes them
//! in one motion. Because no caller ever holds a partial reservation,
//! concurrent gangs cannot deadlock against each other; the cost is that
//! a large gang can be starved by a stream of small ones, which callers
//! bound by capping per-job worker counts (see `torus-service`).
//!
//! # Failure isolation
//!
//! A task that panics is caught at the thread boundary and reported
//! through [`Gang::join`]; the pool thread itself survives and returns to
//! the free list. An aborted or degraded exchange never poisons the pool:
//! all abort/retry/quarantine state lives in the per-run shared context,
//! not in the threads.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Locks a mutex, tolerating poisoning: an aborting run must still be
/// able to collect partial state even if some worker panicked while
/// holding a lock.
pub(crate) fn lk<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stringifies a caught panic payload.
pub(crate) fn panic_message(p: &(dyn Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads executing tasks in
/// atomically-reserved gangs.
///
/// ```
/// use torus_runtime::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let mut gang = pool.gang(2);
/// gang.spawn(|| 1 + 1);
/// gang.spawn(|| 2 + 2);
/// let results: Vec<i32> = gang.join().into_iter().map(Result::unwrap).collect();
/// assert_eq!(results, vec![2, 4]);
/// pool.shutdown();
/// ```
pub struct WorkerPool {
    size: usize,
    /// One task channel per thread: a gang addresses the exact threads it
    /// reserved. `None` once shut down.
    task_txs: Mutex<Option<Vec<Sender<Task>>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Indices of threads not currently reserved by a gang.
    free: Mutex<Vec<usize>>,
    freed: Condvar,
}

impl WorkerPool {
    /// Spawns `size` (at least 1) persistent worker threads.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let mut txs = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            let (tx, rx): (Sender<Task>, Receiver<Task>) = channel();
            txs.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("torus-pool-{i}"))
                    .spawn(move || {
                        // Parked (blocked on the channel) between tasks;
                        // exits when the pool drops its sender.
                        while let Ok(task) = rx.recv() {
                            task();
                        }
                    })
                    .expect("spawning a pool worker thread"),
            );
        }
        Self {
            size,
            task_txs: Mutex::new(Some(txs)),
            handles: Mutex::new(handles),
            free: Mutex::new((0..size).collect()),
            freed: Condvar::new(),
        }
    }

    /// The thread count the pool was built with.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Atomically reserves `n` threads, blocking until that many are
    /// simultaneously free. Panics if `n` exceeds the pool size (such a
    /// gang could never be satisfied) or if the pool has been shut down.
    pub fn gang<T: Send + 'static>(&self, n: usize) -> Gang<'_, T> {
        assert!(n >= 1, "a gang needs at least one thread");
        assert!(
            n <= self.size,
            "gang of {n} cannot fit a pool of {}",
            self.size
        );
        let mut free = lk(&self.free);
        while free.len() < n {
            free = self
                .freed
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let cut = free.len() - n;
        let slots: Vec<usize> = free.drain(cut..).collect();
        drop(free);
        Gang {
            pool: self,
            slots,
            pending: Vec::with_capacity(n),
        }
    }

    /// Hands `task` to pool thread `slot` (must be reserved by a gang).
    fn dispatch(&self, slot: usize, task: Task) {
        let txs = lk(&self.task_txs);
        let txs = txs.as_ref().expect("worker pool used after shutdown");
        // Send can only fail if the thread exited, which only happens at
        // shutdown — excluded by the line above while the lock is held.
        txs[slot].send(task).expect("pool worker thread is alive");
    }

    /// Returns reserved threads to the free list.
    fn release(&self, slots: &[usize]) {
        let mut free = lk(&self.free);
        free.extend_from_slice(slots);
        drop(free);
        self.freed.notify_all();
    }

    /// Stops every worker thread and joins it. In-flight tasks finish
    /// first (a thread only observes the closed channel after completing
    /// its current task). Idempotent; [`gang`](Self::gang) panics after.
    pub fn shutdown(&self) {
        // Dropping the senders makes each thread's `recv` fail, ending
        // its loop.
        lk(&self.task_txs).take();
        for h in lk(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An atomic reservation of pool threads, one task per thread, all tasks
/// returning the same type `T`.
///
/// Created by [`WorkerPool::gang`]. Spawn at most as many tasks as the
/// gang reserved, then [`join`](Self::join) to collect results in spawn
/// order and release the threads. Dropping a gang without joining also
/// waits for its spawned tasks (results discarded), so a pool thread is
/// never returned to the free list mid-task.
pub struct Gang<'p, T> {
    pool: &'p WorkerPool,
    slots: Vec<usize>,
    pending: Vec<Receiver<Result<T, String>>>,
}

impl<T: Send + 'static> Gang<'_, T> {
    /// Runs `task` on the next reserved thread. Panics if every reserved
    /// thread already has a task.
    pub fn spawn<F>(&mut self, task: F)
    where
        F: FnOnce() -> T + Send + 'static,
    {
        assert!(
            self.pending.len() < self.slots.len(),
            "gang of {} cannot run a {}th task",
            self.slots.len(),
            self.pending.len() + 1
        );
        let slot = self.slots[self.pending.len()];
        let (tx, rx) = channel();
        self.pool.dispatch(
            slot,
            Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task)).map_err(|p| panic_message(&*p));
                // Receiver gone means the gang was dropped; the result is
                // intentionally discarded.
                let _ = tx.send(result);
            }),
        );
        self.pending.push(rx);
    }

    /// Waits for every spawned task and releases the threads, returning
    /// each task's result in spawn order (`Err` carries a stringified
    /// panic payload).
    pub fn join(mut self) -> Vec<Result<T, String>> {
        let results = self
            .pending
            .drain(..)
            .map(|rx| {
                rx.recv()
                    .unwrap_or_else(|_| Err("pool worker vanished".to_string()))
            })
            .collect();
        self.pool.release(&self.slots);
        self.slots.clear();
        results
    }
}

impl<T> Drop for Gang<'_, T> {
    fn drop(&mut self) {
        if !self.slots.is_empty() {
            // Not joined: wait for every spawned task (each sends exactly
            // once, panic or not) before releasing the threads.
            for rx in self.pending.drain(..) {
                let _ = rx.recv();
            }
            self.pool.release(&self.slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn gang_runs_tasks_and_returns_ordered_results() {
        let pool = WorkerPool::new(3);
        let mut gang = pool.gang(3);
        for i in 0..3 {
            gang.spawn(move || i * 10);
        }
        let results = gang.join();
        assert_eq!(
            results.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            vec![0, 10, 20]
        );
        pool.shutdown();
    }

    #[test]
    fn gang_tasks_run_concurrently_enough_to_share_a_barrier() {
        // The gang-scheduling contract: all tasks of one gang are live at
        // once, so a barrier across them completes.
        let pool = WorkerPool::new(4);
        let barrier = Arc::new(Barrier::new(4));
        let mut gang = pool.gang(4);
        for _ in 0..4 {
            let b = Arc::clone(&barrier);
            gang.spawn(move || {
                b.wait();
                true
            });
        }
        assert!(gang.join().into_iter().all(|r| r.unwrap()));
    }

    #[test]
    fn panicking_task_is_reported_and_thread_survives() {
        let pool = WorkerPool::new(2);
        let mut gang = pool.gang(1);
        gang.spawn(|| -> i32 { panic!("injected test panic") });
        let results = gang.join();
        assert!(results[0].as_ref().unwrap_err().contains("injected"));
        // The thread that hosted the panic is free and functional again.
        let mut gang = pool.gang(2);
        for _ in 0..2 {
            gang.spawn(|| 7);
        }
        assert!(gang.join().into_iter().all(|r| r.unwrap() == 7));
    }

    #[test]
    fn threads_are_reused_not_respawned() {
        let pool = WorkerPool::new(2);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for _ in 0..10 {
            let mut gang = pool.gang(2);
            for _ in 0..2 {
                let seen = Arc::clone(&seen);
                gang.spawn(move || {
                    lk(&seen).insert(std::thread::current().id());
                });
            }
            gang.join();
        }
        assert_eq!(lk(&seen).len(), 2, "ten gangs, still only two threads");
    }

    #[test]
    fn concurrent_gangs_time_share_the_pool_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(3));
        let done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    // Gangs of 1, 2, and 3 interleave; atomic reservation
                    // means no interleaving can deadlock.
                    for n in [2usize, 3, 1] {
                        let mut gang = pool.gang(n);
                        let barrier = Arc::new(Barrier::new(n));
                        for _ in 0..n {
                            let b = Arc::clone(&barrier);
                            gang.spawn(move || b.wait());
                        }
                        gang.join();
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 24);
    }

    #[test]
    fn dropped_gang_waits_for_its_tasks_before_releasing() {
        let pool = WorkerPool::new(1);
        let flag = Arc::new(AtomicUsize::new(0));
        {
            let mut gang = pool.gang(1);
            let flag = Arc::clone(&flag);
            gang.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                flag.store(1, Ordering::SeqCst);
            });
            // Gang dropped here without join().
        }
        // The drop path guarantees the task ran to completion before the
        // thread went back on the free list.
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        let mut gang = pool.gang(1);
        gang.spawn(|| 9);
        assert_eq!(gang.join()[0].as_ref().unwrap(), &9);
    }

    #[test]
    fn shutdown_joins_all_threads_and_is_idempotent() {
        let pool = WorkerPool::new(4);
        let mut gang = pool.gang(4);
        for i in 0..4 {
            gang.spawn(move || i);
        }
        gang.join();
        pool.shutdown();
        pool.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shutdown_joins_exactly_this_pools_threads() {
        // Asks each pool thread for its own kernel tid and checks that
        // exactly those are gone afterwards. Counting every entry of
        // /proc/self/task instead would race the threads sibling tests
        // spawn and join concurrently.
        let pool = WorkerPool::new(6);
        let mut gang = pool.gang(6);
        for _ in 0..6 {
            gang.spawn(|| std::fs::read_link("/proc/thread-self").unwrap());
        }
        let tasks: std::collections::HashSet<_> =
            gang.join().into_iter().map(Result::unwrap).collect();
        assert_eq!(tasks.len(), 6, "one distinct thread per gang slot");
        let alive = |task: &std::path::PathBuf| std::path::Path::new("/proc").join(task).exists();
        assert!(tasks.iter().all(alive));
        pool.shutdown();
        assert!(lk(&pool.handles).is_empty(), "every handle was joined");
        assert!(
            !tasks.iter().any(alive),
            "no leaked pool threads after shutdown"
        );
    }
}
