//! Keeps the machine's cores from going idle while a run measures.
//!
//! The sandbox is a virtual machine: when a vCPU has nothing to run it
//! halts, and waking it again costs tens of microseconds of hypervisor
//! latency that varies with the host. The stack hands every job between
//! several threads (client, reactor, flusher, driver, pool worker), so
//! those wake-ups pace it: with both cores otherwise idle `wire_burst`
//! ran 1280–1470 jobs/s and spread 12 % over ten runs; with the cores
//! kept awake 1720–1810 jobs/s and 3 %. A workload that asks for it
//! (`Workload::keep_awake`) therefore runs with one spinner per core
//! under `SCHED_IDLE`, a policy the kernel only schedules when nothing
//! else wants the CPU — the spinners take no time slice from the
//! workload, they only take the idle state away. The same on every
//! commit; `env.cores_kept_awake` records whether it was in effect.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Linux `SCHED_IDLE` (`<sched.h>`).
const SCHED_IDLE: i32 = 5;

/// `struct sched_param` for the non-realtime policies.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Spinner threads, one per core; stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one `SCHED_IDLE` spinner per available core. Returns
    /// `None` — and leaves nothing running — if any thread could not
    /// switch policy: a spinner at normal priority would compete with
    /// the workload instead of yielding to it.
    pub fn start() -> Option<Self> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = mpsc::channel();
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `sched_setscheduler(2)` reads one
                    // `sched_param` through the pointer, which points at
                    // a live, initialized local; pid 0 addresses the
                    // calling thread only.
                    let switched = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    let _ = ready.send(switched);
                    while switched && !stop.load(Ordering::Relaxed) {
                        for _ in 0..1024 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let awake = Self { stop, threads };
        let all_switched = (0..cores).all(|_| ready_rx.recv() == Ok(true));
        all_switched.then_some(awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
