//! The wire workloads' system under test: an in-process daemon on
//! loopback TCP with a journal, plus the client connections driving it.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use torus_service::{EngineConfig, ServiceStats};
use torus_serviced::{Client, Daemon, DaemonConfig, JournalConfig};

/// Tenant every benchmark connection authenticates as.
pub const TENANT: &str = "bench";

/// The engine sizing every workload and probe uses: pool 2, drivers 2
/// (the sandbox has 2 cores), and a queue deep enough that a burst is
/// never refused.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_pool_size(2)
        .with_drivers(2)
        .with_queue_depth(4096)
}

/// Where journals live for this process.
///
/// Preferably a memory-backed filesystem: with the journal on the
/// sandbox disk, identical back-to-back `wire_small` runs wandered
/// 2.57–2.74 ms `done_ms_p50` and 470–560 jobs/s, on tmpfs 2.53–2.58 ms
/// and 383–392 jobs/s. The whole journal code path (record encode, CRC,
/// write, `sync_data`, group-commit hand-off) still runs; only device
/// wait is excluded. Falls back to `<out>/journal-<pid>` inside the
/// checkout when `/dev/shm` is not writable.
#[derive(Debug)]
pub struct JournalRoot {
    /// Per-process directory holding one sub-directory per stack.
    pub dir: PathBuf,
    /// `"tmpfs:/dev/shm"` or `"checkout:<out>"`, for the environment block.
    pub fs: String,
    next: AtomicU64,
}

impl JournalRoot {
    /// Creates the per-process root, trying `/dev/shm` first.
    pub fn create(out_dir: &Path) -> io::Result<Self> {
        let pid = std::process::id();
        let shm = PathBuf::from(format!("/dev/shm/torus-benchmark-{pid}"));
        let (dir, fs) = if std::fs::create_dir_all(&shm).is_ok() {
            (shm, "tmpfs:/dev/shm".to_string())
        } else {
            let dir = out_dir.join(format!("journal-{pid}"));
            std::fs::create_dir_all(&dir)?;
            (dir, format!("checkout:{}", out_dir.display()))
        };
        Ok(Self {
            dir,
            fs,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty journal directory.
    pub fn fresh(&self) -> PathBuf {
        self.dir
            .join(format!("j{}", self.next.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for JournalRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A running daemon and its authenticated connections.
pub struct Stack {
    /// Loopback address the daemon bound.
    pub addr: SocketAddr,
    /// One client per workload connection.
    pub clients: Vec<Client>,
    daemon: JoinHandle<ServiceStats>,
    journal_dir: PathBuf,
}

impl Stack {
    /// Binds a daemon on `127.0.0.1:0` — `DaemonConfig::default()` with
    /// only the engine sizing, two reactor threads and the journal
    /// overridden, so defaults such as `status_poll` are measured as
    /// users get them — then connects and authenticates `connections`
    /// clients.
    pub fn up(journals: &JournalRoot, connections: usize) -> io::Result<Self> {
        let journal_dir = journals.fresh();
        let config = DaemonConfig {
            engine: engine_config(),
            reactor_threads: 2,
            journal: Some(JournalConfig::new(&journal_dir)),
            ..DaemonConfig::default()
        };
        let (addr, daemon) = Daemon::spawn(config)?;
        let clients = (0..connections)
            .map(|_| {
                let mut client = Client::connect(addr)?;
                client.hello(TENANT).map_err(io::Error::other)?;
                Ok(client)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            addr,
            clients,
            daemon,
            journal_dir,
        })
    }

    /// Drains the daemon, waits for its threads, and deletes its journal.
    pub fn down(mut self) -> io::Result<()> {
        // Drain over a fresh connection: the workload's own clients may
        // have been moved into (and returned from) worker threads, and a
        // drain needs no tenant.
        let mut admin = Client::connect(self.addr)?;
        admin.drain().map_err(io::Error::other)?;
        self.clients.clear();
        self.daemon
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?;
        let _ = std::fs::remove_dir_all(&self.journal_dir);
        Ok(())
    }
}
