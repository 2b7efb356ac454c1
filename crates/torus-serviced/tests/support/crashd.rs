//! The journaling `crashd` daemon as a child process, for the SIGKILL
//! suites. Each test binary includes this file as a module.
//!
//! A [`Crashd`] is SIGKILLed and reaped when dropped, so a failing
//! assertion never leaves a daemon running after its test.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use torus_serviced::Client;

/// A running `crashd` child journaling into one directory.
pub struct Crashd {
    pub child: Child,
    pub port: u16,
    /// Where the child publishes its port; a clean drain removes it.
    pub port_file: PathBuf,
}

impl Crashd {
    /// Starts `crashd` (2 drivers, pool 4) journaling into
    /// `journal_dir`, and waits for its port file, which appears only
    /// after bind and journal replay have completed. `tag` names the
    /// incarnation, so a restart never reads a dead daemon's port.
    pub fn start(journal_dir: &Path, tag: &str) -> Self {
        let port_file = journal_dir.with_extension(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_crashd"))
            .arg("--journal-dir")
            .arg(journal_dir)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--drivers")
            .arg("2")
            .arg("--pool")
            .arg("4")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn crashd");
        // Owned from here on: a panic below still kills the child.
        let mut daemon = Self {
            child,
            port: 0,
            port_file,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        daemon.port = loop {
            if let Ok(text) = std::fs::read_to_string(&daemon.port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            assert!(Instant::now() < deadline, "crashd never published its port");
            std::thread::sleep(Duration::from_millis(10));
        };
        daemon
    }

    /// SIGKILLs the child and reaps it. SIGKILL leaves the port file
    /// behind (no clean exit path ran), so it is removed here.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}

impl Drop for Crashd {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Connects to the daemon on `port`, retrying for up to 10 s.
pub fn connect(port: u16) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(("127.0.0.1", port)) {
            Ok(c) => return c,
            Err(_) => {
                assert!(Instant::now() < deadline, "daemon never accepted");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}
