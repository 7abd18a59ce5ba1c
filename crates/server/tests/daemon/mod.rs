//! A `cqd` process of a test's own: spawned on an ephemeral port, its
//! address read from the port file it writes, and killed and reaped when
//! the handle drops — so a failing assertion never leaves a server
//! running behind the test.

#![allow(dead_code)] // each test file uses its own part

use cq_server::client::Client;
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A running `cqd` child and the address it serves on.
pub struct Daemon {
    child: Child,
    pub addr: String,
    port_file: PathBuf,
}

impl Daemon {
    /// Spawn `cqd --addr 127.0.0.1:0 --port-file <file>` with `args`
    /// appended, under `envs`, and wait until it has written its address.
    pub fn boot(args: &[OsString], envs: &[(&str, &str)]) -> Daemon {
        static BOOTS: AtomicU32 = AtomicU32::new(0);
        let n = BOOTS.fetch_add(1, Ordering::Relaxed);
        let port_file = std::env::temp_dir()
            .join(format!("cqd_test_{}_{n}.addr", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cqd"));
        cmd.args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(args)
            .envs(envs.iter().copied())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn cqd");
        // from here on a failure kills the child: the handle owns it
        let mut daemon = Daemon { child, addr: String::new(), port_file };
        let deadline = Instant::now() + Duration::from_secs(20);
        daemon.addr = loop {
            if let Ok(s) = std::fs::read_to_string(&daemon.port_file) {
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(Instant::now() < deadline, "cqd never wrote its address");
            std::thread::sleep(Duration::from_millis(20));
        };
        daemon
    }

    /// A client connected to the daemon.
    pub fn client(&self) -> Client {
        Client::connect_with_retry(self.addr.as_str(), Duration::from_secs(10))
            .expect("connect to cqd")
    }

    /// SIGKILL — no shutdown hooks, no flushes, the crash case.
    pub fn kill(mut self) {
        self.child.kill().expect("kill cqd");
        self.child.wait().expect("reap cqd");
    }

    /// The daemon's resident set, in bytes (`VmRSS` of its
    /// `/proc/<pid>/status`).
    pub fn resident_bytes(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("procfs");
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
        let kb: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        kb * 1024
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}
