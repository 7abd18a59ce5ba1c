//! The benchmark's side of the socket: the `cqd` child-process guard
//! and a deadline-aware connection.
//!
//! Set-up and scrapes go through the repository's own
//! [`cq_server::Client`]. Measured operations go through [`Conn`],
//! which differs in exactly the three ways a load generator needs: every
//! operation has a deadline (a hung server fails one op, not the run),
//! a streamed reply is folded row by row instead of collected (10⁶-row
//! drains would otherwise measure the client's allocator), and the
//! arrival time of the first data line is observable.

use cq_server::protocol::{Reply, DATA_PREFIX, END_KEYWORD};
use cq_server::Client;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Worker threads every benchmarked `cqd` runs with (= the sandbox's
/// cores; recorded in the results).
pub const CQD_WORKERS: usize = 2;

/// A running `cqd` child. Killed (SIGKILL) and reaped when dropped, so
/// no exit path of the benchmark — early return, `?`, or an unwinding
/// panic — leaves a server behind.
pub struct Cqd {
    child: Child,
    addr: SocketAddr,
    port_file: PathBuf,
    /// The flags after the binary's path, as recorded in results.
    pub flags: Vec<String>,
}

static SPAWN_SEQ: AtomicU64 = AtomicU64::new(0);

impl Cqd {
    /// Start `cqd` on an ephemeral port with `extra` flags, and wait
    /// until it has written its address to a port file under `scratch`.
    pub fn spawn(cqd: &Path, scratch: &Path, extra: &[String]) -> std::io::Result<Cqd> {
        std::fs::create_dir_all(scratch)?;
        let seq = SPAWN_SEQ.fetch_add(1, Ordering::Relaxed);
        let port_file = scratch.join(format!("cqd-{}-{seq}.addr", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut flags: Vec<String> = vec![
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            CQD_WORKERS.to_string(),
        ];
        flags.extend(extra.iter().cloned());
        let child = Command::new(cqd)
            .args(&flags)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot start {}: {e}", cqd.display()),
                )
            })?;
        // from here on the guard owns the child: any error below drops
        // it, and Drop kills it
        let mut guard =
            Cqd { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), port_file, flags };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(&guard.port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    guard.addr = addr;
                    return Ok(guard);
                }
            }
            if let Some(status) = guard.child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "cqd exited during start-up: {status}"
                )));
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "cqd never wrote its port file",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control-plane connection through the repository's client.
    pub fn client(&self) -> std::io::Result<Client> {
        Client::connect_with_retry(self.addr, Duration::from_secs(10))
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MB.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
    }

    /// `kill -9` the server and reap it (the crash in crash recovery).
    pub fn kill9(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}

impl Drop for Cqd {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM:   123456 kB` out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A directory under the benchmark's scratch area, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(scratch: &Path, label: &str) -> std::io::Result<TempDir> {
        let seq = SPAWN_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = scratch.join(format!("{label}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a streamed reply folded to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Streamed {
    pub rows: u64,
    /// Bytes of data lines, prefix and newline included.
    pub bytes: u64,
    /// Order-independent digest of the row texts ([`row_digest`] summed).
    pub digest: u64,
    /// Request sent → first `* ` line read.
    pub first_row: Option<Duration>,
    pub terminal: String,
}

/// FNV-1a of one rendered row; summed (wrapping) over a reply it makes
/// a digest that does not depend on row order.
pub fn row_digest(row: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in row {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A measured connection. Every call is bounded by `deadline`; after a
/// timeout or any other I/O error the connection is out of step with
/// the server and must be dropped (the server's disconnect probe then
/// cancels whatever was still running).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    deadline: Duration,
    line: Vec<u8>,
    out: String,
}

/// How many streamed rows pass between deadline checks.
const DEADLINE_STRIDE: u64 = 4096;

impl Conn {
    pub fn connect(addr: SocketAddr, deadline: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
            deadline,
            line: Vec::new(),
            out: String::new(),
        })
    }

    /// Connect and select `tenant`.
    pub fn connect_to(
        addr: SocketAddr,
        deadline: Duration,
        tenant: &str,
    ) -> std::io::Result<Conn> {
        let mut c = Conn::connect(addr, deadline)?;
        let r = c.request(&format!("USE {tenant}"))?;
        if !r.is_ok() {
            return Err(std::io::Error::other(format!("USE {tenant}: {}", r.terminal)));
        }
        Ok(c)
    }

    /// One line, one `write` (two would be two segments and two
    /// wake-ups of the server).
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.out.clear();
        self.out.push_str(line);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())
    }

    /// Read one line into `self.line`, newline stripped. A read timeout
    /// surfaces as `TimedOut` whichever kind the platform reports.
    fn read_line(&mut self) -> std::io::Result<()> {
        self.line.clear();
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(0) => Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            Ok(_) => {
                while matches!(self.line.last(), Some(b'\n' | b'\r')) {
                    self.line.pop();
                }
                Ok(())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(std::io::Error::new(ErrorKind::TimedOut, "past the per-op deadline"))
            }
            Err(e) => Err(e),
        }
    }

    /// One command, its reply collected (for replies of a few lines).
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        self.send(line)?;
        self.collect()
    }

    fn collect(&mut self) -> std::io::Result<Reply> {
        let mut data = Vec::new();
        loop {
            self.read_line()?;
            if let Some(d) = self.line.strip_prefix(DATA_PREFIX.as_bytes()) {
                data.push(String::from_utf8_lossy(d).into_owned());
            } else {
                return Ok(Reply {
                    data,
                    terminal: String::from_utf8_lossy(&self.line).into_owned(),
                });
            }
        }
    }

    /// Many single-line-reply commands with `window` of them in flight:
    /// the first `window` go out together, then each reply read sends
    /// the next command, so the server always has work queued. Returns
    /// the terminals, in order.
    pub fn pipeline(
        &mut self,
        lines: &[&str],
        window: usize,
    ) -> std::io::Result<Vec<String>> {
        let mut head = String::new();
        for line in lines.iter().take(window) {
            head.push_str(line);
            head.push('\n');
        }
        self.writer.write_all(head.as_bytes())?;
        let mut terminals = Vec::with_capacity(lines.len());
        for i in 0..lines.len() {
            terminals.push(self.collect()?.terminal);
            if let Some(next) = lines.get(i + window) {
                self.send(next)?;
            }
        }
        Ok(terminals)
    }

    /// One command whose reply may be large: rows are counted and
    /// digested as they arrive, never stored.
    pub fn stream(&mut self, line: &str) -> std::io::Result<Streamed> {
        let started = Instant::now();
        self.send(line)?;
        let mut out = Streamed {
            rows: 0,
            bytes: 0,
            digest: 0,
            first_row: None,
            terminal: String::new(),
        };
        loop {
            self.read_line()?;
            let Some(row) = self.line.strip_prefix(DATA_PREFIX.as_bytes()) else {
                out.terminal = String::from_utf8_lossy(&self.line).into_owned();
                return Ok(out);
            };
            if out.rows == 0 {
                out.first_row = Some(started.elapsed());
            }
            out.rows += 1;
            out.bytes += self.line.len() as u64 + 1;
            out.digest = out.digest.wrapping_add(row_digest(row));
            if out.rows.is_multiple_of(DEADLINE_STRIDE)
                && started.elapsed() > self.deadline
            {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "stream past the per-op deadline",
                ));
            }
        }
    }

    /// A `LOAD` block: open, rows, `END`; the completion reply.
    pub fn load(
        &mut self,
        relation: &str,
        rows: &[(u64, u64)],
    ) -> std::io::Result<Reply> {
        let ack = self.request(&format!("LOAD {relation} 2"))?;
        if !ack.is_ok() {
            return Ok(ack);
        }
        // one buffered write for the whole block: the server consumes
        // rows silently, so nothing is read until END
        let mut block = String::with_capacity(rows.len() * 14 + 4);
        for (a, b) in rows {
            block.push_str(&format!("{a} {b}\n"));
        }
        block.push_str(END_KEYWORD);
        self.request(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_proc_status() {
        let status =
            "Name:\tcqd\nVmPeak:\t  999 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn digest_sum_ignores_row_order() {
        let rows: [&[u8]; 3] = [b"1 2", b"3 4", b"5 6"];
        let fwd = rows.iter().fold(0u64, |d, r| d.wrapping_add(row_digest(r)));
        let rev = rows.iter().rev().fold(0u64, |d, r| d.wrapping_add(row_digest(r)));
        assert_eq!(fwd, rev);
        assert_ne!(row_digest(b"1 2"), row_digest(b"2 1"));
    }
}
