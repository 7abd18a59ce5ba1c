//! Operations, their checks, and the closed-loop connection runner.
//!
//! A workload is, per connection, a fixed seeded *cycle* of [`Op`]s
//! repeated until the measured window closes. The loop is closed — a
//! connection sends its next op only after the previous one's reply has
//! been read and checked — because callers of a line protocol wait for
//! their reply. One op may be a pipelined batch ([`Req::Pipeline`]): a
//! fixed number of requests in flight, still a closed loop.

use crate::oracle::StreamExpect;
use crate::wire::Conn;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Which end-to-end latency family an operation's round trip joins.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// `PING`, `DECIDE`, `COUNT`, `FETCH`, `SEEK`.
    Read,
    /// `INSERT`, `LOAD … END`, `SAVE`.
    Write,
    /// A full `ANSWERS` drain (timed as rows/s and time-to-first-row,
    /// not as a latency sample).
    Drain,
    /// Cursor and tenant bookkeeping (`CURSOR`, `CLOSE`, `USE`).
    Control,
    /// Several requests sent back to back, their replies read in order:
    /// the batch is timed, not its members.
    Pipelined,
}

/// What goes on the wire.
#[derive(Clone, Debug)]
pub enum Req {
    /// One line, a reply of a few lines.
    Line(String),
    /// One line, a reply folded row by row.
    Drain(String),
    /// `CURSOR <task> <query>`; the id in the reply addresses the
    /// following `Fetch`/`Seek`/`Close`.
    Cursor(String),
    Fetch(u64),
    Seek(u64),
    Close,
    /// Lines sent with [`PIPELINE_WINDOW`] of them in flight, so the
    /// server always has the next request queued; checked by
    /// [`Check::Each`].
    Pipeline(Vec<String>),
    /// `INSERT <relation>(k, k)` with the connection's next unused key.
    Insert(&'static str),
    /// A `LOAD` block of this many `(k, k)` rows with unused keys.
    Load(&'static str, usize),
}

/// What the reply must be.
#[derive(Clone, Debug)]
pub enum Check {
    Exact(String),
    Prefix(String),
    Suffix(String),
    Rows {
        expect: StreamExpect,
        terminal: String,
    },
    /// One exact terminal per pipelined line, in order.
    Each(Vec<String>),
}

#[derive(Clone, Debug)]
pub struct Op {
    /// Shape or verb name; per-label medians and spans key on it.
    pub label: &'static str,
    pub class: Class,
    pub req: Req,
    pub check: Check,
}

impl Op {
    pub fn line(label: &'static str, class: Class, line: String, expect: String) -> Op {
        Op { label, class, req: Req::Line(line), check: Check::Exact(expect) }
    }

    /// Requests this op puts on the wire and has checked (a `LOAD`
    /// block counts once: the server answers it once).
    pub fn requests(&self) -> u64 {
        match &self.req {
            Req::Pipeline(lines) => lines.len() as u64,
            _ => 1,
        }
    }
}

/// One completed (or failed) operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub label: &'static str,
    pub class: Class,
    /// Since the run's `t0`.
    pub start: Duration,
    pub took: Duration,
    pub ok: bool,
    /// Requests this sample covers (more than 1 only when pipelined).
    pub ops: u64,
    /// Data rows received (answer rows for drains and fetches).
    pub rows: u64,
    pub bytes: u64,
    pub first_row: Option<Duration>,
}

/// Requests a pipelined op keeps in flight.
pub const PIPELINE_WINDOW: usize = 16;

/// Keys written by connection `conn` start here: far outside every
/// generated domain, so inserted rows never join with generated ones,
/// and disjoint between connections.
pub fn key_base(conn: usize) -> u64 {
    1_000_000_000_000 * (conn as u64 + 1)
}

pub fn render_key_row(key: u64) -> String {
    format!("{key} {key}")
}

/// One connection's side of a run: the socket, what it has measured,
/// and what it has been acknowledged.
pub struct ConnRun {
    pub id: usize,
    addr: SocketAddr,
    tenant: String,
    deadline: Duration,
    conn: Option<Conn>,
    cursor: Option<u64>,
    next_key: u64,
    pub samples: Vec<Sample>,
    /// `(ops so far, time since t0)` at each completed cycle.
    pub cycle_marks: Vec<(usize, Duration)>,
    /// Keys acknowledged per relation (`INSERT` and `LOAD` alike).
    pub acked: Vec<(&'static str, u64)>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub failed: u64,
}

const KEPT_FAILURES: usize = 5;

impl ConnRun {
    pub fn connect(
        id: usize,
        addr: SocketAddr,
        tenant: &str,
        deadline: Duration,
    ) -> std::io::Result<ConnRun> {
        Ok(ConnRun {
            id,
            addr,
            tenant: tenant.to_string(),
            deadline,
            conn: Some(Conn::connect_to(addr, deadline, tenant)?),
            cursor: None,
            next_key: key_base(id),
            samples: Vec::new(),
            cycle_marks: Vec::new(),
            acked: Vec::new(),
            failures: Vec::new(),
            failed: 0,
        })
    }

    fn fail(&mut self, op: &Op, why: String) {
        self.failed += op.requests();
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(format!("conn {} {}: {why}", self.id, op.label));
        }
    }

    /// Run one operation, check its reply, record the sample. An I/O
    /// error (a deadline among them) fails the op and replaces the
    /// connection, which is no longer in step with the server.
    pub fn exec(&mut self, op: &Op, t0: Instant) {
        let begun = Instant::now();
        let outcome = self.perform(op);
        let took = begun.elapsed();
        let mut sample = Sample {
            label: op.label,
            class: op.class,
            start: begun.duration_since(t0),
            took,
            ok: false,
            ops: op.requests(),
            rows: 0,
            bytes: 0,
            first_row: None,
        };
        match outcome {
            Ok(Done { verdict: Ok(()), rows, bytes, first_row }) => {
                sample.ok = true;
                sample.rows = rows;
                sample.bytes = bytes;
                sample.first_row = first_row;
            }
            Ok(Done { verdict: Err(why), .. }) => self.fail(op, why),
            Err(e) => {
                self.fail(op, format!("i/o: {e}"));
                self.cursor = None;
                self.conn = Conn::connect_to(self.addr, self.deadline, &self.tenant).ok();
            }
        }
        self.samples.push(sample);
    }

    fn perform(&mut self, op: &Op) -> std::io::Result<Done> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(std::io::Error::other("no connection (reconnect failed)"));
        };
        let cursor = |c: Option<u64>| {
            c.ok_or_else(|| std::io::Error::other("no open cursor for this step"))
        };
        match &op.req {
            Req::Line(line) => {
                let r = conn.request(line)?;
                Ok(Done::small(check_terminal(&op.check, &r.terminal), r.data.len()))
            }
            Req::Drain(line) => {
                let s = conn.stream(line)?;
                let verdict = check_rows(&op.check, &s);
                Ok(Done { verdict, rows: s.rows, bytes: s.bytes, first_row: s.first_row })
            }
            Req::Pipeline(lines) => {
                let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
                let got = conn.pipeline(&lines, PIPELINE_WINDOW)?;
                Ok(Done::small(check_each(&op.check, &lines, &got), 0))
            }
            Req::Cursor(line) => {
                let r = conn.request(line)?;
                self.cursor = r
                    .ok_info()
                    .and_then(|i| i.strip_prefix("cursor "))
                    .and_then(|id| id.trim().parse().ok());
                Ok(Done::small(check_terminal(&op.check, &r.terminal), 0))
            }
            Req::Fetch(n) => {
                let id = cursor(self.cursor)?;
                let s = conn.stream(&format!("FETCH {id} {n}"))?;
                let verdict = check_rows(&op.check, &s);
                Ok(Done { verdict, rows: s.rows, bytes: s.bytes, first_row: s.first_row })
            }
            Req::Seek(k) => {
                let id = cursor(self.cursor)?;
                let r = conn.request(&format!("SEEK {id} {k}"))?;
                Ok(Done::small(check_terminal(&op.check, &r.terminal), 0))
            }
            Req::Close => {
                let id = cursor(self.cursor.take())?;
                let r = conn.request(&format!("CLOSE {id}"))?;
                Ok(Done::small(check_terminal(&op.check, &r.terminal), 0))
            }
            Req::Insert(relation) => {
                let key = self.next_key;
                self.next_key += 1;
                let r = conn.request(&format!("INSERT {relation}({key}, {key})"))?;
                let verdict = check_terminal(&op.check, &r.terminal);
                if verdict.is_ok() {
                    self.acked.push((relation, key));
                }
                Ok(Done::small(verdict, 0))
            }
            Req::Load(relation, n) => {
                let first = self.next_key;
                self.next_key += *n as u64;
                let rows: Vec<(u64, u64)> =
                    (first..self.next_key).map(|k| (k, k)).collect();
                let r = conn.load(relation, &rows)?;
                let verdict = check_terminal(&op.check, &r.terminal);
                if verdict.is_ok() {
                    self.acked.extend((first..self.next_key).map(|k| (*relation, k)));
                }
                Ok(Done::small(verdict, 0))
            }
        }
    }

    /// Repeat `cycle` until `until` (since `t0`) has passed; the time is
    /// read between operations, so the op in flight at the bell finishes.
    pub fn run_cycles(&mut self, cycle: &[Op], t0: Instant, until: Duration) {
        loop {
            for op in cycle {
                if t0.elapsed() >= until || self.conn.is_none() {
                    return;
                }
                self.exec(op, t0);
            }
            self.cycle_marks.push((self.samples.len(), t0.elapsed()));
        }
    }

    /// How long each completed cycle of the last [`ConnRun::run_cycles`]
    /// took, in seconds.
    pub fn cycle_durations(&self) -> Vec<f64> {
        let mut previous = Duration::ZERO;
        self.cycle_marks
            .iter()
            .map(|&(_, t)| {
                let took = (t - previous).as_secs_f64();
                previous = t;
                took
            })
            .collect()
    }

    /// Run `ops` once, regardless of the clock.
    pub fn run_once(&mut self, ops: &[Op], t0: Instant) {
        for op in ops {
            self.exec(op, t0);
        }
    }
}

struct Done {
    verdict: Result<(), String>,
    rows: u64,
    bytes: u64,
    first_row: Option<Duration>,
}

impl Done {
    fn small(verdict: Result<(), String>, rows: usize) -> Done {
        Done { verdict, rows: rows as u64, bytes: 0, first_row: None }
    }
}

fn check_terminal(check: &Check, terminal: &str) -> Result<(), String> {
    let ok = match check {
        Check::Exact(want) => terminal == want,
        Check::Prefix(want) => terminal.starts_with(want.as_str()),
        Check::Suffix(want) => {
            terminal.starts_with("OK") && terminal.ends_with(want.as_str())
        }
        Check::Rows { terminal: want, .. } => terminal == want,
        Check::Each(_) => false, // a pipeline's check, not a single reply's
    };
    if ok {
        Ok(())
    } else {
        Err(format!("got `{terminal}`, want {check:?}"))
    }
}

fn check_each(check: &Check, lines: &[&str], got: &[String]) -> Result<(), String> {
    let Check::Each(want) = check else {
        return Err(format!("a pipeline is checked reply by reply, not by {check:?}"));
    };
    match got.iter().zip(want).position(|(got, want)| got != want) {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!("{} replies for {} requests", got.len(), want.len())),
        Some(i) => Err(format!("`{}`: got `{}`, want `{}`", lines[i], got[i], want[i])),
    }
}

fn check_rows(check: &Check, got: &crate::wire::Streamed) -> Result<(), String> {
    let Check::Rows { expect, terminal } = check else {
        return check_terminal(check, &got.terminal);
    };
    if &got.terminal != terminal {
        return Err(format!("got `{}`, want `{terminal}`", got.terminal));
    }
    if (got.rows, got.bytes, got.digest) != (expect.rows, expect.bytes, expect.digest) {
        return Err(format!(
            "rows differ: got {} rows / {} bytes / digest {:x}, want {} / {} / {:x}",
            got.rows, got.bytes, got.digest, expect.rows, expect.bytes, expect.digest
        ));
    }
    Ok(())
}

/// Every connection runs `ops` once, each on its own thread.
pub fn run_once_all(runs: &mut [ConnRun], ops: &[Op], t0: Instant) {
    std::thread::scope(|s| {
        for run in runs.iter_mut() {
            s.spawn(move || run.run_once(ops, t0));
        }
    });
}

/// Drive every connection through its cycle on its own thread until
/// `until`. Returns when all have stopped.
pub fn run_all(runs: &mut [ConnRun], cycles: &[Vec<Op>], t0: Instant, until: Duration) {
    std::thread::scope(|s| {
        for (run, cycle) in runs.iter_mut().zip(cycles) {
            s.spawn(move || run.run_cycles(cycle, t0, until));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_checks() {
        let exact = Check::Exact("OK 7".into());
        assert!(check_terminal(&exact, "OK 7").is_ok());
        assert!(check_terminal(&exact, "OK 70").is_err());
        let prefix = Check::Prefix("OK inserted 1 row into R1 (".into());
        assert!(
            check_terminal(&prefix, "OK inserted 1 row into R1 (30001 total)").is_ok()
        );
        assert!(
            check_terminal(&prefix, "OK duplicate ignored in R1 (30000 total)").is_err()
        );
        let suffix = Check::Suffix(" at 17".into());
        assert!(check_terminal(&suffix, "OK cursor 3 at 17").is_ok());
        assert!(check_terminal(&suffix, "ERR no-such-cursor: … at 17").is_err());
    }

    #[test]
    fn written_keys_are_disjoint_between_connections() {
        assert!(key_base(0) > 64_000 * 64_000);
        assert!(key_base(1) - key_base(0) > 1_000_000_000);
        assert_eq!(render_key_row(5), "5 5");
    }
}
