//! A small blocking client for the wire protocol, used by `cqsh`, the
//! integration tests, and anyone driving `cqd` from Rust.

use crate::protocol::{BudgetSetting, Reply, DATA_PREFIX, END_KEYWORD};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connection to a `cqd` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Connect, retrying for up to `timeout` — for scripts racing a
    /// just-booted server.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Send one raw request line (no newline) without reading a reply —
    /// for rows/items inside `LOAD`/`BATCH` blocks, which the server
    /// consumes silently.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Read one framed reply: data lines until the `OK`/`ERR` terminal.
    pub fn read_reply(&mut self) -> std::io::Result<Reply> {
        let mut data = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            let line = line.trim_end_matches(['\n', '\r']);
            if let Some(d) = line.strip_prefix(DATA_PREFIX) {
                data.push(d.to_string());
            } else if line.starts_with("OK") || line.starts_with("ERR") {
                return Ok(Reply { data, terminal: line.to_string() });
            } else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("protocol violation: unexpected line `{line}`"),
                ));
            }
        }
    }

    /// Send one command and read its reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        self.send_line(line)?;
        self.read_reply()
    }

    /// Bulk-load rows into a relation: `LOAD` block with one row per
    /// slice. Returns the completion reply (the open-ack is consumed).
    pub fn load(
        &mut self,
        relation: &str,
        cols: usize,
        rows: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> std::io::Result<Reply> {
        let ack = self.request(&format!("LOAD {relation} {cols}"))?;
        if !ack.is_ok() {
            return Ok(ack); // block never opened; no END expected
        }
        for row in rows {
            self.send_line(row.as_ref())?;
        }
        self.request(END_KEYWORD)
    }

    /// Run a `BATCH` block of `DECIDE|COUNT|ANSWERS <query>` items.
    /// Returns the completion reply with one data line per item.
    pub fn run_batch(
        &mut self,
        items: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> std::io::Result<Reply> {
        let ack = self.request("BATCH")?;
        if !ack.is_ok() {
            return Ok(ack);
        }
        for item in items {
            self.send_line(item.as_ref())?;
        }
        self.request(END_KEYWORD)
    }

    /// Open a streaming cursor: `CURSOR ANSWERS|ACCESS <query>`.
    /// Returns the cursor id from `OK cursor <id>`, or the server's
    /// error reply.
    pub fn cursor(
        &mut self,
        task: &str,
        query: &str,
    ) -> std::io::Result<Result<u64, Reply>> {
        let reply = self.request(&format!("CURSOR {task} {query}"))?;
        let id = reply
            .ok_info()
            .and_then(|info| info.strip_prefix("cursor "))
            .and_then(|id| id.trim().parse::<u64>().ok());
        Ok(match id {
            Some(id) => Ok(id),
            None => Err(reply),
        })
    }

    /// Pull up to `n` rows from a cursor. Returns the rows and whether
    /// the stream is exhausted (`OK <k> rows eof`), or the server's
    /// error reply (stale cursor, timeout, …). The server caps a page
    /// at `MAX_FETCH_ROWS`, so fewer than `n` rows without `eof` means
    /// "fetch again", not "done".
    pub fn fetch(
        &mut self,
        id: u64,
        n: u64,
    ) -> std::io::Result<Result<(Vec<String>, bool), Reply>> {
        let reply = self.request(&format!("FETCH {id} {n}"))?;
        Ok(if reply.is_ok() {
            let eof = reply.ok_info().is_some_and(|i| i.ends_with(" rows eof"));
            Ok((reply.data, eof))
        } else {
            Err(reply)
        })
    }

    /// Position a cursor at the k-th answer: `SEEK <id> <k>`.
    pub fn seek(&mut self, id: u64, k: u64) -> std::io::Result<Reply> {
        self.request(&format!("SEEK {id} {k}"))
    }

    /// Release a cursor: `CLOSE <id>`.
    pub fn close_cursor(&mut self, id: u64) -> std::io::Result<Reply> {
        self.request(&format!("CLOSE {id}"))
    }

    /// Drain a cursor to completion in pages of `page` rows, invoking
    /// `on_page` per page — constant client memory no matter the
    /// result size. Returns the total row count, or the server's error
    /// reply if a page fails mid-iteration.
    ///
    /// The cursor is closed on every exit path — exhaustion, a
    /// server-side error reply, and an `on_page` panic (the panic
    /// resumes after the `CLOSE`) — so a session never leaks cursor
    /// slots through this helper. Only an I/O error skips the close:
    /// the connection (and with it the server-side session registry)
    /// is gone anyway.
    pub fn for_each_page(
        &mut self,
        id: u64,
        page: u64,
        mut on_page: impl FnMut(&[String]),
    ) -> std::io::Result<Result<u64, Reply>> {
        let mut total = 0u64;
        loop {
            match self.fetch(id, page)? {
                Ok((rows, eof)) => {
                    total += rows.len() as u64;
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            on_page(&rows)
                        }));
                    if let Err(panic) = outcome {
                        let _ = self.close_cursor(id);
                        std::panic::resume_unwind(panic);
                    }
                    if eof {
                        self.close_cursor(id)?;
                        return Ok(Ok(total));
                    }
                }
                Err(reply) => {
                    // best-effort: the error may be the cursor itself
                    // being gone (stale, evicted), in which case the
                    // close's ERR is expected and ignored
                    let _ = self.close_cursor(id);
                    return Ok(Err(reply));
                }
            }
        }
    }

    // ---- typed admin surface ------------------------------------
    //
    // One method per admin verb, so callers never format raw request
    // lines (and never typo the grammar). Each returns the server's
    // framed reply; inspect `Reply::is_ok` / `Reply::err_kind` for the
    // typed outcome — the kinds are the same `ErrKind` enum the server
    // renders from, on both ends of the wire.

    /// Create a tenant: `CREATE DB <name>`.
    pub fn create_db(&mut self, db: &str) -> std::io::Result<Reply> {
        self.request(&format!("CREATE DB {db}"))
    }

    /// Select the session's tenant: `USE <name>`.
    pub fn use_db(&mut self, db: &str) -> std::io::Result<Reply> {
        self.request(&format!("USE {db}"))
    }

    /// Set or clear a tenant's admission-control budget:
    /// `SET BUDGET <db> MAX-EXPONENT <e> | MAX-ROWS <n> | NONE`.
    pub fn set_budget(
        &mut self,
        db: &str,
        setting: BudgetSetting,
    ) -> std::io::Result<Reply> {
        self.request(&format!("SET BUDGET {db} {setting}"))
    }

    /// Set (`Some(ms)`) or clear (`None`) a tenant's per-query
    /// deadline: `SET TIMEOUT <db> <ms>|NONE`.
    pub fn set_timeout(&mut self, db: &str, ms: Option<u64>) -> std::io::Result<Reply> {
        match ms {
            Some(ms) => self.request(&format!("SET TIMEOUT {db} {ms}")),
            None => self.request(&format!("SET TIMEOUT {db} NONE")),
        }
    }

    /// Checkpoint the session's tenant into a fresh snapshot: `SAVE`.
    pub fn save(&mut self) -> std::io::Result<Reply> {
        self.request("SAVE")
    }

    /// Repair a degraded (read-only) tenant: `RESUME <db>`.
    pub fn resume(&mut self, db: &str) -> std::io::Result<Reply> {
        self.request(&format!("RESUME {db}"))
    }

    /// Server or per-tenant statistics: `STATS [<db>]`. Data lines
    /// carry the report.
    pub fn stats(&mut self, db: Option<&str>) -> std::io::Result<Reply> {
        match db {
            Some(db) => self.request(&format!("STATS {db}")),
            None => self.request("STATS"),
        }
    }

    /// Dump the metrics registry: `METRICS [<db>]`. Data lines carry
    /// `scope metric value` triples.
    pub fn metrics(&mut self, db: Option<&str>) -> std::io::Result<Reply> {
        match db {
            Some(db) => self.request(&format!("METRICS {db}")),
            None => self.request("METRICS"),
        }
    }

    /// Windowed counter rates from the server's metrics history ring:
    /// `METRICS RATE [<db>] [<window-s>]`. The first call seeds the
    /// ring (`rate: n/a …` data line); later calls report
    /// `scope name rate=<v>/s` lines under a `window=…` header.
    pub fn metrics_rate(
        &mut self,
        db: Option<&str>,
        window_s: Option<u64>,
    ) -> std::io::Result<Reply> {
        let mut line = "METRICS RATE".to_string();
        if let Some(db) = db {
            line.push(' ');
            line.push_str(db);
        }
        if let Some(w) = window_s {
            line.push_str(&format!(" {w}"));
        }
        self.request(&line)
    }

    /// A tenant's retained query traces: `PROFILE <db>`. Answers
    /// `ERR tracing-off` unless the server runs with `--profile N`.
    pub fn profile(&mut self, db: &str) -> std::io::Result<Reply> {
        self.request(&format!("PROFILE {db}"))
    }

    /// Plan, execute, and measure a query: `EXPLAIN ANALYZE <task>
    /// <query>`. Data lines carry the plan rendering followed by the
    /// measured `analyze: …` section and the per-operator span tree.
    pub fn explain_analyze(&mut self, task: &str, query: &str) -> std::io::Result<Reply> {
        self.request(&format!("EXPLAIN ANALYZE {task} {query}"))
    }

    /// Say `QUIT` and close the connection.
    pub fn quit(mut self) -> std::io::Result<Reply> {
        self.request("QUIT")
    }
}
