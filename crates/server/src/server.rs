//! The server: a per-connection [`Session`] command interpreter and the
//! [`Server`] accept-loop + worker-pool runtime around it.
//!
//! Threading model: one acceptor thread hands accepted connections to a
//! fixed pool of worker threads over an [`mpsc`] channel; each worker
//! serves one connection at a time, line by line. Evaluation inside a
//! session runs through the process-wide planner (`eval::with_global_planner`,
//! the per-process plan cache) against the tenant's pinned
//! [`IndexCatalog`](cq_data::IndexCatalog), so repeated query shapes
//! skip classification and repeated queries on an unchanged tenant skip
//! every index build. `BATCH` blocks additionally fan out over
//! [`EvalCtx::batch_tasks`] — the pinned catalog and one planner pass
//! shared by the whole batch.
//!
//! Answers leave as bytes. A streamed `ANSWERS` is drained by one pump
//! (`Session::pump_flow`, behind [`Session::drain_flow`]) that renders
//! each row in place into a single reused buffer and writes it out in
//! chunks whose byte budget ramps from [`STREAM_FIRST_CHUNK_BYTES`]
//! (the first row must not wait for a big chunk) to
//! [`STREAM_MAX_CHUNK_BYTES`] (a long drain must not pay a syscall and
//! a client wake-up every few KB): no allocation per row, one chunk of
//! answer memory per connection. A `FETCH` page is the other bounded
//! unit, capped at [`MAX_FETCH_ROWS`].
//!
//! Sessions never panic the connection: command dispatch is wrapped in
//! `catch_unwind`, and a panicking handler yields `ERR internal` with
//! the session reset to idle.

use crate::metrics::{self, SessionMetrics, SERVER_SCOPE};
use crate::protocol::{
    hex_encode, parse_command, parse_row, query_task, render_row_into, BudgetSetting,
    Command, ErrKind, Reply, DATA_PREFIX, END_KEYWORD,
};
use crate::state::{Budget, ServerState, ShipSegment, StateError, Tenant};
use cq_core::{parse_query, ConjunctiveQuery, ParseError};
use cq_data::{Relation, Val};
use cq_engine::{CancelToken, EvalError};
use cq_obs::trace::{self, TraceSink};
use cq_obs::SlowQuery;
use cq_planner::{eval, execute::Answers, EvalBudget, EvalCtx, Output, QueryPlan, Task};
use cq_storage::WalRecord;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Byte budget of the first chunk of a streamed `ANSWERS`: rows are
/// rendered into one buffer and the buffer is written and flushed as
/// soon as it holds this much, so the first row reaches the client
/// after a few hundred rendered rows, not after a full-size chunk.
/// Each flush doubles the budget (slow start) up to
/// [`STREAM_MAX_CHUNK_BYTES`].
pub const STREAM_FIRST_CHUNK_BYTES: usize = 4 << 10;

/// Ceiling of the ramping chunk budget. A chunk is one `write` + one
/// client wake-up, so the ceiling sets the steady-state syscall rate of
/// a long drain (≈ 190 per 10⁶ short rows) — and it is the bound on
/// per-connection answer memory: one chunk, at most this plus one row,
/// regardless of result size. A slow client backpressures the drain
/// through the TCP send buffer instead of ballooning the server.
pub const STREAM_MAX_CHUNK_BYTES: usize = 64 << 10;

/// Cap on the rows of one `FETCH` page, whatever `<n>` asks for: a page
/// is a framed reply built in memory, so without the cap `FETCH <id>
/// 18446744073709551615` would buffer a whole result. A capped page
/// answers `OK <k> rows` without `eof`; clients keep fetching.
pub const MAX_FETCH_ROWS: u64 = 1 << 16;

/// Cap on concurrently open cursors per session: cursors pin catalog
/// artifacts (enumerator structures, direct-access indexes), so an
/// unbounded registry would let one client hold unbounded memory.
pub const MAX_CURSORS_PER_SESSION: usize = 16;

/// Cap on raw bytes per `SHIP <db> <epoch> <offset>` WAL reply: the
/// segment transfer is pull-driven (the replica issues a `SHIP` per
/// segment, exactly like `FETCH` pages a cursor), so this bounds both
/// the primary's per-reply memory and how long the tenant read lock is
/// held reading bytes — a slow replica backpressures by pulling slower,
/// never by ballooning the primary.
pub const SHIP_MAX_BYTES: u64 = 1 << 20;

/// Raw bytes per `SHIP` hex data line (wire lines are 2x this).
const SHIP_LINE_BYTES: usize = 2048;

/// An open cursor: a paused answer stream pinned to the tenant
/// snapshot generation it was planned against. The stream holds only
/// `Arc`'d catalog artifacts and owned relations, so an idle cursor
/// never holds the tenant's read lock — writers proceed, and a
/// mutation bumps the generation, which [`Session::live_cursor`]
/// detects as staleness on the next touch.
struct CursorEntry {
    tenant: Arc<Tenant>,
    generation: u64,
    plan: QueryPlan,
    answers: Answers,
}

/// A streamed `ANSWERS` response in flight: the evaluated stream plus
/// everything the transport needs to finish the reply on its own —
/// the plan (for timeout attribution in the terminal), the tenant's
/// deadline, and the receipt time (for the time-to-first-row metric).
pub struct AnswerFlow {
    answers: Answers,
    db: String,
    plan: QueryPlan,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    started: Instant,
    /// The per-query trace this flow's spans record into (disabled
    /// unless the server profiles). Finished — stream spans included —
    /// only after the drain drops the stream.
    trace: TraceSink,
    /// The command line that opened the flow (trace labelling).
    query: String,
}

/// What the transport should do with one request's result: write a
/// framed reply, or drain an answer stream to the wire incrementally
/// (rows in bounded chunks, then the terminal).
pub enum Action {
    /// An ordinary framed reply.
    Reply(Reply),
    /// A streamed `ANSWERS` response; hand it to
    /// [`Session::drain_flow`]. Boxed: a flow carries its plan and
    /// stream, far bigger than the everyday `Reply`.
    Stream(Box<AnswerFlow>),
}

/// One item of an open `BATCH` block: a parsed query or the per-item
/// error that will be reported at `END`.
enum BatchItem {
    Task(Task, ConjunctiveQuery),
    Bad(Reply),
}

/// What a session is currently reading.
enum Mode {
    /// One command per line.
    Idle,
    /// Inside `LOAD <rel> <cols>` ... `END`.
    Loading {
        relation: String,
        cols: usize,
        rows: Vec<Vec<Val>>,
        /// First row-level error; rows keep being consumed until `END`.
        error: Option<Reply>,
    },
    /// Inside `BATCH` ... `END`.
    Batching { items: Vec<BatchItem> },
}

/// Per-connection protocol state: the current tenant and any open
/// `LOAD`/`BATCH` block. Deterministic and transport-free — tests feed
/// it lines directly, the server feeds it lines from a socket.
pub struct Session {
    state: Arc<ServerState>,
    current: Option<Arc<Tenant>>,
    mode: Mode,
    finished: bool,
    batch_workers: usize,
    /// Cached metric handles (see [`SessionMetrics`]); recording on
    /// the warm path is lock-free.
    metrics: SessionMetrics,
    /// Connection-liveness probe polled during evaluation: `true`
    /// means the client is gone and in-flight work should be cancelled.
    cancel_probe: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Open cursors, by the id handed out in `OK cursor <id>`.
    cursors: HashMap<u64, CursorEntry>,
    /// The next cursor id (session-scoped, never reused).
    next_cursor_id: u64,
    /// A streamed response produced by the current command, picked up
    /// by [`Session::handle_action`] after dispatch returns.
    pending_flow: Option<AnswerFlow>,
}

impl Session {
    /// A fresh session over shared server state.
    pub fn new(state: Arc<ServerState>) -> Session {
        let batch_workers =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let metrics = SessionMetrics::new(Arc::clone(state.metrics()));
        Session {
            state,
            current: None,
            mode: Mode::Idle,
            finished: false,
            batch_workers,
            metrics,
            cancel_probe: None,
            cursors: HashMap::new(),
            next_cursor_id: 0,
            pending_flow: None,
        }
    }

    /// Attach a liveness probe consulted while queries run: when it
    /// returns `true` (client gone), in-flight evaluation is cancelled
    /// cooperatively instead of running to completion for nobody.
    pub fn set_cancel_probe(&mut self, probe: impl Fn() -> bool + Send + Sync + 'static) {
        self.cancel_probe = Some(Arc::new(probe));
    }

    /// Has the client said `QUIT`?
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Feed one raw request line (newline already stripped). Returns
    /// what the transport should do: write a framed [`Action::Reply`],
    /// drain an [`Action::Stream`], or nothing (`None`) when the line
    /// was consumed silently (a blank line, or a row/item inside an
    /// open `LOAD`/`BATCH` block).
    ///
    /// Never panics: a panicking handler is caught, the session resets
    /// to idle, and the client gets `ERR internal`.
    pub fn handle_action(&mut self, raw: &[u8]) -> Option<Action> {
        let reply = match std::panic::catch_unwind(AssertUnwindSafe(|| self.step(raw))) {
            Ok(reply) => reply,
            Err(_) => {
                self.mode = Mode::Idle;
                self.pending_flow = None;
                Some(Reply::err(
                    ErrKind::Internal,
                    "command handler panicked; session reset to idle",
                ))
            }
        };
        if let Some(flow) = self.pending_flow.take() {
            // the dispatch reply is a placeholder; the real terminal is
            // written (and error-counted) when the drain finishes
            return Some(Action::Stream(Box::new(flow)));
        }
        let reply = reply?;
        self.count_error(&reply);
        Some(Action::Reply(reply))
    }

    /// [`Session::handle_action`] with any streamed response collected
    /// into one full reply — the in-process surface (tests, doctests,
    /// embedded use) where incremental writes have no transport to
    /// flow through.
    pub fn handle_raw(&mut self, raw: &[u8]) -> Option<Reply> {
        match self.handle_action(raw)? {
            Action::Reply(r) => Some(r),
            Action::Stream(flow) => Some(self.collect_flow(*flow)),
        }
    }

    /// [`Session::handle_raw`] for already-decoded text.
    pub fn handle_line(&mut self, line: &str) -> Option<Reply> {
        self.handle_raw(line.as_bytes())
    }

    /// Count one error reply, by wire kind — block completions
    /// (`LOAD`/`BATCH` `END`), stream terminals, and panics included.
    fn count_error(&self, reply: &Reply) {
        if !reply.is_ok() {
            if let Some(kind) =
                reply.terminal.strip_prefix("ERR ").and_then(|t| t.split(':').next())
            {
                self.metrics.shared().record_error(kind);
            }
        }
    }

    /// Pull up to `max` rows off a stream, rendered one per line onto
    /// `lines`. `Ok(true)` means the stream is exhausted; `Err` is an
    /// evaluation error (cancellation included) mid-stream.
    fn pull_page(
        answers: &mut Answers,
        max: u64,
        lines: &mut Vec<u8>,
    ) -> Result<bool, EvalError> {
        for _ in 0..max {
            match answers.next()? {
                Some(row) => {
                    render_row_into(lines, row);
                    lines.push(b'\n');
                }
                None => return Ok(true),
            }
        }
        Ok(false)
    }

    /// The terminal for a stream that failed mid-drain: cancellation is
    /// attributed (deadline vs. disconnect) exactly like the
    /// materialized path; anything else is `ERR eval`.
    fn flow_error(&mut self, flow: &AnswerFlow, e: EvalError) -> Reply {
        match e {
            EvalError::Cancelled => {
                let timed_out = flow.deadline.is_some_and(|d| Instant::now() >= d);
                if timed_out {
                    self.metrics.record_timeout(&flow.db);
                } else {
                    self.metrics.record_cancellation(&flow.db);
                }
                timeout_reply(&flow.plan, flow.started.elapsed(), flow.timeout, timed_out)
            }
            e => Reply::err(ErrKind::Eval, e),
        }
    }

    /// The one row pump behind [`Session::drain_flow`] and
    /// [`Session::collect_flow`]: pull the stream dry, rendering each
    /// row as a `* <row>\n` wire line straight into one reused byte
    /// buffer, and hand the buffer to `emit` whenever it reaches the
    /// chunk budget — [`STREAM_FIRST_CHUNK_BYTES`] at first, doubling
    /// per chunk up to [`STREAM_MAX_CHUNK_BYTES`] — and once more at the
    /// end. No allocation per row: the buffer grows to the budget and
    /// is reused. Then close the flow out — rows and bytes served, time
    /// in the sink, the error count, the trace. Returns the terminal:
    /// `OK <n> rows`, or the `ERR` a mid-stream failure maps to (chunks
    /// already emitted stay emitted). An `emit` failure abandons the
    /// flow — counted as a cancellation, with the rows the sink did
    /// accept — and is returned.
    fn pump_flow(
        &mut self,
        mut flow: AnswerFlow,
        mut emit: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<Reply> {
        let (bytes_served, sink_latency) = self.metrics.answer_chunk_handles(&flow.db);
        let mut chunk: Vec<u8> = Vec::new();
        let mut budget = STREAM_FIRST_CHUNK_BYTES;
        let mut pending: u64 = 0; // rows rendered into `chunk`
        let mut served: u64 = 0; // rows in chunks the sink accepted
        let outcome = loop {
            let end = match flow.answers.next() {
                Ok(Some(row)) => {
                    chunk.extend_from_slice(DATA_PREFIX.as_bytes());
                    render_row_into(&mut chunk, row);
                    chunk.push(b'\n');
                    pending += 1;
                    None
                }
                Ok(None) => Some(Ok(())),
                Err(e) => Some(Err(e)),
            };
            if chunk.len() >= budget || (end.is_some() && !chunk.is_empty()) {
                if served == 0 {
                    self.metrics
                        .record_time_to_first_row(&flow.db, flow.started.elapsed());
                }
                let sent = Instant::now();
                if let Err(e) = emit(&chunk) {
                    break Err(e);
                }
                sink_latency.record_duration(sent.elapsed());
                bytes_served.add(chunk.len() as u64);
                served += pending;
                pending = 0;
                chunk.clear();
                budget = (budget * 2).min(STREAM_MAX_CHUNK_BYTES);
            }
            if let Some(end) = end {
                break Ok(end);
            }
        };
        self.metrics.record_answer_rows(&flow.db, served);
        let result = match outcome {
            Ok(Ok(())) => Ok(Reply::ok(format!("{served} rows"))),
            Ok(Err(e)) => Ok(self.flow_error(&flow, e)),
            Err(io) => {
                // the client hung up mid-drain: nobody reads a terminal
                self.metrics.record_cancellation(&flow.db);
                Err(io)
            }
        };
        if let Ok(terminal) = &result {
            self.count_error(terminal);
        }
        // drop the stream first (its span records itself on drop, exec
        // and drain both visible), then finish the sink into the
        // tenant's PROFILE ring; a disabled sink (profiling off)
        // finishes to `None` and nothing is retained
        let AnswerFlow { answers, trace, db, query, .. } = flow;
        drop(answers);
        if let Some(tr) = trace.finish(&db, &query) {
            self.metrics.shared().push_trace(tr);
        }
        result
    }

    /// Drain a streamed response to the wire: `* ` data lines in
    /// byte-budgeted chunks (see [`STREAM_FIRST_CHUNK_BYTES`]), each
    /// written and flushed before the next row is pulled, then the one
    /// terminal line. Rows already on the wire stay there when the
    /// stream fails mid-drain — the client sees partial data followed
    /// by the `ERR` terminal.
    pub fn drain_flow(
        &mut self,
        flow: AnswerFlow,
        out: &mut impl Write,
    ) -> std::io::Result<()> {
        let mut reader_waits = true;
        let terminal = self.pump_flow(flow, |chunk| {
            out.write_all(chunk)?;
            out.flush()?;
            // the first chunk is the one a reader is blocked on. If its
            // wake-up put it on this core it cannot run until the drain
            // blocks — which, rendering faster than a socket buffer
            // fills, is megabytes away (measured: 4 ms to first row for
            // one response in eight). Hand it the core once.
            if std::mem::take(&mut reader_waits) {
                std::thread::yield_now();
            }
            Ok(())
        })?;
        terminal.write_to(out)?;
        out.flush()
    }

    /// [`Session::drain_flow`] into one in-memory [`Reply`] — the
    /// in-process bridge used by [`Session::handle_raw`], which splits
    /// the chunks back into data lines. Partial rows pulled before a
    /// mid-stream failure are kept, like the wire form.
    fn collect_flow(&mut self, flow: AnswerFlow) -> Reply {
        let mut data = Vec::new();
        let terminal = self
            .pump_flow(flow, |chunk| {
                data.extend(
                    rendered_lines(chunk).map(|l| l[DATA_PREFIX.len()..].to_string()),
                );
                Ok(())
            })
            .expect("collecting into memory cannot fail");
        Reply { data, terminal: terminal.terminal }
    }

    fn step(&mut self, raw: &[u8]) -> Option<Reply> {
        match &mut self.mode {
            Mode::Idle => {
                let Ok(text) = std::str::from_utf8(raw) else {
                    return Some(Reply::err(ErrKind::BadUtf8, "request is not UTF-8"));
                };
                let line = text.trim();
                if line.is_empty() {
                    return None;
                }
                Some(self.command(line))
            }
            Mode::Loading { .. } => self.load_line(raw),
            Mode::Batching { .. } => self.batch_line(raw),
        }
    }

    fn command(&mut self, line: &str) -> Reply {
        let cmd = match parse_command(line) {
            Ok(c) => c,
            Err(reply) => return reply,
        };
        let (verb, tenant_scoped) = Self::cmd_verb(&cmd);
        let start = Instant::now();
        // when the server profiles (`cqd --profile N`), tenant-scoped
        // commands run under a fresh trace sink; the finished trace
        // lands in the tenant's PROFILE ring. With profiling off the
        // sink is never installed and every span is a no-op.
        let profiling = tenant_scoped && self.metrics.shared().profiling();
        let reply = if profiling {
            let sink = TraceSink::enabled();
            let reply = trace::with(&sink, || self.dispatch(cmd));
            // a streamed reply keeps its spans open until the drain
            // drops the stream, so the flow (which captured this sink
            // at construction) finishes the trace instead — see
            // `pump_flow`
            if self.pending_flow.is_none() {
                if let Some(t) = &self.current {
                    if let Some(tr) = sink.finish(t.name(), line) {
                        self.metrics.shared().push_trace(tr);
                    }
                }
            }
            reply
        } else {
            self.dispatch(cmd)
        };
        // tenant-addressed commands count in the tenant's scope (QPS
        // per command per database); the rest in the server scope
        let scope = match (&self.current, tenant_scoped) {
            (Some(t), true) => metrics::tenant_scope(t.name()),
            _ => SERVER_SCOPE.to_string(),
        };
        if !reply.is_ok() {
            if let (Some(t), true) = (&self.current, tenant_scoped) {
                self.metrics.record_tenant_error(t.name());
            }
        }
        self.metrics.record_cmd(&scope, verb, start.elapsed());
        reply
    }

    /// The metric verb for a command, and whether it addresses the
    /// session's current tenant (vs. the server as a whole).
    fn cmd_verb(cmd: &Command) -> (&'static str, bool) {
        match cmd {
            Command::Ping => ("ping", false),
            Command::CreateDb(_) => ("create-db", false),
            Command::Use(_) => ("use", false),
            Command::Insert { .. } => ("insert", true),
            Command::Load { .. } => ("load", true),
            Command::Query { task: Task::Decide, .. } => ("decide", true),
            Command::Query { task: Task::Count, .. } => ("count", true),
            Command::Query { .. } => ("answers", true),
            Command::Explain { .. } => ("explain", true),
            Command::ExplainAnalyze { .. } => ("explain-analyze", true),
            Command::Cursor { .. } => ("cursor", true),
            Command::Fetch { .. } => ("fetch", true),
            Command::SeekCursor { .. } => ("seek", true),
            Command::CloseCursor { .. } => ("close", true),
            Command::Batch => ("batch", true),
            Command::Save => ("save", true),
            Command::DropDb(_) => ("drop-db", false),
            Command::DropRelation(_) => ("drop", true),
            Command::Stats { .. } => ("stats", false),
            Command::Metrics { .. } => ("metrics", false),
            Command::MetricsRate { .. } => ("metrics-rate", false),
            Command::Profile { .. } => ("profile", false),
            Command::SetBudget { .. } => ("set-budget", false),
            Command::SetTimeout { .. } => ("set-timeout", false),
            Command::Resume(_) => ("resume", false),
            Command::Ship { .. } => ("ship", false),
            Command::Quit => ("quit", false),
        }
    }

    fn dispatch(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::Ping => Reply::ok("pong"),
            Command::Quit => {
                self.finished = true;
                Reply::ok("bye")
            }
            Command::CreateDb(name) => match self.replica_guard().and_then(|()| {
                self.state.create_db(&name).map_err(|e| match e {
                    StateError::Exists => Reply::err(
                        ErrKind::Exists,
                        format!("database `{name}` already exists"),
                    ),
                    StateError::Storage(msg) => Reply::err(ErrKind::Storage, msg),
                    StateError::NoSuchDb => unreachable!("create_db never reports this"),
                })
            }) {
                Ok(_) => Reply::ok(format!("created {name}")),
                Err(reply) => reply,
            },
            Command::Use(name) => match self.state.tenant(&name) {
                Ok(t) => {
                    self.current = Some(t);
                    Reply::ok(format!("using {name}"))
                }
                Err(_) => {
                    Reply::err(ErrKind::NoSuchDb, format!("no database named `{name}`"))
                }
            },
            Command::Insert { relation, values } => self.insert(&relation, &values),
            Command::Load { relation, cols } => self.open_load(relation, cols),
            Command::Query { task, src } => self.eval_query(task, &src),
            Command::Explain { task, src } => self.explain(task, &src),
            Command::ExplainAnalyze { task, src } => self.explain_analyze(task, &src),
            Command::Cursor { task, src } => self.open_cursor(task, &src),
            Command::Fetch { id, n } => self.fetch(id, n),
            Command::SeekCursor { id, k } => self.seek_cursor(id, k),
            Command::CloseCursor { id } => self.close_cursor(id),
            Command::Batch => self.open_batch(),
            Command::Save => self.save(),
            Command::DropDb(name) => self.drop_db(&name),
            Command::DropRelation(relation) => self.drop_relation(&relation),
            Command::Stats { db } => self.stats(db.as_deref()),
            Command::Metrics { db } => self.metrics_dump(db.as_deref()),
            Command::MetricsRate { db, window_s } => {
                self.metrics_rate(db.as_deref(), window_s)
            }
            Command::Profile { db } => self.profile(&db),
            Command::SetBudget { db, setting } => self.set_budget(&db, setting),
            Command::SetTimeout { db, ms } => self.set_timeout(&db, ms),
            Command::Resume(db) => self.resume(&db),
            Command::Ship { db, epoch, offset } => {
                self.ship(db.as_deref(), epoch, offset)
            }
        }
    }

    /// The `ERR read-only` refusal when this server is a replica —
    /// every mutating verb checks it before anything else, so a client
    /// that writes to the wrong end of a pair is told where the
    /// primary is.
    fn replica_guard(&self) -> Result<(), Reply> {
        match self.state.replica_of() {
            Some(primary) => Err(Reply::err(
                ErrKind::ReadOnly,
                format!(
                    "this server is a read-only replica of {primary}; send writes there"
                ),
            )),
            None => Ok(()),
        }
    }

    fn tenant(&mut self) -> Result<Arc<Tenant>, Reply> {
        match &self.current {
            None => Err(Reply::err(
                ErrKind::NoDb,
                "no database selected; CREATE DB / USE one first",
            )),
            Some(t) if t.is_dropped() => {
                let name = t.name().to_string();
                // let go of the ghost so its memory can be reclaimed
                self.current = None;
                Err(Reply::err(
                    ErrKind::NoSuchDb,
                    format!("database `{name}` was dropped; USE another"),
                ))
            }
            Some(t) => Ok(Arc::clone(t)),
        }
    }

    /// [`Session::tenant`], then refuse if this server is a replica or
    /// the tenant is degraded: mutations fail fast with `ERR read-only`
    /// / `ERR degraded` instead of touching a log they must not write.
    fn writable(&mut self) -> Result<Arc<Tenant>, Reply> {
        self.replica_guard()?;
        let tenant = self.tenant()?;
        match tenant.degraded_reason() {
            Some(reason) => Err(degraded_reply(tenant.name(), &reason)),
            None => Ok(tenant),
        }
    }

    /// The group-commit coalescing window mutations should wait on,
    /// from the server's write policy (`None`: ack from the page
    /// cache, the pre-group-commit behavior).
    fn commit_window(&self) -> Option<Duration> {
        self.state.write_policy().group_commit
    }

    /// Post-mutation bookkeeping: fold the WAL outcome into the reply
    /// ([`Session::walled`]), then — when the mutation stood and the
    /// policy asks for it — checkpoint automatically once the tenant's
    /// log crosses `--auto-save-bytes`. An auto-checkpoint failure is
    /// counted but does not fail the already-durable mutation (the log
    /// is intact; the next mutation retries the checkpoint).
    fn finish_mutation(
        &mut self,
        tenant: &Arc<Tenant>,
        reply: Reply,
        wal: std::io::Result<()>,
    ) -> Reply {
        let reply = Self::walled(tenant, reply, wal);
        if !reply.is_ok() {
            return reply;
        }
        let Some(limit) = self.state.write_policy().auto_save_bytes else {
            return reply;
        };
        let Some(store) = self.state.store().cloned() else { return reply };
        if tenant.wal_len().is_some_and(|len| len >= limit) {
            let scope = self
                .state
                .metrics()
                .registry()
                .scope(&metrics::tenant_scope(tenant.name()));
            match tenant.checkpoint(&store) {
                Ok(_) => scope.counter("storage.auto-checkpoints").inc(),
                Err(_) => scope.counter("storage.auto-checkpoint-failures").inc(),
            }
        }
        reply
    }

    /// Fold a WAL-append outcome into a reply: a mutation that applied
    /// in memory but failed to reach the log must not report success —
    /// and an unrecoverable append failure flips the tenant to
    /// read-only so later mutations can't silently widen the gap
    /// between memory and the log.
    fn walled(tenant: &Tenant, reply: Reply, wal: std::io::Result<()>) -> Reply {
        match wal {
            Ok(()) => reply,
            Err(e) => {
                tenant.set_degraded(&format!("wal append failed: {e}"));
                Reply::err(
                    ErrKind::Storage,
                    format!(
                        "mutation applied in memory but the wal append failed: {e}; \
                         `{name}` is now read-only — RESUME {name} to restore \
                         read-write",
                        name = tenant.name()
                    ),
                )
            }
        }
    }

    fn insert(&mut self, relation: &str, values: &[Val]) -> Reply {
        let tenant = match self.writable() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let (reply, wal) = tenant.mutate_durable(self.commit_window(), |db| {
            let total = match db.get(relation) {
                Some(existing) if existing.arity() != values.len() => {
                    return (
                        Reply::err(
                            ErrKind::ArityMismatch,
                            format!(
                                "`{relation}` has arity {}, tuple has {} values",
                                existing.arity(),
                                values.len()
                            ),
                        ),
                        None,
                    );
                }
                Some(existing) if existing.contains(values) => {
                    // no-op: don't touch the generation (the tenant's
                    // warm catalog survives), don't log, and say what
                    // happened
                    return (
                        Reply::ok(format!(
                            "duplicate ignored in {relation} ({} total)",
                            existing.len()
                        )),
                        None,
                    );
                }
                Some(_) => {
                    // in-place sorted splice: no clone, no re-sort
                    let rel = db.get_mut(relation).expect("presence checked above");
                    rel.insert_row(values);
                    rel.len()
                }
                None => {
                    let mut rel = Relation::new(values.len());
                    rel.insert_row(values);
                    db.insert(relation, rel);
                    1
                }
            };
            (
                Reply::ok(format!("inserted 1 row into {relation} ({total} total)")),
                Some(WalRecord::Insert {
                    relation: relation.to_string(),
                    row: values.to_vec(),
                }),
            )
        });
        self.finish_mutation(&tenant, reply, wal)
    }

    fn open_load(&mut self, relation: String, cols: usize) -> Reply {
        let tenant = match self.writable() {
            Ok(t) => t,
            Err(e) => return e,
        };
        if let Some(existing_arity) =
            tenant.read(|db, _| db.get(&relation).map(Relation::arity))
        {
            if existing_arity != cols {
                return Reply::err(
                    ErrKind::ArityMismatch,
                    format!("`{relation}` has arity {existing_arity}, LOAD says {cols}"),
                );
            }
        }
        self.mode = Mode::Loading { relation, cols, rows: Vec::new(), error: None };
        // the block is open; the one reply comes at END
        Reply::ok("loading; rows until END")
    }

    fn load_line(&mut self, raw: &[u8]) -> Option<Reply> {
        let text = std::str::from_utf8(raw).ok();
        let trimmed = text.map(str::trim);
        let Mode::Loading { relation, cols, rows, error } = &mut self.mode else {
            unreachable!("caller checked mode")
        };
        match trimmed {
            Some(t) if t.eq_ignore_ascii_case(END_KEYWORD) => {
                let relation = std::mem::take(relation);
                let cols = *cols;
                let rows = std::mem::take(rows);
                let error = error.take();
                self.mode = Mode::Idle;
                if let Some(e) = error {
                    return Some(e);
                }
                Some(self.finish_load(&relation, cols, rows))
            }
            Some("") => None, // blank lines between rows are fine
            Some(t) => {
                if error.is_none() {
                    match parse_row(t) {
                        Ok(vals) if vals.len() == *cols => rows.push(vals),
                        Ok(vals) => {
                            *error = Some(Reply::err(
                                ErrKind::ArityMismatch,
                                format!(
                                    "row {} has {} values, expected {cols}",
                                    rows.len() + 1,
                                    vals.len()
                                ),
                            ));
                        }
                        Err(bad) => {
                            *error = Some(Reply::err(
                                ErrKind::BadValue,
                                format!("row {}: `{bad}` is not a u64", rows.len() + 1),
                            ));
                        }
                    }
                }
                None
            }
            None => {
                if error.is_none() {
                    *error = Some(Reply::err(ErrKind::BadUtf8, "row is not UTF-8"));
                }
                None
            }
        }
    }

    fn finish_load(&mut self, relation: &str, cols: usize, rows: Vec<Vec<Val>>) -> Reply {
        let tenant = match self.writable() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let n = rows.len();
        let (reply, wal) = tenant.mutate_durable(self.commit_window(), |db| {
            let existing = db.get(relation);
            let old_len = existing.map(Relation::len);
            let mut rel = match existing {
                Some(existing) if existing.arity() != cols => {
                    // relation changed arity while the block was open
                    return (
                        Reply::err(
                            ErrKind::ArityMismatch,
                            format!(
                                "`{relation}` has arity {}, LOAD says {cols}",
                                existing.arity()
                            ),
                        ),
                        None,
                    );
                }
                Some(existing) => existing.clone(),
                None => Relation::new(cols),
            };
            for row in &rows {
                rel.push_row(row);
            }
            rel.normalize();
            let total = rel.len();
            // set semantics: the content changed iff the row count did
            // (an all-duplicates or empty LOAD is a no-op) — skip the
            // re-insert so the generation and warm catalog survive,
            // and skip the log so replay stays a faithful history
            let record = if old_len != Some(total) {
                db.insert(relation, rel);
                // `rows` moves into the record: no copy of the bulk
                // payload inside the tenant's write lock
                Some(WalRecord::Load {
                    relation: relation.to_string(),
                    arity: cols,
                    rows,
                })
            } else {
                None
            };
            (
                Reply::ok(format!("loaded {n} rows into {relation} ({total} total)")),
                record,
            )
        });
        self.finish_mutation(&tenant, reply, wal)
    }

    /// Parse query text, turning errors into a structured reply whose
    /// data lines carry the source snippet with a caret.
    fn parse(&self, src: &str) -> Result<ConjunctiveQuery, Reply> {
        parse_query(src).map_err(|e| parse_error_reply(src, &e))
    }

    fn eval_query(&mut self, task: Task, src: &str) -> Reply {
        debug_assert!(task != Task::Access, "the protocol layer never builds this");
        let tenant = match self.tenant() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let q = match self.parse(src) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let (cancel, deadline) = self.cancel_token(&tenant);
        let started = Instant::now();
        let outcome = self.plan_and_execute(&tenant, task, src, &q, &cancel, deadline);
        match outcome {
            Err(reply) => reply,
            Ok((Output::Answers(answers), plan, _gen)) => {
                // hand the stream to the transport: preprocessing is
                // done, the tenant read lock is released (the stream
                // holds only Arc'd artifacts), and rows go out — or
                // into a cursorless collect — pull by pull
                self.pending_flow = Some(AnswerFlow {
                    answers,
                    db: tenant.name().to_string(),
                    plan,
                    timeout: tenant.timeout(),
                    deadline,
                    started,
                    trace: trace::current(),
                    query: src.to_string(),
                });
                Reply::ok("streaming") // placeholder, replaced by the drain
            }
            Ok((out, _plan, _gen)) => render_output(out),
        }
    }

    /// Plan, admission-check, and execute one query under the tenant's
    /// read lock. `Err` is the finished error reply (budget, timeout,
    /// eval); `Ok` carries the output — for `ANSWERS`/`ACCESS` a
    /// pull-driven stream whose artifacts outlive the lock — the plan
    /// that produced it, and the snapshot generation it ran against
    /// (read under the same lock, so cursors pin exactly the snapshot
    /// their stream was built on).
    fn plan_and_execute(
        &mut self,
        tenant: &Arc<Tenant>,
        task: Task,
        src: &str,
        q: &ConjunctiveQuery,
        cancel: &CancelToken,
        deadline: Option<Instant>,
    ) -> Result<(Output, QueryPlan, u64), Reply> {
        let sm = &mut self.metrics;
        tenant.read(|db, catalog| {
            let stats = catalog.stats(db);
            let plan = eval::with_global_planner(|p| p.plan(q, task, &stats));
            // admission control: reject over-budget plans before any
            // execution work, citing the lower bound that justifies it
            let ctx = EvalCtx::new()
                .with_catalog(catalog)
                .with_cancel(cancel.clone())
                .with_budget(eval_budget(tenant.budget()));
            if let Err(reason) = ctx.admit(&plan) {
                sm.record_rejection(tenant.name());
                return Err(budget_reply(&reason, &plan));
            }
            let start = Instant::now();
            let result = ctx.execute(&plan, q, db);
            let elapsed = start.elapsed();
            sm.record_op(tenant.name(), plan.op.name(), elapsed);
            let slowlog = sm.shared().slowlog();
            if slowlog.should_record(elapsed) {
                // peek (non-draining) at the in-flight trace: the
                // session-level sink closes after this, and the log
                // wants the three most expensive spans so far
                let top_spans = trace::current()
                    .snapshot(tenant.name(), src)
                    .map(|t| t.top_spans(3))
                    .unwrap_or_default();
                slowlog.push(SlowQuery {
                    db: tenant.name().to_string(),
                    query: src.to_string(),
                    plan_op: plan.op.name().to_string(),
                    exponent: plan.cost.exponent,
                    elapsed,
                    generation: db.generation(),
                    top_spans,
                });
            }
            match result {
                Err(EvalError::Cancelled) => {
                    // the deadline having passed attributes the trip:
                    // a tenant timeout, vs. the client going away
                    let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
                    if timed_out {
                        sm.record_timeout(tenant.name());
                    } else {
                        sm.record_cancellation(tenant.name());
                    }
                    Err(timeout_reply(&plan, elapsed, tenant.timeout(), timed_out))
                }
                Err(e) => Err(Reply::err(ErrKind::Eval, e)),
                Ok(out) => Ok((out, plan, db.generation())),
            }
        })
    }

    /// `CURSOR ANSWERS|ACCESS <query>`: plan and execute like a query,
    /// but park the resulting stream in the session's cursor registry
    /// instead of draining it. The reply is `OK cursor <id>`; rows are
    /// pulled by `FETCH`, positioned by `SEEK` (direct-access plans),
    /// released by `CLOSE`. The cursor pins the tenant's snapshot
    /// generation — any later mutation invalidates it
    /// (`ERR stale-cursor` on next touch).
    fn open_cursor(&mut self, task: Task, src: &str) -> Reply {
        let tenant = match self.tenant() {
            Ok(t) => t,
            Err(e) => return e,
        };
        if self.cursors.len() >= MAX_CURSORS_PER_SESSION {
            return Reply::err(
                ErrKind::CursorLimit,
                format!(
                    "session already has {MAX_CURSORS_PER_SESSION} open cursors; \
                     CLOSE one first"
                ),
            );
        }
        let q = match self.parse(src) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let (cancel, deadline) = self.cancel_token(&tenant);
        let outcome = self.plan_and_execute(&tenant, task, src, &q, &cancel, deadline);
        let (out, plan, generation) = match outcome {
            Ok(v) => v,
            Err(reply) => return reply,
        };
        let Output::Answers(mut answers) = out else {
            unreachable!("ANSWERS/ACCESS tasks always execute to a stream")
        };
        // the cursor outlives this request: each FETCH installs a fresh
        // deadline, so the opening one must not poison later pulls
        answers.set_cancel(CancelToken::never());
        let id = self.next_cursor_id;
        self.next_cursor_id += 1;
        self.metrics.record_cursor_opened(tenant.name());
        self.cursors.insert(id, CursorEntry { tenant, generation, plan, answers });
        Reply::ok(format!("cursor {id}"))
    }

    /// Look up a cursor for `FETCH`/`SEEK`, evicting it with
    /// `ERR stale-cursor` when the tenant mutated (or was dropped)
    /// since the cursor pinned its snapshot generation.
    fn live_cursor(&mut self, id: u64) -> Result<&mut CursorEntry, Reply> {
        let stale = match self.cursors.get(&id) {
            None => {
                return Err(Reply::err(
                    ErrKind::NoSuchCursor,
                    format!("no open cursor {id} in this session"),
                ))
            }
            Some(entry) => {
                entry.tenant.is_dropped()
                    || entry.tenant.read(|db, _| db.generation()) != entry.generation
            }
        };
        if stale {
            let entry = self.cursors.remove(&id).expect("present above");
            self.metrics.record_cursor_closed(entry.tenant.name(), true);
            return Err(Reply::err(
                ErrKind::StaleCursor,
                format!(
                    "cursor {id} is stale: `{}` mutated since the cursor pinned \
                     generation {}; the cursor is closed — re-open to see the new \
                     data",
                    entry.tenant.name(),
                    entry.generation
                ),
            ));
        }
        Ok(self.cursors.get_mut(&id).expect("present and live"))
    }

    /// `FETCH <id> <n>`: pull up to `n` rows — at most
    /// [`MAX_FETCH_ROWS`] — from an open cursor. The terminal reports
    /// how many came and whether the stream is done (`OK <k> rows
    /// eof`). Each FETCH runs under a fresh tenant deadline; a trip
    /// leaves the cursor open with the already-pulled rows delivered.
    fn fetch(&mut self, id: u64, n: u64) -> Reply {
        let tenant = match self.live_cursor(id) {
            Ok(entry) => Arc::clone(&entry.tenant),
            Err(e) => return e,
        };
        let (cancel, deadline) = self.cancel_token(&tenant);
        let started = Instant::now();
        let entry = self.cursors.get_mut(&id).expect("verified live above");
        entry.answers.set_cancel(cancel);
        let mut lines = Vec::new();
        let outcome =
            Self::pull_page(&mut entry.answers, n.min(MAX_FETCH_ROWS), &mut lines);
        let data: Vec<String> = rendered_lines(&lines).map(str::to_string).collect();
        self.metrics.record_answer_rows(tenant.name(), data.len() as u64);
        match outcome {
            Ok(eof) => {
                let n = data.len();
                let info =
                    if eof { format!("{n} rows eof") } else { format!("{n} rows") };
                Reply::ok_with(data, info)
            }
            Err(EvalError::Cancelled) => {
                let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
                if timed_out {
                    self.metrics.record_timeout(tenant.name());
                } else {
                    self.metrics.record_cancellation(tenant.name());
                }
                let entry = self.cursors.get(&id).expect("still open");
                let terminal = timeout_reply(
                    &entry.plan,
                    started.elapsed(),
                    tenant.timeout(),
                    timed_out,
                );
                Reply { data, terminal: terminal.terminal }
            }
            Err(e) => Reply { data, terminal: Reply::err(ErrKind::Eval, e).terminal },
        }
    }

    /// `SEEK <id> <k>`: position a cursor so the next `FETCH` starts at
    /// the k-th answer (0-based). O(1) cursor arithmetic on
    /// direct-access and materialized plans — the skipped prefix is
    /// never enumerated; `ERR unsupported` (citing the plan operator)
    /// on constant-delay enumeration plans, which have no random
    /// access (Lemma 3.23 makes that a structural fact, not a missing
    /// feature).
    fn seek_cursor(&mut self, id: u64, k: u64) -> Reply {
        let entry = match self.live_cursor(id) {
            Ok(e) => e,
            Err(reply) => return reply,
        };
        match entry.answers.seek(k) {
            Ok(()) => Reply::ok(format!("cursor {id} at {k}")),
            Err(EvalError::Unsupported(msg)) => Reply::err(ErrKind::Unsupported, msg),
            Err(e) => Reply::err(ErrKind::Eval, e),
        }
    }

    /// `CLOSE <id>`: release a cursor and its pinned artifacts.
    fn close_cursor(&mut self, id: u64) -> Reply {
        match self.cursors.remove(&id) {
            Some(entry) => {
                self.metrics.record_cursor_closed(entry.tenant.name(), false);
                Reply::ok(format!("closed cursor {id}"))
            }
            None => Reply::err(
                ErrKind::NoSuchCursor,
                format!("no open cursor {id} in this session"),
            ),
        }
    }

    /// The cancellation token for one evaluation under `tenant`: its
    /// `SET TIMEOUT` deadline (if any) plus the session's
    /// client-liveness probe (if attached). Also returns the deadline
    /// so a trip can be attributed to it afterwards.
    fn cancel_token(&self, tenant: &Tenant) -> (CancelToken, Option<Instant>) {
        let deadline = tenant.timeout().and_then(|t| Instant::now().checked_add(t));
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        };
        let token = match &self.cancel_probe {
            Some(probe) => {
                let probe = Arc::clone(probe);
                token.with_probe(move || probe())
            }
            None => token,
        };
        (token, deadline)
    }

    fn explain(&mut self, task: Task, src: &str) -> Reply {
        let tenant = match self.tenant() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let q = match self.parse(src) {
            Ok(q) => q,
            Err(e) => return e,
        };
        tenant.read(|db, catalog| {
            let stats = catalog.stats(db);
            let plan = eval::with_global_planner(|p| p.plan(&q, task, &stats));
            let text = cq_planner::explain::render(&plan, &q);
            Reply::ok_with(text.lines().map(str::to_string).collect(), "")
        })
    }

    /// `EXPLAIN ANALYZE <task> <query>`: the EXPLAIN plan rendering,
    /// then the query actually executed under a one-shot trace sink —
    /// the reply appends measured wall-clock, the observed row count
    /// against the planner's predicted `m^e` worst case, and the
    /// per-operator span tree (time plus recorded attributes). Answer
    /// streams are drained server-side: this command measures, it does
    /// not stream.
    fn explain_analyze(&mut self, task: Task, src: &str) -> Reply {
        debug_assert!(task != Task::Access, "the protocol layer never builds this");
        let tenant = match self.tenant() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let q = match self.parse(src) {
            Ok(q) => q,
            Err(e) => return e,
        };
        let (cancel, deadline) = self.cancel_token(&tenant);
        let sink = TraceSink::enabled();
        let started = Instant::now();
        let outcome = trace::with(&sink, || {
            self.plan_and_execute(&tenant, task, src, &q, &cancel, deadline)
        });
        let (out, plan, _gen) = match outcome {
            Ok(r) => r,
            Err(reply) => return reply,
        };
        // drain answers to count rows; the stream records its span on
        // drop, so measured output below sees the full drain
        let rows = match out {
            Output::Count(n) => n,
            Output::Decision(d) => u64::from(d),
            Output::Answers(mut answers) => {
                let mut n: u64 = 0;
                loop {
                    match answers.next() {
                        Ok(Some(_)) => n += 1,
                        Ok(None) => break,
                        Err(EvalError::Cancelled) => {
                            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
                            if timed_out {
                                self.metrics.record_timeout(tenant.name());
                            } else {
                                self.metrics.record_cancellation(tenant.name());
                            }
                            return timeout_reply(
                                &plan,
                                started.elapsed(),
                                tenant.timeout(),
                                timed_out,
                            );
                        }
                        Err(e) => return Reply::err(ErrKind::Eval, e),
                    }
                }
                drop(answers);
                n
            }
        };
        let total = started.elapsed();
        let mut data: Vec<String> =
            cq_planner::explain::render(&plan, &q).lines().map(str::to_string).collect();
        data.push(format!(
            "analyze: total time={:.3}ms rows={rows}",
            total.as_secs_f64() * 1e3
        ));
        data.push(format!(
            "analyze: predicted m^{:.2} = {:.0} ops worst case; observed {rows} rows",
            plan.cost.exponent,
            plan.cost.operations()
        ));
        if let Some(tr) = sink.finish(tenant.name(), src) {
            tr.visit(|depth, sp| {
                let mut line = format!(
                    "{}{} time={:.3}ms",
                    "  ".repeat(depth + 1),
                    sp.name,
                    sp.elapsed.as_secs_f64() * 1e3
                );
                for (k, v) in &sp.attrs {
                    line.push_str(&format!(" {k}={v}"));
                }
                data.push(line);
            });
            if self.metrics.shared().profiling() {
                self.metrics.shared().push_trace(tr);
            }
        }
        Reply::ok_with(data, "analyzed")
    }

    fn open_batch(&mut self) -> Reply {
        if let Err(e) = self.tenant() {
            return e;
        }
        self.mode = Mode::Batching { items: Vec::new() };
        Reply::ok("batching; DECIDE|COUNT|ANSWERS items until END")
    }

    fn batch_line(&mut self, raw: &[u8]) -> Option<Reply> {
        let text = std::str::from_utf8(raw).ok();
        let trimmed = text.map(str::trim);
        let Mode::Batching { items } = &mut self.mode else {
            unreachable!("caller checked mode")
        };
        match trimmed {
            Some(t) if t.eq_ignore_ascii_case(END_KEYWORD) => {
                let items = std::mem::take(items);
                self.mode = Mode::Idle;
                Some(self.finish_batch(items))
            }
            Some("") => None,
            Some(t) => {
                let item = parse_batch_item(t);
                items.push(item);
                None
            }
            None => {
                items.push(BatchItem::Bad(Reply::err(
                    ErrKind::BadUtf8,
                    "batch item is not UTF-8",
                )));
                None
            }
        }
    }

    fn finish_batch(&mut self, items: Vec<BatchItem>) -> Reply {
        let tenant = match self.tenant() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let n = items.len();
        let workers = self.batch_workers;
        let budget = tenant.budget();
        // one shared token: the tenant's deadline covers the batch as
        // a whole, and a client disconnect cancels every worker
        let (cancel, deadline) = self.cancel_token(&tenant);
        let sm = &mut self.metrics;
        tenant.read(|db, catalog| {
            // admission control first: plan each parsed item (the plans
            // are shape-cached, so the batch's own planner pass below
            // hits) and turn over-budget items into per-item errors
            let items: Vec<BatchItem> = if budget.is_set() {
                let stats = catalog.stats(db);
                eval::with_global_planner(|p| {
                    items
                        .into_iter()
                        .map(|item| match item {
                            BatchItem::Task(t, q) => {
                                let plan = p.plan(&q, t, &stats);
                                match budget_violation(budget, &plan) {
                                    Some(reason) => {
                                        sm.record_rejection(tenant.name());
                                        BatchItem::Bad(budget_reply(&reason, &plan))
                                    }
                                    None => BatchItem::Task(t, q),
                                }
                            }
                            bad => bad,
                        })
                        .collect()
                })
            } else {
                items
            };
            // one shared catalog (the tenant's pinned one, so the batch
            // both profits from and feeds the tenant's warm indexes) +
            // one planner pass for the whole batch, workers pulling
            // items off a shared cursor
            let good: Vec<(&ConjunctiveQuery, Task)> = items
                .iter()
                .filter_map(|i| match i {
                    BatchItem::Task(t, q) => Some((q, *t)),
                    BatchItem::Bad(_) => None,
                })
                .collect();
            let mut results = EvalCtx::new()
                .with_catalog(catalog)
                .with_cancel(cancel.clone())
                .batch_tasks(good, db, workers)
                .into_iter();
            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
            let data: Vec<String> = items
                .iter()
                .enumerate()
                .map(|(i, item)| match item {
                    BatchItem::Bad(reply) => format!("{i} {}", reply.terminal),
                    BatchItem::Task(..) => {
                        let r = results.next().expect("one result per parsed item");
                        let line = match r {
                            Err(EvalError::Cancelled) => {
                                cancelled_batch_terminal(sm, tenant.name(), timed_out)
                            }
                            Err(e) => format!("ERR {}: {e}", ErrKind::Eval),
                            // ANSWERS items enumerate here, at collect
                            // time, so the deadline can also trip
                            // mid-drain
                            Ok((Output::Answers(a), _plan)) => match a.collect() {
                                Ok(rel) => format!("OK {} rows", rel.len()),
                                Err(EvalError::Cancelled) => {
                                    cancelled_batch_terminal(sm, tenant.name(), timed_out)
                                }
                                Err(e) => format!("ERR {}: {e}", ErrKind::Eval),
                            },
                            Ok((out, _plan)) => render_output(out).terminal,
                        };
                        format!("{i} {line}")
                    }
                })
                .collect();
            Reply::ok_with(data, format!("batch of {n} items"))
        })
    }

    fn save(&mut self) -> Reply {
        // a degraded tenant's repair verb is RESUME, not SAVE: the gate
        // keeps the two paths distinct in transcripts and metrics
        let tenant = match self.writable() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let Some(store) = self.state.store().cloned() else {
            return Reply::err(
                ErrKind::Storage,
                "server is in-memory (no --data-dir); SAVE has nothing to write to",
            );
        };
        match tenant.checkpoint(&store) {
            Ok((rows, bytes)) => Reply::ok(format!(
                "checkpointed {}: {rows} rows in a {bytes} byte snapshot, wal \
                 truncated",
                tenant.name()
            )),
            Err(e) => Reply::err(ErrKind::Storage, e),
        }
    }

    fn drop_db(&mut self, name: &str) -> Reply {
        if let Err(reply) = self.replica_guard() {
            return reply;
        }
        let reply = match self.state.drop_db(name) {
            Ok(()) => Reply::ok(format!("dropped database {name}")),
            Err(StateError::NoSuchDb) => {
                Reply::err(ErrKind::NoSuchDb, format!("no database named `{name}`"))
            }
            Err(StateError::Storage(msg)) => Reply::err(ErrKind::Storage, msg),
            Err(StateError::Exists) => unreachable!("drop_db never reports this"),
        };
        // a session that drops its own current tenant is left with no
        // database selected, not a ghost handle
        if self.current.as_ref().is_some_and(|t| t.name() == name && t.is_dropped()) {
            self.current = None;
        }
        reply
    }

    fn drop_relation(&mut self, relation: &str) -> Reply {
        let tenant = match self.writable() {
            Ok(t) => t,
            Err(e) => return e,
        };
        let (reply, wal) =
            tenant.mutate_durable(self.commit_window(), |db| match db.remove(relation) {
                Some(rel) => (
                    Reply::ok(format!("dropped {relation} ({} rows)", rel.len())),
                    Some(WalRecord::DropRelation { relation: relation.to_string() }),
                ),
                None => (
                    Reply::err(
                        ErrKind::NoSuchRelation,
                        format!("no relation named `{relation}`"),
                    ),
                    None,
                ),
            });
        self.finish_mutation(&tenant, reply, wal)
    }

    /// `SHIP` / `SHIP <db> <epoch> <offset>`: the replication pull
    /// surface. Bare `SHIP` lists every tenant's shippable position
    /// (`<name> <epoch> <wal-len>` lines, name order) so a replica can
    /// sync its tenant set; the addressed form ships the next segment
    /// past the replica's position — a header line (`wal <epoch>
    /// <offset> <total>` or `snapshot <epoch> <len>`) followed by hex
    /// payload lines. Transfers are pull-driven and capped at
    /// [`SHIP_MAX_BYTES`] per WAL reply, so a slow replica
    /// backpressures the primary the same way a slow `FETCH` client
    /// backpressures a cursor.
    fn ship(&mut self, db: Option<&str>, epoch: u64, offset: u64) -> Reply {
        let Some(store) = self.state.store().cloned() else {
            return Reply::err(
                ErrKind::Storage,
                "server is in-memory (no --data-dir); there is nothing to SHIP",
            );
        };
        let Some(name) = db else {
            let tenants = self.state.tenants();
            let data = tenants
                .iter()
                .filter_map(|t| {
                    let (epoch, len) = t.wal_position()?;
                    Some(format!("{} {epoch} {len}", t.name()))
                })
                .collect::<Vec<_>>();
            let n = data.len();
            return Reply::ok_with(data, format!("{n} tenants"));
        };
        let tenant = match self.state.tenant(name) {
            Ok(t) => t,
            Err(_) => {
                return Reply::err(
                    ErrKind::NoSuchDb,
                    format!("no database named `{name}`"),
                )
            }
        };
        match tenant.ship(&store, epoch, offset, SHIP_MAX_BYTES) {
            Ok(ShipSegment::Wal { epoch, offset, total, bytes }) => {
                let n = bytes.len();
                let mut data = vec![format!("wal {epoch} {offset} {total}")];
                data.extend(bytes.chunks(SHIP_LINE_BYTES).map(hex_encode));
                Reply::ok_with(data, format!("{n} bytes"))
            }
            Ok(ShipSegment::Snapshot { epoch, bytes }) => {
                let n = bytes.len();
                let mut data = vec![format!("snapshot {epoch} {n}")];
                data.extend(bytes.chunks(SHIP_LINE_BYTES).map(hex_encode));
                Reply::ok_with(data, format!("{n} bytes"))
            }
            Err(e) => Reply::err(ErrKind::Storage, e),
        }
    }

    fn stats(&mut self, db: Option<&str>) -> Reply {
        match db {
            None => self.stats_summary(),
            Some(name) => self.stats_detail(name),
        }
    }

    fn stats_summary(&mut self) -> Reply {
        let mut data = Vec::new();
        data.push(format!("tenants: {}", self.state.n_tenants()));
        data.push(format!("using: {}", self.current.as_ref().map_or("-", |t| t.name())));
        for t in self.state.tenants() {
            let (rels, tuples) = t.sizes();
            data.push(format!("db {}: {rels} relations, {tuples} tuples", t.name()));
        }
        let (shapes, cache) =
            eval::with_global_planner(|p| (p.cache().len(), p.cache().stats()));
        data.push(format!(
            "plan-cache: {shapes} shapes, {} hits, {} misses, {} uncacheable",
            cache.hits, cache.misses, cache.uncacheable
        ));
        Reply::ok_with(data, "")
    }

    /// `STATS <name>`: relation count, total rows, generation, the
    /// per-relation schema, and durability status — enough to verify a
    /// recovery (or any mutation) without querying data.
    fn stats_detail(&mut self, name: &str) -> Reply {
        let tenant = match self.state.tenant(name) {
            Ok(t) => t,
            Err(_) => {
                return Reply::err(
                    ErrKind::NoSuchDb,
                    format!("no database named `{name}`"),
                )
            }
        };
        let d = tenant.detail();
        let mut data = vec![format!(
            "db {name}: {} relations, {} tuples, generation {}",
            d.n_relations, d.n_tuples, d.generation
        )];
        for (rel, arity, rows) in &d.relations {
            data.push(format!("rel {rel}: arity {arity}, {rows} rows"));
        }
        let (cat, _) = tenant.read_meta();
        data.push(format!(
            "catalog: {} hits, {} misses, {} invalidations, {} cap-evictions; \
             memo {} views, {} hash-indexes, {} artifacts",
            cat.hits,
            cat.misses,
            cat.invalidations,
            cat.cap_evictions,
            cat.views,
            cat.hash_indexes,
            cat.artifacts
        ));
        // windowed traffic rates from the metrics history ring: total
        // command QPS and error rate for this tenant, over the ring's
        // full span. `n/a` until two snapshots exist (`METRICS RATE` or
        // the periodic dumper capture them).
        let scope_name = metrics::tenant_scope(name);
        match self.state.metrics().history().rates(None, Some(&scope_name)) {
            Some(report) => {
                // fold from +0.0: an empty `Sum<f64>` is -0.0, which
                // would render as `-0.000/s` for an idle tenant
                let qps: f64 = report
                    .rates
                    .iter()
                    .filter(|(_, n, _)| n.starts_with("cmd.") && n.ends_with(".calls"))
                    .fold(0.0, |acc, (_, _, r)| acc + r);
                let errs: f64 = report
                    .rates
                    .iter()
                    .filter(|(_, n, _)| n.as_str() == "errors")
                    .fold(0.0, |acc, (_, _, r)| acc + r);
                data.push(format!(
                    "traffic: qps={qps:.3}/s err-rate={errs:.3}/s over {:.3}s",
                    report.span.as_secs_f64()
                ));
            }
            None => data.push("traffic: n/a (need 2 metric snapshots)".to_string()),
        }
        match (d.wal_bytes, self.state.store()) {
            (Some(wal), Some(store)) => {
                let snap = store
                    .snapshot_size(name)
                    .ok()
                    .flatten()
                    .map_or("none".to_string(), |b| format!("{b} bytes"));
                data.push(format!("storage: wal {wal} bytes, snapshot {snap}"));
            }
            _ => data.push("storage: none (in-memory)".to_string()),
        }
        // replica / failure-state lines appear only on replicas / when
        // something is wrong, so healthy primary transcripts (and
        // their goldens) are unchanged
        if let Some(primary) = self.state.replica_of() {
            let scope =
                self.state.metrics().registry().scope(&metrics::tenant_scope(name));
            data.push(format!(
                "replica: of {primary}, epoch {}, lag {} bytes",
                scope.gauge("replica.epoch").get(),
                scope.gauge("replica.lag_bytes").get()
            ));
        }
        if d.wal_poisoned == Some(true) {
            data.push("wal: poisoned (appends refused until RESUME)".to_string());
        }
        if let Some(reason) = &d.degraded {
            data.push(format!(
                "mode: read-only (degraded: {reason}); RESUME {name} to restore"
            ));
        }
        Reply::ok_with(data, "")
    }

    /// `METRICS [<name>]`: refresh derived gauges and dump the
    /// registry — every scope, or just one tenant's.
    fn metrics_dump(&mut self, db: Option<&str>) -> Reply {
        if let Some(name) = db {
            if self.state.tenant(name).is_err() {
                return Reply::err(
                    ErrKind::NoSuchDb,
                    format!("no database named `{name}`"),
                );
            }
        }
        let lines = metrics::render(&self.state, db);
        let info = match db {
            Some(name) => format!("metrics for {name}"),
            None => "metrics".to_string(),
        };
        Reply::ok_with(lines, info)
    }

    /// `METRICS RATE [<name>] [<window-s>]`: capture a counter snapshot
    /// into the history ring, then difference the newest snapshot
    /// against the oldest one inside the window into per-second rates.
    /// Two captures are needed before any rate exists — the first call
    /// seeds the ring and reports `n/a`.
    fn metrics_rate(&mut self, db: Option<&str>, window_s: Option<u64>) -> Reply {
        if let Some(name) = db {
            if self.state.tenant(name).is_err() {
                return Reply::err(
                    ErrKind::NoSuchDb,
                    format!("no database named `{name}`"),
                );
            }
        }
        let shared = self.metrics.shared();
        shared.capture_history();
        let scope_filter = db.map(metrics::tenant_scope);
        let window = window_s.map(Duration::from_secs);
        match shared.history().rates(window, scope_filter.as_deref()) {
            None => Reply::ok_with(
                vec!["rate: n/a (need 2 metric snapshots)".to_string()],
                "metrics-rate",
            ),
            Some(report) => {
                let mut data = vec![format!(
                    "window={:.6}s snapshots={}",
                    report.span.as_secs_f64(),
                    report.snapshots
                )];
                for (scope, name, rate) in &report.rates {
                    data.push(format!("{scope} {name} rate={rate:.3}/s"));
                }
                Reply::ok_with(data, "metrics-rate")
            }
        }
    }

    /// `PROFILE <name>`: a tenant's retained query traces, oldest
    /// first — one `trace …` header per query, then its span tree as
    /// `span depth=… name=… ns=…` lines (machine-ish on purpose; cqsh
    /// pretty-prints them). Requires `cqd --profile N`.
    fn profile(&mut self, db: &str) -> Reply {
        let shared = self.metrics.shared();
        if !shared.profiling() {
            return Reply::err(
                ErrKind::TracingOff,
                "per-query tracing is off; start cqd with --profile <n>",
            );
        }
        if self.state.tenant(db).is_err() {
            return Reply::err(ErrKind::NoSuchDb, format!("no database named `{db}`"));
        }
        let traces = shared.recent_traces(db);
        let mut data = Vec::new();
        for tr in &traces {
            data.push(format!(
                "trace db={} spans={} total-ns={} query={:?}",
                tr.db,
                tr.span_count(),
                tr.total.as_nanos(),
                tr.query
            ));
            tr.visit(|depth, sp| {
                let mut line = format!(
                    "span depth={depth} name={} ns={}",
                    sp.name,
                    sp.elapsed.as_nanos()
                );
                for (k, v) in &sp.attrs {
                    line.push_str(&format!(" {k}={v}"));
                }
                data.push(line);
            });
        }
        let n = traces.len();
        Reply::ok_with(data, format!("{n} traces"))
    }

    /// `SET BUDGET <db> …`: adjust a tenant's admission-control caps.
    /// The two caps are independent; `NONE` clears both. The new limit
    /// set is logged so it survives a restart.
    fn set_budget(&mut self, db: &str, setting: BudgetSetting) -> Reply {
        let tenant = match self.named_writable(db) {
            Ok(t) => t,
            Err(e) => return e,
        };
        let reply = match setting {
            BudgetSetting::MaxExponent(e) => {
                tenant.set_max_exponent(Some(e));
                Reply::ok(format!("budget for {db}: max-exponent {e:.2}"))
            }
            BudgetSetting::MaxRows(n) => {
                tenant.set_max_rows(Some(n));
                Reply::ok(format!("budget for {db}: max-rows {n}"))
            }
            BudgetSetting::Clear => {
                tenant.clear_budget();
                Reply::ok(format!("budget for {db}: cleared"))
            }
        };
        let wal = tenant.persist_limits_durable(self.commit_window());
        Self::walled(&tenant, reply, wal)
    }

    /// `SET TIMEOUT <db> <ms>|NONE`: the tenant's per-query deadline,
    /// enforced cooperatively inside the engine's inner loops. Logged
    /// like budgets, so it survives a restart.
    fn set_timeout(&mut self, db: &str, ms: Option<u64>) -> Reply {
        let tenant = match self.named_writable(db) {
            Ok(t) => t,
            Err(e) => return e,
        };
        tenant.set_timeout_ms(ms);
        let reply = match ms {
            Some(ms) => Reply::ok(format!("timeout for {db}: {ms} ms")),
            None => Reply::ok(format!("timeout for {db}: cleared")),
        };
        let wal = tenant.persist_limits_durable(self.commit_window());
        Self::walled(&tenant, reply, wal)
    }

    /// Resolve a tenant by name for a limits mutation, refusing while
    /// this server is a replica or the tenant is degraded (limits are
    /// WAL-backed like any other mutation).
    fn named_writable(&mut self, db: &str) -> Result<Arc<Tenant>, Reply> {
        self.replica_guard()?;
        let tenant = match self.state.tenant(db) {
            Ok(t) => t,
            Err(_) => {
                return Err(Reply::err(
                    ErrKind::NoSuchDb,
                    format!("no database named `{db}`"),
                ))
            }
        };
        match tenant.degraded_reason() {
            Some(reason) => Err(degraded_reply(db, &reason)),
            None => Ok(tenant),
        }
    }

    /// `RESUME <db>`: repair a degraded tenant and restore read-write.
    /// On a persistent server this checkpoints — the snapshot captures
    /// everything in memory (including mutations whose append failed)
    /// and the WAL rolls to a fresh segment, clearing any poison.
    fn resume(&mut self, db: &str) -> Reply {
        if let Err(reply) = self.replica_guard() {
            return reply;
        }
        let tenant = match self.state.tenant(db) {
            Ok(t) => t,
            Err(_) => {
                return Reply::err(ErrKind::NoSuchDb, format!("no database named `{db}`"))
            }
        };
        let Some(store) = self.state.store().cloned() else {
            // in-memory tenants have no storage to fail, but RESUME is
            // still the recovery verb — make it total
            tenant.clear_degraded();
            return Reply::ok(format!("{db} is read-write (in-memory server)"));
        };
        match tenant.checkpoint(&store) {
            Ok((rows, bytes)) => {
                tenant.clear_degraded();
                Reply::ok(format!(
                    "resumed {db}: read-write restored ({rows} rows in a {bytes} \
                     byte snapshot, fresh wal segment)"
                ))
            }
            Err(e) => Reply::err(
                ErrKind::Storage,
                format!("RESUME {db} failed; still read-only: {e}"),
            ),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // a vanished connection releases its cursors — the open-cursor
        // gauge must not count the dead
        let entries: Vec<CursorEntry> = self.cursors.drain().map(|(_, e)| e).collect();
        for entry in entries {
            self.metrics.record_cursor_closed(entry.tenant.name(), false);
        }
    }
}

/// The `ERR degraded` reply: the tenant is read-only after a storage
/// failure; reads still serve, `RESUME` repairs.
fn degraded_reply(db: &str, reason: &str) -> Reply {
    Reply::err(
        ErrKind::Degraded,
        format!(
            "`{db}` is read-only after a storage failure ({reason}); reads still \
             serve — RESUME {db} to restore read-write"
        ),
    )
}

/// The `ERR timeout` reply for a cancelled evaluation: deadline trips
/// cite the plan's cost exponent and the lower-bound hypothesis that
/// makes the cost unavoidable (same citation as budget rejections);
/// disconnect trips just say the client went away.
fn timeout_reply(
    plan: &QueryPlan,
    elapsed: Duration,
    timeout: Option<Duration>,
    timed_out: bool,
) -> Reply {
    if timed_out {
        let limit_ms = timeout.map_or(0, |t| t.as_millis());
        Reply::err(
            ErrKind::Timeout,
            format!(
                "evaluation exceeded the {limit_ms} ms deadline after {} ms; plan \
                 cost m^{:.2} — consistent with: {}",
                elapsed.as_millis(),
                plan.cost.exponent,
                cq_planner::explain::rejection_citation(plan)
            ),
        )
    } else {
        Reply::err(
            ErrKind::Timeout,
            format!(
                "evaluation cancelled after {} ms (client disconnected); plan cost \
                 m^{:.2}",
                elapsed.as_millis(),
                plan.cost.exponent
            ),
        )
    }
}

/// The tenant's wire-level [`Budget`] as the planner's [`EvalBudget`]:
/// the admission logic (and its human-readable violation messages)
/// lives in `cq_planner::ctx` now, shared with every `EvalCtx` caller.
fn eval_budget(budget: Budget) -> EvalBudget {
    EvalBudget { max_exponent: budget.max_exponent, max_rows: budget.max_rows }
}

/// Does `plan` break `budget`? Returns the human-readable reason.
fn budget_violation(budget: Budget, plan: &QueryPlan) -> Option<String> {
    eval_budget(budget).violation(plan)
}

/// The `ERR budget` reply for a rejected plan, carrying the EXPLAIN
/// lower-bound citation (e.g. "Triangle Hypothesis (Hypothesis 2) — no
/// O(m^{1.00-eps}) algorithm exists …").
fn budget_reply(reason: &str, plan: &QueryPlan) -> Reply {
    Reply::err(
        ErrKind::Budget,
        format!("{reason}; rejected: {}", cq_planner::explain::rejection_citation(plan)),
    )
}

/// The per-item `ERR timeout` terminal for a cancelled batch item,
/// attributed (and counted) as a deadline trip or a client disconnect.
fn cancelled_batch_terminal(
    sm: &mut SessionMetrics,
    db: &str,
    timed_out: bool,
) -> String {
    if timed_out {
        sm.record_timeout(db);
        format!(
            "ERR {}: batch exceeded the tenant's SET TIMEOUT deadline",
            ErrKind::Timeout
        )
    } else {
        sm.record_cancellation(db);
        format!("ERR {}: evaluation cancelled (client disconnected)", ErrKind::Timeout)
    }
}

/// Render a scalar execution output as one full reply. `Answers`
/// outputs never reach here: `ANSWERS` streams through the flow path,
/// cursors page, and `BATCH` reports row counts only.
fn render_output(out: Output) -> Reply {
    match out {
        Output::Decision(b) => Reply::ok(b),
        Output::Count(n) => Reply::ok(n),
        Output::Answers(_) => unreachable!("answer streams are drained by their caller"),
    }
}

/// The lines of a buffer of rendered rows (each `\n`-terminated).
fn rendered_lines(bytes: &[u8]) -> std::str::Lines<'_> {
    std::str::from_utf8(bytes).expect("rendered rows are ASCII").lines()
}

/// A `BATCH` item line: `DECIDE|COUNT|ANSWERS <query-text>`.
fn parse_batch_item(line: &str) -> BatchItem {
    let (verb, src) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim_start()),
        None => (line, ""),
    };
    let Some(task) = query_task(&verb.to_ascii_uppercase()) else {
        return BatchItem::Bad(Reply::err(
            ErrKind::Usage,
            format!("batch items are DECIDE|COUNT|ANSWERS <query>, got `{verb}`"),
        ));
    };
    if src.is_empty() {
        return BatchItem::Bad(Reply::err(ErrKind::Usage, "batch item needs a query"));
    }
    match parse_query(src) {
        Ok(q) => BatchItem::Task(task, q),
        Err(e) => BatchItem::Bad(Reply::err(ErrKind::Parse, e)),
    }
}

/// A parse error as a reply: the `ERR parse` terminal plus the source
/// snippet (offending line + caret) as data lines.
fn parse_error_reply(src: &str, e: &ParseError) -> Reply {
    let data = match e.context(src) {
        Some((line, caret)) => vec![line, caret],
        None => Vec::new(),
    };
    Reply::err_with(ErrKind::Parse, data, e)
}

/// Handle to a running server: the bound address, the shared state, and
/// the acceptor/worker threads. Dropping (or [`Server::shutdown`]) stops
/// accepting and joins the pool once in-flight connections close.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving on `addr` (use port 0 for an ephemeral
    /// port; read it back from [`Server::local_addr`]) with a pool of
    /// `workers` reusable connection-handling threads.
    ///
    /// Connections beyond the pool size are not queued behind
    /// long-lived sessions: when every pooled worker is occupied, the
    /// acceptor serves the new connection on a detached overflow
    /// thread, so `workers` idle clients can never starve the next one.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Server> {
        Server::bind_with_state(addr, workers, Arc::new(ServerState::new()))
    }

    /// [`Server::bind`] over pre-built state — the persistent-mode
    /// entry point: recover tenants first ([`ServerState::recover`]),
    /// then take traffic.
    pub fn bind_with_state(
        addr: impl ToSocketAddrs,
        workers: usize,
        state: Arc<ServerState>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        // connections handed to the pool but not yet finished: queued
        // (sent, not received) plus in service. The acceptor routes
        // around the pool whenever this reaches the pool size.
        let occupied = Arc::new(AtomicUsize::new(0));

        let workers = workers.max(1);
        // pool-saturation gauges: `workers.busy` mirrors `occupied`
        // (approximate under races — it is observability, not control)
        let server_scope = state.metrics().server_scope();
        server_scope.gauge("workers.pool").set(workers as u64);
        let busy = server_scope.gauge("workers.busy");
        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let occupied = Arc::clone(&occupied);
            let busy = Arc::clone(&busy);
            let handle = std::thread::Builder::new()
                .name(format!("cqd-worker-{i}"))
                .spawn(move || loop {
                    // take the next connection, then release the
                    // receiver lock before serving it
                    let next = {
                        let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                        guard.recv()
                    };
                    match next {
                        Ok(stream) => {
                            serve_connection(stream, Arc::clone(&state), &stop);
                            let prev = occupied.fetch_sub(1, Ordering::SeqCst);
                            busy.set(prev.saturating_sub(1) as u64);
                        }
                        Err(_) => break, // acceptor gone: drain and exit
                    }
                })
                .expect("spawn worker thread");
            pool.push(handle);
        }

        // detached overflow threads are counted and capped: beyond
        // `workers * OVERFLOW_PER_WORKER` of them, new connections are
        // shed with a best-effort `ERR busy` instead of an unbounded
        // thread-per-connection pile-up
        let overflow = Arc::new(AtomicUsize::new(0));
        let overflow_cap = workers * OVERFLOW_PER_WORKER;
        let overflow_gauge = server_scope.gauge("workers.overflow");
        let shed = server_scope.counter("connections.shed");

        let acceptor = {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("cqd-acceptor".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // claim a pool slot; the count is conservative
                        // (decremented only when a session ends), so a
                        // race at worst spawns one extra thread
                        let prev = occupied.fetch_add(1, Ordering::SeqCst);
                        busy.set((prev + 1).min(workers) as u64);
                        if prev < workers {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        } else {
                            let prev = occupied.fetch_sub(1, Ordering::SeqCst);
                            busy.set(prev.saturating_sub(1) as u64);
                            let prev_overflow = overflow.fetch_add(1, Ordering::SeqCst);
                            if prev_overflow >= overflow_cap {
                                overflow.fetch_sub(1, Ordering::SeqCst);
                                shed.inc();
                                shed_connection(stream);
                                continue;
                            }
                            overflow_gauge.set((prev_overflow + 1) as u64);
                            let state = Arc::clone(&state);
                            let stop = Arc::clone(&stop);
                            let counter = Arc::clone(&overflow);
                            let gauge = Arc::clone(&overflow_gauge);
                            let spawned = std::thread::Builder::new()
                                .name("cqd-overflow".to_string())
                                .spawn(move || {
                                    serve_connection(stream, state, &stop);
                                    let prev = counter.fetch_sub(1, Ordering::SeqCst);
                                    gauge.set(prev.saturating_sub(1) as u64);
                                });
                            if spawned.is_err() {
                                // out of threads: drop the connection
                                // (the client sees EOF) rather than
                                // queuing it behind the full pool; the
                                // unrun closure is dropped, so undo its
                                // slot here
                                let prev = overflow.fetch_sub(1, Ordering::SeqCst);
                                overflow_gauge.set(prev.saturating_sub(1) as u64);
                                shed.inc();
                                continue;
                            }
                        }
                    }
                    // tx drops here: idle workers see the closed channel
                })
                .expect("spawn acceptor thread")
        };

        Ok(Server { addr, state, stop, acceptor: Some(acceptor), workers: pool })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared tenant registry (for in-process inspection).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Block on the acceptor thread — `cqd`'s forever-run mode.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, signal every session's read
    /// loop, and join the pool. In-flight commands finish their reply;
    /// idle connections are closed at the next read tick (≤ 200 ms), so
    /// shutdown never blocks on a client that stays silent. (Overflow
    /// threads are detached and observe the same stop signal.)
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a no-op connection
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How often a blocked connection read wakes up to check the server's
/// stop flag (bounds shutdown latency with idle clients connected).
const READ_TICK: std::time::Duration = std::time::Duration::from_millis(200);

/// Cap on detached overflow threads, as a multiple of the pool size:
/// a server with `w` workers serves at most `w * (1 + this)` live
/// connections before shedding new ones with `ERR busy`.
const OVERFLOW_PER_WORKER: usize = 8;

/// Best-effort saturation reply: tell the client why before closing.
/// The write may fail (the client may already be gone) — the stream is
/// dropped either way.
fn shed_connection(stream: TcpStream) {
    let mut stream = stream;
    let _ = Reply::err(
        ErrKind::Busy,
        "server saturated (worker pool and overflow slots all busy); retry later",
    )
    .write_to(&mut stream);
}

/// Is the client gone? A nonblocking one-byte peek distinguishes EOF or
/// reset (gone) from "no request bytes yet" (alive, just waiting). The
/// session and its reader run on one thread, so briefly flipping the
/// shared socket nonblocking cannot race an in-progress blocking read.
fn connection_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut byte = [0u8; 1];
    let gone = match stream.peek(&mut byte) {
        Ok(0) => true, // orderly shutdown: EOF
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Serve one connection to completion: read lines, feed the session,
/// write framed replies. IO errors or EOF end the session quietly; the
/// `stop` flag ends it at the next read tick, so idle clients can
/// never block [`Server::shutdown`].
fn serve_connection(stream: TcpStream, state: Arc<ServerState>, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let Ok(read_half) = stream.try_clone() else { return };
    let probe_half = stream.try_clone();
    let scope = state.metrics().server_scope();
    scope.counter("connections.total").inc();
    let open_connections = scope.gauge("connections.open");
    open_connections.add(1);
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut session = Session::new(state);
    if let Ok(probe) = probe_half {
        // long evaluations poll this: a client that hung up mid-query
        // gets its work cancelled instead of running to completion
        session.set_cancel_probe(move || connection_gone(&probe));
    }
    let mut buf = Vec::new();
    'sessions: loop {
        buf.clear();
        // accumulate one line across read-timeout ticks: a timeout
        // leaves any partial bytes in `buf` and lets us poll `stop`
        loop {
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break 'sessions, // EOF
                Ok(_) if buf.last() == Some(&b'\n') => break,
                Ok(_) => break, // EOF mid-line: serve the partial line
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        break 'sessions;
                    }
                }
                Err(_) => break 'sessions, // broken connection
            }
        }
        while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
            buf.pop();
        }
        let wrote = match session.handle_action(&buf) {
            Some(Action::Reply(reply)) => {
                reply.write_to(&mut writer).is_ok() && writer.flush().is_ok()
            }
            // streamed ANSWERS: rows go out in bounded chunks as the
            // stream is pulled; a slow client backpressures here
            Some(Action::Stream(flow)) => session.drain_flow(*flow, &mut writer).is_ok(),
            None => true,
        };
        if !wrote {
            break;
        }
        if session.finished() {
            break;
        }
    }
    open_connections.sub(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(Arc::new(ServerState::new()))
    }

    /// Drive a full scripted session, returning each line's reply.
    fn drive(s: &mut Session, lines: &[&str]) -> Vec<Option<Reply>> {
        lines.iter().map(|l| s.handle_line(l)).collect()
    }

    #[test]
    fn create_use_insert_query() {
        let mut s = session();
        assert_eq!(s.handle_line("PING").unwrap().terminal, "OK pong");
        assert!(s.handle_line("CREATE DB t").unwrap().is_ok());
        assert!(s.handle_line("USE t").unwrap().is_ok());
        assert!(s.handle_line("INSERT R(1, 10)").unwrap().is_ok());
        assert!(s.handle_line("INSERT R(2, 10)").unwrap().is_ok());
        assert!(s.handle_line("INSERT S(10, 7)").unwrap().is_ok());
        let r = s.handle_line("COUNT q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!(r.terminal, "OK 2");
        let r = s.handle_line("ANSWERS q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!(r.data, vec!["1 7", "2 7"]);
        assert_eq!(r.terminal, "OK 2 rows");
        let r = s.handle_line("DECIDE q() :- R(x, y), S(y, z)").unwrap();
        assert_eq!(r.terminal, "OK true");
    }

    #[test]
    fn errors_are_structured_not_fatal() {
        let mut s = session();
        // before USE
        let r = s.handle_line("COUNT q(x) :- R(x)").unwrap();
        assert!(r.terminal.starts_with("ERR no-db:"), "{}", r.terminal);
        assert!(s
            .handle_line("USE nope")
            .unwrap()
            .terminal
            .starts_with("ERR no-such-db"));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        // parse error carries the caret snippet as data lines
        let r = s.handle_line("COUNT q(x) :- R(x) ; S(x)").unwrap();
        assert!(r.terminal.starts_with("ERR parse:"), "{}", r.terminal);
        assert_eq!(r.data.len(), 2, "snippet line + caret line: {:?}", r.data);
        assert!(r.data[0].contains("; S(x)"));
        assert!(r.data[1].contains('^'));
        // semantic error
        let r = s.handle_line("COUNT q(w) :- R(x)").unwrap();
        assert!(r.terminal.starts_with("ERR parse:"), "{}", r.terminal);
        // eval error (missing relation)
        let r = s.handle_line("COUNT q(x) :- Missing(x)").unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "{}", r.terminal);
        // the session still works
        assert_eq!(s.handle_line("PING").unwrap().terminal, "OK pong");
        assert!(!s.finished());
    }

    #[test]
    fn load_block_bulk_loads() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let replies =
            drive(&mut s, &["LOAD Edge 2", "1 2", "2 3", "1, 2", "", "3 1", "END"]);
        assert_eq!(replies[0].as_ref().unwrap().terminal, "OK loading; rows until END");
        for r in &replies[1..6] {
            assert!(r.is_none(), "rows are consumed silently");
        }
        let done = replies[6].as_ref().unwrap();
        assert_eq!(done.terminal, "OK loaded 4 rows into Edge (3 total)"); // dedup
                                                                           // arity mismatch in a row: reported at END, nothing committed
        let replies = drive(&mut s, &["LOAD Edge 2", "7 8 9", "END"]);
        let done = replies[2].as_ref().unwrap();
        assert!(done.terminal.starts_with("ERR arity-mismatch"), "{}", done.terminal);
        let r = s.handle_line("COUNT q(x, y) :- Edge(x, y)").unwrap();
        assert_eq!(r.terminal, "OK 3");
        // LOAD against an existing relation with the wrong arity fails fast
        let r = s.handle_line("LOAD Edge 3").unwrap();
        assert!(r.terminal.starts_with("ERR arity-mismatch"), "{}", r.terminal);
        // bad value rows
        let replies = drive(&mut s, &["LOAD Edge 2", "1 x", "END"]);
        assert!(replies[2].as_ref().unwrap().terminal.starts_with("ERR bad-value"));
    }

    #[test]
    fn count_overflow_is_an_eval_error_and_the_session_keeps_serving() {
        // eight 256-row relations sharing one hub value: 256^8 = 2^64
        // answers, one more than a u64 count can report
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let rows: Vec<String> = (0..256).map(|a| format!("{a} 0")).collect();
        for i in 1..=8 {
            s.handle_line(&format!("LOAD R{i} 2"));
            for row in &rows {
                assert!(s.handle_line(row).is_none());
            }
            let done = s.handle_line("END").unwrap();
            assert!(done.is_ok(), "{}", done.terminal);
        }
        let body: Vec<String> = (1..=8).map(|i| format!("R{i}(x{i}, z)")).collect();
        let head: Vec<String> = (1..=8).map(|i| format!("x{i}")).collect();
        let star = format!("q({}, z) :- {}", head.join(", "), body.join(", "));
        let r = s.handle_line(&format!("COUNT {star}")).unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "{}", r.terminal);
        assert!(r.terminal.contains("exceeds u64"), "{}", r.terminal);
        // ranked access over the same answers has no u64 positions either
        let r = s.handle_line(&format!("CURSOR ACCESS {star}")).unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "{}", r.terminal);
        // one spoke fewer fits, and the session is as it was
        let r = s.handle_line("COUNT q(a, b, z) :- R1(a, z), R2(b, z)").unwrap();
        assert_eq!(r.terminal, "OK 65536");
    }

    #[test]
    fn batch_block_reports_per_item() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD R 2", "1 10", "2 10", "END", "LOAD S 2", "10 7", "END"]);
        let replies = drive(
            &mut s,
            &[
                "BATCH",
                "COUNT q(x, z) :- R(x, y), S(y, z)",
                "DECIDE q() :- R(x, y), S(y, z)",
                "ANSWERS q(x, z) :- R(x, y), S(y, z)",
                "COUNT q(x) :- Missing(x)",
                "FROB q(x) :- R(x, y)",
                "COUNT q(x :- R(x, y)",
                "END",
            ],
        );
        let done = replies.last().unwrap().as_ref().unwrap();
        assert_eq!(done.terminal, "OK batch of 6 items");
        assert_eq!(done.data[0], "0 OK 2");
        assert_eq!(done.data[1], "1 OK true");
        assert_eq!(done.data[2], "2 OK 2 rows");
        assert!(done.data[3].starts_with("3 ERR eval:"), "{}", done.data[3]);
        assert!(done.data[4].starts_with("4 ERR usage:"), "{}", done.data[4]);
        assert!(done.data[5].starts_with("5 ERR parse:"), "{}", done.data[5]);
    }

    #[test]
    fn noop_mutations_keep_the_warm_catalog() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("COUNT q(x, y) :- R(x, y)"); // warm the pinned catalog
        let t = state.tenant("t").unwrap();
        let warm = t.read(|_, cat| cat.snapshot().misses);
        assert!(warm > 0, "the count must have built into the catalog");
        // duplicate INSERT: honest reply, no generation bump, catalog kept
        let r = s.handle_line("INSERT R(1, 2)").unwrap();
        assert_eq!(r.terminal, "OK duplicate ignored in R (1 total)");
        assert_eq!(t.read(|_, cat| cat.snapshot().misses), warm, "catalog survives");
        // all-duplicate LOAD: also a no-op
        let r = drive(&mut s, &["LOAD R 2", "1 2", "END"]);
        assert_eq!(r[2].as_ref().unwrap().terminal, "OK loaded 1 rows into R (1 total)");
        assert_eq!(t.read(|_, cat| cat.snapshot().misses), warm, "catalog survives");
        // a real insert still invalidates (fresh pinned catalog)
        s.handle_line("INSERT R(9, 9)");
        assert_eq!(t.read(|_, cat| cat.snapshot().misses), 0, "fresh after mutation");
        assert_eq!(s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 2");
    }

    #[test]
    fn batch_feeds_the_tenant_pinned_catalog() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD R 2", "1 10", "2 10", "END", "LOAD S 2", "10 7", "END"]);
        let tenant = state.tenant("t").unwrap();
        let misses_before = tenant.read(|_, cat| cat.snapshot().misses);
        let batch = ["BATCH", "ANSWERS q(x, z) :- R(x, y), S(y, z)", "END"];
        drive(&mut s, &batch);
        let misses_after_first = tenant.read(|_, cat| cat.snapshot().misses);
        assert!(
            misses_after_first > misses_before,
            "the batch must build into the tenant's pinned catalog"
        );
        // a repeat of the same batch is all-warm on the pinned catalog
        drive(&mut s, &batch);
        let misses_after_repeat = tenant.read(|_, cat| cat.snapshot().misses);
        assert_eq!(misses_after_repeat, misses_after_first, "second batch is warm");
    }

    #[test]
    fn explain_and_stats_render() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD R1 2", "1 2", "END", "LOAD R2 2", "2 3", "END"]);
        let r = s.handle_line("EXPLAIN COUNT q(x, z) :- R1(x, y), R2(y, z)").unwrap();
        assert!(r.is_ok());
        assert_eq!(r.terminal, "OK");
        let text = r.data.join("\n");
        assert!(text.contains("PLAN for"), "{text}");
        assert!(text.contains("task:"), "{text}");
        // EXPLAIN echoes the canonical query text (Display round-trip)
        assert!(text.contains("q(x, z) :- R1(x, y), R2(y, z)"), "{text}");
        let r = s.handle_line("EXPLAIN ACCESS q(x, y) :- R1(x, y)").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        let r = s.handle_line("STATS").unwrap();
        assert_eq!(r.data[0], "tenants: 1");
        assert_eq!(r.data[1], "using: t");
        assert_eq!(r.data[2], "db t: 2 relations, 2 tuples");
        assert!(r.data[3].starts_with("plan-cache:"), "{}", r.data[3]);
        assert_eq!(r.terminal, "OK");
    }

    #[test]
    fn boolean_answers_render_the_nullary_row() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        let r = s.handle_line("ANSWERS q() :- R(x, y)").unwrap();
        assert_eq!(r.data, vec!["()"]); // {()}: the Boolean "yes" relation
        assert_eq!(r.terminal, "OK 1 rows");
        let r = s.handle_line("ANSWERS q() :- R(x, x)").unwrap();
        assert_eq!(r.data, Vec::<String>::new()); // {}: the Boolean "no"
        assert_eq!(r.terminal, "OK 0 rows");
        // nullary INSERT is still accepted at the data layer
        let r = s.handle_line("INSERT T()").unwrap();
        assert_eq!(r.terminal, "OK inserted 1 row into T (1 total)");
    }

    #[test]
    fn drop_relation_is_tenant_scoped() {
        let mut s = session();
        s.handle_line("CREATE DB a");
        s.handle_line("CREATE DB b");
        s.handle_line("USE a");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("USE b");
        s.handle_line("INSERT R(5, 6)");
        // dropping b's R leaves a's R untouched
        let r = s.handle_line("DROP R").unwrap();
        assert_eq!(r.terminal, "OK dropped R (1 rows)");
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "{}", r.terminal);
        let r = s.handle_line("DROP R").unwrap();
        assert_eq!(r.terminal, "ERR no-such-relation: no relation named `R`");
        s.handle_line("USE a");
        assert_eq!(s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 1");
        // a dropped relation's name is immediately reusable at any arity
        s.handle_line("USE b");
        assert!(s.handle_line("INSERT R(7)").unwrap().is_ok());
        assert_eq!(s.handle_line("COUNT q(x) :- R(x)").unwrap().terminal, "OK 1");
    }

    #[test]
    fn drop_relation_invalidates_the_pinned_catalog() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("COUNT q(x, y) :- R(x, y)"); // warm the pinned catalog
        let t = state.tenant("t").unwrap();
        assert!(t.read(|_, cat| cat.snapshot().misses) > 0);
        s.handle_line("DROP R");
        assert_eq!(t.read(|_, cat| cat.snapshot().misses), 0, "fresh after drop");
    }

    #[test]
    fn drop_db_isolates_tenants_and_flags_live_sessions() {
        let state = Arc::new(ServerState::new());
        let mut s1 = Session::new(Arc::clone(&state));
        let mut s2 = Session::new(Arc::clone(&state));
        s1.handle_line("CREATE DB a");
        s1.handle_line("CREATE DB b");
        s1.handle_line("USE a");
        s1.handle_line("INSERT R(1, 2)");
        s2.handle_line("USE a");
        // session 2 drops the database session 1 is using
        let r = s2.handle_line("DROP DB a").unwrap();
        assert_eq!(r.terminal, "OK dropped database a");
        // ...which also clears session 2's own selection
        let r = s2.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR no-db:"), "{}", r.terminal);
        // session 1's next command gets a structured refusal, not data
        let r = s1.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, "ERR no-such-db: database `a` was dropped; USE another");
        // tenant b is untouched; a's name is reusable as a fresh db
        s1.handle_line("USE b");
        assert!(s1.handle_line("INSERT S(1)").unwrap().is_ok());
        assert!(s1.handle_line("CREATE DB a").unwrap().is_ok());
        s1.handle_line("USE a");
        let r = s1.handle_line("ANSWERS q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "fresh tenant: {}", r.terminal);
        let r = s1.handle_line("DROP DB missing").unwrap();
        assert_eq!(r.terminal, "ERR no-such-db: no database named `missing`");
    }

    #[test]
    fn save_requires_a_persistent_server() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let r = s.handle_line("SAVE").unwrap();
        assert!(r.terminal.starts_with("ERR storage:"), "{}", r.terminal);
        // and a tenant, before that
        let mut s = session();
        assert!(s.handle_line("SAVE").unwrap().terminal.starts_with("ERR no-db:"));
    }

    #[test]
    fn stats_detail_reports_schema_generation_and_storage() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD Edge 2", "1 2", "2 3", "END"]);
        s.handle_line("INSERT Name(7)");
        let r = s.handle_line("STATS t").unwrap();
        assert!(r.is_ok());
        assert!(
            r.data[0].starts_with("db t: 2 relations, 3 tuples, generation "),
            "{}",
            r.data[0]
        );
        assert_eq!(r.data[1], "rel Edge: arity 2, 2 rows");
        assert_eq!(r.data[2], "rel Name: arity 1, 1 rows");
        assert!(r.data[3].starts_with("catalog: "), "{}", r.data[3]);
        assert_eq!(r.data[4], "traffic: n/a (need 2 metric snapshots)");
        assert_eq!(r.data[5], "storage: none (in-memory)");
        // generation moves on mutation, holds on reads
        let before = r.data[0].clone();
        s.handle_line("COUNT q(x, y) :- Edge(x, y)");
        assert_eq!(s.handle_line("STATS t").unwrap().data[0], before);
        s.handle_line("INSERT Name(8)");
        assert_ne!(s.handle_line("STATS t").unwrap().data[0], before);
        let r = s.handle_line("STATS nope").unwrap();
        assert_eq!(r.terminal, "ERR no-such-db: no database named `nope`");
    }

    #[test]
    fn metrics_report_per_tenant_commands_and_errors() {
        let mut s = session();
        s.handle_line("PING");
        s.handle_line("USE nope"); // counted: errors.no-such-db
        s.handle_line("CREATE DB m");
        s.handle_line("USE m");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        let r = s.handle_line("METRICS").unwrap();
        assert_eq!(r.terminal, "OK metrics");
        assert!(r.data.iter().any(|l| l == "db.m cmd.count.calls=2"), "{:?}", r.data);
        assert!(r.data.iter().any(|l| l == "db.m cmd.insert.calls=1"), "{:?}", r.data);
        assert!(
            r.data.iter().any(|l| l.starts_with("db.m cmd.count.latency n=2 p50=")),
            "{:?}",
            r.data
        );
        assert!(
            r.data.iter().any(|l| l.starts_with("db.m op.") && l.ends_with(".calls=2")),
            "per-op counters: {:?}",
            r.data
        );
        assert!(r.data.iter().any(|l| l == "server cmd.ping.calls=1"), "{:?}", r.data);
        assert!(r.data.iter().any(|l| l == "server errors.no-such-db=1"), "{:?}", r.data);
        assert!(r.data.iter().any(|l| l == "server plan-cache.uncacheable=0"));
        assert!(
            r.data.iter().any(|l| l.starts_with("db.m catalog.hits=")),
            "{:?}",
            r.data
        );
        // filtered to one tenant's scope
        let r = s.handle_line("METRICS m").unwrap();
        assert_eq!(r.terminal, "OK metrics for m");
        assert!(!r.data.is_empty());
        assert!(r.data.iter().all(|l| l.starts_with("db.m ")), "{:?}", r.data);
        let r = s.handle_line("METRICS nope").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
        // a dropped tenant's scope is forgotten
        s.handle_line("DROP DB m");
        let r = s.handle_line("METRICS").unwrap();
        assert!(!r.data.iter().any(|l| l.starts_with("db.m ")), "{:?}", r.data);
    }

    #[test]
    fn budget_rejects_over_cost_queries_with_a_citation() {
        let mut s = session();
        s.handle_line("CREATE DB b");
        s.handle_line("USE b");
        drive(
            &mut s,
            &[
                "LOAD R1 2",
                "1 2",
                "END", //
                "LOAD R2 2",
                "2 3",
                "END", //
                "LOAD R3 2",
                "3 1",
                "END",
            ],
        );
        let tri = "DECIDE q() :- R1(x, y), R2(y, z), R3(z, x)";
        assert_eq!(s.handle_line(tri).unwrap().terminal, "OK true");
        s.handle_line("SET BUDGET b MAX-EXPONENT 1.2");
        let r = s.handle_line(tri).unwrap();
        assert!(r.terminal.starts_with("ERR budget:"), "{}", r.terminal);
        assert!(r.terminal.contains("MAX-EXPONENT 1.20"), "{}", r.terminal);
        assert!(r.terminal.contains("Triangle Hypothesis"), "{}", r.terminal);
        // under-budget queries still run
        assert_eq!(s.handle_line("DECIDE q() :- R1(x, y)").unwrap().terminal, "OK true");
        // the rejection is a metric
        let m = s.handle_line("METRICS b").unwrap();
        assert!(m.data.iter().any(|l| l == "db.b budget.rejections=1"), "{:?}", m.data);
        // clearing the budget re-admits the query
        s.handle_line("SET BUDGET b NONE");
        assert_eq!(s.handle_line(tri).unwrap().terminal, "OK true");
        // MAX-ROWS caps the estimated operation count
        s.handle_line("SET BUDGET b MAX-ROWS 1");
        let r = s.handle_line(tri).unwrap();
        assert!(r.terminal.starts_with("ERR budget:"), "{}", r.terminal);
        assert!(r.terminal.contains("MAX-ROWS 1"), "{}", r.terminal);
        // budget commands on unknown tenants are structured errors
        let r = s.handle_line("SET BUDGET nope MAX-ROWS 1").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    }

    #[test]
    fn batch_items_are_admission_checked_individually() {
        let mut s = session();
        s.handle_line("CREATE DB b");
        s.handle_line("USE b");
        drive(
            &mut s,
            &[
                "LOAD R1 2",
                "1 2",
                "END", //
                "LOAD R2 2",
                "2 3",
                "END", //
                "LOAD R3 2",
                "3 1",
                "END",
            ],
        );
        s.handle_line("SET BUDGET b MAX-EXPONENT 1.2");
        s.handle_line("BATCH");
        s.handle_line("DECIDE q() :- R1(x, y)");
        s.handle_line("DECIDE q() :- R1(x, y), R2(y, z), R3(z, x)");
        let r = s.handle_line("END").unwrap();
        assert!(r.is_ok());
        assert_eq!(r.data[0], "0 OK true");
        assert!(r.data[1].starts_with("1 ERR budget:"), "{}", r.data[1]);
        assert!(r.data[1].contains("Triangle Hypothesis"), "{}", r.data[1]);
    }

    #[test]
    fn slow_query_log_records_over_threshold_queries() {
        let mut s = session();
        s.state.metrics().slowlog().set_threshold(std::time::Duration::ZERO);
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        let entries = s.state.metrics().slowlog().recent();
        assert_eq!(entries.len(), 1, "one query over the (zero) threshold");
        assert_eq!(entries[0].db, "t");
        assert_eq!(entries[0].query, "q(x, y) :- R(x, y)");
        assert!(!entries[0].plan_op.is_empty());
        let line = entries[0].render();
        assert!(line.starts_with("slow-query db=t "), "{line}");
    }

    #[test]
    fn cursor_fetch_pages_through_the_answer_set() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(
            &mut s,
            &[
                "LOAD R 2", "1 10", "2 10", "3 11", "END", "LOAD S 2", "10 7", "11 8",
                "END",
            ],
        );
        let full = s.handle_line("ANSWERS q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!(full.terminal, "OK 3 rows");
        let r = s.handle_line("CURSOR ANSWERS q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!(r.terminal, "OK cursor 0");
        assert!(r.data.is_empty(), "opening a cursor sends no rows");
        // paged FETCHes concatenate to exactly the one-shot ANSWERS
        let p1 = s.handle_line("FETCH 0 2").unwrap();
        assert_eq!(p1.terminal, "OK 2 rows");
        let p2 = s.handle_line("FETCH 0 100").unwrap();
        assert_eq!(p2.terminal, "OK 1 rows eof");
        let mut paged = p1.data.clone();
        paged.extend(p2.data.clone());
        assert_eq!(paged, full.data, "FETCH pages byte-match the streamed ANSWERS");
        // exhausted cursors keep answering eof until closed
        assert_eq!(s.handle_line("FETCH 0 5").unwrap().terminal, "OK 0 rows eof");
        let m = s.handle_line("METRICS t").unwrap();
        assert!(m.data.iter().any(|l| l == "db.t cursors.open=1"), "{:?}", m.data);
        assert!(
            m.data.iter().any(|l| l.starts_with("db.t answers.rows=")),
            "{:?}",
            m.data
        );
        assert!(
            m.data.iter().any(|l| l.starts_with("db.t answers.ttfr.latency ")),
            "time-to-first-row histogram: {:?}",
            m.data
        );
        assert_eq!(s.handle_line("CLOSE 0").unwrap().terminal, "OK closed cursor 0");
        let m = s.handle_line("METRICS t").unwrap();
        assert!(m.data.iter().any(|l| l == "db.t cursors.open=0"), "{:?}", m.data);
        // touching a closed (or never-opened) cursor is structured
        let r = s.handle_line("FETCH 0 1").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-cursor"), "{}", r.terminal);
        let r = s.handle_line("CLOSE 0").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-cursor"), "{}", r.terminal);
        let r = s.handle_line("SEEK 99 0").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-cursor"), "{}", r.terminal);
    }

    #[test]
    fn seek_is_o1_on_access_cursors_and_refused_on_enumeration() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(
            &mut s,
            &[
                "LOAD R1 2",
                "1 10",
                "2 10",
                "3 11",
                "END",
                "LOAD R2 2",
                "10 7",
                "11 8",
                "END",
            ],
        );
        // a direct-access cursor: SEEK jumps, the skipped prefix is
        // never enumerated (DirectAccessStream::seek moves a position
        // counter only — witnessed by the engine's accesses() test)
        let r = s.handle_line("CURSOR ACCESS q(x, y, z) :- R1(x, y), R2(y, z)").unwrap();
        assert_eq!(r.terminal, "OK cursor 0");
        let full = s.handle_line("FETCH 0 100").unwrap();
        assert_eq!(full.terminal, "OK 3 rows eof");
        assert_eq!(s.handle_line("SEEK 0 2").unwrap().terminal, "OK cursor 0 at 2");
        let r = s.handle_line("FETCH 0 10").unwrap();
        assert_eq!(r.data, vec![full.data[2].clone()], "SEEK lands on the k-th answer");
        // seek back to the start: cursors are rewindable
        s.handle_line("SEEK 0 0");
        assert_eq!(s.handle_line("FETCH 0 100").unwrap().data, full.data);
        // a constant-delay enumeration cursor has no random access:
        // SEEK is a structural refusal citing the plan operator
        let r = s.handle_line("CURSOR ANSWERS q(x, y, z) :- R1(x, y), R2(y, z)").unwrap();
        assert_eq!(r.terminal, "OK cursor 1");
        let r = s.handle_line("SEEK 1 2").unwrap();
        assert!(r.terminal.starts_with("ERR unsupported:"), "{}", r.terminal);
        assert!(r.terminal.contains("constant-delay enumeration"), "{}", r.terminal);
        // the cursor survives the refused SEEK
        assert_eq!(s.handle_line("FETCH 1 100").unwrap().terminal, "OK 3 rows eof");
    }

    #[test]
    fn mutations_invalidate_open_cursors() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD R 2", "1 2", "3 4", "END"]);
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        // reads don't invalidate
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        assert!(s.handle_line("FETCH 0 1").unwrap().is_ok());
        // a mutation bumps the generation: the pinned snapshot is gone
        s.handle_line("INSERT R(9, 9)");
        let r = s.handle_line("FETCH 0 1").unwrap();
        assert!(r.terminal.starts_with("ERR stale-cursor:"), "{}", r.terminal);
        assert!(r.terminal.contains("re-open"), "{}", r.terminal);
        // the stale cursor was evicted, and the metrics say so
        let r = s.handle_line("FETCH 0 1").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-cursor"), "{}", r.terminal);
        let m = s.handle_line("METRICS t").unwrap();
        assert!(m.data.iter().any(|l| l == "db.t cursors.stale=1"), "{:?}", m.data);
        assert!(m.data.iter().any(|l| l == "db.t cursors.open=0"), "{:?}", m.data);
        // SEEK on a stale cursor is the same structured eviction
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        s.handle_line("INSERT R(8, 8)");
        let r = s.handle_line("SEEK 1 0").unwrap();
        assert!(r.terminal.starts_with("ERR stale-cursor:"), "{}", r.terminal);
        // dropping the tenant invalidates too
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        s.handle_line("DROP DB t");
        let r = s.handle_line("FETCH 2 1").unwrap();
        assert!(r.terminal.starts_with("ERR stale-cursor:"), "{}", r.terminal);
    }

    #[test]
    fn cursor_limit_is_enforced_per_session() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        for _ in 0..MAX_CURSORS_PER_SESSION {
            assert!(s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)").unwrap().is_ok());
        }
        let r = s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR cursor-limit:"), "{}", r.terminal);
        // closing one frees a slot
        assert!(s.handle_line("CLOSE 0").unwrap().is_ok());
        assert!(s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)").unwrap().is_ok());
    }

    #[test]
    fn open_cursors_do_not_pin_the_tenant_read_lock() {
        // an idle cursor holds only Arc'd artifacts: writers must be
        // able to mutate (and thereby invalidate) while it sits open —
        // if the cursor held the read lock this would deadlock
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD R 2", "1 2", "3 4", "END"]);
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        assert!(s.handle_line("FETCH 0 1").unwrap().is_ok(), "cursor mid-stream");
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let t = state.tenant("t").unwrap();
                let ((), wal) = t.mutate_wal(|db| {
                    let rel = db.get_mut("R").expect("loaded above");
                    rel.insert_row(&[7, 7]);
                    ((), None)
                });
                wal.expect("no WAL in memory mode");
                done.store(true, Ordering::SeqCst);
            });
        });
        assert!(done.load(Ordering::SeqCst), "writer finished with a cursor open");
    }

    /// A writer that records the size of every `write` it sees — the
    /// observable chunking of a drain, and with it the ceiling on
    /// per-connection answer buffering.
    #[derive(Default)]
    struct ChunkMeter {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for ChunkMeter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The flow a successful `ANSWERS` hands the transport.
    fn stream_of(s: &mut Session, line: &str) -> AnswerFlow {
        match s.handle_action(line.as_bytes()) {
            Some(Action::Stream(flow)) => *flow,
            _ => panic!("a successful ANSWERS must stream, not materialize a reply"),
        }
    }

    const UNARY: &str = "ANSWERS q(x) :- R(x)";
    /// Wire bytes of one [`UNARY`] row: `* ` + six digits + newline.
    const UNARY_ROW: usize = 9;

    /// A session on tenant `t` whose `R(x)` holds `n` six-digit values,
    /// so [`UNARY`] streams `n` lines of exactly [`UNARY_ROW`] bytes.
    fn session_with_unary(n: u64) -> Session {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let rel = Relation::from_rows(1, (0..n).map(|i| vec![100_000 + i]));
        s.state.tenant("t").unwrap().mutate(|db| {
            db.insert("R", rel);
        });
        s
    }

    /// The chunk sizes the ramp should cut `rows` equal-width rows into.
    fn ramp_model(rows: usize, row_bytes: usize) -> Vec<usize> {
        let mut chunks = Vec::new();
        let (mut left, mut budget) = (rows, STREAM_FIRST_CHUNK_BYTES);
        while left > 0 {
            let take = budget.div_ceil(row_bytes).min(left);
            chunks.push(take * row_bytes);
            left -= take;
            budget = (budget * 2).min(STREAM_MAX_CHUNK_BYTES);
        }
        chunks
    }

    #[test]
    fn drained_bytes_equal_collected_lines_across_every_ramp_boundary() {
        // result sizes one row under, at and over each point where the
        // drain flushes, through the ramp and two chunks at the ceiling
        let mut sizes = vec![0usize, 1, 160_000];
        let (mut boundary, mut budget) = (0, STREAM_FIRST_CHUNK_BYTES);
        for _ in 0..7 {
            boundary += budget.div_ceil(UNARY_ROW);
            sizes.extend([boundary - 1, boundary, boundary + 1]);
            budget = (budget * 2).min(STREAM_MAX_CHUNK_BYTES);
        }
        assert_eq!(budget, STREAM_MAX_CHUNK_BYTES, "the sizes reach the ceiling");
        for rows in sizes {
            let mut s = session_with_unary(rows as u64);
            let collected = s.handle_line(UNARY).unwrap();
            assert_eq!(collected.terminal, format!("OK {rows} rows"));
            let mut framed = Vec::new();
            collected.write_to(&mut framed).unwrap();
            let mut meter = ChunkMeter::default();
            let flow = stream_of(&mut s, UNARY);
            s.drain_flow(flow, &mut meter).unwrap();
            assert!(meter.bytes == framed, "{rows} rows: wire bytes differ");
            // the data goes out in exactly the ramp's chunks; the
            // remaining writes are the terminal line
            let model = ramp_model(rows, UNARY_ROW);
            assert_eq!(meter.writes[..model.len()], model, "{rows} rows");
            let terminal: usize = meter.writes[model.len()..].iter().sum();
            assert_eq!(terminal, collected.terminal.len() + 1);
        }
    }

    #[test]
    fn a_stream_that_fails_midway_ships_its_rows_then_the_err_terminal() {
        // a liveness probe that reports the client gone from its
        // `trip_at`-th call on; a clean warm run counts the calls a full
        // drain makes, and the last of those are the stream's own
        // stride-256 polls — so tripping 40 short of it is mid-drain
        let calls = Arc::new(AtomicUsize::new(0));
        let trip_at = Arc::new(AtomicUsize::new(usize::MAX));
        let mut s = session_with_unary(20_000);
        let (n, at) = (Arc::clone(&calls), Arc::clone(&trip_at));
        s.set_cancel_probe(move || {
            n.fetch_add(1, Ordering::SeqCst) >= at.load(Ordering::SeqCst)
        });
        assert!(s.handle_line(UNARY).unwrap().is_ok(), "warms the catalog");
        calls.store(0, Ordering::SeqCst);
        assert!(s.handle_line(UNARY).unwrap().is_ok());
        trip_at.store(calls.load(Ordering::SeqCst) - 40, Ordering::SeqCst);
        calls.store(0, Ordering::SeqCst);
        let collected = s.handle_line(UNARY).unwrap();
        let shipped = collected.data.len();
        assert!(0 < shipped && shipped < 20_000, "{shipped} rows before the trip");
        assert!(collected.terminal.starts_with("ERR timeout:"), "{}", collected.terminal);
        assert!(collected.terminal.contains("client disconnected"));
        // the same trip on the wire: the same partial rows, re-framed
        calls.store(0, Ordering::SeqCst);
        let mut meter = ChunkMeter::default();
        let flow = stream_of(&mut s, UNARY);
        s.drain_flow(flow, &mut meter).unwrap();
        let text = String::from_utf8(meter.bytes).unwrap();
        let (rows, terminal) = text.trim_end().rsplit_once('\n').unwrap();
        let rows: Vec<&str> =
            rows.lines().map(|l| l.strip_prefix(DATA_PREFIX).unwrap()).collect();
        assert_eq!(rows, collected.data);
        assert!(terminal.starts_with("ERR timeout:"), "{terminal}");
        let m = s.handle_line("METRICS t").unwrap();
        let has = |line: String| m.data.contains(&line);
        let served = 2 * (20_000 + shipped);
        assert!(has(format!("db.t answers.rows={served}")), "{:?}", m.data);
        assert!(has("db.t cancellations=2".to_string()), "{:?}", m.data);
    }

    #[test]
    fn streaming_buffers_at_most_one_chunk_for_huge_results() {
        // 400 x 400 free-connex join: 160_000 answers from 800 input
        // rows — the paper's point that answers can dwarf the data
        let mut s = session();
        s.handle_line("CREATE DB big");
        s.handle_line("USE big");
        s.handle_line("LOAD R 2");
        for i in 0..400u64 {
            s.handle_line(&format!("{i} 0"));
        }
        s.handle_line("END");
        s.handle_line("LOAD S 2");
        for j in 0..400u64 {
            s.handle_line(&format!("0 {j}"));
        }
        s.handle_line("END");
        let flow = stream_of(&mut s, "ANSWERS q(x, z) :- R(x, y), S(y, z)");
        let mut meter = ChunkMeter::default();
        s.drain_flow(flow, &mut meter).unwrap();
        let text = std::str::from_utf8(&meter.bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (rows, terminal) = lines.split_at(lines.len() - 1);
        assert_eq!(rows.len(), 160_000, "every answer reaches the wire");
        assert!(rows.iter().all(|l| l.starts_with(DATA_PREFIX)));
        assert_eq!(terminal, ["OK 160000 rows"]);
        // peak per-connection buffering is one chunk, not the result: a
        // chunk is flushed by the row that fills its budget, and the
        // first is small so the first row does not wait for a full one
        let one_row = "* 399 399\n".len();
        assert!(
            meter.writes[0] <= STREAM_FIRST_CHUNK_BYTES + one_row,
            "first write was {} bytes",
            meter.writes[0]
        );
        let largest = *meter.writes.iter().max().unwrap();
        assert!(
            largest <= STREAM_MAX_CHUNK_BYTES + one_row,
            "largest single write was {largest} bytes"
        );
        assert!(
            meter.writes.len() >= meter.bytes.len() / STREAM_MAX_CHUNK_BYTES,
            "the result must go out chunk by chunk, got {} writes",
            meter.writes.len()
        );
    }

    /// A sink standing in for a client that hangs up: it accepts
    /// `left` bytes, then every write fails.
    struct HangsUpAfter {
        left: usize,
    }

    impl Write for HangsUpAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.left {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.left -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_client_that_hangs_up_mid_drain_stays_on_the_books() {
        let mut s = session_with_unary(160_000);
        s.state.metrics().set_profile_capacity(4);
        let flow = stream_of(&mut s, UNARY);
        // room for the first two chunks of the ramp, not the third
        let chunks = ramp_model(160_000, UNARY_ROW);
        let accepted = chunks[0] + chunks[1];
        let err = s.drain_flow(flow, &mut HangsUpAfter { left: accepted + 100 });
        assert_eq!(err.unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
        let m = s.handle_line("METRICS t").unwrap();
        for want in [
            format!("db.t answers.rows={}", accepted / UNARY_ROW),
            format!("db.t answers.bytes={accepted}"),
            "db.t cancellations=1".to_string(),
        ] {
            assert!(m.data.contains(&want), "no `{want}` in {:?}", m.data);
        }
        let p = s.handle_line("PROFILE t").unwrap();
        assert_eq!(p.terminal, "OK 1 traces", "the abandoned drain left its trace");
        assert!(
            p.data.iter().any(|l| l.starts_with("span ") && l.contains("name=stream.")),
            "{:?}",
            p.data
        );
    }

    #[test]
    fn fetch_pages_are_capped_whatever_the_client_asks_for() {
        let mut s = session_with_unary(160_000);
        let want = s.handle_line(UNARY).unwrap().data;
        assert!(s.handle_line("CURSOR ANSWERS q(x) :- R(x)").unwrap().is_ok());
        let page = s.handle_line(&format!("FETCH 0 {}", u64::MAX)).unwrap();
        assert_eq!(page.terminal, format!("OK {MAX_FETCH_ROWS} rows"), "capped, no eof");
        // paging on reaches the same rows, byte for byte
        let mut got = page.data;
        loop {
            let page = s.handle_line(&format!("FETCH 0 {}", u64::MAX)).unwrap();
            assert!(page.data.len() as u64 <= MAX_FETCH_ROWS);
            got.extend(page.data);
            if page.terminal.ends_with(" eof") {
                break;
            }
        }
        assert!(got == want, "paged rows differ from the one-shot drain");
    }

    #[test]
    fn quit_finishes_the_session() {
        let mut s = session();
        let r = s.handle_line("QUIT").unwrap();
        assert_eq!(r.terminal, "OK bye");
        assert!(s.finished());
    }

    #[test]
    fn tenants_are_isolated() {
        let mut s = session();
        s.handle_line("CREATE DB a");
        s.handle_line("CREATE DB b");
        s.handle_line("USE a");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("USE b");
        s.handle_line("INSERT R(5, 6)");
        let r = s.handle_line("ANSWERS q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.data, vec!["5 6"]);
        s.handle_line("USE a");
        let r = s.handle_line("ANSWERS q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.data, vec!["1 2"]);
    }

    fn load_triangle(s: &mut Session, db: &str) {
        s.handle_line(&format!("CREATE DB {db}"));
        s.handle_line(&format!("USE {db}"));
        drive(
            s,
            &[
                "LOAD R1 2",
                "1 2",
                "END", //
                "LOAD R2 2",
                "2 3",
                "END", //
                "LOAD R3 2",
                "3 1",
                "END",
            ],
        );
    }

    #[test]
    fn timeout_trips_err_timeout_with_citation() {
        let mut s = session();
        load_triangle(&mut s, "b");
        let tri = "DECIDE q() :- R1(x, y), R2(y, z), R3(z, x)";
        assert_eq!(s.handle_line(tri).unwrap().terminal, "OK true");
        // a zero deadline is already past when evaluation starts: the
        // very first cooperative check trips, deterministically
        assert!(s.handle_line("SET TIMEOUT b 0").unwrap().is_ok());
        let r = s.handle_line(tri).unwrap();
        assert!(r.terminal.starts_with("ERR timeout:"), "{}", r.terminal);
        assert!(r.terminal.contains("0 ms deadline"), "{}", r.terminal);
        assert!(r.terminal.contains("plan cost m^"), "{}", r.terminal);
        assert!(r.terminal.contains("Hypothesis"), "{}", r.terminal);
        // the session (and the tenant) keep serving
        assert_eq!(s.handle_line("PING").unwrap().terminal, "OK pong");
        let m = s.handle_line("METRICS b").unwrap();
        assert!(m.data.iter().any(|l| l == "db.b timeouts=1"), "{:?}", m.data);
        // clearing the timeout re-admits the query
        assert!(s.handle_line("SET TIMEOUT b NONE").unwrap().is_ok());
        assert_eq!(s.handle_line(tri).unwrap().terminal, "OK true");
        // other tenants are untouched by b's deadline
        load_triangle(&mut s, "c");
        s.handle_line("SET TIMEOUT b 0");
        s.handle_line("USE c");
        assert_eq!(s.handle_line(tri).unwrap().terminal, "OK true");
        // unknown tenants are structured errors
        let r = s.handle_line("SET TIMEOUT nope 5").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    }

    #[test]
    fn timeout_applies_to_batch_items() {
        let mut s = session();
        load_triangle(&mut s, "b");
        s.handle_line("SET TIMEOUT b 0");
        s.handle_line("BATCH");
        s.handle_line("DECIDE q() :- R1(x, y), R2(y, z), R3(z, x)");
        let r = s.handle_line("END").unwrap();
        assert!(r.is_ok());
        assert!(r.data[0].starts_with("0 ERR timeout:"), "{}", r.data[0]);
        assert!(r.data[0].contains("SET TIMEOUT deadline"), "{}", r.data[0]);
    }

    #[test]
    fn disconnect_probe_cancels_evaluation() {
        let mut s = session();
        s.set_cancel_probe(|| true); // the "client" is always gone
        load_triangle(&mut s, "b");
        let r = s.handle_line("DECIDE q() :- R1(x, y), R2(y, z), R3(z, x)").unwrap();
        assert!(r.terminal.starts_with("ERR timeout:"), "{}", r.terminal);
        assert!(r.terminal.contains("client disconnected"), "{}", r.terminal);
        let m = s.handle_line("METRICS b").unwrap();
        assert!(m.data.iter().any(|l| l == "db.b cancellations=1"), "{:?}", m.data);
    }

    #[test]
    fn wal_failure_degrades_tenant_to_read_only_until_resume() {
        use cq_storage::{FaultPlan, FaultPoint, Store};
        let dir = std::env::temp_dir()
            .join(format!("cq_server_degrade_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open_dir_with_faults(
            &dir,
            FaultPlan::failing(FaultPoint::WalAppend, 2),
        )
        .unwrap();
        let (state, _) = ServerState::recover(store).unwrap();
        let mut s = Session::new(Arc::new(state));
        s.handle_line("CREATE DB d");
        s.handle_line("USE d");
        assert!(s.handle_line("INSERT R(1, 2)").unwrap().is_ok());
        // the second append is the injected failure: the mutation is in
        // memory but not in the log — the tenant flips to read-only
        let r = s.handle_line("INSERT R(2, 3)").unwrap();
        assert!(r.terminal.starts_with("ERR storage:"), "{}", r.terminal);
        assert!(r.terminal.contains("now read-only"), "{}", r.terminal);
        // further mutations fail fast, with the RESUME hint
        let r = s.handle_line("INSERT R(3, 4)").unwrap();
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        assert!(r.terminal.contains("RESUME d"), "{}", r.terminal);
        let r = s.handle_line("SET BUDGET d MAX-ROWS 1").unwrap();
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        let r = s.handle_line("SAVE").unwrap();
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        // reads keep serving everything that is in memory
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, "OK 2");
        // the state is observable
        let st = s.handle_line("STATS d").unwrap();
        assert!(st.data.iter().any(|l| l.contains("mode: read-only")), "{:?}", st.data);
        let m = s.handle_line("METRICS d").unwrap();
        assert!(m.data.iter().any(|l| l == "db.d degraded=1"), "{:?}", m.data);
        // RESUME checkpoints (capturing the in-memory truth, including
        // the unlogged insert) and restores read-write
        let r = s.handle_line("RESUME d").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(r.terminal.contains("read-write restored"), "{}", r.terminal);
        assert!(s.handle_line("INSERT R(3, 4)").unwrap().is_ok());
        let st = s.handle_line("STATS d").unwrap();
        assert!(!st.data.iter().any(|l| l.contains("read-only")), "{:?}", st.data);
        // a reboot from disk sees everything the checkpoint captured
        drop(s);
        let store = Store::open_dir(&dir).unwrap();
        let (state, _) = ServerState::recover(store).unwrap();
        let mut s = Session::new(Arc::new(state));
        s.handle_line("USE d");
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, "OK 3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_total_on_in_memory_servers() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        let r = s.handle_line("RESUME t").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(r.terminal.contains("in-memory"), "{}", r.terminal);
        let r = s.handle_line("RESUME nope").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    }

    /// Load the triangle and warm the catalog with one COUNT.
    fn warm_triangle(s: &mut Session) {
        drive(
            s,
            &[
                "CREATE DB t",
                "USE t",
                "INSERT R(1, 2)",
                "INSERT R(2, 3)",
                "INSERT S(2, 3)",
                "INSERT S(3, 1)",
                "INSERT T(3, 1)",
                "INSERT T(1, 2)",
                "COUNT q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
            ],
        );
    }

    #[test]
    fn explain_analyze_reports_measured_time_rows_and_spans() {
        let mut s = session();
        warm_triangle(&mut s);
        let r = s
            .handle_line("EXPLAIN ANALYZE COUNT q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
            .unwrap();
        assert_eq!(r.terminal, "OK analyzed", "{}", r.terminal);
        // the plan rendering comes first, then the measured section
        let analyze = r
            .data
            .iter()
            .position(|l| l.starts_with("analyze: total time="))
            .unwrap_or_else(|| panic!("no analyze line in {:?}", r.data));
        assert!(
            r.data[analyze].ends_with("rows=2"),
            "the loaded triangle has two homomorphisms: {}",
            r.data[analyze]
        );
        assert!(
            r.data[analyze + 1].starts_with("analyze: predicted m^"),
            "{}",
            r.data[analyze + 1]
        );
        assert!(
            r.data[analyze + 1].ends_with("observed 2 rows"),
            "{}",
            r.data[analyze + 1]
        );
        // per-operator spans: an execute root with catalog attrs and a
        // measured operator span with its row count
        let spans = &r.data[analyze + 2..];
        assert!(
            spans.iter().any(|l| l.trim_start().starts_with("execute time=")),
            "{spans:?}"
        );
        assert!(
            spans.iter().any(|l| {
                let t = l.trim_start();
                t.starts_with("op.") && t.contains(" time=") && t.contains("rows=2")
            }),
            "{spans:?}"
        );
        // ANSWERS drains server-side and reports the drained count
        let r = s.handle_line("EXPLAIN ANALYZE ANSWERS q(x, y) :- R(x, y)").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(
            r.data.iter().any(|l| l.starts_with("analyze: ") && l.ends_with("rows=2")),
            "{:?}",
            r.data
        );
        assert!(
            r.data.iter().any(|l| l.trim_start().starts_with("stream.")),
            "the drained stream records its span: {:?}",
            r.data
        );
    }

    #[test]
    fn metrics_rate_needs_two_snapshots_then_reports_qps() {
        let mut s = session();
        warm_triangle(&mut s);
        let r = s.handle_line("METRICS RATE t").unwrap();
        assert_eq!(r.data, vec!["rate: n/a (need 2 metric snapshots)"]);
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        // widen the window past formatting precision before snapshot 2
        std::thread::sleep(Duration::from_millis(20));
        let r = s.handle_line("METRICS RATE t").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(r.data[0].starts_with("window="), "{:?}", r.data);
        assert!(r.data[0].contains("snapshots=2"), "{:?}", r.data);
        // independently recompute the COUNT qps: two calls since the
        // baseline snapshot over the reported window
        let count_line = r
            .data
            .iter()
            .find(|l| l.contains("cmd.count.calls"))
            .unwrap_or_else(|| panic!("no count rate in {:?}", r.data));
        let rate: f64 = count_line
            .rsplit("rate=")
            .next()
            .and_then(|t| t.strip_suffix("/s"))
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("unparsable rate line {count_line}"));
        let window: f64 = r.data[0]
            .strip_prefix("window=")
            .and_then(|t| t.split('s').next())
            .and_then(|t| t.parse().ok())
            .unwrap();
        assert!(rate > 0.0, "qps must be nonzero: {count_line}");
        let expected = 2.0 / window;
        assert!(
            (rate - expected).abs() / expected < 0.05,
            "rate {rate} should recompute as 2/{window}s = {expected}"
        );
        // a bounded window: far wider than the test's runtime, so the
        // same baseline applies and a report still comes back
        let r = s.handle_line("METRICS RATE t 3600").unwrap();
        assert!(r.is_ok() && r.data[0].starts_with("window="), "{:?}", r.data);
        // unknown tenants are refused
        let r = s.handle_line("METRICS RATE nope").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    }

    #[test]
    fn profile_gates_on_tracing_and_retains_traces() {
        let mut s = session();
        warm_triangle(&mut s);
        let r = s.handle_line("PROFILE t").unwrap();
        assert!(r.terminal.starts_with("ERR tracing-off:"), "{}", r.terminal);
        // enable tracing (as `cqd --profile 2` would) and run queries
        s.state.metrics().set_profile_capacity(2);
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        s.handle_line("ANSWERS q(x, y) :- R(x, y)");
        s.handle_line("DECIDE q() :- R(x, y)");
        let r = s.handle_line("PROFILE t").unwrap();
        assert_eq!(r.terminal, "OK 2 traces", "capacity evicts oldest");
        let headers: Vec<&String> =
            r.data.iter().filter(|l| l.starts_with("trace db=t ")).collect();
        assert_eq!(headers.len(), 2, "{:?}", r.data);
        assert!(
            headers[0].contains("query=\"q(x, y) :- R(x, y)\""),
            "oldest retained is the ANSWERS flow (labelled by its query text): {}",
            headers[0]
        );
        assert!(headers[1].contains("query=\"DECIDE q() :- R(x, y)\""), "{}", headers[1]);
        // span lines carry depth, name, elapsed, and recorded attrs
        assert!(
            r.data.iter().any(|l| l.starts_with("span depth=0 name=execute ns=")),
            "{:?}",
            r.data
        );
        assert!(
            r.data.iter().any(|l| l.starts_with("span ") && l.contains("name=stream.")),
            "the ANSWERS drain records its stream span: {:?}",
            r.data
        );
        // tracing off again clears retained traces
        s.state.metrics().set_profile_capacity(0);
        let r = s.handle_line("PROFILE t").unwrap();
        assert!(r.terminal.starts_with("ERR tracing-off:"), "{}", r.terminal);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The rows attribute a trace records for the answer stream is
        /// exactly the number of rows the client received, and the
        /// execute span's rows attribute is exactly the COUNT result —
        /// measured output never drifts from delivered output.
        #[test]
        fn trace_row_counts_match_emitted_rows(
            pairs in proptest::collection::vec((1u64..=6, 1u64..=6), 1..24),
        ) {
            let mut s = session();
            s.handle_line("CREATE DB t");
            s.handle_line("USE t");
            s.state.metrics().set_profile_capacity(4);
            for (a, b) in &pairs {
                s.handle_line(&format!("INSERT Edge({a}, {b})"));
            }
            let r = s.handle_line("ANSWERS q(x, y) :- Edge(x, y)").unwrap();
            prop_assert!(r.is_ok(), "{}", r.terminal);
            let emitted = r.data.len() as u64;
            let traces = s.state.metrics().recent_traces("t");
            let tr = traces.last().expect("the ANSWERS query was traced");
            let mut stream_rows = None;
            tr.visit(|_, sp| {
                if sp.name.starts_with("stream.") {
                    stream_rows = sp.attr("rows");
                }
            });
            prop_assert_eq!(
                stream_rows,
                Some(emitted),
                "trace says {:?}, wire delivered {}", stream_rows, emitted
            );
            let r = s.handle_line("COUNT q(x, y) :- Edge(x, y)").unwrap();
            let counted: u64 =
                r.terminal.strip_prefix("OK ").unwrap().parse().unwrap();
            prop_assert_eq!(counted, emitted, "COUNT agrees with the drain");
            let traces = s.state.metrics().recent_traces("t");
            let tr = traces.last().expect("the COUNT query was traced");
            let mut exec_rows = None;
            tr.visit(|_, sp| {
                if sp.name == "execute" {
                    exec_rows = sp.attr("rows");
                }
            });
            prop_assert_eq!(exec_rows, Some(counted));
        }
    }
}
