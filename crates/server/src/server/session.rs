//! The per-connection [`Session`] state machine and the verb table:
//! every verb's metric slug, tenant addressing and access class are
//! declared in one row, and [`Session::serve`] is the only place a
//! tenant is resolved, a write is refused, a profile sink is installed
//! or a command is counted. Every request — a verb, a block's `END`, a
//! stream's last line, a caught panic — ends in
//! [`Session::end_request`], where its error and its trace are booked.

use super::query::{AnswerFlow, BatchItem, CursorEntry};
use super::stmt::Statements;
use crate::protocol::{parse_command, Command, ErrKind, Reply};
use crate::state::{ServerState, StateError, Tenant};
use cq_data::Val;
use cq_obs::trace::{self, TraceSink};
use cq_planner::Task;
use cq_storage::WalRecord;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// What the transport should do with one request's result: write a
/// framed reply, or drain an answer stream to the wire incrementally
/// (rows in bounded chunks, then the terminal).
/// A stream borrows the request line (`'a`) that labels its trace.
pub enum Action<'a> {
    /// An ordinary framed reply.
    Reply(Reply),
    /// A streamed `ANSWERS` response; hand it to
    /// [`Session::drain_flow`]. Boxed: a flow carries its plan and
    /// stream, far bigger than the everyday `Reply`.
    Stream(Box<AnswerFlow<'a>>),
}

impl From<Reply> for Action<'_> {
    fn from(reply: Reply) -> Self {
        Action::Reply(reply)
    }
}

/// What a verb's handler returns: the reply, or — `Err`, so handlers
/// can `?` their way out — the refusal that takes its place. The client
/// is sent whichever it is. (`ANSWERS` returns the stream itself, an
/// [`Action`], in place of the reply.)
pub(super) type Handled = Result<Reply, Reply>;

/// What a session is currently reading.
pub(super) enum Mode {
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

/// Which tenant a verb addresses: what the gate resolves before the
/// handler runs, and which tenant's metrics count the command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Addr {
    /// The server as a whole — no tenant; counted in the `server` scope.
    Server,
    /// The session's `USE`d tenant (`ERR no-db` without one, `ERR
    /// no-such-db` once it was dropped); counted by that tenant.
    Current,
    /// An open cursor of this session (`FETCH`/`SEEK`/`CLOSE`), named by
    /// its id: the cursor pins its own tenant and answers for its
    /// staleness, so the gate resolves nothing. Counted by the cursor's
    /// tenant — whichever tenant the session uses now, and whether or
    /// not that one was dropped since — and, for an id the session has
    /// no cursor under, like [`Addr::Current`].
    Cursor,
    /// A tenant named in the command (`ERR no-such-db` for an unknown
    /// name); counted in the `server` scope.
    Named,
}

/// What a row's request names beside its arguments: the tenant of an
/// [`Addr::Named`] row, the cursor of an [`Addr::Cursor`] row.
#[derive(Clone, Copy, Debug)]
pub(super) enum Target<'a> {
    Named(&'a str),
    Cursor(u64),
}

/// What a verb does to what it addresses — which gates it must pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Access {
    /// A read: served on replicas and on degraded tenants alike.
    Read,
    /// `PROFILE`: a read of the trace ring, refused with `ERR
    /// tracing-off` — whatever name it was given — when `cqd` runs
    /// without `--profile`.
    Traces,
    /// A mutation: `ERR read-only` on a replica, `ERR degraded` on a
    /// tenant whose log failed.
    Write,
    /// `RESUME`: a mutation, so refused on a replica, but the repair
    /// verb for degraded tenants, so exempt from that gate.
    Repair,
}

/// One row of the verb table.
#[derive(Clone, Copy, Debug)]
pub(super) struct Verb {
    /// The `cmd.<slug>.calls` / `cmd.<slug>.latency` metric stem.
    pub slug: &'static str,
    pub addr: Addr,
    pub access: Access,
}

/// The verb table. One row per verb:
///
/// ```text
/// <command pattern> => <slug>, <Addr>[(<target>)], <Access>, |s[, t[, line]]| <handler>;
/// ```
///
/// `Named` rows give the expression naming their tenant, `Cursor` rows
/// the cursor id ([`Target`]); rows that address a tenant (`Current`,
/// `Named`) bind it as `t`, and the request line as `line` if they
/// need it. A verb whose
/// name is optional (`STATS`, `METRICS`, `SHIP`) is two rows: the bare
/// form addresses the server, the named form a tenant. The macro
/// expands to [`VERBS`] (the rows as data, for block completion and the
/// gate-matrix test) and to `Session::dispatch`, whose every arm goes
/// through [`Session::serve`] — a verb cannot be added without stating
/// its gates, and cannot run without passing them.
macro_rules! verb_table {
    ($($cmd:pat => $slug:literal, $addr:ident $(($target:expr))?, $access:ident,
        |$s:ident $(, $t:ident $(, $line:ident)?)?| $handler:expr;)+) => {
        /// Every row of the verb table, in table order.
        pub(super) const VERBS: &[Verb] =
            &[$(Verb { slug: $slug, addr: Addr::$addr, access: Access::$access }),+];

        impl Session {
            /// Route one parsed command through its row.
            fn dispatch<'a>(&mut self, cmd: Command, line: &'a str) -> Action<'a> {
                match cmd {$(
                    $cmd => {
                        let verb =
                            Verb { slug: $slug, addr: Addr::$addr, access: Access::$access };
                        let target = None$(.or(Some(Target::$addr($target))))?;
                        self.serve(verb, target, line, |$s, _tenant| {
                            $(
                                let $t = _tenant.expect("the gate resolved this verb's tenant");
                                $(let $line = line;)?
                            )?
                            $handler.map(Action::from)
                        })
                    }
                )+}
            }
        }
    };
}

verb_table! {
    Command::Ping => "ping", Server, Read, |_s| Ok(Reply::ok("pong"));
    Command::Quit => "quit", Server, Read, |s| { s.finished = true; Ok(Reply::ok("bye")) };
    Command::CreateDb(name) => "create-db", Server, Write, |s| s.create_db(&name);
    Command::DropDb(name) => "drop-db", Server, Write, |s| s.drop_db(&name);
    Command::Use(name) => "use", Named(&name), Read, |s, t| s.use_db(t);
    Command::Insert { relation, values } => "insert", Current, Write,
        |s, t| s.mutate(t, WalRecord::Insert { relation, row: values });
    Command::Load { relation, cols } => "load", Current, Write,
        |s, t| s.open_load(t, relation, cols);
    Command::DropRelation(relation) => "drop", Current, Write,
        |s, t| s.mutate(t, WalRecord::DropRelation { relation });
    Command::Save => "save", Current, Write, |s, t| s.save(t);
    Command::Query { task: Task::Decide, src } => "decide", Current, Read,
        |s, t, line| s.eval_query(t, Task::Decide, &src, line);
    Command::Query { task: Task::Count, src } => "count", Current, Read,
        |s, t, line| s.eval_query(t, Task::Count, &src, line);
    Command::Query { task, src } => "answers", Current, Read,
        |s, t, line| s.eval_query(t, task, &src, line);
    Command::Explain { task, src } => "explain", Current, Read,
        |s, t| s.explain(t, task, &src);
    Command::ExplainAnalyze { task, src } => "explain-analyze", Current, Read,
        |s, t| s.explain_analyze(t, task, &src);
    Command::Cursor { task, src } => "cursor", Current, Read,
        |s, t| s.open_cursor(t, task, &src);
    Command::Fetch { id, n } => "fetch", Cursor(id), Read, |s| s.fetch(id, n);
    Command::SeekCursor { id, k } => "seek", Cursor(id), Read, |s| s.seek_cursor(id, k);
    Command::CloseCursor { id } => "close", Cursor(id), Read, |s| s.close_cursor(id);
    Command::Batch => "batch", Current, Read, |s, _t| s.open_batch();
    Command::Stats { db: None } => "stats", Server, Read, |s| s.stats_summary();
    Command::Stats { db: Some(db) } => "stats", Named(&db), Read, |s, t| s.stats_detail(t);
    Command::Metrics { db: None } => "metrics", Server, Read, |s| s.metrics_dump(None);
    Command::Metrics { db: Some(db) } => "metrics", Named(&db), Read,
        |s, t| s.metrics_dump(Some(t));
    Command::MetricsRate { db: None, window_s } => "metrics-rate", Server, Read,
        |s| s.metrics_rate(None, window_s);
    Command::MetricsRate { db: Some(db), window_s } => "metrics-rate", Named(&db), Read,
        |s, t| s.metrics_rate(Some(t), window_s);
    Command::Profile { db } => "profile", Named(&db), Traces, |s, t| s.profile(t);
    Command::SetBudget { db, setting } => "set-budget", Named(&db), Write,
        |s, t| s.set_budget(t, setting);
    Command::SetTimeout { db, ms } => "set-timeout", Named(&db), Write,
        |s, t| s.set_timeout(t, ms);
    Command::Resume(db) => "resume", Named(&db), Repair, |s, t| s.resume(t);
    Command::Ship { db: None, .. } => "ship", Server, Read, |s| s.ship_listing();
    Command::Ship { db: Some(db), epoch, offset } => "ship", Named(&db), Read,
        |s, t| s.ship(t, epoch, offset);
}

/// Per-connection protocol state: the current tenant and any open
/// `LOAD`/`BATCH` block. Deterministic and transport-free — tests feed
/// it lines directly, the server feeds it lines from a socket.
pub struct Session {
    pub(super) state: Arc<ServerState>,
    pub(super) current: Option<Arc<Tenant>>,
    pub(super) mode: Mode,
    finished: bool,
    /// Connection-liveness probe polled during evaluation: `true`
    /// means the client is gone and in-flight work should be cancelled.
    pub(super) cancel_probe: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Open cursors, by the id handed out in `OK cursor <id>`.
    pub(super) cursors: HashMap<u64, CursorEntry>,
    /// The next cursor id (session-scoped, never reused).
    pub(super) next_cursor_id: u64,
    /// The statements this session served: each text's parse, and its
    /// plans while the statistics they were made against are current.
    pub(super) statements: Statements,
    /// The request [`Session::serve`] is running: its verb's slug, when
    /// it began and the tenant it counts in, so that a handler's panic is
    /// booked where its reply would have been.
    serving: Option<(&'static str, Instant, Option<Arc<Tenant>>)>,
}

impl Session {
    /// A fresh session over shared server state.
    pub fn new(state: Arc<ServerState>) -> Session {
        Session {
            state,
            current: None,
            mode: Mode::Idle,
            finished: false,
            cancel_probe: None,
            cursors: HashMap::new(),
            next_cursor_id: 0,
            statements: Statements::default(),
            serving: None,
        }
    }

    /// Attach a liveness probe consulted while queries run: when it
    /// returns `true` (client gone), in-flight evaluation is cancelled
    /// cooperatively instead of running to completion for nobody.
    ///
    /// The probe belongs to the thread that attaches it, the session's:
    /// an operator that splits its work hands its other threads a
    /// [`CancelToken::sibling`](cq_engine::CancelToken::sibling), which
    /// has no probe, and a debug build asserts that nothing else calls it.
    pub fn set_cancel_probe(&mut self, probe: impl Fn() -> bool + Send + Sync + 'static) {
        let session = std::thread::current().id();
        self.cancel_probe = Some(Arc::new(move || {
            debug_assert_eq!(
                std::thread::current().id(),
                session,
                "the cancel probe ran off the session's thread"
            );
            probe()
        }));
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
    /// Never panics: a panicking handler is caught and counted
    /// (`server panics`), the session resets to idle, and the client
    /// gets `ERR internal` — an error, and a call of its verb, in the
    /// tenant the request addressed.
    pub fn handle_action<'a>(&mut self, raw: &'a [u8]) -> Option<Action<'a>> {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| self.step(raw)));
        caught.unwrap_or_else(|_| {
            self.state.metrics().server_scope().counter("panics").inc();
            // idle again, so the refusal is answered at once
            self.mode = Mode::Idle;
            let reply = Reply::err(
                ErrKind::Internal,
                "command handler panicked; session reset to idle",
            );
            let Some((slug, start, tenant)) = self.serving.take() else {
                return self.refuse_line(reply);
            };
            self.end_request(tenant.as_deref(), Some(&reply), None);
            self.record_cmd(tenant.as_deref(), slug, start);
            Some(Action::Reply(reply))
        })
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

    /// The transport read (and threw away, unbuffered) a request line
    /// longer than [`MAX_REQUEST_LINE_BYTES`](super::MAX_REQUEST_LINE_BYTES):
    /// refuse it like any other malformed line — an immediate `ERR
    /// usage` when idle, the block's own error report at `END` inside
    /// a `LOAD`/`BATCH` — and keep serving.
    pub fn handle_oversized(&mut self) -> Option<Action<'static>> {
        self.refuse_line(Reply::err(
            ErrKind::Usage,
            format!("request line exceeds {} bytes", super::MAX_REQUEST_LINE_BYTES),
        ))
    }

    /// The one end of a request, wherever its terminal is made: a verb's
    /// framed reply ([`Session::serve`]), a `LOAD`/`BATCH` block's `END`
    /// reply, a streamed response's last line (the drain's), a refused
    /// line's and a caught panic's. An `ERR` terminal is counted by wire
    /// kind server-wide (`errors.<kind>`) and once in `tenant`'s
    /// `errors` — the tenant the request addressed; `None` for a verb
    /// counted in the server scope, a line that never parsed, or a
    /// panic outside a verb's handler. A `None` terminal is a drain
    /// whose client hung up: nobody reads one, so nothing is counted.
    /// The request's `trace`, its sink and label, lands in the tenant's
    /// `PROFILE` ring; a disabled sink (profiling off) finishes to
    /// nothing.
    pub(super) fn end_request(
        &self,
        tenant: Option<&Tenant>,
        terminal: Option<&Reply>,
        trace: Option<(&TraceSink, &str)>,
    ) {
        let metrics = self.state.metrics();
        if let Some(kind) = terminal.and_then(Reply::err_kind) {
            metrics.record_error(kind);
            if let Some(tenant) = tenant {
                tenant.metrics().errors.inc();
            }
        }
        let Some((tenant, (sink, label))) = tenant.zip(trace) else { return };
        if let Some(tr) = sink.finish(tenant.name(), label) {
            metrics.push_trace(tenant.metrics(), tr);
        }
    }

    fn step<'a>(&mut self, raw: &'a [u8]) -> Option<Action<'a>> {
        let Ok(text) = std::str::from_utf8(raw) else {
            let what = match self.mode {
                Mode::Idle => "request",
                Mode::Loading { .. } => "row",
                Mode::Batching { .. } => "batch item",
            };
            return self.refuse_line(Reply::err(
                ErrKind::BadUtf8,
                format!("{what} is not UTF-8"),
            ));
        };
        let line = text.trim();
        if line.is_empty() {
            return None; // blank lines are fine, between rows and items too
        }
        let reply = match self.mode {
            Mode::Idle => match parse_command(line) {
                Ok(cmd) => return Some(self.dispatch(cmd, line)),
                Err(reply) => return self.refuse_line(reply),
            },
            Mode::Loading { .. } => self.load_line(line)?,
            Mode::Batching { .. } => self.batch_line(line)?,
        };
        // a block's `END`: its request is the block, which addressed the
        // current tenant (as the `END` gate left it)
        self.end_request(self.current.as_deref(), Some(&reply), None);
        Some(Action::Reply(reply))
    }

    /// A line that cannot be served at all, answered as the session's
    /// mode demands: at once when idle, as a request that addressed no
    /// tenant; inside a `LOAD` as the block's error (the first one wins,
    /// reported at `END`); inside a `BATCH` as that item's error.
    fn refuse_line(&mut self, reply: Reply) -> Option<Action<'static>> {
        match &mut self.mode {
            Mode::Idle => {
                self.end_request(None, Some(&reply), None);
                return Some(Action::Reply(reply));
            }
            Mode::Loading { error, .. } => {
                error.get_or_insert(reply);
            }
            Mode::Batching { items } => items.push(BatchItem::Bad(reply)),
        }
        None
    }

    /// Serve one command through its table row — the only path from a
    /// verb to its handler. Resolves the tenant and applies the gates
    /// ([`Session::gate`]), runs tenant-scoped verbs under a fresh
    /// trace sink when the server profiles, ends the request
    /// ([`Session::end_request`]) in the tenant the row's addressing
    /// names, and counts the command there. A stream is ended by its
    /// drain instead, which writes its terminal.
    fn serve<'a>(
        &mut self,
        verb: Verb,
        to: Option<Target>,
        line: &str,
        handler: impl FnOnce(&mut Session, Option<&Arc<Tenant>>) -> Result<Action<'a>, Reply>,
    ) -> Action<'a> {
        let start = Instant::now();
        // taken before the handler, which may close or evict the cursor
        let cursor_tenant = match to {
            Some(Target::Cursor(id)) => self.cursors.get(&id).map(|c| c.tenant.clone()),
            _ => None,
        };
        let tenant_scoped = matches!(verb.addr, Addr::Current | Addr::Cursor);
        let run = |s: &mut Session| {
            let gated = s.gate(verb, to);
            // tenant-addressed commands count in their tenant (QPS per
            // command per database) — the cursor's, else the current one
            // as the gate left it, which lets go of a dropped tenant — the
            // rest in the server scope
            let tenant = cursor_tenant.or_else(|| s.current.clone());
            s.serving = Some((verb.slug, start, tenant.filter(|_| tenant_scoped)));
            gated.and_then(|t| handler(s, t.as_ref())).unwrap_or_else(Action::Reply)
        };
        // when the server profiles (`cqd --profile N`), tenant-scoped
        // commands run under a fresh trace sink; the finished trace
        // lands in the tenant's PROFILE ring. With profiling off the
        // sink is never installed and every span is a no-op.
        let traced = tenant_scoped && self.state.metrics().profiling();
        let sink = if traced { TraceSink::enabled() } else { TraceSink::disabled() };
        let action = if traced { trace::with(&sink, || run(self)) } else { run(self) };
        let (_, _, tenant) = self.serving.take().expect("the run resolved the tenant");
        let tenant = tenant.as_deref();
        // a stream keeps its spans open until the drain drops it, so the
        // flow (which captured this sink) ends the request instead — see
        // `pump_flow`
        if let Action::Reply(reply) = &action {
            self.end_request(tenant, Some(reply), Some((&sink, line)));
        }
        self.record_cmd(tenant, verb.slug, start);
        action
    }

    /// Count a call of the verb `slug`, begun at `start`, in `tenant`, or
    /// in the server scope without one.
    fn record_cmd(&self, tenant: Option<&Tenant>, slug: &'static str, start: Instant) {
        match tenant {
            Some(tenant) => tenant.metrics().record_cmd(slug, start.elapsed()),
            None => self.state.metrics().record_cmd(slug, start.elapsed()),
        }
    }

    /// The one gate between a verb and its handler; also re-checked by
    /// `LOAD`/`BATCH` block completion, since the answers may have
    /// changed while the block was open. In order:
    ///
    /// 1. what the verb needs of the *server*: writes are refused on a
    ///    replica, naming the primary — before anything else, so a
    ///    client that writes to the wrong end of a pair is told where
    ///    to go even if it never said `USE`; `PROFILE` is refused
    ///    without a trace ring, whatever name it was given;
    /// 2. the tenant the verb addresses, resolved: `ERR no-db` without
    ///    a `USE`, `ERR no-such-db` for a dropped or unknown one;
    /// 3. what a write needs of the *tenant*: `ERR degraded` after a
    ///    storage failure, so a mutation fails fast instead of touching
    ///    a log it must not write — except `RESUME`, the repair.
    pub(super) fn gate(
        &mut self,
        verb: Verb,
        target: Option<Target>,
    ) -> Result<Option<Arc<Tenant>>, Reply> {
        match verb.access {
            Access::Write | Access::Repair => {
                if let Some(primary) = self.state.replica_of() {
                    return Err(Reply::err(
                        ErrKind::ReadOnly,
                        format!(
                            "this server is a read-only replica of {primary}; send \
                             writes there"
                        ),
                    ));
                }
            }
            Access::Traces if !self.state.metrics().profiling() => {
                return Err(Reply::err(
                    ErrKind::TracingOff,
                    "per-query tracing is off; start cqd with --profile <n>",
                ));
            }
            Access::Traces | Access::Read => {}
        }
        let tenant = match verb.addr {
            Addr::Server | Addr::Cursor => return Ok(None),
            Addr::Current => match &self.current {
                None => {
                    return Err(Reply::err(
                        ErrKind::NoDb,
                        "no database selected; CREATE DB / USE one first",
                    ))
                }
                Some(t) if t.is_dropped() => {
                    let name = t.name().to_string();
                    // let go of the ghost so its memory can be reclaimed
                    self.current = None;
                    return Err(Reply::err(
                        ErrKind::NoSuchDb,
                        format!("database `{name}` was dropped; USE another"),
                    ));
                }
                Some(t) => Arc::clone(t),
            },
            Addr::Named => {
                let Some(Target::Named(name)) = target else {
                    unreachable!("Named rows name their tenant")
                };
                self.state.tenant(name).map_err(|e| state_error(name, e))?
            }
        };
        if verb.access == Access::Write {
            if let Some(reason) = tenant.degraded_reason() {
                return Err(Reply::err(
                    ErrKind::Degraded,
                    format!(
                        "`{db}` is read-only after a storage failure ({reason}); reads \
                         still serve — RESUME {db} to restore read-write",
                        db = tenant.name()
                    ),
                ));
            }
        }
        Ok(Some(tenant))
    }

    /// [`Session::gate`] for the `END` of an open block: the tenant the
    /// `slug` row (`load`, `batch`) addresses, through the same gates.
    pub(super) fn regate(&mut self, slug: &str) -> Result<Arc<Tenant>, Reply> {
        let verb = VERBS.iter().find(|v| v.slug == slug).expect("a row of the table");
        Ok(self.gate(*verb, None)?.expect("block verbs address the current tenant"))
    }

    fn use_db(&mut self, tenant: &Arc<Tenant>) -> Handled {
        self.current = Some(Arc::clone(tenant));
        Ok(Reply::ok(format!("using {}", tenant.name())))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // a vanished connection releases its cursors — the open-cursor
        // gauge must not count the dead
        for (_, entry) in std::mem::take(&mut self.cursors) {
            entry.tenant.metrics().cursor_closed(false);
        }
    }
}

/// A registry refusal about the tenant called `name`, as a reply.
pub(super) fn state_error(name: &str, e: StateError) -> Reply {
    match e {
        StateError::Exists => {
            Reply::err(ErrKind::Exists, format!("database `{name}` already exists"))
        }
        StateError::NoSuchDb => {
            Reply::err(ErrKind::NoSuchDb, format!("no database named `{name}`"))
        }
        StateError::Storage(msg) => Reply::err(ErrKind::Storage, msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::testkit::session;

    /// A probe that peeks the session's socket must not run on two
    /// threads at once: called from any thread but the one that attached
    /// it, it fails a debug build instead of stalling a read tick.
    #[test]
    #[cfg(debug_assertions)]
    fn the_cancel_probe_runs_on_the_session_thread_only() {
        let mut s = session();
        s.set_cancel_probe(|| false);
        let probe = s.cancel_probe.clone().expect("just attached");
        assert!(!probe(), "the session's own thread may call it");
        let elsewhere = std::thread::spawn(move || probe()).join();
        assert!(elsewhere.is_err(), "another thread must trip the assertion");
    }

    /// One request line per row of the verb table, addressing tenant
    /// `db` where the row names one. A row without a sample fails every
    /// test below: a verb cannot be added without joining the matrix.
    fn sample(verb: &Verb, db: &str) -> String {
        let line = match (verb.slug, verb.addr) {
            ("ping", Addr::Server) => "PING",
            ("quit", Addr::Server) => "QUIT",
            ("create-db", Addr::Server) => "CREATE DB fresh",
            ("drop-db", Addr::Server) => return format!("DROP DB {db}"),
            ("use", Addr::Named) => return format!("USE {db}"),
            ("insert", Addr::Current) => "INSERT R(1, 2)",
            ("load", Addr::Current) => "LOAD R 2",
            ("drop", Addr::Current) => "DROP R",
            ("save", Addr::Current) => "SAVE",
            ("decide", Addr::Current) => "DECIDE q() :- R(x, y)",
            ("count", Addr::Current) => "COUNT q(x, y) :- R(x, y)",
            ("answers", Addr::Current) => "ANSWERS q(x, y) :- R(x, y)",
            ("explain", Addr::Current) => "EXPLAIN COUNT q(x, y) :- R(x, y)",
            ("explain-analyze", Addr::Current) => {
                "EXPLAIN ANALYZE COUNT q(x, y) :- R(x, y)"
            }
            ("cursor", Addr::Current) => "CURSOR ANSWERS q(x, y) :- R(x, y)",
            ("fetch", Addr::Cursor) => "FETCH 0 1",
            ("seek", Addr::Cursor) => "SEEK 0 0",
            ("close", Addr::Cursor) => "CLOSE 0",
            ("batch", Addr::Current) => "BATCH",
            ("stats", Addr::Server) => "STATS",
            ("stats", Addr::Named) => return format!("STATS {db}"),
            ("metrics", Addr::Server) => "METRICS",
            ("metrics", Addr::Named) => return format!("METRICS {db}"),
            ("metrics-rate", Addr::Server) => "METRICS RATE",
            ("metrics-rate", Addr::Named) => return format!("METRICS RATE {db}"),
            ("profile", Addr::Named) => return format!("PROFILE {db}"),
            ("set-budget", Addr::Named) => {
                return format!("SET BUDGET {db} MAX-ROWS 1000000")
            }
            ("set-timeout", Addr::Named) => return format!("SET TIMEOUT {db} 60000"),
            ("resume", Addr::Named) => return format!("RESUME {db}"),
            ("ship", Addr::Server) => "SHIP",
            ("ship", Addr::Named) => return format!("SHIP {db} 0 0"),
            row => panic!("verb table row {row:?} has no sample request: add one"),
        };
        line.to_string()
    }

    /// Send `verb`'s sample, closing the `LOAD`/`BATCH` block it may
    /// have opened; the sample's own reply is returned.
    fn ask(s: &mut Session, verb: &Verb, db: &str) -> Reply {
        let reply = s.handle_line(&sample(verb, db)).expect("every verb replies");
        if !matches!(s.mode, Mode::Idle) {
            s.handle_line("END").expect("END closes the block");
        }
        reply
    }

    /// A registry with tenant `t` holding `R(1, 2)`.
    fn state_with_t() -> Arc<ServerState> {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        for line in ["CREATE DB t", "USE t", "INSERT R(1, 2)"] {
            assert!(s.handle_line(line).unwrap().is_ok());
        }
        state
    }

    /// A panicking handler is caught: the client gets `ERR internal`, the
    /// `server panics` counter counts it, and its tenant counts the error
    /// and the call.
    #[test]
    fn a_caught_panic_replies_err_internal_and_is_counted() {
        let state = state_with_t();
        let panics = || state.metrics().server_scope().counter("panics").get();
        let mut s = Session::new(Arc::clone(&state));
        assert!(s.handle_line("USE t").unwrap().is_ok());
        assert_eq!(panics(), 0);
        s.set_cancel_probe(|| panic!("the probe panics"));
        let reply = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert!(reply.terminal.starts_with("ERR internal"), "{}", reply.terminal);
        assert_eq!(panics(), 1);
        // booked where the COUNT was addressed: an error and a call of t's
        let errors = state.metrics().registry().scope("db.t").counter("errors").get();
        assert_eq!((errors, calls(&state, "db.t", "count")), (1, 1));
    }

    fn calls(state: &ServerState, scope: &str, slug: &str) -> u64 {
        state
            .metrics()
            .registry()
            .scope(scope)
            .counter(&format!("cmd.{slug}.calls"))
            .get()
    }

    #[test]
    fn every_write_verb_and_no_read_verb_is_refused_on_a_replica() {
        let state = state_with_t();
        state.set_replica_of("10.0.0.1:7878");
        for verb in VERBS {
            // no USE: the replica gate outranks tenant resolution
            let reply = ask(&mut Session::new(Arc::clone(&state)), verb, "t");
            if matches!(verb.access, Access::Write | Access::Repair) {
                assert_eq!(
                    reply.terminal,
                    "ERR read-only: this server is a read-only replica of \
                     10.0.0.1:7878; send writes there",
                    "{verb:?}"
                );
            } else {
                assert_ne!(reply.err_kind(), Some(ErrKind::ReadOnly), "{verb:?}");
            }
        }
    }

    #[test]
    fn every_current_tenant_verb_needs_a_use_and_loses_a_dropped_tenant() {
        for verb in VERBS {
            let state = state_with_t();
            let mut s = Session::new(Arc::clone(&state));
            let reply = ask(&mut s, verb, "t");
            if verb.addr != Addr::Current {
                assert_ne!(reply.err_kind(), Some(ErrKind::NoDb), "{verb:?}");
                continue;
            }
            let no_db = "ERR no-db: no database selected; CREATE DB / USE one first";
            assert_eq!(reply.terminal, no_db, "{verb:?}");
            // DROP DB from another session: a structured refusal, and
            // the ghost handle is released
            s.handle_line("USE t");
            Session::new(Arc::clone(&state)).handle_line("DROP DB t");
            assert_eq!(
                ask(&mut s, verb, "t").terminal,
                "ERR no-such-db: database `t` was dropped; USE another",
                "{verb:?}"
            );
            assert!(s.current.is_none(), "{verb:?} let go of the ghost");
            assert_eq!(ask(&mut s, verb, "t").terminal, no_db, "{verb:?}");
        }
    }

    #[test]
    fn every_write_verb_but_resume_is_refused_on_a_degraded_tenant() {
        for verb in VERBS.iter().filter(|v| matches!(v.addr, Addr::Current | Addr::Named))
        {
            let state = state_with_t();
            state.set_profile_capacity(1); // PROFILE's own gate
            state.tenant("t").unwrap().set_degraded("wal append failed: disk full");
            let mut s = Session::new(state);
            s.handle_line("USE t");
            let reply = ask(&mut s, verb, "t");
            if verb.access == Access::Write {
                assert_eq!(
                    reply.terminal,
                    "ERR degraded: `t` is read-only after a storage failure (wal append \
                     failed: disk full); reads still serve — RESUME t to restore \
                     read-write",
                    "{verb:?}"
                );
            } else {
                assert_ne!(reply.err_kind(), Some(ErrKind::Degraded), "{verb:?}");
            }
        }
    }

    #[test]
    fn every_named_tenant_verb_answers_an_unknown_name_the_same_way() {
        for verb in VERBS.iter().filter(|v| v.addr == Addr::Named) {
            let mut s = Session::new(state_with_t());
            if verb.access == Access::Traces {
                // the one gate that outranks name resolution
                let reply = ask(&mut s, verb, "nosuch");
                assert_eq!(reply.err_kind(), Some(ErrKind::TracingOff), "{verb:?}");
                s.state.set_profile_capacity(1);
            }
            assert_eq!(
                ask(&mut s, verb, "nosuch").terminal,
                "ERR no-such-db: no database named `nosuch`",
                "{verb:?}"
            );
        }
    }

    #[test]
    fn every_verb_is_counted_once_in_the_scope_its_addressing_names() {
        let state = state_with_t();
        state.set_profile_capacity(1);
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("USE t");
        // DROP DB forgets the tenant's scope and QUIT ends the session:
        // they go last
        let last = |v: &&Verb| matches!(v.slug, "drop-db" | "quit");
        for verb in VERBS.iter().filter(|v| !last(v)).chain(VERBS.iter().filter(last)) {
            let before =
                [calls(&state, "server", verb.slug), calls(&state, "db.t", verb.slug)];
            ask(&mut s, verb, "t");
            let after =
                [calls(&state, "server", verb.slug), calls(&state, "db.t", verb.slug)];
            let tenant_scoped = matches!(verb.addr, Addr::Current | Addr::Cursor);
            let want = if tenant_scoped { [0, 1] } else { [1, 0] };
            assert_eq!([after[0] - before[0], after[1] - before[1]], want, "{verb:?}");
        }
        assert!(s.finished());
    }

    /// The `METRICS` lines of tenant scope `db.<db>`.
    fn scope_lines(state: &Arc<ServerState>, db: &str) -> Vec<String> {
        let r = Session::new(Arc::clone(state)).handle_line("METRICS").unwrap();
        let prefix = format!("db.{db} ");
        r.data.into_iter().filter(|l| l.starts_with(&prefix)).collect()
    }

    #[test]
    fn a_recreated_tenant_counts_the_commands_of_a_session_that_used_its_namesake() {
        let state = state_with_t();
        let mut s = Session::new(Arc::clone(&state));
        for line in ["USE t", "INSERT R(1, 2)", "DROP DB t", "CREATE DB t", "USE t"] {
            assert!(s.handle_line(line).unwrap().is_ok(), "{line}");
        }
        assert!(s.handle_line("INSERT R(1, 2)").unwrap().is_ok());
        let lines = scope_lines(&state, "t");
        assert!(lines.iter().any(|l| l == "db.t cmd.insert.calls=1"), "{lines:?}");
    }

    #[test]
    fn a_cursor_of_a_dropped_tenant_brings_no_scope_back() {
        let state = state_with_t();
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("USE t");
        for id in 0..2 {
            let r = s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)").unwrap();
            assert_eq!(r.terminal, format!("OK cursor {id}"));
        }
        Session::new(Arc::clone(&state)).handle_line("DROP DB t");
        let r = s.handle_line("FETCH 0 1").unwrap();
        assert_eq!(r.err_kind(), Some(ErrKind::StaleCursor), "{}", r.terminal);
        assert_eq!(scope_lines(&state, "t"), Vec::<String>::new());
        // a session ending with a cursor open releases it into its tenant
        drop(s);
        assert_eq!(scope_lines(&state, "t"), Vec::<String>::new());
        let stats = Session::new(Arc::clone(&state)).handle_line("STATS").unwrap();
        assert_eq!(stats.data[0], "tenants: 0");
    }

    #[test]
    fn a_command_refused_on_a_tenant_another_session_dropped_brings_no_scope_back() {
        let state = state_with_t();
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("USE t");
        Session::new(Arc::clone(&state)).handle_line("DROP DB t");
        for line in ["FETCH 7 1", "SEEK 7 0", "CLOSE 7"] {
            let r = s.handle_line(line).unwrap();
            assert_eq!(
                r.err_kind(),
                Some(ErrKind::NoSuchCursor),
                "{line}: {}",
                r.terminal
            );
        }
        assert_eq!(scope_lines(&state, "t"), Vec::<String>::new());
    }

    #[test]
    fn a_cursor_verb_counts_in_the_cursors_tenant_whichever_the_session_uses() {
        let state = state_with_t();
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("USE t");
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        for line in ["CREATE DB u", "USE u", "FETCH 0 1"] {
            assert!(s.handle_line(line).unwrap().is_ok(), "{line}");
        }
        // enumeration has no random access: a refusal, counted in `t` too
        let r = s.handle_line("SEEK 0 0").unwrap();
        assert_eq!(r.err_kind(), Some(ErrKind::Unsupported), "{}", r.terminal);
        assert!(s.handle_line("CLOSE 0").unwrap().is_ok());
        for verb in ["fetch", "seek", "close"] {
            let counted = [calls(&state, "db.t", verb), calls(&state, "db.u", verb)];
            assert_eq!(counted, [1, 0], "{verb}");
        }
        let errors = |db: &str| state.tenant(db).unwrap().metrics().errors.get();
        assert_eq!([errors("t"), errors("u")], [1, 0]);
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
        assert!(r.data.iter().any(|l| l == "server tenants=1"), "{:?}", r.data);
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
}
