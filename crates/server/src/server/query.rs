//! The verbs that evaluate: `DECIDE`/`COUNT`/`ANSWERS`, `EXPLAIN
//! [ANALYZE]`, cursors and `BATCH`, the row pump that streams answers
//! out as bytes, and the one verdict ([`Watch::failure`]) on what a
//! cancelled evaluation is attributed to.

use super::admin::push_span_lines;
use super::session::{Action, Handled, Mode, Session};
use crate::protocol::{
    query_task, render_row_into, split_word, ErrKind, Reply, DATA_PREFIX, END_KEYWORD,
};
use crate::state::Tenant;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, IndexCatalog, Val, VersionPin};
use cq_engine::{CancelToken, EvalError};
use cq_obs::trace::{self, TraceSink};
use cq_obs::SlowQuery;
use cq_planner::{execute::Answers, EvalCtx, Output, QueryPlan, Task};
use std::io::Write;
use std::sync::Arc;
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

/// What one evaluation is watched by — the tenant's `SET TIMEOUT`
/// deadline (if any) and the session's client-liveness probe (if
/// attached), as the token the engine polls — plus what a trip is
/// attributed against afterwards.
pub(super) struct Watch {
    pub token: CancelToken,
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    /// When the request was received (also the time-to-first-row zero).
    started: Instant,
}

impl Watch {
    /// The reply for a failed evaluation of `plan` on `tenant`. A
    /// cancellation is judged here, at the moment it surfaces: past the
    /// tenant's deadline it was the deadline (counted in its `timeouts`),
    /// otherwise the client went away (`cancellations`). A deadline trip
    /// cites the plan's cost exponent and the lower-bound hypothesis that
    /// makes the cost unavoidable (the same citation as a budget
    /// rejection). Anything else the engine reports is `ERR eval`.
    pub(super) fn failure(
        &self,
        e: EvalError,
        tenant: &Tenant,
        plan: &QueryPlan,
    ) -> Reply {
        if e != EvalError::Cancelled {
            return Reply::err(ErrKind::Eval, e);
        }
        let timed_out = self.deadline.is_some_and(|d| Instant::now() >= d);
        let metrics = tenant.metrics();
        if timed_out { &metrics.timeouts } else { &metrics.cancellations }.inc();
        let elapsed = self.started.elapsed().as_millis();
        let msg = if timed_out {
            format!(
                "evaluation exceeded the {} ms deadline after {elapsed} ms; plan cost \
                 m^{:.2} — consistent with: {}",
                self.timeout.map_or(0, |t| t.as_millis()),
                plan.cost.exponent,
                cq_planner::explain::rejection_citation(plan)
            )
        } else {
            format!(
                "evaluation cancelled after {elapsed} ms (client disconnected); plan \
                 cost m^{:.2}",
                plan.cost.exponent
            )
        };
        Reply::err(ErrKind::Timeout, msg)
    }
}

/// An open cursor: a paused answer stream pinned to the versions of
/// the relations its query reads. The stream holds only `Arc`'d catalog
/// artifacts and owned relations, so an idle cursor never holds the
/// tenant's read lock — writers proceed, and a mutation of a relation
/// the cursor reads moves that relation's version, which
/// [`Session::live_cursor`] detects as staleness on the next touch. A
/// write to any other relation cannot change the cursor's answers and
/// leaves it open.
pub(super) struct CursorEntry {
    pub tenant: Arc<Tenant>,
    /// The database generation the stream was built on (what `ERR
    /// stale-cursor` cites) and the versions of the relations it reads,
    /// both read under the execution's tenant read lock.
    generation: u64,
    reads: VersionPin,
    plan: QueryPlan,
    answers: Answers,
}

/// A streamed `ANSWERS` response in flight: the evaluated stream plus
/// everything the transport needs to finish the reply on its own —
/// the plan and the watch (for timeout attribution in the terminal,
/// and the receipt time behind the time-to-first-row metric).
pub struct AnswerFlow<'a> {
    answers: Answers,
    /// The tenant the response reads, and records its rows, bytes,
    /// failures and trace in.
    tenant: Arc<Tenant>,
    plan: QueryPlan,
    watch: Watch,
    /// The per-query trace this flow's spans record into (disabled
    /// unless the server profiles). Finished — stream spans included —
    /// only after the drain drops the stream, and labelled by `line`.
    trace: TraceSink,
    /// The request line that opened the flow, which labels its trace as
    /// [`Session::serve`] labels every other request's.
    line: &'a str,
}

/// One item of an open `BATCH` block: a task and its query text, parsed
/// when the block runs, or the per-item error that will be reported at
/// `END`.
pub(super) enum BatchItem {
    Task(Task, String),
    Bad(Reply),
}

/// Pull up to `max` rows off a stream into `sink`. `Ok(true)` means the
/// stream is exhausted; `Err` is an evaluation error (cancellation
/// included) mid-stream.
fn pull_rows(
    answers: &mut Answers,
    max: u64,
    mut sink: impl FnMut(&[Val]),
) -> Result<bool, EvalError> {
    for _ in 0..max {
        match answers.next()? {
            Some(row) => sink(row),
            None => return Ok(true),
        }
    }
    Ok(false)
}

impl Session {
    /// The one row pump behind [`Session::drain_flow`] and
    /// [`Session::collect_flow`]: pull the stream dry, rendering each
    /// row as a `* <row>\n` wire line straight into one reused byte
    /// buffer, and hand the buffer to `emit` whenever it reaches the
    /// chunk budget — [`STREAM_FIRST_CHUNK_BYTES`] at first, doubling
    /// per chunk up to [`STREAM_MAX_CHUNK_BYTES`] — and once more at the
    /// end. No allocation per row: the buffer grows to the budget and
    /// is reused. Then close the flow out — rows and bytes served, time
    /// in the sink — and end the request ([`Session::end_request`]):
    /// its terminal, its trace. Returns the terminal:
    /// `OK <n> rows`, or the `ERR` a mid-stream failure maps to (chunks
    /// already emitted stay emitted). An `emit` failure abandons the
    /// flow — counted as a cancellation, with the rows the sink did
    /// accept — and is returned.
    fn pump_flow(
        &mut self,
        mut flow: AnswerFlow<'_>,
        mut emit: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<Reply> {
        let metrics = flow.tenant.metrics();
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
                    let (calls, latency) = &metrics.time_to_first_row;
                    calls.inc();
                    latency.record_duration(flow.watch.started.elapsed());
                }
                let sent = Instant::now();
                if let Err(e) = emit(&chunk) {
                    break Err(e);
                }
                metrics.answer_write.record_duration(sent.elapsed());
                metrics.answer_bytes.add(chunk.len() as u64);
                served += pending;
                pending = 0;
                chunk.clear();
                budget = (budget * 2).min(STREAM_MAX_CHUNK_BYTES);
            }
            if let Some(end) = end {
                break Ok(end);
            }
        };
        metrics.answer_rows.add(served);
        let result = match outcome {
            Ok(Ok(())) => Ok(Reply::ok(format!("{served} rows"))),
            Ok(Err(e)) => Ok(flow.watch.failure(e, &flow.tenant, &flow.plan)),
            Err(io) => {
                // the client hung up mid-drain: nobody reads a terminal
                metrics.cancellations.inc();
                Err(io)
            }
        };
        // drop the stream first (its span records itself on drop, exec
        // and drain both visible), then end the request
        let AnswerFlow { answers, trace, tenant, line, .. } = flow;
        drop(answers);
        self.end_request(Some(&tenant), result.as_ref().ok(), Some((&trace, line)));
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
        flow: AnswerFlow<'_>,
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
    pub(super) fn collect_flow(&mut self, flow: AnswerFlow<'_>) -> Reply {
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

    /// The watch for one evaluation under `tenant`, started now.
    fn watch(&self, tenant: &Tenant) -> Watch {
        let started = Instant::now();
        let timeout = tenant.timeout();
        let deadline = timeout.and_then(|t| started.checked_add(t));
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
        Watch { token, deadline, timeout, started }
    }

    /// `DECIDE`/`COUNT`/`ANSWERS`: a scalar's reply, or the stream of
    /// answers itself, for the transport to drain; `line` is the request
    /// that asked for it.
    pub(super) fn eval_query<'a>(
        &mut self,
        tenant: &Arc<Tenant>,
        task: Task,
        src: &str,
        line: &'a str,
    ) -> Result<Action<'a>, Reply> {
        debug_assert!(task != Task::Access, "the protocol layer never builds this");
        let q = self.statements.query(src)?;
        let watch = self.watch(tenant);
        let (out, plan, ()) =
            self.plan_and_execute(tenant, task, src, &q, &watch, |_| ())?;
        let Output::Answers(answers) = out else {
            return Ok(Action::Reply(render_output(out)));
        };
        // preprocessing is done, the tenant read lock is released (the
        // stream holds only Arc'd artifacts), and rows go out — or into a
        // cursorless collect — pull by pull
        Ok(Action::Stream(Box::new(AnswerFlow {
            answers,
            tenant: Arc::clone(tenant),
            plan,
            watch,
            trace: trace::current(),
            line,
        })))
    }

    /// [`Session::execute_locked`] under the tenant's read lock, plus
    /// `pin` of the database it ran against (taken under the same lock,
    /// so a cursor pins exactly the state its stream was built on).
    fn plan_and_execute<P>(
        &mut self,
        tenant: &Tenant,
        task: Task,
        src: &str,
        q: &ConjunctiveQuery,
        watch: &Watch,
        pin: impl FnOnce(&Database) -> P,
    ) -> Result<(Output, QueryPlan, P), Reply> {
        tenant.read(|db, catalog| {
            let (out, plan) =
                self.execute_locked(tenant, (db, catalog), task, src, q, watch)?;
            Ok((out, plan, pin(db)))
        })
    }

    /// Plan the statement `src`, parsed as `q`, through the statement
    /// memo, admit the plan against the tenant's budget, and execute it
    /// on `db` and `catalog`, which the caller holds under the tenant's
    /// read lock. `Err` is the finished error reply (budget, timeout,
    /// eval); `Ok` carries the output — for `ANSWERS`/`ACCESS` a
    /// pull-driven stream whose artifacts outlive the lock — and the
    /// plan that produced it.
    fn execute_locked(
        &mut self,
        tenant: &Tenant,
        (db, catalog): (&Database, &IndexCatalog),
        task: Task,
        src: &str,
        q: &ConjunctiveQuery,
        watch: &Watch,
    ) -> Result<(Output, QueryPlan), Reply> {
        let plan = self.statements.plan(src, task, db.generation(), || catalog.stats(db));
        // admission control: reject over-budget plans before any
        // execution work, citing the lower bound that justifies it
        if let Some(reason) = tenant.budget().violation(&plan) {
            tenant.metrics().budget_rejections.inc();
            return Err(budget_reply(&reason, &plan));
        }
        let ctx = EvalCtx::new().with_catalog(catalog).with_cancel(watch.token.clone());
        let start = Instant::now();
        let result = ctx.execute(&plan, q, db);
        let elapsed = start.elapsed();
        tenant.metrics().record_op(plan.op.name(), elapsed);
        let slowlog = self.state.metrics().slowlog();
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
            Ok(out) => Ok((out, plan)),
            Err(e) => Err(watch.failure(e, tenant, &plan)),
        }
    }

    /// `CURSOR ANSWERS|ACCESS <query>`: plan and execute like a query,
    /// but park the resulting stream in the session's cursor registry
    /// instead of draining it. The reply is `OK cursor <id>`; rows are
    /// pulled by `FETCH`, positioned by `SEEK` (direct-access plans),
    /// released by `CLOSE`. The cursor pins the versions of the
    /// relations its query reads — a later mutation of one of them
    /// invalidates it (`ERR stale-cursor` on next touch).
    pub(super) fn open_cursor(
        &mut self,
        tenant: &Arc<Tenant>,
        task: Task,
        src: &str,
    ) -> Handled {
        if self.cursors.len() >= MAX_CURSORS_PER_SESSION {
            return Err(Reply::err(
                ErrKind::CursorLimit,
                format!(
                    "session already has {MAX_CURSORS_PER_SESSION} open cursors; \
                     CLOSE one first"
                ),
            ));
        }
        let q = self.statements.query(src)?;
        let watch = self.watch(tenant);
        let (out, plan, (generation, reads)) =
            self.plan_and_execute(tenant, task, src, &q, &watch, |db| {
                (db.generation(), VersionPin::of(db, q.relations()))
            })?;
        let Output::Answers(mut answers) = out else {
            unreachable!("ANSWERS/ACCESS tasks always execute to a stream")
        };
        // the cursor outlives this request: each FETCH installs a fresh
        // deadline, so the opening one must not poison later pulls
        answers.set_cancel(CancelToken::never());
        let id = self.next_cursor_id;
        self.next_cursor_id += 1;
        tenant.metrics().cursors_open().add(1);
        let tenant = Arc::clone(tenant);
        self.cursors.insert(id, CursorEntry { tenant, generation, reads, plan, answers });
        Ok(Reply::ok(format!("cursor {id}")))
    }

    /// Look up a cursor for `FETCH`/`SEEK`, evicting it with
    /// `ERR stale-cursor` when a relation it reads mutated (or the
    /// tenant was dropped) since the cursor pinned its versions.
    fn live_cursor(&mut self, id: u64) -> Result<&mut CursorEntry, Reply> {
        let stale = match self.cursors.get(&id) {
            None => return Err(no_such_cursor(id)),
            Some(entry) => {
                entry.tenant.is_dropped()
                    || !entry.tenant.read(|db, _| entry.reads.is_current(db))
            }
        };
        if stale {
            let entry = self.cursors.remove(&id).expect("present above");
            entry.tenant.metrics().cursor_closed(true);
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
    /// The stream gets the deadline for this FETCH only, so its span of
    /// the pulls lands in this FETCH's trace.
    pub(super) fn fetch(&mut self, id: u64, n: u64) -> Handled {
        let tenant = Arc::clone(&self.live_cursor(id)?.tenant);
        let watch = self.watch(&tenant);
        let entry = self.cursors.get_mut(&id).expect("verified live above");
        entry.answers.set_cancel(watch.token.clone());
        let mut lines = Vec::new();
        let outcome = pull_rows(&mut entry.answers, n.min(MAX_FETCH_ROWS), |row| {
            render_row_into(&mut lines, row);
            lines.push(b'\n');
        });
        entry.answers.set_cancel(CancelToken::never());
        let data: Vec<String> = rendered_lines(&lines).map(str::to_string).collect();
        tenant.metrics().answer_rows.add(data.len() as u64);
        match outcome {
            Ok(eof) => {
                let n = data.len();
                let info =
                    if eof { format!("{n} rows eof") } else { format!("{n} rows") };
                Ok(Reply::ok_with(data, info))
            }
            Err(e) => {
                let terminal = watch.failure(e, &tenant, &entry.plan);
                Err(Reply { data, terminal: terminal.terminal })
            }
        }
    }

    /// `SEEK <id> <k>`: position a cursor so the next `FETCH` starts at
    /// the k-th answer (0-based). O(1) cursor arithmetic on
    /// direct-access and materialized plans — the skipped prefix is
    /// never enumerated; `ERR unsupported` (citing the plan operator)
    /// on constant-delay enumeration plans, which have no random
    /// access (Lemma 3.23 makes that a structural fact, not a missing
    /// feature).
    pub(super) fn seek_cursor(&mut self, id: u64, k: u64) -> Handled {
        match self.live_cursor(id)?.answers.seek(k) {
            Ok(()) => Ok(Reply::ok(format!("cursor {id} at {k}"))),
            Err(EvalError::Unsupported(msg)) => {
                Err(Reply::err(ErrKind::Unsupported, msg))
            }
            Err(e) => Err(Reply::err(ErrKind::Eval, e)),
        }
    }

    /// `CLOSE <id>`: release a cursor and its pinned artifacts.
    pub(super) fn close_cursor(&mut self, id: u64) -> Handled {
        let entry = self.cursors.remove(&id).ok_or_else(|| no_such_cursor(id))?;
        entry.tenant.metrics().cursor_closed(false);
        Ok(Reply::ok(format!("closed cursor {id}")))
    }

    pub(super) fn explain(&mut self, tenant: &Tenant, task: Task, src: &str) -> Handled {
        let q = self.statements.query(src)?;
        let statements = &mut self.statements;
        tenant.read(|db, catalog| {
            let plan = statements.plan(src, task, db.generation(), || catalog.stats(db));
            let text = cq_planner::explain::render(&plan, &q);
            Ok(Reply::ok_with(text.lines().map(str::to_string).collect(), ""))
        })
    }

    /// `EXPLAIN ANALYZE <task> <query>`: the EXPLAIN plan rendering,
    /// then the query actually executed under a trace sink, with
    /// tracing on or off — the reply appends measured wall-clock, the
    /// observed row count against the planner's predicted `m^e` worst
    /// case, and the per-operator span tree (time plus recorded
    /// attributes). Answer streams are drained server-side: this command
    /// measures, it does not stream.
    pub(super) fn explain_analyze(
        &mut self,
        tenant: &Tenant,
        task: Task,
        src: &str,
    ) -> Handled {
        debug_assert!(task != Task::Access, "the protocol layer never builds this");
        let q = self.statements.query(src)?;
        let watch = self.watch(tenant);
        // the request's own sink when the server profiles — its end
        // hands the trace to PROFILE — else a one-shot sink for the reply
        let sink = Some(trace::current())
            .filter(TraceSink::is_enabled)
            .unwrap_or_else(TraceSink::enabled);
        let (out, plan, ()) = trace::with(&sink, || {
            self.plan_and_execute(tenant, task, src, &q, &watch, |_| ())
        })?;
        let rows = match out {
            Output::Count(n) => n,
            Output::Decision(d) => u64::from(d),
            // drain answers to count rows; the stream records its span
            // on drop, so the measured output below sees the full drain
            Output::Answers(mut answers) => {
                let mut n: u64 = 0;
                pull_rows(&mut answers, u64::MAX, |_| n += 1)
                    .map_err(|e| watch.failure(e, tenant, &plan))?;
                n
            }
        };
        let total = watch.started.elapsed();
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
        if let Some(tr) = sink.snapshot(tenant.name(), src) {
            push_span_lines(&mut data, &tr, |depth, sp| {
                format!(
                    "{}{} time={:.3}ms",
                    "  ".repeat(depth + 1),
                    sp.name,
                    sp.elapsed.as_secs_f64() * 1e3
                )
            });
        }
        Ok(Reply::ok_with(data, "analyzed"))
    }

    pub(super) fn open_batch(&mut self) -> Handled {
        self.mode = Mode::Batching { items: Vec::new() };
        Ok(Reply::ok("batching; DECIDE|COUNT|ANSWERS items until END"))
    }

    /// One line inside a `BATCH` block: an item, or the closing `END`.
    pub(super) fn batch_line(&mut self, line: &str) -> Option<Reply> {
        let Mode::Batching { items } = &mut self.mode else {
            unreachable!("caller checked mode")
        };
        if !line.eq_ignore_ascii_case(END_KEYWORD) {
            items.push(parse_batch_item(line));
            return None;
        }
        let items = std::mem::take(items);
        self.mode = Mode::Idle;
        Some(self.finish_batch(items).unwrap_or_else(|e| e))
    }

    fn finish_batch(&mut self, items: Vec<BatchItem>) -> Handled {
        let tenant = self.regate("batch")?;
        let n = items.len();
        // one watch: the tenant's deadline covers the batch as a whole.
        // One read lock: every item sees the same database state
        let watch = self.watch(&tenant);
        tenant.read(|db, catalog| {
            let mut data = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                let line = match item {
                    BatchItem::Bad(reply) => reply.terminal.clone(),
                    BatchItem::Task(task, src) => self
                        .batch_item(&tenant, (db, catalog), *task, src, &watch)
                        .unwrap_or_else(|e| e.terminal),
                };
                data.push(format!("{i} {line}"));
            }
            Ok(Reply::ok_with(data, format!("batch of {n} items")))
        })
    }

    /// One `BATCH` item, down the path of a statement of its own: the
    /// terminal line of its reply. The text is parsed right before its
    /// plan, so however long the block, the memo still holds it then. An
    /// `ANSWERS` item reports its row count, pulled here so the deadline
    /// can also trip mid-drain.
    fn batch_item(
        &mut self,
        tenant: &Tenant,
        locked: (&Database, &IndexCatalog),
        task: Task,
        src: &str,
        watch: &Watch,
    ) -> Result<String, Reply> {
        let q = self.statements.query(src)?;
        match self.execute_locked(tenant, locked, task, src, &q, watch)? {
            (Output::Answers(mut answers), plan) => {
                let mut rows: u64 = 0;
                pull_rows(&mut answers, u64::MAX, |_| rows += 1)
                    .map_err(|e| watch.failure(e, tenant, &plan))?;
                Ok(format!("OK {rows} rows"))
            }
            (out, _) => Ok(render_output(out).terminal),
        }
    }
}

fn no_such_cursor(id: u64) -> Reply {
    Reply::err(ErrKind::NoSuchCursor, format!("no open cursor {id} in this session"))
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

/// A `BATCH` item line: `DECIDE|COUNT|ANSWERS <query-text>`. The text
/// is parsed when the block runs, through the statement memo.
fn parse_batch_item(line: &str) -> BatchItem {
    let (verb, src) = split_word(line);
    let Some(task) = query_task(&verb.to_ascii_uppercase()) else {
        return BatchItem::Bad(Reply::err(
            ErrKind::Usage,
            format!("batch items are DECIDE|COUNT|ANSWERS <query>, got `{verb}`"),
        ));
    };
    if src.is_empty() {
        return BatchItem::Bad(Reply::err(ErrKind::Usage, "batch item needs a query"));
    }
    BatchItem::Task(task, src.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::testkit::{drive, load_triangle, session, warm_triangle};
    use crate::server::Action;
    use crate::state::ServerState;
    use cq_data::Relation;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn a_batch_runs_the_probe_on_the_session_thread_only() {
        let mut s = session();
        let threads = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&threads);
        s.set_cancel_probe(move || {
            seen.lock().unwrap().push(std::thread::current().id());
            false
        });
        load_triangle(&mut s, "b");
        let item = "COUNT q(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)";
        let mut lines = vec!["BATCH"];
        lines.extend([item; 8]);
        lines.push("END");
        let done = drive(&mut s, &lines).pop().unwrap().unwrap();
        assert_eq!(done.terminal, "OK batch of 8 items");
        assert!(done.data.iter().all(|l| l.contains(" OK ")), "{:?}", done.data);
        let me = std::thread::current().id();
        assert!(threads.lock().unwrap().iter().all(|&t| t == me));
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
        assert_eq!(r.data.len(), 3, "{:?}", r.data);
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

    /// Admission happens before any execution work: with statistics
    /// warm, a rejected statement and a rejected `BATCH` item build
    /// nothing in the tenant's catalog.
    #[test]
    fn budget_rejects_before_execution() {
        let mut s = session();
        s.handle_line("CREATE DB b");
        s.handle_line("USE b");
        drive(&mut s, &["LOAD R 2", "1 2", "2 3", "END"]);
        s.handle_line("SET BUDGET b MAX-EXPONENT 0");
        let tenant = s.state.tenant("b").unwrap();
        // warm the statistics entries, so a miss now would be an execution
        // artifact (an index, a reduced tree)
        let misses = || {
            tenant.read(|db, cat| {
                let _ = cat.stats(db);
                cat.snapshot().misses
            })
        };
        let before = misses();
        let count = "COUNT q(x, z) :- R(x, y), R(y, z)";
        let r = s.handle_line(count).unwrap();
        assert!(r.terminal.starts_with("ERR budget:"), "{}", r.terminal);
        assert!(r.terminal.contains("MAX-EXPONENT"), "{}", r.terminal);
        let done = drive(&mut s, &["BATCH", count, "END"]).pop().unwrap().unwrap();
        assert!(done.data[0].starts_with("0 ERR budget:"), "{}", done.data[0]);
        assert_eq!(misses(), before, "nothing was built");
        // lifting the budget admits the same query
        s.handle_line("SET BUDGET b NONE");
        assert_eq!(s.handle_line(count).unwrap().terminal, "OK 1");
    }

    #[test]
    fn batch_items_count_in_the_op_metrics() {
        let mut s = session();
        load_triangle(&mut s, "b");
        let item = "DECIDE q() :- R1(x, y)";
        let done = drive(&mut s, &["BATCH", item, item, "END"]).pop().unwrap().unwrap();
        assert_eq!(done.data, ["0 OK true", "1 OK true"]);
        let m = s.handle_line("METRICS b").unwrap();
        let want = "db.b op.yannakakis-semijoin-sweep.calls=2";
        assert!(m.data.iter().any(|l| l == want), "{:?}", m.data);
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
        // a Boolean ACCESS cursor pages out `{()}` or `{}` on both sides
        // of the dichotomy: free-connex direct access for the 2-path,
        // materialize + sort for the triangle
        let access = |s: &mut Session, q: &str| {
            let r = s.handle_line(&format!("CURSOR ACCESS {q}")).unwrap();
            let id = r.ok_info().and_then(|i| i.strip_prefix("cursor "));
            let id = id.unwrap_or_else(|| panic!("{q}: {}", r.terminal)).to_string();
            let page = s.handle_line(&format!("FETCH {id} 5")).unwrap();
            assert!(page.terminal.ends_with(" rows eof"), "{q}: {}", page.terminal);
            page.data
        };
        let (path, triangle) =
            ("q() :- E(x, y), E(y, z)", "q() :- E(x, y), E(y, z), E(z, x)");
        s.handle_line("INSERT E(1, 2)");
        assert_eq!(access(&mut s, path), Vec::<String>::new());
        assert_eq!(access(&mut s, triangle), Vec::<String>::new());
        s.handle_line("INSERT E(2, 3)");
        s.handle_line("INSERT E(3, 1)");
        assert_eq!(access(&mut s, path), ["()"]);
        assert_eq!(access(&mut s, triangle), ["()"]);
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
        // never enumerated (`Answers::seek` moves a position only — the
        // engine's stream test reads 2 accesses off the
        // `stream.direct-access` span for a pull and a seek to the end)
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
    fn each_fetch_traces_the_stream_work_it_did() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.state.set_profile_capacity(64);
        drive(&mut s, &["LOAD R1 2", "1 10", "2 10", "3 11", "END"]);
        drive(&mut s, &["LOAD R2 2", "10 7", "10 8", "11 8", "END"]);
        let q = "q(x, y, z) :- R1(x, y), R2(y, z)";
        for (id, verb, span) in
            [(0, "ANSWERS", "stream.enumerate"), (1, "ACCESS", "stream.direct-access")]
        {
            let r = s.handle_line(&format!("CURSOR {verb} {q}")).unwrap();
            assert_eq!(r.terminal, format!("OK cursor {id}"));
            let mut fetched = vec![];
            for line in [format!("FETCH {id} 2"), format!("FETCH {id} 1")]
                .into_iter()
                .chain((verb == "ACCESS").then(|| format!("SEEK {id} 3")))
                .chain([format!("FETCH {id} 9"), format!("CLOSE {id}")])
            {
                let r = s.handle_line(&line).unwrap();
                assert!(r.is_ok(), "{line}: {}", r.terminal);
                if line.starts_with("FETCH") {
                    fetched.push((line, r.data.len() as u64));
                }
            }
            assert_eq!(fetched.iter().map(|f| f.1).collect::<Vec<_>>(), [2, 1, 2]);
            let traces = s.state.tenant("t").unwrap().metrics().recent_traces();
            for (line, rows) in fetched {
                let tr = traces.iter().rev().find(|t| t.query == line).expect(&line);
                let mut spans = vec![];
                tr.visit(|_, sp| spans.push((sp.name.clone(), sp.attr("rows"))));
                assert_eq!(spans, [(span.to_string(), Some(rows))], "{line}");
                let mut steps = None;
                tr.visit(|_, sp| steps = sp.attr("steps"));
                assert_eq!(steps.is_some(), verb == "ANSWERS", "{line}: a walk's steps");
            }
        }
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
        // neither do writes to relations the cursor does not read: the
        // pages on both sides of the write are one uninterrupted stream
        assert!(s.handle_line("INSERT S(7)").unwrap().is_ok());
        drive(&mut s, &["LOAD T 1", "5", "END"]);
        let r = s.handle_line("FETCH 0 5").unwrap();
        assert_eq!(r.terminal, "OK 1 rows eof");
        assert_eq!(r.data, ["3 4"]);
        s.handle_line("CLOSE 0");
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        // a mutation of a relation it reads moves that relation's
        // version: the pinned state is gone
        s.handle_line("INSERT R(9, 9)");
        let r = s.handle_line("FETCH 1 1").unwrap();
        assert!(r.terminal.starts_with("ERR stale-cursor:"), "{}", r.terminal);
        assert!(r.terminal.contains("re-open"), "{}", r.terminal);
        // the stale cursor was evicted, and the metrics say so
        let r = s.handle_line("FETCH 1 1").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-cursor"), "{}", r.terminal);
        let m = s.handle_line("METRICS t").unwrap();
        assert!(m.data.iter().any(|l| l == "db.t cursors.stale=1"), "{:?}", m.data);
        assert!(m.data.iter().any(|l| l == "db.t cursors.open=0"), "{:?}", m.data);
        // SEEK on a stale cursor is the same structured eviction
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        s.handle_line("INSERT R(8, 8)");
        let r = s.handle_line("SEEK 2 0").unwrap();
        assert!(r.terminal.starts_with("ERR stale-cursor:"), "{}", r.terminal);
        // dropping the tenant invalidates too
        s.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        s.handle_line("DROP DB t");
        let r = s.handle_line("FETCH 3 1").unwrap();
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
                t.mutate(|db| {
                    let rel = db.get_mut("R").expect("loaded above");
                    rel.insert_row(&[7, 7]);
                });
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
    fn stream_of<'a>(s: &mut Session, line: &'a str) -> AnswerFlow<'a> {
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
        // each mid-drain `ERR timeout` is an error of the tenant's
        assert!(has("db.t errors=2".to_string()), "{:?}", m.data);
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
        s.state.set_profile_capacity(4);
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

    /// A warm `COUNT` is one catalog lookup, on the hard side too: a
    /// repeat of its text is one hit and no build, a write to a relation
    /// the query does not read keeps it served, and a write to one it
    /// reads answers the new count, which is kept in turn.
    #[test]
    fn a_warm_count_is_one_catalog_lookup_until_what_it_reads_is_written() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        load_triangle(&mut s, "t");
        let tenant = state.tenant("t").unwrap();
        let lookups = || {
            let snap = tenant.read_meta().0;
            (snap.hits, snap.misses)
        };
        let tri = "COUNT q(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)";
        let mut count = |line: &str| s.handle_line(line).unwrap().terminal;
        assert_eq!(count(tri), "OK 1");
        let (hits, misses) = lookups();
        assert_eq!(count(tri), "OK 1");
        assert_eq!(lookups(), (hits + 1, misses), "a repeat is one hit");
        // the write moves the generation, so the statement is planned
        // again: `Other`'s statistics are collected, R1–R3's are served,
        // and so is the count
        assert!(count("INSERT Other(1)").starts_with("OK"));
        assert_eq!(count(tri), "OK 1");
        assert_eq!(lookups(), (hits + 1 + 3 + 1, misses + 1), "only Other's statistics");
        // a write to what the count reads is a new count
        assert!(count("INSERT R3(3, 4)").starts_with("OK"));
        assert!(count("INSERT R1(4, 2)").starts_with("OK"));
        assert_eq!(count(tri), "OK 2");
        let (hits, misses) = lookups();
        assert_eq!(count(tri), "OK 2");
        assert_eq!(lookups(), (hits + 1, misses), "the new count is kept");
    }

    /// A `COUNT` cut off inside its join — here by a liveness probe
    /// reporting the client gone — stores no answer: the next `COUNT`
    /// joins again and answers in full, and that answer is kept.
    #[test]
    fn a_count_cut_off_mid_join_leaves_nothing_behind() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        // R1 = R2 = R3 = every pair over 0..30: 27 000 triangles
        let full =
            Relation::from_pairs((0..30).flat_map(|a| (0..30).map(move |b| (a, b))));
        let tenant = s.state.tenant("t").unwrap();
        tenant.mutate(|db| {
            for name in ["R1", "R2", "R3"] {
                db.insert(name, full.clone());
            }
        });
        // the probe reports the client gone from its `trip_at`-th call on
        let calls = Arc::new(AtomicUsize::new(0));
        let trip_at = Arc::new(AtomicUsize::new(usize::MAX));
        let (n, at) = (Arc::clone(&calls), Arc::clone(&trip_at));
        s.set_cancel_probe(move || {
            n.fetch_add(1, Ordering::SeqCst) >= at.load(Ordering::SeqCst)
        });
        let tri = "COUNT q(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)";
        let mut probed = |line: &str| {
            calls.store(0, Ordering::SeqCst);
            let terminal = s.handle_line(line).unwrap().terminal;
            (terminal, calls.load(Ordering::SeqCst))
        };
        let (answer, built) = probed(tri);
        assert_eq!(answer, "OK 27000");
        let (answer, served) = probed(tri);
        assert_eq!(answer, "OK 27000");
        assert!(
            built >= served + 4,
            "the join polls: {built} calls built, {served} served"
        );
        // R1(30, 0) and R3(0, 30) close one more triangle
        assert!(probed("INSERT R1(30, 0)").0.starts_with("OK"));
        assert!(probed("INSERT R3(0, 30)").0.starts_with("OK"));
        // halfway through the calls of a build: inside the join
        trip_at.store(served + (built - served) / 2, Ordering::SeqCst);
        let (answer, _) = probed(tri);
        assert!(answer.starts_with("ERR timeout:"), "{answer}");
        assert!(answer.contains("client disconnected"), "{answer}");
        trip_at.store(usize::MAX, Ordering::SeqCst);
        let (answer, rebuilt) = probed(tri);
        assert_eq!(answer, "OK 27001", "nothing of the cut-off count is served");
        assert!(rebuilt >= served + 4, "joined again: {rebuilt} calls");
        let lookups = || {
            let snap = tenant.read_meta().0;
            (snap.hits, snap.misses)
        };
        let (hits, misses) = lookups();
        assert_eq!(probed(tri).0, "OK 27001");
        assert_eq!(lookups(), (hits + 1, misses), "the full count is kept");
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
        // an item's timeout cites its plan, as a query's of its own does
        let item = &r.data[0];
        assert!(item.starts_with("0 ERR timeout:"), "{item}");
        assert!(item.contains("0 ms deadline"), "{item}");
        assert!(item.contains("plan cost m^"), "{item}");
        assert!(item.contains("Hypothesis"), "{item}");
        let m = s.handle_line("METRICS b").unwrap();
        assert!(m.data.iter().any(|l| l == "db.b timeouts=1"), "{:?}", m.data);
        assert!(
            !m.data.iter().any(|l| l.starts_with("db.b cancellations=")),
            "{:?}",
            m.data
        );
    }

    #[test]
    fn a_deadline_that_trips_while_a_batch_item_drains_is_a_timeout() {
        // a 2000 x 2000 cross product: preprocessing is two small
        // sorted views, draining 4 * 10^6 rows outlasts the deadline
        // many times over — so the trip surfaces mid-drain, long after
        // the item's preprocessing came back clean
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let side = Relation::from_rows(1, (0..2000u64).map(|i| vec![i]));
        s.state.tenant("t").unwrap().mutate(|db| {
            db.insert("A", side.clone());
            db.insert("B", side);
        });
        assert!(s.handle_line("DECIDE q() :- A(x), B(y)").unwrap().is_ok(), "warms up");
        s.handle_line("SET TIMEOUT t 20");
        let replies = drive(&mut s, &["BATCH", "ANSWERS q(x, y) :- A(x), B(y)", "END"]);
        let done = replies[2].as_ref().unwrap();
        assert!(
            done.data[0].starts_with("0 ERR timeout: evaluation exceeded the 20 ms"),
            "attributed to the deadline, not to a vanished client: {}",
            done.data[0]
        );
        assert!(done.data[0].contains("plan cost m^"), "{}", done.data[0]);
        let m = s.handle_line("METRICS t").unwrap();
        assert!(m.data.iter().any(|l| l == "db.t timeouts=1"), "{:?}", m.data);
        assert!(
            !m.data.iter().any(|l| l.starts_with("db.t cancellations=")),
            "nobody disconnected: {:?}",
            m.data
        );
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
            s.state.set_profile_capacity(4);
            for (a, b) in &pairs {
                s.handle_line(&format!("INSERT Edge({a}, {b})"));
            }
            let r = s.handle_line("ANSWERS q(x, y) :- Edge(x, y)").unwrap();
            prop_assert!(r.is_ok(), "{}", r.terminal);
            let emitted = r.data.len() as u64;
            let traces = s.state.tenant("t").unwrap().metrics().recent_traces();
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
            let traces = s.state.tenant("t").unwrap().metrics().recent_traces();
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
