//! Pull-driven answer streams — constant-delay enumeration as an API.
//!
//! The paper's enumeration guarantee (Thm 3.17) is *incremental*: after
//! linear preprocessing, answers arrive one at a time with O(1) delay
//! and O(1) extra memory. [`Answers`] is that guarantee as a type: a
//! consumer pulls rows with [`Answers::next`] and never forces the
//! producer to hold more than one row. One type, three sources:
//!
//! * a **walk** of the reduced tree enumeration and direct access share
//!   ([`Answers::walk`]): `next` is O(1) (Thm 3.17); it has no random
//!   access, so `seek` refuses;
//! * **direct access** ([`Answers::access`]) to a [`LexDirectAccess`],
//!   the engine's one direct-access structure — that tree (Thm 3.24 /
//!   3.18) or the one node of sorted materialized answers (Lemma 3.23):
//!   `seek` is an O(1) position move that never touches the skipped
//!   prefix, and each `next` is one O(log m) access;
//! * a **materialized** relation ([`Answers::rows`], the hard side's
//!   fallback of Lemma 3.9): `next` and `seek` are O(1), each row
//!   borrowed in place.
//!
//! Cancellation is folded into `next`: a stream owns a [`CancelToken`]
//! (installed via [`Answers::set_cancel`]) and polls it per pulled row,
//! so a deadline or a vanished client stops a long drain within one
//! delay step.
//!
//! Order contract: a stream emits rows in its *source's* native
//! deterministic order — enumeration order for the walk, the
//! structure's lexicographic order for direct access, normalized sorted
//! order for materialized relations. Lemma 3.23 shows sorted emission
//! for disrupted orders is impossible without superlinear
//! preprocessing, so callers who need normalized output collect and
//! sort (`EvalCtx::answers` in cq-planner does exactly that).
//!
//! Tracing: a stream records one span per *pull window* —
//! `stream.enumerate`, `stream.direct-access` or `stream.relation` —
//! tagged with the rows it emitted in the window (a walk adds its
//! `steps`) and the polls of the window's token. A window begins at
//! construction and at each [`Answers::set_cancel`] — which is how a
//! request hands the stream its token — and ends at the next one or at
//! drop. Its span opens at the window's first pull, in the thread's
//! current [`TraceSink`] as of the window's begin (construction happens
//! inside the executor's `trace::with` scope; draining usually does
//! not). So a drain records one span into the trace of the statement
//! that built the stream, and a cursor, which each `FETCH` hands a token
//! and takes it back from, one per `FETCH` into that `FETCH`'s trace.
//! With tracing off — the default — the capture is a thread-local read
//! and the span guard is inert.

use crate::bind::EvalError;
use crate::cancel::CancelToken;
use crate::direct_access::{DirectAccess, LexDirectAccess};
use crate::enumerate::Walk;
use cq_core::Var;
use cq_data::{Relation, Val};
use cq_obs::trace::{self, SpanGuard, TraceSink};
use std::sync::Arc;

/// A pull-driven stream of answer rows over a fixed schema.
///
/// `next` yields a borrow of the stream's current row — valid until the
/// next call — so a full drain copies each row at most once, into
/// whatever the consumer is building (a wire chunk, a relation).
///
/// `Send + Sync` because streams outlive the evaluation call that made
/// them: they ride inside server cursors that hop threads.
pub struct Answers {
    schema: Vec<Var>,
    /// Boxed, so the planner's `Output` — a stream or a scalar — stays
    /// small.
    source: Box<Source>,
    cancel: CancelToken,
    /// Rows emitted in the current pull window: its span's `rows`.
    rows: u64,
    window: Window,
}

/// The trace span of the current pull window.
enum Window {
    /// No pull yet: the span will open in this sink.
    Pending(TraceSink),
    /// Pulled from: the span records when the window ends.
    Open(SpanGuard),
}

/// Where an [`Answers`] stream's rows come from.
enum Source {
    /// The odometer over the shared reduced tree.
    Walk(Walk),
    /// Position `pos` of the direct-access structure, read into `buf`.
    Access { da: Arc<LexDirectAccess>, pos: u64, buf: Vec<Val> },
    /// Row `pos` of a materialized relation.
    Rows { rel: Relation, pos: usize },
}

impl Source {
    /// The span a stream over this source records.
    fn span_name(&self) -> &'static str {
        match self {
            Source::Walk(_) => "stream.enumerate",
            Source::Access { .. } => "stream.direct-access",
            Source::Rows { .. } => "stream.relation",
        }
    }
}

impl Answers {
    fn new(schema: Vec<Var>, source: Source) -> Answers {
        let (source, window) = (Box::new(source), Window::Pending(trace::current()));
        Answers { schema, source, cancel: CancelToken::never(), rows: 0, window }
    }

    /// The constant-delay walk of `tree` — the preprocessing
    /// [`crate::enumerate::preprocess`] returns — in its array order.
    pub fn walk(tree: Arc<LexDirectAccess>) -> Answers {
        Answers::new(tree.schema().to_vec(), Source::Walk(Walk::new(tree)))
    }

    /// `da`'s answers, in the structure's own order.
    pub fn access(da: Arc<LexDirectAccess>) -> Answers {
        let schema = da.schema().to_vec();
        Answers::new(schema, Source::Access { da, pos: 0, buf: Vec::new() })
    }

    /// The rows of `rel`, in whatever order they are, under `schema`.
    pub fn rows(schema: Vec<Var>, rel: Relation) -> Answers {
        debug_assert!(rel.is_empty() || rel.arity() == schema.len());
        Answers::new(schema, Source::Rows { rel, pos: 0 })
    }

    /// The output schema: free variables in interning order. Row slices
    /// from [`Answers::next`] are indexed parallel to this.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// Pull the next answer row, or `Ok(None)` when exhausted. Polls
    /// the stream's cancel token; a trip surfaces as
    /// [`EvalError::Cancelled`] and the stream stays usable (the token
    /// latches, so further pulls keep failing). Not an [`Iterator`]: the
    /// row borrows the stream, a lending shape `Iterator::next` cannot
    /// express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<&[Val]>, EvalError> {
        if let Window::Pending(sink) = &self.window {
            self.window = Window::Open(sink.span(self.source.span_name()));
        }
        self.cancel.check()?;
        let row = match &mut *self.source {
            Source::Walk(walk) => walk.next(),
            Source::Access { da, pos, buf } => {
                let found = da.access_into(*pos, buf);
                *pos += u64::from(found);
                found.then_some(&buf[..])
            }
            Source::Rows { rel, pos } if *pos < rel.len() => {
                *pos += 1;
                Some(rel.row(*pos - 1))
            }
            Source::Rows { .. } => None,
        };
        self.rows += u64::from(row.is_some());
        Ok(row)
    }

    /// Position the stream so the next pull yields the k-th answer
    /// (0-based): a position move, O(1), on direct access and
    /// materialized rows. A walk has no random access (Lemma 3.23) and
    /// refuses.
    pub fn seek(&mut self, k: u64) -> Result<(), EvalError> {
        match &mut *self.source {
            Source::Walk(_) => {
                return Err(EvalError::Unsupported(
                    "operator `constant-delay enumeration` enumerates with constant \
                     delay but has no random access; SEEK needs a direct-access or \
                     materialized plan"
                        .to_string(),
                ))
            }
            Source::Access { pos, .. } => *pos = k,
            Source::Rows { pos, .. } => *pos = usize::try_from(k).unwrap_or(usize::MAX),
        }
        Ok(())
    }

    /// Install the cancel token polled by [`Answers::next`]: a new pull
    /// window begins, in the thread's current trace sink, and the last
    /// one's span, if it pulled, records.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.end_window(trace::current());
        self.cancel = cancel;
    }

    /// End the pull window: tag its span, if it opened, with what the
    /// window did and record it, and leave the next one pending in
    /// `next`.
    fn end_window(&mut self, next: TraceSink) {
        if let Window::Open(span) = &mut self.window {
            span.attr("rows", std::mem::take(&mut self.rows));
            if let Source::Walk(walk) = &mut *self.source {
                span.attr("steps", std::mem::take(&mut walk.steps));
            }
            span.attr("cancel-polls", self.cancel.polls());
        }
        self.window = Window::Pending(next);
    }

    /// Total number of answers, when the source knows it without
    /// enumerating (direct access / materialized).
    pub fn size_hint(&self) -> Option<u64> {
        match &*self.source {
            Source::Walk(_) => None,
            Source::Access { da, .. } => Some(da.len()),
            Source::Rows { rel, .. } => Some(rel.len() as u64),
        }
    }

    /// Drain the remaining rows into a normalized (sorted, deduplicated)
    /// [`Relation`] over the schema — the bridge back to the
    /// materialized world.
    pub fn collect(mut self) -> Result<Relation, EvalError> {
        let mut rel = Relation::new(self.schema.len());
        while let Some(row) = self.next()? {
            rel.push_row(row);
        }
        rel.normalize();
        Ok(rel)
    }
}

impl Drop for Answers {
    fn drop(&mut self) {
        self.end_window(TraceSink::disabled());
    }
}

impl std::fmt::Debug for Answers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Answers")
            .field("schema", &self.schema)
            .field("source", &self.source.span_name())
            .field("size_hint", &self.size_hint())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::parse_query;
    use cq_data::generate::{path_database, seeded_rng};
    use cq_obs::trace::TraceSink;

    fn pairs() -> (Vec<Var>, Relation) {
        (vec![Var(0), Var(1)], Relation::from_pairs(vec![(1, 2), (3, 4), (5, 6)]))
    }

    #[test]
    fn relation_stream_yields_every_row_then_none() {
        let (schema, rel) = pairs();
        let mut s = Answers::rows(schema, rel.clone());
        assert_eq!(s.size_hint(), Some(3));
        let mut got = Vec::new();
        while let Some(row) = s.next().unwrap() {
            got.push(row.to_vec());
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], rel.row(0));
        assert!(s.next().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn relation_stream_seek_and_cancel() {
        let (schema, rel) = pairs();
        let mut s = Answers::rows(schema, rel.clone());
        s.seek(2).unwrap();
        assert_eq!(s.next().unwrap().unwrap(), rel.row(2));
        assert!(s.next().unwrap().is_none());
        let cancelled = CancelToken::never();
        cancelled.cancel();
        s.set_cancel(cancelled);
        s.seek(0).unwrap();
        assert_eq!(s.next(), Err(EvalError::Cancelled));
    }

    #[test]
    fn direct_access_stream_matches_access_and_seek_skips_prefix() {
        let db = path_database(2, 60, &mut seeded_rng(11));
        let q = parse_query("q(x0, x1, x2) :- R1(x0,x1), R2(x1,x2)").unwrap();
        let order: Vec<Var> = q.free_vars();
        let da =
            LexDirectAccess::build(&crate::ExecCtx::cold(), &q, &db, &order).unwrap();
        let n = da.len();
        assert!(n > 10, "need a non-trivial result");
        let want_k = da.access(n - 1).unwrap();
        let sink = TraceSink::enabled();
        let mut s = trace::with(&sink, || Answers::access(da));
        assert_eq!(s.size_hint(), Some(n));
        // first row, then jump to the last: exactly 2 accesses total
        s.next().unwrap().unwrap();
        s.seek(n - 1).unwrap();
        assert_eq!(s.next().unwrap().unwrap(), &want_k[..]);
        assert!(s.next().unwrap().is_none());
        drop(s);
        let mut accesses = None;
        sink.finish("test", "access").expect("enabled").visit(|_, span| {
            if span.name == "stream.direct-access" {
                accesses = span.attr("rows");
            }
        });
        assert_eq!(accesses, Some(2), "seek must not enumerate the skipped prefix");
    }

    #[test]
    fn collect_normalizes() {
        let rel = Relation::from_pairs(vec![(5, 6), (1, 2), (3, 4)]);
        let got = Answers::rows(vec![Var(0), Var(1)], rel).collect().unwrap();
        let mut want = Relation::from_pairs(vec![(5, 6), (1, 2), (3, 4)]);
        want.normalize();
        assert_eq!(got, want);
    }
}
