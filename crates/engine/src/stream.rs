//! Pull-driven answer streams — constant-delay enumeration as an API.
//!
//! The paper's enumeration guarantee (Thm 3.17) is *incremental*: after
//! linear preprocessing, answers arrive one at a time with O(1) delay
//! and O(1) extra memory. [`AnswerStream`] is that guarantee as a trait:
//! a consumer pulls rows with [`AnswerStream::next`] and never forces
//! the producer to hold more than one row. Direct-access structures
//! (Thm 3.24 / 3.18) additionally support [`AnswerStream::seek`] — an
//! O(log m) jump to the k-th answer that does *not* enumerate the
//! skipped prefix.
//!
//! Cancellation is folded into `next`: every stream owns a
//! [`CancelToken`] (installed via [`AnswerStream::set_cancel`]) and
//! polls it per pulled row, so a deadline or a vanished client stops a
//! long drain within one delay step.
//!
//! Order contract: a stream emits rows in its *producer's* native
//! deterministic order — enumeration order for the constant-delay
//! enumerator, the structure's lexicographic order for direct access,
//! normalized sorted order for materialized relations. Lemma 3.23 shows
//! sorted emission for disrupted orders is impossible without
//! superlinear preprocessing, so callers who need normalized output
//! collect and sort (`eval::answers*` does exactly that).
//!
//! Tracing: each stream captures the thread's current
//! [`TraceSink`](cq_obs::TraceSink) at construction (construction
//! happens inside the executor's `trace::with` scope; draining usually
//! does not) and records one `stream.*` span over its whole lifetime,
//! tagged with the rows it actually emitted and the cancel polls it
//! absorbed. With tracing off — the default — the capture is a
//! thread-local read and the span guard is inert.

use crate::bind::EvalError;
use crate::cancel::CancelToken;
use crate::direct_access::DirectAccess;
use cq_core::Var;
use cq_data::{Relation, Val};
use cq_obs::trace::{self, SpanGuard};

/// A pull-driven stream of answer rows over a fixed schema.
///
/// `next` yields a borrow of the stream's internal row buffer — valid
/// until the next call — so a full drain copies each row at most once,
/// into whatever the consumer is building (a wire chunk, a relation).
///
/// `Send + Sync` because streams outlive the evaluation call that made
/// them: they ride inside server cursors that hop threads.
pub trait AnswerStream: Send + Sync {
    /// The output schema: free variables in interning order. Row slices
    /// from [`AnswerStream::next`] are indexed parallel to this.
    fn schema(&self) -> &[Var];

    /// Pull the next answer row, or `Ok(None)` when exhausted. Polls
    /// the stream's cancel token; a trip surfaces as
    /// [`EvalError::Cancelled`] and the stream stays usable (the token
    /// latches, so further pulls keep failing).
    fn next(&mut self) -> Result<Option<&[Val]>, EvalError>;

    /// Position the stream so the next pull yields the k-th answer
    /// (0-based). Only supported where the producer has random access
    /// ([`AnswerStream::can_seek`]); the default refuses.
    fn seek(&mut self, k: u64) -> Result<(), EvalError> {
        let _ = k;
        Err(EvalError::Unsupported(
            "this answer stream does not support seek (no direct-access structure \
             backs it)"
                .to_string(),
        ))
    }

    /// Does [`AnswerStream::seek`] work on this stream?
    fn can_seek(&self) -> bool {
        false
    }

    /// Install the cancel token polled by [`AnswerStream::next`].
    fn set_cancel(&mut self, cancel: CancelToken);

    /// Total number of answers, when the producer knows it without
    /// enumerating (direct access / materialized).
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// Drain the remaining rows into a normalized [`Relation`] over the
    /// schema — the bridge back to the materialized world.
    fn collect(&mut self) -> Result<Relation, EvalError> {
        let mut rel = Relation::new(self.schema().len());
        while let Some(row) = self.next()? {
            rel.push_row(row);
        }
        rel.normalize();
        Ok(rel)
    }
}

/// A materialized [`Relation`] as a trivial (seekable) stream — how
/// materializing operators join the streaming answer path.
pub struct RelationStream {
    schema: Vec<Var>,
    rel: Relation,
    pos: usize,
    cancel: CancelToken,
    rows: u64,
    span: Option<SpanGuard>,
}

impl RelationStream {
    /// Stream `rel` (whatever order its rows are in) under `schema`.
    pub fn new(schema: Vec<Var>, rel: Relation) -> Self {
        debug_assert!(rel.is_empty() || rel.arity() == schema.len());
        RelationStream {
            schema,
            rel,
            pos: 0,
            cancel: CancelToken::never(),
            rows: 0,
            span: Some(trace::current().span("stream.relation")),
        }
    }
}

impl Drop for RelationStream {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.attr("rows", self.rows);
            span.attr("cancel-polls", self.cancel.polls());
        }
    }
}

impl AnswerStream for RelationStream {
    fn schema(&self) -> &[Var] {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<&[Val]>, EvalError> {
        self.cancel.check()?;
        if self.pos >= self.rel.len() {
            return Ok(None);
        }
        let row = self.rel.row(self.pos);
        self.pos += 1;
        self.rows += 1;
        Ok(Some(row))
    }

    fn seek(&mut self, k: u64) -> Result<(), EvalError> {
        self.pos = usize::try_from(k).unwrap_or(usize::MAX);
        Ok(())
    }

    fn can_seek(&self) -> bool {
        true
    }

    fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.rel.len() as u64)
    }
}

/// A [`DirectAccess`] structure as a seekable stream: `next` is
/// `access_into(pos, buf); pos += 1` into one reused row buffer (so a
/// pull allocates nothing), `seek(k)` just moves `pos` — the skipped
/// prefix is never touched, which is exactly the Õ(log m) random-access
/// guarantee of Thm 3.24 / 3.18 surfaced as a cursor.
pub struct DirectAccessStream {
    schema: Vec<Var>,
    da: Box<dyn DirectAccess + Send + Sync>,
    pos: u64,
    buf: Vec<Val>,
    cancel: CancelToken,
    accesses: u64,
    span: Option<SpanGuard>,
}

impl DirectAccessStream {
    /// Stream `da`'s answers (in the structure's own order) under
    /// `schema`.
    pub fn new(schema: Vec<Var>, da: Box<dyn DirectAccess + Send + Sync>) -> Self {
        DirectAccessStream {
            schema,
            da,
            pos: 0,
            buf: Vec::new(),
            cancel: CancelToken::never(),
            accesses: 0,
            span: Some(trace::current().span("stream.direct-access")),
        }
    }

    /// How many `access(i)` calls this stream has issued — the
    /// observable witness that `seek` skips the prefix instead of
    /// enumerating it.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

impl Drop for DirectAccessStream {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.attr("rows", self.accesses);
            span.attr("cancel-polls", self.cancel.polls());
        }
    }
}

impl AnswerStream for DirectAccessStream {
    fn schema(&self) -> &[Var] {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<&[Val]>, EvalError> {
        self.cancel.check()?;
        if !self.da.access_into(self.pos, &mut self.buf) {
            return Ok(None);
        }
        self.accesses += 1;
        self.pos += 1;
        Ok(Some(&self.buf))
    }

    fn seek(&mut self, k: u64) -> Result<(), EvalError> {
        self.pos = k;
        Ok(())
    }

    fn can_seek(&self) -> bool {
        true
    }

    fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.da.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct_access::LexDirectAccess;
    use cq_core::parse_query;
    use cq_data::generate::{path_database, seeded_rng};
    use cq_data::Database;

    fn db_and_query() -> (Database, cq_core::ConjunctiveQuery) {
        let db = path_database(2, 60, &mut seeded_rng(11));
        let q = parse_query("q(x0, x1, x2) :- R1(x0,x1), R2(x1,x2)").unwrap();
        (db, q)
    }

    #[test]
    fn relation_stream_yields_every_row_then_none() {
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4), (5, 6)]);
        let mut s = RelationStream::new(vec![Var(0), Var(1)], rel.clone());
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
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4), (5, 6)]);
        let mut s = RelationStream::new(vec![Var(0), Var(1)], rel.clone());
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
        let (db, q) = db_and_query();
        let order: Vec<Var> = q.free_vars();
        let da =
            LexDirectAccess::build(&crate::ExecCtx::cold(), &q, &db, &order).unwrap();
        let n = da.len();
        assert!(n > 10, "need a non-trivial result");
        let want_k = da.access(n - 1).unwrap();
        let mut s = DirectAccessStream::new(order.clone(), Box::new(da));
        assert!(s.can_seek());
        assert_eq!(s.size_hint(), Some(n));
        // first row, then jump to the last: exactly 2 accesses total
        s.next().unwrap().unwrap();
        s.seek(n - 1).unwrap();
        assert_eq!(s.next().unwrap().unwrap(), &want_k[..]);
        assert!(s.next().unwrap().is_none());
        assert_eq!(s.accesses(), 2, "seek must not enumerate the skipped prefix");
    }

    #[test]
    fn collect_normalizes() {
        let rel = Relation::from_pairs(vec![(5, 6), (1, 2), (3, 4)]);
        let mut s = RelationStream::new(vec![Var(0), Var(1)], rel);
        let got = s.collect().unwrap();
        let mut want = Relation::from_pairs(vec![(5, 6), (1, 2), (3, 4)]);
        want.normalize();
        assert_eq!(got, want);
    }
}
