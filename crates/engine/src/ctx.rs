//! What every operator runs under: [`ExecCtx`].
//!
//! An evaluation has two cross-cutting inputs besides the query and the
//! database: the per-database [`IndexCatalog`] its indexes and
//! preprocessing products are memoized in, and the [`CancelToken`] its
//! loops poll. Every operator takes them together, as the first
//! parameter of its one entry point. A one-shot ("cold") evaluation is
//! not a second code path — it is [`ExecCtx::cold`], the same operator
//! over a catalog nobody keeps.
//!
//! A scalar answer — a count, or generic join's decision — is a catalog
//! entry too (`ExecCtx::scalar`): a warm one is one lookup, served
//! until a write to a relation its query reads.
//!
//! A live context is also one unit of the process-wide *busy* gauge:
//! an operator that can split its work (generic join's `COUNT`) hands
//! pieces to helper threads only while the gauge says a core is
//! free, so two connections evaluating at once on two cores spawn
//! nothing.

use crate::bind::EvalError;
use crate::cancel::CancelToken;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, IndexCatalog};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A field the context either borrows from its caller or owns itself
/// (the throwaway halves of [`ExecCtx::cold`] / [`ExecCtx::warm`]).
enum Held<'a, T> {
    Borrowed(&'a T),
    Owned(T),
}

impl<T> Held<'_, T> {
    fn get(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Owned(t) => t,
        }
    }
}

thread_local! {
    /// The text [`ExecCtx::scalar`] keys its lookup by, kept between
    /// calls so that a warm lookup formats its query without allocating.
    static KEY: Cell<String> = const { Cell::new(String::new()) };
}

/// Threads evaluating right now: one per live [`ExecCtx`], one per
/// running helper thread.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// One unit of the busy gauge, held for as long as its thread
/// evaluates.
pub(crate) struct Busy(());

impl Busy {
    pub(crate) fn enter() -> Busy {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy(())
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Cores no evaluation runs on: the machine's parallelism less the busy
/// gauge. A snapshot — two operators reading it at once may both take
/// the same core, for as long as one of them runs.
pub(crate) fn idle_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    cores.saturating_sub(BUSY.load(Ordering::Relaxed))
}

/// The catalog an operator acquires its indexes through and the token
/// its loops poll.
pub struct ExecCtx<'a> {
    catalog: Held<'a, IndexCatalog>,
    cancel: Held<'a, CancelToken>,
    /// Polls of the helper threads' siblings of `cancel`, which count
    /// their own: see [`ExecCtx::polls`].
    helper_polls: AtomicU64,
    _busy: Busy,
}

impl<'a> ExecCtx<'a> {
    fn with(catalog: Held<'a, IndexCatalog>, cancel: Held<'a, CancelToken>) -> Self {
        ExecCtx { catalog, cancel, helper_polls: AtomicU64::new(0), _busy: Busy::enter() }
    }

    /// Run against `catalog`, bounded by `cancel`. The token is
    /// borrowed, not cloned, so [`CancelToken::polls`] on the caller's
    /// handle counts the polling done on the calling thread under this
    /// context.
    pub fn new(catalog: &'a IndexCatalog, cancel: &'a CancelToken) -> ExecCtx<'a> {
        ExecCtx::with(Held::Borrowed(catalog), Held::Borrowed(cancel))
    }

    /// Run against `catalog`, never cancelled.
    pub fn warm(catalog: &'a IndexCatalog) -> ExecCtx<'a> {
        ExecCtx::with(Held::Borrowed(catalog), Held::Owned(CancelToken::never()))
    }

    /// One-shot evaluation: a throwaway catalog, dropped with the
    /// context, and a token that never trips.
    pub fn cold() -> ExecCtx<'static> {
        ExecCtx::with(Held::Owned(IndexCatalog::new()), Held::Owned(CancelToken::never()))
    }

    /// The catalog indexes and preprocessing products are memoized in.
    pub fn catalog(&self) -> &IndexCatalog {
        self.catalog.get()
    }

    /// The token the operator's loops poll.
    pub fn cancel(&self) -> &CancelToken {
        self.cancel.get()
    }

    /// Every poll made under this context: the token's, on the calling
    /// thread, and those of the helper threads' siblings of it.
    pub fn polls(&self) -> u64 {
        self.cancel().polls() + self.helper_polls.load(Ordering::Relaxed)
    }

    /// The scalar answer of one operator over `q` — a count or a
    /// decision — memoized as the catalog artifact `(kind, q)`, read from
    /// the relations of `q` (an absent one at version 0): a warm answer
    /// is one lookup, served until one of them is written, and `build`
    /// runs only on a miss. An error, cancellation included, is not
    /// memoized, so the next call runs `build` again. A
    /// [`cold`](ExecCtx::cold) context's catalog dies with it, so there
    /// `build` just runs.
    pub(crate) fn scalar<T: Copy + Send + Sync + 'static>(
        &self,
        db: &Database,
        kind: &'static str,
        q: &ConjunctiveQuery,
        build: impl FnOnce() -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        let Held::Borrowed(catalog) = self.catalog else { return build() };
        // `q`'s text, written into this thread's buffer; taken out while
        // in use, so a `build` that asks for a scalar itself gets its own
        let mut key = KEY.take();
        key.clear();
        write!(key, "{q}").expect("a query's text formats");
        let answer = catalog.artifact(db, kind, &key, q.relations(), build);
        KEY.set(key);
        answer.map(|t| *t)
    }

    /// Add a finished helper thread's polls to [`ExecCtx::polls`].
    pub(crate) fn add_helper_polls(&self, polls: u64) {
        self.helper_polls.fetch_add(polls, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{brute_force_count, brute_force_decide};
    use crate::{count, generic_join};
    use cq_core::query::zoo;
    use cq_data::generate::{random_pairs, seeded_rng, triangle_database};
    use cq_data::Relation;
    use cq_obs::trace::{self, Span, TraceSink};

    /// An operator returning its answer as a number, and its oracle.
    type Scalar<'a> = &'a dyn Fn(&ExecCtx, &Database) -> Result<u64, EvalError>;

    /// Run `op` on a fresh context over `catalog`, traced: its answer
    /// and its span `name`.
    fn traced(
        catalog: &IndexCatalog,
        name: &str,
        op: Scalar,
        db: &Database,
    ) -> (u64, Span) {
        let sink = TraceSink::enabled();
        let n = trace::with(&sink, || op(&ExecCtx::warm(catalog), db).unwrap());
        let mut found = None;
        sink.finish("test", name).expect("enabled").visit(|_, span| {
            if span.name == name {
                found = Some(span.clone());
            }
        });
        (n, found.unwrap_or_else(|| panic!("no `{name}` span")))
    }

    /// A warm count, and a warm hard-side decision, is one catalog lookup
    /// whose span reports the answer as `rows` and no work: no steps or
    /// seeks, no polls, no cold build, no morsels or workers. A write to
    /// a relation the query does not read keeps it; a write to one it
    /// reads makes the next call work again.
    #[test]
    fn a_warm_scalar_is_one_lookup_and_reports_no_work() {
        let mut db = triangle_database(&random_pairs(300, 30, &mut seeded_rng(3)));
        db.insert("Log", Relation::from_values(vec![1]));
        let (path, tri) = (zoo::path_join(3), zoo::triangle_join());
        let order = generic_join::default_order(&tri);
        let ops: [(&str, &str, Scalar, Scalar); 3] = [
            (
                "op.count-free-connex",
                "steps",
                &|ctx, db| count::count_free_connex(ctx, &path, db),
                &|_, db| brute_force_count(&path, db),
            ),
            (
                "op.generic-join.count",
                "seeks",
                &|ctx, db| generic_join::count_distinct(ctx, &tri, db, &order),
                &|_, db| brute_force_count(&tri, db),
            ),
            (
                "op.generic-join.decide",
                "seeks",
                &|ctx, db| generic_join::decide(ctx, &tri, db, &order).map(u64::from),
                &|_, db| brute_force_decide(&tri, db).map(u64::from),
            ),
        ];
        let catalog = IndexCatalog::new();
        let want =
            |db: &Database| ops.map(|(_, _, _, oracle)| oracle(&ExecCtx::cold(), db));
        let (before, mut answers) = (want(&db), Vec::new());
        for (name, work, op, _) in ops {
            let (n, cold) = traced(&catalog, name, op, &db);
            assert!(cold.attr(work).unwrap() > 0, "{name}: a cold run works");
            let snap = catalog.snapshot();
            let (again, warm) = traced(&catalog, name, op, &db);
            let after = catalog.snapshot();
            assert_eq!(
                (after.hits, after.misses),
                (snap.hits + 1, snap.misses),
                "{name}"
            );
            assert_eq!((again, warm.attr("rows")), (n, Some(n)), "{name}");
            for attr in [work, "cancel-polls"] {
                assert_eq!(warm.attr(attr), Some(0), "{name}: a warm {attr}");
            }
            for attr in ["morsels", "workers"] {
                assert_eq!(warm.attr(attr), None, "{name}: a warm {attr}");
            }
            assert_ne!(warm.attr("cold-build"), Some(1), "{name}");
            answers.push(Ok(n));
        }
        assert_eq!(answers, before);
        assert!(before[1].as_ref().is_ok_and(|&n| n > 0), "the data has triangles");

        db.get_mut("Log").unwrap().insert_row(&[2]);
        let misses = catalog.snapshot().misses;
        let served = ops.map(|(_, _, op, _)| op(&ExecCtx::warm(&catalog), &db));
        assert_eq!(
            (served, catalog.snapshot().misses),
            (before, misses),
            "a `Log` write"
        );

        db.get_mut("R2").unwrap().insert_row(&[0, 1]);
        for (name, work, op, oracle) in ops {
            let (n, span) = traced(&catalog, name, op, &db);
            assert_eq!(Ok(n), oracle(&ExecCtx::cold(), &db), "{name} after an R2 write");
            assert!(span.attr(work).unwrap() > 0, "{name}: works again");
        }
    }

    /// A cold context's catalog is dropped with it, so its scalars are
    /// not stored there: only the views the join read are.
    #[test]
    fn a_cold_scalar_is_not_stored() {
        let db = triangle_database(&random_pairs(100, 20, &mut seeded_rng(5)));
        let tri = zoo::triangle_join();
        let ctx = ExecCtx::cold();
        let n = generic_join::count_distinct(
            &ctx,
            &tri,
            &db,
            &generic_join::default_order(&tri),
        );
        assert_eq!(n, brute_force_count(&tri, &db));
        let snap = ctx.catalog().snapshot();
        assert_eq!((snap.views, snap.artifacts), (3, 0));
    }
}
