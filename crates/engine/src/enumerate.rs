//! Constant-delay enumeration for free-connex queries (Theorem 3.17).
//!
//! Preprocessing (linear in m) is the direct-access preprocessing minus
//! its weights: eliminate the quantified variables
//! (`count::free_join`), fully reduce the resulting acyclic join
//! query over the free variables along the links of its join tree, sort
//! each node by its parent key and link it to its parent's rows — the
//! memoized tree of [`FreeConnexDirectAccess`], shared with `ACCESS` of
//! the same query. Its work is the `steps` attribute of the
//! `op.enumerate.preprocess` span — the rows the reduction visits plus
//! the links it follows, 0 on a warm hit — which the exponent table
//! (`tests/exponents/mod.rs`) holds to `≤ 4 · Σ|Rᵢ|`.
//!
//! Enumeration then walks that tree's nodes, in preorder, as an odometer:
//! a move into a node reads the link of its parent's current row and the
//! first row of the group it names — two array reads, no search — and
//! because every relation is globally consistent that group is never
//! empty, so the delay between answers is bounded by the number of tree
//! nodes — a constant depending only on the query, exactly the guarantee
//! of BDG07. The walk is the in-order traversal of the array direct
//! access simulates: it emits position 0, 1, 2, … of
//! [`FreeConnexDirectAccess`] without ever needing the subtree weights a
//! position lookup descends by, so it streams results too large to count.
//!
//! That bound is checked as work, not time: the stream counts its
//! odometer moves and `descend` calls and reports them as the `steps`
//! attribute of its `stream.enumerate` span, and `tests/stream_alloc.rs`
//! asserts `steps ≤ 2 · levels · rows` whatever the data. Each step is
//! O(1), so the counter covers the delay whole.

use crate::bind::EvalError;
use crate::cancel::CancelToken;
use crate::ctx::ExecCtx;
use crate::direct_access::Node;
use crate::fc_direct_access::FreeConnexDirectAccess;
use crate::stream::AnswerStream;
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, Relation, Val};
use std::sync::Arc;

/// Per-enumeration cursor over one tree node.
#[derive(Clone, Default)]
struct Cursor {
    /// current row range for the bound key
    range: std::ops::Range<usize>,
    /// current row within `range`
    pos: usize,
}

/// A prepared constant-delay enumerator. Create with
/// [`Enumerator::preprocess`], consume with [`Enumerator::for_each`],
/// [`Enumerator::to_relation`], or — the primitive the others are built
/// on — [`Enumerator::into_stream`].
pub struct Enumerator {
    tree: Arc<FreeConnexDirectAccess>,
}

impl std::fmt::Debug for Enumerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enumerator")
            .field("schema", &self.schema())
            .field("levels", &levels_of(&self.tree).len())
            .finish()
    }
}

/// The nodes the odometer steps through; none when the result is empty.
fn levels_of(tree: &FreeConnexDirectAccess) -> &[Node] {
    tree.tree.as_ref().map_or(&[], |t| t.nodes())
}

impl Enumerator {
    /// Linear-time preprocessing: the reduced, sorted tree of
    /// [`FreeConnexDirectAccess`], memoized in the catalog. Repeated
    /// enumerations of the same query on an unchanged database — and an
    /// enumeration after an `ACCESS` of it, or before one — skip the
    /// reduction and the sorts entirely and pay for the walk only: the
    /// preprocessing / enumeration split of Thm 3.17 made operational.
    /// Fails with `NotFreeConnex` / `NotAcyclic` on the hard side of the
    /// dichotomy. The token bounds a cold build (a warm catalog hit does
    /// no work to interrupt).
    pub fn preprocess(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<Self, EvalError> {
        let mut span = cq_obs::trace::span("op.enumerate.preprocess");
        let mut built = None;
        let tree = if q.is_boolean() {
            let truth = crate::yannakakis::decide_acyclic(ctx, q, db)?;
            Arc::new(FreeConnexDirectAccess::boolean(truth))
        } else {
            FreeConnexDirectAccess::shared(ctx, q, db, &mut built)?
        };
        span.attr("cold-build", u64::from(built.is_some()));
        span.attr("steps", built.unwrap_or(0));
        Ok(Enumerator { tree })
    }

    /// The output schema (free variables in interning order).
    pub fn schema(&self) -> &[Var] {
        self.tree.schema()
    }

    /// The walked tree as the direct-access structure it is — the same
    /// `Arc` an `ACCESS` of the query holds: position `i` of it is the
    /// `i`-th row of [`Enumerator::stream`]. Its subtree weights are
    /// built by the first `len` / `access`, so a result with more than
    /// `u64::MAX` answers — which [`FreeConnexDirectAccess::build`]
    /// refuses — has no accessible position here.
    pub fn direct_access(&self) -> &Arc<FreeConnexDirectAccess> {
        &self.tree
    }

    /// A fresh pull-driven stream over the shared preprocessing — the
    /// single odometer implementation; every other consumer below is a
    /// wrapper around it.
    pub fn stream(&self) -> EnumeratorStream {
        EnumeratorStream::new(Arc::clone(&self.tree))
    }

    /// Consume the enumerator into its stream.
    pub fn into_stream(self) -> EnumeratorStream {
        EnumeratorStream::new(self.tree)
    }

    /// Visit every answer with constant delay; `visit` returns `false`
    /// to stop early. Returns `true` if enumeration ran to completion.
    pub fn for_each(&mut self, mut visit: impl FnMut(&[Val]) -> bool) -> bool {
        let mut s = self.stream();
        while let Some(row) = s.next().expect("a fresh stream's token never trips") {
            if !visit(row) {
                return false;
            }
        }
        true
    }

    /// Collect answers into a [`Relation`] over the schema.
    pub fn to_relation(&mut self) -> Relation {
        self.stream().collect().expect("a fresh stream's token never trips")
    }
}

/// Where an [`EnumeratorStream`] is in its walk.
enum StreamState {
    /// No row pulled yet: the first `next` does the initial descent.
    NotStarted,
    /// Mid-walk: the odometer cursors point at the last emitted row.
    Active,
    /// Exhausted (or the result was empty from the start).
    Done,
}

/// The pull-driven constant-delay walk over the shared tree: each
/// [`AnswerStream::next`] advances the odometer by exactly one answer,
/// using O(1) extra memory (the cursors plus one row buffer) — Thm 3.17
/// with the consumer holding the reins.
pub struct EnumeratorStream {
    tree: Arc<FreeConnexDirectAccess>,
    cursors: Vec<Cursor>,
    /// The row buffer `next` hands out; slots are keyed by the schema.
    current: Vec<Val>,
    state: StreamState,
    cancel: CancelToken,
    rows: u64,
    /// Levels the odometer tried to advance plus `descend` calls.
    steps: u64,
    span: Option<cq_obs::trace::SpanGuard>,
}

impl EnumeratorStream {
    /// A fresh walk over `tree`, starting before the first answer.
    fn new(tree: Arc<FreeConnexDirectAccess>) -> Self {
        let cursors = vec![Cursor::default(); levels_of(&tree).len()];
        let current = vec![0; tree.schema().len()];
        EnumeratorStream {
            tree,
            cursors,
            current,
            state: StreamState::NotStarted,
            cancel: CancelToken::never(),
            rows: 0,
            steps: 0,
            span: Some(cq_obs::trace::current().span("stream.enumerate")),
        }
    }
}

impl Drop for EnumeratorStream {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.attr("rows", self.rows);
            span.attr("steps", self.steps);
            span.attr("cancel-polls", self.cancel.polls());
        }
    }
}

impl AnswerStream for EnumeratorStream {
    fn schema(&self) -> &[Var] {
        self.tree.schema()
    }

    fn next(&mut self) -> Result<Option<&[Val]>, EvalError> {
        self.cancel.check()?;
        let EnumeratorStream { tree, cursors, current, state, rows, steps, .. } = self;
        let levels = levels_of(tree);
        match state {
            StreamState::Done => return Ok(None),
            StreamState::NotStarted => {
                if levels.is_empty() {
                    *state = StreamState::Done;
                    return Ok(None);
                }
                // the root is one group: all of its rows
                cursors[0].range = 0..levels[0].rows.len();
                write_row(&levels[0], &cursors[0], current);
                for u in 1..levels.len() {
                    descend(levels, cursors, u, current);
                }
                *steps += levels.len() as u64;
                *state = StreamState::Active;
                *rows += 1;
                return Ok(Some(current));
            }
            StreamState::Active => {}
        }
        // odometer: advance the deepest level possible, then re-descend
        // everything below it
        let mut i = levels.len();
        loop {
            if i == 0 {
                *state = StreamState::Done;
                return Ok(None); // exhausted
            }
            i -= 1;
            *steps += 1;
            let (lev, cur) = (&levels[i], &mut cursors[i]);
            if cur.pos + 1 < cur.range.end {
                cur.pos += 1;
                write_row(lev, cur, current);
                break;
            }
        }
        for u in i + 1..levels.len() {
            descend(levels, cursors, u, current);
        }
        *steps += (levels.len() - i - 1) as u64;
        *rows += 1;
        Ok(Some(current))
    }

    fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }
}

/// Move the cursor of node `u` to the first of its rows joining its
/// parent's current row.
fn descend(levels: &[Node], cursors: &mut [Cursor], u: usize, current: &mut [Val]) {
    let lev = &levels[u];
    let range = lev.rows_of(cursors[lev.parent].pos);
    debug_assert!(!range.is_empty(), "full reduction guarantees non-empty extensions");
    cursors[u] = Cursor { pos: range.start, range };
    write_row(lev, &cursors[u], current);
}

#[inline]
fn write_row(lev: &Node, cur: &Cursor, current: &mut [Val]) {
    let row = lev.rows.row(cur.pos);
    for (&slot, &v) in lev.out_slots.iter().zip(&row[lev.n_key..]) {
        current[slot] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::brute_force_answers;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};

    /// Every row of a fresh walk, in stream order.
    fn drain(e: &Enumerator) -> Vec<Vec<Val>> {
        let mut s = e.stream();
        std::iter::from_fn(|| s.next().unwrap().map(<[Val]>::to_vec)).collect()
    }

    fn check_matches_brute_force(q: &ConjunctiveQuery, db: &Database) {
        let mut e = Enumerator::preprocess(&ExecCtx::cold(), q, db).unwrap();
        let got = e.to_relation();
        let want = brute_force_answers(q, db).unwrap();
        assert_eq!(got, want, "query {q}");
    }

    #[test]
    fn path_join_enumeration() {
        let db = path_database(3, 60, &mut seeded_rng(1));
        check_matches_brute_force(&zoo::path_join(3), &db);
    }

    #[test]
    fn star_full_enumeration() {
        let db = star_database(3, 80, 5, &mut seeded_rng(2));
        check_matches_brute_force(&zoo::star_full(3), &db);
    }

    #[test]
    fn free_connex_projection_enumeration() {
        let db = path_database(3, 60, &mut seeded_rng(3));
        let q = parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap();
        assert!(cq_core::free_connex::is_free_connex(&q));
        check_matches_brute_force(&q, &db);
    }

    #[test]
    fn non_free_connex_rejected() {
        let db = star_database(2, 30, 3, &mut seeded_rng(4));
        assert_eq!(
            Enumerator::preprocess(&ExecCtx::cold(), &zoo::star_selfjoin(2), &db)
                .unwrap_err(),
            EvalError::NotFreeConnex
        );
    }

    #[test]
    fn cyclic_rejected() {
        let db = cq_data::generate::triangle_database(&cq_data::Relation::from_pairs(
            vec![(0, 1)],
        ));
        assert_eq!(
            Enumerator::preprocess(&ExecCtx::cold(), &zoo::triangle_join(), &db)
                .unwrap_err(),
            EvalError::NotAcyclic
        );
    }

    #[test]
    fn boolean_true_yields_empty_tuple() {
        let db = path_database(2, 20, &mut seeded_rng(5));
        let e =
            Enumerator::preprocess(&ExecCtx::cold(), &zoo::path_boolean(2), &db).unwrap();
        assert_eq!(drain(&e), [Vec::<Val>::new()]);
    }

    #[test]
    fn early_stop() {
        let db = path_database(2, 100, &mut seeded_rng(6));
        let mut e =
            Enumerator::preprocess(&ExecCtx::cold(), &zoo::path_join(2), &db).unwrap();
        let mut n = 0;
        let completed = e.for_each(|_| {
            n += 1;
            n < 5
        });
        assert!(!completed);
        assert_eq!(n, 5);
    }

    #[test]
    fn count_matches_count_module() {
        let db = path_database(3, 80, &mut seeded_rng(7));
        let q = parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap();
        let e = Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        assert_eq!(
            drain(&e).len() as u64,
            crate::count::count_free_connex(&ExecCtx::cold(), &q, &db).unwrap()
        );
    }

    #[test]
    fn no_duplicates_emitted() {
        let db = star_database(2, 60, 4, &mut seeded_rng(8));
        let q = zoo::star_full(2);
        let e = Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        let all = drain(&e);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len(), "enumeration must not repeat answers");
    }

    #[test]
    fn shared_tree_gives_each_walk_its_own_cursors() {
        let db = path_database(3, 60, &mut seeded_rng(9));
        let q = zoo::path_join(3);
        let cat = cq_data::IndexCatalog::new();
        let ctx = ExecCtx::warm(&cat);
        let a = Enumerator::preprocess(&ctx, &q, &db).unwrap();
        let b = Enumerator::preprocess(&ctx, &q, &db).unwrap();
        assert!(Arc::ptr_eq(&a.tree, &b.tree), "the warm call shares the tree");
        // ... which is an array already: the first `len` weighs it, and
        // row i is position i
        let da = a.direct_access();
        let want = drain(&a);
        assert_eq!(want.len() as u64, crate::DirectAccess::len(da));
        // ... the one an ACCESS of the query holds
        assert!(Arc::ptr_eq(da, &FreeConnexDirectAccess::build(&ctx, &q, &db).unwrap()));
        // two walks over the one tree, interleaved: independent cursors
        let (mut s, mut t) = (a.stream(), b.stream());
        s.next().unwrap();
        for (i, row) in want.iter().enumerate() {
            assert_eq!(t.next().unwrap(), Some(&row[..]), "walk t, row {i}");
            assert_eq!(crate::DirectAccess::access(da, i as u64).as_ref(), Some(row));
            let ahead = want.get(i + 1).map(|r| &r[..]);
            assert_eq!(s.next().unwrap(), ahead, "walk s, row {}", i + 1);
        }
        assert_eq!(t.next().unwrap(), None);
    }

    #[test]
    fn empty_database_empty_enumeration() {
        let mut db = Database::new();
        db.insert("R1", cq_data::Relation::new(2));
        db.insert("R2", cq_data::Relation::new(2));
        let e =
            Enumerator::preprocess(&ExecCtx::cold(), &zoo::path_join(2), &db).unwrap();
        assert!(drain(&e).is_empty());
    }

    #[test]
    fn unsatisfiable_quantified_component() {
        let mut db = Database::new();
        db.insert("R", cq_data::Relation::from_values(vec![1, 2, 3]));
        db.insert("S", cq_data::Relation::new(2));
        let q = parse_query("q(x) :- R(x), S(y, z)").unwrap();
        let e = Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        assert!(drain(&e).is_empty());
    }
}
