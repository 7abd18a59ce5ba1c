//! Constant-delay enumeration for free-connex queries (Theorem 3.17).
//!
//! Preprocessing (linear in m) is the direct-access preprocessing minus
//! its weights: eliminate the quantified variables (`count::free_links`,
//! one upward pass of the fold per subtree of the elimination tree), fully
//! reduce the resulting acyclic join query over the free variables along
//! the links of its join tree, sort each node by its parent key and link
//! it to its parent's rows — the memoized tree of
//! [`LexDirectAccess::free_connex`], shared with `ACCESS` of the same
//! query. A Boolean query's tree is the one node of its decision.
//! Its work is the `steps` of two spans — `op.free-connex.eliminate`
//! for the elimination, `op.enumerate.preprocess` for the reduction of
//! `q'` — the rows the passes visit plus the links they follow, 0 on a
//! warm hit, which the exponent table (`tests/exponents/mod.rs`) holds
//! to `≤ 4 · Σ|Rᵢ|` each.
//!
//! Enumeration then walks that tree's nodes, in preorder, as an odometer:
//! a move into a node reads the link of its parent's current row and the
//! first row of the group it names — two array reads, no search — and
//! because every relation is globally consistent that group is never
//! empty, so the delay between answers is bounded by the number of tree
//! nodes — a constant depending only on the query, exactly the guarantee
//! of BDG07. The walk is the in-order traversal of the array direct
//! access simulates: it emits position 0, 1, 2, … of the
//! [`LexDirectAccess`] without ever needing the subtree weights a
//! position lookup descends by, so it streams results too large to count.
//!
//! That bound is checked as work, not time: the stream counts its
//! odometer moves and `descend` calls and reports them as the `steps`
//! attribute of its `stream.enumerate` span, and `tests/stream_alloc.rs`
//! asserts `steps ≤ 2 · levels · rows` whatever the data. Each step is
//! O(1), so the counter covers the delay whole.

use crate::bind::EvalError;
use crate::ctx::ExecCtx;
use crate::direct_access::{LexDirectAccess, Node};
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Val};
use std::sync::Arc;

/// Linear-time preprocessing: the reduced, sorted tree of
/// [`LexDirectAccess::free_connex`], memoized in the catalog — the same `Arc`
/// an `ACCESS` of the query holds, walked by
/// [`Answers::walk`](crate::Answers::walk). Repeated enumerations of the
/// same query on an unchanged database — and an enumeration after an
/// `ACCESS` of it, or before one — skip the reduction and the sorts
/// entirely and pay for the walk only: the preprocessing / enumeration
/// split of Thm 3.17 made operational. Fails with `NotFreeConnex` /
/// `NotAcyclic` on the hard side of the dichotomy. The token bounds a
/// cold build (a warm catalog hit does no work to interrupt).
pub fn preprocess(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Arc<LexDirectAccess>, EvalError> {
    let mut span = cq_obs::trace::span("op.enumerate.preprocess");
    let mut built = None;
    let tree = LexDirectAccess::shared(ctx, q, db, &mut built)?;
    span.attr("cold-build", u64::from(built.is_some()));
    span.attr("steps", built.unwrap_or(0));
    Ok(tree)
}

/// Per-walk cursor over one tree node.
#[derive(Clone, Default)]
struct Cursor {
    /// current row range for the bound key
    range: std::ops::Range<usize>,
    /// current row within `range`
    pos: usize,
}

/// Where a [`Walk`] is.
enum State {
    /// No row pulled yet: the first `next` does the initial descent.
    Fresh,
    /// Mid-walk: the odometer cursors point at the last emitted row.
    Walking,
    /// Exhausted (or the root had no rows from the start).
    Done,
}

/// The constant-delay walk over the shared tree: each [`Walk::next`]
/// advances the odometer by exactly one answer, using O(1) extra memory
/// (the cursors plus one row buffer) — Thm 3.17 with the consumer
/// holding the reins.
pub(crate) struct Walk {
    tree: Arc<LexDirectAccess>,
    cursors: Vec<Cursor>,
    /// The row buffer `next` hands out; slots are keyed by the schema.
    current: Vec<Val>,
    state: State,
    /// Levels the odometer tried to advance plus `descend` calls, since
    /// the stream last reported them.
    pub(crate) steps: u64,
}

impl Walk {
    /// A fresh walk over `tree`, starting before the first answer.
    pub(crate) fn new(tree: Arc<LexDirectAccess>) -> Walk {
        let cursors = vec![Cursor::default(); tree.nodes().len()];
        let current = vec![0; tree.schema().len()];
        Walk { tree, cursors, current, state: State::Fresh, steps: 0 }
    }

    /// The next answer, or `None` once the walk is exhausted.
    pub(crate) fn next(&mut self) -> Option<&[Val]> {
        let Walk { tree, cursors, current, state, steps } = self;
        let levels = tree.nodes();
        let i = match state {
            State::Done => return None,
            State::Fresh => {
                let root = &levels[0];
                if root.rows.is_empty() {
                    *state = State::Done;
                    return None;
                }
                // the first answer descends from the root, which is one
                // group: all of its rows
                cursors[0].range = 0..root.rows.len();
                root.write(0, current);
                *steps += 1;
                *state = State::Walking;
                0
            }
            // odometer: advance the deepest level possible, then
            // re-descend everything below it
            State::Walking => {
                let mut i = levels.len();
                loop {
                    if i == 0 {
                        *state = State::Done;
                        return None;
                    }
                    i -= 1;
                    *steps += 1;
                    let (lev, cur) = (&levels[i], &mut cursors[i]);
                    if cur.pos + 1 < cur.range.end {
                        cur.pos += 1;
                        lev.write(cur.pos, current);
                        break i;
                    }
                }
            }
        };
        for u in i + 1..levels.len() {
            descend(levels, cursors, u, current);
        }
        *steps += (levels.len() - i - 1) as u64;
        Some(current)
    }
}

/// Move the cursor of node `u` to the first of its rows joining its
/// parent's current row.
fn descend(levels: &[Node], cursors: &mut [Cursor], u: usize, current: &mut [Val]) {
    let lev = &levels[u];
    let range = lev.rows_of(cursors[lev.parent].pos);
    debug_assert!(!range.is_empty(), "full reduction guarantees non-empty extensions");
    lev.write(range.start, current);
    cursors[u] = Cursor { pos: range.start, range };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::brute_force_answers;
    use crate::Answers;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};

    /// Every row of a fresh walk, in stream order.
    fn drain(tree: &Arc<LexDirectAccess>) -> Vec<Vec<Val>> {
        let mut s = Answers::walk(Arc::clone(tree));
        std::iter::from_fn(|| s.next().unwrap().map(<[Val]>::to_vec)).collect()
    }

    fn check_matches_brute_force(q: &ConjunctiveQuery, db: &Database) {
        let tree = preprocess(&ExecCtx::cold(), q, db).unwrap();
        let got = Answers::walk(tree).collect().unwrap();
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
            preprocess(&ExecCtx::cold(), &zoo::star_selfjoin(2), &db).err(),
            Some(EvalError::NotFreeConnex)
        );
    }

    #[test]
    fn cyclic_rejected() {
        let db = cq_data::generate::triangle_database(&cq_data::Relation::from_pairs(
            vec![(0, 1)],
        ));
        assert_eq!(
            preprocess(&ExecCtx::cold(), &zoo::triangle_join(), &db).err(),
            Some(EvalError::NotAcyclic)
        );
    }

    #[test]
    fn boolean_true_yields_empty_tuple() {
        let db = path_database(2, 20, &mut seeded_rng(5));
        let e = preprocess(&ExecCtx::cold(), &zoo::path_boolean(2), &db).unwrap();
        assert_eq!(drain(&e), [Vec::<Val>::new()]);
    }

    #[test]
    fn early_stop() {
        let db = path_database(2, 100, &mut seeded_rng(6));
        let tree = preprocess(&ExecCtx::cold(), &zoo::path_join(2), &db).unwrap();
        let sink = cq_obs::trace::TraceSink::enabled();
        let mut s = cq_obs::trace::with(&sink, || Answers::walk(tree));
        for _ in 0..5 {
            assert!(s.next().unwrap().is_some());
        }
        drop(s);
        let mut rows = None;
        sink.finish("test", "walk").expect("enabled").visit(|_, span| {
            if span.name == "stream.enumerate" {
                rows = span.attr("rows");
            }
        });
        assert_eq!(rows, Some(5), "a walk stopped early emits no more than it was asked");
    }

    #[test]
    fn count_matches_count_module() {
        let db = path_database(3, 80, &mut seeded_rng(7));
        let q = parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap();
        let e = preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        assert_eq!(
            drain(&e).len() as u64,
            crate::count::count_free_connex(&ExecCtx::cold(), &q, &db).unwrap()
        );
    }

    #[test]
    fn no_duplicates_emitted() {
        let db = star_database(2, 60, 4, &mut seeded_rng(8));
        let q = zoo::star_full(2);
        let e = preprocess(&ExecCtx::cold(), &q, &db).unwrap();
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
        let a = preprocess(&ctx, &q, &db).unwrap();
        let b = preprocess(&ctx, &q, &db).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the warm call shares the tree");
        // ... which is an array already: the first `len` weighs it, and
        // row i is position i
        let da = &*a;
        let want = drain(&a);
        assert_eq!(want.len() as u64, crate::DirectAccess::len(da));
        // ... the one an ACCESS of the query holds
        assert!(Arc::ptr_eq(&a, &LexDirectAccess::free_connex(&ctx, &q, &db).unwrap()));
        // two walks over the one tree, interleaved: independent cursors
        let (mut s, mut t) = (Answers::walk(Arc::clone(&a)), Answers::walk(b));
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
        let e = preprocess(&ExecCtx::cold(), &zoo::path_join(2), &db).unwrap();
        assert!(drain(&e).is_empty());
    }

    #[test]
    fn unsatisfiable_quantified_component() {
        let mut db = Database::new();
        db.insert("R", cq_data::Relation::from_values(vec![1, 2, 3]));
        db.insert("S", cq_data::Relation::new(2));
        let q = parse_query("q(x) :- R(x), S(y, z)").unwrap();
        let e = preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        assert!(drain(&e).is_empty());
    }

    /// A cold preprocessing — `q'`'s semijoin, its full reduction and the
    /// sorts — polls the token inside its passes, on the fold's schedule:
    /// at least once per block of `STRIDE` input rows, so a client that
    /// leaves partway stops the build, which memoizes nothing.
    #[test]
    fn a_cold_preprocessing_is_cancellable_inside_its_passes() {
        use crate::cancel::{CancelToken, STRIDE};
        use cq_data::IndexCatalog;
        use std::sync::atomic::{AtomicU32, Ordering};
        let q = parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)").unwrap();
        let db = path_database(3, 50_000, &mut seeded_rng(12));
        let rows: usize = q.relations().map(|r| db.get(r).unwrap().len()).sum();
        let token = CancelToken::never();
        let catalog = IndexCatalog::new();
        let ctx = ExecCtx::new(&catalog, &token);
        let tree = preprocess(&ctx, &q, &db).unwrap();
        assert!(ctx.polls() >= (rows / STRIDE as usize) as u64, "{}", ctx.polls());

        // the client is gone from the probe's 10th consultation on
        let consulted = AtomicU32::new(0);
        let gone = move || consulted.fetch_add(1, Ordering::Relaxed) >= 9;
        let token = CancelToken::never().with_probe(gone);
        let catalog = IndexCatalog::new();
        let cancelled = preprocess(&ExecCtx::new(&catalog, &token), &q, &db);
        assert_eq!(cancelled.err(), Some(EvalError::Cancelled));
        let misses = catalog.snapshot().misses;
        let again = preprocess(&ExecCtx::warm(&catalog), &q, &db).unwrap();
        assert!(catalog.snapshot().misses > misses, "a retry builds again");
        assert_eq!(drain(&again), drain(&tree));
    }
}
