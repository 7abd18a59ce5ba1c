//! Direct access for free-connex queries with projections — the full
//! Theorem 3.18 upper bound — over the tree constant-delay enumeration
//! walks.
//!
//! Theorem 3.18 promises, for every free-connex query, a direct-access
//! structure with Õ(m) preprocessing and Õ(log m) access in *some*
//! query-chosen order. [`LexDirectAccess::free_connex`] composes two
//! pieces already in the engine: projection elimination
//! (`count::free_links`) turns the query into an acyclic *join* query
//! `q'` over exactly the free variables, and the reduced, sorted tree of
//! [`LexDirectAccess`] serves `q'` — reduced along the links `COUNT`
//! folds over, by `yannakakis::reduce_q_prime`, the one reduction every
//! reduced tree starts from (an ordered access of a join query reduces
//! the same `q'` and lays it out on its order's layered tree instead) —
//! on its own join tree, its nodes in DFS preorder and the order the
//! variables they introduce in that preorder, so the nodes arrive in
//! access order by construction. An empty `q'` is one node
//! without rows, a Boolean query the one node of its decision. The
//! product is memoized once per query and shared:
//! [`crate::Answers::walk`] walks the very same nodes, which is why
//! enumeration order *is* this structure's order.

use crate::bind::EvalError;
use crate::count::free_links;
use crate::ctx::ExecCtx;
use crate::direct_access::LexDirectAccess;
use crate::yannakakis::{decide_acyclic, reduce_q_prime};
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, Relation};
use std::sync::Arc;

impl LexDirectAccess {
    /// The reduced, sorted tree of a free-connex `q`, shared by
    /// enumeration and direct access; no weights yet. `q'`, fully
    /// reduced along the links of its join tree, is indexed under that
    /// tree's DFS order: node by node in preorder, each node's newly
    /// introduced variables in ascending index. Memoized in the catalog
    /// but for a Boolean query, whose tree is its decision's one node
    /// (`{()}` or `{}`). `*built` is set to the reduction's steps when
    /// this call built the tree of `q'`.
    pub(crate) fn shared(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        built: &mut Option<u64>,
    ) -> Result<Arc<Self>, EvalError> {
        if q.is_boolean() {
            let unit = Relation::nullary(decide_acyclic(ctx, q, db)?);
            return Ok(Arc::new(Self::one_node(ctx.cancel(), unit, vec![], vec![])?));
        }
        ctx.memo(db, "fc_da", q, &[], || {
            let linked = free_links(ctx, q, db, &mut None)?;
            let (atoms, tree, steps) = reduce_q_prime(ctx.cancel(), q, db, &linked)?;
            let visit = tree.top_down();
            let order: Vec<Var> = (visit.iter())
                .flat_map(|&u| mask_vertices(tree.scope(u) & !tree.key_mask(u)))
                .map(|v| Var(v as u32))
                .collect();
            let (cancel, schema) = (ctx.cancel(), q.free_vars());
            let da = Self::from_reduced(cancel, &atoms, &tree, &visit, schema, order)?;
            *built = Some(steps);
            Ok(da)
        })
    }

    /// Linear-time preprocessing (Thm 3.18) for a free-connex `q`, over
    /// its free variables in interning order, in a query-chosen
    /// lexicographic order ([`LexDirectAccess::order`]). Memoized in the
    /// catalog: it runs once per database state, and repeated `access`
    /// calls — and enumerations of the same query — share the
    /// structure. The subtree weights are built here, under `ctx`'s
    /// token. Fails with `NotFreeConnex` / `NotAcyclic` on the hard side
    /// of the dichotomy, and with `CountOverflow` when the simulated
    /// array would have more than `u64::MAX` positions. The reduction's
    /// work is the `steps` of the `op.fc-access.build` span, 0 on a warm
    /// hit.
    pub fn free_connex(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<Arc<Self>, EvalError> {
        let mut span = cq_obs::trace::span("op.fc-access.build");
        let mut built = None;
        let da = Self::shared(ctx, q, db, &mut built)?;
        da.weights(ctx.cancel())?;
        span.attr("steps", built.unwrap_or(0));
        Ok(da)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::brute_force_answers;
    use crate::direct_access::DirectAccess;
    use crate::Answers;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};
    use cq_data::Val;

    /// Every position must be the brute-force answer of that rank under
    /// the structure's chosen order, and past the end there is none.
    fn check(q: &ConjunctiveQuery, db: &Database) {
        let da = LexDirectAccess::free_connex(&ExecCtx::cold(), q, db).unwrap();
        assert_eq!(da.schema(), q.free_vars(), "{q}");
        let slots: Vec<usize> = da
            .order()
            .iter()
            .map(|v| da.schema().iter().position(|s| s == v).unwrap())
            .collect();
        let mut want: Vec<Vec<Val>> =
            brute_force_answers(q, db).unwrap().iter().map(<[Val]>::to_vec).collect();
        want.sort_by_key(|row| slots.iter().map(|&s| row[s]).collect::<Vec<_>>());
        let got: Vec<Vec<Val>> = (0..da.len()).map(|i| da.access(i).unwrap()).collect();
        assert_eq!(got, want, "{q}");
        assert_eq!(da.access(da.len()), None);
    }

    #[test]
    fn projected_path_queries() {
        let db = path_database(3, 50, &mut seeded_rng(1));
        check(&parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap(), &db);
        check(&parse_query("q(x1, x2) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap(), &db);
    }

    #[test]
    fn join_queries_still_work() {
        let db = path_database(3, 40, &mut seeded_rng(2));
        check(&zoo::path_join(3), &db);
        let db2 = star_database(2, 60, 5, &mut seeded_rng(3));
        check(&zoo::star_full(2), &db2);
    }

    #[test]
    fn star_with_free_center() {
        // q(z, x1) :- R1(x1, z), R2(x2, z): free-connex
        let db = star_database(2, 60, 6, &mut seeded_rng(4));
        let q = parse_query("q(z, x1) :- R1(x1, z), R2(x2, z)").unwrap();
        assert!(cq_core::free_connex::is_free_connex(&q));
        check(&q, &db);
        // leaves under the root: nodes without children, which keep no
        // prefix sums
        let db = star_database(3, 60, 6, &mut seeded_rng(10));
        for src in [
            "q(z, x1, x2) :- R1(x1, z), R2(x2, z), R3(x3, z)",
            "q(z, x1, x2, x3) :- R1(x1, z), R2(x2, z), R3(x3, z)",
        ] {
            let q = parse_query(src).unwrap();
            assert!(cq_core::free_connex::is_free_connex(&q));
            check(&q, &db);
        }
    }

    #[test]
    fn non_free_connex_rejected() {
        let db = star_database(2, 30, 4, &mut seeded_rng(5));
        assert!(matches!(
            LexDirectAccess::free_connex(&ExecCtx::cold(), &zoo::star_selfjoin(2), &db),
            Err(EvalError::NotFreeConnex)
        ));
    }

    #[test]
    fn cyclic_rejected() {
        let db =
            cq_data::generate::triangle_database(&Relation::from_pairs(vec![(0, 1)]));
        assert!(matches!(
            LexDirectAccess::free_connex(&ExecCtx::cold(), &zoo::triangle_join(), &db),
            Err(EvalError::NotAcyclic)
        ));
    }

    /// A Boolean query's array is its decision: one empty answer on a
    /// true instance, none on a false one — on the easy side through
    /// `free_connex`, on the hard side (a cyclic body, which
    /// `free_connex` refuses) through `materialized`.
    #[test]
    fn boolean_is_one_row_when_true_and_none_when_false() {
        let path = parse_query("q() :- E(x, y), E(y, z)").unwrap();
        let triangle = parse_query("q() :- E(x, y), E(y, z), E(z, x)").unwrap();
        let order = |q: &ConjunctiveQuery| q.vars().collect::<Vec<_>>();
        for (edges, truth) in
            [(vec![(1, 2), (2, 3), (3, 1)], true), (vec![(1, 2)], false)]
        {
            let mut db = Database::new();
            db.insert("E", Relation::from_pairs(edges));
            let ctx = ExecCtx::cold();
            let easy = LexDirectAccess::free_connex(&ctx, &path, &db).unwrap();
            let hard =
                LexDirectAccess::materialized(&ctx, &triangle, &db, &order(&triangle));
            assert_eq!(
                LexDirectAccess::free_connex(&ctx, &triangle, &db).err(),
                Some(EvalError::NotAcyclic)
            );
            for da in [easy, hard.unwrap()] {
                assert_eq!(da.schema(), [] as [Var; 0]);
                assert_eq!(da.len(), u64::from(truth));
                assert_eq!(da.access(0), truth.then(Vec::new));
                assert_eq!(da.access(1), None);
                let rows = Answers::access(da).collect().unwrap();
                assert_eq!(rows, Relation::nullary(truth));
            }
        }
    }

    /// An empty result is a tree whose root has no rows: `q'` empty
    /// (an unsatisfiable quantified component), or empty once reduced
    /// (no `R` row joins a `T` row). It walks to nothing and simulates
    /// the empty array.
    #[test]
    fn unsatisfiable_component_empty() {
        let mut db = Database::new();
        db.insert("R", Relation::from_values(vec![1, 2]));
        db.insert("S", Relation::new(2));
        db.insert("T", Relation::from_pairs(vec![(3, 4), (5, 6)]));
        for src in ["q(x) :- R(x), S(y, z)", "q(x, y) :- R(x), T(x, y)"] {
            let q = parse_query(src).unwrap();
            let da = LexDirectAccess::free_connex(&ExecCtx::cold(), &q, &db).unwrap();
            assert!(da.nodes()[0].rows.is_empty(), "{src}");
            assert_eq!(Answers::walk(Arc::clone(&da)).next().unwrap(), None, "{src}");
            assert_eq!(da.len(), 0);
            assert_eq!(da.access(0), None);
        }
    }

    #[test]
    fn testing_via_prefix_works() {
        // Lemma 3.20 on the free-connex structure
        let db = star_database(2, 60, 5, &mut seeded_rng(7));
        let q = parse_query("q(z, x1) :- R1(x1, z), R2(x2, z)").unwrap();
        let da = LexDirectAccess::free_connex(&ExecCtx::cold(), &q, &db).unwrap();
        // prefix var: first of the chosen order; collect true values
        let first = da.order()[0];
        let sch_pos = da.schema().iter().position(|v| *v == first).unwrap();
        let mut truths = std::collections::BTreeSet::new();
        for i in 0..da.len() {
            truths.insert(da.access(i).unwrap()[sch_pos]);
        }
        // Lemma 3.20's binary search, over the projected accessor
        for v in 0..10u64 {
            let expected = truths.contains(&v);
            // binary search over the array on the first order position
            let mut lo = 0u64;
            let mut hi = da.len();
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if da.access(mid).unwrap()[sch_pos] < v {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let found = lo < da.len() && da.access(lo).unwrap()[sch_pos] == v;
            assert_eq!(found, expected, "value {v}");
        }
    }
}
