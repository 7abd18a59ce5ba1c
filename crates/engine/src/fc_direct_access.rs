//! Direct access for free-connex queries with projections — the full
//! Theorem 3.18 upper bound — over the tree constant-delay enumeration
//! walks.
//!
//! Theorem 3.18 promises, for every free-connex query, a direct-access
//! structure with Õ(m) preprocessing and Õ(log m) access in *some*
//! query-chosen order. The construction composes two pieces already in
//! the engine: projection elimination (`count::free_links`) turns
//! the query into an acyclic *join* query `q'` over exactly the free
//! variables, and the reduced, sorted tree of [`LexDirectAccess`] serves
//! `q'` — reduced along the links `COUNT` folds over — on its own join
//! tree under that tree's DFS order — an order that is compatible *by
//! construction* (each node's variables are introduced right after its
//! parent's, and subtree blocks are contiguous), so no tree search is
//! needed. The product is memoized once per query and shared:
//! [`crate::Answers::walk`] walks the very same nodes, which is why
//! enumeration order *is* this structure's order.

use crate::bind::{BoundAtom, EvalError};
use crate::cancel::CancelToken;
use crate::count::free_links;
use crate::ctx::ExecCtx;
use crate::direct_access::{DirectAccess, LexDirectAccess};
use crate::links::JoinLinks;
use crate::yannakakis::{full_reduce, join_tree_of_atoms};
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, Relation, Val};
use std::borrow::Cow;
use std::sync::Arc;

/// Direct access to the answers of a free-connex query, in a
/// query-chosen lexicographic order over the free variables.
pub struct FreeConnexDirectAccess {
    /// The reduced, sorted tree of `q'`; `None` when the result is empty.
    pub(crate) tree: Option<LexDirectAccess>,
    /// Free variables in output order (interning order).
    schema: Vec<Var>,
    /// The lexicographic variable order the simulated array is sorted by.
    order: Vec<Var>,
}

impl FreeConnexDirectAccess {
    /// The structure of an empty result.
    fn empty(schema: Vec<Var>) -> Self {
        FreeConnexDirectAccess { tree: None, order: schema.clone(), schema }
    }

    /// Fully reduce `atoms` — an acyclic join over exactly `schema` —
    /// along the `links` of their join tree and index them under its DFS
    /// order: node by node in preorder, each node's newly introduced
    /// variables in ascending index. With the reduction's `steps`.
    fn index(
        cancel: &CancelToken,
        mut atoms: Vec<Cow<'_, BoundAtom>>,
        links: &JoinLinks,
        schema: Vec<Var>,
    ) -> Result<(Self, u64), EvalError> {
        cancel.check_now()?;
        let steps = full_reduce(&mut atoms, links);
        let tree = links.tree();
        if atoms[tree.root()].rel.is_empty() {
            return Ok((Self::empty(schema), steps));
        }
        let order: Vec<Var> = tree
            .top_down()
            .into_iter()
            .flat_map(|u| mask_vertices(tree.scope(u) & !tree.key_mask(u)))
            .map(|v| Var(v as u32))
            .collect();
        let lex = LexDirectAccess::from_reduced(cancel, &atoms, tree, &schema, &order)?;
        Ok((FreeConnexDirectAccess { tree: Some(lex), schema, order }, steps))
    }

    /// The structure of a Boolean query that is `truth`: over no
    /// variables, the one empty answer or none.
    pub(crate) fn boolean(truth: bool) -> Self {
        let unit = BoundAtom { vars: Vec::new(), rel: Relation::nullary(truth) };
        let unit = vec![Cow::Owned(unit)];
        let tree = join_tree_of_atoms(&unit, 0).expect("one node is a tree");
        let links = JoinLinks::of(&tree, |u| (&unit[u].vars, &unit[u].rel));
        Self::index(&CancelToken::never(), unit, &links, Vec::new())
            .expect("never cancelled")
            .0
    }

    /// The reduced, sorted tree of a non-Boolean free-connex `q`,
    /// memoized in the catalog and shared by enumeration and direct
    /// access; no weights yet. `*built` is set to the reduction's steps
    /// when this call built it.
    pub(crate) fn shared(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        built: &mut Option<u64>,
    ) -> Result<Arc<Self>, EvalError> {
        ctx.catalog().artifact(db, "fc_da", &q.to_string(), q.relations(), || {
            let schema: Vec<Var> = q.free_vars();
            let (da, steps) = match &*free_links(ctx, q, db, &mut false)? {
                None => (Self::empty(schema), 0),
                Some((msgs, links)) => {
                    let atoms = msgs.iter().map(|m| Cow::Borrowed(&**m)).collect();
                    Self::index(ctx.cancel(), atoms, links, schema)?
                }
            };
            *built = Some(steps);
            Ok(da)
        })
    }

    /// Linear-time preprocessing (Thm 3.18), memoized in the catalog:
    /// it runs once per database state, and repeated `access` calls —
    /// and enumerations of the same query — share the structure. The
    /// subtree weights are built here, under `ctx`'s token. Fails with
    /// `NotFreeConnex` / `NotAcyclic` on the hard side of the dichotomy,
    /// with `Unsupported` for Boolean queries (no variables to access),
    /// and with `CountOverflow` when the simulated array would have more
    /// than `u64::MAX` positions. The reduction's work is the `steps` of
    /// the `op.fc-access.build` span, 0 on a warm hit.
    pub fn build(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<Arc<Self>, EvalError> {
        if q.is_boolean() {
            return Err(EvalError::Unsupported(
                "Boolean queries have no output positions to access".into(),
            ));
        }
        let mut span = cq_obs::trace::span("op.fc-access.build");
        let mut built = None;
        let da = Self::shared(ctx, q, db, &mut built)?;
        if let Some(tree) = &da.tree {
            tree.weights(ctx.cancel())?;
        }
        span.attr("steps", built.unwrap_or(0));
        Ok(da)
    }

    /// The query-chosen lexicographic order (over the free variables).
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// The output schema: free variables in interning order.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }
}

impl DirectAccess for FreeConnexDirectAccess {
    fn len(&self) -> u64 {
        self.tree.as_ref().map_or(0, DirectAccess::len)
    }

    /// The `i`-th answer, as values of the free variables in schema
    /// (interning) order.
    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool {
        self.tree.as_ref().is_some_and(|tree| tree.access_into(i, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::brute_force_answers;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};
    use cq_data::Relation;

    /// All accesses together must be exactly the brute-force answers,
    /// sorted by the structure's chosen order.
    fn check(q: &ConjunctiveQuery, db: &Database) {
        let da = FreeConnexDirectAccess::build(&ExecCtx::cold(), q, db).unwrap();
        let mut got: Vec<Vec<Val>> =
            (0..da.len()).map(|i| da.access(i).unwrap()).collect();
        let want = brute_force_answers(q, db).unwrap();
        assert_eq!(got.len(), want.len(), "{q}");
        // sorted by the chosen order: check monotone
        let schema = da.schema().to_vec();
        let pos_in_schema: Vec<usize> = da
            .order()
            .iter()
            .map(|v| schema.iter().position(|s| s == v).unwrap())
            .collect();
        for w in got.windows(2) {
            let key = |row: &Vec<Val>| {
                pos_in_schema.iter().map(|&p| row[p]).collect::<Vec<_>>()
            };
            assert!(key(&w[0]) < key(&w[1]), "{q}: array must be strictly sorted");
        }
        // set equality with brute force
        got.sort();
        let want_rows: Vec<Vec<Val>> = want.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got, want_rows, "{q}");
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
    }

    #[test]
    fn non_free_connex_rejected() {
        let db = star_database(2, 30, 4, &mut seeded_rng(5));
        assert!(matches!(
            FreeConnexDirectAccess::build(&ExecCtx::cold(), &zoo::star_selfjoin(2), &db),
            Err(EvalError::NotFreeConnex)
        ));
    }

    #[test]
    fn cyclic_rejected() {
        let db =
            cq_data::generate::triangle_database(&Relation::from_pairs(vec![(0, 1)]));
        assert!(matches!(
            FreeConnexDirectAccess::build(&ExecCtx::cold(), &zoo::triangle_join(), &db),
            Err(EvalError::NotAcyclic)
        ));
    }

    #[test]
    fn boolean_rejected() {
        let db = path_database(2, 10, &mut seeded_rng(6));
        assert!(matches!(
            FreeConnexDirectAccess::build(&ExecCtx::cold(), &zoo::path_boolean(2), &db),
            Err(EvalError::Unsupported(_))
        ));
    }

    #[test]
    fn unsatisfiable_component_empty() {
        let mut db = Database::new();
        db.insert("R", Relation::from_values(vec![1, 2]));
        db.insert("S", Relation::new(2));
        let q = parse_query("q(x) :- R(x), S(y, z)").unwrap();
        let da = FreeConnexDirectAccess::build(&ExecCtx::cold(), &q, &db).unwrap();
        assert_eq!(da.len(), 0);
        assert_eq!(da.access(0), None);
    }

    #[test]
    fn testing_via_prefix_works() {
        // Lemma 3.20 on the free-connex structure
        let db = star_database(2, 60, 5, &mut seeded_rng(7));
        let q = parse_query("q(z, x1) :- R1(x1, z), R2(x2, z)").unwrap();
        let da = FreeConnexDirectAccess::build(&ExecCtx::cold(), &q, &db).unwrap();
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
