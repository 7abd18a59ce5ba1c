//! The engine's one direct-access structure (paper §3.4): a simulated
//! sorted array of answers — [`LexDirectAccess`], the reduced, linked
//! join tree the easy side shares — and its builders.
//!
//! Goal: after preprocessing, return the `i`-th answer of a query in the
//! lexicographic order induced by a variable order `⪯`, in Õ(log m) per
//! access. The structure keeps the nodes of a rooted join tree in
//! *access order* — every parent before its children, and the variables
//! the nodes introduce (those not in the parent's scope) concatenating
//! to `⪯` — and per node *rows + links*: the fully reduced rows as a
//! [`cq_data::Relation`] with the parent key's columns first, then the
//! rest by `⪯` (so sorted that way); the first row of each parent-key
//! group; and per row of the parent the group it joins (the `EdgeLinks`
//! of the edge, over the sorted rows). The array is then the answers
//! ordered by their rows, node by node, so it is sorted by `⪯`. That is
//! *the* product of the linear preprocessing of Thm 3.17 / 3.18 / 3.24,
//! and nothing searches it by key: the constant-delay walk of
//! [`crate::enumerate`] steps through the nodes as an odometer, a move
//! into a child being two array reads, and an access is one pass over
//! the nodes with a running radix — the number of answers that extend
//! the rows picked so far — picking per node, by binary search on
//! subtree-count prefix sums *within the group its parent's row hands
//! it*, the row whose answers hold the index (O(log m) per access). A
//! node without children weighs 1 per row, so it keeps no prefix sums
//! and a pick in it is one index. The prefix sums are the only part the
//! walk does not need, so they are built on first `len` / `access` (or
//! up front by a public builder, which is where an overflowing count and
//! a deadline surface).
//!
//! Every builder ends in the one indexing step, `from_reduced`, and the
//! two linear ones start from the one reduction, `reduce_q_prime`: `q'`
//! of `count::free_links`, fully reduced along its links — for a join
//! query its atoms, read in place, less those another atom covers.
//!
//! * [`LexDirectAccess::build`] (Thm 3.24 \[27\]) refuses an order with a
//!   disruptive trio and otherwise builds the *layered* tree of the
//!   order: one node per variable `vᵢ`, its scope `vᵢ` and `N<(vᵢ)` (its
//!   neighbours before it in `⪯` — a clique, since no trio disrupts it,
//!   so some atom of the acyclic `q'` covers the scope and the node's
//!   rows are that reduced atom's projection), hung from the latest
//!   earlier node whose scope holds `N<(vᵢ)`;
//! * [`LexDirectAccess::free_connex`] (Thm 3.18, in
//!   [`crate::fc_direct_access`]) indexes `q′` on its own join tree, in
//!   DFS preorder;
//! * [`LexDirectAccess::materialized`] (Lem 3.9 / 3.23) serves every
//!   query and every order as one node: generic join's answers, sorted —
//!   the superlinear baseline whose cost gap is the content of Lemma
//!   3.23. A Boolean query's `{()}` / `{}` and an empty result are the
//!   same one-node tree.

use crate::aggregate::{CountingSemiring, Semiring};
use crate::bind::{BoundAtom, EvalError};
use crate::cancel::CancelToken;
use crate::count::{free_links, sum_product};
use crate::ctx::ExecCtx;
use crate::generic_join;
use crate::links::{Edge, EdgeLinks, NONE};
use crate::yannakakis::reduce_q_prime;
use cq_core::disruptive_trio::find_disruptive_trio;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, Relation, Val};
use std::borrow::Cow;
use std::iter::repeat_n;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Uniform interface for direct-access structures: a simulated sorted
/// array of query answers. Answers are reported over the structure's
/// output schema — all variables in **interning order**
/// (`Var(0), Var(1), ...`) for a join query, the free variables in
/// interning order otherwise.
pub trait DirectAccess {
    /// Number of answers in the simulated array.
    fn len(&self) -> u64;
    /// Write the `i`-th answer (0-based) over `out`'s previous contents
    /// and return `true`; past the end — the paper's "error" case —
    /// return `false` (leaving `out` unspecified). Once `out` has served
    /// one call, a call allocates nothing, which is what lets a stream
    /// over the structure reuse one row buffer.
    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool;
    /// The `i`-th answer as an owned row, or `None` past the end.
    fn access(&self, i: u64) -> Option<Vec<Val>> {
        let mut out = Vec::new();
        self.access_into(i, &mut out).then_some(out)
    }
    /// Is the result empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One node of the reduced join tree: its globally consistent relation
/// sorted by parent key, then by `⪯`, and how its parent's rows reach it.
/// Rows are written through *slots* — positions in the structure's
/// output row.
pub(crate) struct Node {
    /// the rows, key columns first
    pub(crate) rows: Relation,
    n_key: usize,
    /// output slots the non-key columns write, in column order
    out_slots: Vec<usize>,
    /// the parent (an earlier position in the node list; the root's own)
    pub(crate) parent: usize,
    /// per row of the parent: the parent-key group of this node it joins
    /// (no row of the root's)
    link: Vec<u32>,
    /// the first row of each parent-key group, then the row count
    starts: Vec<u32>,
}

impl Node {
    /// The rows joining row `i` of the parent: one parent-key group,
    /// never empty after full reduction.
    pub(crate) fn rows_of(&self, i: usize) -> Range<usize> {
        let g = self.link[i] as usize;
        self.starts[g] as usize..self.starts[g + 1] as usize
    }

    /// Write row `i`'s non-key values into their output slots.
    #[inline]
    pub(crate) fn write(&self, i: usize, out: &mut [Val]) {
        let row = self.rows.row(i);
        for (&slot, &v) in self.out_slots.iter().zip(&row[self.n_key..]) {
            out[slot] = v;
        }
    }
}

/// Cumulative subtree weights, per node with children aligned with its
/// rows: rows `0..=i` of node `u` extend to `cumw[u][i]` answers of
/// `u`'s subtree. A node without children has none: each of its rows is
/// one answer of its subtree.
pub(crate) struct Weights {
    cumw: Vec<Vec<u128>>,
    total: u64,
}

/// The answers of a subtree under the rows `r` of its root, whose
/// running sums are `cumw` (none for a node without children).
fn weight(cumw: &[u128], r: Range<usize>) -> u128 {
    let below = |i: usize| i.checked_sub(1).map_or(0, |i| cumw[i]);
    if cumw.is_empty() {
        r.len() as u128
    } else {
        below(r.end) - below(r.start)
    }
}

/// The direct-access structure: a simulated array of answers, sorted by
/// [`LexDirectAccess::order`] — the reduced, sorted nodes plus, once
/// something asks for a position, their subtree weights.
pub struct LexDirectAccess {
    /// access order: the root is node 0, every parent comes before its
    /// children, and walking the list as an odometer visits the answers
    /// in array order
    nodes: Vec<Node>,
    /// the tree over positions in `nodes`
    tree: JoinTree,
    /// the output row: slot `i` holds `schema[i]`
    schema: Vec<Var>,
    /// the lexicographic order the array is sorted by
    order: Vec<Var>,
    weights: OnceLock<Weights>,
}

/// The layered tree of a trio-free `order` (Thm 3.24 \[27\]) over the
/// fully reduced `atoms` of a join query's `q'`, nodes in access order:
/// node `i` introduces `order[i]` = `vᵢ`. Its scope is `vᵢ` and
/// `N<(vᵢ)`, `vᵢ`'s neighbours before it — a clique, since no trio
/// disrupts the order, so an atom of `q'` covers it (`q'` is acyclic,
/// each body atom lies inside one of its atoms, so the two have the same
/// neighbours, and α-acyclic hypergraphs are conformal) and the node's
/// rows are that atom's projection, which full reduction makes the
/// projection of the answers. Its parent is the latest earlier
/// node whose scope holds `N<(vᵢ)` (the node of `N<(vᵢ)`'s last variable
/// qualifies), so a variable's nodes hang from its own: running
/// intersection.
fn layered(
    atoms: &[BoundAtom<'_>],
    order: &[Var],
) -> (Vec<BoundAtom<'static>>, JoinTree) {
    let (mut layers, mut scopes, mut parents) = (vec![], Vec::<u64>::new(), vec![]);
    let mut earlier = 0;
    for &v in order {
        let touching = atoms.iter().map(|a| a.scope()).filter(|s| s & v.mask() != 0);
        let before = touching.fold(0, |m, s| m | s) & earlier;
        let scope = before | v.mask();
        let a = (atoms.iter().find(|a| scope & !a.scope() == 0))
            .expect("a trio-free order's earlier neighbours are covered by an atom");
        let vars: Vec<Var> = mask_vertices(scope).map(|v| Var(v as u32)).collect();
        let cols = vars.iter().map(|&v| a.col_of(v).expect("the atom covers the scope"));
        let cols: Vec<usize> = cols.collect();
        layers.push(BoundAtom { vars, rel: Cow::Owned(a.rel.project(&cols)) });
        parents.push(scopes.iter().rposition(|&s| before & !s == 0));
        scopes.push(scope);
        earlier |= v.mask();
    }
    let tree = JoinTree::from_parents(scopes, parents, 0);
    debug_assert!(tree.validate_running_intersection());
    (layers, tree)
}

impl LexDirectAccess {
    /// Build the efficient structure for join query `q` and the
    /// lexicographic order `order` (Thm 3.24), over all variables in
    /// interning order: `q'` — the query's atoms, read in place, less
    /// those another atom covers — fully reduced along its links as every
    /// reduced tree is, then indexed on the order's layered tree (see the
    /// module doc); a Boolean body is its decision's one node. Fails with
    /// `NotAcyclic` on a cyclic body, with `Unsupported` naming the trio
    /// when `order` has a disruptive trio (fall back to
    /// [`LexDirectAccess::materialized`]), and with `CountOverflow` when
    /// the simulated array would have more than `u64::MAX` positions.
    ///
    /// Memoized in the catalog: the O(m log m) preprocessing (reduction,
    /// projections, sorts, links, prefix sums) runs once per database
    /// state, and `q'` and its links are those `COUNT`, `DECIDE` and
    /// `ANSWERS` of the query share; repeated `access` calls pay Õ(log m)
    /// each and nothing else. The reduction's rows visited plus links
    /// followed are the `steps` of the `op.lex-access.build` span, 0 on a
    /// warm hit.
    pub fn build(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        order: &[Var],
    ) -> Result<Arc<Self>, EvalError> {
        if !q.is_join_query() {
            return Err(EvalError::NotJoinQuery);
        }
        assert_eq!(order.len(), q.n_vars(), "order must cover all variables");
        let mut span = cq_obs::trace::span("op.lex-access.build");
        let mut steps = 0;
        let da = match q.is_boolean() {
            true => Self::shared(ctx, q, db, &mut None)?,
            false => ctx.memo(db, "lex_da", q, order, || {
                let linked = free_links(ctx, q, db, &mut None)?;
                if let Some(t) = find_disruptive_trio(q, order) {
                    let names = |vs: &[Var]| {
                        vs.iter().map(|&v| q.var_name(v)).collect::<Vec<_>>().join(", ")
                    };
                    let (order, trio) = (names(order), names(&[t.y1, t.y2, t.y3]));
                    return Err(EvalError::Unsupported(format!(
                        "no ⪯-compatible join tree for order ({order}): it has the \
                         disruptive trio ({trio}) (Thm 3.24)"
                    )));
                }
                let (atoms, _, s) = reduce_q_prime(ctx.cancel(), q, db, &linked)?;
                steps = s;
                let (layers, tree) = layered(&atoms, order);
                let all: Vec<usize> = (0..layers.len()).collect();
                let (schema, order) = (q.vars().collect(), order.to_vec());
                Self::from_reduced(ctx.cancel(), &layers, &tree, &all, schema, order)
            })?,
        };
        da.weights(ctx.cancel())?;
        span.attr("steps", steps);
        Ok(da)
    }

    /// Materialize-and-sort direct access — every query, every order,
    /// with Θ(|q(D)|) preprocessing: the baseline whose cost the
    /// dichotomy says is unavoidable for disrupted orders and on the hard
    /// side of Lemma 3.9. Generic join materializes `q(D)` under `order`
    /// (a permutation of the query's variables); the answers, over the
    /// free variables in interning order, are one node sorted by `order`
    /// restricted to them. Memoized in the catalog: repeated `access`
    /// workloads on an unchanged database pay the materialization once.
    pub fn materialized(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        order: &[Var],
    ) -> Result<Arc<Self>, EvalError> {
        ctx.memo(db, "mat_da", q, order, || {
            let rel = generic_join::answers(ctx, q, db, order)?;
            let free = q.free_vars();
            let order = order.iter().filter(|v| free.contains(v)).copied().collect();
            Self::one_node(ctx.cancel(), rel, free, order)
        })
    }

    /// The one-node tree over `rel`, whose columns are `schema`, sorted
    /// by `order` (exactly `schema`'s variables).
    pub(crate) fn one_node(
        cancel: &CancelToken,
        rel: Relation,
        schema: Vec<Var>,
        order: Vec<Var>,
    ) -> Result<Self, EvalError> {
        let atom = BoundAtom { vars: schema.clone(), rel: Cow::Owned(rel) };
        let tree = JoinTree::from_parents(vec![atom.scope()], vec![None], 0);
        Self::from_reduced(cancel, &[atom], &tree, &[0], schema, order)
    }

    /// Index fully reduced `atoms` over their join `tree`: **the** place a
    /// reduced node is sorted by its parent key and linked to its
    /// parent's sorted rows. `visit` lists the tree's nodes in access
    /// order: parents first, the variables they introduce concatenating
    /// to `order`. Rows are reported over `schema`, which must hold
    /// exactly the variables of the atoms — as must `order`. No weights
    /// yet. The token is polled per node.
    pub(crate) fn from_reduced(
        cancel: &CancelToken,
        atoms: &[BoundAtom<'_>],
        tree: &JoinTree,
        visit: &[usize],
        schema: Vec<Var>,
        order: Vec<Var>,
    ) -> Result<Self, EvalError> {
        let pos_of = |v: Var| order.iter().position(|&u| u == v).unwrap();
        let slot_of = |v: Var| schema.iter().position(|&u| u == v).unwrap();
        let mut position = vec![0; visit.len()];
        for (i, &u) in visit.iter().enumerate() {
            position[u] = i;
        }

        let mut nodes: Vec<Node> = Vec::with_capacity(visit.len());
        // per node, the variable of each column of its rows
        let mut row_vars: Vec<Vec<Var>> = Vec::with_capacity(visit.len());
        for &u in visit {
            cancel.check_now()?;
            let a = &atoms[u];
            // key columns (mask order), then the rest sorted by ⪯
            let mut cols: Vec<usize> = mask_vertices(tree.key_mask(u))
                .map(|v| a.col_of(Var(v as u32)).unwrap())
                .collect();
            let n_key = cols.len();
            let mut rest: Vec<usize> =
                (0..a.vars.len()).filter(|c| !cols.contains(c)).collect();
            rest.sort_by_key(|&c| pos_of(a.vars[c]));
            cols.extend(rest);
            let vars: Vec<Var> = cols.iter().map(|&c| a.vars[c]).collect();
            let out_slots = vars[n_key..].iter().map(|&v| slot_of(v)).collect();
            let rows = a.rel.permute(&cols);
            assert!(u32::try_from(rows.len()).is_ok(), "the tree indexes rows with u32");
            let parent = tree.parent(u).map(|p| position[p]);
            let mut starts: Vec<u32> = vec![0];
            let mut link = Vec::new();
            if let Some(parent) = parent {
                let col_of = |v| row_vars[parent].iter().position(|w| w == v);
                let pcols: Vec<usize> = vars[..n_key]
                    .iter()
                    .map(|v| col_of(v).expect("key ⊆ scope"))
                    .collect();
                let ccols: Vec<usize> = (0..n_key).collect();
                let e = EdgeLinks::build(&nodes[parent].rows, &pcols, &rows, &ccols);
                debug_assert!(!e.link.contains(&NONE), "the atoms are reduced");
                // sorted by its key, a node's groups are runs of its rows
                debug_assert!(e.own.is_sorted());
                starts.extend(
                    (1..rows.len())
                        .filter(|&i| e.own[i] != e.own[i - 1])
                        .map(|i| i as u32),
                );
                link = e.link;
            }
            starts.push(rows.len() as u32);
            let parent = parent.unwrap_or(0);
            nodes.push(Node { rows, n_key, out_slots, parent, link, starts });
            row_vars.push(vars);
        }
        let scopes = visit.iter().map(|&u| tree.scope(u)).collect();
        let parents = visit.iter().map(|&u| tree.parent(u).map(|p| position[p]));
        let tree = JoinTree::from_parents(scopes, parents.collect(), 0);
        Ok(LexDirectAccess { nodes, tree, schema, order, weights: OnceLock::new() })
    }

    /// The output schema: slot `i` of every answer holds `schema()[i]` —
    /// the free variables (all of a join query's) in interning order.
    pub fn schema(&self) -> &[Var] {
        &self.schema
    }

    /// The lexicographic order the simulated array is sorted by: the
    /// order a builder was given, or the one it chose.
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// The reduced, sorted nodes in access order — what the constant-delay
    /// walk steps through.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The subtree weights, built under `cancel` on first use:
    /// `CountOverflow` if the simulated array would have more than
    /// `u64::MAX` positions (a failed build stores nothing). They are the
    /// fold at the counting semiring with unit weights, which keeps the
    /// products of the rows of every node with children: a row's product
    /// is the number of answers of its subtree it extends to, and their
    /// running sums are the weights. Sorted by its parent key, a node's
    /// groups are the runs `starts` delimits, so the fold's per-row groups
    /// are read off them for the pass and dropped after it.
    pub(crate) fn weights(&self, cancel: &CancelToken) -> Result<&Weights, EvalError> {
        if let Some(w) = self.weights.get() {
            return Ok(w);
        }
        let sr = &CountingSemiring;
        let kids = |u: usize| !self.tree.children(u).is_empty();
        let (total, mut cumw, _) = {
            // the root has no parent edge to group its rows by
            let own: Vec<Vec<u32>> = (self.nodes.iter().enumerate())
                .map(|(u, n)| {
                    let runs = n.starts.windows(2).zip(0u32..).filter(|_| u != 0);
                    runs.flat_map(|(r, g)| repeat_n(g, (r[1] - r[0]) as usize)).collect()
                })
                .collect();
            let node = |u: usize| {
                let n = &self.nodes[u];
                let edge =
                    Edge { own: &own[u], groups: n.starts.len() - 1, link: &n.link };
                (n.rows.len(), (u != 0).then_some(edge))
            };
            // after full reduction every partial sum is at most the total
            // (each weighted row extends to an answer), so a total that
            // fits u64 — which the semiring's `finish` checks — means
            // nothing saturated
            sum_product(cancel, &self.tree, node, sr, kids)?
        };
        // the kept products become running sums, in place
        for rows in &mut cumw {
            for i in 1..rows.len() {
                rows[i] = sr.add(&rows[i - 1], &rows[i]);
            }
        }
        Ok(self.weights.get_or_init(|| Weights { cumw, total: total as u64 }))
    }

    /// The weights, built now if nothing has asked before; never
    /// cancelled. `None` only for a tree reached through an enumerator
    /// rather than a `build` (which refuses it) whose answers outnumber
    /// `u64`: it simulates no array.
    fn ready(&self) -> Option<&Weights> {
        self.weights.get().or_else(|| self.weights(&CancelToken::never()).ok())
    }
}

impl DirectAccess for LexDirectAccess {
    fn len(&self) -> u64 {
        self.ready().map_or(0, |w| w.total)
    }

    /// One pass over the nodes in access order. `radix` counts the
    /// answers that extend the rows picked so far: the product, over the
    /// nodes not yet visited whose parent is, of the weight of the group
    /// the parent's row hands them. The next node is one of those, so
    /// dividing its group's weight out leaves the count each of its rows'
    /// answers is multiplied by. The picked rows ride in `out` past the
    /// schema's slots.
    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool {
        let Some(w) = self.ready().filter(|w| i < w.total) else { return false };
        let width = self.schema.len();
        out.clear();
        out.resize(width + self.nodes.len(), 0);
        let (slots, picked) = out.split_at_mut(width);
        let (mut idx, mut radix) = (u128::from(i), u128::from(w.total));
        for (u, (node, cumw)) in self.nodes.iter().zip(&w.cumw).enumerate() {
            let group = match u {
                0 => 0..node.rows.len(),
                _ => node.rows_of(picked[node.parent] as usize),
            };
            radix /= weight(cumw, group.clone());
            let target = idx / radix;
            // the first row of the group whose running sum passes it
            let row = if cumw.is_empty() {
                group.start + target as usize
            } else {
                let target = weight(cumw, 0..group.start) + target;
                group.start + cumw[group.clone()].partition_point(|&c| c <= target)
            };
            idx -= weight(cumw, group.start..row) * radix;
            radix *= weight(cumw, row..row + 1);
            node.write(row, slots);
            picked[u] = row as Val;
        }
        // every radix divided out exactly, nothing left of the index
        debug_assert_eq!((idx, radix), (0, 1));
        out.truncate(width);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};

    /// Compare two assignments under a variable order.
    fn lex_cmp(a: &[Val], b: &[Val], order: &[Var]) -> std::cmp::Ordering {
        for &v in order {
            match a[v.index()].cmp(&b[v.index()]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }

    fn vars_by_name(q: &ConjunctiveQuery, names: &[&str]) -> Vec<Var> {
        names.iter().map(|n| q.var_by_name(n).unwrap()).collect()
    }

    /// The brute-force answers of join query `q`, sorted by `order`.
    fn reference(q: &ConjunctiveQuery, db: &Database, order: &[Var]) -> Vec<Vec<Val>> {
        let mut rows: Vec<Vec<Val>> = crate::bind::brute_force_answers(q, db)
            .unwrap()
            .iter()
            .map(<[Val]>::to_vec)
            .collect();
        rows.sort_by(|a, b| lex_cmp(a, b, order));
        rows
    }

    /// Every position of `da`, then none.
    fn array(da: &LexDirectAccess) -> Vec<Vec<Val>> {
        assert_eq!(da.access(da.len()), None);
        (0..da.len()).map(|i| da.access(i).unwrap()).collect()
    }

    /// Both builders that take an order simulate the reference array.
    fn assert_matches_materialized(q: &ConjunctiveQuery, db: &Database, order: &[Var]) {
        let want = reference(q, db, order);
        let lex = LexDirectAccess::build(&ExecCtx::cold(), q, db, order).unwrap();
        assert_eq!(array(&lex), want, "{q}");
        let mat = LexDirectAccess::materialized(&ExecCtx::cold(), q, db, order).unwrap();
        assert_eq!(array(&mat), want, "{q}");
        assert_eq!((lex.order(), mat.order()), (order, order));
    }

    #[test]
    fn path_query_natural_order() {
        let db = path_database(3, 40, &mut seeded_rng(1));
        let q = zoo::path_join(3);
        let order = vars_by_name(&q, &["x0", "x1", "x2", "x3"]);
        assert_matches_materialized(&q, &db, &order);
    }

    #[test]
    fn path_query_reverse_order() {
        let db = path_database(3, 40, &mut seeded_rng(2));
        let q = zoo::path_join(3);
        let order = vars_by_name(&q, &["x3", "x2", "x1", "x0"]);
        assert_matches_materialized(&q, &db, &order);
    }

    #[test]
    fn star_full_z_first_orders() {
        let db = star_database(2, 60, 5, &mut seeded_rng(3));
        let q = zoo::star_full(2);
        for names in [["z", "x1", "x2"], ["z", "x2", "x1"]] {
            let order = vars_by_name(&q, &names);
            assert_matches_materialized(&q, &db, &order);
        }
    }

    #[test]
    fn star_full_x_between_orders() {
        // z second is still trio-free: (x1, z, x2)
        let db = star_database(2, 60, 5, &mut seeded_rng(4));
        let q = zoo::star_full(2);
        for names in [["x1", "z", "x2"], ["x2", "z", "x1"]] {
            let order = vars_by_name(&q, &names);
            assert_matches_materialized(&q, &db, &order);
        }
    }

    #[test]
    fn independent_atoms_interleaved() {
        // a and c live in R, b and d in S: the order interleaves two
        // independent subtrees, which no reroot of a two-atom tree keeps
        // as contiguous blocks
        let mut db = Database::new();
        let mut rng = seeded_rng(11);
        db.insert("R", cq_data::generate::random_pairs(20, 6, &mut rng));
        db.insert("S", cq_data::generate::random_pairs(20, 6, &mut rng));
        let q = cq_core::parse_query("q(a, b, c, d) :- R(a, c), S(b, d)").unwrap();
        assert_matches_materialized(&q, &db, &vars_by_name(&q, &["a", "b", "c", "d"]));
    }

    #[test]
    fn ternary_atom_split_by_its_neighbour() {
        // w, introduced by S, comes between T's y and z
        let mut db = Database::new();
        let mut rng = seeded_rng(12);
        db.insert("T", cq_data::generate::random_relation(3, 40, 4, &mut rng));
        db.insert("S", cq_data::generate::random_pairs(12, 4, &mut rng));
        let q = cq_core::parse_query("q(x, y, z, w) :- T(x, y, z), S(y, w)").unwrap();
        assert_matches_materialized(&q, &db, &vars_by_name(&q, &["x", "y", "w", "z"]));
    }

    #[test]
    fn star3_z_first() {
        let db = star_database(3, 50, 4, &mut seeded_rng(5));
        let q = zoo::star_full(3);
        let order = vars_by_name(&q, &["z", "x1", "x3", "x2"]);
        assert_matches_materialized(&q, &db, &order);
    }

    #[test]
    fn disrupted_order_rejected() {
        // Lemma 3.23: q̂*_2 with z last has a disruptive trio; the
        // builder must refuse.
        let db = star_database(2, 30, 4, &mut seeded_rng(6));
        let q = zoo::star_full(2);
        let order = vars_by_name(&q, &["x1", "x2", "z"]);
        match LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order) {
            Err(EvalError::Unsupported(msg)) => {
                assert!(msg.contains("disruptive trio"), "{msg}");
            }
            other => panic!("expected Unsupported, got {:?}", other.map(|d| d.len())),
        }
        // the materialized fallback serves it, sorted by the order
        let mat =
            LexDirectAccess::materialized(&ExecCtx::cold(), &q, &db, &order).unwrap();
        assert!(mat.len() > 0);
        assert_eq!(array(&mat), reference(&q, &db, &order));
    }

    #[test]
    fn single_atom_any_order() {
        let mut db = Database::new();
        db.insert(
            "R",
            cq_data::Relation::from_rows(
                3,
                vec![vec![1, 2, 3], vec![2, 1, 1], vec![1, 1, 9], vec![4, 4, 4]],
            ),
        );
        let q = cq_core::parse_query("q(a, b, c) :- R(a, b, c)").unwrap();
        for names in [["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"]] {
            let order = vars_by_name(&q, &names);
            assert_matches_materialized(&q, &db, &order);
        }
    }

    #[test]
    fn lex_order_is_sorted() {
        let db = path_database(2, 50, &mut seeded_rng(7));
        let q = zoo::path_join(2);
        let order = vars_by_name(&q, &["x0", "x1", "x2"]);
        let lex = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
        let mut prev: Option<Vec<Val>> = None;
        for i in 0..lex.len() {
            let cur = lex.access(i).unwrap();
            if let Some(p) = prev {
                assert_eq!(lex_cmp(&p, &cur, &order), std::cmp::Ordering::Less);
            }
            prev = Some(cur);
        }
    }

    #[test]
    fn empty_result() {
        let mut db = Database::new();
        db.insert("R1", cq_data::Relation::new(2));
        db.insert("R2", cq_data::Relation::new(2));
        let q = zoo::path_join(2);
        let order: Vec<Var> = q.vars().collect();
        let lex = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
        assert_eq!(lex.len(), 0);
        assert_eq!(lex.access(0), None);
    }

    #[test]
    fn overflowing_result_size_is_an_error() {
        // five spokes sharing one hub value: (2^13)^5 = 2^65 positions
        let spokes = cq_data::Relation::from_pairs((0..1u64 << 13).map(|a| (a, 0)));
        let mut db = Database::new();
        db.insert("R", spokes);
        let q = zoo::star_full(5);
        let order = vars_by_name(&q, &["z", "x1", "x2", "x3", "x4", "x5"]);
        assert!(matches!(
            LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order),
            Err(EvalError::CountOverflow)
        ));
        // the walk needs no weights; the tree it exposes simulates no array
        let tree = crate::enumerate::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        assert!(crate::Answers::walk(Arc::clone(&tree)).next().unwrap().is_some());
        assert_eq!((tree.len(), tree.access(0)), (0, None));
    }

    #[test]
    fn nullary_body_is_its_decision() {
        let mut b = cq_core::QueryBuilder::new("q");
        b.atom("R", &[]);
        b.atom("S", &[]);
        let q = b.build().unwrap();
        for truth in [true, false] {
            let mut db = Database::new();
            db.insert("R", Relation::nullary(true));
            db.insert("S", Relation::nullary(truth));
            let da = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &[]).unwrap();
            assert_eq!(
                (da.len(), da.access(0)),
                (u64::from(truth), truth.then(Vec::new))
            );
        }
    }

    #[test]
    fn non_join_query_rejected() {
        let db = star_database(2, 20, 2, &mut seeded_rng(9));
        let q = zoo::star_selfjoin(2);
        let order: Vec<Var> = q.vars().collect();
        assert!(matches!(
            LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order),
            Err(EvalError::NotJoinQuery)
        ));
    }
}
