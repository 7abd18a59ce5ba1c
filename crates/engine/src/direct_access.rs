//! Direct access in lexicographic orders (paper §3.4.1, Theorem 3.24) —
//! and the one reduced, linked join tree the easy side shares.
//!
//! Goal: after preprocessing, return the `i`-th answer of a join query in
//! the lexicographic order induced by a variable order `⪯`, in Õ(log m)
//! per access.
//!
//! [`LexDirectAccess`] implements the efficient side: it searches for a
//! `⪯`-compatible rooted join tree — one where (a) every node's newly
//! introduced variables come after all variables of its parent's scope
//! and (b) each subtree's introduced variables form a contiguous block of
//! `⪯` — fully reduces the atoms along its links and keeps, per node in
//! preorder, *rows + links*: the rows as a [`cq_data::Relation`] with the
//! parent key's columns first, then the rest by `⪯` (so sorted that way);
//! the first row of each parent-key group; and per row of the parent the
//! group it joins (the `EdgeLinks` of the edge, over the sorted rows).
//! That is *the* product of the linear preprocessing of Thm 3.17 / 3.18 /
//! 3.24, and nothing searches it by key: the constant-delay walk of
//! [`crate::enumerate`] steps through the nodes as an odometer, a move
//! into a child being two array reads, and an access descends them by
//! binary search on subtree-count prefix sums *within the group it was
//! handed*, plus mixed-radix decomposition across independent subtrees
//! (O(log m) per access). The prefix sums are the only part the walk
//! does not need, so they are built on first `len` / `access` (or up
//! front by `build`, which is where an overflowing count and a deadline
//! surface). On the paper's example families the builder succeeds
//! exactly on the trio-free orders; when no compatible tree is found it
//! reports failure and callers fall back to
//! [`MaterializedDirectAccess`] (materialize + sort, the superlinear
//! baseline whose cost gap is the content of Lemma 3.23).

use crate::bind::{bind, BoundAtom, EvalError};
use crate::cancel::CancelToken;
use crate::ctx::ExecCtx;
use crate::generic_join;
use crate::links::{EdgeLinks, JoinLinks, NONE};
use crate::yannakakis::{full_reduce, join_tree_of_atoms};
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, Relation, Val};
use std::borrow::{Borrow, Cow};
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
    /// return `false` (leaving `out` unspecified). Once `out` has grown
    /// to the structure's row width a call allocates nothing, which is
    /// what lets a stream over the structure reuse one row buffer.
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

/// Shared (catalog-cached) structures access like owned ones.
impl<T: DirectAccess + ?Sized> DirectAccess for Arc<T> {
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool {
        (**self).access_into(i, out)
    }
}

/// Materialize-and-sort direct access — works for every query and every
/// order, with Θ(|q(D)|) preprocessing: the baseline whose preprocessing
/// cost the dichotomy says is unavoidable for disrupted orders and on the
/// hard side of Lemma 3.9.
pub struct MaterializedDirectAccess {
    /// The answers with their columns permuted into sort order, sorted.
    rows: Relation,
    /// `cols[i]`: the output column of `rows`' column `i`.
    cols: Vec<usize>,
}

impl MaterializedDirectAccess {
    /// Materialize `q(D)` by generic join under the variable order
    /// `order` (a permutation of the query's variables) and sort by
    /// `order` restricted to the free variables, memoized in the
    /// catalog: repeated `access` workloads on an unchanged database
    /// pay the Θ(|q(D)|) materialization once.
    pub fn build(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        order: &[Var],
    ) -> Result<Arc<Self>, EvalError> {
        let key = format!("{q}|{order:?}");
        ctx.catalog().artifact(db, "mat_da", &key, q.relations(), || {
            // `rel`'s columns are the free variables in interning order
            let rel = generic_join::answers(ctx, q, db, order)?;
            let free = q.free_vars();
            let cols: Vec<usize> =
                order.iter().filter_map(|v| free.iter().position(|f| f == v)).collect();
            Ok(MaterializedDirectAccess { rows: rel.permute(&cols), cols })
        })
    }
}

impl DirectAccess for MaterializedDirectAccess {
    fn len(&self) -> u64 {
        self.rows.len() as u64
    }
    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool {
        if i >= self.len() {
            return false;
        }
        out.clear();
        out.resize(self.cols.len(), 0);
        // the columns are permuted into sort order: undo that
        for (&c, &v) in self.cols.iter().zip(self.rows.row(i as usize)) {
            out[c] = v;
        }
        true
    }
}

/// One node of the reduced join tree: its globally consistent relation
/// sorted by parent key, then by `⪯`, and how its parent's rows reach it.
/// Rows are written through *slots* — positions in the structure's
/// output row.
pub(crate) struct Node {
    /// the rows, key columns first
    pub(crate) rows: Relation,
    pub(crate) n_key: usize,
    /// output slots the non-key columns write, in column order
    pub(crate) out_slots: Vec<usize>,
    /// the parent (a position in the preorder node list; the root's own)
    pub(crate) parent: usize,
    /// per row of the parent: the parent-key group of this node it joins
    /// (no row of the root's)
    link: Vec<u32>,
    /// the first row of each parent-key group, then the row count
    starts: Vec<u32>,
    /// children in ⪯-block order (positions in the preorder node list)
    children: Vec<usize>,
}

impl Node {
    /// The rows joining row `i` of the parent: one parent-key group,
    /// never empty after full reduction.
    pub(crate) fn rows_of(&self, i: usize) -> Range<usize> {
        let g = self.link[i] as usize;
        self.starts[g] as usize..self.starts[g + 1] as usize
    }
}

/// Cumulative subtree weights, per node aligned with its rows
/// (len + 1 each): row `i` of node `u` extends to
/// `cumw[u][i + 1] - cumw[u][i]` answers of `u`'s subtree.
pub(crate) struct Weights {
    cumw: Vec<Vec<u128>>,
    total: u64,
}

/// The efficient lexicographic direct-access structure (Thm 3.24 upper
/// bound): the reduced, sorted nodes plus, once something asks for a
/// position, their subtree weights.
pub struct LexDirectAccess {
    /// preorder, children in ⪯-block order: the root is node 0, and
    /// walking the list as an odometer visits the answers in access order
    nodes: Vec<Node>,
    /// output row width
    width: usize,
    weights: OnceLock<Weights>,
}

/// Check the two compatibility conditions of a rooted tree w.r.t. an
/// order.
fn is_compatible(tree: &JoinTree, order: &[Var]) -> bool {
    let pos_of = |v: usize| -> usize {
        order.iter().position(|u| u.index() == v).expect("order must cover variables")
    };
    let n = tree.n_nodes();
    let intro: Vec<u64> = (0..n).map(|u| tree.scope(u) & !tree.key_mask(u)).collect();
    // condition A: intro(u) after all of scope(parent)
    for (u, &iu) in intro.iter().enumerate() {
        if let Some(p) = tree.parent(u) {
            let pmax = mask_vertices(tree.scope(p)).map(&pos_of).max();
            let imin = mask_vertices(iu).map(&pos_of).min();
            if let (Some(pmax), Some(imin)) = (pmax, imin) {
                if imin < pmax {
                    return false;
                }
            }
        }
    }
    // condition B: subtree intro masks are contiguous position blocks
    let mut subtree = intro;
    for &u in &tree.bottom_up() {
        if let Some(p) = tree.parent(u) {
            subtree[p] |= subtree[u];
        }
    }
    (0..n).filter(|&u| tree.parent(u).is_some()).all(|u| {
        let positions: Vec<usize> = mask_vertices(subtree[u]).map(&pos_of).collect();
        let (lo, hi) = (positions.iter().min(), positions.iter().max());
        lo.zip(hi).is_none_or(|(lo, hi)| hi - lo + 1 == positions.len())
    })
}

/// Re-parent every node as high (close to the root) as possible while
/// keeping running intersection: node u may hang from any ancestor whose
/// scope contains `key(u)`. Flattening stars gives more orders a
/// compatible tree (e.g. q̂*_k with z first).
fn flatten(tree: &JoinTree) -> JoinTree {
    let n = tree.n_nodes();
    let mut parent: Vec<Option<usize>> = (0..n).map(|u| tree.parent(u)).collect();
    for u in tree.top_down() {
        let key = tree.key_mask(u);
        // walk ancestors from the root down: the highest ancestor whose
        // scope covers key(u)
        let mut chain = Vec::new();
        let mut a = parent[u];
        while let Some(p) = a {
            chain.push(p);
            a = parent[p];
        }
        chain.reverse(); // root first
        for &anc in &chain {
            if key & !tree.scope(anc) == 0 {
                parent[u] = Some(anc);
                break;
            }
        }
    }
    JoinTree::from_parents(tree.scopes().to_vec(), parent, tree.root())
}

impl LexDirectAccess {
    /// Try to build the efficient structure for join query `q` and the
    /// lexicographic order `order`. Fails with `Unsupported` when no
    /// ⪯-compatible tree is found (disrupted orders; fall back to
    /// [`MaterializedDirectAccess`]), and with `CountOverflow` when the
    /// simulated array would have more than `u64::MAX` positions.
    ///
    /// Memoized in the catalog: the O(m log m) preprocessing (tree
    /// search, reduction, sorts, links, prefix sums) runs once per
    /// database state; repeated `access` calls pay Õ(log m) each and
    /// nothing else. The reduction's rows visited plus links followed are
    /// the `steps` of the `op.lex-access.build` span, 0 on a warm hit.
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
        let key = format!("{q}|{order:?}");
        let mut span = cq_obs::trace::span("op.lex-access.build");
        let mut steps = 0;
        let da = ctx.catalog().artifact(db, "lex_da", &key, q.relations(), || {
            let mut atoms: Vec<_> = bind(q, db)?.into_iter().map(Cow::Owned).collect();
            let base =
                join_tree_of_atoms(&atoms, q.n_vars()).ok_or(EvalError::NotAcyclic)?;
            // search: every reroot, flattened and plain
            let tree = (0..base.n_nodes())
                .map(|r| base.rerooted(r))
                .flat_map(|t| [flatten(&t), t])
                .find(|cand| is_compatible(cand, order))
                .ok_or_else(|| {
                    EvalError::Unsupported(format!(
                        "no ⪯-compatible join tree for order {:?} (disruptive trio: {:?})",
                        order
                            .iter()
                            .map(|&v| q.var_name(v).to_string())
                            .collect::<Vec<_>>(),
                        cq_core::disruptive_trio::find_disruptive_trio(q, order).map(
                            |t| {
                                format!(
                                    "({}, {}, {})",
                                    q.var_name(t.y1),
                                    q.var_name(t.y2),
                                    q.var_name(t.y3)
                                )
                            }
                        )
                    ))
                })?;
            // full reduction → every tuple participates in an answer
            ctx.cancel().check_now()?;
            let links = JoinLinks::of(&tree, |u| (&atoms[u].vars, &atoms[u].rel));
            steps = full_reduce(&mut atoms, &links);
            let schema: Vec<Var> = q.vars().collect();
            Self::from_reduced(ctx.cancel(), &atoms, &tree, &schema, order)
        })?;
        da.weights(ctx.cancel())?;
        span.attr("steps", steps);
        Ok(da)
    }

    /// Index fully reduced `atoms` over their ⪯-compatible join tree:
    /// **the** place a reduced node is sorted by its parent key and
    /// linked to its parent's sorted rows. Rows are reported over
    /// `schema`, which must hold exactly the variables of the atoms — as
    /// must `order`. No weights yet. The token is polled per node.
    pub(crate) fn from_reduced(
        cancel: &CancelToken,
        atoms: &[impl Borrow<BoundAtom>],
        tree: &JoinTree,
        schema: &[Var],
        order: &[Var],
    ) -> Result<Self, EvalError> {
        let pos_of = |v: Var| order.iter().position(|&u| u == v).unwrap();
        let slot_of = |v: Var| schema.iter().position(|&u| u == v).unwrap();
        // where each subtree's block of ⪯ starts
        let mut block: Vec<usize> = (0..tree.n_nodes())
            .map(|u| {
                mask_vertices(tree.scope(u) & !tree.key_mask(u))
                    .map(|v| pos_of(Var(v as u32)))
                    .min()
                    .unwrap_or(usize::MAX)
            })
            .collect();
        for &u in &tree.bottom_up() {
            if let Some(p) = tree.parent(u) {
                block[p] = block[p].min(block[u]);
            }
        }
        // preorder, children in block order
        let mut preorder = Vec::with_capacity(tree.n_nodes());
        let mut stack = vec![tree.root()];
        while let Some(u) = stack.pop() {
            preorder.push(u);
            let mut kids = tree.children(u).to_vec();
            kids.sort_by_key(|&c| block[c]);
            stack.extend(kids.into_iter().rev());
        }
        let mut position = vec![0; preorder.len()];
        for (i, &u) in preorder.iter().enumerate() {
            position[u] = i;
        }

        let mut nodes: Vec<Node> = Vec::with_capacity(preorder.len());
        // per node, the variable of each column of its rows
        let mut row_vars: Vec<Vec<Var>> = Vec::with_capacity(preorder.len());
        for &u in &preorder {
            cancel.check_now()?;
            let a: &BoundAtom = atoms[u].borrow();
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
            // preorder positions are already in block order
            let mut children: Vec<usize> =
                tree.children(u).iter().map(|&c| position[c]).collect();
            children.sort_unstable();
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
            nodes.push(Node { rows, n_key, out_slots, parent, link, starts, children });
            row_vars.push(vars);
        }
        Ok(LexDirectAccess { nodes, width: schema.len(), weights: OnceLock::new() })
    }

    /// The reduced, sorted nodes in preorder — what the constant-delay
    /// walk steps through.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The subtree weights, built under `cancel` on first use:
    /// `CountOverflow` if the simulated array would have more than
    /// `u64::MAX` positions (a failed build stores nothing). Bottom-up —
    /// in preorder children follow their parent — a row weighs the
    /// product over the node's children of the weight of the child's
    /// matching rows; the token is polled per row.
    pub(crate) fn weights(&self, cancel: &CancelToken) -> Result<&Weights, EvalError> {
        if let Some(w) = self.weights.get() {
            return Ok(w);
        }
        let mut cumw: Vec<Vec<u128>> = vec![Vec::new(); self.nodes.len()];
        for (u, node) in self.nodes.iter().enumerate().rev() {
            let kids: Vec<(&Node, &[u128])> =
                node.children.iter().map(|&c| (&self.nodes[c], &cumw[c][..])).collect();
            let mut acc: Vec<u128> = Vec::with_capacity(node.rows.len() + 1);
            acc.push(0);
            for i in 0..node.rows.len() {
                cancel.check()?;
                let mut w: u128 = 1;
                for (kid, cumw) in &kids {
                    let r = kid.rows_of(i);
                    w = w.saturating_mul(cumw[r.end] - cumw[r.start]);
                }
                // weights are counts: saturation keeps "too many" too many
                acc.push(acc[i].saturating_add(w));
            }
            drop(kids);
            cumw[u] = acc;
        }
        // after full reduction every partial sum is at most the total
        // (each weighted row extends to an answer), so a total that fits
        // u64 means nothing above saturated
        let total = *cumw[0].last().expect("every node has an end sentinel");
        let total = u64::try_from(total).map_err(|_| EvalError::CountOverflow)?;
        Ok(self.weights.get_or_init(|| Weights { cumw, total }))
    }

    /// The weights, built now if nothing has asked before; never
    /// cancelled. `None` only for a tree reached through an enumerator
    /// rather than a `build` (which refuses it) whose answers outnumber
    /// `u64`: it simulates no array.
    fn ready(&self) -> Option<&Weights> {
        self.weights.get().or_else(|| self.weights(&CancelToken::never()).ok())
    }

    /// Write the `idx`-th answer of `u`'s subtree under the parent-key
    /// group `range` of its rows.
    fn access_rec(
        &self,
        w: &Weights,
        u: usize,
        range: Range<usize>,
        idx: u128,
        out: &mut [Val],
    ) {
        let (node, cumw) = (&self.nodes[u], &w.cumw[u]);
        let target = cumw[range.start] + idx;
        // the last row of the group whose prefix sum is at most the target
        let lo = range.start + cumw[range].partition_point(|&c| c <= target) - 1;
        let mut residual = target - cumw[lo];
        let row = node.rows.row(lo);
        for (&slot, &v) in node.out_slots.iter().zip(&row[node.n_key..]) {
            out[slot] = v;
        }
        // mixed-radix over children: the row's weight is the product
        // of its children's factors (that is how `weights` weighed it),
        // so dividing a child's factor out leaves the radix of the
        // children after it.
        let mut radix = cumw[lo + 1] - cumw[lo];
        for &c in &node.children {
            let r = self.nodes[c].rows_of(lo);
            radix /= w.cumw[c][r.end] - w.cumw[c][r.start];
            let idx_c = residual / radix;
            residual %= radix;
            self.access_rec(w, c, r, idx_c, out);
        }
        // every factor divided out of the weight exactly, nothing left
        debug_assert_eq!((radix, residual), (1, 0));
    }
}

impl DirectAccess for LexDirectAccess {
    fn len(&self) -> u64 {
        self.ready().map_or(0, |w| w.total)
    }

    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool {
        let Some(w) = self.ready().filter(|w| i < w.total) else { return false };
        out.clear();
        out.resize(self.width, 0);
        self.access_rec(w, 0, 0..self.nodes[0].rows.len(), u128::from(i), out);
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

    fn assert_matches_materialized(q: &ConjunctiveQuery, db: &Database, order: &[Var]) {
        let lex = LexDirectAccess::build(&ExecCtx::cold(), q, db, order).unwrap();
        let mat =
            MaterializedDirectAccess::build(&ExecCtx::cold(), q, db, order).unwrap();
        assert_eq!(lex.len(), mat.len(), "sizes differ for {q}");
        for i in 0..lex.len() {
            assert_eq!(lex.access(i), mat.access(i), "index {i} of {q}");
        }
        assert_eq!(lex.access(lex.len()), None);
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
        // materialized fallback still works
        let mat =
            MaterializedDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
        assert!(mat.len() > 0);
        // and is sorted by the order
        for i in 1..mat.len() {
            let a = mat.access(i - 1).unwrap();
            let b = mat.access(i).unwrap();
            assert_ne!(lex_cmp(&a, &b, &order), std::cmp::Ordering::Greater);
        }
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
        let e = crate::Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
        assert!(crate::AnswerStream::next(&mut e.stream()).unwrap().is_some());
        assert_eq!((e.direct_access().len(), e.direct_access().access(0)), (0, None));
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
