//! Worst-case optimal generic join (paper §2.1's AGM / WCOJ background).
//!
//! The leapfrog-style variable-elimination join: fix a global variable
//! order; at each depth intersect the candidate values offered by every
//! atom containing the variable. Each atom offers them as one contiguous
//! sorted slice — a level of its [`SortedView`]'s key trie, narrowed to
//! the children of the prefix bound so far — so the intersection is a
//! merge of slices (a gallop where one is much longer), and descending
//! reads the child range from the trie's offsets. The runtime is
//! bounded by the AGM fractional-edge-cover bound of the query — e.g. m^{3/2} for the triangle query and m^{1+1/(k−1)} for
//! Loomis–Whitney q^LW_k (Example 3.4), which is why this single
//! algorithm is both the m^{3/2} triangle baseline of Thm 3.2 and the
//! *optimal* LW algorithm of Thm 3.5.

use crate::bind::{collapse_rel, distinct_vars, validate_atom, EvalError};
use crate::cancel::CancelToken;
use crate::ctx::ExecCtx;
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, FxHashSet, Relation, SortedView, Val};
use std::sync::Arc;

/// One atom prepared for the join: its view is sorted with columns in
/// global variable order. Views are shared (`Arc`) so the catalog path
/// can hand out memoized indexes without copying.
struct PreparedAtom {
    view: Arc<SortedView>,
    /// for each of the atom's columns (in view order), the global depth
    /// of the corresponding variable
    depths: Vec<usize>,
}

/// `pos[v.index()]` = position of `v` in `order` (`usize::MAX` when the
/// variable is not in the order). Replaces the per-variable linear scan
/// of the order — O(|order|) once instead of O(|order|) per lookup.
fn position_map(order: &[Var]) -> Vec<usize> {
    let n = order.iter().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut pos = vec![usize::MAX; n];
    for (i, v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    pos
}

#[inline]
fn pos_in(pos: &[usize], v: Var) -> usize {
    let p = pos.get(v.index()).copied().unwrap_or(usize::MAX);
    assert!(p != usize::MAX, "order must cover all variables");
    p
}

/// Column permutation of an atom's (distinct) variables sorted by global
/// position, and the global depth of each permuted column.
fn atom_layout(vars: &[Var], pos: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut cols: Vec<usize> = (0..vars.len()).collect();
    cols.sort_by_key(|&c| pos_in(pos, vars[c]));
    let depths: Vec<usize> = cols.iter().map(|&c| pos_in(pos, vars[c])).collect();
    (cols, depths)
}

/// What the join does with the full assignments it finds.
enum Sink<'v> {
    /// Call the visitor with each one (in `order`-order); `false` stops.
    Visit(&'v mut dyn FnMut(&[Val]) -> bool),
    /// Only count them ([`JoinWork::count`]): the last depth adds up
    /// intersection sizes.
    Count,
}

/// What one join run did, for the `op.generic-join.*` spans.
#[derive(Clone, Copy, Default)]
struct JoinWork {
    /// Did the enumeration run to completion (no visitor stop)?
    completed: bool,
    /// Full assignments found, when run with [`Sink::Count`].
    count: u64,
    /// Cursor movements — gallop seeks and single merge steps alike:
    /// the deterministic work measure the AGM bound is checked against.
    seeks: u64,
}

/// One trie level an atom contributes to a depth's intersection.
struct LevelRef<'a> {
    vals: &'a [Val],
    /// Child offsets of the level; `None` for the atom's last column.
    child: Option<&'a [u32]>,
    /// Index into [`JoinState::ranges`] of this (atom, column); the
    /// range of the atom's next column is at `slot + 1`.
    slot: usize,
}

/// A cursor into one level slice: `rest` is what is left of the slice,
/// whose end sits at index `end` of the level.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    rest: &'a [Val],
    end: usize,
    /// Seek by galloping instead of stepping (fixed per intersection).
    gallop: bool,
}

impl<'a> Cursor<'a> {
    /// Level index of the cursor's current element.
    #[inline]
    fn pos(&self) -> usize {
        self.end - self.rest.len()
    }

    /// Gallop to the first element `>= target`, given `rest[0] < target`.
    fn gallop_to(&mut self, target: Val) {
        let rest: &'a [Val] = self.rest;
        // rest[prev] < target holds throughout
        let (mut prev, mut step) = (0usize, 1usize);
        let hi = loop {
            let probe = prev + step;
            if probe < rest.len() && rest[probe] < target {
                prev = probe;
                step <<= 1;
            } else {
                break probe.min(rest.len());
            }
        };
        let n = prev + 1 + rest[prev + 1..hi].partition_point(|&v| v < target);
        self.rest = &rest[n..];
    }
}

/// A slice this many times longer than the shortest one of its
/// intersection is sought by galloping; shorter ones by stepping. A step
/// is one dependent compare; a gallop seek is about `2·log₂(gap)` poorly
/// predicted probes, and the expected gap is the length ratio. Counting
/// a 4 096-element slice against one `g` times longer, galloping the long
/// side ties with stepping at `g = 2` and wins from `g = 4` on — a
/// property of the two loops, not of the data, so there is no knob.
const GALLOP_RATIO: usize = 4;

/// The immutable half of a running join.
struct JoinPlan<'a> {
    /// Per depth, the levels to intersect.
    depths: Vec<Vec<LevelRef<'a>>>,
    /// Per depth, where its cursors start in [`JoinState::cursors`].
    cursor_base: Vec<usize>,
    cancel: &'a CancelToken,
}

/// The mutable half: every per-depth buffer, allocated once per join.
struct JoinState<'a> {
    /// Per (atom, column) slot, the level range the bound prefix leaves.
    ranges: Vec<(usize, usize)>,
    cursors: Vec<Cursor<'a>>,
    assignment: Vec<Val>,
    count: u64,
    seeks: u64,
}

/// Run the prepared join: intersect per depth, feed `sink`.
fn run_prepared(
    prepared: &[PreparedAtom],
    n_depths: usize,
    cancel: &CancelToken,
    mut sink: Sink<'_>,
) -> Result<JoinWork, EvalError> {
    let mut depths: Vec<Vec<LevelRef<'_>>> = Vec::new();
    depths.resize_with(n_depths, Vec::new);
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for p in prepared {
        let base = ranges.len();
        for (lc, &d) in p.depths.iter().enumerate() {
            let vals = p.view.level(lc);
            let child = (lc + 1 < p.depths.len()).then(|| p.view.level_offsets(lc));
            depths[d].push(LevelRef { vals, child, slot: base + lc });
            // only the first column's range is known before the join
            ranges.push((0, if lc == 0 { vals.len() } else { 0 }));
        }
    }
    // every variable must be constrained by some atom
    assert!(
        depths.iter().all(|v| !v.is_empty()),
        "every variable in the order must occur in some atom"
    );
    let mut cursor_base = Vec::with_capacity(n_depths);
    let mut n_cursors = 0;
    for its in &depths {
        cursor_base.push(n_cursors);
        n_cursors += its.len();
    }
    let plan = JoinPlan { depths, cursor_base, cancel };
    let mut st = JoinState {
        ranges,
        cursors: vec![Cursor { rest: &[], end: 0, gallop: false }; n_cursors],
        assignment: vec![0; n_depths],
        count: 0,
        seeks: 0,
    };
    let completed = if n_depths == 0 {
        // no variables: the one (empty) assignment satisfies every atom
        cancel.check()?;
        match &mut sink {
            Sink::Visit(visit) => visit(&st.assignment),
            Sink::Count => {
                st.count += 1;
                true
            }
        }
    } else {
        descend(&plan, &mut st, 0, &mut sink)?
    };
    Ok(JoinWork { completed, count: st.count, seeks: st.seeks })
}

/// Leapfrog, in rounds: every cursor behind the largest current value
/// moves towards it — a galloping cursor seeks it, a stepping cursor
/// moves one element, without a branch on the comparison — until a round
/// moves nothing: all cursors then sit on one common value. Returns it,
/// or `None` once a cursor runs out. Every cursor must be non-empty.
#[inline]
fn align(cursors: &mut [Cursor<'_>], seeks: &mut u64) -> Option<Val> {
    if let [a, b] = cursors {
        if !a.gallop && !b.gallop {
            return align_pair(a, b, seeks);
        }
    }
    loop {
        let target = cursors.iter().map(|c| c.rest[0]).max()?;
        let mut moved = 0;
        for c in cursors.iter_mut() {
            let behind = c.rest[0] < target;
            if c.gallop {
                if behind {
                    c.gallop_to(target);
                }
            } else {
                c.rest = &c.rest[usize::from(behind)..];
            }
            moved += u64::from(behind);
            if c.rest.is_empty() {
                *seeks += moved;
                return None;
            }
        }
        if moved == 0 {
            return Some(target);
        }
        *seeks += moved;
    }
}

/// [`align`] for two stepping cursors — the shape of every intersection
/// over binary relations of similar fan-out — with both slices held in
/// locals for the whole merge instead of re-read through the cursors.
#[inline]
fn align_pair(a: &mut Cursor<'_>, b: &mut Cursor<'_>, seeks: &mut u64) -> Option<Val> {
    let (mut x, mut y) = (a.rest, b.rest);
    let mut steps = 0;
    let found = loop {
        let (Some(&u), Some(&v)) = (x.first(), y.first()) else {
            break None;
        };
        if u == v {
            break Some(u);
        }
        x = &x[usize::from(u < v)..];
        y = &y[usize::from(v < u)..];
        steps += 1;
    };
    (a.rest, b.rest) = (x, y);
    *seeks += steps;
    found
}

/// Step every (aligned) cursor past the common value — values are
/// distinct within a slice, so that is one element each. `false` once a
/// cursor runs out.
#[inline]
fn advance(cursors: &mut [Cursor<'_>], seeks: &mut u64) -> bool {
    let mut live = true;
    for c in cursors.iter_mut() {
        c.rest = &c.rest[1..];
        live &= !c.rest.is_empty();
    }
    *seeks += cursors.len() as u64;
    live
}

/// Expand one search node: leapfrog-intersect the level slices that the
/// bound prefix leaves at `depth`, and for every common value descend
/// (or, at the last depth, feed the sink). `Ok(false)` = visitor stop.
fn descend<'a>(
    plan: &JoinPlan<'a>,
    st: &mut JoinState<'a>,
    depth: usize,
    sink: &mut Sink<'_>,
) -> Result<bool, EvalError> {
    // poll per expanded node, not in the visitor: joins that produce no
    // results still descend here constantly, so this is the live site
    plan.cancel.check()?;
    let its = plan.depths[depth].as_slice();
    let base = plan.cursor_base[depth];
    let span = base..base + its.len();
    let last = depth + 1 == plan.depths.len();

    // open one cursor per slice; the seek mode is fixed here, from the
    // slice lengths alone
    let mut shortest = usize::MAX;
    for (c, it) in st.cursors[span.clone()].iter_mut().zip(its) {
        let (lo, hi) = st.ranges[it.slot];
        *c = Cursor { rest: &it.vals[lo..hi], end: hi, gallop: false };
        shortest = shortest.min(hi - lo);
    }
    if shortest == 0 {
        return Ok(true);
    }
    for c in &mut st.cursors[span.clone()] {
        c.gallop = c.rest.len() / GALLOP_RATIO >= shortest;
    }

    if last && its.len() == 1 && matches!(sink, Sink::Count) {
        // nothing to intersect: the slice's length is the count
        st.count += shortest as u64;
        return Ok(true);
    }

    while let Some(value) = align(&mut st.cursors[span.clone()], &mut st.seeks) {
        if !last {
            st.assignment[depth] = value;
            for (c, it) in st.cursors[span.clone()].iter().zip(its) {
                if let Some(child) = it.child {
                    let p = c.pos();
                    st.ranges[it.slot + 1] = (child[p] as usize, child[p + 1] as usize);
                }
            }
            if !descend(plan, st, depth + 1, sink)? {
                return Ok(false);
            }
        } else {
            match sink {
                Sink::Count => st.count += 1,
                Sink::Visit(visit) => {
                    plan.cancel.check()?;
                    st.assignment[depth] = value;
                    if !visit(&st.assignment) {
                        return Ok(false);
                    }
                }
            }
        }
        if !advance(&mut st.cursors[span.clone()], &mut st.seeks) {
            break;
        }
    }
    Ok(true)
}

/// Prepare every atom's view through the catalog and run the join into
/// `sink`: atoms with distinct variables use the memoized
/// `(relation, permutation)` view of the base relation; atoms with
/// repeated variables memoize their collapsed view as a catalog
/// artifact. On a warm catalog no sort or copy happens at all — the call
/// costs only the leapfrog search itself.
fn run(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
    sink: Sink<'_>,
) -> Result<JoinWork, EvalError> {
    // validate every atom first (error parity with `bind`), and return
    // before building any view if some relation is empty
    let mut rels: Vec<&cq_data::Relation> = Vec::with_capacity(q.atoms().len());
    for atom in q.atoms() {
        rels.push(validate_atom(&atom.relation, &atom.vars, db)?);
    }
    if rels.iter().any(|r| r.is_empty()) {
        return Ok(JoinWork { completed: true, ..JoinWork::default() });
    }
    let pos = position_map(order);
    let mut prepared: Vec<PreparedAtom> = Vec::with_capacity(q.atoms().len());
    for (atom, rel) in q.atoms().iter().zip(rels) {
        let vars = distinct_vars(&atom.vars);
        let (cols, depths) = atom_layout(&vars, &pos);
        let view = if vars.len() == atom.vars.len() {
            ctx.catalog()
                .sorted_view(db, &atom.relation, &cols)
                .expect("relation validated above")
        } else {
            // repeated variables: the view is over the collapsed
            // relation, memoized per (relation, pattern, permutation)
            let key = format!("{}|{:?}|{cols:?}", atom.relation, atom.vars);
            ctx.catalog().artifact(
                db,
                "bound_view",
                &key,
                [atom.relation.as_str()],
                || {
                    let bound = collapse_rel(&atom.vars, &vars, rel);
                    Ok::<_, EvalError>(SortedView::new(&bound, &cols))
                },
            )?
        };
        prepared.push(PreparedAtom { view, depths });
    }
    run_prepared(&prepared, order.len(), ctx.cancel(), sink)
}

/// Run the generic join of `q` on `db` with the given global variable
/// `order` (must cover every variable of the query). `visit` is called
/// with the full assignment in `order`-order for every satisfying
/// assignment; returning `false` stops the join early. The token is
/// polled at every search node: a trip aborts the join mid-descent with
/// [`EvalError::Cancelled`], discarding whatever the visitor saw.
///
/// Returns `true` if the enumeration ran to completion, `false` if it was
/// stopped by the visitor.
pub fn visit(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
    visit: &mut dyn FnMut(&[Val]) -> bool,
) -> Result<bool, EvalError> {
    Ok(run(ctx, q, db, order, Sink::Visit(visit))?.completed)
}

/// Default variable order: interning order.
pub fn default_order(q: &ConjunctiveQuery) -> Vec<Var> {
    q.vars().collect()
}

/// Positions in `order` of the free variables (interning order).
fn free_positions(q: &ConjunctiveQuery, order: &[Var]) -> Vec<usize> {
    q.free_vars()
        .iter()
        .map(|f| {
            order.iter().position(|v| v == f).expect("order must cover all variables")
        })
        .collect()
}

/// Project a full assignment onto the free variables' positions.
#[inline]
fn project(assignment: &[Val], free_pos: &[usize], buf: &mut [Val]) {
    for (b, &p) in buf.iter_mut().zip(free_pos) {
        *b = assignment[p];
    }
}

/// Write a finished join's counters to its span.
fn close_span(
    span: &mut cq_obs::trace::SpanGuard,
    rows: u64,
    work: &JoinWork,
    cancel: &CancelToken,
) {
    span.attr("rows", rows);
    span.attr("cancel-polls", cancel.polls());
    span.attr("seeks", work.seeks);
}

/// All answers of `q` (distinct projections onto the free variables),
/// computed by generic join + projection under the caller-chosen (e.g.
/// planner-chosen) global variable `order`. Worst-case optimal for join
/// queries; for projections this is the *materialization baseline* the
/// paper's counting/enumeration lower bounds are about.
pub fn answers(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
) -> Result<Relation, EvalError> {
    let mut span = cq_obs::trace::span("op.generic-join.answers");
    let free_pos = free_positions(q, order);
    let mut out = Relation::new(free_pos.len());
    let mut buf: Vec<Val> = vec![0; free_pos.len()];
    let mut push = |assignment: &[Val]| {
        project(assignment, &free_pos, &mut buf);
        out.push_row(&buf);
        true
    };
    let work = run(ctx, q, db, order, Sink::Visit(&mut push))?;
    out.normalize();
    close_span(&mut span, out.len() as u64, &work, ctx.cancel());
    Ok(out)
}

/// Boolean decision by generic join with early stop — the fallback for
/// cyclic queries (runtime = AGM bound of the query).
pub fn decide(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
) -> Result<bool, EvalError> {
    let mut span = cq_obs::trace::span("op.generic-join.decide");
    let mut found = false;
    let mut stop_at_first = |_: &[Val]| {
        found = true;
        false
    };
    let work = run(ctx, q, db, order, Sink::Visit(&mut stop_at_first))?;
    close_span(&mut span, u64::from(found), &work, ctx.cancel());
    Ok(found)
}

/// Count *distinct free-variable projections*: for a join query the
/// number of full assignments — its answers, distinct by construction,
/// counted where the last intersection finds them — and for a
/// projection by materializing the projection set during the join: the
/// generic counting baseline (m^k-shaped for q*_k; Lemma 3.9 says this
/// is essentially optimal).
pub fn count_distinct(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
) -> Result<u64, EvalError> {
    let mut span = cq_obs::trace::span("op.generic-join.count");
    let work = if q.is_join_query() {
        run(ctx, q, db, order, Sink::Count)?
    } else {
        let free_pos = free_positions(q, order);
        let mut set: FxHashSet<Box<[Val]>> = FxHashSet::default();
        let mut buf: Vec<Val> = vec![0; free_pos.len()];
        let mut collect = |assignment: &[Val]| {
            project(assignment, &free_pos, &mut buf);
            if !set.contains(buf.as_slice()) {
                set.insert(buf.as_slice().into());
            }
            true
        };
        let mut work = run(ctx, q, db, order, Sink::Visit(&mut collect))?;
        work.count = set.len() as u64;
        work
    };
    close_span(&mut span, work.count, &work, ctx.cancel());
    Ok(work.count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind, brute_force_answers};
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{
        full_relation, lw_database, path_database, random_pairs, seeded_rng,
        triangle_database,
    };

    /// One-shot evaluation in interning order.
    fn answers(q: &ConjunctiveQuery, db: &Database) -> Result<Relation, EvalError> {
        super::answers(&ExecCtx::cold(), q, db, &default_order(q))
    }

    #[test]
    fn triangle_join_matches_brute_force() {
        let mut rng = seeded_rng(1);
        let edges = random_pairs(60, 15, &mut rng);
        let db = triangle_database(&edges);
        let q = zoo::triangle_join();
        assert_eq!(answers(&q, &db).unwrap(), brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn triangle_boolean_decide() {
        let mut rng = seeded_rng(2);
        for trial in 0..10 {
            let edges = random_pairs(20 + trial, 10, &mut rng);
            let db = triangle_database(&edges);
            let q = zoo::triangle_boolean();
            assert_eq!(
                decide(&ExecCtx::cold(), &q, &db, &default_order(&q)).unwrap(),
                crate::bind::brute_force_decide(&q, &db).unwrap(),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn path_join_matches_brute_force() {
        let db = path_database(3, 50, &mut seeded_rng(3));
        let q = zoo::path_join(3);
        assert_eq!(answers(&q, &db).unwrap(), brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn lw_worst_case_has_agm_many_answers() {
        // LW_3 with full [d]^2 relations: d^3 answers.
        let d = 5;
        let rel = full_relation(2, d);
        let db = lw_database(3, &rel);
        let q = zoo::loomis_whitney_boolean(3).join_version();
        let ans = answers(&q, &db).unwrap();
        assert_eq!(ans.len(), (d * d * d) as usize);
    }

    #[test]
    fn lw4_matches_brute_force() {
        let mut rng = seeded_rng(4);
        let rel = cq_data::generate::random_relation(3, 80, 6, &mut rng);
        let db = lw_database(4, &rel);
        let q = zoo::loomis_whitney_boolean(4).join_version();
        assert_eq!(answers(&q, &db).unwrap(), brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn projection_counting_matches() {
        let db = cq_data::generate::star_database(2, 100, 5, &mut seeded_rng(5));
        let q = zoo::star_selfjoin(2);
        assert_eq!(
            count_distinct(&ExecCtx::cold(), &q, &db, &default_order(&q)).unwrap(),
            brute_force_answers(&q, &db).unwrap().len() as u64
        );
    }

    #[test]
    fn early_stop_works() {
        let db = path_database(2, 100, &mut seeded_rng(6));
        let q = zoo::path_join(2);
        let mut count = 0;
        let completed = visit(&ExecCtx::cold(), &q, &db, &default_order(&q), &mut |_| {
            count += 1;
            count < 3
        })
        .unwrap();
        assert!(!completed);
        assert_eq!(count, 3);
    }

    #[test]
    fn empty_relation_early_exit() {
        let mut db = path_database(2, 10, &mut seeded_rng(7));
        db.insert("R2", cq_data::Relation::new(2));
        assert!(answers(&zoo::path_join(2), &db).unwrap().is_empty());
    }

    #[test]
    fn different_orders_same_result() {
        let mut rng = seeded_rng(8);
        let edges = random_pairs(40, 12, &mut rng);
        let db = triangle_database(&edges);
        let q = zoo::triangle_join();
        let want = answers(&q, &db).unwrap();
        let ctx = ExecCtx::cold();
        // try all 6 variable orders
        let vars: Vec<Var> = q.vars().collect();
        let orders = [
            vec![vars[0], vars[1], vars[2]],
            vec![vars[0], vars[2], vars[1]],
            vec![vars[1], vars[0], vars[2]],
            vec![vars[1], vars[2], vars[0]],
            vec![vars[2], vars[0], vars[1]],
            vec![vars[2], vars[1], vars[0]],
        ];
        for order in orders {
            let mut got: Vec<Vec<Val>> = Vec::new();
            visit(&ctx, &q, &db, &order, &mut |a| {
                // re-sort into interning order
                let mut row = vec![0; 3];
                for (i, &v) in order.iter().enumerate() {
                    row[v.index()] = a[i];
                }
                got.push(row);
                true
            })
            .unwrap();
            let rel = Relation::from_rows(3, got);
            assert_eq!(rel, want, "order {order:?}");
        }
    }

    #[test]
    fn selfjoin_with_repeats() {
        let q = parse_query("q(x, y) :- R(x, y), R(y, x)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2), (2, 1), (3, 4), (5, 5)]));
        let ans = answers(&q, &db).unwrap();
        assert_eq!(ans.len(), 3); // (1,2), (2,1), (5,5)
        assert!(ans.contains(&[5, 5]));
    }

    #[test]
    fn repeated_variable_atoms_memoize_their_collapsed_view() {
        let q = parse_query("q(x, y) :- R(x, x), S(x, y)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 1), (2, 3), (4, 4)]));
        db.insert("S", Relation::from_pairs(vec![(1, 9), (4, 8), (2, 7)]));
        let order = default_order(&q);
        let cat = cq_data::IndexCatalog::new();
        let ctx = ExecCtx::warm(&cat);
        let got = super::answers(&ctx, &q, &db, &order).unwrap();
        assert_eq!(got, brute_force_answers(&q, &db).unwrap());
        // the collapsed view is an artifact: a second run reuses it
        let before = cat.snapshot();
        let again = super::answers(&ctx, &q, &db, &order).unwrap();
        assert_eq!(got, again);
        assert_eq!(cat.snapshot().misses, before.misses);
    }

    #[test]
    fn error_parity_with_bind() {
        let q = parse_query("q(x, y) :- R(x, y), T(y)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2)]));
        let order = default_order(&q);
        let ctx = ExecCtx::cold();
        assert_eq!(
            decide(&ctx, &q, &db, &order).unwrap_err(),
            bind(&q, &db).unwrap_err()
        );
        db.insert("T", Relation::from_pairs(vec![(1, 2)])); // wrong arity
        assert_eq!(
            decide(&ctx, &q, &db, &order).unwrap_err(),
            bind(&q, &db).unwrap_err()
        );
    }
}
