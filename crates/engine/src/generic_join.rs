//! Worst-case optimal generic join (paper §2.1's AGM / WCOJ background).
//!
//! The leapfrog-style variable-elimination join: fix a global variable
//! order; at each depth intersect the candidate values offered by every
//! atom containing the variable. Each atom offers them as one contiguous
//! sorted slice — a level of its [`SortedView`]'s key trie, narrowed to
//! the children of the prefix bound so far — so the intersection is a
//! merge of slices (a gallop where one is much longer), and descending
//! reads the child range from the trie's offsets. A dense slice is also
//! offered as a bitmap: bitmaps intersect a word — 64 values — per AND,
//! a slice against a bitmap is filtered by bit tests, and a set bit's
//! rank is its position in the level, so descending from a bitmap reads
//! the same offsets. The runtime is
//! bounded by the AGM fractional-edge-cover bound of the query — e.g. m^{3/2} for the triangle query and m^{1+1/(k−1)} for
//! Loomis–Whitney q^LW_k (Example 3.4), which is why this single
//! algorithm is both the m^{3/2} triangle baseline of Thm 3.2 and the
//! *optimal* LW algorithm of Thm 3.5.
//!
//! Distinct depth-0 values root disjoint sub-joins, so a join's count is
//! the sum of its root ranges' counts: `COUNT` cuts the root into
//! word-aligned *morsels* by the data alone, and the calling thread and,
//! while cores are idle, helper threads take them off one cursor.

use crate::bind::{collapse_rel, distinct_vars, validate_atom, EvalError};
use crate::cancel::CancelToken;
use crate::ctx::{idle_cores, Busy, ExecCtx};
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, FxHashSet, LevelBitmaps, Relation, SortedView, Val};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Cursor movements — gallop seeks, single merge steps and steps to
    /// a word's next set bit alike — word ANDs and bit tests: the
    /// deterministic work measure the AGM bound is checked against.
    seeks: u64,
    /// Morsels the root range was cut into, and the threads that took
    /// them (both 0 for a visitor's run).
    morsels: usize,
    workers: usize,
}

/// One trie level an atom contributes to a depth's intersection.
struct LevelRef<'a> {
    vals: &'a [Val],
    /// Child offsets of the level; `None` for the atom's last column.
    child: Option<&'a [u32]>,
    /// The level's dense child sets as bitmaps, if it has one.
    bits: Option<LevelBitmaps<'a>>,
    /// Index into [`JoinState::kids`] of this (atom, column); the
    /// atom's next column is at `slot + 1`.
    slot: usize,
}

/// The children of one trie node — what the bound prefix leaves of an
/// (atom, column)'s level: the range `lo..hi` of it, under node `node`
/// of the level above (0, the root, for an atom's first column).
#[derive(Clone, Copy)]
struct Kids {
    lo: usize,
    hi: usize,
    node: usize,
}

/// A cursor into one level slice: `rest` is what is left of the slice,
/// whose end sits at index `end` of the level.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    rest: &'a [Val],
    end: usize,
    /// Seek by galloping instead of stepping (fixed per intersection).
    gallop: bool,
    /// Which of the depth's [`LevelRef`]s the slice is from.
    it: usize,
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

/// A dense node's children as a bitmap: bit `b` of `words[j]` is the
/// value `(first + j) << 6 | b`.
#[derive(Clone, Copy)]
struct Bits<'a> {
    words: &'a [u64],
    /// Per word, the node's set bits before it (see
    /// [`LevelBitmaps::of`]); empty on an atom's last column.
    rank: &'a [u32],
    first: u64,
    /// Which of the depth's [`LevelRef`]s the bitmap is of.
    it: usize,
}

impl Bits<'_> {
    #[inline]
    fn contains(&self, v: Val) -> bool {
        let word =
            (v >> 6).checked_sub(self.first).and_then(|j| self.words.get(j as usize));
        word.is_some_and(|w| w >> (v & 63) & 1 == 1)
    }

    /// How many of the node's children precede `v`, one of them.
    #[inline]
    fn rank_of(&self, v: Val) -> usize {
        let j = ((v >> 6) - self.first) as usize;
        let below = self.words[j] & ((1 << (v & 63)) - 1);
        self.rank[j] as usize + below.count_ones() as usize
    }
}

/// Point the next column of `it`'s atom at the children of node `node`
/// of `it`'s level; nothing for an atom's last column.
#[inline]
fn enter(kids: &mut [Kids], it: &LevelRef<'_>, node: usize) {
    if let Some(child) = it.child {
        let (lo, hi) = (child[node] as usize, child[node + 1] as usize);
        kids[it.slot + 1] = Kids { lo, hi, node };
    }
}

/// [`enter`] the children of `value`, a set bit of every bitmap in
/// `bits`: a node's position is its first child's plus the value's rank.
#[inline]
fn enter_by_rank(kids: &mut [Kids], its: &[LevelRef<'_>], bits: &[Bits<'_>], value: Val) {
    for b in bits {
        let it = &its[b.it];
        if it.child.is_some() {
            let node = kids[it.slot].lo + b.rank_of(value);
            enter(kids, it, node);
        }
    }
}

/// Word `j` of the intersection of bitmaps narrowed to one window.
#[inline]
fn and_at(bits: &[Bits<'_>], j: usize) -> u64 {
    bits.iter().fold(u64::MAX, |w, b| w & b.words[j])
}

/// A slice this many times longer than the shortest one of its
/// intersection is sought by galloping; shorter ones by stepping. A step
/// is one dependent compare; a gallop seek is about `2·log₂(gap)` poorly
/// predicted probes, and the expected gap is the length ratio. Counting
/// a 4 096-element slice against one `g` times longer, galloping the long
/// side ties with stepping at `g = 2` and wins from `g = 4` on — a
/// property of the two loops, not of the data, so there is no knob.
const GALLOP_RATIO: usize = 4;

/// Children of the root a morsel is cut to hold, counted in the first
/// root atom with a next column: at a few tens of nanoseconds per child
/// a morsel is tens of microseconds of work, as long as it takes to
/// start a helper thread, so a root with fewer than two morsels' worth
/// is one morsel and starts none — a property of the two costs, not of
/// the load, so there is no knob.
const MORSEL_CHILDREN: usize = 1024;

/// A join's root range cut into morsels: morsel `k` binds depth 0 to the
/// values in words `cuts[k]..cuts[k + 1]`. Workers take them in order
/// off one cursor.
struct Morsels {
    cuts: Vec<u64>,
    next: AtomicUsize,
}

impl Morsels {
    /// `cuts` starts at word 0 and ends at `u64::MAX`, strictly
    /// increasing.
    fn new(cuts: Vec<u64>) -> Morsels {
        debug_assert!(cuts.len() >= 2 && cuts.windows(2).all(|w| w[0] < w[1]));
        Morsels { cuts, next: AtomicUsize::new(0) }
    }

    fn len(&self) -> usize {
        self.cuts.len() - 1
    }

    /// The next morsel's words, if any is left.
    fn take(&self) -> Option<Range<u64>> {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        (k < self.len()).then(|| self.cuts[k]..self.cuts[k + 1])
    }
}

/// The immutable half of a running join, shared by its workers.
struct JoinPlan<'a> {
    /// Per depth, the levels to intersect.
    depths: Vec<Vec<LevelRef<'a>>>,
    /// Per depth, where its cursors start in [`JoinState::cursors`] and
    /// its bitmaps in [`JoinState::bits`].
    cursor_base: Vec<usize>,
    /// Per (atom, column) slot, its range before anything is bound: all
    /// of an atom's root for its first column, nothing yet for the rest.
    kids: Vec<Kids>,
}

/// One worker's mutable half: every per-depth buffer, allocated once
/// and reused across the morsels it takes.
struct JoinState<'a> {
    /// Per (atom, column) slot, what the bound prefix leaves of it.
    kids: Vec<Kids>,
    cursors: Vec<Cursor<'a>>,
    bits: Vec<Bits<'a>>,
    assignment: Vec<Val>,
    /// The words whose values depth 0 may bind: the current morsel's.
    window: Range<u64>,
    cancel: &'a CancelToken,
    count: u64,
    seeks: u64,
}

impl<'a> JoinPlan<'a> {
    fn new(prepared: &'a [PreparedAtom], n_depths: usize) -> JoinPlan<'a> {
        let mut depths: Vec<Vec<LevelRef<'a>>> = Vec::new();
        depths.resize_with(n_depths, Vec::new);
        let mut kids: Vec<Kids> = Vec::new();
        for p in prepared {
            let base = kids.len();
            for (lc, &d) in p.depths.iter().enumerate() {
                let vals = p.view.level(lc);
                let is_last = lc + 1 == p.depths.len();
                let child = (!is_last).then(|| p.view.level_offsets(lc));
                let bits = Some(p.view.bitmaps(lc)).filter(|b| !b.is_empty());
                depths[d].push(LevelRef { vals, child, bits, slot: base + lc });
                // only the first column's range is known before the join
                let hi = if lc == 0 { vals.len() } else { 0 };
                kids.push(Kids { lo: 0, hi, node: 0 });
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
        JoinPlan { depths, cursor_base, kids }
    }

    /// A fresh worker state polling `cancel`, its window the whole root.
    fn state(&self, cancel: &'a CancelToken) -> JoinState<'a> {
        let n_cursors = self.depths.iter().map(Vec::len).sum();
        JoinState {
            kids: self.kids.clone(),
            cursors: vec![Cursor { rest: &[], end: 0, gallop: false, it: 0 }; n_cursors],
            bits: vec![Bits { words: &[], rank: &[], first: 0, it: 0 }; n_cursors],
            assignment: vec![0; self.depths.len()],
            window: 0..u64::MAX,
            cancel,
            count: 0,
            seeks: 0,
        }
    }

    /// The first root atom with a next column: the one whose children
    /// weigh the root's values.
    fn weighing_root(&self) -> Option<(&'a [Val], &'a [u32])> {
        let its = self.depths.first()?;
        its.iter().find_map(|it| Some((it.vals, it.child?)))
    }

    /// The root cut into at most `n` morsels of about equal weight —
    /// a value weighs its children in the [`JoinPlan::weighing_root`] —
    /// at word boundaries, so that a dense root ANDs whole words. Fewer
    /// where the root spans fewer words; one where no root atom has a
    /// next column — always so when depth 0 is the last.
    fn cuts(&self, n: usize) -> Vec<u64> {
        let mut cuts = Vec::with_capacity(n.max(1) + 1);
        cuts.push(0);
        if let Some((vals, child)) = self.weighing_root() {
            let total = child[vals.len()] as usize;
            for k in 1..n {
                // the first value whose children start at k/n of them
                let i = child.partition_point(|&c| (c as usize) * n < k * total);
                let Some(&v) = vals.get(i) else { break };
                if v >> 6 > cuts[cuts.len() - 1] {
                    cuts.push(v >> 6);
                }
            }
        }
        cuts.push(u64::MAX);
        cuts
    }

    /// The data's own cut: [`MORSEL_CHILDREN`] children a morsel.
    fn morsels(&self) -> Morsels {
        let total = self.weighing_root().map_or(0, |(vals, child)| child[vals.len()]);
        Morsels::new(self.cuts(total as usize / MORSEL_CHILDREN))
    }

    /// Run the join over `st`'s window into `sink`: descend from the
    /// root, or with no variables, take the one empty assignment.
    fn run_window(
        &self,
        st: &mut JoinState<'a>,
        sink: &mut Sink<'_>,
    ) -> Result<bool, EvalError> {
        if self.depths.is_empty() {
            // no variables: the one (empty) assignment satisfies every atom
            st.cancel.check()?;
            return Ok(match sink {
                Sink::Visit(visit) => visit(&st.assignment),
                Sink::Count => {
                    st.count += 1;
                    true
                }
            });
        }
        descend(self, st, 0, sink)
    }

    /// Feed every assignment, in order, to `visit` on this thread.
    fn visit(
        &self,
        cancel: &'a CancelToken,
        visit: &mut dyn FnMut(&[Val]) -> bool,
    ) -> Result<JoinWork, EvalError> {
        let mut st = self.state(cancel);
        let completed = self.run_window(&mut st, &mut Sink::Visit(visit))?;
        Ok(JoinWork {
            completed,
            count: st.count,
            seeks: st.seeks,
            ..JoinWork::default()
        })
    }

    /// Count the join's full assignments morsel by morsel: the calling
    /// thread, polling `ctx`'s token, and `helpers` scoped threads, each
    /// polling a [`CancelToken::sibling`] of it and adding its polls to
    /// [`ExecCtx::polls`] when it stops, take `morsels` off their one
    /// cursor, each worker into one state of its own. Counts and seeks
    /// add up to the same sums whoever takes which morsel.
    ///
    /// A trip anywhere latches the shared flag; a worker stops at its
    /// next real check and runs no further morsel. Only the calling
    /// thread runs the probe, and it takes the first morsel before any
    /// helper starts, so it polls — and probes — at least once. A
    /// helper's panic resumes on the calling thread, once every helper
    /// has stopped.
    fn count(
        &self,
        ctx: &ExecCtx,
        morsels: &Morsels,
        helpers: usize,
    ) -> Result<JoinWork, EvalError> {
        let cancel = ctx.cancel();
        debug_assert!(
            morsels.len() == 1 || self.depths.len() > 1,
            "a split root descends"
        );
        let work = |cancel: &CancelToken, mut next: Option<Range<u64>>| {
            let mut st = self.state(cancel);
            while let Some(window) = next {
                if cancel.is_cancelled() {
                    return Err(EvalError::Cancelled);
                }
                st.window = window;
                self.run_window(&mut st, &mut Sink::Count)?;
                next = morsels.take();
            }
            let (count, seeks) = (st.count, st.seeks);
            Ok(JoinWork { completed: true, count, seeks, ..JoinWork::default() })
        };
        let work = &work;
        let total = std::thread::scope(|s| {
            let first = morsels.take();
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    let busy = Busy::enter();
                    s.spawn(move || {
                        let _busy = busy;
                        let token = cancel.sibling();
                        let theirs = work(&token, morsels.take());
                        ctx.add_helper_polls(token.polls());
                        theirs
                    })
                })
                .collect();
            let mut total = work(cancel, first);
            for handle in handles {
                let theirs =
                    handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                total = total.and_then(|a| {
                    theirs.map(|b| JoinWork {
                        count: a.count + b.count,
                        seeks: a.seeks + b.seeks,
                        ..a
                    })
                });
            }
            total
        })?;
        Ok(JoinWork { morsels: morsels.len(), workers: 1 + helpers, ..total })
    }
}

/// The part `lo..hi` of a level that holds values of the words `window`.
fn clip(vals: &[Val], lo: usize, hi: usize, window: &Range<u64>) -> (usize, usize) {
    let slice = &vals[lo..hi];
    let start = slice.partition_point(|&v| v >> 6 < window.start);
    let end = slice.partition_point(|&v| v >> 6 < window.end);
    (lo + start, lo + end)
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

/// Bind `value` at `depth` and go on: descend, or at the last depth
/// feed the sink. `Ok(false)` = visitor stop.
#[inline]
fn bind<'a>(
    plan: &JoinPlan<'a>,
    st: &mut JoinState<'a>,
    depth: usize,
    value: Val,
    sink: &mut Sink<'_>,
) -> Result<bool, EvalError> {
    if depth + 1 < plan.depths.len() {
        st.assignment[depth] = value;
        return descend(plan, st, depth + 1, sink);
    }
    match sink {
        Sink::Count => {
            st.count += 1;
            Ok(true)
        }
        Sink::Visit(visit) => {
            st.cancel.check()?;
            st.assignment[depth] = value;
            Ok(visit(&st.assignment))
        }
    }
}

/// Expand one search node: intersect what the bound prefix leaves of
/// each level at `depth`, by representation — bitmaps word by word,
/// slices by leapfrog, a slice against a bitmap by bit tests — and bind
/// every common value, in ascending order, each atom's next column at
/// the value's children: a cursor's by its position, a bitmap's by its
/// rank. `Ok(false)` = visitor stop.
fn descend<'a>(
    plan: &JoinPlan<'a>,
    st: &mut JoinState<'a>,
    depth: usize,
    sink: &mut Sink<'_>,
) -> Result<bool, EvalError> {
    // poll per expanded node, not in the visitor: joins that produce no
    // results still descend here constantly, so this is the live site
    st.cancel.check()?;
    let its = plan.depths[depth].as_slice();
    let base = plan.cursor_base[depth];
    let last = depth + 1 == plan.depths.len();

    // what each node offers: always its slice, a dense node its bitmap
    let (mut shortest, mut shortest_slice_only) = (usize::MAX, usize::MAX);
    for (i, (b, it)) in st.bits[base..base + its.len()].iter_mut().zip(its).enumerate() {
        let Kids { lo, hi, node } = st.kids[it.slot];
        let (words, rank) = it.bits.map_or((&[][..], &[][..]), |bits| bits.of(node));
        shortest = shortest.min(hi - lo);
        if words.is_empty() {
            shortest_slice_only = shortest_slice_only.min(hi - lo);
        }
        // a node with a bitmap has children
        let first = if words.is_empty() { 0 } else { it.vals[lo] >> 6 };
        *b = Bits { words, rank, first, it: i };
    }
    if shortest == 0 {
        return Ok(true);
    }
    if last && its.len() == 1 && matches!(sink, Sink::Count) {
        // nothing to intersect: the slice's length is the count
        st.count += shortest as u64;
        return Ok(true);
    }

    if shortest_slice_only == usize::MAX {
        // every node is dense: AND the words all the bitmaps cover —
        // fewer than the shortest slice has values — and, at the root,
        // the morsel does
        let root = if depth == 0 { st.window.clone() } else { 0..u64::MAX };
        let bits = &mut st.bits[base..base + its.len()];
        let lo = bits.iter().fold(root.start, |lo, b| lo.max(b.first));
        let hi =
            bits.iter().fold(root.end, |hi, b| hi.min(b.first + b.words.len() as u64));
        if lo >= hi {
            return Ok(true);
        }
        for b in bits {
            let window = (lo - b.first) as usize..(hi - b.first) as usize;
            b.words = &b.words[window.clone()];
            b.rank = b.rank.get(window).unwrap_or_default();
            b.first = lo;
        }
        let n_words = (hi - lo) as usize;
        st.seeks += (n_words * (its.len() - 1)) as u64;
        if last && matches!(sink, Sink::Count) {
            let ones = |w: u64| u64::from(w.count_ones());
            st.count += match &st.bits[base..base + its.len()] {
                // two atoms closing a cycle — every triangle count — as
                // one zip the compiler vectorizes: 1.5 against 1.8 ms
                [a, b] => {
                    a.words.iter().zip(b.words).map(|(x, y)| ones(x & y)).sum::<u64>()
                }
                bits => (0..n_words).map(|j| ones(and_at(bits, j))).sum(),
            };
            return Ok(true);
        }
        for j in 0..n_words {
            let mut word = and_at(&st.bits[base..base + its.len()], j);
            while word != 0 {
                let value = (lo + j as u64) << 6 | u64::from(word.trailing_zeros());
                word &= word - 1;
                st.seeks += 1;
                if !last {
                    enter_by_rank(
                        &mut st.kids,
                        its,
                        &st.bits[base..base + its.len()],
                        value,
                    );
                }
                if !bind(plan, st, depth, value, sink)? {
                    return Ok(false);
                }
            }
        }
        return Ok(true);
    }

    // some node is a slice only. A bitmap no shorter than the shortest
    // such slice becomes a filter, at any column: the leapfrog runs
    // without it and each value it finds is bit-tested. A shorter one
    // leapfrogs as the slice it also is — the shortest set must bound the
    // node's work. The seek mode is fixed here, from the slice lengths
    // alone.
    let (mut n_cursors, mut n_filters) = (0, 0);
    for (i, it) in its.iter().enumerate() {
        let Kids { lo, hi, .. } = st.kids[it.slot];
        if !st.bits[base + i].words.is_empty() && hi - lo >= shortest_slice_only {
            st.bits[base + n_filters] = st.bits[base + i];
            n_filters += 1;
        } else {
            let gallop = (hi - lo) / GALLOP_RATIO >= shortest;
            // at the root, a cursor holds only the morsel's values
            let (lo, hi) =
                if depth == 0 { clip(it.vals, lo, hi, &st.window) } else { (lo, hi) };
            if lo == hi {
                return Ok(true);
            }
            st.cursors[base + n_cursors] =
                Cursor { rest: &it.vals[lo..hi], end: hi, gallop, it: i };
            n_cursors += 1;
        }
    }
    let span = base..base + n_cursors;

    while let Some(value) = align(&mut st.cursors[span.clone()], &mut st.seeks) {
        let common = st.bits[base..base + n_filters].iter().all(|b| {
            st.seeks += 1;
            b.contains(value)
        });
        if common {
            if !last {
                for c in &st.cursors[span.clone()] {
                    enter(&mut st.kids, &its[c.it], c.pos());
                }
                enter_by_rank(&mut st.kids, its, &st.bits[base..base + n_filters], value);
            }
            if !bind(plan, st, depth, value, sink)? {
                return Ok(false);
            }
        }
        if !advance(&mut st.cursors[span.clone()], &mut st.seeks) {
            break;
        }
    }
    Ok(true)
}

/// Prepare every atom's view through the catalog and hand the planned
/// join to `join`: atoms with distinct variables use the memoized
/// `(relation, permutation)` view of the base relation; atoms with
/// repeated variables memoize their collapsed view as a catalog
/// artifact. On a warm catalog no sort or copy happens at all — the call
/// costs only the leapfrog search itself.
fn run(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
    join: impl FnOnce(&JoinPlan<'_>) -> Result<JoinWork, EvalError>,
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
            let key = format_args!("{}|{:?}|{cols:?}", atom.relation, atom.vars);
            ctx.catalog().artifact(
                db,
                "bound_view",
                key,
                [atom.relation.as_str()],
                || {
                    let bound = collapse_rel(&atom.vars, &vars, rel);
                    Ok::<_, EvalError>(SortedView::new(&bound, &cols))
                },
            )?
        };
        prepared.push(PreparedAtom { view, depths });
    }
    join(&JoinPlan::new(&prepared, order.len()))
}

/// [`run`] the join into `visit`, on this thread.
fn run_visit(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
    visit: &mut dyn FnMut(&[Val]) -> bool,
) -> Result<JoinWork, EvalError> {
    run(ctx, q, db, order, |plan| plan.visit(ctx.cancel(), visit))
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
    Ok(run_visit(ctx, q, db, order, visit)?.completed)
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

/// Write a finished join's counters to its span: the polls of every
/// worker's token, and the morsels and workers of a split count.
fn close_span(
    span: &mut cq_obs::trace::SpanGuard,
    rows: u64,
    work: &JoinWork,
    ctx: &ExecCtx,
) {
    span.attr("rows", rows);
    span.attr("cancel-polls", ctx.polls());
    span.attr("seeks", work.seeks);
    if work.morsels > 1 {
        span.attr("morsels", work.morsels as u64);
        span.attr("workers", work.workers as u64);
    }
}

/// The fewest rows a projection buffers before it deduplicates: a sort
/// of fewer costs more per row than it saves, and 4 096 rows of a few
/// columns still fit in a core's L2 cache.
const DEDUP_FLOOR: usize = 4_096;

/// All answers of `q` (distinct projections onto the free variables),
/// computed by generic join + projection under the caller-chosen (e.g.
/// planner-chosen) global variable `order`. Worst-case optimal for join
/// queries; for projections this is the *materialization baseline* the
/// paper's counting/enumeration lower bounds are about. A join query's
/// paths are its answers, distinct by construction; a projection's
/// repeat them, so its buffer is deduplicated whenever it reaches twice
/// the larger of the distinct rows so far and 4 096: it holds about
/// twice the answers at most, not every path.
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
    let dedups = !q.is_join_query();
    let mut limit = 2 * DEDUP_FLOOR;
    let mut push = |assignment: &[Val]| {
        project(assignment, &free_pos, &mut buf);
        out.push_row(&buf);
        if dedups && out.len() >= limit {
            out.normalize();
            limit = 2 * out.len().max(DEDUP_FLOOR);
        }
        true
    };
    let work = run_visit(ctx, q, db, order, &mut push)?;
    out.normalize();
    close_span(&mut span, out.len() as u64, &work, ctx);
    Ok(out)
}

/// Boolean decision by generic join with early stop — the fallback for
/// cyclic queries (runtime = AGM bound of the query). The decision is
/// memoized (`ExecCtx::memo`): a repeat on unchanged relations is one
/// lookup, and its span reports the verdict as `rows` with 0 `seeks`.
pub fn decide(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
) -> Result<bool, EvalError> {
    let mut span = cq_obs::trace::span("op.generic-join.decide");
    let mut work = JoinWork::default();
    let found = *ctx.memo(db, "gj_decide", q, &[], || {
        let mut found = false;
        let mut stop_at_first = |_: &[Val]| {
            found = true;
            false
        };
        work = run_visit(ctx, q, db, order, &mut stop_at_first)?;
        Ok(found)
    })?;
    close_span(&mut span, u64::from(found), &work, ctx);
    Ok(found)
}

/// Count *distinct free-variable projections*: for a join query the
/// number of full assignments — its answers, distinct by construction,
/// counted where the last intersection finds them — and for a
/// projection by materializing the projection set during the join: the
/// generic counting baseline (m^k-shaped for q*_k; Lemma 3.9 says this
/// is essentially optimal). The count is memoized (`ExecCtx::memo`):
/// a repeat on unchanged relations is one lookup that spawns no helper,
/// and its span reports the count as `rows` with 0 `seeks` and no
/// morsels or workers.
pub fn count_distinct(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    order: &[Var],
) -> Result<u64, EvalError> {
    let mut span = cq_obs::trace::span("op.generic-join.count");
    let mut work = JoinWork::default();
    let count = *ctx.memo(db, "gj_count", q, &[], || {
        work = if q.is_join_query() {
            run(ctx, q, db, order, |plan| {
                let morsels = plan.morsels();
                plan.count(ctx, &morsels, idle_cores().min(morsels.len() - 1))
            })?
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
            let mut work = run_visit(ctx, q, db, order, &mut collect)?;
            work.count = set.len() as u64;
            work
        };
        Ok(work.count)
    })?;
    close_span(&mut span, count, &work, ctx);
    Ok(count)
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

    /// `R(x, z), S(y, z)` with one `x` and one `y`: the last depth
    /// intersects exactly the two given child sets.
    fn meet(a: &[Val], b: &[Val]) -> (Relation, u64) {
        let q = parse_query("q(x, y, z) :- R(x, z), S(y, z)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(a.iter().map(|&v| (1, v))));
        db.insert("S", Relation::from_pairs(b.iter().map(|&v| (2, v))));
        let ctx = ExecCtx::cold();
        let order = default_order(&q);
        let got = super::answers(&ctx, &q, &db, &order).unwrap();
        assert_eq!(got, brute_force_answers(&q, &db).unwrap());
        let n = count_distinct(&ctx, &q, &db, &order).unwrap();
        assert_eq!(n, got.len() as u64);
        assert_eq!(decide(&ctx, &q.boolean_version(), &db, &order).unwrap(), n > 0);
        (got, n)
    }

    #[test]
    fn child_sets_intersect_by_representation() {
        let top = Val::MAX;
        let dense: Vec<Val> = (60..=130).collect();
        let high = [top - 129, top - 128, top - 64, top - 63, top - 1, top];
        let scattered = [63, 64 + 63, 640, 6400, top - 64, top];
        // bitmap ∧ bitmap: words 0–2 against words 1–3, with the values
        // on both sides of a word edge
        assert_eq!(meet(&dense, &[64, 65, 127, 128, 129, 191, 192]).1, 5);
        // ... at the top of the domain, and windows that do not overlap
        assert_eq!(meet(&high, &[top - 200, top - 128, top - 63, top - 62, top]).1, 3);
        assert_eq!(meet(&dense, &high).1, 0);
        assert_eq!(meet(&[0, 1, 2], &[64, 65, 66]).1, 0);
        // slice ∧ bitmap, either way round: the slice is filtered
        let (rows, n) = meet(&scattered, &dense);
        assert_eq!((rows.row(0), rows.row(1), n), (&[1, 2, 63][..], &[1, 2, 127][..], 2));
        assert_eq!(meet(&high, &scattered).1, 2);
        // ... unless the bitmap is the shorter set: then it leapfrogs
        let long: Vec<Val> = (0..400).map(|i| 640 * i).collect();
        assert_eq!(meet(&long, &[640, 641, 642]).1, 1);
        // slice ∧ slice
        assert_eq!(meet(&scattered, &long).1, 2);

        // above an atom's last column: `x` is R's first of two columns,
        // and each common `x` must reach its own two children — by rank
        // from a bitmap, by position from a slice
        let edges = [62, 63, 64, 65, 127, 128, 129, 191, 192];
        // inner ∧ inner and inner ∧ leaf, the ranks crossing word edges
        assert_eq!(meet_inner(&dense, &edges, false), 2 * 7);
        assert_eq!(meet_inner(&dense, &edges, true), 2 * 7);
        assert_eq!(meet_inner(&edges, &dense, true), 2 * 7);
        assert_eq!(meet_inner(&high, &[top - 130, top - 64, top - 1, top], false), 2 * 3);
        // an inner bitmap as the filter of a slice, either way round
        assert_eq!(meet_inner(&dense, &scattered, true), 2 * 2);
        assert_eq!(meet_inner(&high, &scattered, false), 2 * 2);
        // ... and as a slice where it is the shorter set
        assert_eq!(meet_inner(&[640, 641, 642], &long, false), 2);
    }

    /// `R(x, y), S(x, z)` — or `S(x)` if `leaf` — with R's `x` over `a`
    /// and S's over `b`, and every `x` with children of its own (two in
    /// R, one in S): the first depth intersects R's inner level, and a
    /// common `x` descends to the wrong children if its node is wrong.
    fn meet_inner(a: &[Val], b: &[Val], leaf: bool) -> u64 {
        let q = if leaf {
            "q(x, y) :- R(x, y), S(x)"
        } else {
            "q(x, y, z) :- R(x, y), S(x, z)"
        };
        let q = parse_query(q).unwrap();
        let kids = |x: Val, k: u64| x.wrapping_add(1000 * k);
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs(a.iter().flat_map(|&x| [1, 2].map(|k| (x, kids(x, k))))),
        );
        let s = if leaf {
            Relation::from_values(b.to_vec())
        } else {
            Relation::from_pairs(b.iter().map(|&x| (x, kids(x, 3))))
        };
        db.insert("S", s);
        let ctx = ExecCtx::cold();
        let order = default_order(&q);
        let got = super::answers(&ctx, &q, &db, &order).unwrap();
        assert_eq!(got, brute_force_answers(&q, &db).unwrap());
        let n = count_distinct(&ctx, &q, &db, &order).unwrap();
        assert_eq!(n, got.len() as u64);
        assert_eq!(decide(&ctx, &q.boolean_version(), &db, &order).unwrap(), n > 0);
        n
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

    // The kernel against brute force on random queries: up to 4 atoms of
    // arity up to 3 over up to 4 variables, with self-joins and repeated
    // variables; relations empty, singletons, uniform or skewed onto one
    // heavy key, so the level slices an intersection meets are sometimes
    // of similar length (merge steps) and sometimes wildly different
    // (gallop seeks), and over a small, a dense or a scattered domain, so
    // a node at any column is sometimes a bitmap and sometimes a slice
    // only (word ANDs, bit tests, leapfrog — and above an atom's last
    // column, descents by rank and by position). The join runs under
    // *every* variable order, and its count split into morsels.

    /// The tests' own random source, so a case is a function of one `u64`.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// A random join query: 1–4 atoms of arity 1–3 over at most 4
    /// variables. Two relation symbols per arity, so self-joins are
    /// common; variables are drawn with repetition, so `R(x, x)` patterns
    /// are too.
    fn random_join_query(rng: &mut Lcg) -> ConjunctiveQuery {
        let n_vars = 1 + rng.below(4);
        let n_atoms = 1 + rng.below(4);
        let mut b = cq_core::QueryBuilder::new("q");
        for _ in 0..n_atoms {
            let arity = 1 + rng.below(3);
            let vars: Vec<Var> =
                (0..arity).map(|_| b.var(&format!("v{}", rng.below(n_vars)))).collect();
            b.atom(&format!("R{arity}{}", ["a", "b"][rng.below(2)]), &vars);
        }
        b.build().expect("every interned variable occurs in an atom")
    }

    /// One relation per symbol of `q`: empty, tiny or up to 60 rows,
    /// uniform or with three rows in four sharing the first column's value
    /// 0 — one hub with many children among nodes with few. Values are
    /// from a domain within one 64-bit word (any two siblings make a
    /// bitmap), a dense one across three words (a hub's children make a
    /// bitmap, a light node's stay a slice) or a scattered one with a word
    /// per value (no bitmap anywhere); the last two share 63 and 127. The
    /// rule is the same at every level, so the first column's distinct
    /// values — the root's children — and a hub's in the middle of a
    /// ternary atom are bitmaps as often as a last column's
    /// ([`random_databases_have_dense_inner_levels`]), and the root spans
    /// up to twelve words to cut morsels at
    /// ([`random_databases_split_both_kinds_of_root`]).
    fn random_database(q: &ConjunctiveQuery, rng: &mut Lcg) -> Database {
        let mut db = Database::new();
        for atom in q.atoms() {
            if db.get(&atom.relation).is_some() {
                continue;
            }
            let rows = [0, 1, 1, 3, 8, 20, 60, 60][rng.below(8)];
            // values are `first + step · below(n)`
            let (first, step, n) =
                [(0, 1, 3), (0, 1, 6), (0, 1, 12), (40, 1, 100), (63, 64, 12)]
                    [rng.below(5)];
            let skewed = rng.below(2) == 1;
            let mut rel = Relation::new(atom.arity());
            for _ in 0..rows {
                let mut row: Vec<Val> = (0..atom.arity())
                    .map(|_| first + step * rng.below(n) as Val)
                    .collect();
                if skewed && rng.below(4) != 0 {
                    row[0] = 0;
                }
                rel.push_row(&row);
            }
            rel.normalize();
            db.insert(&atom.relation, rel);
        }
        db
    }

    /// Every order of `vars`.
    fn orders(vars: &[Var]) -> Vec<Vec<Var>> {
        if vars.is_empty() {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            let rest: Vec<Var> = vars
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &w)| w)
                .collect();
            for mut order in orders(&rest) {
                order.insert(0, v);
                all.push(order);
            }
        }
        all
    }

    /// Count `q` with its root cut into at most `n` morsels, taken by
    /// `workers` threads.
    fn count_split(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        order: &[Var],
        n: usize,
        workers: usize,
    ) -> Result<JoinWork, EvalError> {
        run(ctx, q, db, order, |plan| {
            plan.count(ctx, &Morsels::new(plan.cuts(n)), workers - 1)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Count, answers and the raw visitor agree with brute force under
        /// every variable order (one catalog across the orders, so views
        /// are met both freshly built and memoized); projections of the
        /// same join count their distinct projections; a visitor that
        /// stops is never called again, and neither is `decide`'s.
        #[test]
        fn every_order_matches_brute_force(bits in proptest::prelude::any::<u64>()) {
            let mut rng = Lcg(bits);
            let q = random_join_query(&mut rng);
            let db = random_database(&q, &mut rng);
            let projection = q.with_free_mask(rng.below(1 << q.n_vars()) as u64);
            let stop_after = 1 + rng.below(5);

            let want = brute_force_answers(&q, &db).unwrap();
            let want_n = crate::bind::brute_force_count(&q, &db).unwrap();
            proptest::prop_assert_eq!(want.len() as u64, want_n);
            let want_projected = crate::bind::brute_force_count(&projection, &db).unwrap();

            let catalog = cq_data::IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            for order in orders(&default_order(&q)) {
                let got = super::answers(&ctx, &q, &db, &order).unwrap();
                proptest::prop_assert_eq!(&got, &want, "answers of {} under {:?}", q, order);
                let n = count_distinct(&ctx, &q, &db, &order).unwrap();
                proptest::prop_assert_eq!(n, want_n, "count of {} under {:?}", q, order);
                let n = count_distinct(&ctx, &projection, &db, &order).unwrap();
                proptest::prop_assert_eq!(
                    n, want_projected, "count of {} under {:?}", projection, order
                );
                let found = decide(&ctx, &q, &db, &order).unwrap();
                proptest::prop_assert_eq!(found, want_n > 0, "decide of {} under {:?}", q, order);

                // the raw visitor: assignments arrive in `order`, each one
                // satisfies every atom, and `false` ends the join at once
                let mut visits = 0;
                let completed = visit(&ctx, &q, &db, &order, &mut |a| {
                    visits += 1;
                    let mut row = vec![0; order.len()];
                    for (v, &val) in order.iter().zip(a) {
                        row[v.index()] = val;
                    }
                    assert!(want.contains(&row), "{row:?} is not an answer of {q}");
                    visits < stop_after
                })
                .unwrap();
                proptest::prop_assert_eq!(
                    visits, stop_after.min(want.len()), "visits of {} under {:?}", q, order
                );
                proptest::prop_assert_eq!(completed, want.len() < stop_after);
            }
        }

        /// A count cut into morsels is the count: under every order, the
        /// root cut into at most 1–7 morsels gives brute force's count,
        /// and a cut into several, taken by 1–4 workers, the same seeks
        /// whoever takes which morsel — so a count's seeks repeat
        /// whatever the load.
        #[test]
        fn a_split_count_is_the_unsplit_count(bits in proptest::prelude::any::<u64>()) {
            let mut rng = Lcg(bits);
            let q = random_join_query(&mut rng);
            let db = random_database(&q, &mut rng);
            let want = crate::bind::brute_force_count(&q, &db).unwrap();
            let catalog = cq_data::IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            for order in orders(&default_order(&q)) {
                for n in 1..=7 {
                    let alone = count_split(&ctx, &q, &db, &order, n, 1).unwrap();
                    proptest::prop_assert_eq!(alone.count, want, "{} under {:?} cut {}", q, order, n);
                    for workers in (2..=4).filter(|_| alone.morsels > 1) {
                        let split = count_split(&ctx, &q, &db, &order, n, workers).unwrap();
                        proptest::prop_assert_eq!(
                            (split.count, split.seeks),
                            (alone.count, alone.seeks),
                            "{} under {:?} cut {}, {} workers", q, order, n, workers
                        );
                    }
                }
            }
        }
    }

    /// The generator above reaches every mode above an atom's last
    /// column: an inner level with a bitmap (ANDed, or a filter, descended
    /// by rank) in over a third of the cases, and an inner level mixing
    /// bitmaps with slice-only sets (leapfrog, descended by position) in
    /// an eighth.
    #[test]
    fn random_databases_have_dense_inner_levels() {
        let (mut dense, mut mixed, cases) = (0, 0, 256u32);
        for case in 0..cases {
            let mut rng = Lcg(u64::from(case));
            let q = random_join_query(&mut rng);
            let db = random_database(&q, &mut rng);
            let (mut has_dense, mut has_mixed) = (false, false);
            for (_, rel) in db.iter().filter(|(_, r)| r.arity() > 1) {
                let view = SortedView::new(rel, &(0..rel.arity()).collect::<Vec<_>>());
                for d in 0..rel.arity() - 1 {
                    let parents = if d == 0 { 1 } else { view.level(d - 1).len() };
                    let sets = (0..parents).map(|i| view.bitmaps(d).of(i).0.len());
                    let n_dense = sets.filter(|&w| w > 0).count();
                    has_dense |= n_dense > 0;
                    has_mixed |= n_dense > 0 && n_dense < parents;
                }
            }
            dense += u32::from(has_dense);
            mixed += u32::from(has_mixed);
        }
        assert!(dense >= cases / 3, "{dense} of {cases} cases have a dense inner level");
        assert!(mixed >= cases / 8, "{mixed} of {cases} cases mix one with slices");
    }

    /// ... and it cuts a root into morsels on both kinds of root — every
    /// node a bitmap, where the morsel's words are ANDed, and some a
    /// slice only, where each cursor is clipped to the morsel — and with
    /// an atom of repeated variables, read through its `bound_view`.
    #[test]
    fn random_databases_split_both_kinds_of_root() {
        let (mut dense, mut sliced, mut bound, cases) = (0, 0, 0, 256u32);
        for case in 0..cases {
            let mut rng = Lcg(u64::from(case));
            let q = random_join_query(&mut rng);
            let db = random_database(&q, &mut rng);
            let repeats =
                q.atoms().iter().any(|a| distinct_vars(&a.vars).len() < a.vars.len());
            let (mut has_dense, mut has_sliced) = (false, false);
            for order in orders(&default_order(&q)) {
                run(&ExecCtx::cold(), &q, &db, &order, |plan| {
                    if plan.cuts(7).len() > 2 {
                        let all_dense = plan.depths[0]
                            .iter()
                            .all(|it| it.bits.is_some_and(|b| !b.of(0).0.is_empty()));
                        has_dense |= all_dense;
                        has_sliced |= !all_dense;
                    }
                    Ok(JoinWork::default())
                })
                .unwrap();
            }
            dense += u32::from(has_dense);
            sliced += u32::from(has_sliced);
            bound += u32::from(repeats && (has_dense || has_sliced));
        }
        // few, as the root must span words and weigh evenly across them
        // (a skewed hub is one value): `splits_clip_both_kinds_of_root`
        // has large ones
        for (kind, n) in [("all-dense", dense), ("slice-only", sliced), ("bound", bound)]
        {
            assert!(n >= cases / 64, "{n} of {cases} cases split a {kind} root");
        }
    }

    /// Splits against brute force where the root spans many words: a
    /// dense root (the morsel's words ANDed), a slice-only one (each
    /// cursor clipped), and one read through an atom of repeated
    /// variables — into at most 1–7 morsels, taken by 1–4 workers.
    #[test]
    fn splits_clip_both_kinds_of_root() {
        let pairs = |rows, domain, spread: fn(Val) -> Val| {
            let rel = random_pairs(rows, domain, &mut seeded_rng(rows as u64));
            Relation::from_pairs(rel.iter().map(|r| (spread(r[0]), spread(r[1]))))
        };
        let triangle = zoo::triangle_join();
        // 256 vertices in four words, and 40 with a word each
        let dense = triangle_database(&pairs(600, 256, |v| v));
        let sliced = triangle_database(&pairs(300, 40, |v| 64 * v + 63));
        let repeated = parse_query("q(x, y) :- R(x, y, x), S(y, x)").unwrap();
        let mut bound = Database::new();
        let edges = pairs(600, 256, |v| v);
        let rows = edges.iter().map(|r| vec![r[0], r[1], r[0] ^ (r[1] & 1)]);
        bound.insert("R", Relation::from_rows(3, rows));
        bound.insert("S", edges);
        for (q, db, root_dense) in [
            (&triangle, &dense, true),
            (&triangle, &sliced, false),
            (&repeated, &bound, true),
        ] {
            let want = crate::bind::brute_force_count(q, db).unwrap();
            let (order, ctx) = (default_order(q), ExecCtx::cold());
            run(&ctx, q, db, &order, |plan| {
                let dense_root = plan.depths[0]
                    .iter()
                    .all(|it| it.bits.is_some_and(|b| !b.of(0).0.is_empty()));
                assert_eq!(dense_root, root_dense, "{q}");
                assert!(plan.cuts(7).len() > 3, "{q}: {:?}", plan.cuts(7));
                Ok(JoinWork::default())
            })
            .unwrap();
            for n in 1..=7 {
                let alone = count_split(&ctx, q, db, &order, n, 1).unwrap();
                assert_eq!(alone.count, want, "{q} cut {n}");
                for workers in 2..=4 {
                    let split = count_split(&ctx, q, db, &order, n, workers).unwrap();
                    assert_eq!(
                        (split.count, split.seeks),
                        (want, alone.seeks),
                        "{q} cut {n}"
                    );
                }
            }
        }
    }

    /// Only the calling thread runs the probe, and a trip stops every
    /// worker: a probe tripping at its third consultation ends a
    /// 4-morsel, 2-worker count at the caller's node that consulted it,
    /// and the helper takes at most one morsel more — whatever the
    /// scheduler does, as the caller takes the first morsel itself.
    #[test]
    fn a_probe_trip_stops_every_worker_and_only_the_caller_probes() {
        // a triangle over 256 vertices — four root words — of degree 16:
        // some thousand nodes a morsel, a real check every 256
        let q = zoo::triangle_join();
        let db = triangle_database(&random_pairs(4000, 256, &mut seeded_rng(9)));
        let order = default_order(&q);
        let catalog = cq_data::IndexCatalog::new();
        let want = count_split(&ExecCtx::warm(&catalog), &q, &db, &order, 1, 1).unwrap();
        let cuts = vec![0, 1, 2, 3, u64::MAX];
        let caller = std::thread::current().id();
        let threads = Arc::new(std::sync::Mutex::new(Vec::new()));

        let seen = Arc::clone(&threads);
        let token = CancelToken::never().with_probe(move || {
            seen.lock().unwrap().push(std::thread::current().id());
            false
        });
        let ctx = ExecCtx::new(&catalog, &token);
        let morsels = Morsels::new(cuts.clone());
        let got =
            run(&ctx, &q, &db, &order, |plan| plan.count(&ctx, &morsels, 1)).unwrap();
        assert_eq!((got.count, got.seeks), (want.count, want.seeks));
        assert!(!threads.lock().unwrap().is_empty(), "the caller probes at least once");

        let morsels = Arc::new(Morsels::new(cuts));
        let (taken, consulted) = (Arc::clone(&morsels), Arc::new(AtomicUsize::new(0)));
        let (seen, calls) = (Arc::clone(&threads), Arc::clone(&consulted));
        let at_trip = Arc::new(AtomicUsize::new(usize::MAX));
        let trip = Arc::clone(&at_trip);
        let token = CancelToken::never().with_probe(move || {
            seen.lock().unwrap().push(std::thread::current().id());
            let tripping = calls.fetch_add(1, Ordering::Relaxed) == 2;
            if tripping {
                trip.store(taken.next.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            tripping
        });
        let ctx = ExecCtx::new(&catalog, &token);
        let got = run(&ctx, &q, &db, &order, |plan| plan.count(&ctx, &morsels, 1));
        assert!(matches!(got, Err(EvalError::Cancelled)));
        assert_eq!(consulted.load(Ordering::Relaxed), 3);
        assert_eq!(token.polls(), 2 * u64::from(crate::cancel::STRIDE) + 1);
        // the caller trips inside its first morsel, whoever took the rest
        let (at_trip, after) =
            (at_trip.load(Ordering::Relaxed), morsels.next.load(Ordering::Relaxed));
        assert!(
            after <= at_trip + 1,
            "{at_trip} morsels taken at the trip, {after} after"
        );
        assert!(threads.lock().unwrap().iter().all(|&t| t == caller));
    }
}
