//! The secondary index over relations: [`SortedView`], a relation's key
//! columns as a trie, one contiguous value slice per level, which is what
//! generic join intersects — every level's dense nodes also as ranked
//! bitmaps, which it intersects a word at a time. Rows read by position
//! (the nodes of the reduced join tree) are plain [`Relation`]s.

use crate::relation::Relation;
use crate::value::Val;

/// A relation's columns `key_cols` (in the given order) as a trie in CSR
/// form, and nothing else: level `d` holds, for every distinct key prefix
/// of length `d + 1` in sorted order, the prefix's last value
/// ([`SortedView::level`]), so the distinct values under one parent
/// prefix are a contiguous, strictly increasing slice;
/// [`SortedView::level_offsets`] maps each node to its children in level
/// `d + 1`. Every level carries a second layout of its dense child sets
/// ([`SortedView::bitmaps`]), ranked where the children have children of
/// their own. All of it is built by [`SortedView::new`] from the sorted
/// projection onto the key, which is then dropped.
#[derive(Clone, Debug)]
pub struct SortedView {
    /// One level per key column.
    levels: Vec<TrieLevel>,
}

/// One level of a [`SortedView`]'s key trie.
#[derive(Clone, Debug, Default)]
struct TrieLevel {
    /// Last value of each distinct key prefix ending at this level.
    vals: Vec<Val>,
    /// `child[i]..child[i + 1]`: node `i`'s children in the next level.
    /// One entry per node plus the end sentinel; empty for the last key
    /// level, which has no next one.
    child: Vec<u32>,
    /// The level's dense child sets as bitmaps, back to back.
    words: Vec<u64>,
    /// Per word, the set bits of its node before it; empty on the last
    /// key level, whose values index nothing.
    rank: Vec<u32>,
    /// `start[i]..start[i + 1]`: the words of the children of node `i`
    /// of the level above (the root, node 0, above level 0) — none for
    /// a child set kept as a slice only. One entry per node plus the
    /// end sentinel; empty if no child set is dense.
    start: Vec<u32>,
}

impl SortedView {
    /// Build the trie of `rel`'s columns `key_cols` — a prefix of them
    /// or all, in any order: one pass over the sorted, distinct keys,
    /// where a key first differing from its predecessor's at column `c`
    /// opens one new node on every level from `c` down.
    pub fn new(rel: &Relation, key_cols: &[usize]) -> Self {
        let fresh =
            |(i, c): (usize, &usize)| *c < rel.arity() && !key_cols[..i].contains(c);
        let valid = key_cols.iter().enumerate().all(fresh);
        assert!(valid, "key_cols must be distinct and in range");
        assert!(u32::try_from(rel.len()).is_ok(), "views index nodes with u32");
        let n_key = key_cols.len();
        let keys = rel.project(key_cols);
        let mut levels = vec![TrieLevel::default(); n_key];
        let mut prev: Option<&[Val]> = None;
        for key in keys.raw().chunks_exact(n_key.max(1)) {
            let first_new = match prev {
                None => 0,
                Some(p) => p.iter().zip(key).position(|(a, b)| a != b).unwrap_or(n_key),
            };
            for d in first_new..n_key {
                // the node's first child is the one about to be pushed
                if let Some(next) = levels.get(d + 1) {
                    let first_child = next.vals.len() as u32;
                    levels[d].child.push(first_child);
                }
                levels[d].vals.push(key[d]);
            }
            prev = Some(key);
        }
        for d in 1..n_key {
            let end = levels[d].vals.len() as u32;
            levels[d - 1].child.push(end);
        }
        for level in &mut levels {
            level.vals.shrink_to_fit();
            level.child.shrink_to_fit();
        }
        for d in 0..n_key {
            let root = [0, levels[d].vals.len() as u32];
            let parents = if d == 0 { &root[..] } else { &levels[d - 1].child };
            let bitmaps = build_bitmaps(parents, &levels[d].vals, d + 1 < n_key);
            (levels[d].words, levels[d].rank, levels[d].start) = bitmaps;
        }
        SortedView { levels }
    }

    /// The values of trie level `d < n_key`: for every distinct key
    /// prefix of length `d + 1`, in sorted order, its last value. The
    /// children of one parent are contiguous and strictly increasing;
    /// level 0 is the sorted distinct values of the first key column.
    pub fn level(&self, d: usize) -> &[Val] {
        &self.levels[d].vals
    }

    /// CSR child offsets of level `d < n_key - 1`: node `i` of
    /// [`SortedView::level`] `d` has children
    /// `offsets[i]..offsets[i + 1]` in level `d + 1`.
    pub fn level_offsets(&self, d: usize) -> &[u32] {
        assert!(d + 1 < self.n_key(), "the last key level has no children");
        &self.levels[d].child
    }

    /// Level `d`'s child sets in their second layout: every child set
    /// that spans fewer 64-bit words than it has elements — `(max >> 6) −
    /// (min >> 6) + 1 < len` — also is a word-aligned bitmap, ranked on
    /// every level but the last. The rule is a property of the data: a
    /// word (8 bytes, plus a 4-byte rank) then costs less than the values
    /// it replaces (8 bytes each, plus a 4-byte child offset), and holds
    /// up to 64 of them per AND; any other set would pay more words than
    /// it has values, and has none.
    pub fn bitmaps(&self, d: usize) -> LevelBitmaps<'_> {
        let l = &self.levels[d];
        LevelBitmaps { words: &l.words, rank: &l.rank, start: &l.start }
    }

    /// Bytes this view holds on the heap: the trie levels and their
    /// bitmaps.
    pub fn heap_bytes(&self) -> usize {
        let level = |l: &TrieLevel| {
            8 * (l.vals.len() + l.words.len())
                + 4 * (l.child.len() + l.rank.len() + l.start.len())
        };
        self.levels.iter().map(level).sum()
    }

    /// Number of key columns: the trie's levels.
    pub fn n_key(&self) -> usize {
        self.levels.len()
    }
}

/// The second layout of one trie level, whose child sets are the
/// `parents.windows(2)` of its `vals` (see [`SortedView::bitmaps`]): one
/// pass over them, and a rank per word if `ranked`.
fn build_bitmaps(
    parents: &[u32],
    vals: &[Val],
    ranked: bool,
) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let mut words: Vec<u64> = Vec::new();
    let mut rank: Vec<u32> = Vec::new();
    let mut start: Vec<u32> = Vec::with_capacity(parents.len());
    for w in parents.windows(2) {
        // fewer words than values in every dense set: `u32` holds
        start.push(words.len() as u32);
        let kids = &vals[w[0] as usize..w[1] as usize];
        let (Some(&min), Some(&max)) = (kids.first(), kids.last()) else {
            continue; // the root of an empty view
        };
        let first = min >> 6;
        let span = (max >> 6) - first + 1;
        if span < kids.len() as u64 {
            let at = words.len();
            words.resize(at + span as usize, 0);
            for &v in kids {
                words[at + ((v >> 6) - first) as usize] |= 1 << (v & 63);
            }
            if ranked {
                let mut before = 0;
                for w in &words[at..] {
                    rank.push(before);
                    before += w.count_ones();
                }
            }
        }
    }
    if words.is_empty() {
        return Default::default();
    }
    start.push(words.len() as u32);
    words.shrink_to_fit();
    rank.shrink_to_fit();
    (words, rank, start)
}

/// The bitmaps of one level of a [`SortedView`]'s key trie, by node of
/// the level above it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelBitmaps<'a> {
    words: &'a [u64],
    rank: &'a [u32],
    start: &'a [u32],
}

impl<'a> LevelBitmaps<'a> {
    /// Is no child set of the level a bitmap?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The children of `node` — a node of the level above; 0, the root,
    /// above level 0 — as a bitmap and its ranks, or `(&[], &[])` for a
    /// child set kept as a slice only. With `first` the smallest child,
    /// bit `b` of word `j` is the value `((first >> 6) + j) << 6 | b`; the
    /// first and the last word are non-zero. `rank[j]` counts the set
    /// bits of words `0..j`, so with `lo` the position of the first child
    /// in the level, that value sits at `lo + rank[j] + (words[j] & ((1 <<
    /// b) − 1)).count_ones()` — the node whose children
    /// [`SortedView::level_offsets`] gives. The last key level has no
    /// ranks.
    #[inline]
    pub fn of(&self, node: usize) -> (&'a [u64], &'a [u32]) {
        let Some(&[lo, hi]) = self.start.get(node..node + 2) else {
            return (&[], &[]);
        };
        let span = lo as usize..hi as usize;
        (&self.words[span.clone()], self.rank.get(span).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::from_rows(
            3,
            vec![vec![1, 10, 100], vec![2, 10, 200], vec![1, 20, 300], vec![3, 10, 100]],
        )
    }

    /// The rows of `rel.project(key_cols)`: what the trie's paths spell.
    fn keys(rel: &Relation, key_cols: &[usize]) -> Vec<Vec<Val>> {
        rel.project(key_cols).iter().map(<[Val]>::to_vec).collect()
    }

    /// Every root-to-leaf path of the trie, in level order.
    fn paths(v: &SortedView) -> Vec<Vec<Val>> {
        let mut paths: Vec<Vec<Val>> = v.level(0).iter().map(|&x| vec![x]).collect();
        for d in 1..v.n_key() {
            let offsets = v.level_offsets(d - 1);
            let kids =
                |i: usize| &v.level(d)[offsets[i] as usize..offsets[i + 1] as usize];
            let extend = |(i, p): (usize, &Vec<Val>)| {
                kids(i).iter().map(|&x| [&p[..], &[x]].concat()).collect::<Vec<_>>()
            };
            paths = paths.iter().enumerate().flat_map(extend).collect();
        }
        paths
    }

    #[test]
    fn sorted_view_keys_first() {
        // keyed on column 1 alone: the distinct values 10, 20
        let v = SortedView::new(&rel(), &[1]);
        assert_eq!(v.n_key(), 1);
        assert_eq!(v.level(0), rel().project(&[1]).raw());
        assert_eq!(v.level(0), &[10, 20]);
    }

    #[test]
    fn sorted_view_multi_key() {
        let v = SortedView::new(&rel(), &[1, 0]);
        assert_eq!(v.n_key(), 2);
        assert_eq!(paths(&v), keys(&rel(), &[1, 0]));
        assert_eq!(paths(&v), [[10, 1], [10, 2], [10, 3], [20, 1]]);
    }

    /// A partial key — `[1]` of a binary relation, what `cqbench` times
    /// as `data.view_build_ms` — is the trie of that one column: no row,
    /// and no value of the other column, is kept.
    #[test]
    fn a_partial_key_is_the_trie_of_its_projection() {
        let r = Relation::from_pairs((0..300).map(|i| (i % 17, (i * 7) % 100)));
        let v = SortedView::new(&r, &[1]);
        assert_eq!(v.n_key(), 1);
        assert_eq!(v.level(0), r.project(&[1]).raw());
        assert_eq!(v.level(0).len(), 100);
        // 0..100 is dense: two words under the root, no ranks
        assert_eq!(v.bitmaps(0).of(0), (&[u64::MAX, (1 << 36) - 1][..], &[][..]));
        assert_eq!(v.heap_bytes(), 8 * 100 + (8 * 2 + 4 * 2));
        assert_never_larger(&v);
        assert_ranks_are_positions(&v);
    }

    #[test]
    fn levels_are_the_key_trie_in_csr_form() {
        // rows by (col 1, col 0): (10,1) (10,2) (10,3) (20,1)
        let v = SortedView::new(&rel(), &[1, 0]);
        assert_eq!(v.level(0), &[10, 20]);
        assert_eq!(v.level_offsets(0), &[0, 3, 4]);
        assert_eq!(v.level(1), &[1, 2, 3, 1]);
        // fully keyed: the last level is the projection's last column,
        // row by row
        for (i, &b) in v.level(1).iter().enumerate() {
            assert_eq!(rel().project(&[1, 0]).row(i)[1], b);
        }
        // a partial key: one level of distinct values
        let v = SortedView::new(&rel(), &[1]);
        assert_eq!(v.level(0), &[10, 20]);
        // an empty view has empty levels and the end sentinel only
        let v = SortedView::new(&Relation::new(2), &[1, 0]);
        assert!(v.level(0).is_empty() && v.level(1).is_empty());
        assert_eq!(v.level_offsets(0), &[0]);
    }

    /// The distinct keys of `rel` on `key_cols`, in sorted order — the
    /// rows of `rel.project(key_cols)` — with the rows of `rel` having each.
    fn groups(rel: &Relation, key_cols: &[usize]) -> Vec<(Vec<Val>, usize)> {
        let key = |row: &[Val]| key_cols.iter().map(|&c| row[c]).collect::<Vec<_>>();
        let out = keys(rel, key_cols).into_iter();
        out.map(|k| (k.clone(), rel.iter().filter(|row| key(row) == k).count())).collect()
    }

    #[test]
    fn levels_agree_with_groups_on_every_prefix() {
        let mut r = Relation::new(3);
        for i in 0..200u64 {
            r.push_row(&[i % 7, (i * 5) % 11, i % 3]);
        }
        // not normalized: the view sorts, and equal rows share one node
        for key_cols in [vec![0], vec![2, 0], vec![1, 2, 0], vec![0, 1, 2]] {
            let v = SortedView::new(&r, &key_cols);
            let groups = groups(&r, &key_cols);
            let last = key_cols.len() - 1;
            assert_eq!(v.level(last).len(), groups.len(), "{key_cols:?}");
            for (i, (key, _)) in groups.iter().enumerate() {
                assert_eq!(v.level(last)[i], key[last]);
            }
            assert_eq!(paths(&v), keys(&r, &key_cols));
            // each level's children partition the next level, and
            // siblings are strictly increasing
            for d in 0..last {
                let offsets = v.level_offsets(d);
                assert_eq!(offsets.len(), v.level(d).len() + 1);
                assert_eq!(*offsets.last().unwrap() as usize, v.level(d + 1).len());
                for w in offsets.windows(2) {
                    let kids = &v.level(d + 1)[w[0] as usize..w[1] as usize];
                    assert!(!kids.is_empty());
                    assert!(kids.windows(2).all(|p| p[0] < p[1]));
                }
            }
            assert!(v.level(0).windows(2).all(|p| p[0] < p[1]));
        }
    }

    /// The values a bitmap stands for, `first` being the smallest.
    fn decode(words: &[u64], first: Val) -> Vec<Val> {
        let mut out = Vec::new();
        for (j, w) in words.iter().enumerate() {
            for b in (0..64).filter(|b| w >> b & 1 == 1) {
                out.push(((first >> 6) + j as u64) << 6 | b);
            }
        }
        out
    }

    /// The child sets of level `d`, by node of the level above: each
    /// one's first position in the level and its values.
    fn child_sets(v: &SortedView, d: usize) -> Vec<(usize, &[Val])> {
        let root = [0, v.level(d).len() as u32];
        let parents = if d == 0 { &root[..] } else { v.level_offsets(d - 1) };
        let set = |w: &[u32]| (w[0] as usize, &v.level(d)[w[0] as usize..w[1] as usize]);
        parents.windows(2).map(set).collect()
    }

    /// `heap_bytes` as DESIGN.md states it: with `P_d` the nodes of level
    /// `d` and `W_d` its bitmap words, values `8·P_d`, child
    /// offsets `4·(P_d + 1)` and ranks `4·W_d` above the last level, and
    /// on a level with a dense set its words `8·W_d` and starts `4·(P_{d−1}
    /// + 1)` (the root is the one node above level 0).
    fn formula(v: &SortedView) -> usize {
        let mut bytes = 0;
        for d in 0..v.n_key() {
            let (p, sets) = (v.level(d).len(), child_sets(v, d).len());
            let w: usize = (0..sets).map(|i| v.bitmaps(d).of(i).0.len()).sum();
            bytes += 8 * p;
            if d + 1 < v.n_key() {
                bytes += 4 * (p + 1) + 4 * w;
            }
            if w > 0 {
                bytes += 8 * w + 4 * (sets + 1);
            }
        }
        bytes
    }

    /// Per level, the words, ranks and starts of the bitmaps never exceed
    /// the values and child offsets they mirror, nor do they keep spare
    /// capacity; ranks exist exactly above the last level.
    fn assert_never_larger(v: &SortedView) {
        for (d, l) in v.levels.iter().enumerate() {
            let bitmaps = 8 * l.words.len() + 4 * (l.rank.len() + l.start.len());
            assert!(bitmaps <= 8 * l.vals.len() + 4 * l.child.len(), "level {d}");
            let ranked = d + 1 < v.n_key();
            assert_eq!(l.rank.len(), if ranked { l.words.len() } else { 0 });
            assert_eq!(l.words.capacity(), l.words.len());
            assert_eq!(l.rank.capacity(), l.rank.len());
            if l.words.is_empty() {
                assert_eq!(l.start.capacity(), 0, "level {d}: no dense set, no starts");
            }
        }
        assert_eq!(v.heap_bytes(), formula(v));
    }

    /// Every bitmap decodes to its set, spans exactly its words, and —
    /// above the last level — ranks each value at its position in the
    /// level: the node whose children `level_offsets` gives. Returns the
    /// dense sets per level.
    fn assert_ranks_are_positions(v: &SortedView) -> Vec<usize> {
        let per_level = |d: usize| {
            let ranked = d + 1 < v.n_key();
            let mut dense = 0;
            for (node, (lo, kids)) in child_sets(v, d).into_iter().enumerate() {
                let (words, rank) = v.bitmaps(d).of(node);
                let Some((&min, &max)) = kids.first().zip(kids.last()) else {
                    assert!(words.is_empty(), "the root of an empty view");
                    continue;
                };
                let span = ((max >> 6) - (min >> 6) + 1) as usize;
                if span >= kids.len() {
                    assert!(words.is_empty() && rank.is_empty(), "level {d} node {node}");
                    continue;
                }
                dense += 1;
                assert_eq!(words.len(), span);
                assert_eq!(decode(words, min), kids, "level {d} node {node}");
                assert!(words[0] != 0 && words[span - 1] != 0);
                assert_eq!(rank.len(), if ranked { span } else { 0 });
                for (i, &x) in kids.iter().enumerate().filter(|_| ranked) {
                    let j = ((x >> 6) - (min >> 6)) as usize;
                    let below = words[j] & ((1 << (x & 63)) - 1);
                    let at = lo + rank[j] as usize + below.count_ones() as usize;
                    assert_eq!(
                        (at, v.level(d)[at]),
                        (lo + i, x),
                        "level {d} node {node}"
                    );
                }
            }
            assert!(v.bitmaps(d).of(child_sets(v, d).len()).0.is_empty(), "past the end");
            dense
        };
        (0..v.n_key()).map(per_level).collect()
    }

    #[test]
    fn a_node_is_a_bitmap_iff_its_words_are_fewer_than_its_children() {
        let top = Val::MAX;
        let nodes: [(Val, &[Val]); 7] = [
            (0, &[63, 64, 127, 128]), // 3 words < 4 children
            (1, &[63, 64, 128]),      // 3 words, 3 children: a slice
            (2, &[5]),                // a singleton never is
            (3, &[64, 127]),          // two values of one word
            (4, &[top - 130, top - 65, top - 64, top - 63, top - 1, top]),
            (5, &[1000, 1001, 1002]), // words apart from node 6's
            (6, &[10_000, 10_001, 10_063, 10_064]),
        ];
        let rows = nodes.iter().flat_map(|(a, kids)| kids.iter().map(|&b| vec![*a, b]));
        let v = SortedView::new(&Relation::from_rows(2, rows), &[0, 1]);
        // the root's seven children are one word, ranked from 0
        assert_eq!(v.bitmaps(0).of(0), (&[0b111_1111][..], &[0][..]));
        assert_eq!(assert_ranks_are_positions(&v), [1, 5]);
        let total: usize = (0..nodes.len()).map(|a| v.bitmaps(1).of(a).0.len()).sum();
        assert_eq!(total, 3 + 1 + 3 + 1 + 2);
        let levels = 8 * (7 + 23) + 4 * 8;
        let bitmaps = (8 + 4 + 4 * 2) + (8 * total + 4 * 8);
        assert_eq!(v.heap_bytes(), levels + bitmaps);
        assert_never_larger(&v);

        // one key column: the root is the only node, and nothing is ranked
        let v = SortedView::new(&Relation::from_values(vec![3, 70, 130, 131]), &[0]);
        assert_eq!(decode(v.bitmaps(0).of(0).0, 3), &[3, 70, 130, 131]);
        assert!(v.bitmaps(0).of(0).1.is_empty());
        assert!(v.bitmaps(0).of(1).0.is_empty());
        assert_never_larger(&v);
    }

    #[test]
    fn a_set_bits_rank_is_its_position_in_the_level() {
        let top = Val::MAX;
        let edges: &[Val] = &[63, 64, 127, 128];
        let high: &[Val] = &[top - 130, top - 65, top - 64, top - 63, top - 1, top];
        let firsts = [0, 1, 2, 63, 64, 127, 128];
        let mut rows = Vec::new();
        for (i, &a) in firsts.iter().enumerate() {
            for &b in [edges, high, &[5, 700]][i % 3] {
                // two words under an even b, the top two under an odd one
                let thirds: &[Val] = if b % 2 == 0 {
                    &[62, 63, 64, 65]
                } else {
                    &[top - 64, top - 1, top]
                };
                rows.extend(thirds.iter().map(|&c| vec![a, b, c]));
            }
        }
        let v = SortedView::new(&Relation::from_rows(3, rows), &[0, 1, 2]);
        // 0, 1, 2, 63 | 64, 127 | 128: the ranks step over a word edge
        let words = [0b111 | 1 << 63, 1 | 1 << 63, 1];
        assert_eq!(v.bitmaps(0).of(0), (&words[..], &[0, 4, 6][..]));
        // the root, every second-column set but [5, 700], every third
        assert_eq!(assert_ranks_are_positions(&v), [1, 5, 28]);
        // the top of the domain: rank across its last word edge
        let (words, rank) = v.bitmaps(1).of(1);
        assert_eq!((words.len(), rank), (3, &[0, 1, 3][..]));
        assert_never_larger(&v);
    }

    #[test]
    fn bitmaps_never_exceed_the_levels_they_mirror() {
        let mut state = 7u64;
        let mut below = |n: u64| {
            state =
                state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for case in 0..60 {
            let arity = 2 + case % 2;
            let domain = [2, 8, 64, 200, 5_000][case % 5];
            let n = [0, 1, 10, 200, 2_000][(case / 5) % 5];
            let mut r = Relation::new(arity);
            for _ in 0..n {
                let row: Vec<Val> = (0..arity).map(|_| below(domain as u64)).collect();
                r.push_row(&row);
            }
            r.normalize();
            for key_cols in [vec![0], vec![1, 0], (0..arity).rev().collect()] {
                let v = SortedView::new(&r, &key_cols);
                assert_ranks_are_positions(&v);
                assert_never_larger(&v);
            }
        }
    }

    #[test]
    fn a_level_with_no_dense_node_has_no_bitmap_at_all() {
        // a sparse root over singletons, nodes as wide in words as in
        // children, and a dense root over singletons
        let sparse = Relation::from_pairs((0..100).map(|i| (64 * i, i)));
        let wide = Relation::from_pairs((0..100).map(|i| (640 * (i % 10), 64 * i)));
        let singletons = Relation::from_pairs((0..100).map(|i| (i, i)));
        let empty = Relation::new(2);
        for (rel, dense_root) in
            [(sparse, false), (wide, false), (singletons, true), (empty, false)]
        {
            let v = SortedView::new(&rel, &[0, 1]);
            assert_eq!(v.bitmaps(0).is_empty(), !dense_root);
            assert!(v.bitmaps(1).is_empty());
            assert_eq!(v.bitmaps(1).of(0), (&[][..], &[][..]));
            for l in v.levels.iter().filter(|l| l.words.is_empty()) {
                let capacity =
                    (l.words.capacity(), l.rank.capacity(), l.start.capacity());
                assert_eq!(capacity, (0, 0, 0));
            }
            let levels =
                8 * (v.level(0).len() + v.level(1).len()) + 4 * v.level_offsets(0).len();
            // two words, two ranks, two starts
            let root = if dense_root { 8 * 2 + 4 * 2 + 4 * 2 } else { 0 };
            assert_eq!(v.heap_bytes(), levels + root);
            assert_never_larger(&v);
        }
        let nullary = SortedView::new(&Relation::nullary(true), &[]);
        assert!(nullary.levels.is_empty());
        assert_eq!(nullary.heap_bytes(), 0);
    }

    #[test]
    fn rows_sort_under_the_permutation_at_every_width() {
        // one width per branch of `Relation::normalize`'s sort, and
        // every prefix of the permutation as the key
        for arity in 1..=5usize {
            let mut r = Relation::new(arity);
            for i in 0..97u64 {
                let row: Vec<Val> =
                    (0..arity as u64).map(|c| (i * (c + 3)) % (5 + c)).collect();
                r.push_row(&row);
            }
            r.normalize();
            let key_cols: Vec<usize> = (0..arity).rev().collect();
            for k in 1..=arity {
                let v = SortedView::new(&r, &key_cols[..k]);
                let paths = paths(&v);
                assert!(paths.is_sorted(), "arity {arity}, key {k}");
                assert_eq!(paths, keys(&r, &key_cols[..k]), "arity {arity}, key {k}");
            }
            let full = paths(&SortedView::new(&r, &key_cols));
            assert_eq!(full.len(), r.len(), "arity {arity}: one path per row");
        }
    }

    #[test]
    fn groups_cover_all_rows() {
        // the runs of equal keys are the nodes of the last key level
        let v = SortedView::new(&rel(), &[0]);
        let groups = groups(&rel(), &[0]);
        assert_eq!(groups.len(), 3); // keys 1, 2, 3
        assert_eq!(groups.iter().map(|(_, n)| n).sum::<usize>(), rel().len());
        assert_eq!(groups[0], (vec![1], 2));
        let keys: Vec<Val> = groups.iter().map(|(key, _)| key[0]).collect();
        assert_eq!(v.level(0), keys);
    }

    #[test]
    fn empty_view() {
        let v = SortedView::new(&Relation::new(2), &[0]);
        assert_eq!(v.n_key(), 1);
        assert!(v.level(0).is_empty() && v.bitmaps(0).is_empty());
        assert_eq!(v.heap_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "key_cols must be distinct and in range")]
    fn a_repeated_key_column_is_refused() {
        let _ = SortedView::new(&rel(), &[1, 1]);
    }
}
