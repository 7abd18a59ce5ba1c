//! The secondary index over relations: [`SortedView`], a relation's rows
//! re-sorted under a column permutation, supporting prefix-range lookups
//! (direct access, enumeration), plus the same rows as a trie over the
//! key columns, one contiguous value slice per level, which is what
//! generic join intersects.

use crate::relation::Relation;
use crate::value::Val;
use std::sync::OnceLock;

/// A relation's rows re-sorted so that the columns `key_cols` come first
/// (in the given order), followed by the remaining columns in original
/// order. Supports binary-search prefix lookups on the key columns.
///
/// The key columns are also offered as a trie in CSR form: level `d`
/// holds, for every distinct key prefix of length `d + 1` in sorted
/// order, the prefix's last value ([`SortedView::level`]), so the
/// distinct values under one parent prefix are a contiguous, strictly
/// increasing slice; [`SortedView::level_offsets`] maps each node to
/// its children in level `d + 1`. The trie is built from the sorted
/// rows the first time a level is asked for and then lives and dies
/// with the view — views that only ever serve `row`/`key_range` (the
/// join-tree algorithms) never pay for it.
#[derive(Clone, Debug)]
pub struct SortedView {
    /// New column order: `key_cols` then the rest.
    col_order: Vec<usize>,
    /// Number of key columns.
    n_key: usize,
    /// Rows in the permuted column order, sorted lexicographically.
    data: Vec<Val>,
    arity: usize,
    /// Explicit row count: for arity 0 the data buffer carries no
    /// information, yet the view of `{()}` has one row, not zero.
    n_rows: usize,
    /// One trie level per key column, built on first use.
    levels: OnceLock<Vec<TrieLevel>>,
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
}

impl SortedView {
    /// Build a view of `rel` keyed on `key_cols`.
    pub fn new(rel: &Relation, key_cols: &[usize]) -> Self {
        let arity = rel.arity();
        let mut col_order: Vec<usize> = key_cols.to_vec();
        for c in 0..arity {
            if !key_cols.contains(&c) {
                col_order.push(c);
            }
        }
        assert_eq!(col_order.len(), arity, "key_cols must be distinct and in range");
        let mut data: Vec<Val> = Vec::with_capacity(rel.raw().len());
        for row in rel.iter() {
            for &c in &col_order {
                data.push(row[c]);
            }
        }
        assert!(u32::try_from(rel.len()).is_ok(), "views index rows with u32");
        let mut view = SortedView {
            col_order,
            n_key: key_cols.len(),
            data,
            arity,
            n_rows: rel.len(),
            levels: OnceLock::new(),
        };
        view.sort();
        view
    }

    fn sort(&mut self) {
        // rows of a small fixed width sort in place as arrays (a sorted
        // input — the key columns are often a prefix of the relation's
        // own order — costs one scan); wider rows go through an index
        match self.arity {
            0 => {}
            1 => self.data.sort_unstable(),
            2 => self.data.as_chunks_mut::<2>().0.sort_unstable(),
            3 => self.data.as_chunks_mut::<3>().0.sort_unstable(),
            arity => {
                let data = &self.data;
                let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
                let mut idx: Vec<u32> = (0..self.n_rows as u32).collect();
                idx.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
                let mut out = Vec::with_capacity(data.len());
                for &i in &idx {
                    out.extend_from_slice(row(i));
                }
                self.data = out;
            }
        }
    }

    /// One pass over the sorted rows: a row whose key first differs from
    /// its predecessor's at column `c` opens one new node on every level
    /// from `c` down.
    fn build_levels(&self) -> Vec<TrieLevel> {
        let n_key = self.n_key;
        let mut levels = vec![TrieLevel::default(); n_key];
        let mut prev: Option<&[Val]> = None;
        for row in self.data.chunks_exact(self.arity.max(1)) {
            let key = &row[..n_key];
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
        levels
    }

    fn levels(&self) -> &[TrieLevel] {
        self.levels.get_or_init(|| self.build_levels())
    }

    /// The values of trie level `d < n_key`: for every distinct key
    /// prefix of length `d + 1`, in sorted order, its last value. The
    /// children of one parent are contiguous and strictly increasing;
    /// level 0 is the sorted distinct values of the first key column.
    pub fn level(&self, d: usize) -> &[Val] {
        &self.levels()[d].vals
    }

    /// CSR child offsets of level `d < n_key - 1`: node `i` of
    /// [`SortedView::level`] `d` has children
    /// `offsets[i]..offsets[i + 1]` in level `d + 1`.
    pub fn level_offsets(&self, d: usize) -> &[u32] {
        assert!(d + 1 < self.n_key, "the last key level has no children");
        &self.levels()[d].child
    }

    /// Number of rows (explicitly tracked — correct even for views of
    /// nullary relations, where `data.len() / arity` is undefined).
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Arity (same as the underlying relation).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of key columns.
    pub fn n_key(&self) -> usize {
        self.n_key
    }

    /// The permuted column order (key columns first).
    pub fn col_order(&self) -> &[usize] {
        &self.col_order
    }

    /// Row `i` in the *permuted* column order.
    #[inline]
    pub fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Range of row indices whose key columns equal `key`
    /// (`key.len() ≤ n_key`; shorter keys match by prefix).
    pub fn key_range(&self, key: &[Val]) -> std::ops::Range<usize> {
        assert!(key.len() <= self.n_key);
        let n = self.len();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid)[..key.len()] < *key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let start = lo;
        let mut lo2 = start;
        let mut hi2 = n;
        while lo2 < hi2 {
            let mid = lo2 + (hi2 - lo2) / 2;
            if self.row(mid)[..key.len()] <= *key {
                lo2 = mid + 1;
            } else {
                hi2 = mid;
            }
        }
        start..lo2
    }

    /// Does any row have key columns equal to `key`?
    pub fn contains_key(&self, key: &[Val]) -> bool {
        !self.key_range(key).is_empty()
    }

    /// Iterate over the groups of equal full keys: yields
    /// `(key, row_range)` pairs in key order.
    pub fn groups(&self) -> impl Iterator<Item = (&[Val], std::ops::Range<usize>)> + '_ {
        let mut i = 0usize;
        std::iter::from_fn(move || {
            if i >= self.len() {
                return None;
            }
            let key = &self.row(i)[..self.n_key];
            let mut j = i + 1;
            while j < self.len() && &self.row(j)[..self.n_key] == key {
                j += 1;
            }
            let out = (key, i..j);
            i = j;
            Some(out)
        })
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

    #[test]
    fn sorted_view_keys_first() {
        let v = SortedView::new(&rel(), &[1]);
        // sorted by column 1 first: keys 10,10,10,20
        assert_eq!(v.row(0)[0], 10);
        assert_eq!(v.row(3)[0], 20);
        assert_eq!(v.key_range(&[10]).len(), 3);
        assert_eq!(v.key_range(&[20]).len(), 1);
        assert_eq!(v.key_range(&[15]).len(), 0);
        assert!(v.contains_key(&[10]));
        assert!(!v.contains_key(&[11]));
    }

    #[test]
    fn sorted_view_multi_key() {
        let v = SortedView::new(&rel(), &[1, 0]);
        assert_eq!(v.key_range(&[10, 1]).len(), 1);
        assert_eq!(v.key_range(&[10]).len(), 3);
        // remaining column order: the leftover col 2
        assert_eq!(v.col_order(), &[1, 0, 2]);
    }

    #[test]
    fn levels_are_the_key_trie_in_csr_form() {
        // rows by (col 1, col 0): (10,1) (10,2) (10,3) (20,1)
        let v = SortedView::new(&rel(), &[1, 0]);
        assert_eq!(v.level(0), &[10, 20]);
        assert_eq!(v.level_offsets(0), &[0, 3, 4]);
        assert_eq!(v.level(1), &[1, 2, 3, 1]);
        // fully keyed: the last level is the last key column, row by row
        for (i, &b) in v.level(1).iter().enumerate() {
            assert_eq!(v.row(i)[1], b);
        }
        // a partial key: one level of distinct values
        let v = SortedView::new(&rel(), &[1]);
        assert_eq!(v.level(0), &[10, 20]);
        // an empty view has empty levels and the end sentinel only
        let v = SortedView::new(&Relation::new(2), &[1, 0]);
        assert!(v.level(0).is_empty() && v.level(1).is_empty());
        assert_eq!(v.level_offsets(0), &[0]);
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
            let groups: Vec<_> = v.groups().collect();
            let last = key_cols.len() - 1;
            assert_eq!(v.level(last).len(), groups.len(), "{key_cols:?}");
            for (i, (key, _)) in groups.iter().enumerate() {
                assert_eq!(v.level(last)[i], key[last]);
            }
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

    #[test]
    fn rows_sort_under_the_permutation_at_every_width() {
        for arity in 1..=5usize {
            let mut r = Relation::new(arity);
            for i in 0..97u64 {
                let row: Vec<Val> =
                    (0..arity as u64).map(|c| (i * (c + 3)) % (5 + c)).collect();
                r.push_row(&row);
            }
            r.normalize();
            let key_cols: Vec<usize> = (0..arity).rev().collect();
            let v = SortedView::new(&r, &key_cols);
            assert_eq!(v.len(), r.len());
            assert!((1..v.len()).all(|i| v.row(i - 1) < v.row(i)), "arity {arity}");
            for i in 0..v.len() {
                let original: Vec<Val> = (0..arity).rev().map(|c| v.row(i)[c]).collect();
                assert!(r.contains(&original));
            }
        }
    }

    #[test]
    fn groups_cover_all_rows() {
        let v = SortedView::new(&rel(), &[0]);
        let groups: Vec<_> = v.groups().map(|(k, r)| (k.to_vec(), r)).collect();
        assert_eq!(groups.len(), 3); // keys 1, 2, 3
        let total: usize = groups.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(groups[0].0, vec![1]);
        assert_eq!(groups[0].1.len(), 2);
    }

    #[test]
    fn empty_view() {
        let r = Relation::new(2);
        let v = SortedView::new(&r, &[0]);
        assert!(v.is_empty());
        assert_eq!(v.key_range(&[1]), 0..0);
        assert_eq!(v.groups().count(), 0);
    }

    #[test]
    fn nullary_view_counts_the_empty_tuple() {
        // regression: len()/is_empty() used to derive the row count as
        // data.len() / arity, reporting 0 rows for the view of {()}
        // (a true Boolean query's answer relation).
        let t = Relation::nullary(true);
        let v = SortedView::new(&t, &[]);
        assert_eq!(v.len(), 1);
        assert!(!v.is_empty());
        assert_eq!(v.arity(), 0);
        assert_eq!(v.row(0), &[] as &[crate::value::Val]);
        assert_eq!(v.key_range(&[]), 0..1);
        assert_eq!(v.groups().count(), 1);
        let f = SortedView::new(&Relation::nullary(false), &[]);
        assert_eq!(f.len(), 0);
        assert!(f.is_empty());
    }
}
