//! Relations: sorted, deduplicated, row-major flat storage.

use crate::value::Val;
use std::fmt;

/// A relation instance of fixed arity.
///
/// Rows are stored row-major in one flat buffer and kept **sorted
/// lexicographically and deduplicated** (set semantics, as in the paper).
/// Mutating constructors accept unsorted input and normalize once.
///
/// The row count is tracked explicitly rather than derived as
/// `data.len() / arity`: a *nullary* relation (arity 0) stores no data
/// at all, yet is either the empty set or the set containing the empty
/// tuple — the two possible answers of a Boolean query. `{()}` and `{}`
/// compare unequal, and [`Relation::nullary`] builds either directly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Relation {
    arity: usize,
    data: Vec<Val>,
    /// Number of rows. For arity ≥ 1 this equals `data.len() / arity`;
    /// for arity 0 it is the only record of the empty tuple's presence.
    n_rows: usize,
}

impl Relation {
    /// Empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation { arity, data: Vec::new(), n_rows: 0 }
    }

    /// The nullary relation: `{()}` if `present`, else `{}` — the
    /// answer relation of a Boolean query.
    pub fn nullary(present: bool) -> Self {
        Relation { arity: 0, data: Vec::new(), n_rows: usize::from(present) }
    }

    /// Build from rows (each of length `arity`); sorts and dedups.
    ///
    /// # Panics
    /// If any row has the wrong length.
    pub fn from_rows(arity: usize, rows: impl IntoIterator<Item = Vec<Val>>) -> Self {
        let mut r = Relation::new(arity);
        for row in rows {
            r.push_row(&row);
        }
        r.normalize();
        r
    }

    /// Build a binary relation from pairs; sorts and dedups.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Val, Val)>) -> Self {
        let mut r = Relation::new(2);
        for (a, b) in pairs {
            r.data.push(a);
            r.data.push(b);
        }
        r.normalize();
        r
    }

    /// Build a unary relation from values; sorts and dedups.
    pub fn from_values(values: impl IntoIterator<Item = Val>) -> Self {
        let mut r = Relation::new(1);
        r.data.extend(values);
        r.normalize();
        r
    }

    /// Append a row without normalizing (call [`Relation::normalize`]
    /// before reading). Useful for bulk loads.
    pub fn push_row(&mut self, row: &[Val]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Insert one row in place, keeping the sorted + deduplicated
    /// invariant: binary search for the insertion point, splice the
    /// tail — O(m) worst case, no re-sort (single-row mutation path;
    /// bulk loads should use [`Relation::push_row`] + `normalize`).
    /// Returns `false` if the row was already present.
    ///
    /// # Panics
    /// If the row has the wrong length.
    pub fn insert_row(&mut self, row: &[Val]) -> bool {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        if self.arity == 0 {
            let was_absent = self.n_rows == 0;
            self.n_rows = 1;
            return was_absent;
        }
        match self.binary_search(row) {
            Ok(_) => false,
            Err(i) => {
                let at = i * self.arity;
                self.data.splice(at..at, row.iter().copied());
                self.n_rows += 1;
                true
            }
        }
    }

    /// Build from a flat row-major buffer that is already sorted and
    /// deduplicated, without re-sorting — the deserialization path for
    /// data that was serialized from a normalized relation. Returns
    /// `None` if the buffer violates the invariant (wrong length, or
    /// rows not strictly increasing), so callers can treat it as
    /// corruption instead of silently repairing. Arity must be ≥ 1
    /// (nullary relations carry no data; use [`Relation::nullary`]).
    pub fn from_raw_sorted(arity: usize, data: Vec<Val>) -> Option<Relation> {
        if arity == 0 || !data.len().is_multiple_of(arity) {
            return None;
        }
        let strictly_increasing = data
            .chunks_exact(arity)
            .zip(data.chunks_exact(arity).skip(1))
            .all(|(a, b)| a < b);
        if !strictly_increasing {
            return None;
        }
        let n_rows = data.len() / arity;
        Some(Relation { arity, data, n_rows })
    }

    /// Restore the sorted + deduplicated invariant after bulk loads: the
    /// one row sort of the crate.
    pub fn normalize(&mut self) {
        // rows of a small fixed width sort in place as arrays (a sorted
        // input — a projection onto a prefix of the columns, a bulk load
        // in key order — costs one scan); wider rows go through an index
        let arity = self.arity;
        match arity {
            0 => {
                // nullary relation: either empty or the single empty
                // tuple; data is always empty, presence is the row count
                self.n_rows = self.n_rows.min(1);
                return;
            }
            1 => self.data.sort_unstable(),
            2 => self.data.as_chunks_mut::<2>().0.sort_unstable(),
            3 => self.data.as_chunks_mut::<3>().0.sort_unstable(),
            _ => {
                let data = &self.data;
                let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
                let mut idx: Vec<u32> = (0..(data.len() / arity) as u32).collect();
                idx.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
                let mut out = Vec::with_capacity(data.len());
                for &i in &idx {
                    out.extend_from_slice(row(i));
                }
                self.data = out;
            }
        }
        // then dedup in place: equal rows are adjacent
        let mut kept = 0;
        for i in 0..self.data.len() / arity {
            let row = &self.data[i * arity..][..arity];
            if kept > 0 && row == &self.data[(kept - 1) * arity..][..arity] {
                continue;
            }
            self.data.copy_within(i * arity..(i + 1) * arity, kept * arity);
            kept += 1;
        }
        self.data.truncate(kept * arity);
        self.n_rows = kept;
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The `i`-th row (rows are in sorted order).
    #[inline]
    pub fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over rows in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &[Val]> + '_ {
        // arity ≥ 1: rows are the data chunks; arity 0: the data buffer
        // is empty and the explicit count supplies the empty tuples.
        let nullary_rows = if self.arity == 0 { self.n_rows } else { 0 };
        self.data
            .chunks_exact(self.arity.max(1))
            .chain(std::iter::repeat_n(&[] as &[Val], nullary_rows))
    }

    /// Raw flat buffer (row-major, sorted).
    pub fn raw(&self) -> &[Val] {
        &self.data
    }

    /// Membership test by binary search, O(arity · log m).
    pub fn contains(&self, row: &[Val]) -> bool {
        assert_eq!(row.len(), self.arity);
        self.binary_search(row).is_ok()
    }

    fn binary_search(&self, row: &[Val]) -> Result<usize, usize> {
        let n = self.len();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Row index range whose rows start with `prefix` (binary search).
    pub fn prefix_range(&self, prefix: &[Val]) -> std::ops::Range<usize> {
        assert!(prefix.len() <= self.arity);
        let n = self.len();
        // lower bound: first row ≥ prefix
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid)[..prefix.len()] < *prefix {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let start = lo;
        // upper bound: first row with prefix > `prefix`
        let mut hi2 = n;
        let mut lo2 = start;
        while lo2 < hi2 {
            let mid = lo2 + (hi2 - lo2) / 2;
            if self.row(mid)[..prefix.len()] <= *prefix {
                lo2 = mid + 1;
            } else {
                hi2 = mid;
            }
        }
        start..lo2
    }

    /// Project onto the given column indices (result sorted + deduped).
    pub fn project(&self, cols: &[usize]) -> Relation {
        for &c in cols {
            assert!(c < self.arity, "column {c} out of range");
        }
        let mut out = Relation::new(cols.len());
        out.data.reserve(self.len() * cols.len());
        for row in self.iter() {
            for &c in cols {
                out.data.push(row[c]);
            }
        }
        // one source row = one (pre-dedup) projected row, including the
        // nullary projection (`cols = []`), which holds data-less rows
        out.n_rows = self.n_rows;
        out.normalize();
        out
    }

    /// Keep only rows satisfying `pred`.
    pub fn filter(&self, mut pred: impl FnMut(&[Val]) -> bool) -> Relation {
        let mut out = Relation::new(self.arity);
        for row in self.iter() {
            if pred(row) {
                out.push_row(row);
            }
        }
        // rows remain sorted and distinct
        out
    }

    /// The set of values appearing in column `c`.
    pub fn column_values(&self, c: usize) -> Vec<Val> {
        assert!(c < self.arity);
        let mut vs: Vec<Val> = self.iter().map(|r| r[c]).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// The active domain: all values in any column, sorted + deduped.
    pub fn active_domain(&self) -> Vec<Val> {
        let mut vs = self.data.clone();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Reorder columns by `perm` (`perm[i]` = source column of new
    /// column `i`); result normalized.
    pub fn permute(&self, perm: &[usize]) -> Relation {
        assert_eq!(perm.len(), self.arity);
        self.project(perm)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "({} rows, arity {})", self.len(), self.arity)?;
        for row in self.iter().take(20) {
            writeln!(f, "  {row:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r3() -> Relation {
        Relation::from_rows(2, vec![vec![3, 1], vec![1, 2], vec![3, 1], vec![1, 1]])
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let r = r3();
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(0), &[1, 1]);
        assert_eq!(r.row(1), &[1, 2]);
        assert_eq!(r.row(2), &[3, 1]);
    }

    #[test]
    fn contains_binary_search() {
        let r = r3();
        assert!(r.contains(&[1, 2]));
        assert!(!r.contains(&[2, 2]));
        assert!(!r.contains(&[0, 0]));
        assert!(!r.contains(&[9, 9]));
    }

    #[test]
    fn prefix_range_groups() {
        let r = Relation::from_rows(
            2,
            vec![vec![1, 1], vec![1, 2], vec![2, 5], vec![4, 0], vec![4, 9]],
        );
        assert_eq!(r.prefix_range(&[1]), 0..2);
        assert_eq!(r.prefix_range(&[2]), 2..3);
        assert_eq!(r.prefix_range(&[3]), 3..3);
        assert_eq!(r.prefix_range(&[4]), 3..5);
        assert_eq!(r.prefix_range(&[]), 0..5);
        assert_eq!(r.prefix_range(&[4, 9]), 4..5);
    }

    #[test]
    fn project_dedups() {
        let r = Relation::from_rows(2, vec![vec![1, 7], vec![2, 7], vec![3, 8]]);
        let p = r.project(&[1]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&[7]) && p.contains(&[8]));
    }

    #[test]
    fn project_reorder() {
        let r = Relation::from_rows(2, vec![vec![1, 7]]);
        let p = r.permute(&[1, 0]);
        assert_eq!(p.row(0), &[7, 1]);
    }

    #[test]
    fn filter_preserves_order() {
        let r = Relation::from_rows(2, vec![vec![1, 1], vec![2, 2], vec![3, 3]]);
        let f = r.filter(|row| row[0] != 2);
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(0), &[1, 1]);
        assert_eq!(f.row(1), &[3, 3]);
    }

    #[test]
    fn column_values_and_adom() {
        let r = Relation::from_rows(2, vec![vec![1, 7], vec![2, 7], vec![2, 9]]);
        assert_eq!(r.column_values(0), vec![1, 2]);
        assert_eq!(r.column_values(1), vec![7, 9]);
        assert_eq!(r.active_domain(), vec![1, 2, 7, 9]);
    }

    #[test]
    fn from_pairs_and_values() {
        let r = Relation::from_pairs(vec![(2, 1), (1, 1), (2, 1)]);
        assert_eq!(r.len(), 2);
        let u = Relation::from_values(vec![5, 3, 5]);
        assert_eq!(u.len(), 2);
        assert!(u.contains(&[3]));
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new(3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.prefix_range(&[1]), 0..0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn push_then_normalize() {
        let mut r = Relation::new(1);
        r.push_row(&[9]);
        r.push_row(&[1]);
        r.push_row(&[9]);
        r.normalize();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[1]);
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut r = Relation::new(2);
        r.push_row(&[1]);
    }

    #[test]
    fn insert_row_keeps_invariant_without_resort() {
        let mut r = Relation::new(2);
        assert!(r.insert_row(&[3, 1]));
        assert!(r.insert_row(&[1, 2]));
        assert!(r.insert_row(&[2, 9]));
        assert!(!r.insert_row(&[1, 2]), "duplicates are rejected");
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(0), &[1, 2]);
        assert_eq!(r.row(1), &[2, 9]);
        assert_eq!(r.row(2), &[3, 1]);
        // equal to the bulk-built relation
        let bulk =
            Relation::from_rows(2, vec![vec![3, 1], vec![1, 2], vec![2, 9], vec![1, 2]]);
        assert_eq!(r, bulk);
        // nullary: inserting the empty tuple flips {} to {()} once
        let mut n = Relation::new(0);
        assert!(n.insert_row(&[]));
        assert!(!n.insert_row(&[]));
        assert_eq!(n, Relation::nullary(true));
    }

    #[test]
    fn from_raw_sorted_validates_the_invariant() {
        let good = Relation::from_raw_sorted(2, vec![1, 1, 1, 2, 3, 1]).unwrap();
        assert_eq!(good, r3());
        assert_eq!(Relation::from_raw_sorted(3, Vec::new()).unwrap(), Relation::new(3));
        // out of order, duplicated, ragged, or nullary: rejected
        assert!(Relation::from_raw_sorted(2, vec![1, 2, 1, 1]).is_none());
        assert!(Relation::from_raw_sorted(2, vec![1, 1, 1, 1]).is_none());
        assert!(Relation::from_raw_sorted(2, vec![1, 1, 2]).is_none());
        assert!(Relation::from_raw_sorted(0, Vec::new()).is_none());
    }

    #[test]
    fn nullary_relation_tracks_empty_tuple() {
        let t = Relation::nullary(true);
        assert_eq!(t.arity(), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.contains(&[]));
        assert_eq!(t.iter().count(), 1);
        let f = Relation::nullary(false);
        assert!(f.is_empty());
        assert!(!f.contains(&[]));
        assert_ne!(t, f);
        assert_eq!(f, Relation::new(0));
        // push_row + normalize keeps set semantics: {(), ()} = {()}
        let mut r = Relation::new(0);
        r.push_row(&[]);
        r.push_row(&[]);
        r.normalize();
        assert_eq!(r, t);
        // projecting onto no columns asks "is there any row at all?"
        assert_eq!(Relation::from_pairs(vec![(1, 2), (3, 4)]).project(&[]), t);
        assert_eq!(Relation::new(2).project(&[]), f);
        // filter sees the empty tuple
        assert_eq!(t.filter(|_| true), t);
        assert_eq!(t.filter(|_| false), f);
    }
}
