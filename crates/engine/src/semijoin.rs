//! Semijoin primitives — the building blocks of the Yannakakis algorithm.

use cq_data::{FxHashSet, Relation, Val};

/// Keys of `rel` projected onto `cols`, as a hash set.
pub fn key_set(rel: &Relation, cols: &[usize]) -> FxHashSet<Box<[Val]>> {
    let mut set: FxHashSet<Box<[Val]>> = FxHashSet::default();
    let mut buf: Vec<Val> = Vec::with_capacity(cols.len());
    for row in rel.iter() {
        buf.clear();
        buf.extend(cols.iter().map(|&c| row[c]));
        set.insert(buf.as_slice().into());
    }
    set
}

/// `left ⋉ right`: rows of `left` whose `left_cols` projection occurs in
/// `right`'s `right_cols` projection. Empty column lists implement the
/// "cross filter": keep `left` iff `right` is non-empty.
pub fn semijoin(
    left: &Relation,
    left_cols: &[usize],
    right: &Relation,
    right_cols: &[usize],
) -> Relation {
    assert_eq!(left_cols.len(), right_cols.len(), "key length mismatch");
    if left_cols.is_empty() {
        return if right.is_empty() { Relation::new(left.arity()) } else { left.clone() };
    }
    let keys = key_set(right, right_cols);
    let mut buf: Vec<Val> = Vec::with_capacity(left_cols.len());
    left.filter(|row| {
        buf.clear();
        buf.extend(left_cols.iter().map(|&c| row[c]));
        keys.contains(buf.as_slice())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left() -> Relation {
        Relation::from_rows(2, vec![vec![1, 10], vec![2, 20], vec![3, 30]])
    }

    #[test]
    fn basic_semijoin() {
        let right = Relation::from_rows(2, vec![vec![99, 1], vec![98, 3]]);
        let out = semijoin(&left(), &[0], &right, &[1]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&[1, 10]) && out.contains(&[3, 30]));
    }

    #[test]
    fn multi_column_keys() {
        let right = Relation::from_rows(2, vec![vec![1, 10]]);
        let out = semijoin(&left(), &[0, 1], &right, &[0, 1]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_key_cross_filter() {
        let l = left();
        let nonempty = Relation::from_values(vec![7]);
        let empty = Relation::new(1);
        assert_eq!(semijoin(&l, &[], &nonempty, &[]).len(), 3);
        assert_eq!(semijoin(&l, &[], &empty, &[]).len(), 0);
    }

    #[test]
    fn semijoin_with_empty_right() {
        let right = Relation::new(1);
        assert!(semijoin(&left(), &[0], &right, &[0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn key_length_checked() {
        let _ = semijoin(&left(), &[0, 1], &left(), &[0]);
    }
}
