//! Lightweight data statistics for cost-aware planning.
//!
//! The planner in `cq-planner` chooses between dichotomy-equivalent
//! physical alternatives (the generic-join variable order) and states a
//! plan's cost in `m` using the statistics collected here. Collecting a
//! relation's statistics is O(rows · arity) time and O(rows) extra
//! space; `cq_data::IndexCatalog::stats` memoizes them per relation, so
//! a write re-collects only the relation it wrote.

use crate::database::Database;
use crate::hasher::FxHashSet;
use crate::relation::Relation;
use crate::value::Val;

/// Per-relation statistics.
#[derive(Clone, PartialEq, Debug)]
pub struct RelationStats {
    /// Relation name.
    pub name: String,
    /// Number of tuples.
    pub rows: usize,
    /// Arity.
    pub arity: usize,
    /// Number of distinct values per column (an upper bound on the
    /// selectivity denominator of equi-joins through that column);
    /// empty for an empty relation, whose every column has 0.
    pub distinct_per_column: Vec<usize>,
}

impl RelationStats {
    /// Collect the statistics of `rel` (stored under `name`), one column
    /// at a time: the space it takes is O(rows), never O(arity) for an
    /// empty relation of any width.
    pub fn collect(name: &str, rel: &Relation) -> RelationStats {
        let arity = rel.arity();
        let distinct = |c: usize| {
            let column = rel.raw().iter().copied().skip(c).step_by(arity);
            column.collect::<FxHashSet<Val>>().len()
        };
        let columns = if rel.is_empty() { 0 } else { arity };
        RelationStats {
            name: name.to_string(),
            rows: rel.len(),
            arity,
            distinct_per_column: (0..columns).map(distinct).collect(),
        }
    }

    /// Estimated number of distinct values in column `c`, defaulting to
    /// `rows` for out-of-range columns.
    pub fn distinct(&self, c: usize) -> usize {
        self.distinct_per_column.get(c).copied().unwrap_or(self.rows)
    }
}

/// Statistics for one database, consumed by the planner.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DataStats {
    /// Per-relation statistics, in database iteration order.
    pub relations: Vec<RelationStats>,
    /// Total tuple count — the paper's database size measure `m`.
    pub total_tuples: usize,
}

impl DataStats {
    /// Collect statistics in one pass over `db`.
    pub fn collect(db: &Database) -> DataStats {
        let relations = db.iter().map(|(name, rel)| RelationStats::collect(name, rel));
        DataStats::from_relations(relations.collect())
    }

    /// The statistics of a database whose relations have these.
    pub fn from_relations(relations: Vec<RelationStats>) -> DataStats {
        let total_tuples = relations.iter().map(|r| r.rows).sum();
        DataStats { relations, total_tuples }
    }

    /// Statistics for relation `name`, if present.
    pub fn relation(&self, name: &str) -> Option<&RelationStats> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Row count of relation `name` (0 when absent — absent relations
    /// are empty as far as evaluation is concerned).
    pub fn rows(&self, name: &str) -> usize {
        self.relation(name).map_or(0, |r| r.rows)
    }

    /// The paper's `m`: total tuples across all relations.
    pub fn m(&self) -> usize {
        self.total_tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    #[test]
    fn collect_counts_rows_and_distincts() {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 10), (2, 10), (3, 11)]));
        db.insert("S", Relation::from_values(vec![10, 11, 12]));
        let stats = DataStats::collect(&db);
        assert_eq!(stats.m(), 6);
        let r = stats.relation("R").unwrap();
        assert_eq!(r.rows, 3);
        assert_eq!(r.arity, 2);
        assert_eq!(r.distinct_per_column, vec![3, 2]);
        assert_eq!(stats.rows("S"), 3);
        assert_eq!(stats.rows("missing"), 0);
    }

    #[test]
    fn empty_database() {
        let stats = DataStats::collect(&Database::new());
        assert_eq!(stats.m(), 0);
        assert!(stats.relations.is_empty());
    }

    #[test]
    fn distinct_accessor_defaults_out_of_range() {
        let mut db = Database::new();
        db.insert("R", Relation::from_values(vec![5, 6]));
        let stats = DataStats::collect(&db);
        let r = stats.relation("R").unwrap();
        assert_eq!(r.distinct(0), 2);
        assert_eq!(r.distinct(7), 2); // falls back to rows
    }

    #[test]
    fn an_empty_relation_of_any_width_has_no_per_column_counts() {
        let r = RelationStats::collect("R", &Relation::new(1 << 20));
        assert_eq!((r.rows, r.arity), (0, 1 << 20));
        assert!(r.distinct_per_column.is_empty());
        assert_eq!(r.distinct(7), 0);
    }
}
