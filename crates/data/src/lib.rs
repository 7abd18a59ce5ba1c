//! # cq-data — relational substrate
//!
//! Flat, sorted, allocation-light relation storage for the conjunctive
//! query engine (`cq-engine`), together with seeded workload
//! generators. Values are interned to `u64` ([`Val`]); a
//! relation is a flat row-major buffer kept sorted and deduplicated, so
//! lookups, prefix ranges and projections run by binary search and
//! linear merges without per-tuple allocation (the hot-path guidance
//! of the Rust perf book).
//!
//! The database size measure `m` used throughout the paper — the total
//! number of tuples — is [`Database::size`].

pub mod catalog;
pub mod database;
pub mod generate;
pub mod hasher;
pub mod index;
pub mod relation;
pub mod stats;
pub mod value;

pub use catalog::{CatalogStats, IndexCatalog};
pub use database::{Database, VersionPin};
pub use hasher::{FxHashMap, FxHashSet};
pub use index::{LevelBitmaps, SortedView};
pub use relation::Relation;
pub use stats::{DataStats, RelationStats};
pub use value::{Interner, Val};
