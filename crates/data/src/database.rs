//! Databases: named relation instances, versioned per relation.
//!
//! A [`Database`] carries two kinds of identity stamp, both drawn from
//! one process-global counter so no two database states ever share a
//! value:
//!
//! * [`Database::generation`] — the stamp of the *whole content*. Every
//!   mutation moves it; clones keep it. Used where "did anything
//!   change?" is the question (`STATS`, the slow-query log, a cursor's
//!   pin, the plan a server session keeps per statement).
//! * [`Database::version_of`] — per relation, the generation value of
//!   *that relation's* last mutation. A write to `R` moves `R`'s version
//!   (and the generation) and nobody else's. A [`VersionPin`] records
//!   the versions of exactly the relations something was built from —
//!   an [`crate::IndexCatalog`] entry, a server cursor's stream — so
//!   everything a write did not touch stays warm.

use crate::hasher::FxHashMap;
use crate::relation::Relation;
use crate::value::Val;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global generation source: every fresh or mutated [`Database`]
/// gets a value no other database state in this process has ever had, so
/// a generation identifies one exact database *content* (see
/// [`Database::generation`]).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A stored relation and the generation value of its last mutation.
#[derive(Clone, Debug)]
struct Versioned {
    rel: Relation,
    version: u64,
}

/// A database: a mapping from relation names to instances.
///
/// The paper's size measure `m` (total number of tuples) is [`size`];
/// the active domain size `n` is [`active_domain`]`.len()`.
///
/// [`size`]: Database::size
/// [`active_domain`]: Database::active_domain
#[derive(Clone, Debug)]
pub struct Database {
    /// Keyed by shared names, which a [`VersionPin`] clones rather than
    /// copies.
    relations: FxHashMap<Arc<str>, Versioned>,
    /// Content identity stamp, process-unique per mutation (see
    /// [`Database::generation`]).
    generation: u64,
}

impl Default for Database {
    fn default() -> Self {
        Database { relations: FxHashMap::default(), generation: next_generation() }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a relation. Stamps the database and `name`.
    pub fn insert(&mut self, name: &str, rel: Relation) -> &mut Self {
        self.generation = next_generation();
        self.relations
            .insert(Arc::from(name), Versioned { rel, version: self.generation });
        self
    }

    /// Remove a relation, if present (a mutation of `name`: it is absent
    /// afterwards, which [`Database::version_of`] reports as 0).
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        let removed = self.relations.remove(name)?;
        self.generation = next_generation();
        Some(removed.rel)
    }

    /// The content-identity generation of this database.
    ///
    /// Every mutation stamps the database with a fresh process-unique
    /// value, so two databases with the same generation are clones with
    /// identical content: `clone()` keeps the stamp (same content),
    /// mutating either side re-stamps it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The version of relation `name`: the generation value its last
    /// mutation stamped, or 0 when the relation is absent (no generation
    /// is ever 0). Equal `(name, version)` pairs — across clones too —
    /// mean byte-identical relation content, which is what lets
    /// [`crate::IndexCatalog`] keep an index of `R` across a write to
    /// `S` without ever diffing data.
    pub fn version_of(&self, name: &str) -> u64 {
        self.relations.get(name).map_or(0, |v| v.version)
    }

    /// Get a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|v| &v.rel)
    }

    /// Mutable access to a relation, for in-place single-row mutation
    /// (e.g. [`Relation::insert_row`]). Handing out the handle
    /// re-stamps the database and the relation — the caller may mutate
    /// through it, so memoized indexes of the old state must never be
    /// served. Missing relations do not re-stamp.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        let v = self.relations.get_mut(name)?;
        self.generation = next_generation();
        v.version = self.generation;
        Some(&mut v.rel)
    }

    /// Get a relation, panicking with a clear message if missing.
    pub fn expect(&self, name: &str) -> &Relation {
        self.get(name)
            .unwrap_or_else(|| panic!("database has no relation named `{name}`"))
    }

    /// Number of relations.
    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations — the `m` of the paper.
    pub fn size(&self) -> usize {
        self.relations.values().map(|v| v.rel.len()).sum()
    }

    /// Iterate (name, relation) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(k, v)| (&**k, &v.rel))
    }

    /// Iterate (name, relation) pairs in ascending name order — the
    /// stable schema order serializers rely on: equal contents visit
    /// identically, so e.g. `cq-storage` snapshots are byte-
    /// deterministic per database content.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&str, &Relation)> {
        let mut pairs: Vec<(&str, &Relation)> = self.iter().collect();
        pairs.sort_unstable_by_key(|(name, _)| *name);
        pairs.into_iter()
    }

    /// All values appearing anywhere, sorted + deduped.
    pub fn active_domain(&self) -> Vec<Val> {
        let mut vs: Vec<Val> = Vec::new();
        for v in self.relations.values() {
            vs.extend_from_slice(v.rel.raw());
        }
        vs.sort_unstable();
        vs.dedup();
        vs
    }
}

/// The versions some relations of a database had when something was
/// built from them. While [`is_current`](VersionPin::is_current) holds,
/// each of those relations is byte-identical to what the build read.
#[derive(Debug)]
pub struct VersionPin(Box<[(Arc<str>, u64)]>);

impl VersionPin {
    /// The current versions of `db`'s relations `names` (0 for absent).
    /// A present relation's name is shared with `db`, so pinning it
    /// copies no text.
    pub fn of<'r>(db: &Database, names: impl IntoIterator<Item = &'r str>) -> VersionPin {
        let pin = |n: &str| match db.relations.get_key_value(n) {
            Some((name, v)) => (Arc::clone(name), v.version),
            None => (Arc::from(n), 0),
        };
        VersionPin(names.into_iter().map(pin).collect())
    }

    /// Is every pinned relation of `db` still at its pinned version?
    pub fn is_current(&self, db: &Database) -> bool {
        self.0.iter().all(|(name, version)| db.version_of(name) == *version)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "database: {} relations, {} tuples",
            self.n_relations(),
            self.size()
        )?;
        for (n, r) in self.iter_sorted() {
            writeln!(f, "  {n}: arity {}, {} rows", r.arity(), r.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sums_tuples() {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2), (2, 3)]));
        db.insert("S", Relation::from_values(vec![7]));
        assert_eq!(db.size(), 3);
        assert_eq!(db.n_relations(), 2);
    }

    #[test]
    fn insert_replaces() {
        let mut db = Database::new();
        db.insert("R", Relation::from_values(vec![1, 2, 3]));
        db.insert("R", Relation::from_values(vec![1]));
        assert_eq!(db.size(), 1);
    }

    #[test]
    fn active_domain_merged() {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 5)]));
        db.insert("S", Relation::from_values(vec![5, 9]));
        assert_eq!(db.active_domain(), vec![1, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "no relation named")]
    fn expect_missing_panics() {
        Database::new().expect("nope");
    }

    #[test]
    fn generation_tracks_content_identity() {
        let mut db = Database::new();
        let g0 = db.generation();
        db.insert("R", Relation::from_values(vec![1]));
        let g1 = db.generation();
        assert_ne!(g0, g1, "insert must re-stamp");
        // clones share the stamp (identical content)...
        let clone = db.clone();
        assert_eq!(clone.generation(), g1);
        // ...until either side mutates
        db.insert("S", Relation::from_values(vec![2]));
        assert_ne!(db.generation(), g1);
        assert_eq!(clone.generation(), g1);
        // distinct fresh databases never share a stamp
        assert_ne!(Database::new().generation(), Database::new().generation());
        // removal is a mutation too; removing nothing is not
        let mut db2 = clone.clone();
        let g = db2.generation();
        assert!(db2.remove("missing").is_none());
        assert_eq!(db2.generation(), g);
        assert!(db2.remove("R").is_some());
        assert_ne!(db2.generation(), g);
    }

    #[test]
    fn get_mut_restamps_generation() {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2)]));
        let g = db.generation();
        db.get_mut("R").unwrap().insert_row(&[5, 6]);
        assert_ne!(db.generation(), g, "mutable access must re-stamp");
        assert_eq!(db.get("R").unwrap().len(), 2);
        // missing relations neither panic nor re-stamp
        let g = db.generation();
        assert!(db.get_mut("missing").is_none());
        assert_eq!(db.generation(), g);
    }

    #[test]
    fn version_of_moves_only_the_touched_relation() {
        let mut db = Database::new();
        assert_eq!(db.version_of("R"), 0, "absent relations are version 0");
        db.insert("R", Relation::from_pairs(vec![(1, 2)]));
        db.insert("S", Relation::from_values(vec![7]));
        let (r, s) = (db.version_of("R"), db.version_of("S"));
        assert!(r != 0 && s != 0 && r != s);
        assert_eq!(s, db.generation(), "the last write's stamp is the generation");
        // each mutator stamps its own name and nobody else's
        db.get_mut("R").unwrap().insert_row(&[5, 6]);
        assert_ne!(db.version_of("R"), r);
        assert_eq!(db.version_of("S"), s);
        let r = db.version_of("R");
        db.insert("S", Relation::from_values(vec![8]));
        assert_eq!(db.version_of("R"), r);
        assert_ne!(db.version_of("S"), s);
        // a miss moves nothing
        let (g, s) = (db.generation(), db.version_of("S"));
        assert!(db.get_mut("missing").is_none());
        assert!(db.remove("missing").is_none());
        assert_eq!((db.generation(), db.version_of("R"), db.version_of("S")), (g, r, s));
        // removal: the name is absent again, the rest is untouched, and
        // a re-insert gets a version it never had
        assert!(db.remove("S").is_some());
        assert_eq!(db.version_of("S"), 0);
        assert_eq!(db.version_of("R"), r);
        db.insert("S", Relation::from_values(vec![8]));
        assert!(db.version_of("S") > s);
    }

    #[test]
    fn clones_share_versions_until_they_diverge() {
        let mut a = Database::new();
        a.insert("R", Relation::from_values(vec![1]));
        a.insert("S", Relation::from_values(vec![2]));
        let mut b = a.clone();
        assert_eq!(a.version_of("R"), b.version_of("R"));
        assert_eq!(a.version_of("S"), b.version_of("S"));
        a.get_mut("R").unwrap().insert_row(&[3]);
        b.insert("S", Relation::from_values(vec![4]));
        // each side moved its own relation; the untouched one is still
        // shared, and the two new versions are distinct
        assert_ne!(a.version_of("R"), b.version_of("R"));
        assert_ne!(a.version_of("S"), b.version_of("S"));
        assert_eq!(a.version_of("S"), a.clone().version_of("S"));
        assert_ne!(a.version_of("R"), b.version_of("S"));
    }

    #[test]
    fn iter_sorted_is_name_ordered() {
        let mut db = Database::new();
        for name in ["S", "R", "T", "Aa"] {
            db.insert(name, Relation::from_values(vec![1]));
        }
        let names: Vec<&str> = db.iter_sorted().map(|(n, _)| n).collect();
        assert_eq!(names, ["Aa", "R", "S", "T"]);
    }

    #[test]
    fn display_lists_relations() {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2)]));
        let s = db.to_string();
        assert!(s.contains("R: arity 2, 1 rows"));
    }
}
