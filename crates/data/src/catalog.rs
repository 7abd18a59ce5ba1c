//! The per-database index catalog: one memo of secondary indexes,
//! statistics and preprocessing artifacts, each validated against the
//! versions of exactly the relations it was built from.
//!
//! Every evaluation algorithm in `cq-engine` wants sorted/indexed
//! relations, but a [`SortedView`] — the key trie generic join
//! intersects — costs an O(n log n) sort of the projection onto its key;
//! on repeated query shapes that preprocessing dwarfs the actual join
//! work. The catalog memoizes:
//!
//! * [`SortedView`]s of a relation under a key-column permutation;
//! * arbitrary **artifacts** — opaque preprocessing products of a
//!   `kind`, used by the engine for query-level structures that are
//!   derived from the data but not addressable by a single
//!   `(relation, columns)` pair: join-tree links, projection
//!   elimination messages, the reduced trees enumeration and direct
//!   access share. Statistics are catalog entries too: each relation's
//!   [`RelationStats`] is the artifact `("stats", name)`, reading only
//!   that relation, and [`IndexCatalog::stats`] assembles them into the
//!   planner's [`DataStats`], so a write re-collects one relation, not all.
//!   So are scalar answers: a count, or a decision by generic join, is
//!   an artifact keyed by the query's text, reading the query's
//!   relations, so a warm `COUNT` is one lookup.
//!
//! # Keys
//!
//! The catalog writes every key itself: the entry's kind, `:`, and the
//! caller's key, any [`Display`] value (a `&str`, or `format_args!` of
//! the parts that name the product). It writes them into one buffer of
//! its own that every lookup reuses, so a hit allocates nothing; a miss
//! copies the key once, into the map. A view's kind is `view`, its key
//! the column permutation then the relation's name.
//!
//! # Consistency
//!
//! Each entry records, *in the entry*, the relations its build read and
//! the [`Database::version_of`] each had. A lookup serves the entry only
//! if every recorded version equals the database's current one (an
//! absent relation is version 0). Versions are process-unique per
//! mutation and shared by clones, so a hit can only ever serve a
//! product of byte-identical inputs — and a write to `R` leaves every
//! entry that never read `R` untouched. A stale entry is rebuilt on its
//! next lookup and *replaces* its predecessor (the key does not contain
//! the version), so memory stays bounded by the distinct shapes seen,
//! not by shapes × writes. [`IndexCatalog::sweep`] drops every stale
//! entry at once, for owners that want the memory back at write time.
//! There is no way to read a stale view out of a catalog.
//!
//! # Concurrency
//!
//! The catalog is **internally locked**: every accessor takes `&self`,
//! so one catalog can be shared across threads directly (or behind a
//! plain `Arc`). A hit holds the lock for writing the key, a map probe,
//! a version compare per relation read, and an `Arc` clone. A miss
//! builds *outside* the lock and re-locks to insert, so evaluations of
//! different shapes never serialize behind each other's builds and a
//! builder may consult the catalog itself; of two threads racing to
//! build one entry, the first insert wins and both share its `Arc`.
//!
//! # Eviction
//!
//! The memo is bounded by [`MEMO_CAP`] entries. An insert into a full
//! memo evicts the *least recently used* entry: an insert and every hit
//! stamp their entry as the most recent, so the views and links each
//! evaluation reads stay warm however many one-shot answers pass
//! through, and the entries an in-flight evaluation just built are the
//! last to go. Cap evictions are counted separately from invalidations
//! in [`CatalogStats`].

use crate::database::{Database, VersionPin};
use crate::hasher::FxHashMap;
use crate::index::SortedView;
use crate::stats::{DataStats, RelationStats};
use std::any::Any;
use std::convert::Infallible;
use std::fmt::{Display, Write};
use std::sync::{Arc, Mutex, MutexGuard};

/// The kind of a [`SortedView`] entry, the one kind
/// [`CatalogStats::views`] counts.
const VIEW: &str = "view";

/// One memoized product and what it was built from.
struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    /// The kind its key was written with.
    kind: &'static str,
    /// The relations the build read, each with the version it saw: the
    /// entry is current while they are.
    reads: VersionPin,
    /// Use stamp, set at insert and at every hit: the smallest is the
    /// least recently used entry.
    seq: u64,
}

/// Upper bound on memoized entries (views + artifacts)
/// per catalog. Entries can be O(m)-sized, so without a bound a stream
/// of distinct query shapes against one long-lived database
/// would grow memory linearly in the number of shapes seen. Reaching
/// the cap evicts the least recently used entries (counted in
/// [`CatalogStats::cap_evictions`]) — correctness never depends on the
/// memo's contents.
pub const MEMO_CAP: usize = 512;

/// Hit/miss/invalidation counters plus memo sizes (for diagnostics and
/// benchmarks). The counters accumulate
/// over the catalog's whole life, across database mutations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CatalogStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries dropped (by [`IndexCatalog::sweep`]) or replaced by a
    /// rebuild because a relation they were built from had mutated.
    pub invalidations: u64,
    /// Times the size cap forced eviction of the least recently used
    /// entry.
    pub cap_evictions: u64,
    /// Currently memoized sorted views.
    pub views: usize,
    /// Currently memoized artifacts (statistics included).
    pub artifacts: usize,
    /// Heap bytes of every memoized [`SortedView`]
    /// ([`SortedView::heap_bytes`]: trie levels and their bitmaps).
    pub view_bytes: usize,
}

/// The lock-protected memo state. All methods assume the caller holds
/// the catalog's mutex.
#[derive(Default)]
struct Memo {
    /// Every entry, under its kind, `:` and its caller's key.
    entries: FxHashMap<String, Entry>,
    /// The key of the lookup in progress, reused by every lookup.
    key: String,
    next_seq: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    cap_evictions: u64,
}

impl Memo {
    /// The entry of `kind` under `key`, if it is current for `db` and
    /// holds a `T`: a hit, stamped as the most recently used entry. A
    /// miss returns the key, copied out of the buffer it was written in.
    fn lookup<T: Any + Send + Sync>(
        &mut self,
        db: &Database,
        kind: &str,
        key: impl Display,
    ) -> Result<Arc<T>, String> {
        self.key.clear();
        write!(self.key, "{kind}:{key}").expect("a catalog key formats");
        let entry = self.entries.get_mut(self.key.as_str());
        if let Some(entry) = entry.filter(|e| e.reads.is_current(db)) {
            if let Ok(t) = Arc::clone(&entry.value).downcast::<T>() {
                (entry.seq, self.next_seq) = (self.next_seq, self.next_seq + 1);
                self.hits += 1;
                return Ok(t);
            }
        }
        self.misses += 1;
        Err(self.key.clone())
    }

    /// Store `value`, built from `db`'s relations `reads`, under `key`,
    /// unless a racing build stored a current `T` there first: that one
    /// is served instead. An entry there that is stale (or, after a key
    /// collision, of another type) is replaced, so a rebuilt product
    /// never sits beside its predecessor. A new key in a full memo
    /// evicts the least recently used entry, never the one just built.
    fn insert<'r, T: Any + Send + Sync>(
        &mut self,
        key: String,
        kind: &'static str,
        db: &Database,
        value: T,
        reads: impl IntoIterator<Item = &'r str>,
    ) -> Arc<T> {
        match self.entries.get(&key) {
            Some(old) if old.reads.is_current(db) => {
                if let Ok(first) = Arc::clone(&old.value).downcast::<T>() {
                    return first;
                }
            }
            Some(_) => self.invalidations += 1,
            None if self.entries.len() >= MEMO_CAP => {
                self.cap_evictions += 1;
                let lru = self.entries.values().map(|e| e.seq).min();
                self.entries.retain(|_, e| Some(e.seq) != lru);
            }
            None => {}
        }
        let (value, reads) = (Arc::new(value), VersionPin::of(db, reads));
        let entry =
            Entry { value: Arc::clone(&value) as _, kind, reads, seq: self.next_seq };
        self.entries.insert(key, entry);
        self.next_seq += 1;
        value
    }
}

/// Per-database memo of secondary indexes, statistics, and derived
/// preprocessing artifacts. Internally locked — share it by reference
/// (or `Arc`) across threads. See the module docs.
#[derive(Default)]
pub struct IndexCatalog {
    inner: Mutex<Memo>,
}

impl std::fmt::Debug for IndexCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexCatalog").field("stats", &self.snapshot()).finish()
    }
}

impl IndexCatalog {
    /// An empty catalog. It may be used with any database (and any
    /// number of them): entries validate themselves per lookup.
    pub fn new() -> Self {
        IndexCatalog::default()
    }

    /// Acquire the internal lock (poison-tolerant: the memo is a pure
    /// cache, so a panicked writer cannot leave it inconsistent — at
    /// worst an entry is missing and gets rebuilt).
    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The [`DataStats`] of `db`, assembled from each relation's
    /// memoized [`RelationStats`] (the artifact `("stats", name)`, which
    /// reads that relation only): after a write only the written
    /// relation is collected again. One lookup per relation.
    pub fn stats(&self, db: &Database) -> Arc<DataStats> {
        let relations = db.iter().map(|(name, rel)| {
            let collect = || Ok::<_, Infallible>(RelationStats::collect(name, rel));
            let stats = self.artifact(db, "stats", name, [name], collect);
            RelationStats::clone(&stats.unwrap_or_else(|never| match never {}))
        });
        Arc::new(DataStats::from_relations(relations.collect()))
    }

    /// The memoized [`SortedView`] of relation `name` keyed on
    /// `key_cols`, building on first use. `None` if the relation is
    /// missing (the caller reports its own error).
    pub fn sorted_view(
        &self,
        db: &Database,
        name: &str,
        key_cols: &[usize],
    ) -> Option<Arc<SortedView>> {
        let rel = db.get(name)?;
        let key = format_args!("{key_cols:?}{name}");
        let build = || Ok::<_, Infallible>(SortedView::new(rel, key_cols));
        let view = self.artifact(db, VIEW, key, [name], build);
        Some(view.unwrap_or_else(|never| match never {}))
    }

    /// The memoized artifact of `(kind, key)`, building with `build` on
    /// first use: the one lookup-or-build behind views, statistics and
    /// artifacts. `reads` names every relation of `db` the build
    /// consults (for a query-level artifact: the query's atoms); the
    /// artifact is served until one of *those* relations mutates, and a
    /// name left out would let a stale artifact be served. Build
    /// failures are returned and **not** memoized, so data-dependent
    /// errors surface identically on every call.
    ///
    /// `kind` should be a fixed string per stored type; if a key
    /// collision ever yields a stored value of the wrong type, the
    /// artifact is rebuilt and replaced rather than served. `key` is
    /// written only into the catalog's own buffer (see the module docs).
    /// `build` runs outside the catalog lock, so it may itself acquire
    /// catalog entries (re-entrancy is deadlock-free); of two racing
    /// builds, the first insert wins.
    pub fn artifact<'r, T, E, F>(
        &self,
        db: &Database,
        kind: &'static str,
        key: impl Display,
        reads: impl IntoIterator<Item = &'r str>,
        build: F,
    ) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> Result<T, E>,
    {
        // the lock is held for this statement only: not while building
        let key = match self.lock().lookup::<T>(db, kind, key) {
            Ok(t) => return Ok(t),
            Err(key) => key,
        };
        let value = build()?;
        // `db` is borrowed for the whole call, so the versions it
        // reports now are the ones the build saw
        Ok(self.lock().insert(key, kind, db, value, reads))
    }

    /// Drop every entry that is not current for `db` (counted in
    /// [`CatalogStats::invalidations`]). Never needed for correctness —
    /// a stale entry is not served and is replaced on its next lookup —
    /// but an owner that just mutated `db` gets the memory of the
    /// invalidated products back now instead of holding old and new
    /// side by side until each shape is asked for again.
    pub fn sweep(&self, db: &Database) {
        let mut m = self.lock();
        let before = m.entries.len();
        m.entries.retain(|_, entry| entry.reads.is_current(db));
        m.invalidations += (before - m.entries.len()) as u64;
    }

    /// Current counters and memo sizes.
    pub fn snapshot(&self) -> CatalogStats {
        let m = self.lock();
        let mut snap = CatalogStats {
            hits: m.hits,
            misses: m.misses,
            invalidations: m.invalidations,
            cap_evictions: m.cap_evictions,
            ..CatalogStats::default()
        };
        for entry in m.entries.values() {
            let view = entry.value.downcast_ref::<SortedView>();
            match view.filter(|_| entry.kind == VIEW) {
                Some(view) => {
                    snap.views += 1;
                    snap.view_bytes += view.heap_bytes();
                }
                None => snap.artifacts += 1,
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 10), (2, 20), (2, 10)]));
        db.insert("S", Relation::from_values(vec![7, 8]));
        db
    }

    #[test]
    fn views_are_shared_until_mutation() {
        let mut db = db();
        let cat = IndexCatalog::new();
        let a = cat.sorted_view(&db, "R", &[1]).unwrap();
        let b = cat.sorted_view(&db, "R", &[1]).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the same view");
        assert_eq!(cat.snapshot().hits, 1);
        assert_eq!(cat.snapshot().misses, 1);
        // different key = different view
        let c = cat.sorted_view(&db, "R", &[0, 1]).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // mutating R invalidates R's views: the rebuilt one replaces
        // its predecessor (the other is stale but not yet looked up)
        db.insert("R", Relation::from_pairs(vec![(9, 9)]));
        let d = cat.sorted_view(&db, "R", &[1]).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(d.level(0), &[9]);
        let snap = cat.snapshot();
        assert_eq!((snap.invalidations, snap.views), (1, 2));
        // the views' bytes: `c`'s two levels, the one word of 2's
        // children {10, 20}, and the root's {1, 2} as one word with its
        // rank; the rebuilt `d`'s one value
        let trie = 8 * (2 + 3) + 4 * 3 + (8 + 4 * 3) + (8 + 4 + 4 * 2);
        assert_eq!(snap.view_bytes, trie + 8);
    }

    #[test]
    fn a_write_invalidates_exactly_the_entries_that_read_it() {
        let mut db = db();
        let cat = IndexCatalog::new();
        let build = |db: &Database, reads: &[&str]| {
            let key = reads.join(",");
            let reads = reads.iter().copied();
            cat.artifact(db, "join", &key, reads, || Ok::<_, ()>(key.clone())).unwrap()
        };
        let (r, s) = (build(&db, &["R"]), build(&db, &["S"]));
        let rs = build(&db, &["R", "S"]);
        let view_s = cat.sorted_view(&db, "S", &[0]).unwrap();
        let view_r = cat.sorted_view(&db, "R", &[0]).unwrap();
        let before = cat.snapshot();

        // a write to a relation nothing read: every entry pointer-equal,
        // no lookup builds
        db.insert("Log", Relation::from_values(vec![1]));
        assert!(Arc::ptr_eq(&r, &build(&db, &["R"])));
        assert!(Arc::ptr_eq(&s, &build(&db, &["S"])));
        assert!(Arc::ptr_eq(&rs, &build(&db, &["R", "S"])));
        assert!(Arc::ptr_eq(&view_s, &cat.sorted_view(&db, "S", &[0]).unwrap()));
        assert!(Arc::ptr_eq(&view_r, &cat.sorted_view(&db, "R", &[0]).unwrap()));
        assert_eq!(cat.snapshot().misses, before.misses);
        assert_eq!(cat.snapshot().invalidations, 0);

        // a write to R: what read R rebuilds, what did not is kept
        db.get_mut("R").unwrap().insert_row(&[7, 7]);
        assert!(Arc::ptr_eq(&s, &build(&db, &["S"])));
        assert!(Arc::ptr_eq(&view_s, &cat.sorted_view(&db, "S", &[0]).unwrap()));
        assert_eq!(cat.snapshot().misses, before.misses);
        assert!(!Arc::ptr_eq(&r, &build(&db, &["R"])));
        assert!(!Arc::ptr_eq(&rs, &build(&db, &["R", "S"])));
        let rebuilt = cat.sorted_view(&db, "R", &[0]).unwrap();
        assert!(!Arc::ptr_eq(&view_r, &rebuilt));
        assert!(rebuilt.level(0).contains(&7));
        let after = cat.snapshot();
        assert_eq!(after.misses, before.misses + 3);
        assert_eq!(after.invalidations, 3, "one per replaced entry");
        // replaced, not accumulated
        assert_eq!((after.views, after.artifacts), (before.views, before.artifacts));
    }

    #[test]
    fn sweep_drops_stale_entries_eagerly_and_counts_them() {
        let mut db = db();
        let cat = IndexCatalog::new();
        let view_r = cat.sorted_view(&db, "R", &[0]).unwrap();
        let _ = cat.sorted_view(&db, "R", &[1]).unwrap();
        let view_s = cat.sorted_view(&db, "S", &[0]).unwrap();
        let _: Arc<u64> =
            cat.artifact(&db, "a", "rs", ["R", "S"], || Ok::<_, ()>(1)).unwrap();
        cat.sweep(&db);
        assert_eq!(cat.snapshot().invalidations, 0, "nothing is stale yet");
        db.remove("R");
        cat.sweep(&db);
        let snap = cat.snapshot();
        assert_eq!(snap.invalidations, 3, "both R views and the R,S artifact");
        assert_eq!((snap.views, snap.artifacts), (1, 0));
        assert!(Arc::ptr_eq(&view_s, &cat.sorted_view(&db, "S", &[0]).unwrap()));
        // re-inserting equal content is a new version: nothing comes back
        db.insert("R", Relation::from_pairs(vec![(1, 10), (2, 20), (2, 10)]));
        assert!(!Arc::ptr_eq(&view_r, &cat.sorted_view(&db, "R", &[0]).unwrap()));
        // sweeping is idempotent
        cat.sweep(&db);
        assert_eq!(cat.snapshot().invalidations, 3);
    }

    #[test]
    fn stats_recollect_only_the_written_relation() {
        let mut db = db();
        let cat = IndexCatalog::new();
        let s1 = cat.stats(&db);
        assert_eq!(cat.snapshot().misses, 2, "one lookup per relation");
        db.get_mut("S").unwrap().insert_row(&[9]);
        let s2 = cat.stats(&db);
        assert_eq!(*s2, DataStats::collect(&db));
        assert_eq!(s2.relation("R"), s1.relation("R"));
        assert_eq!(s2.rows("S"), 3);
        let snap = cat.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 3), "R served, S collected again");
        // a clone shares every version: reassembling collects nothing
        let mut other = db.clone();
        other.remove("S");
        let before = cat.snapshot();
        let s3 = cat.stats(&other);
        assert_eq!(*s3, DataStats::collect(&other));
        assert_eq!(cat.snapshot().hits, before.hits + 1);
        assert_eq!(cat.snapshot().misses, before.misses);
    }

    #[test]
    fn a_write_sweeps_only_the_written_relations_stats() {
        let mut db = db();
        let cat = IndexCatalog::new();
        let _ = cat.stats(&db);
        db.get_mut("S").unwrap().insert_row(&[9]);
        cat.sweep(&db);
        let swept = cat.snapshot();
        assert_eq!((swept.invalidations, swept.artifacts), (1, 1), "S's entry only");
        assert_eq!(*cat.stats(&db), DataStats::collect(&db));
        let after = cat.snapshot();
        assert_eq!(after.hits, swept.hits + 1, "R's statistics are served");
        assert_eq!(after.misses, swept.misses + 1, "S's alone are collected");
    }

    #[test]
    fn stats_memoize_and_a_missing_relation_has_no_view() {
        let db = db();
        let cat = IndexCatalog::new();
        let s1 = cat.stats(&db);
        let s2 = cat.stats(&db);
        assert_eq!(s1, s2);
        assert_eq!(cat.snapshot().artifacts, 2, "one entry per relation");
        assert_eq!(s1.m(), 5);
        assert!(cat.sorted_view(&db, "missing", &[0]).is_none());
    }

    #[test]
    fn artifacts_memoize_and_do_not_cache_errors() {
        let db = db();
        let cat = IndexCatalog::new();
        let mut builds = 0;
        for _ in 0..3 {
            let v: Arc<Vec<u64>> = cat
                .artifact(&db, "test", "k", ["R"], || {
                    builds += 1;
                    Ok::<_, ()>(vec![1, 2, 3])
                })
                .unwrap();
            assert_eq!(*v, vec![1, 2, 3]);
        }
        assert_eq!(builds, 1, "artifact must build once");
        // errors are propagated and not memoized
        for want in 1..=2 {
            let r: Result<Arc<u64>, String> =
                cat.artifact(&db, "test", "err", ["R"], || Err(format!("boom {want}")));
            assert_eq!(r.unwrap_err(), format!("boom {want}"));
        }
    }

    #[test]
    fn memo_is_bounded() {
        let db = db();
        let cat = IndexCatalog::new();
        for i in 0..(2 * MEMO_CAP) {
            let _: Arc<u64> = cat
                .artifact(&db, "spam", format!("k{i}"), [], || Ok::<_, ()>(i as u64))
                .unwrap();
            assert!(cat.snapshot().artifacts < MEMO_CAP + 1, "memo must stay bounded");
        }
        let snap = cat.snapshot();
        assert!(snap.cap_evictions >= 1, "cap must have tripped");
        assert_eq!(snap.invalidations, 0, "cap trips are not invalidations");
        // the catalog still works after tripping the cap
        assert!(cat.sorted_view(&db, "R", &[0]).is_some());
    }

    #[test]
    fn cap_evicts_oldest_entries_only() {
        let db = db();
        let cat = IndexCatalog::new();
        // oldest entry: a view; then fill the rest of the memo with
        // artifacts up to exactly the cap
        let early = cat.sorted_view(&db, "R", &[0]).unwrap();
        for i in 0..(MEMO_CAP - 1) {
            let _: Arc<u64> = cat
                .artifact(&db, "fill", format!("k{i}"), [], || Ok::<_, ()>(0))
                .unwrap();
        }
        assert_eq!(cat.snapshot().cap_evictions, 0);
        // one more entry trips the cap: exactly the oldest entry (the
        // view) is evicted, everything recent survives
        let _: Arc<u64> =
            cat.artifact(&db, "fill", "trip", [], || Ok::<_, ()>(1)).unwrap();
        let snap = cat.snapshot();
        assert_eq!(snap.cap_evictions, 1);
        assert_eq!(snap.views, 0, "the oldest entry must be the one evicted");
        assert_eq!(snap.artifacts, MEMO_CAP - 1 + 1);
        // the most recent artifacts are still warm
        let before = cat.snapshot().misses;
        let _: Arc<u64> =
            cat.artifact(&db, "fill", "trip", [], || Ok::<_, ()>(2)).unwrap();
        let _: Arc<u64> = cat
            .artifact(&db, "fill", format!("k{}", MEMO_CAP - 2), [], || Ok::<_, ()>(3))
            .unwrap();
        assert_eq!(cat.snapshot().misses, before, "recent entries must stay memoized");
        // the evicted view rebuilds on demand (and is not the old Arc)
        let again = cat.sorted_view(&db, "R", &[0]).unwrap();
        assert!(!Arc::ptr_eq(&early, &again));
    }

    #[test]
    fn clone_keeps_catalog_valid_mutated_original_does_not() {
        let mut orig = db();
        let cat = IndexCatalog::new();
        let a = cat.sorted_view(&orig, "R", &[0]).unwrap();
        let clone = orig.clone();
        orig.insert("R", Relation::from_pairs(vec![(5, 5)]));
        // the clone still has the content the view was built from
        let b = cat.sorted_view(&clone, "R", &[0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clone shares the version stamps");
        // the mutated original must rebuild
        let c = cat.sorted_view(&orig, "R", &[0]).unwrap();
        assert_eq!(c.level(0), &[5]);
        // ... and the clone, whose R the rebuilt view is not of, again
        let d = cat.sorted_view(&clone, "R", &[0]).unwrap();
        assert_eq!(d.level(0), &[1, 2]);
    }

    #[test]
    fn debug_format_does_not_deadlock() {
        // regression: Debug used to hold the guard from one field while
        // `snapshot()` re-locked for the next — a self-deadlock
        let db = db();
        let cat = IndexCatalog::new();
        let _ = cat.sorted_view(&db, "R", &[0]);
        let text = format!("{cat:?}");
        assert!(text.contains("IndexCatalog"));
        assert!(text.contains("misses: 1"));
    }

    #[test]
    fn concurrent_lookups_share_entries() {
        let db = db();
        let cat = IndexCatalog::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(s.spawn(|| {
                    let v = cat.sorted_view(&db, "R", &[1]).unwrap();
                    let ix = cat.sorted_view(&db, "R", &[0]).unwrap();
                    let st = cat.stats(&db);
                    let a: Arc<u64> =
                        cat.artifact(&db, "conc", "k", ["R"], || Ok::<_, ()>(7)).unwrap();
                    (v, ix, st, a)
                }));
            }
            let results: Vec<_> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            // all threads end up with the same shared entries (and equal
            // statistics, assembled per call)
            for w in results.windows(2) {
                assert!(Arc::ptr_eq(&w[0].0, &w[1].0));
                assert!(Arc::ptr_eq(&w[0].1, &w[1].1));
                assert_eq!(w[0].2, w[1].2);
                assert!(Arc::ptr_eq(&w[0].3, &w[1].3));
            }
        });
        // post-race, the memo holds exactly one entry per key: the
        // artifact and one set of statistics per relation
        let snap = cat.snapshot();
        assert_eq!(snap.views, 2);
        assert_eq!(snap.artifacts, 1 + 2);
        assert_eq!(snap.hits + snap.misses, 8 * (2 + 2 + 1));
    }
}
