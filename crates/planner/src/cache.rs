//! The plan cache: canonical query shape → [`Structure`].
//!
//! A query's structure (acyclicity, free-connexity, star size, witness
//! search, AGM exponent) is pure in its *shape*, so the cache is keyed
//! by [`cq_core::canonical::CanonicalShape`] and stores the
//! [`Structure`] in canonical variable space. A hit moves it into the
//! requesting query's variable space through the relabeling that
//! `canonical_shape` returns — two differently-named but isomorphic
//! queries share one entry, and repeated queries skip the structure
//! pass (the witness search above all) entirely.
//!
//! Only *exact* canonical shapes are cached: when the canonicalization
//! search exceeds its budget (pathologically symmetric queries beyond
//! 8 fully-interchangeable variables), the shape's encoding is not a
//! true isomorphism invariant, and caching it could serve a wrong plan.
//! Such queries simply recompute their structure per call — correctness
//! is never traded for cache hits.

use cq_core::canonical::{canonical_shape, CanonicalShape};
use cq_core::classify::Structure;
use cq_core::ConjunctiveQuery;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache statistics, exposed for benchmarks and diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the structure.
    pub misses: u64,
    /// Queries whose shape was inexact and therefore uncacheable.
    pub uncacheable: u64,
}

/// What one lookup found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// The shape was cached.
    Hit,
    /// The shape was exact but new: computed, and cached from now on.
    Miss,
    /// The shape was inexact: computed, and never cached.
    Uncacheable,
}

/// The lookup counters behind [`CacheStats`]: relaxed atomics behind an
/// `Arc`, so a caller that kept a plan can count its reuse as the
/// lookup it replaced without taking the lock the cache sits behind
/// (`eval::cache_counters`).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    uncacheable: AtomicU64,
}

impl CacheCounters {
    /// Count one lookup that found `lookup`.
    pub fn count(&self, lookup: Lookup) {
        let counter = match lookup {
            Lookup::Hit => &self.hits,
            Lookup::Miss => &self.misses,
            Lookup::Uncacheable => &self.uncacheable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counts so far.
    pub fn stats(&self) -> CacheStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: get(&self.hits),
            misses: get(&self.misses),
            uncacheable: get(&self.uncacheable),
        }
    }
}

/// Shape-keyed cache of query structures.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<CanonicalShape, Structure>,
    counters: Arc<CacheCounters>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.counters.stats()
    }

    /// The counters themselves, to count reuses with.
    pub fn counters(&self) -> &Arc<CacheCounters> {
        &self.counters
    }

    /// Fetch-or-compute the structure of `q`, in `q`'s variable space.
    /// Returns it and what the lookup found.
    pub fn structure_for(&mut self, q: &ConjunctiveQuery) -> (Structure, Lookup) {
        let (shape, relab) = canonical_shape(q);
        let (structure, lookup) = if !shape.is_exact() {
            (Structure::of(q), Lookup::Uncacheable)
        } else if let Some(canonical) = self.map.get(&shape) {
            (canonical.relabeled(&relab.inverse()), Lookup::Hit)
        } else {
            let structure = Structure::of(q);
            self.map.insert(shape, structure.relabeled(&relab));
            (structure, Lookup::Miss)
        };
        self.counters.count(lookup);
        (structure, lookup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::query::{zoo, QueryBuilder};

    #[test]
    fn second_lookup_hits() {
        let mut cache = PlanCache::new();
        let q = zoo::triangle_boolean();
        let (cold, first) = cache.structure_for(&q);
        assert_eq!(first, Lookup::Miss);
        let (warm, second) = cache.structure_for(&q);
        assert_eq!(second, Lookup::Hit);
        assert_eq!(cold, warm, "cache hit must reproduce identical facts");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn isomorphic_queries_share_an_entry() {
        let mut cache = PlanCache::new();
        cache.structure_for(&zoo::triangle_boolean());
        // same shape, different variable names and relation symbols
        let mut b = QueryBuilder::new("other");
        let u = b.var("u");
        let v = b.var("v");
        let w = b.var("w");
        b.atom("A", &[u, v]).atom("B", &[v, w]).atom("C", &[w, u]).free(&[]);
        let q2 = b.build().unwrap();
        let (facts, lookup) = cache.structure_for(&q2);
        assert_eq!(
            lookup,
            Lookup::Hit,
            "isomorphic query must hit the shared shape entry"
        );
        assert_eq!(facts, Structure::of(&q2), "translated facts must be exact");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn witness_mask_translates_to_the_querys_space() {
        let mut cache = PlanCache::new();
        // seed with the canonical triangle
        cache.structure_for(&zoo::triangle_boolean());
        // a triangle whose cycle sits on differently-indexed variables
        let mut b = QueryBuilder::new("q");
        let pad = b.var("zz"); // interned first: shifts all indices
        let x = b.var("x");
        let y = b.var("y");
        b.atom("P", &[pad, pad]);
        b.atom("R1", &[x, y]).atom("R2", &[y, pad]).atom("R3", &[pad, x]);
        b.free(&[]);
        let q = b.build().unwrap();
        let (facts, lookup) = cache.structure_for(&q);
        assert_eq!(lookup, Lookup::Miss, "extra unary atom makes this a different shape");
        assert_eq!(facts, Structure::of(&q));
        // a second lookup hits and must translate the witness mask back
        // into this query's variable space exactly
        let (warm, lookup) = cache.structure_for(&q);
        assert_eq!(lookup, Lookup::Hit);
        assert_eq!(warm, Structure::of(&q));
        assert!(warm.witness.is_some());
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let mut cache = PlanCache::new();
        cache.structure_for(&zoo::triangle_boolean());
        let (_, lookup) = cache.structure_for(&zoo::triangle_join());
        assert_eq!(lookup, Lookup::Miss, "free mask differs, so shape differs");
        let (_, lookup) = cache.structure_for(&zoo::star_selfjoin(2));
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(cache.len(), 3);
    }
}
