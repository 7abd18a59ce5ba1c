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

/// Shape-keyed cache of query structures.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<CanonicalShape, Structure>,
    stats: CacheStats,
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
        self.stats
    }

    /// Fetch-or-compute the structure of `q`, in `q`'s variable space.
    /// Returns it and whether it came from the cache.
    pub fn structure_for(&mut self, q: &ConjunctiveQuery) -> (Structure, bool) {
        let (shape, relab) = canonical_shape(q);
        if !shape.is_exact() {
            self.stats.uncacheable += 1;
            return (Structure::of(q), false);
        }
        if let Some(canonical) = self.map.get(&shape) {
            self.stats.hits += 1;
            return (canonical.relabeled(&relab.inverse()), true);
        }
        self.stats.misses += 1;
        let structure = Structure::of(q);
        self.map.insert(shape, structure.relabeled(&relab));
        (structure, false)
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
        let (cold, hit0) = cache.structure_for(&q);
        assert!(!hit0);
        let (warm, hit1) = cache.structure_for(&q);
        assert!(hit1);
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
        let (facts, hit) = cache.structure_for(&q2);
        assert!(hit, "isomorphic query must hit the shared shape entry");
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
        let (facts, hit) = cache.structure_for(&q);
        assert!(!hit, "extra unary atom makes this a different shape");
        assert_eq!(facts, Structure::of(&q));
        // a second lookup hits and must translate the witness mask back
        // into this query's variable space exactly
        let (warm, hit) = cache.structure_for(&q);
        assert!(hit);
        assert_eq!(warm, Structure::of(&q));
        assert!(warm.witness.is_some());
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let mut cache = PlanCache::new();
        cache.structure_for(&zoo::triangle_boolean());
        let (_, hit) = cache.structure_for(&zoo::triangle_join());
        assert!(!hit, "free mask differs, so shape differs");
        let (_, hit) = cache.structure_for(&zoo::star_selfjoin(2));
        assert!(!hit);
        assert_eq!(cache.len(), 3);
    }
}
