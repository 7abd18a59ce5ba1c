//! The triangle query algorithm of Theorem 3.2 (Alon–Yuster–Zwick on
//! relations).
//!
//! `q△() :- R1(x,y), R2(y,z), R3(z,x)` on a database of size m:
//! elements of degree ≤ Δ are *light*; answers with a light value at
//! some variable are found by expanding the light element's tuples
//! (cost O(m·Δ)); all-heavy answers are found by one Boolean matrix
//! multiplication over the ≤ m/Δ heavy elements (cost O((m/Δ)^ω)).
//! With Δ = m^{(ω−1)/(ω+1)} the total is Õ(m^{2ω/(ω+1)}) — the algorithm
//! the Triangle Hypothesis says is close to optimal.

use crate::bind::EvalError;
use crate::ctx::ExecCtx;
use cq_data::{Database, FxHashMap, Relation, Val};
use cq_matrix::dense::multiply_rowwise;
use cq_matrix::BitMatrix;

/// Look up and validate the three binary triangle relations.
fn triangle_relations(
    db: &Database,
) -> Result<(&Relation, &Relation, &Relation), EvalError> {
    let r1 = db.get("R1").ok_or_else(|| EvalError::MissingRelation("R1".into()))?;
    let r2 = db.get("R2").ok_or_else(|| EvalError::MissingRelation("R2".into()))?;
    let r3 = db.get("R3").ok_or_else(|| EvalError::MissingRelation("R3".into()))?;
    for (name, r) in [("R1", r1), ("R2", r2), ("R3", r3)] {
        if r.arity() != 2 {
            return Err(EvalError::ArityMismatch {
                relation: name.to_string(),
                expected: 2,
                found: r.arity(),
            });
        }
    }
    Ok((r1, r2, r3))
}

/// Degree of each domain element: number of tuples containing it
/// (delta-independent, so a catalog can memoize it per database state).
fn degree_map(r1: &Relation, r2: &Relation, r3: &Relation) -> FxHashMap<Val, usize> {
    let mut degree: FxHashMap<Val, usize> = FxHashMap::default();
    for r in [r1, r2, r3] {
        for row in r.iter() {
            *degree.entry(row[0]).or_insert(0) += 1;
            if row[1] != row[0] {
                *degree.entry(row[1]).or_insert(0) += 1;
            }
        }
    }
    degree
}

/// Decide `q△` with the degree-split algorithm. `delta` is the
/// light/heavy threshold (use `cq_matrix::omega::ayz_delta`). The degree
/// map and the three sorted views — the ones generic join intersects —
/// come from the catalog: repeated triangle decisions on an unchanged
/// database pay the light/heavy scans only. The token is consulted
/// between the phases.
pub fn decide_triangle_ayz(
    ctx: &ExecCtx,
    db: &Database,
    delta: usize,
) -> Result<bool, EvalError> {
    let (catalog, cancel) = (ctx.catalog(), ctx.cancel());
    let (r1, r2, r3) = triangle_relations(db)?;
    let degree = catalog.artifact(db, "ayz_degree", "", ["R1", "R2", "R3"], || {
        Ok::<_, EvalError>(degree_map(r1, r2, r3))
    })?;
    let delta = delta.max(1);
    let light = |v: Val| degree.get(&v).copied().unwrap_or(0) <= delta;

    // --- light phases: for (a,b) ∈ `from` with b light, expand b's
    // tuples (b,c) in `via` (its trie: b's node on level 0, its children
    // on level 1) and check `close`(c,a). Light y: R1(x,y) → R2(y,z) →
    // R3(z,x); light z: R2 → R3 → R1; light x: R3 → R1 → R2 ---
    let by_first = |name| catalog.sorted_view(db, name, &[0, 1]).expect("validated");
    let phases =
        [(r1, by_first("R2"), r3), (r2, by_first("R3"), r1), (r3, by_first("R1"), r2)];
    for (from, via, close) in &phases {
        cancel.check_now()?;
        for row in from.iter() {
            let (a, b) = (row[0], row[1]);
            if !light(b) {
                continue;
            }
            let Ok(node) = via.level(0).binary_search(&b) else { continue };
            let kids = via.level_offsets(0);
            for &c in &via.level(1)[kids[node] as usize..kids[node + 1] as usize] {
                if close.contains(&[c, a]) {
                    return Ok(true);
                }
            }
        }
    }

    // --- heavy phase: all three values heavy ---
    cancel.check_now()?;
    let mut heavy: Vec<Val> =
        degree.iter().filter(|&(_, &d)| d > delta).map(|(&v, _)| v).collect();
    heavy.sort_unstable();
    if heavy.is_empty() {
        return Ok(false);
    }
    let idx_of = |v: Val| -> Option<usize> { heavy.binary_search(&v).ok() };
    let h = heavy.len();
    let mut a = BitMatrix::zero(h, h); // R1 on heavy×heavy
    for row in r1.iter() {
        if let (Some(i), Some(j)) = (idx_of(row[0]), idx_of(row[1])) {
            a.set(i, j, true);
        }
    }
    let mut b = BitMatrix::zero(h, h); // R2 on heavy×heavy
    for row in r2.iter() {
        if let (Some(i), Some(j)) = (idx_of(row[0]), idx_of(row[1])) {
            b.set(i, j, true);
        }
    }
    let c = multiply_rowwise(&a, &b); // c[x][z]: ∃ heavy y with R1(x,y), R2(y,z)
    for row in r3.iter() {
        if let (Some(zi), Some(xi)) = (idx_of(row[0]), idx_of(row[1])) {
            if c.get(xi, zi) {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// The generic-join baseline for `q△` (the m^{3/2} algorithm the paper
/// contrasts Theorem 3.2 against).
pub fn decide_triangle_generic(ctx: &ExecCtx, db: &Database) -> Result<bool, EvalError> {
    let q = cq_core::query::zoo::triangle_boolean();
    crate::generic_join::decide(ctx, &q, db, &crate::generic_join::default_order(&q))
}

/// Build a `q△` database directly from three relations.
pub fn triangle_db(r1: Relation, r2: Relation, r3: Relation) -> Database {
    let mut db = Database::new();
    db.insert("R1", r1);
    db.insert("R2", r2);
    db.insert("R3", r3);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::{random_pairs, seeded_rng, skewed_pairs, triangle_database};

    #[test]
    fn simple_triangle_found() {
        let db = triangle_db(
            Relation::from_pairs(vec![(1, 2)]),
            Relation::from_pairs(vec![(2, 3)]),
            Relation::from_pairs(vec![(3, 1)]),
        );
        for delta in [1usize, 2, 100] {
            assert!(
                decide_triangle_ayz(&ExecCtx::cold(), &db, delta).unwrap(),
                "delta={delta}"
            );
        }
    }

    #[test]
    fn no_triangle() {
        let db = triangle_db(
            Relation::from_pairs(vec![(1, 2)]),
            Relation::from_pairs(vec![(2, 3)]),
            Relation::from_pairs(vec![(1, 3)]), // wrong direction
        );
        for delta in [1usize, 2, 100] {
            assert!(
                !decide_triangle_ayz(&ExecCtx::cold(), &db, delta).unwrap(),
                "delta={delta}"
            );
        }
    }

    #[test]
    fn matches_generic_on_random() {
        let mut rng = seeded_rng(1);
        for trial in 0..20 {
            let db = triangle_database(&random_pairs(40 + trial, 12, &mut rng));
            let want = decide_triangle_generic(&ExecCtx::cold(), &db).unwrap();
            for delta in [1usize, 3, 7, 1000] {
                assert_eq!(
                    decide_triangle_ayz(&ExecCtx::cold(), &db, delta).unwrap(),
                    want,
                    "trial={trial} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn matches_generic_on_skew() {
        // heavy hubs exercise the matrix phase
        let mut rng = seeded_rng(2);
        for trial in 0..10 {
            let r1 = skewed_pairs(150, 40, 2, &mut rng);
            let r2 = skewed_pairs(150, 40, 2, &mut rng);
            let r3 = skewed_pairs(150, 40, 2, &mut rng);
            let db = triangle_db(r1, r2, r3);
            let want = decide_triangle_generic(&ExecCtx::cold(), &db).unwrap();
            for delta in [1usize, 5, 20] {
                assert_eq!(
                    decide_triangle_ayz(&ExecCtx::cold(), &db, delta).unwrap(),
                    want,
                    "trial={trial} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn other_thresholds_reuse_the_degree_map_and_views() {
        let mut rng = seeded_rng(5);
        let cat = cq_data::IndexCatalog::new();
        let ctx = ExecCtx::warm(&cat);
        let db = triangle_database(&random_pairs(50, 12, &mut rng));
        let want = decide_triangle_ayz(&ctx, &db, 1).unwrap();
        let before = cat.snapshot();
        for delta in [2usize, 3, 1000] {
            assert_eq!(decide_triangle_ayz(&ctx, &db, delta).unwrap(), want);
        }
        assert_eq!(cat.snapshot().misses, before.misses);
    }

    #[test]
    fn distinct_relations_not_graph() {
        // R1, R2, R3 genuinely different: answer exists only through the
        // right relation roles.
        let db = triangle_db(
            Relation::from_pairs(vec![(10, 20), (1, 1)]),
            Relation::from_pairs(vec![(20, 30)]),
            Relation::from_pairs(vec![(30, 10), (2, 2)]),
        );
        assert!(decide_triangle_ayz(&ExecCtx::cold(), &db, 1).unwrap());
        assert!(decide_triangle_ayz(&ExecCtx::cold(), &db, 100).unwrap());
    }

    #[test]
    fn missing_relation_error() {
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(1, 2)]));
        assert!(matches!(
            decide_triangle_ayz(&ExecCtx::cold(), &db, 2),
            Err(EvalError::MissingRelation(_))
        ));
    }

    #[test]
    fn self_loop_triangle() {
        // x=y=z=5: R1(5,5), R2(5,5), R3(5,5)
        let r = Relation::from_pairs(vec![(5, 5)]);
        let db = triangle_db(r.clone(), r.clone(), r);
        assert!(decide_triangle_ayz(&ExecCtx::cold(), &db, 3).unwrap());
    }
}
