//! Workload generators for tests, examples and the benchmark.
//!
//! Each generator is deterministic given the seed, so every measurement
//! over them is reproducible. Generators produce the instance
//! families the paper's bounds are about: random sparse relations,
//! AGM-tight worst cases for Loomis–Whitney joins, skewed (heavy-hitter)
//! relations that exercise degree splits, and functional chains whose
//! join sizes stay linear.

use crate::database::Database;
use crate::relation::Relation;
use crate::value::Val;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for reproducible workloads.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Random relation with `rows` distinct rows of the given `arity`, values
/// uniform in `0..domain`. (Slightly fewer rows may result only if the
/// space is nearly exhausted; we retry until the target is met or the
/// space is provably too small.)
pub fn random_relation(
    arity: usize,
    rows: usize,
    domain: Val,
    rng: &mut StdRng,
) -> Relation {
    assert!(domain >= 1);
    let space = (domain as f64).powi(arity as i32);
    assert!(
        space >= rows as f64,
        "cannot generate {rows} distinct rows from a space of {space}"
    );
    let mut rel = Relation::new(arity);
    let mut row = vec![0 as Val; arity];
    // generate with some slack, normalize, top up if duplicates collapsed
    loop {
        let missing = rows.saturating_sub(rel.len());
        if missing == 0 {
            break;
        }
        for _ in 0..missing + missing / 8 + 8 {
            for r in row.iter_mut() {
                *r = rng.gen_range(0..domain);
            }
            rel.push_row(&row);
        }
        rel.normalize();
        if rel.len() > rows {
            // trim the excess deterministically (keep the first `rows`)
            let trimmed: Vec<Vec<Val>> =
                rel.iter().take(rows).map(|r| r.to_vec()).collect();
            rel = Relation::from_rows(arity, trimmed);
        }
    }
    rel
}

/// Random binary relation (graph-like edge list) with `rows` distinct
/// pairs over `0..domain`.
pub fn random_pairs(rows: usize, domain: Val, rng: &mut StdRng) -> Relation {
    random_relation(2, rows, domain, rng)
}

/// The full cross product `[domain]^arity` — the AGM-tight worst case for
/// Loomis–Whitney joins (every relation of `q^LW_k` gets `domain^{k−1}`
/// tuples and the join has `domain^k` answers).
pub fn full_relation(arity: usize, domain: Val) -> Relation {
    let n = domain as usize;
    let total = n.pow(arity as u32);
    let mut rel = Relation::new(arity);
    let mut row = vec![0 as Val; arity];
    for code in 0..total {
        let mut c = code;
        for i in (0..arity).rev() {
            row[i] = (c % n) as Val;
            c /= n;
        }
        rel.push_row(&row);
    }
    rel.normalize();
    rel
}

/// A "functional chain" database for the path query
/// `q(x0..xk) :- R1(x0,x1), ..., Rk(x_{k−1},xk)`: each `Ri` maps
/// `a ↦ π_i(a)` for a random permutation-ish function, so every join is
/// one-to-one and all intermediate results stay of size `rows`. The
/// result: acyclic query evaluation in truly linear shape.
pub fn path_database(k: usize, rows: usize, rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for i in 1..=k {
        let mut rel = Relation::new(2);
        for a in 0..rows as Val {
            // random function with small fan-in
            let b = rng.gen_range(0..rows as Val);
            rel.push_row(&[a, b]);
        }
        rel.normalize();
        db.insert(&format!("R{i}"), rel);
    }
    db
}

/// A star database for `q*_k` / `q̄*_k` / `q̂*_k`: one binary relation
/// (replicated under `k` names `R1..Rk` and once as `R`) with `rows`
/// edges `(x, z)` where `z` ranges over `centers` hub values — so hub
/// degrees are `rows / centers`, the knob for projection hardness.
pub fn star_database(
    k: usize,
    rows: usize,
    centers: usize,
    rng: &mut StdRng,
) -> Database {
    assert!(centers >= 1);
    let mut rel = Relation::new(2);
    let leaves = (rows as Val).max(1);
    for _ in 0..rows {
        let x = rng.gen_range(0..leaves);
        let z = rng.gen_range(0..centers as Val);
        rel.push_row(&[x, z]);
    }
    rel.normalize();
    let mut db = Database::new();
    for i in 1..=k {
        db.insert(&format!("R{i}"), rel.clone());
    }
    db.insert("R", rel);
    db
}

/// A skewed binary relation: `heavy` hub values of degree
/// `rows / (2·heavy)` each (half the tuples), the rest uniform — the
/// degree-split stress case of Theorem 3.2.
pub fn skewed_pairs(
    rows: usize,
    domain: Val,
    heavy: usize,
    rng: &mut StdRng,
) -> Relation {
    assert!(heavy >= 1);
    let mut rel = Relation::new(2);
    let half = rows / 2;
    let per_hub = (half / heavy).max(1);
    for h in 0..heavy {
        for _ in 0..per_hub {
            let x = rng.gen_range(0..domain);
            rel.push_row(&[x, h as Val]);
        }
    }
    for _ in 0..rows - per_hub * heavy {
        let x = rng.gen_range(0..domain);
        let y = rng.gen_range(0..domain);
        rel.push_row(&[x, y]);
    }
    rel.normalize();
    rel
}

/// Weight assignment for sum-order direct access experiments: value `v`
/// gets weight `w(v)`, drawn uniformly from `0..max_w`.
pub fn random_weights(domain: Val, max_w: u64, rng: &mut StdRng) -> Vec<i64> {
    (0..domain).map(|_| rng.gen_range(0..max_w) as i64).collect()
}

/// Database for the triangle query `q△` from an edge list: `R1 = R2 =
/// R3 = E` (as in Proposition 3.3's reduction with the identity cycle).
pub fn triangle_database(edges: &Relation) -> Database {
    assert_eq!(edges.arity(), 2);
    let mut db = Database::new();
    db.insert("R1", edges.clone());
    db.insert("R2", edges.clone());
    db.insert("R3", edges.clone());
    db
}

/// Database for the Loomis–Whitney query `q^LW_k` with all `k` relations
/// equal to `rel` (arity `k−1`).
pub fn lw_database(k: usize, rel: &Relation) -> Database {
    assert_eq!(rel.arity(), k - 1);
    let mut db = Database::new();
    for i in 1..=k {
        db.insert(&format!("R{i}"), rel.clone());
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_relation_exact_rows() {
        let mut rng = seeded_rng(1);
        let r = random_relation(2, 500, 100, &mut rng);
        assert_eq!(r.len(), 500);
        assert_eq!(r.arity(), 2);
        // distinctness is the Relation invariant; spot-check domain bounds
        for row in r.iter() {
            assert!(row.iter().all(|&v| v < 100));
        }
    }

    #[test]
    fn random_relation_deterministic() {
        let a = random_relation(2, 100, 50, &mut seeded_rng(7));
        let b = random_relation(2, 100, 50, &mut seeded_rng(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot generate")]
    fn random_relation_space_check() {
        let mut rng = seeded_rng(1);
        let _ = random_relation(1, 100, 10, &mut rng);
    }

    #[test]
    fn full_relation_size() {
        let r = full_relation(3, 4);
        assert_eq!(r.len(), 64);
        assert!(r.contains(&[3, 3, 3]));
        assert!(r.contains(&[0, 0, 0]));
    }

    #[test]
    fn path_database_shapes() {
        let db = path_database(3, 100, &mut seeded_rng(3));
        assert_eq!(db.n_relations(), 3);
        for i in 1..=3 {
            let r = db.expect(&format!("R{i}"));
            assert_eq!(r.arity(), 2);
            assert_eq!(r.len(), 100);
        }
    }

    #[test]
    fn star_database_has_all_names() {
        let db = star_database(3, 200, 5, &mut seeded_rng(4));
        for name in ["R", "R1", "R2", "R3"] {
            let r = db.expect(name);
            assert!(r.len() <= 200);
            // centers bounded
            for row in r.iter() {
                assert!(row[1] < 5);
            }
        }
    }

    #[test]
    fn skewed_pairs_have_heavy_hubs() {
        let r = skewed_pairs(1000, 1000, 2, &mut seeded_rng(5));
        // hubs 0 and 1 should have high degree in column 1
        let hub0 = r.iter().filter(|row| row[1] == 0).count();
        assert!(hub0 > 100, "hub degree was {hub0}");
    }

    #[test]
    fn weights_in_range() {
        let w = random_weights(100, 1000, &mut seeded_rng(6));
        assert_eq!(w.len(), 100);
        assert!(w.iter().all(|&x| (0..1000).contains(&x)));
    }

    #[test]
    fn triangle_database_replicates() {
        let e = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        let db = triangle_database(&e);
        assert_eq!(db.size(), 9);
    }

    #[test]
    fn lw_database_names() {
        let rel = full_relation(2, 3);
        let db = lw_database(3, &rel);
        assert_eq!(db.n_relations(), 3);
        assert_eq!(db.expect("R3").len(), 9);
    }
}
