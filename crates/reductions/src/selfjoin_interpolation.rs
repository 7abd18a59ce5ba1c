//! The interpolation argument for counting with self-joins (the remark
//! after Theorem 3.8, after [Dalmau–Jonsson 35]).
//!
//! Theorem 3.8's lower bound does not need self-join freeness because a
//! counting oracle for a self-join query recovers the count of its
//! self-join-free *colorful* version: if `q` uses the symbol `R` in `t`
//! atoms and we evaluate `|q(∪_{i∈T} S_i)|` for every subset `T` of `t`
//! pairwise-disjoint parts, inclusion–exclusion isolates the answers
//! whose atom-to-part attribution is surjective. When the parts are
//! *position-forcing* (a tuple of `S_i` can only sit at atom `i`, as the
//! lower-bound constructions arrange), the surjective count **is** the
//! count of the self-join-free query `q̃(R_1 := S_1, ..., R_t := S_t)`.
//!
//! Attribution is only well-defined without projections, so this applies
//! to *join* queries — exactly Theorem 3.8's setting.

use cq_core::{ConjunctiveQuery, QueryBuilder};
use cq_data::{Database, Relation};

/// The self-join-free version of `q`: atom `i` gets fresh symbol
/// `{R}__{i}`.
pub fn selfjoin_free_version(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut b = QueryBuilder::new(q.name());
    let vars: Vec<_> = q.vars().map(|v| q.var_name(v).to_string()).collect();
    let handles: Vec<_> = vars.iter().map(|n| b.var(n)).collect();
    for (i, atom) in q.atoms().iter().enumerate() {
        let vs: Vec<_> = atom.vars.iter().map(|v| handles[v.index()]).collect();
        b.atom(&format!("{}__{}", atom.relation, i), &vs);
    }
    b.free(&q.free_vars().iter().map(|v| handles[v.index()]).collect::<Vec<_>>());
    b.build().expect("renaming preserves well-formedness")
}

/// Count the colorful (surjectively attributed) answers of the self-join
/// join query `q` (single relation symbol, `t = q.atoms()` occurrences)
/// over pairwise-disjoint parts `S_1..S_t`, using only a counting oracle
/// for `q` itself: `Σ_{T⊆[t]} (−1)^{t−|T|} |q(∪_{i∈T} S_i)|`.
///
/// # Panics
/// If `q` is not a join query, uses more than one relation symbol, or
/// `parts.len() != t`.
pub fn colorful_count_by_inclusion_exclusion(
    q: &ConjunctiveQuery,
    parts: &[Relation],
) -> i64 {
    assert!(q.is_join_query(), "attribution needs join queries (Thm 3.8 setting)");
    let symbol = &q.atoms()[0].relation;
    assert!(
        q.atoms().iter().all(|a| &a.relation == symbol),
        "expected a single repeated relation symbol"
    );
    let t = q.atoms().len();
    assert_eq!(parts.len(), t, "need one part per atom occurrence");
    let arity = q.atoms()[0].vars.len();

    let mut total: i64 = 0;
    for mask in 0u32..(1u32 << t) {
        let mut union = Relation::new(arity);
        for (i, part) in parts.iter().enumerate() {
            if mask >> i & 1 == 1 {
                for row in part.iter() {
                    union.push_row(row);
                }
            }
        }
        union.normalize();
        let mut db = Database::new();
        db.insert(symbol, union);
        let (count, _) =
            cq_planner::EvalCtx::new().count(q, &db).expect("instance must bind");
        let sign =
            if (t - mask.count_ones() as usize).is_multiple_of(2) { 1 } else { -1 };
        total += sign * count as i64;
    }
    total
}

/// Reference: evaluate the self-join-free version directly with
/// `R__i := S_i`.
pub fn selfjoin_free_count(q: &ConjunctiveQuery, parts: &[Relation]) -> u64 {
    let qf = selfjoin_free_version(q);
    let mut db = Database::new();
    for (i, atom) in q.atoms().iter().enumerate() {
        db.insert(&format!("{}__{}", atom.relation, i), parts[i].clone());
    }
    let (count, _) =
        cq_planner::EvalCtx::new().count(&qf, &db).expect("instance must bind");
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::parse_query;
    use cq_data::generate::seeded_rng;
    use rand::Rng;

    /// Position-forcing parts for the self-join path query
    /// q(x,y,z) :- R(x,y), R(y,z): S_1 ⊆ A×B, S_2 ⊆ B×C with A, B, C
    /// pairwise disjoint value ranges.
    fn layered_parts(m: usize, seed: u64) -> Vec<Relation> {
        let mut rng = seeded_rng(seed);
        let s1 = Relation::from_pairs(
            (0..m).map(|_| (rng.gen_range(0..20u64), 100 + rng.gen_range(0..20u64))),
        );
        let s2 = Relation::from_pairs(
            (0..m)
                .map(|_| (100 + rng.gen_range(0..20u64), 200 + rng.gen_range(0..20u64))),
        );
        vec![s1, s2]
    }

    #[test]
    fn interpolation_recovers_selfjoin_free_count() {
        let q = parse_query("q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        for seed in 0..5u64 {
            let parts = layered_parts(60, seed);
            let via_ie = colorful_count_by_inclusion_exclusion(&q, &parts);
            let direct = selfjoin_free_count(&q, &parts) as i64;
            assert_eq!(via_ie, direct, "seed={seed}");
        }
    }

    #[test]
    fn three_atom_chain() {
        let q = parse_query("q(x,y,z,w) :- R(x,y), R(y,z), R(z,w)").unwrap();
        let mut rng = seeded_rng(9);
        let mk = |lo: u64, rng: &mut rand::rngs::StdRng| {
            Relation::from_pairs((0..30).map(|_| {
                (lo + rng.gen_range(0..10u64), lo + 100 + rng.gen_range(0..10u64))
            }))
        };
        let parts = vec![mk(0, &mut rng), mk(100, &mut rng), mk(200, &mut rng)];
        assert_eq!(
            colorful_count_by_inclusion_exclusion(&q, &parts),
            selfjoin_free_count(&q, &parts) as i64
        );
    }

    #[test]
    fn empty_parts_zero() {
        let q = parse_query("q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        let parts = vec![Relation::new(2), Relation::new(2)];
        assert_eq!(colorful_count_by_inclusion_exclusion(&q, &parts), 0);
    }

    #[test]
    fn selfjoin_free_version_shape() {
        let q = parse_query("q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        let qf = selfjoin_free_version(&q);
        assert!(qf.is_self_join_free());
        assert_eq!(qf.atoms().len(), 2);
        assert_eq!(qf.atoms()[0].relation, "R__0");
        assert_eq!(qf.n_vars(), q.n_vars());
    }

    #[test]
    #[should_panic(expected = "join queries")]
    fn projections_rejected() {
        let q = parse_query("q(x) :- R(x, y), R(y, x)").unwrap();
        let _ = colorful_count_by_inclusion_exclusion(
            &q,
            &[Relation::new(2), Relation::new(2)],
        );
    }
}
