//! Quantified star size (paper §4.4, after Durand–Mengel).
//!
//! The quantified star size of a query measures the largest star query
//! `q*_k` (§3.2) that embeds into it: a **quantified star of size k**
//! consists of free variables `x1, ..., xk` and a *connected* set `Z` of
//! quantified variables such that every `xi` shares an atom with `Z`, and
//! no atom contains two of the `xi` (so the `xi` behave like the
//! independent leaves of `q*_k`). Theorem 4.6: counting answers of a
//! self-join-free acyclic query of quantified star size `k` takes
//! `m^{k−o(1)}` unless SETH fails.
//!
//! Because enlarging `Z` never invalidates a star (connectivity is
//! preserved when growing within a connected component, and more
//! attachments only help), the maximum is attained with `Z` a full
//! connected component of the quantified variables. The `xi` then form an
//! independent set in the co-occurrence graph of the free variables
//! attached to that component, which we compute exactly by branch and
//! bound (queries are small).

use crate::cover::max_independent;
use crate::query::ConjunctiveQuery;

/// Compute the quantified star size of `q`.
///
/// Conventions:
/// * a query with no quantified variables has star size 0;
/// * a query where some quantified component has attached free variables
///   gets the maximum independent attachment count over components;
/// * a query with quantified variables but no free variables (Boolean)
///   has star size 0 (no `xi` to attach).
pub fn quantified_star_size(q: &ConjunctiveQuery) -> usize {
    let h = q.hypergraph();
    let quantified = q.quantified_mask();
    let free = q.free_mask();
    if quantified == 0 || free == 0 {
        return 0;
    }
    let mut best = 0;
    for comp in h.components(quantified) {
        // free variables attached to this component: share an atom with it
        let mut attached = 0u64;
        for &e in h.edges() {
            if e & comp != 0 {
                attached |= e & free;
            }
        }
        if attached == 0 {
            continue;
        }
        best = best.max(max_independent(&h, attached));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use crate::query::zoo;

    #[test]
    fn star_query_has_its_star_size() {
        for k in 1..=5 {
            assert_eq!(quantified_star_size(&zoo::star_selfjoin(k)), k, "q*_{k}");
            assert_eq!(quantified_star_size(&zoo::star_selfjoin_free(k)), k, "q̄*_{k}");
        }
    }

    #[test]
    fn join_queries_have_star_size_zero() {
        assert_eq!(quantified_star_size(&zoo::path_join(4)), 0);
        assert_eq!(quantified_star_size(&zoo::star_full(3)), 0);
    }

    #[test]
    fn boolean_queries_have_star_size_zero() {
        assert_eq!(quantified_star_size(&zoo::path_boolean(4)), 0);
        assert_eq!(quantified_star_size(&zoo::triangle_boolean()), 0);
    }

    #[test]
    fn matmul_projection_star_size_two() {
        // q(x,z) :- R1(x,y), R2(y,z): quantified y connects x and z, which
        // do not co-occur → star size 2. Matches Thm 3.12's m^{2-ε} bound.
        assert_eq!(quantified_star_size(&zoo::matmul_projection()), 2);
    }

    #[test]
    fn free_connex_queries_have_star_size_at_most_one() {
        // q(x0,x1) :- R1(x0,x1), R2(x1,x2): free-connex; star size 1
        // (x2 quantified, attached frees {x1} only).
        let q = parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2)").unwrap();
        assert!(crate::free_connex::is_free_connex(&q));
        assert_eq!(quantified_star_size(&q), 1);
    }

    #[test]
    fn disconnected_quantified_components_take_max() {
        // two independent star-2 patterns sharing no variables, star size
        // is the max per component (2), not the sum.
        let q = parse_query(
            "q(a1, a2, b1, b2) :- R1(a1, y), R2(a2, y), S1(b1, w), S2(b2, w)",
        )
        .unwrap();
        assert_eq!(quantified_star_size(&q), 2);
    }

    #[test]
    fn connected_quantified_path_collects_leaves() {
        // q(x1,x2,x3) :- R1(x1,y1), R2(y1,y2), R3(x2,y2), R4(y2,y3), R5(x3,y3)
        // quantified y1-y2-y3 connected; x1,x2,x3 pairwise non-co-occurring
        // → star size 3.
        let q = parse_query(
            "q(x1,x2,x3) :- R1(x1,y1), R2(y1,y2), R3(x2,y2), R4(y2,y3), R5(x3,y3)",
        )
        .unwrap();
        assert_eq!(quantified_star_size(&q), 3);
    }

    #[test]
    fn cooccurring_frees_do_not_both_count() {
        // q(x1,x2) :- R(x1, x2, z): x1, x2 co-occur → star size 1.
        let q = parse_query("q(x1, x2) :- R(x1, x2, z)").unwrap();
        assert_eq!(quantified_star_size(&q), 1);
    }

    #[test]
    fn attachment_requires_shared_atom_with_component() {
        // q(x) :- R(x, u), S(y, z): quantified {u} attaches x;
        // quantified {y,z} has no free attachment (wait, y,z both
        // quantified, S's scope has no free var) → star size 1.
        let q = parse_query("q(x) :- R(x, u), S(y, z)").unwrap();
        assert_eq!(quantified_star_size(&q), 1);
    }
}
