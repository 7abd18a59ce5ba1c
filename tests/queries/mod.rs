//! The random-query generator the property tests share.
//!
//! A query is valid by construction: the atoms' variable slots are drawn
//! first and the variables are numbered in order of first use, so every
//! variable occurs in an atom and `QueryBuilder::build` cannot fail.

use cq_core::{ConjunctiveQuery, QueryBuilder, Var};
use proptest::prelude::*;

/// Strategy: 2..=5 binary atoms over fresh relations `R0`, `R1`, …,
/// each slot one of 2..=5 variables, and a random free set.
pub fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (2usize..=5, 2usize..=5, any::<u64>()).prop_map(|(nv, na, bits)| {
        let mut x = bits;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let slots: Vec<usize> = (0..2 * na).map(|_| next() % nv).collect();
        let mut first_use: Vec<usize> = Vec::new();
        for &s in &slots {
            if !first_use.contains(&s) {
                first_use.push(s);
            }
        }
        let mut b = QueryBuilder::new("q");
        let vars: Vec<Var> =
            (0..first_use.len()).map(|i| b.var(&format!("v{i}"))).collect();
        let var = |s| vars[first_use.iter().position(|&u| u == s).expect("drawn")];
        for (i, pair) in slots.chunks(2).enumerate() {
            b.atom(&format!("R{i}"), &[var(pair[0]), var(pair[1])]);
        }
        let fm = next();
        let free: Vec<Var> = vars
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| fm >> i & 1 == 1)
            .map(|(_, v)| v)
            .collect();
        b.free(&free);
        b.build().expect("every variable occurs in an atom")
    })
}
