//! What the property and consistency tests share: the random-query
//! generator, the random database for a query, and the sorted answers an
//! ordered direct access must serve.
//!
//! A query is valid by construction: the atoms' variable slots are drawn
//! first and the variables are numbered in order of first use, so every
//! variable occurs in an atom and `QueryBuilder::build` cannot fail.

#![allow(dead_code)] // each test file uses its own part

use cq_core::{ConjunctiveQuery, QueryBuilder, Var};
use cq_data::{Database, Val};
use cq_engine::bind::brute_force_answers;
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

/// A database for `q`, seeded: per atom, `rows` random rows of its arity
/// over the values `0..domain`, under its relation's name.
pub fn random_db(q: &ConjunctiveQuery, seed: u64, rows: usize, domain: u64) -> Database {
    let mut rng = cq_data::generate::seeded_rng(seed);
    let mut db = Database::new();
    for atom in q.atoms() {
        let rel =
            cq_data::generate::random_relation(atom.vars.len(), rows, domain, &mut rng);
        db.insert(&atom.relation, rel);
    }
    db
}

/// The brute-force answers of `q` over its free variables, sorted by
/// `order` restricted to them: the array direct access in that order
/// simulates.
pub fn sorted_by(q: &ConjunctiveQuery, db: &Database, order: &[Var]) -> Vec<Vec<Val>> {
    let free = q.free_vars();
    let slots: Vec<usize> =
        order.iter().filter_map(|v| free.iter().position(|f| f == v)).collect();
    let mut rows: Vec<Vec<Val>> =
        brute_force_answers(q, db).unwrap().iter().map(<[Val]>::to_vec).collect();
    rows.sort_by_key(|row| slots.iter().map(|&s| row[s]).collect::<Vec<_>>());
    rows
}
