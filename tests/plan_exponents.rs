//! The exponent table's own rows, and two checks that reuse its rows:
//! a count's word-parallel work against the answers', and the sparse
//! triangle instances against brute force. The table and its harness
//! are `exponents/mod.rs`; the rows of the linear folds run in
//! `join_tree_work.rs`, those of generic join's count and answers in
//! `generic_join_kernel.rs`.

mod exponents;

use cq_lower_bounds::prelude::*;
use exponents::{every_atom, full, measure, table};

/// The rows of generic join's decision and of materialized direct
/// access, and the table's coverage.
#[test]
fn every_plan_meets_its_exponent() {
    exponents::run("every_plan_meets_its_exponent");
    let covered = exponents::operators().len();
    assert_eq!(covered, 10, "every operator has a row");
}

/// The word as work, not wall-clock: where every last-column node is
/// dense, a count ANDs 64 candidates at a time, and the answers must
/// still be handed over one by one.
#[test]
fn a_count_ands_words_the_answers_hand_over_one_by_one() {
    let table = table();
    let row =
        |name, task| table.iter().find(|r| r.name == name && r.task == task).unwrap();
    for name in ["triangle", "lw3"] {
        for d in [64, 96] {
            let (db, want) = full(&row(name, Task::Count).query, d);
            let (stats, want) = (DataStats::collect(&db), want.unwrap());
            let count = measure(row(name, Task::Count), &db, &stats, want).1;
            let answering = measure(row(name, Task::Answers), &db, &stats, want).1;
            assert!(8.0 * count <= answering, "{name} d={d}: {count} seeks, {answering}");
        }
    }
}

/// Off the worst case: sparser random instances of the two ρ* = 3/2
/// shapes count what adjacency lists count, under the same constants.
#[test]
fn sparse_triangles_stay_under_the_same_constants() {
    let table = table();
    for name in ["triangle", "lw3"] {
        let row = table.iter().find(|r| r.name == name && r.task == Task::Count).unwrap();
        for m in [1000usize, 2000, 4000] {
            let side = (m as f64).sqrt();
            for domain in [(2.0 * side) as u64, (6.0 * side) as u64] {
                let mut rng = cq_data::generate::seeded_rng(m as u64 + domain);
                let rel = cq_data::generate::random_pairs(m, domain, &mut rng);
                let db = every_atom(&row.query, rel.clone());
                let want = brute_force_triangles(&rel, &row.query);
                measure(row, &db, &DataStats::collect(&db), want);
            }
        }
    }
}

/// Triangles of `rel` as both shapes see them, by adjacency lists: the
/// cyclic `E(x,y), E(y,z), E(z,x)` and Loomis–Whitney's
/// `R1(x2,x3), R2(x1,x3), R3(x1,x2)` over the same pairs.
fn brute_force_triangles(rel: &Relation, q: &ConjunctiveQuery) -> u64 {
    let cyclic = q.atoms()[0].relation == "E";
    let mut n = 0;
    for ab in rel.iter() {
        for i in rel.prefix_range(&[ab[1]]) {
            let bc = rel.row(i);
            let closing = if cyclic { [bc[1], ab[0]] } else { [ab[0], bc[1]] };
            n += u64::from(rel.contains(&closing));
        }
    }
    n
}
