//! The generic-join kernel's work and cancellation. Its work counter is
//! held to the AGM bound by the exponent table's count and answers rows
//! (`exponents/mod.rs`), planned through the planner.
//!
//! Every other oracle in the repository that sees a generic-join answer
//! (the planner consistency tests' zoo, cqbench's mirror) runs the same
//! engine in-process, so only brute force can catch a kernel bug: the
//! kernel's answers, counts and morsel splits are checked against it on
//! random queries, under every variable order, by the unit tests of
//! `cq_engine::generic_join`.

mod exponents;

use cq_engine::{generic_join, CancelToken, ExecCtx};
use cq_lower_bounds::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Thm 3.2's m^{3/2} for the triangle, Thm 3.5's m^{1+1/(k−1)} for
/// Loomis–Whitney joins, m^{k/2} for cycles, Lemma 3.9's m^k for `q*_k`
/// and Thm 3.12's m² for `q_mm`: a count's seeks within `c · m^ρ*` and
/// fitted to at most ρ* + 0.1, the answers' seeks + rows to ρ* ± 0.1.
#[test]
fn seeks_stay_within_the_agm_bound() {
    exponents::run("seeks_stay_within_the_agm_bound");
}

#[test]
fn an_expired_deadline_trips_before_any_work() {
    let q = zoo::triangle_join();
    let db = cq_data::generate::triangle_database(&cq_data::generate::random_pairs(
        200,
        30,
        &mut cq_data::generate::seeded_rng(1),
    ));
    let order = generic_join::default_order(&q);
    let catalog = IndexCatalog::new();
    // a fresh token per call: only a token's first poll is unstrided
    let expired = || CancelToken::with_timeout(Duration::ZERO);
    let token = expired();
    let mut visits = 0;
    let got = generic_join::visit(
        &ExecCtx::new(&catalog, &token),
        &q,
        &db,
        &order,
        &mut |_| {
            visits += 1;
            true
        },
    );
    assert_eq!(got, Err(EvalError::Cancelled));
    assert_eq!(visits, 0);
    assert_eq!(token.polls(), 1, "the join's first poll is a real one");
    let token = expired();
    assert_eq!(
        generic_join::count_distinct(&ExecCtx::new(&catalog, &token), &q, &db, &order),
        Err(EvalError::Cancelled)
    );
    let token = expired();
    assert_eq!(
        generic_join::decide(&ExecCtx::new(&catalog, &token), &q, &db, &order),
        Err(EvalError::Cancelled)
    );
}

#[test]
fn a_deadline_passing_mid_join_aborts_lw4() {
    // LW4 over the full [12]^3: 12^4 = 20 736 answers, far more than one
    // poll stride, so the join cannot finish before it notices — and
    // dense: every node at every column is a bitmap, so every depth ANDs
    // words, and all but the last descend by rank
    let d = 12u64;
    let q = zoo::loomis_whitney_boolean(4).join_version();
    let db = cq_data::generate::lw_database(4, &cq_data::generate::full_relation(3, d));
    let order = generic_join::default_order(&q);
    let catalog = IndexCatalog::new();
    // build the views first: the deadline is to pass inside the join
    assert!(generic_join::decide(&ExecCtx::warm(&catalog), &q, &db, &order).unwrap());
    for atom in q.atoms() {
        let view = catalog.sorted_view(&db, &atom.relation, &[0, 1, 2]).unwrap();
        for level in 0..3 {
            let (words, rank) = view.bitmaps(level).of(0);
            assert_eq!(words, &[(1 << d) - 1], "{} level {level}", atom.relation);
            assert_eq!(rank.len(), usize::from(level < 2), "ranked above the last level");
        }
    }

    let deadline = Instant::now() + Duration::from_millis(250);
    let token = CancelToken::with_deadline(deadline);
    let mut visits = 0u32;
    let ctx = ExecCtx::new(&catalog, &token);
    let got = generic_join::visit(&ctx, &q, &db, &order, &mut |_| {
        if visits == 0 {
            // sit on the first answer until the deadline has passed
            std::thread::sleep(
                deadline.saturating_duration_since(Instant::now())
                    + Duration::from_millis(2),
            );
        }
        visits += 1;
        true
    });
    assert_eq!(got, Err(EvalError::Cancelled));
    assert!(visits >= 1, "the token must trip inside the join, not before it");
    assert!(
        visits <= cq_engine::cancel::STRIDE + 1,
        "{visits} answers after the deadline: the join polls at least once per answer"
    );
    assert!(token.is_cancelled());
    // the counting sink takes the same exit
    assert_eq!(
        generic_join::count_distinct(&ctx, &q, &db, &order),
        Err(EvalError::Cancelled)
    );

    // a token that trips at its third consultation stops a count at that
    // node: not one more is expanded ...
    let consulted = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&consulted);
    let token = CancelToken::never()
        .with_probe(move || seen.fetch_add(1, Ordering::Relaxed) == 2);
    assert_eq!(
        generic_join::count_distinct(&ExecCtx::new(&catalog, &token), &q, &db, &order),
        Err(EvalError::Cancelled)
    );
    assert_eq!(token.polls(), 2 * u64::from(cq_engine::cancel::STRIDE) + 1);
    assert_eq!(consulted.load(Ordering::Relaxed), 3);

    // ... and memoizes nothing: the next count runs whole. It hands no
    // answer over, so its polls are its nodes: one each, a node that is a
    // single word AND included
    let nodes = 1 + d + d * d + d * d * d;
    let token = CancelToken::never();
    let ctx = ExecCtx::new(&catalog, &token);
    assert_eq!(generic_join::count_distinct(&ctx, &q, &db, &order), Ok(d.pow(4)));
    assert_eq!(token.polls(), nodes);
}
