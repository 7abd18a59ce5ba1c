//! Concurrency stress for the task methods: many threads interleave
//! `decide` / `count` / `answers` over one shared database through one
//! shared [`IndexCatalog`] — as every session of a server tenant does —
//! and every result must equal the brute-force oracle. Rounds mutate the
//! database between bursts, so the threads also race warm-up of fresh
//! relation versions and each other's index builds — the lock
//! discipline of the internally-locked catalog under real contention.

use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, IndexCatalog, Relation, Val};
use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};
use cq_planner::EvalCtx;

fn random_rel(rows: usize, seed: u64) -> Relation {
    use rand::Rng;
    let mut rng = cq_data::generate::seeded_rng(seed);
    Relation::from_rows(
        2,
        (0..rows)
            .map(|_| (0..2).map(|_| rng.gen_range(0..7 as Val)).collect())
            .collect::<Vec<_>>(),
    )
}

/// Expected results for one query on the current database state,
/// computed by the exponential oracle.
struct Expected {
    q: ConjunctiveQuery,
    decide: bool,
    count: u64,
    answers: Relation,
}

impl Expected {
    fn compute(q: &ConjunctiveQuery, db: &Database) -> Expected {
        Expected {
            q: q.clone(),
            decide: brute_force_decide(q, db).unwrap(),
            count: brute_force_count(q, db).unwrap(),
            answers: brute_force_answers(q, db).unwrap(),
        }
    }

    fn check(&self, ctx: &EvalCtx, db: &Database, thread: usize, rep: usize) {
        let (got, _) = ctx.decide(&self.q, db).unwrap();
        assert_eq!(got, self.decide, "decide {} (thread {thread} rep {rep})", self.q);
        let (got, _) = ctx.count(&self.q, db).unwrap();
        assert_eq!(got, self.count, "count {} (thread {thread} rep {rep})", self.q);
        let (got, _) = ctx.answers(&self.q, db).unwrap();
        assert_eq!(got, self.answers, "answers {} (thread {thread} rep {rep})", self.q);
    }
}

/// Shapes sharing one schema (binary R1, R2, R3): acyclic free-connex,
/// Boolean acyclic, cyclic, and acyclic-not-free-connex — every
/// executor dispatch arm runs concurrently.
fn shapes() -> Vec<ConjunctiveQuery> {
    vec![
        zoo::path_join(3),
        zoo::path_boolean(3),
        zoo::triangle_join(),
        zoo::triangle_boolean(),
        zoo::star_selfjoin_free(2),
    ]
}

#[test]
fn concurrent_facade_matches_brute_force_under_mutation() {
    const THREADS: usize = 8;
    const REPS: usize = 3;
    let shapes = shapes();
    let catalog = IndexCatalog::new();
    let ctx = EvalCtx::new().with_catalog(&catalog);
    let mut db = Database::new();
    for (i, name) in ["R1", "R2", "R3"].iter().enumerate() {
        db.insert(name, random_rel(8, i as u64));
    }
    for round in 0..6u64 {
        // mutate between bursts: fresh versions of the written relations
        db.insert(
            &format!("R{}", 1 + round % 3),
            random_rel(5 + round as usize, 100 + round),
        );
        if round % 2 == 0 {
            db.insert(&format!("R{}", 1 + (round + 1) % 3), random_rel(9, 200 + round));
        }
        let expected: Vec<Expected> =
            shapes.iter().map(|q| Expected::compute(q, &db)).collect();
        // the burst: THREADS workers interleaving all tasks × all shapes
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let expected = &expected;
                let (ctx, db) = (&ctx, &db);
                s.spawn(move || {
                    for rep in 0..REPS {
                        // stagger starting points so threads collide on
                        // different shapes' first (cold) builds
                        for i in 0..expected.len() {
                            expected[(i + t) % expected.len()].check(ctx, db, t, rep);
                        }
                    }
                });
            }
        });
    }
}
