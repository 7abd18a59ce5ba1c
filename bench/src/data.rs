//! Seeded datasets and the query shapes the workloads run.
//!
//! Everything `cqd` ever sees is generated here from `--seed`: the
//! server receives wire lines, never a seed. Each tenant is generated
//! twice from the same pairs — once as `LOAD` rows for the wire, once
//! as a mirror [`Database`] the oracle evaluates in-process.

use cq_data::{Database, Relation};
use std::collections::BTreeSet;

/// SplitMix64: tiny, seedable, and identical on every platform — the
/// benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under the same seed, so adding
    /// a relation never shifts the rows of another.
    pub fn fork(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Binary rows of one relation, sorted and distinct.
pub type Pairs = Vec<(u64, u64)>;

/// `rows` distinct pairs uniform over `0..domain`, sorted.
pub fn random_pairs(rows: usize, domain: u64, rng: &mut Rng) -> Pairs {
    assert!(
        (domain as u128) * (domain as u128) >= rows as u128,
        "cannot draw {rows} distinct pairs from domain {domain}"
    );
    let mut set = BTreeSet::new();
    while set.len() < rows {
        set.insert((rng.below(domain), rng.below(domain)));
    }
    set.into_iter().collect()
}

/// The domain of the triangle relation `E` at `m` edges: ⌊6·√m⌋, dense
/// enough that triangles are plentiful (≈ 23 k at m = 30 000) and
/// `DECIDE` stops early.
pub fn triangle_domain(m: usize) -> u64 {
    ((6.0 * (m as f64).sqrt()).floor() as u64).max(4)
}

/// Rows of `A = {(i,0)}` and `B = {(0,i)}` at scale `m`: 1 000 each at
/// m = 30 000, so 2 000 input rows join to 10⁶ answers.
pub fn cross_side(m: usize) -> u64 {
    (m as u64 / 30).max(3)
}

/// One tenant's generated contents.
#[derive(Clone, Debug)]
pub struct Dataset {
    pub tenant: String,
    /// Rows per random relation.
    pub m: usize,
    /// `(relation, rows)` in load order. `Log` is present and empty.
    pub relations: Vec<(String, Pairs)>,
}

/// Every relation a full tenant holds, in load order.
pub const ALL_RELATIONS: &[&str] = &["R1", "R2", "R3", "E", "A", "B", "Log"];

impl Dataset {
    /// The full relation set at scale `m`: `R1,R2,R3` (random pairs over
    /// domain `m`), `E` (random pairs over [`triangle_domain`]), the
    /// cross-product sides `A`,`B`, and the empty write sink `Log`.
    pub fn generate(tenant: &str, m: usize, seed: u64) -> Dataset {
        Dataset::generate_relations(tenant, m, seed, ALL_RELATIONS)
    }

    /// Only `relations` (a sweep cell holds just what its shape reads).
    /// A relation's rows depend on `(seed, tenant, relation, m)` alone,
    /// never on which others are generated beside it.
    pub fn generate_relations(
        tenant: &str,
        m: usize,
        seed: u64,
        relations: &[&str],
    ) -> Dataset {
        let rows = |name: &str| -> Pairs {
            let mut rng = Rng::fork(seed, &format!("{tenant}/{name}"));
            match name {
                "R1" | "R2" | "R3" => random_pairs(m, m as u64, &mut rng),
                "E" => random_pairs(m, triangle_domain(m), &mut rng),
                "A" => (0..cross_side(m)).map(|i| (i, 0)).collect(),
                "B" => (0..cross_side(m)).map(|i| (0, i)).collect(),
                "Log" => Vec::new(),
                other => panic!("no generator for relation `{other}`"),
            }
        };
        let relations = relations.iter().map(|r| (r.to_string(), rows(r))).collect();
        Dataset { tenant: tenant.to_string(), m, relations }
    }

    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(|(_, p)| p.len()).sum()
    }

    pub fn pairs(&self, relation: &str) -> &Pairs {
        &self.relations.iter().find(|(n, _)| n == relation).expect("generated relation").1
    }

    /// The in-process mirror of this tenant.
    pub fn mirror(&self) -> Database {
        let mut db = Database::new();
        for (name, pairs) in &self.relations {
            db.insert(name, Relation::from_pairs(pairs.iter().copied()));
        }
        db
    }
}

/// The wire verb of a shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verb {
    Decide,
    Count,
    Answers,
}

impl Verb {
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Decide => "DECIDE",
            Verb::Count => "COUNT",
            Verb::Answers => "ANSWERS",
        }
    }

    pub fn task(self) -> cq_planner::Task {
        match self {
            Verb::Decide => cq_planner::Task::Decide,
            Verb::Count => cq_planner::Task::Count,
            Verb::Answers => cq_planner::Task::Answers,
        }
    }
}

/// A named query shape: the unit the per-shape metrics key on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub verb: Verb,
    pub query: &'static str,
    /// Relations the query reads (what a sweep tenant must hold).
    pub relations: &'static [&'static str],
    /// The plan operator `EXPLAIN` must name — asserted at set-up, so a
    /// planner change that silently reroutes a shape fails loudly
    /// instead of shifting what a metric measures.
    pub operator: &'static str,
}

impl Shape {
    /// The request line: `<VERB> <query>`.
    pub fn line(&self) -> String {
        format!("{} {}", self.verb.as_str(), self.query)
    }
}

const PATH3: &[&str] = &["R1", "R2", "R3"];
const TRI: &[&str] = &["E"];
const CROSS: &[&str] = &["A", "B"];

/// Every shape, by name.
pub const SHAPES: &[Shape] = &[
    Shape {
        name: "path3_count",
        verb: Verb::Count,
        query: "q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)",
        relations: PATH3,
        operator: "counting DP over join tree",
    },
    Shape {
        name: "path3_decide",
        verb: Verb::Decide,
        query: "q() :- R1(a, b), R2(b, c), R3(c, d)",
        relations: PATH3,
        operator: "Yannakakis semijoin sweep",
    },
    Shape {
        name: "star3_count",
        verb: Verb::Count,
        query: "q(a) :- R1(a, b), R2(a, c), R3(a, d)",
        relations: PATH3,
        operator: "projection elimination + counting DP",
    },
    Shape {
        name: "tri_count",
        verb: Verb::Count,
        query: "q(x, y, z) :- E(x, y), E(y, z), E(z, x)",
        relations: TRI,
        operator: "generic join + distinct-projection count",
    },
    Shape {
        name: "tri_decide",
        verb: Verb::Decide,
        query: "q() :- E(x, y), E(y, z), E(z, x)",
        relations: TRI,
        operator: "generic join (worst-case optimal)",
    },
    Shape {
        name: "path3_answers",
        verb: Verb::Answers,
        query: "q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)",
        relations: PATH3,
        operator: "constant-delay enumeration",
    },
    Shape {
        name: "tri_answers",
        verb: Verb::Answers,
        query: "q(x, y, z) :- E(x, y), E(y, z), E(z, x)",
        relations: TRI,
        operator: "generic join + projection",
    },
    // the full acyclic join, not the projected q(x, z): that one is the
    // matrix-multiplication shape and plans as generic join + projection
    Shape {
        name: "cross_answers",
        verb: Verb::Answers,
        query: "q(x, y, z) :- A(x, y), B(y, z)",
        relations: CROSS,
        operator: "constant-delay enumeration",
    },
    // the hard side (m^2): sweep only
    Shape {
        name: "path3_ends_count",
        verb: Verb::Count,
        query: "q(a, d) :- R1(a, b), R2(b, c), R3(c, d)",
        relations: PATH3,
        operator: "generic join + distinct-projection count",
    },
];

pub fn shape(name: &str) -> &'static Shape {
    SHAPES.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no shape `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_forks_are_independent() {
        let a = Dataset::generate("main", 500, 42);
        let b = Dataset::generate("main", 500, 42);
        assert_eq!(a.relations, b.relations);
        let c = Dataset::generate("main", 500, 43);
        assert_ne!(a.pairs("R1"), c.pairs("R1"));
        assert_ne!(a.pairs("R1"), a.pairs("R2"));
        assert_eq!(a.pairs("R1").len(), 500);
        assert!(a.pairs("Log").is_empty());
        assert_eq!(a.mirror().expect("E").len(), 500);
    }

    #[test]
    fn shape_subset_keeps_only_what_the_query_reads() {
        let d = Dataset::generate_relations("s", 200, 1, shape("tri_count").relations);
        assert_eq!(d.relations.len(), 1);
        assert_eq!(d.relations[0].0, "E");
        // and the rows match the full generator's
        assert_eq!(d.pairs("E"), Dataset::generate("s", 200, 1).pairs("E"));
    }
}
