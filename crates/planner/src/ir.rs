//! The plan intermediate representation.
//!
//! A [`QueryPlan`] is the planner's contract with the executor and with
//! the user: *which* physical operator runs (one per upper-bound theorem
//! implemented in `cq-engine`), *what it costs* on this database, and
//! *why nothing asymptotically faster exists* (the [`Verdict`] of the
//! paper's dichotomies, decided in `cq_core::classify`). Plans are plain
//! data — they can be cached, compared, rendered by
//! `cq_planner::explain`, and executed any number of times.

pub use cq_core::classify::{Task, Verdict};
use cq_core::{ConjunctiveQuery, Var};
use std::fmt;

/// A physical operator, each backed by one `cq-engine` algorithm.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanOp {
    /// The database makes the answer trivially empty (some body relation
    /// has no tuples): answer in O(1) without touching the engine.
    TrivialEmpty,
    /// Yannakakis semijoin sweeps over a join tree (Thm 3.1).
    SemijoinSweep,
    /// Worst-case optimal generic join with the given global variable
    /// order, with early stop for decision (§2.1, Ex 3.4).
    GenericJoin {
        /// Planner-chosen global variable order (cheapest column first).
        order: Vec<Var>,
    },
    /// Counting DP over a join tree of an acyclic join query (Thm 3.8).
    CountingDp,
    /// Projection elimination along a join tree of `H ∪ {free}`, then
    /// the counting DP — free-connex counting (Thm 3.13).
    ProjectionEliminationDp,
    /// Generic join counting the distinct free-variable projections, for
    /// counting on the hard side (Lemma 3.9 baseline): a join query's
    /// full assignments are counted as found, a projection's answers
    /// through a materialized set.
    CountDistinctProject {
        /// Planner-chosen global variable order.
        order: Vec<Var>,
    },
    /// Free-connex constant-delay enumeration: linear preprocessing,
    /// constant delay per answer (Thm 3.17).
    ConstantDelayEnumeration,
    /// Generic join + distinct projection — the materialization baseline
    /// for answer production on the hard side.
    MaterializeProject {
        /// Planner-chosen global variable order.
        order: Vec<Var>,
    },
    /// Lexicographic direct access for a trio-free order: the order's
    /// layered join tree, one node per variable, and one pass over its
    /// nodes with a running radix per access (Thm 3.24).
    LexDirectAccess {
        /// The lexicographic variable order accessed.
        order: Vec<Var>,
    },
    /// Free-connex direct access in a query-chosen order (Thm 3.18).
    FreeConnexDirectAccess,
    /// Materialize-and-sort fallback for direct access on the hard side.
    MaterializedDirectAccess {
        /// The order materialized.
        order: Vec<Var>,
    },
}

impl PlanOp {
    /// Human-readable operator name (stable across releases; EXPLAIN
    /// output and tests key on it).
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::TrivialEmpty => "trivial-empty short-circuit",
            PlanOp::SemijoinSweep => "Yannakakis semijoin sweep",
            PlanOp::GenericJoin { .. } => "generic join (worst-case optimal)",
            PlanOp::CountingDp => "counting DP over join tree",
            PlanOp::ProjectionEliminationDp => "projection elimination + counting DP",
            PlanOp::CountDistinctProject { .. } => {
                "generic join + distinct-projection count"
            }
            PlanOp::ConstantDelayEnumeration => "constant-delay enumeration",
            PlanOp::MaterializeProject { .. } => "generic join + projection",
            PlanOp::LexDirectAccess { .. } => "ordered join tree + mixed-radix access",
            PlanOp::FreeConnexDirectAccess => "free-connex direct access",
            PlanOp::MaterializedDirectAccess { .. } => "materialize + sort access",
        }
    }

    /// The planner-chosen variable order, when the operator has one.
    pub fn order(&self) -> Option<&[Var]> {
        match self {
            PlanOp::GenericJoin { order }
            | PlanOp::CountDistinctProject { order }
            | PlanOp::MaterializeProject { order }
            | PlanOp::LexDirectAccess { order }
            | PlanOp::MaterializedDirectAccess { order } => Some(order),
            _ => None,
        }
    }
}

/// Estimated cost of a plan on the database it was planned against:
/// roughly `m^exponent` operations up to polylog factors.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostEstimate {
    /// Database size `m` (total tuples) at planning time.
    pub m: usize,
    /// Runtime exponent: 1.0 on the (quasi-)linear side, the AGM
    /// fractional edge-cover number ρ* for generic-join plans.
    pub exponent: f64,
}

impl CostEstimate {
    /// `m^exponent`, the estimated operation count.
    pub fn operations(&self) -> f64 {
        (self.m.max(1) as f64).powf(self.exponent)
    }
}

impl fmt::Display for CostEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if (self.exponent - 1.0).abs() < 1e-9 {
            write!(f, "Õ(m) with m = {}", self.m)
        } else {
            write!(
                f,
                "Õ(m^{:.2}) with m = {} (≈ {:.1e} ops)",
                self.exponent,
                self.m,
                self.operations()
            )
        }
    }
}

/// A complete, executable query plan.
#[derive(Clone, PartialEq, Debug)]
pub struct QueryPlan {
    /// The task this plan answers.
    pub task: Task,
    /// The physical operator.
    pub op: PlanOp,
    /// Paper reference for the algorithm (upper bound).
    pub algorithm_reference: &'static str,
    /// Estimated cost on the planned database.
    pub cost: CostEstimate,
    /// Why nothing asymptotically faster exists (or why that is open):
    /// `cq_core::classify::verdict` for this query and task.
    pub lower_bound: Verdict,
}

impl QueryPlan {
    /// Render the variable order with the query's variable names.
    pub(crate) fn render_order(q: &ConjunctiveQuery, order: &[Var]) -> String {
        let names: Vec<&str> = order.iter().map(|&v| q.var_name(v)).collect();
        format!("[{}]", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_are_distinct() {
        let ops = [
            PlanOp::TrivialEmpty,
            PlanOp::SemijoinSweep,
            PlanOp::GenericJoin { order: vec![] },
            PlanOp::CountingDp,
            PlanOp::ProjectionEliminationDp,
            PlanOp::CountDistinctProject { order: vec![] },
            PlanOp::ConstantDelayEnumeration,
            PlanOp::MaterializeProject { order: vec![] },
            PlanOp::LexDirectAccess { order: vec![] },
            PlanOp::FreeConnexDirectAccess,
            PlanOp::MaterializedDirectAccess { order: vec![] },
        ];
        let mut names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ops.len());
    }

    #[test]
    fn cost_display_linear_vs_superlinear() {
        let lin = CostEstimate { m: 100, exponent: 1.0 };
        assert!(lin.to_string().contains("Õ(m)"));
        let tri = CostEstimate { m: 100, exponent: 1.5 };
        assert!(tri.to_string().contains("m^1.50"));
        assert!((tri.operations() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn order_accessor() {
        let op = PlanOp::GenericJoin { order: vec![Var(1), Var(0)] };
        assert_eq!(op.order(), Some(&[Var(1), Var(0)][..]));
        assert_eq!(PlanOp::SemijoinSweep.order(), None);
    }
}
