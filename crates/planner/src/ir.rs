//! The plan intermediate representation.
//!
//! A [`QueryPlan`] is the planner's contract with the executor and with
//! the user: *which* operator runs — a source and the task read off it,
//! one `cq-engine` algorithm per pair — *what it costs* on this database, and
//! *why nothing asymptotically faster exists* (the [`Verdict`] of the
//! paper's dichotomies, decided in `cq_core::classify`). Plans are plain
//! data — they can be cached, compared, rendered by
//! `cq_planner::explain`, and executed any number of times, against any
//! database: only the cost and the generic-join order depend on the
//! statistics a plan was made with.

pub use cq_core::classify::{Task, Verdict};
use cq_core::{ConjunctiveQuery, Var};
use std::fmt;

/// Where a plan's answers come from: the structure a task is read off,
/// the side of the query's dichotomy. Either source returns before it
/// reads a row when a body relation is empty.
#[derive(Clone, PartialEq, Debug)]
pub enum Source {
    /// `q'`, the fully reduced join tree of an acyclic query (of
    /// `H ∪ {free}` for a free-connex projection): its decision is the
    /// semijoin sweep (Thm 3.1), its count the counting DP (Thm 3.8, with
    /// projection elimination Thm 3.13), its answers constant-delay
    /// enumeration (Thm 3.17), its access Thm 3.18's — or, given an
    /// order, the order's layered tree with a running radix (Thm 3.24).
    QPrime {
        /// The query is a join query: Thm 3.8 counts its atoms as they
        /// are, where a projection's count eliminates first (Thm 3.13).
        join_query: bool,
        /// The lexicographic order a direct access follows (Thm 3.24);
        /// `None` lets the reduced tree choose (Thm 3.18).
        order: Option<Vec<Var>>,
    },
    /// Worst-case optimal generic join (§2.1, Ex 3.4): early stop for a
    /// decision, and the baseline of every other task on the hard side —
    /// a distinct-projection count (Lemma 3.9), materialized answers, and
    /// those answers sorted for access.
    GenericJoin {
        /// Planner-chosen global variable order (cheapest column first);
        /// the access order of a materialized access.
        order: Vec<Var>,
    },
}

impl Source {
    /// The planner-chosen variable order, when the source has one.
    pub fn order(&self) -> Option<&[Var]> {
        match self {
            Source::GenericJoin { order } | Source::QPrime { order: Some(order), .. } => {
                Some(order)
            }
            _ => None,
        }
    }
}

/// A physical operator: a source and the task it answers, each pair
/// backed by one `cq-engine` algorithm. `task` is the task the plan's
/// task comes down to on the query (`Structure::effective_task`): a
/// Boolean query's count, and its answers when cyclic, are its decision.
#[derive(Clone, PartialEq, Debug)]
pub struct Op {
    /// The structure the task is read off.
    pub source: Source,
    /// The task the source answers.
    pub task: Task,
}

impl Op {
    /// Human-readable operator name (stable across releases; EXPLAIN
    /// output, the `op.<slug>` metrics and the slow log key on it).
    pub fn name(&self) -> &'static str {
        match (&self.source, self.task) {
            (Source::QPrime { .. }, Task::Decide) => "Yannakakis semijoin sweep",
            (Source::QPrime { join_query: true, .. }, Task::Count) => {
                "counting DP over join tree"
            }
            (Source::QPrime { .. }, Task::Count) => {
                "projection elimination + counting DP"
            }
            (Source::QPrime { .. }, Task::Answers) => "constant-delay enumeration",
            (Source::QPrime { order: Some(_), .. }, Task::Access) => {
                "ordered join tree + mixed-radix access"
            }
            (Source::QPrime { .. }, Task::Access) => "free-connex direct access",
            (Source::GenericJoin { .. }, Task::Decide) => {
                "generic join (worst-case optimal)"
            }
            (Source::GenericJoin { .. }, Task::Count) => {
                "generic join + distinct-projection count"
            }
            (Source::GenericJoin { .. }, Task::Answers) => "generic join + projection",
            (Source::GenericJoin { .. }, Task::Access) => "materialize + sort access",
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
    pub op: Op,
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
        let sources = [
            Source::QPrime { join_query: true, order: None },
            Source::QPrime { join_query: false, order: Some(vec![]) },
            Source::GenericJoin { order: vec![] },
        ];
        let tasks = [Task::Decide, Task::Count, Task::Answers, Task::Access];
        let mut names: Vec<&str> = (sources.iter())
            .flat_map(|s| tasks.map(|task| Op { source: s.clone(), task }.name()))
            .collect();
        names.sort_unstable();
        names.dedup();
        // the two counts and accesses over `q'` that the bits above split
        assert_eq!(names.len(), 4 + 4 + 2);
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
        let op = Source::GenericJoin { order: vec![Var(1), Var(0)] };
        assert_eq!(op.order(), Some(&[Var(1), Var(0)][..]));
        let lex = Source::QPrime { join_query: true, order: Some(vec![Var(0)]) };
        assert_eq!(lex.order(), Some(&[Var(0)][..]));
        assert_eq!(Source::QPrime { join_query: true, order: None }.order(), None);
    }
}
