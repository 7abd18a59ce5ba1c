//! EXPLAIN: render a plan with its theorem citations and the
//! lower-bound hypothesis ruling out anything faster.
//!
//! The output is the paper made operational: every line of an EXPLAIN
//! names either an algorithm implemented in `cq-engine` (with the
//! theorem crediting it) or a fine-grained hypothesis (with the
//! witnessing substructure embedded in the query). Example, for the
//! Boolean triangle query:
//!
//! ```text
//! PLAN for q_tri() :- R1(x, y), R2(y, z), R3(z, x)
//!   task:        Boolean decision
//!   operator:    generic join (worst-case optimal), order [x, y, z]
//!   upper bound: Õ(m^1.50) with m = 90 (≈ 8.5e2 ops) [§2.1 / Ex 3.4 ...]
//!   optimality:  conditional — any Õ(m) algorithm refutes:
//!     · Triangle Hypothesis (Hypothesis 2): no Õ(m) triangle detection;
//!       the known m^{2ω/(ω+1)} upper bounds go through Boolean matrix
//!       multiplication (BMM), and the Hyperclique Hypothesis plays the
//!       same role for higher-arity witnesses
//!   witness:     induced cycle on {x, y, z} (embeds triangle finding) [Thm 3.7]
//! ```

use crate::ir::{QueryPlan, Verdict};
use cq_core::{ConjunctiveQuery, Hypothesis};
use std::fmt::Write as _;

/// One-line context on how each hypothesis resists current algorithmic
/// techniques — rendered under the hypothesis name in EXPLAIN output.
fn hypothesis_context(h: Hypothesis) -> &'static str {
    match h {
        Hypothesis::Triangle => {
            "no Õ(m) triangle detection; the known m^{2ω/(ω+1)} upper bounds go \
             through Boolean matrix multiplication (BMM), and the Hyperclique \
             Hypothesis plays the same role for higher-arity witnesses"
        }
        Hypothesis::Hyperclique => {
            "no n^{k−ε} hyperclique detection in h-uniform hypergraphs (k > h > 2); \
             unlike for cliques, no BMM-style speedup is known for hypercliques"
        }
        Hypothesis::SparseBmm => {
            "no Õ(m) sparse Boolean matrix multiplication (BMM), m counting \
             inputs + output non-zeros"
        }
        Hypothesis::Seth => "the Strong Exponential Time Hypothesis for k-SAT",
        Hypothesis::ThreeSum => "no Õ(n^{2−ε}) algorithm for 3SUM",
        Hypothesis::CombinatorialKClique => "no combinatorial n^{k−ε} k-clique detection",
        Hypothesis::MinWeightKClique => "no n^{k−ε} Min-Weight-k-Clique",
        Hypothesis::ZeroKClique => "no n^{k−ε} Zero-k-Clique",
    }
}

/// One-line lower-bound citation for an admission-control rejection:
/// why the server refuses to run this plan under a cost budget, naming
/// the hypothesis (when one applies) that rules out anything cheaper.
///
/// The wording leans on the plan's [`Verdict`]: a hard one cites its
/// hypotheses and witness reference; a quasi-linear or open plan still
/// gets an honest citation (the cost can exceed a budget even when no
/// conditional hardness is known).
pub fn rejection_citation(plan: &QueryPlan) -> String {
    match &plan.lower_bound {
        Verdict::Hard { hypotheses, exponent, reference, .. } => {
            let names = hypotheses
                .iter()
                .map(|h| format!("{} (Hypothesis {})", h.name(), h.paper_number()))
                .collect::<Vec<_>>()
                .join(" / ");
            let faster = match exponent {
                Some(e) => format!("no O(m^{{{e:.2}-eps}}) algorithm exists"),
                None => "no O(m polylog m) algorithm exists".to_string(),
            };
            format!("{names} — {faster} unless the hypothesis fails [{reference}]")
        }
        Verdict::Easy { reference, .. } => format!(
            "plan is quasi-linear and unconditionally optimal; the cost \
             exceeds the budget on data volume alone [{reference}]"
        ),
        Verdict::Open { note } => {
            format!("no matching conditional lower bound known — {note}")
        }
    }
}

/// Render `plan` as a human-readable EXPLAIN block.
pub fn render(plan: &QueryPlan, q: &ConjunctiveQuery) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "PLAN for {q}");
    let _ = writeln!(out, "  task:        {}", plan.task);
    let _ = write!(out, "  operator:    {}", plan.op.name());
    if let Some(order) = plan.op.source.order() {
        let _ = write!(out, ", order {}", QueryPlan::render_order(q, order));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  upper bound: {} [{}]", plan.cost, plan.algorithm_reference);
    match &plan.lower_bound {
        Verdict::Easy { reference, .. } => {
            let _ = writeln!(
                out,
                "  optimality:  unconditional — quasi-linear time is optimal \
                 up to polylog factors [{reference}]"
            );
        }
        Verdict::Hard { hypotheses, exponent, witness, reference } => {
            let target = match exponent {
                Some(e) => format!("any Õ(m^{{<{e:.1}}}) algorithm"),
                None => "any Õ(m) algorithm".to_string(),
            };
            let _ = writeln!(out, "  optimality:  conditional — {target} refutes:");
            for h in hypotheses {
                let _ = writeln!(
                    out,
                    "    · {} (Hypothesis {}): {}",
                    h.name(),
                    h.paper_number(),
                    hypothesis_context(*h)
                );
            }
            let _ = writeln!(out, "  witness:     {witness} [{reference}]");
        }
        Verdict::Open { note } => {
            let _ = writeln!(out, "  optimality:  open — {note}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Task;
    use crate::planner::Planner;
    use cq_core::query::zoo;
    use cq_data::generate::{random_pairs, seeded_rng, triangle_database};
    use cq_data::DataStats;

    #[test]
    fn triangle_explain_names_generic_join_and_cites_bmm_hyperclique() {
        let db = triangle_database(&random_pairs(30, 10, &mut seeded_rng(1)));
        let stats = DataStats::collect(&db);
        let q = zoo::triangle_boolean();
        let plan = Planner::new().plan(&q, Task::Decide, &stats);
        let text = render(&plan, &q);
        assert!(text.contains("generic join"), "{text}");
        assert!(text.contains("Triangle Hypothesis"), "{text}");
        assert!(text.contains("BMM"), "{text}");
        assert!(text.contains("Hyperclique"), "{text}");
        assert!(text.contains("induced cycle"), "{text}");
        assert!(text.contains("Thm 3.7"), "{text}");
    }

    #[test]
    fn linear_plans_explain_unconditional_optimality() {
        let db = cq_data::generate::path_database(3, 20, &mut seeded_rng(2));
        let stats = DataStats::collect(&db);
        let q = zoo::path_boolean(3);
        let plan = Planner::new().plan(&q, Task::Decide, &stats);
        let text = render(&plan, &q);
        assert!(text.contains("Yannakakis"), "{text}");
        assert!(text.contains("unconditional"), "{text}");
        assert!(text.contains("Thm 3.1"), "{text}");
    }

    #[test]
    fn open_cases_are_reported_as_open() {
        let db = cq_data::Database::new();
        let stats = DataStats::collect(&db);
        let q = zoo::clique_join(3).boolean_version();
        let plan = Planner::new().plan(&q, Task::Decide, &stats);
        let text = render(&plan, &q);
        assert!(text.contains("open"), "{text}");
        assert!(text.contains("self-joins"), "{text}");
    }

    #[test]
    fn rejection_citation_names_the_hypothesis() {
        let db = triangle_database(&random_pairs(30, 10, &mut seeded_rng(1)));
        let stats = DataStats::collect(&db);
        let q = zoo::triangle_boolean();
        let plan = Planner::new().plan(&q, Task::Decide, &stats);
        let line = rejection_citation(&plan);
        assert!(line.contains("Triangle Hypothesis"), "{line}");
        assert!(line.contains("no O(m"), "{line}");
        assert!(line.contains("Thm 3.7"), "{line}");
    }

    #[test]
    fn counting_star_explains_seth_exponent() {
        let db = cq_data::generate::star_database(3, 20, 3, &mut seeded_rng(4));
        let stats = DataStats::collect(&db);
        let q = zoo::star_selfjoin_free(3);
        let plan = Planner::new().plan(&q, Task::Count, &stats);
        let text = render(&plan, &q);
        assert!(text.contains("Strong Exponential Time Hypothesis"), "{text}");
        assert!(text.contains("m^{<3.0}"), "{text}");
        assert!(text.contains("quantified star size 3"), "{text}");
    }
}
