//! The fine-grained complexity classifier: the paper's dichotomies,
//! stated once.
//!
//! [`Structure::of`] computes what the theorems read off a query shape;
//! [`verdict`] decides one (query, task) pair, one arm per theorem —
//! either the (quasi-)linear upper bound with the algorithm achieving
//! it, or the conditional lower bound with the hypothesis it rests on
//! and the witnessing structure (Thm 3.1/3.7, 3.8, 3.12/3.13, 3.14–3.17,
//! 3.18, 4.5/4.6). [`classify`] is that function called once per task;
//! `cq-planner` maps the same verdicts to operators, so what `EXPLAIN`
//! cites and what [`Profile`] prints cannot differ. The order-dependent
//! direct-access dichotomies (Thm 3.24, 3.26) have their own functions.

use crate::brault_baron::{find_witness, Witness, WitnessKind};
use crate::disruptive_trio::find_disruptive_trio;
use crate::free_connex::connexity;
use crate::hypergraph::mask_vertices;
use crate::hypotheses::Hypothesis;
use crate::query::{ConjunctiveQuery, Var};
use crate::star_size::quantified_star_size;
use std::fmt;

/// The evaluation task a verdict (and a plan) answers, matching the
/// paper's task taxonomy (§1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Task {
    /// Boolean decision: is `q(D)` non-empty?
    Decide,
    /// Counting: `|q(D)|`.
    Count,
    /// Producing all answers (materialized or enumerated).
    Answers,
    /// Direct access: the `i`-th answer in a query-chosen order.
    Access,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Task::Decide => "Boolean decision",
            Task::Count => "counting",
            Task::Answers => "answer production",
            Task::Access => "direct access",
        })
    }
}

/// Verdict for one evaluation task on one query.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// Solvable in Õ(m) (for enumeration: Õ(m) preprocessing + Õ(1)
    /// delay; for direct access: Õ(m) preprocessing + Õ(log m) access).
    Easy {
        /// Name of the algorithm achieving the bound (implemented in
        /// `cq-engine`).
        algorithm: &'static str,
        /// Paper reference for the upper bound.
        reference: &'static str,
    },
    /// Conditionally not solvable in (quasi-)linear time.
    Hard {
        /// The hypotheses the lower bound rests on (any of them suffices).
        hypotheses: Vec<Hypothesis>,
        /// Conditional runtime exponent lower bound in m, when the paper
        /// gives one (e.g. 2.0 for counting non-free-connex queries,
        /// `k` for quantified star size `k`).
        exponent: Option<f64>,
        /// Human-readable witness (embedded structure).
        witness: String,
        /// Paper reference for the lower bound.
        reference: &'static str,
    },
    /// The paper's theory does not settle this case (e.g. cyclic queries
    /// with self-joins for enumeration, see \[26\]).
    Open {
        /// Why it is open / out of scope.
        note: String,
    },
}

impl Verdict {
    /// Is this the easy side of the dichotomy?
    pub fn is_easy(&self) -> bool {
        matches!(self, Verdict::Easy { .. })
    }
    /// Is this the conditionally hard side?
    pub fn is_hard(&self) -> bool {
        matches!(self, Verdict::Hard { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Easy { algorithm, reference } => {
                write!(f, "EASY via {algorithm} [{reference}]")
            }
            Verdict::Hard { hypotheses, exponent, witness, reference } => {
                let hs: Vec<&str> = hypotheses.iter().map(|h| h.name()).collect();
                write!(
                    f,
                    "HARD under {} [{reference}]; witness: {witness}",
                    hs.join(" / ")
                )?;
                if let Some(e) = exponent {
                    write!(f, "; conditional lower bound m^{e}")?;
                }
                Ok(())
            }
            Verdict::Open { note } => write!(f, "OPEN: {note}"),
        }
    }
}

/// What the dichotomy theorems read off a query *shape*. It depends on
/// the query alone, never on data, so a server session computes it once
/// per statement and replans against new statistics with it.
#[derive(Clone, PartialEq, Debug)]
pub struct Structure {
    /// α-acyclic hypergraph?
    pub acyclic: bool,
    /// Free-connex (acyclic and `H ∪ {free}` acyclic)?
    pub free_connex: bool,
    /// All relation symbols distinct?
    pub self_join_free: bool,
    /// Every variable free?
    pub join_query: bool,
    /// No variable free?
    pub boolean: bool,
    /// Quantified star size (§4.4) — the counting exponent.
    pub star_size: usize,
    /// The AGM exponent ρ*(H): the worst-case output size is m^{ρ*} and
    /// the generic join runs in Õ(m^{ρ*}) (§2.1).
    pub agm_exponent: f64,
    /// Brault-Baron witness of a cyclic query (Thm 3.6), in the query's
    /// variable space. `None` when acyclic — and when the bounded search
    /// was cut ([`crate::brault_baron::WITNESS_SEARCH_BUDGET`]).
    pub witness: Option<Witness>,
}

impl Structure {
    /// Compute the structure of `q`: connexity, star size, the AGM
    /// exponent and, when cyclic, the witness search.
    pub fn of(q: &ConjunctiveQuery) -> Structure {
        let conn = connexity(q);
        Structure {
            acyclic: conn.acyclic,
            free_connex: conn.free_connex,
            self_join_free: q.is_self_join_free(),
            join_query: q.is_join_query(),
            boolean: q.is_boolean(),
            star_size: quantified_star_size(q),
            agm_exponent: crate::agm::agm_exponent(q),
            witness: if conn.acyclic {
                None
            } else {
                find_witness(&q.hypergraph()).witness
            },
        }
    }

    /// The task `task` comes down to on this shape: a Boolean query's
    /// count is its decision (`|q(D)| ∈ {0, 1}`), and so is its answer
    /// set when cyclic (acyclic, Thm 3.17 already enumerates it).
    pub fn effective_task(&self, task: Task) -> Task {
        match task {
            Task::Count if self.boolean => Task::Decide,
            Task::Answers if self.boolean && !self.acyclic => Task::Decide,
            _ => task,
        }
    }
}

/// Render a witness with the query's variable names.
fn witness_text(q: &ConjunctiveQuery, w: &Witness) -> String {
    let vars: Vec<&str> =
        mask_vertices(w.vertices).map(|v| q.var_name(Var(v as u32))).collect();
    match w.kind {
        WitnessKind::Cycle => {
            format!("induced cycle on {{{}}} (embeds triangle finding)", vars.join(", "))
        }
        WitnessKind::NearUniformHyperclique => format!(
            "{}-uniform hyperclique pattern on {{{}}} (Loomis–Whitney q^LW_{})",
            vars.len() - 1,
            vars.join(", "),
            vars.len()
        ),
    }
}

/// Thm 3.7's case split on a cyclic query: the hypothesis a faster
/// algorithm refutes, by witness kind, and the witness text. When the
/// witness search was cut, Thm 3.6 still promises one of the two kinds,
/// so one of the two hypotheses applies.
fn cyclic_case(q: &ConjunctiveQuery, s: &Structure) -> (Vec<Hypothesis>, String) {
    match &s.witness {
        Some(w) => {
            let hypothesis = match w.kind {
                WitnessKind::Cycle => Hypothesis::Triangle,
                WitnessKind::NearUniformHyperclique => Hypothesis::Hyperclique,
            };
            (vec![hypothesis], witness_text(q, w))
        }
        None => (
            vec![Hypothesis::Triangle, Hypothesis::Hyperclique],
            "an induced cycle or a near-uniform hyperclique pattern (one exists \
             by Thm 3.6; the witness search was cut at its work budget)"
                .to_string(),
        ),
    }
}

/// The hard verdict of a cyclic query under `reference`, resting on
/// [`cyclic_case`]'s hypotheses or on `also`.
fn cyclic_hard(
    q: &ConjunctiveQuery,
    s: &Structure,
    also: Option<Hypothesis>,
    reference: &'static str,
) -> Verdict {
    let (mut hypotheses, witness) = cyclic_case(q, s);
    hypotheses.extend(also);
    Verdict::Hard { hypotheses, exponent: None, witness, reference }
}

/// The dichotomy: the verdict for `task` on `q`, whose structure is `s`
/// (in `q`'s variable space). One arm per theorem case; nothing else
/// under `crates/` attaches a hypothesis to a query.
pub fn verdict(q: &ConjunctiveQuery, s: &Structure, task: Task) -> Verdict {
    let easy = |algorithm, reference| Verdict::Easy { algorithm, reference };
    let open = |note: &str| Verdict::Open { note: note.to_string() };
    let sjf = s.self_join_free;
    match s.effective_task(task) {
        // --- Boolean decision (Thm 3.1 / 3.7) ---
        Task::Decide if s.acyclic => easy("Yannakakis", "Thm 3.1"),
        Task::Decide if sjf => cyclic_hard(q, s, None, "Thm 3.7"),
        Task::Decide => Verdict::Open {
            note: format!(
                "cyclic with self-joins; Thm 3.7 needs self-join-freeness \
                 (cf. [14, 26]); contains {}",
                cyclic_case(q, s).1
            ),
        },

        // --- Counting (Thm 3.8 / 3.12 / 3.13 / 4.6) ---
        // Thm 3.8 does not require self-join freeness, on either side
        Task::Count if s.join_query && s.acyclic => {
            easy("Yannakakis counting DP", "Thm 3.8")
        }
        Task::Count if s.join_query => {
            cyclic_hard(q, s, None, "Thm 3.8 (self-joins via interpolation [35])")
        }
        Task::Count if s.free_connex => {
            easy("projection elimination + Yannakakis counting DP", "Thm 3.13")
        }
        Task::Count if s.acyclic && sjf => {
            let k = s.star_size.max(2);
            Verdict::Hard {
                hypotheses: vec![Hypothesis::Seth],
                exponent: Some(k as f64),
                witness: format!("embeds q*_{k} (quantified star size {})", s.star_size),
                reference: "Thm 3.12 / Thm 4.6",
            }
        }
        Task::Count if s.acyclic => Verdict::Open {
            note: format!(
                "acyclic, not free-connex, with self-joins; Thm 3.12 is \
                 stated self-join-free (but cf. Cor 3.11 for q*_k); \
                 quantified star size {}",
                s.star_size
            ),
        },
        Task::Count if sjf => {
            cyclic_hard(q, s, None, "Thm 3.13 (via Boolean decision, Thm 3.7)")
        }
        Task::Count => open(
            "cyclic with self-joins; counting hardness via interpolation \
             applies to join queries only here",
        ),

        // --- Enumeration (Thm 3.14 / 3.16 / 3.17 / 4.5) ---
        Task::Answers if s.free_connex => {
            easy("free-connex constant-delay enumeration", "Thm 3.17")
        }
        Task::Answers if s.acyclic && sjf => Verdict::Hard {
            hypotheses: vec![Hypothesis::SparseBmm],
            exponent: None,
            witness: "embeds q̄*_2; enumeration would do sparse Boolean MM".to_string(),
            reference: "Thm 3.16",
        },
        Task::Answers if s.acyclic => open(
            "acyclic, not free-connex, with self-joins; enumeration with \
             self-joins is subtle [26]",
        ),
        // Thm 4.5 gives join queries the same characterization from
        // Zero-k-Clique
        Task::Answers if sjf => {
            let also = s.join_query.then_some(Hypothesis::ZeroKClique);
            cyclic_hard(q, s, also, "Thm 3.14 / Thm 4.5")
        }
        Task::Answers => open(
            "cyclic with self-joins: constant-delay enumeration can exist \
             (see [14, 26])",
        ),

        // --- Direct access, query-chosen order (Thm 3.18) ---
        Task::Access if s.free_connex => easy(
            "free-connex direct access (linear preprocessing, log access)",
            "Thm 3.18",
        ),
        Task::Access if !sjf => {
            open("not free-connex, with self-joins; Thm 3.18 is stated self-join-free")
        }
        Task::Access if s.acyclic => Verdict::Hard {
            hypotheses: vec![Hypothesis::SparseBmm],
            exponent: None,
            witness: "direct access would enumerate q̄*_2".to_string(),
            reference: "Thm 3.18",
        },
        Task::Access => cyclic_hard(q, s, None, "Thm 3.18"),
    }
}

/// Complexity profile of a query across the paper's tasks.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Rendered query text.
    pub query: String,
    /// The structure the verdicts were read off.
    pub structure: Structure,
    /// Boolean decision (the query with all variables projected away).
    pub decision: Verdict,
    /// Counting |q(D)|.
    pub counting: Verdict,
    /// Constant-delay enumeration of q(D).
    pub enumeration: Verdict,
    /// Direct access in some query-chosen order (Thm 3.18).
    pub direct_access_unordered: Verdict,
}

/// Classify `q` across all tasks: [`verdict`], once per task.
pub fn classify(q: &ConjunctiveQuery) -> Profile {
    let structure = Structure::of(q);
    let on = |task| verdict(q, &structure, task);
    Profile {
        query: q.to_string(),
        decision: on(Task::Decide),
        counting: on(Task::Count),
        enumeration: on(Task::Answers),
        direct_access_unordered: on(Task::Access),
        structure,
    }
}

/// Classify lexicographic direct access of a *join query* with structure
/// `s` under the variable order `order` (Thm 3.24, Lemma 3.23).
pub fn classify_direct_access_lex(
    q: &ConjunctiveQuery,
    s: &Structure,
    order: &[Var],
) -> Verdict {
    if !s.join_query {
        return Verdict::Open {
            note: "Thm 3.24 covers join queries; for projections see the \
                   incompatibility number of [22]"
                .to_string(),
        };
    }
    if !s.acyclic {
        return cyclic_hard(q, s, None, "Thm 3.24 (via Boolean decision)");
    }
    match find_disruptive_trio(q, order) {
        None => Verdict::Easy {
            algorithm: "ordered join tree + mixed-radix navigation",
            reference: "Thm 3.24 [27]",
        },
        Some(t) => Verdict::Hard {
            // Lemma 3.23 derives the bound from the Triangle Hypothesis;
            // [22] re-derives it from Zero-k-Clique for all k.
            hypotheses: vec![Hypothesis::Triangle, Hypothesis::ZeroKClique],
            exponent: None,
            witness: format!(
                "disruptive trio ({}, {}, {}) embeds q̂*_2 with z last",
                q.var_name(t.y1),
                q.var_name(t.y2),
                q.var_name(t.y3)
            ),
            reference: "Thm 3.24 / Lemma 3.23",
        },
    }
}

/// Classify sum-order direct access of a self-join-free acyclic *join
/// query* (Thm 3.26, Lemma 3.25).
pub fn classify_direct_access_sum(q: &ConjunctiveQuery) -> Verdict {
    if !q.is_join_query() {
        return Verdict::Open { note: "Thm 3.26 covers join queries".to_string() };
    }
    let all = q.all_vars_mask();
    if q.atoms().iter().any(|a| a.scope() == all) {
        return Verdict::Easy {
            algorithm: "materialize the covering atom + sort by weight",
            reference: "Thm 3.26",
        };
    }
    // find two variables with no common atom (Lemma 3.25's precondition)
    let h = q.hypergraph();
    let n = q.n_vars();
    let pair = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .find(|&(a, b)| !h.adjacent(a, b));
    match pair {
        Some((a, b)) if q.is_self_join_free() => Verdict::Hard {
            hypotheses: vec![Hypothesis::ThreeSum],
            exponent: None,
            witness: format!(
                "variables {} and {} share no atom (Lemma 3.25 applies)",
                q.var_name(Var(a as u32)),
                q.var_name(Var(b as u32))
            ),
            reference: "Thm 3.26 / Lemma 3.25",
        },
        Some(_) => Verdict::Open {
            note: "Lemma 3.25 is stated for self-join-free queries".to_string(),
        },
        None => {
            // every pair co-occurs but no atom covers all variables —
            // only possible for cyclic queries (by [39, Lemma 19], in
            // acyclic hypergraphs max independent set = min edge cover).
            Verdict::Open {
                note: "all variable pairs co-occur but no atom covers all \
                       variables (cyclic); Lemma 3.25 does not apply"
                    .to_string(),
            }
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.structure;
        writeln!(f, "query: {}", self.query)?;
        writeln!(
            f,
            "structure: {}, {}, {}, quantified star size {}, AGM exponent {:.2}",
            if s.acyclic { "acyclic" } else { "cyclic" },
            if s.free_connex { "free-connex" } else { "not free-connex" },
            if s.self_join_free { "self-join free" } else { "has self-joins" },
            s.star_size,
            s.agm_exponent,
        )?;
        writeln!(f, "  decision:      {}", self.decision)?;
        writeln!(f, "  counting:      {}", self.counting)?;
        writeln!(f, "  enumeration:   {}", self.enumeration)?;
        write!(f, "  direct access: {}", self.direct_access_unordered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::zoo;

    #[test]
    fn acyclic_join_all_easy() {
        let p = classify(&zoo::path_join(3));
        assert!(p.structure.acyclic && p.structure.free_connex);
        assert!(p.decision.is_easy());
        assert!(p.counting.is_easy());
        assert!(p.enumeration.is_easy());
        assert!(p.direct_access_unordered.is_easy());
    }

    #[test]
    fn triangle_hard_everywhere() {
        let p = classify(&zoo::triangle_boolean());
        assert!(!p.structure.acyclic);
        match &p.decision {
            Verdict::Hard { hypotheses, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::Triangle])
            }
            other => panic!("expected hard decision, got {other:?}"),
        }
        assert!(p.counting.is_hard());
        assert!(p.enumeration.is_hard());
    }

    #[test]
    fn lw5_hard_under_hyperclique() {
        let p = classify(&zoo::loomis_whitney_boolean(5));
        match &p.decision {
            Verdict::Hard { hypotheses, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::Hyperclique])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_counting_hard_with_star_exponent() {
        // q̄*_3: acyclic, not free-connex, self-join free, star size 3.
        let p = classify(&zoo::star_selfjoin_free(3));
        assert!(p.structure.acyclic && !p.structure.free_connex);
        match &p.counting {
            Verdict::Hard { hypotheses, exponent, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::Seth]);
                assert_eq!(*exponent, Some(3.0));
            }
            other => panic!("{other:?}"),
        }
        match &p.enumeration {
            Verdict::Hard { hypotheses, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::SparseBmm])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn selfjoin_star_counting_open() {
        // q*_2 has self-joins: Thm 3.12 formally doesn't cover it.
        let p = classify(&zoo::star_selfjoin(2));
        assert!(matches!(p.counting, Verdict::Open { .. }));
    }

    #[test]
    fn matmul_projection_profile() {
        let p = classify(&zoo::matmul_projection());
        let s = &p.structure;
        assert!(s.acyclic && !s.free_connex && s.self_join_free);
        assert!(p.decision.is_easy());
        match &p.counting {
            Verdict::Hard { exponent, .. } => assert_eq!(*exponent, Some(2.0)),
            other => panic!("{other:?}"),
        }
        assert!(p.enumeration.is_hard());
        assert!(p.direct_access_unordered.is_hard());
    }

    #[test]
    fn lex_direct_access_dichotomy_for_star_full() {
        let q = zoo::star_full(2);
        let x1 = q.var_by_name("x1").unwrap();
        let x2 = q.var_by_name("x2").unwrap();
        let z = q.var_by_name("z").unwrap();
        let s = Structure::of(&q);
        assert!(classify_direct_access_lex(&q, &s, &[z, x1, x2]).is_easy());
        assert!(classify_direct_access_lex(&q, &s, &[x1, x2, z]).is_hard());
    }

    #[test]
    fn lex_direct_access_cyclic_hard() {
        let q = zoo::triangle_join();
        let order: Vec<Var> = q.vars().collect();
        assert!(classify_direct_access_lex(&q, &Structure::of(&q), &order).is_hard());
    }

    #[test]
    fn sum_order_dichotomy() {
        // single-atom query: easy
        let q = crate::parse_query("q(a,b) :- R(a,b)").unwrap();
        assert!(classify_direct_access_sum(&q).is_easy());
        // path: x0 and x2 share no atom: 3SUM-hard
        let q = zoo::path_join(2);
        match classify_direct_access_sum(&q) {
            Verdict::Hard { hypotheses, .. } => {
                assert_eq!(hypotheses, vec![Hypothesis::ThreeSum])
            }
            other => panic!("{other:?}"),
        }
        // triangle join query: every pair co-occurs, no covering atom
        let q = zoo::triangle_join();
        assert!(matches!(classify_direct_access_sum(&q), Verdict::Open { .. }));
    }

    #[test]
    fn profile_display_mentions_tasks() {
        let p = classify(&zoo::matmul_projection());
        let s = p.to_string();
        for key in ["decision", "counting", "enumeration", "direct access"] {
            assert!(s.contains(key), "{s}");
        }
    }

    #[test]
    fn boolean_cyclic_selfjoin_open() {
        let q = zoo::clique_join(3).boolean_version();
        // uses E three times → self-joins → decision open per Thm 3.7 scope
        let p = classify(&q);
        assert!(matches!(p.decision, Verdict::Open { .. }));
    }

    #[test]
    fn witness_text_uses_query_names() {
        let q = zoo::triangle_boolean();
        let text = witness_text(&q, &Structure::of(&q).witness.unwrap());
        assert!(text.contains('x') && text.contains("cycle"), "{text}");
    }

    #[test]
    fn boolean_count_and_cyclic_boolean_answers_are_the_decision() {
        for q in [
            zoo::triangle_boolean(),
            zoo::path_boolean(3),
            zoo::loomis_whitney_boolean(4),
            zoo::clique_join(3).boolean_version(),
        ] {
            let p = classify(&q);
            assert_eq!(p.counting, p.decision, "{q}");
            if p.structure.acyclic {
                // Thm 3.17 enumerates the (at most one) empty answer
                assert!(p.enumeration.is_easy(), "{q}");
            } else {
                assert_eq!(p.enumeration, p.decision, "{q}");
            }
        }
    }

    #[test]
    fn a_cut_witness_search_still_cites_a_true_bound() {
        // a 20-cycle behind a ternary atom outruns the search budget
        // (see `brault_baron`'s tests): no witness, but Thm 3.6 promises
        // one of the two kinds
        let ring: Vec<String> =
            (0..20).map(|i| format!("E{i}(x{i}, x{})", (i + 1) % 20)).collect();
        let q = crate::parse_query(&format!("q() :- T(a, b, c), {}", ring.join(", ")))
            .unwrap();
        let p = classify(&q);
        assert!(!p.structure.acyclic && p.structure.witness.is_none());
        match &p.decision {
            Verdict::Hard { hypotheses, witness, reference, .. } => {
                assert_eq!(hypotheses, &[Hypothesis::Triangle, Hypothesis::Hyperclique]);
                assert!(witness.contains("search was cut"), "{witness}");
                assert_eq!(*reference, "Thm 3.7");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.counting, p.decision);
        assert!(p.direct_access_unordered.is_hard());
    }
}
