//! Linear work as an invariant, not a stopwatch: Theorems 3.1, 3.8,
//! 3.13 and 3.17 / 3.18 promise O(m) for deciding an acyclic query,
//! counting an acyclic join, counting a free-connex query and the
//! preprocessing of constant-delay enumeration, and the direct-access
//! structures build in O(m) too. Each test runs its operators' rows of
//! the exponent table (`exponents/mod.rs`): planned through the planner,
//! the operator's `steps` within `c · Σ|Rᵢ|`, exactly repeatable, and
//! fitted to within 0.05 of the plan's m^1.

mod exponents;

/// Every node visits its rows once and follows one link per child: a
/// tree of `n` equal relations takes `(2n − 1) · m` steps, under `2 · Σ`;
/// a false decision reads everything, a true one stops early.
#[test]
fn acyclic_counting_and_decision_take_linear_steps() {
    exponents::run("acyclic_counting_and_decision_take_linear_steps");
}

/// Thm 3.13: the fold runs over `q'`, whose messages are projections of
/// semijoin-reduced relations — never larger than the input.
#[test]
fn free_connex_counting_takes_linear_steps() {
    exponents::run("free_connex_counting_takes_linear_steps");
}

/// Thms 3.17 / 3.18: a cold preprocessing reduces `q'` in two passes
/// along the links of its tree, under `4 · Σ`, the same on every fresh
/// catalog; a warm one finds the tree, builds nothing and reports 0. The
/// lexicographic and free-connex direct-access builds reduce the same
/// way, under the same constant.
#[test]
fn enumeration_preprocessing_takes_linear_steps() {
    exponents::run("enumeration_preprocessing_takes_linear_steps");
}
