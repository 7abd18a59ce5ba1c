//! Conjunctive query intermediate representation.
//!
//! A conjunctive query is `q(X) :- R1(X1), ..., Rl(Xl)` where `X ⊆ ∪ Xi`
//! (paper §2.1). We intern variable names to small integer [`Var`]s so the
//! structural algorithms can work on bitmasks; queries are restricted to
//! at most 64 variables, which covers every query the fine-grained theory
//! is ever applied to (queries are *fixed* in data complexity).

use std::fmt;

/// A query variable, identified by its index into the query's variable
/// table. `Var(i)` corresponds to bit `i` in variable bitmasks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The bitmask containing exactly this variable.
    #[inline]
    pub fn mask(self) -> u64 {
        1u64 << self.0
    }
    /// The index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One atom `R(x1, ..., xr)` of a query body.
///
/// `vars` is the *argument list* in order; the same variable may repeat
/// within an atom (e.g. `R(x, x)`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Atom {
    /// Name of the relation symbol.
    pub relation: String,
    /// Arguments in positional order (repeats allowed).
    pub vars: Vec<Var>,
}

impl Atom {
    /// Bitmask of the variables occurring in this atom (its *scope*).
    pub fn scope(&self) -> u64 {
        self.vars.iter().fold(0u64, |m, v| m | v.mask())
    }
    /// Arity of the relation symbol (number of argument positions).
    pub fn arity(&self) -> usize {
        self.vars.len()
    }
}

/// Errors from query construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryError {
    /// More than 64 distinct variables.
    TooManyVariables(usize),
    /// A free variable does not occur in any atom.
    FreeVariableNotInBody(String),
    /// The body is empty.
    EmptyBody,
    /// Two atoms use the same relation symbol with different arities.
    InconsistentArity(String),
    /// A duplicated variable name was declared.
    DuplicateVariable(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::TooManyVariables(n) => {
                write!(f, "query has {n} variables; at most 64 are supported")
            }
            QueryError::FreeVariableNotInBody(v) => {
                write!(f, "free variable `{v}` does not occur in the body")
            }
            QueryError::EmptyBody => write!(f, "query body is empty"),
            QueryError::InconsistentArity(r) => {
                write!(f, "relation `{r}` used with two different arities")
            }
            QueryError::DuplicateVariable(v) => {
                write!(f, "variable `{v}` declared twice")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive query `q(X) :- R1(X1), ..., Rl(Xl)`.
///
/// Terminology from the paper (§2.1):
/// * *join query*: every variable is free (`X = ∪ Xi`);
/// * *Boolean query*: no variable is free (`X = ∅`);
/// * *self-join free*: all relation symbols distinct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    name: String,
    var_names: Vec<String>,
    atoms: Vec<Atom>,
    /// Bitmask of free (output) variables.
    free_mask: u64,
}

impl ConjunctiveQuery {
    pub(crate) fn new_unchecked(
        name: String,
        var_names: Vec<String>,
        atoms: Vec<Atom>,
        free_mask: u64,
    ) -> Self {
        ConjunctiveQuery { name, var_names, atoms, free_mask }
    }

    /// The query's head name (`q` by default).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of distinct variables.
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// All variables, in interning order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.var_names.len() as u32).map(Var)
    }

    /// The name of variable `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Look a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names.iter().position(|n| n == name).map(|i| Var(i as u32))
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The relation symbol of each body atom, in atom order (a
    /// self-join's symbol repeats) — everything the query reads.
    pub fn relations(&self) -> impl Iterator<Item = &str> + Clone {
        self.atoms.iter().map(|a| a.relation.as_str())
    }

    /// Bitmask of all variables.
    pub fn all_vars_mask(&self) -> u64 {
        if self.var_names.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.var_names.len()) - 1
        }
    }

    /// Bitmask of the free (output) variables.
    pub fn free_mask(&self) -> u64 {
        self.free_mask
    }

    /// Free variables in interning order.
    pub fn free_vars(&self) -> Vec<Var> {
        self.vars().filter(|v| self.free_mask & v.mask() != 0).collect()
    }

    /// Bitmask of the existentially quantified (projected-away) variables.
    pub fn quantified_mask(&self) -> u64 {
        self.all_vars_mask() & !self.free_mask
    }

    /// Is this a Boolean query (`X = ∅`)?
    pub fn is_boolean(&self) -> bool {
        self.free_mask == 0
    }

    /// Is this a join query (every variable free)?
    pub fn is_join_query(&self) -> bool {
        self.free_mask == self.all_vars_mask()
    }

    /// Is the query self-join free (all relation symbols distinct)?
    pub fn is_self_join_free(&self) -> bool {
        let mut names: Vec<&str> = self.relations().collect();
        names.sort_unstable();
        names.windows(2).all(|w| w[0] != w[1])
    }

    /// The query hypergraph: vertices = variables, edges = atom scopes
    /// (paper §2.1).
    pub fn hypergraph(&self) -> crate::Hypergraph {
        crate::Hypergraph::new(
            self.n_vars(),
            self.atoms.iter().map(|a| a.scope()).collect(),
        )
    }

    /// The Boolean version of this query (all variables projected away).
    pub fn boolean_version(&self) -> ConjunctiveQuery {
        let mut q = self.clone();
        q.free_mask = 0;
        q
    }

    /// The join-query version (all variables free).
    pub fn join_version(&self) -> ConjunctiveQuery {
        let mut q = self.clone();
        q.free_mask = q.all_vars_mask();
        q
    }

    /// Replace the free variables (mask must be a subset of the variables).
    pub fn with_free_mask(&self, free_mask: u64) -> ConjunctiveQuery {
        assert_eq!(
            free_mask & !self.all_vars_mask(),
            0,
            "free mask contains unknown variables"
        );
        let mut q = self.clone();
        q.free_mask = free_mask;
        q
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        let mut first = true;
        for v in self.vars() {
            if self.free_mask & v.mask() != 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_name(v))?;
                first = false;
            }
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.relation)?;
            for (j, v) in a.vars.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_name(*v))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Builder for [`ConjunctiveQuery`].
///
/// ```
/// use cq_core::QueryBuilder;
/// let mut b = QueryBuilder::new("q");
/// let x = b.var("x");
/// let y = b.var("y");
/// let z = b.var("z");
/// b.atom("R", &[x, y]);
/// b.atom("S", &[y, z]);
/// b.free(&[x, z]);
/// let q = b.build().unwrap();
/// assert_eq!(q.to_string(), "q(x, z) :- R(x, y), S(y, z)");
/// ```
#[derive(Clone, Debug)]
pub struct QueryBuilder {
    name: String,
    var_names: Vec<String>,
    atoms: Vec<Atom>,
    free: Vec<Var>,
    free_set: bool,
}

impl QueryBuilder {
    /// Start a query with the given head name.
    pub fn new(name: &str) -> Self {
        QueryBuilder {
            name: name.to_string(),
            var_names: Vec::new(),
            atoms: Vec::new(),
            free: Vec::new(),
            free_set: false,
        }
    }

    /// Intern a variable by name; returns the existing [`Var`] if the name
    /// was seen before.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return Var(i as u32);
        }
        self.var_names.push(name.to_string());
        Var((self.var_names.len() - 1) as u32)
    }

    /// Add a body atom.
    pub fn atom(&mut self, relation: &str, vars: &[Var]) -> &mut Self {
        self.atoms.push(Atom { relation: relation.to_string(), vars: vars.to_vec() });
        self
    }

    /// Declare the free (output) variables. If never called, the query is
    /// a join query (all variables free).
    pub fn free(&mut self, vars: &[Var]) -> &mut Self {
        self.free = vars.to_vec();
        self.free_set = true;
        self
    }

    /// Finish building.
    pub fn build(self) -> Result<ConjunctiveQuery, QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        if self.var_names.len() > 64 {
            return Err(QueryError::TooManyVariables(self.var_names.len()));
        }
        // Relation symbols must be used with a consistent arity.
        for a in &self.atoms {
            for b in &self.atoms {
                if a.relation == b.relation && a.vars.len() != b.vars.len() {
                    return Err(QueryError::InconsistentArity(a.relation.clone()));
                }
            }
        }
        let all_mask = if self.var_names.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.var_names.len()) - 1
        };
        let free_mask = if self.free_set {
            self.free.iter().fold(0u64, |m, v| m | v.mask())
        } else {
            all_mask
        };
        // every declared free var must be a body var (they are interned
        // through `var`, so this holds by construction), and every var must
        // occur in some atom.
        let body_mask = self.atoms.iter().fold(0u64, |m, a| m | a.scope());
        if body_mask != all_mask {
            // find a variable not in the body for the error message
            for (i, n) in self.var_names.iter().enumerate() {
                if body_mask & (1u64 << i) == 0 {
                    return Err(QueryError::FreeVariableNotInBody(n.clone()));
                }
            }
        }
        Ok(ConjunctiveQuery::new_unchecked(
            self.name,
            self.var_names,
            self.atoms,
            free_mask,
        ))
    }
}

/// Well-known queries from the paper, available for tests, examples, and
/// benchmarks.
pub mod zoo {
    use super::*;

    /// The Boolean triangle query `q△() :- R1(x,y), R2(y,z), R3(z,x)`
    /// (paper §3.1.1).
    pub fn triangle_boolean() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("q_tri");
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.atom("R1", &[x, y]).atom("R2", &[y, z]).atom("R3", &[z, x]).free(&[]);
        b.build().unwrap()
    }

    /// The full triangle join query `q̄△(x,y,z)` (paper §3.1.1).
    pub fn triangle_join() -> ConjunctiveQuery {
        triangle_boolean().join_version()
    }

    /// The Boolean `k`-cycle query `q◦_k() :- R1(v1,v2), ..., Rk(vk,v1)`.
    pub fn cycle_boolean(k: usize) -> ConjunctiveQuery {
        assert!(k >= 3);
        let mut b = QueryBuilder::new(&format!("q_c{k}"));
        let vs: Vec<Var> = (0..k).map(|i| b.var(&format!("v{}", i + 1))).collect();
        for i in 0..k {
            b.atom(&format!("R{}", i + 1), &[vs[i], vs[(i + 1) % k]]);
        }
        b.free(&[]);
        b.build().unwrap()
    }

    /// The full `k`-cycle join query.
    pub fn cycle_join(k: usize) -> ConjunctiveQuery {
        cycle_boolean(k).join_version()
    }

    /// The Boolean `k`-dimensional Loomis–Whitney query `q^LW_k`
    /// (Example 3.4): one atom per (k−1)-subset of {x1..xk}.
    pub fn loomis_whitney_boolean(k: usize) -> ConjunctiveQuery {
        assert!(k >= 3);
        let mut b = QueryBuilder::new(&format!("q_lw{k}"));
        let vs: Vec<Var> = (0..k).map(|i| b.var(&format!("x{}", i + 1))).collect();
        for out in 0..k {
            let vars: Vec<Var> = (0..k).filter(|&i| i != out).map(|i| vs[i]).collect();
            b.atom(&format!("R{}", out + 1), &vars);
        }
        b.free(&[]);
        b.build().unwrap()
    }

    /// The star query with self-joins
    /// `q*_k(x1..xk) :- R(x1,z), ..., R(xk,z)` (paper §3.2).
    pub fn star_selfjoin(k: usize) -> ConjunctiveQuery {
        assert!(k >= 1);
        let mut b = QueryBuilder::new(&format!("q_star{k}"));
        let xs: Vec<Var> = (0..k).map(|i| b.var(&format!("x{}", i + 1))).collect();
        let z = b.var("z");
        for &x in &xs {
            b.atom("R", &[x, z]);
        }
        b.free(&xs);
        b.build().unwrap()
    }

    /// The self-join-free star query
    /// `q̄*_k(x1..xk) :- R1(x1,z), ..., Rk(xk,z)` (paper §3.3).
    pub fn star_selfjoin_free(k: usize) -> ConjunctiveQuery {
        assert!(k >= 1);
        let mut b = QueryBuilder::new(&format!("q_sjfstar{k}"));
        let xs: Vec<Var> = (0..k).map(|i| b.var(&format!("x{}", i + 1))).collect();
        let z = b.var("z");
        for (i, &x) in xs.iter().enumerate() {
            b.atom(&format!("R{}", i + 1), &[x, z]);
        }
        b.free(&xs);
        b.build().unwrap()
    }

    /// The full star query `q̂*_k(x1..xk,z) :- R(x1,z), ..., R(xk,z)`
    /// (paper §3.4.1): like `q*_k` but with `z` also free.
    pub fn star_full(k: usize) -> ConjunctiveQuery {
        star_selfjoin(k).join_version()
    }

    /// A length-`k` path join query
    /// `q(x0..xk) :- R1(x0,x1), ..., Rk(x_{k-1},xk)` — the canonical
    /// acyclic query family.
    pub fn path_join(k: usize) -> ConjunctiveQuery {
        assert!(k >= 1);
        let mut b = QueryBuilder::new(&format!("q_path{k}"));
        let vs: Vec<Var> = (0..=k).map(|i| b.var(&format!("x{i}"))).collect();
        for i in 0..k {
            b.atom(&format!("R{}", i + 1), &[vs[i], vs[i + 1]]);
        }
        b.build().unwrap()
    }

    /// The Boolean version of the length-`k` path query.
    pub fn path_boolean(k: usize) -> ConjunctiveQuery {
        path_join(k).boolean_version()
    }

    /// The acyclic-but-not-free-connex “matrix multiplication” query
    /// `q(x, z) :- R1(x, y), R2(y, z)` (used for Theorems 3.12 / 3.15).
    pub fn matmul_projection() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("q_mm");
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.atom("R1", &[x, y]).atom("R2", &[y, z]).free(&[x, z]);
        b.build().unwrap()
    }

    /// The k-clique join query over a single edge relation
    /// `q_k(x1..xk) :- ⋀_{i≠j} E(xi, xj)` (paper §4.1.2).
    pub fn clique_join(k: usize) -> ConjunctiveQuery {
        assert!(k >= 2);
        let mut b = QueryBuilder::new(&format!("q_k{k}"));
        let vs: Vec<Var> = (0..k).map(|i| b.var(&format!("x{}", i + 1))).collect();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    b.atom("E", &[vs[i], vs[j]]);
                }
            }
        }
        b.build().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::zoo;
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = QueryBuilder::new("q");
        let x = b.var("x");
        let y = b.var("y");
        let x2 = b.var("x");
        assert_eq!(x, x2);
        b.atom("R", &[x, y]);
        let q = b.build().unwrap();
        assert!(q.is_join_query());
        assert!(!q.is_boolean());
        assert_eq!(q.n_vars(), 2);
        assert_eq!(q.to_string(), "q(x, y) :- R(x, y)");
    }

    #[test]
    fn empty_body_rejected() {
        let b = QueryBuilder::new("q");
        assert_eq!(b.build().unwrap_err(), QueryError::EmptyBody);
    }

    #[test]
    fn inconsistent_arity_rejected() {
        let mut b = QueryBuilder::new("q");
        let x = b.var("x");
        let y = b.var("y");
        b.atom("R", &[x, y]);
        b.atom("R", &[x]);
        assert_eq!(b.build().unwrap_err(), QueryError::InconsistentArity("R".into()));
    }

    #[test]
    fn triangle_is_boolean_and_selfjoin_free() {
        let q = zoo::triangle_boolean();
        assert!(q.is_boolean());
        assert!(q.is_self_join_free());
        assert_eq!(q.n_vars(), 3);
        assert_eq!(q.atoms().len(), 3);
    }

    #[test]
    fn star_selfjoin_detected() {
        assert!(!zoo::star_selfjoin(3).is_self_join_free());
        assert!(zoo::star_selfjoin_free(3).is_self_join_free());
    }

    #[test]
    fn star_masks() {
        let q = zoo::star_selfjoin(2);
        // vars x1, x2, z — z is quantified.
        let z = q.var_by_name("z").unwrap();
        assert_eq!(q.quantified_mask(), z.mask());
        assert_eq!(q.free_vars().len(), 2);
        let full = zoo::star_full(2);
        assert!(full.is_join_query());
    }

    #[test]
    fn loomis_whitney_structure() {
        let q = zoo::loomis_whitney_boolean(4);
        assert_eq!(q.atoms().len(), 4);
        for a in q.atoms() {
            assert_eq!(a.arity(), 3);
        }
    }

    #[test]
    fn boolean_and_join_versions() {
        let q = zoo::matmul_projection();
        assert!(!q.is_join_query());
        assert!(q.join_version().is_join_query());
        assert!(q.boolean_version().is_boolean());
    }

    #[test]
    fn clique_join_atom_count() {
        let q = zoo::clique_join(4);
        assert_eq!(q.atoms().len(), 12); // ordered pairs i≠j
        assert!(!q.is_self_join_free());
    }

    #[test]
    fn display_projected() {
        let q = zoo::matmul_projection();
        assert_eq!(q.to_string(), "q_mm(x, z) :- R1(x, y), R2(y, z)");
    }

    #[test]
    fn var_lookup() {
        let q = zoo::triangle_boolean();
        let x = q.var_by_name("x").unwrap();
        assert_eq!(q.var_name(x), "x");
        assert!(q.var_by_name("nope").is_none());
    }
}
