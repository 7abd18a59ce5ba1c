//! Binding queries to database instances.
//!
//! Every algorithm starts by *binding* each atom `R(x, y, x)` to its
//! relation instance: rows inconsistent with repeated variables are
//! dropped and columns are collapsed so each bound atom ranges over its
//! *distinct* variables in first-occurrence order. After binding, all
//! engine algorithms can assume atoms have distinct variables.

use cq_core::{Atom, ConjunctiveQuery, Var};
use cq_data::{Database, Relation, Val};
use std::borrow::Cow;
use std::fmt;

/// Errors raised when a query cannot be evaluated on a database.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A body relation is missing from the database.
    MissingRelation(String),
    /// A relation has the wrong arity for its atom.
    ArityMismatch { relation: String, expected: usize, found: usize },
    /// The algorithm requires an acyclic query.
    NotAcyclic,
    /// The algorithm requires a free-connex query.
    NotFreeConnex,
    /// The algorithm requires a join query (all variables free).
    NotJoinQuery,
    /// The requested structure does not exist (e.g. no compatible join
    /// tree for a lexicographic order).
    Unsupported(String),
    /// Evaluation was cancelled before completion — a
    /// [`CancelToken`](crate::cancel::CancelToken) tripped (deadline
    /// exceeded, external cancel, or a liveness probe reported the
    /// caller gone). Partial results are discarded.
    Cancelled,
    /// The answer count does not fit the `u64` every counting surface
    /// reports (e.g. a five-way star over 10⁴-row relations sharing one
    /// hub value has 10²⁰ answers).
    CountOverflow,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingRelation(r) => write!(f, "missing relation `{r}`"),
            EvalError::ArityMismatch { relation, expected, found } => write!(
                f,
                "relation `{relation}` has arity {found}, atom expects {expected}"
            ),
            EvalError::NotAcyclic => write!(f, "query is not acyclic"),
            EvalError::NotFreeConnex => write!(f, "query is not free-connex"),
            EvalError::NotJoinQuery => write!(f, "query is not a join query"),
            EvalError::Unsupported(s) => write!(f, "unsupported: {s}"),
            EvalError::Cancelled => write!(f, "evaluation cancelled before completion"),
            EvalError::CountOverflow => write!(f, "answer count exceeds u64"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An atom bound to data: distinct variables (first-occurrence order) and
/// the filtered, collapsed relation instance.
#[derive(Clone, Debug)]
pub(crate) struct BoundAtom {
    /// Distinct variables in first-occurrence order.
    pub vars: Vec<Var>,
    /// Rows over exactly `vars` (arity = vars.len()), sorted + deduped.
    pub rel: Relation,
}

impl BoundAtom {
    /// Variable bitmask.
    pub fn scope(&self) -> u64 {
        self.vars.iter().fold(0, |m, v| m | v.mask())
    }

    /// Column index of variable `v` in this atom, if present.
    pub fn col_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&u| u == v)
    }
}

/// Look up and validate the relation instance of one atom: present and
/// of the right arity. Shared by [`bind`] and the catalog-aware
/// preparation paths so both report identical errors.
pub(crate) fn validate_atom<'a>(
    relation: &str,
    vars: &[Var],
    db: &'a Database,
) -> Result<&'a Relation, EvalError> {
    let rel = db
        .get(relation)
        .ok_or_else(|| EvalError::MissingRelation(relation.to_string()))?;
    if rel.arity() != vars.len() {
        return Err(EvalError::ArityMismatch {
            relation: relation.to_string(),
            expected: vars.len(),
            found: rel.arity(),
        });
    }
    Ok(rel)
}

/// An atom's distinct variables, in first-occurrence order.
pub(crate) fn distinct_vars(atom_vars: &[Var]) -> Vec<Var> {
    let mut vars: Vec<Var> = Vec::with_capacity(atom_vars.len());
    for &v in atom_vars {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars
}

/// Collapse a relation to an atom's distinct variables `vars`
/// (first-occurrence order): rows inconsistent with repeated variables
/// are dropped, repeated columns collapse to their first occurrence.
pub(crate) fn collapse_rel(atom_vars: &[Var], vars: &[Var], rel: &Relation) -> Relation {
    // filter rows consistent with repeats, collapse columns
    let keep_cols: Vec<usize> =
        vars.iter().map(|&v| atom_vars.iter().position(|&u| u == v).unwrap()).collect();
    let mut filtered = Relation::new(vars.len());
    let mut buf: Vec<Val> = vec![0; vars.len()];
    'rows: for row in rel.iter() {
        // repeated positions must agree
        for (i, &vi) in atom_vars.iter().enumerate() {
            let first = atom_vars.iter().position(|&u| u == vi).unwrap();
            if row[i] != row[first] {
                continue 'rows;
            }
        }
        for (b, &c) in buf.iter_mut().zip(&keep_cols) {
            *b = row[c];
        }
        filtered.push_row(&buf);
    }
    filtered.normalize();
    filtered
}

/// Bind one atom against `db`: its distinct variables and its rows over
/// them — the stored relation itself when the atom repeats no variable.
pub(crate) fn bind_atom<'a>(
    atom: &Atom,
    db: &'a Database,
) -> Result<(Vec<Var>, Cow<'a, Relation>), EvalError> {
    let rel = validate_atom(&atom.relation, &atom.vars, db)?;
    let vars = distinct_vars(&atom.vars);
    let rel = match vars.len() == atom.vars.len() {
        true => Cow::Borrowed(rel),
        false => Cow::Owned(collapse_rel(&atom.vars, &vars, rel)),
    };
    Ok((vars, rel))
}

/// Bind all atoms of `q` against `db`.
pub(crate) fn bind(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Vec<BoundAtom>, EvalError> {
    let _span = cq_obs::trace::span("op.bind");
    let owned =
        |(vars, rel): (_, Cow<Relation>)| BoundAtom { vars, rel: rel.into_owned() };
    q.atoms().iter().map(|atom| bind_atom(atom, db).map(owned)).collect()
}

/// Brute-force evaluation by backtracking over the variables — the
/// testing oracle every engine algorithm is validated against. Returns
/// the *distinct projections* of satisfying assignments onto the free
/// variables, sorted. Exponential; only for small inputs.
pub fn brute_force_answers(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Relation, EvalError> {
    let atoms = bind(q, db)?;
    let n = q.n_vars();
    // candidate values per variable: intersection of column values
    let mut domains: Vec<Vec<Val>> = vec![Vec::new(); n];
    let mut seen = vec![false; n];
    for a in &atoms {
        for (c, &v) in a.vars.iter().enumerate() {
            let col = a.rel.column_values(c);
            if !seen[v.index()] {
                domains[v.index()] = col;
                seen[v.index()] = true;
            } else {
                domains[v.index()].retain(|x| col.binary_search(x).is_ok());
            }
        }
    }
    let free: Vec<Var> = q.free_vars();
    let mut out = Relation::new(free.len());
    let mut assignment: Vec<Val> = vec![0; n];
    #[allow(clippy::too_many_arguments)]
    fn rec(
        v: usize,
        n: usize,
        domains: &[Vec<Val>],
        atoms: &[BoundAtom],
        assignment: &mut Vec<Val>,
        free: &[Var],
        out: &mut Relation,
        buf: &mut Vec<Val>,
    ) {
        if v == n {
            buf.clear();
            buf.extend(free.iter().map(|f| assignment[f.index()]));
            out.push_row(buf);
            return;
        }
        'vals: for &val in &domains[v] {
            assignment[v] = val;
            // check all atoms fully within assigned prefix 0..=v
            for a in atoms {
                if a.vars.iter().any(|u| u.index() > v) {
                    continue;
                }
                if a.vars.iter().all(|u| u.index() <= v) {
                    let row: Vec<Val> =
                        a.vars.iter().map(|u| assignment[u.index()]).collect();
                    if !a.rel.contains(&row) {
                        continue 'vals;
                    }
                }
            }
            rec(v + 1, n, domains, atoms, assignment, free, out, buf);
        }
    }
    let mut buf = Vec::with_capacity(free.len());
    rec(0, n, &domains, &atoms, &mut assignment, &free, &mut out, &mut buf);
    out.normalize();
    Ok(out)
}

/// Brute-force Boolean decision.
pub fn brute_force_decide(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<bool, EvalError> {
    let all = brute_force_answers(&q.join_version(), db)?;
    Ok(!all.is_empty())
}

/// Brute-force answer count (distinct free-variable projections).
///
/// Boolean queries count 0 or 1: [`brute_force_answers`] projects onto
/// no columns, yielding the nullary relation `{()}` or `{}`.
pub fn brute_force_count(q: &ConjunctiveQuery, db: &Database) -> Result<u64, EvalError> {
    Ok(brute_force_answers(q, db)?.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::parse_query;
    use cq_data::Relation;

    fn db_simple() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2), (2, 3), (3, 3)]));
        db.insert("S", Relation::from_pairs(vec![(2, 9), (3, 9)]));
        db
    }

    #[test]
    fn bind_plain() {
        let q = parse_query("q(x,y) :- R(x,y)").unwrap();
        let b = bind(&q, &db_simple()).unwrap();
        assert_eq!(b[0].rel.len(), 3);
        assert_eq!(b[0].vars.len(), 2);
    }

    #[test]
    fn bind_repeated_var_filters_diagonal() {
        let q = parse_query("q(x) :- R(x,x)").unwrap();
        let b = bind(&q, &db_simple()).unwrap();
        // only (3,3) survives, collapsed to (3)
        assert_eq!(b[0].rel.len(), 1);
        assert_eq!(b[0].rel.row(0), &[3]);
        assert_eq!(b[0].vars.len(), 1);
    }

    #[test]
    fn bind_missing_relation() {
        let q = parse_query("q(x) :- T(x, y)").unwrap();
        assert_eq!(
            bind(&q, &db_simple()).unwrap_err(),
            EvalError::MissingRelation("T".into())
        );
    }

    #[test]
    fn bind_arity_mismatch() {
        let q = parse_query("q(x) :- R(x, y, z)").unwrap();
        assert!(matches!(
            bind(&q, &db_simple()).unwrap_err(),
            EvalError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn brute_force_path_join() {
        let q = parse_query("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let ans = brute_force_answers(&q, &db_simple()).unwrap();
        // R ⨝ S on y: (1,2,9), (2,3,9), (3,3,9)
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&[1, 2, 9]));
        assert!(ans.contains(&[2, 3, 9]));
        assert!(ans.contains(&[3, 3, 9]));
    }

    #[test]
    fn brute_force_projection_dedups() {
        let q = parse_query("q(z) :- R(x, y), S(y, z)").unwrap();
        let ans = brute_force_answers(&q, &db_simple()).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[9]));
    }

    #[test]
    fn brute_force_boolean() {
        let q = parse_query("q() :- R(x, y), S(y, z)").unwrap();
        assert!(brute_force_decide(&q, &db_simple()).unwrap());
        let q2 = parse_query("q() :- R(x, x), S(x, x)").unwrap();
        assert!(!brute_force_decide(&q2, &db_simple()).unwrap());
    }

    #[test]
    fn brute_force_count_triangle() {
        let mut db = Database::new();
        let e = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
        db.insert("R1", e.clone());
        db.insert("R2", e.clone());
        db.insert("R3", e);
        let q = parse_query("q(x,y,z) :- R1(x,y), R2(y,z), R3(z,x)").unwrap();
        let ans = brute_force_answers(&q, &db).unwrap();
        // directed triangles in {0→1→2→0, 0→2→0? (0,2),(2,0),(0,0)? no}
        // edges: 0→1,1→2,2→0,0→2. Triangles x→y→z→x: (0,1,2),(1,2,0),(2,0,1) and
        // using 0→2: (x,y,z)=(2,0,2)? needs z≠ constraint? No constraint —
        // (0,2,0): R1(0,2) ✓ R2(2,0) ✓ R3(0,0) ✗. So 3 answers.
        assert_eq!(ans.len(), 3);
    }
}
