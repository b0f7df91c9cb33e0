//! A small CNF construction layer on top of [`Solver`].
//!
//! The grounded stable-model formulas of `ntgd-sms` have the shape
//! `body⁺ ∧ ¬body⁻ → ⋁ᵢ (conjunction of head atoms)`.  [`CnfBuilder`] offers
//! Tseitin-style helpers to encode exactly that shape (plus the usual clause,
//! implication and cardinality helpers) without every caller re-implementing
//! auxiliary-variable bookkeeping.
//!
//! Every helper creates its auxiliary variable (if any) before emitting its
//! clauses, and emits them in a fixed order, so an encoding is a pure
//! function of the calls made: together with the solver's branching-order
//! contract (see [`crate::solver`]), the same calls always yield the same
//! search.

use crate::solver::{SolveResult, Solver};
use crate::types::{Lit, Var};

/// A thin wrapper around [`Solver`] with encoding helpers.
#[derive(Default)]
pub struct CnfBuilder {
    solver: Solver,
    /// Scratch buffers reused across calls: the clause being added, and a
    /// rule's head literals and current head conjunction.
    clause_buffer: Vec<Lit>,
    head_buffer: Vec<Lit>,
    conj_buffer: Vec<Lit>,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> CnfBuilder {
        CnfBuilder {
            solver: Solver::new(),
            clause_buffer: Vec::new(),
            head_buffer: Vec::new(),
            conj_buffer: Vec::new(),
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Creates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Adds a clause (a disjunction of literals).
    pub fn clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
    }

    /// Adds a unit clause forcing the literal.
    pub fn force(&mut self, lit: Lit) {
        self.clause(&[lit]);
    }

    /// Adds the clause `¬negated₁ ∨ … ∨ ¬negatedₙ ∨ plain₁ ∨ … ∨ plainₘ`,
    /// built in the scratch buffer.
    fn clause_of(&mut self, negated: &[Lit], plain: &[Lit]) {
        let mut c = std::mem::take(&mut self.clause_buffer);
        c.clear();
        c.extend(negated.iter().map(|&l| !l));
        c.extend_from_slice(plain);
        self.solver.add_clause(&c);
        self.clause_buffer = c;
    }

    /// Adds `⋀ antecedents → consequent`.
    pub fn implies_all(&mut self, antecedents: &[Lit], consequent: Lit) {
        self.clause_of(antecedents, &[consequent]);
    }

    /// Adds `⋀ antecedents → ⋁ consequents`.
    pub fn implies_any(&mut self, antecedents: &[Lit], consequents: &[Lit]) {
        self.clause_of(antecedents, consequents);
    }

    /// Returns a literal equivalent to the conjunction of `lits`
    /// (Tseitin encoding; a fresh variable is introduced).
    ///
    /// The empty conjunction yields a literal that is always true.
    pub fn and_lit(&mut self, lits: &[Lit]) -> Lit {
        if lits.len() == 1 {
            return lits[0];
        }
        let aux = self.new_var().positive();
        if lits.is_empty() {
            self.force(aux);
            return aux;
        }
        // aux -> each lit
        for &l in lits {
            self.clause(&[!aux, l]);
        }
        // all lits -> aux
        self.clause_of(lits, &[aux]);
        aux
    }

    /// Returns a literal equivalent to the disjunction of `lits`.
    ///
    /// The empty disjunction yields a literal that is always false.
    pub fn or_lit(&mut self, lits: &[Lit]) -> Lit {
        if lits.len() == 1 {
            return lits[0];
        }
        let aux = self.new_var().positive();
        if lits.is_empty() {
            self.force(!aux);
            return aux;
        }
        // each lit -> aux
        for &l in lits {
            self.clause(&[!l, aux]);
        }
        // aux -> some lit
        self.clause_of(&[aux], lits);
        aux
    }

    /// Encodes a *rule*: `⋀ body → ⋁ᵢ (⋀ headᵢ)` where each disjunct is a
    /// conjunction of literals.  This is exactly the shape of a ground NTGD /
    /// NDTGD under the stable model grounding.
    ///
    /// Each disjunct becomes one [`CnfBuilder::and_lit`] literal, in disjunct
    /// order (a one-literal disjunct is its own literal), before the rule's
    /// clause is added.  With no disjunct the rule forbids its body.
    pub fn rule<D>(&mut self, body: &[Lit], head_disjuncts: impl IntoIterator<Item = D>)
    where
        D: IntoIterator<Item = Lit>,
    {
        let mut heads = std::mem::take(&mut self.head_buffer);
        let mut conj = std::mem::take(&mut self.conj_buffer);
        heads.clear();
        for disjunct in head_disjuncts {
            conj.clear();
            conj.extend(disjunct);
            heads.push(self.and_lit(&conj));
        }
        self.clause_of(body, &heads);
        self.head_buffer = heads;
        self.conj_buffer = conj;
    }

    /// Adds "at least one of `lits`".
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        self.clause(lits);
    }

    /// Adds "at most one of `lits`" (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.clause(&[!lits[i], !lits[j]]);
            }
        }
    }

    /// Adds "exactly one of `lits`".
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Solves under assumptions.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve(assumptions)
    }

    /// Solves without assumptions.
    pub fn solve_unconstrained(&mut self) -> SolveResult {
        self.solver.solve(&[])
    }

    /// Read-only access to the underlying solver (for statistics).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_lit_is_equivalent_to_conjunction() {
        let mut b = CnfBuilder::new();
        let x = b.new_var().positive();
        let y = b.new_var().positive();
        let a = b.and_lit(&[x, y]);
        b.force(a);
        let m = b.solve(&[]).model().unwrap().to_vec();
        assert!(m[x.var().index()] && m[y.var().index()]);
        // Forcing ¬x makes it unsatisfiable.
        b.force(!x);
        assert!(!b.solve(&[]).is_sat());
    }

    #[test]
    fn or_lit_is_equivalent_to_disjunction() {
        let mut b = CnfBuilder::new();
        let x = b.new_var().positive();
        let y = b.new_var().positive();
        let o = b.or_lit(&[x, y]);
        b.force(o);
        b.force(!x);
        let m = b.solve(&[]).model().unwrap().to_vec();
        assert!(m[y.var().index()]);
        b.force(!y);
        assert!(!b.solve(&[]).is_sat());
    }

    #[test]
    fn empty_and_or() {
        let mut b = CnfBuilder::new();
        let t = b.and_lit(&[]);
        let f = b.or_lit(&[]);
        b.force(t);
        assert!(b.solve(&[]).is_sat());
        b.force(f);
        assert!(!b.solve(&[]).is_sat());
    }

    #[test]
    fn rule_encoding_requires_some_disjunct_when_body_holds() {
        // body: x.  head: (y ∧ z) ∨ w.
        let mut b = CnfBuilder::new();
        let x = b.new_var().positive();
        let y = b.new_var().positive();
        let z = b.new_var().positive();
        let w = b.new_var().positive();
        b.rule(&[x], [vec![y, z], vec![w]]);
        b.force(x);
        b.force(!w);
        let m = b.solve(&[]).model().unwrap().to_vec();
        assert!(m[y.var().index()] && m[z.var().index()]);
        // Forbidding both disjuncts contradicts the body.
        b.force(!y);
        assert!(!b.solve(&[]).is_sat());
    }

    #[test]
    fn rule_with_false_body_is_vacuous() {
        let mut b = CnfBuilder::new();
        let x = b.new_var().positive();
        let y = b.new_var().positive();
        b.rule(&[x], [vec![y]]);
        b.force(!x);
        b.force(!y);
        assert!(b.solve(&[]).is_sat());
    }

    #[test]
    fn exactly_one_encoding() {
        let mut b = CnfBuilder::new();
        let vs: Vec<Lit> = b.new_vars(4).into_iter().map(|v| v.positive()).collect();
        b.exactly_one(&vs);
        let m = b.solve(&[]).model().unwrap().to_vec();
        let count = vs.iter().filter(|l| m[l.var().index()]).count();
        assert_eq!(count, 1);
        // Forcing two of them true is unsatisfiable.
        b.force(vs[0]);
        b.force(vs[1]);
        assert!(!b.solve(&[]).is_sat());
    }

    #[test]
    fn implies_all_and_any() {
        let mut b = CnfBuilder::new();
        let x = b.new_var().positive();
        let y = b.new_var().positive();
        let z = b.new_var().positive();
        b.implies_all(&[x, y], z);
        b.force(x);
        b.force(y);
        let m = b.solve(&[]).model().unwrap().to_vec();
        assert!(m[z.var().index()]);
        let mut b2 = CnfBuilder::new();
        let x = b2.new_var().positive();
        let y = b2.new_var().positive();
        let z = b2.new_var().positive();
        b2.implies_any(&[x], &[y, z]);
        b2.force(x);
        b2.force(!y);
        let m = b2.solve(&[]).model().unwrap().to_vec();
        assert!(m[z.var().index()]);
    }
}
