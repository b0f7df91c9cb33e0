//! # ntgd-sat
//!
//! A small, dependency-free CDCL SAT solver.
//!
//! The complexity-optimal algorithms of the paper (Theorem 6, Theorem 12,
//! Theorem 14) are guess-and-check procedures that consult an **NP oracle**:
//! the stability check of Section 5.2 is a coNP problem, and candidate-model
//! generation is an NP problem.  This crate provides that oracle as a
//! conflict-driven clause-learning SAT solver with watched literals, 1-UIP
//! clause learning, activity-based decision heuristics, restarts and
//! incremental solving under assumptions.
//!
//! The solver is deliberately compact (no preprocessing, no clause deletion)
//! but fully general; [`CnfBuilder`] adds the usual Tseitin-style helpers for
//! encoding implications whose heads are disjunctions of conjunctions, which
//! is exactly the shape produced by grounding NTGDs with existential
//! variables.
//!
//! **Search-order contract.**  Decisions branch on the unassigned variable
//! with the highest activity, lowest index on ties (see [`solver`]), so the
//! search — and the sequence of models an incremental enumeration finds — is
//! a pure function of the order in which variables and clauses are added.
//! Capped stable-model listings are samples in that order; the crate's
//! `trace_pin` test pins the search on a seeded corpus.

pub mod cnf;
pub mod solver;
pub mod types;

pub use cnf::CnfBuilder;
pub use solver::{SolveResult, Solver};
pub use types::{Lit, Var};
