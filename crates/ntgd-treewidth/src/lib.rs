//! # ntgd-treewidth
//!
//! Tree decompositions and treewidth of interpretations.
//!
//! The paper's sufficient condition for decidability — the **stable tree model
//! property** (Definition 2, Theorem 2) — asks whether every satisfiable
//! `SM[D,Σ] ∧ ¬q` has a model of *finite treewidth*.  The treewidth of an
//! interpretation is defined through tree decompositions of its set of
//! positive literals (equivalently, of its Gaifman graph).  This crate makes
//! those notions executable:
//!
//! * [`GaifmanGraph`] — the undirected graph whose vertices are the terms of
//!   an interpretation, with an edge between two terms whenever they co-occur
//!   in an atom;
//! * [`TreeDecomposition`] — labelled trees with the two validity conditions
//!   of the paper's Section 3.4 ([`TreeDecomposition::validate`]) and their
//!   width;
//! * [`min_degree_decomposition`] / [`min_fill_decomposition`] — elimination
//!   order heuristics giving upper bounds on the treewidth;
//! * [`exact_treewidth`] — exact treewidth of small graphs via dynamic
//!   programming over vertex subsets;
//! * [`treewidth_upper_bound`] / [`interpretation_treewidth`] — convenience
//!   entry points for interpretations.
//!
//! The experiments use this to demonstrate Theorem 3's model-theoretic core:
//! stable models of weakly-acyclic programs are finite (treewidth trivially
//! finite and small), while the grid-like gadgets behind Theorems 4/5 produce
//! interpretations whose treewidth grows with the grid side.

pub mod decomposition;
pub mod exact;
pub mod graph;
pub mod heuristics;

pub use decomposition::{Bag, DecompositionError, TreeDecomposition};
pub use exact::exact_treewidth;
pub use graph::GaifmanGraph;
pub use heuristics::{min_degree_decomposition, min_fill_decomposition, EliminationOrder};

use ntgd_core::Interpretation;

/// An upper bound on the treewidth of an interpretation, computed with the
/// min-fill heuristic (exact on chordal graphs, and exact in practice on the
/// small structures produced by the chase and the stable-model engine).
pub fn treewidth_upper_bound(interpretation: &Interpretation) -> usize {
    let graph = GaifmanGraph::of_interpretation(interpretation);
    min_fill_decomposition(&graph).width()
}

/// The exact treewidth of an interpretation, if its Gaifman graph is small
/// enough for the exact algorithm (at most `max_vertices` vertices);
/// otherwise the min-fill upper bound is returned together with `false`.
pub fn interpretation_treewidth(
    interpretation: &Interpretation,
    max_vertices: usize,
) -> (usize, bool) {
    let graph = GaifmanGraph::of_interpretation(interpretation);
    if graph.vertex_count() <= max_vertices {
        (exact_treewidth(&graph), true)
    } else {
        (min_fill_decomposition(&graph).width(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_parser::parse_database;

    #[test]
    fn a_single_binary_atom_has_treewidth_one() {
        let db = parse_database("edge(a, b).").unwrap();
        let interpretation = db.to_interpretation();
        assert_eq!(treewidth_upper_bound(&interpretation), 1);
        assert_eq!(interpretation_treewidth(&interpretation, 16), (1, true));
    }

    #[test]
    fn a_path_has_treewidth_one_and_a_triangle_two() {
        let path = parse_database("edge(a, b). edge(b, c). edge(c, d).")
            .unwrap()
            .to_interpretation();
        assert_eq!(interpretation_treewidth(&path, 16).0, 1);

        let triangle = parse_database("edge(a, b). edge(b, c). edge(c, a).")
            .unwrap()
            .to_interpretation();
        assert_eq!(interpretation_treewidth(&triangle, 16).0, 2);
    }

    #[test]
    fn wide_atoms_force_large_bags() {
        let db = parse_database("r(a, b, c, d, e).").unwrap();
        let interpretation = db.to_interpretation();
        // All five terms co-occur, so every decomposition needs a bag with
        // all of them: treewidth 4.
        assert_eq!(interpretation_treewidth(&interpretation, 16), (4, true));
    }

    #[test]
    fn falls_back_to_the_heuristic_above_the_vertex_limit() {
        let db = parse_database("edge(a, b). edge(b, c). edge(c, d).").unwrap();
        let interpretation = db.to_interpretation();
        let (width, exact) = interpretation_treewidth(&interpretation, 2);
        assert!(!exact);
        assert_eq!(width, 1);
    }
}
