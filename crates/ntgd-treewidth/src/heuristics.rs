//! Elimination-order heuristics for tree decompositions.
//!
//! A (perfect) elimination order yields a tree decomposition in the standard
//! way: eliminate vertices one by one, each time creating a bag containing the
//! vertex and its current neighbours and turning that neighbourhood into a
//! clique.  The width obtained is an **upper bound** on the treewidth; the
//! classical *min-degree* and *min-fill* orderings are very good in practice
//! and exact on chordal graphs.

use std::collections::BTreeSet;

use ntgd_core::Term;

use crate::decomposition::TreeDecomposition;
use crate::graph::GaifmanGraph;

/// An elimination order over the vertex indices of a Gaifman graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EliminationOrder {
    order: Vec<usize>,
}

impl EliminationOrder {
    /// Creates an elimination order from explicit vertex indices.
    pub fn new(order: Vec<usize>) -> EliminationOrder {
        EliminationOrder { order }
    }

    /// The eliminated terms in order.
    pub fn terms(&self, graph: &GaifmanGraph) -> Vec<Term> {
        self.order.iter().map(|&i| graph.term_of(i)).collect()
    }

    /// Turns the elimination order into a tree decomposition of the graph.
    ///
    /// Each eliminated vertex contributes a bag `{v} ∪ N(v)` (neighbours in
    /// the partially filled-in graph); the bag is attached to the bag of the
    /// first neighbour eliminated later, which guarantees the connectedness
    /// condition.
    pub fn decomposition(&self, graph: &GaifmanGraph) -> TreeDecomposition {
        let n = graph.vertex_count();
        let mut decomposition = TreeDecomposition::new();
        if n == 0 {
            return decomposition;
        }
        let mut adjacency: Vec<BTreeSet<usize>> =
            (0..n).map(|v| graph.neighbours(v).clone()).collect();
        let mut eliminated = vec![false; n];
        let mut position = vec![usize::MAX; n];
        for (p, &v) in self.order.iter().enumerate() {
            position[v] = p;
        }
        // Node index of the bag created when each vertex was eliminated.
        let mut bag_of = vec![usize::MAX; n];

        for &v in &self.order {
            let neighbours: Vec<usize> = adjacency[v]
                .iter()
                .copied()
                .filter(|w| !eliminated[*w])
                .collect();
            let mut bag: BTreeSet<Term> = BTreeSet::from([graph.term_of(v)]);
            for &w in &neighbours {
                bag.insert(graph.term_of(w));
            }
            let node = decomposition.add_bag(bag);
            bag_of[v] = node;
            // Fill in: make the remaining neighbourhood a clique.
            for i in 0..neighbours.len() {
                for j in (i + 1)..neighbours.len() {
                    let (a, b) = (neighbours[i], neighbours[j]);
                    adjacency[a].insert(b);
                    adjacency[b].insert(a);
                }
            }
            eliminated[v] = true;
        }

        // Second pass: connect every bag to the bag of its parent (the
        // earliest-eliminated neighbour that comes later in the order).  If a
        // vertex has no later neighbour, connect it to the last bag to keep
        // the tree connected.
        let mut adjacency_filled: Vec<BTreeSet<usize>> =
            (0..n).map(|v| graph.neighbours(v).clone()).collect();
        let mut eliminated2 = vec![false; n];
        for &v in &self.order {
            let later: Vec<usize> = adjacency_filled[v]
                .iter()
                .copied()
                .filter(|w| !eliminated2[*w])
                .collect();
            if let Some(&parent) = later.iter().min_by_key(|w| position[**w]) {
                decomposition.add_edge(bag_of[v], bag_of[parent]);
            } else if bag_of[v] + 1 < decomposition.node_count() {
                // No later neighbour: attach to the final bag so the
                // decomposition stays a tree even for disconnected graphs.
                decomposition.add_edge(bag_of[v], decomposition.node_count() - 1);
            }
            for i in 0..later.len() {
                for j in (i + 1)..later.len() {
                    let (a, b) = (later[i], later[j]);
                    adjacency_filled[a].insert(b);
                    adjacency_filled[b].insert(a);
                }
            }
            eliminated2[v] = true;
        }

        decomposition
    }

    /// The width obtained by this elimination order (without materialising
    /// the decomposition).
    pub fn width(&self, graph: &GaifmanGraph) -> usize {
        let n = graph.vertex_count();
        let mut adjacency: Vec<BTreeSet<usize>> =
            (0..n).map(|v| graph.neighbours(v).clone()).collect();
        let mut eliminated = vec![false; n];
        let mut width = 0usize;
        for &v in &self.order {
            let neighbours: Vec<usize> = adjacency[v]
                .iter()
                .copied()
                .filter(|w| !eliminated[*w])
                .collect();
            width = width.max(neighbours.len());
            for i in 0..neighbours.len() {
                for j in (i + 1)..neighbours.len() {
                    let (a, b) = (neighbours[i], neighbours[j]);
                    adjacency[a].insert(b);
                    adjacency[b].insert(a);
                }
            }
            eliminated[v] = true;
        }
        width
    }
}

/// Computes an elimination order greedily by a scoring function over the
/// current (filled-in) neighbourhoods.
fn greedy_order<F>(graph: &GaifmanGraph, mut score: F) -> EliminationOrder
where
    F: FnMut(&[BTreeSet<usize>], &[bool], usize) -> usize,
{
    let n = graph.vertex_count();
    let mut adjacency: Vec<BTreeSet<usize>> = (0..n).map(|v| graph.neighbours(v).clone()).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|v| !eliminated[*v])
            .min_by_key(|&v| (score(&adjacency, &eliminated, v), v))
            .expect("some vertex remains");
        let neighbours: Vec<usize> = adjacency[v]
            .iter()
            .copied()
            .filter(|w| !eliminated[*w])
            .collect();
        for i in 0..neighbours.len() {
            for j in (i + 1)..neighbours.len() {
                let (a, b) = (neighbours[i], neighbours[j]);
                adjacency[a].insert(b);
                adjacency[b].insert(a);
            }
        }
        eliminated[v] = true;
        order.push(v);
    }
    EliminationOrder::new(order)
}

/// The min-degree heuristic: always eliminate a vertex of minimum remaining
/// degree.
pub fn min_degree_order(graph: &GaifmanGraph) -> EliminationOrder {
    greedy_order(graph, |adjacency, eliminated, v| {
        adjacency[v].iter().filter(|w| !eliminated[**w]).count()
    })
}

/// The min-fill heuristic: always eliminate a vertex whose elimination adds
/// the fewest fill-in edges.
pub fn min_fill_order(graph: &GaifmanGraph) -> EliminationOrder {
    greedy_order(graph, |adjacency, eliminated, v| {
        let neighbours: Vec<usize> = adjacency[v]
            .iter()
            .copied()
            .filter(|w| !eliminated[*w])
            .collect();
        let mut fill = 0usize;
        for i in 0..neighbours.len() {
            for j in (i + 1)..neighbours.len() {
                if !adjacency[neighbours[i]].contains(&neighbours[j]) {
                    fill += 1;
                }
            }
        }
        fill
    })
}

/// A tree decomposition obtained from the min-degree order.
pub fn min_degree_decomposition(graph: &GaifmanGraph) -> TreeDecomposition {
    min_degree_order(graph).decomposition(graph)
}

/// A tree decomposition obtained from the min-fill order.
pub fn min_fill_decomposition(graph: &GaifmanGraph) -> TreeDecomposition {
    min_fill_order(graph).decomposition(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_parser::parse_database;

    fn graph_of(text: &str) -> GaifmanGraph {
        GaifmanGraph::of_database(&parse_database(text).unwrap())
    }

    #[test]
    fn heuristic_decompositions_of_a_path_have_width_one() {
        let graph = graph_of("edge(a, b). edge(b, c). edge(c, d). edge(d, e).");
        for decomposition in [
            min_degree_decomposition(&graph),
            min_fill_decomposition(&graph),
        ] {
            assert_eq!(decomposition.validate(&graph), Ok(()));
            assert_eq!(decomposition.width(), 1);
        }
    }

    #[test]
    fn heuristic_decompositions_of_a_cycle_have_width_two() {
        let graph = graph_of("edge(a, b). edge(b, c). edge(c, d). edge(d, a).");
        for decomposition in [
            min_degree_decomposition(&graph),
            min_fill_decomposition(&graph),
        ] {
            assert_eq!(decomposition.validate(&graph), Ok(()));
            assert_eq!(decomposition.width(), 2);
        }
    }

    #[test]
    fn a_clique_needs_a_bag_with_every_vertex() {
        let graph = graph_of("r(a, b, c, d).");
        let decomposition = min_fill_decomposition(&graph);
        assert_eq!(decomposition.validate(&graph), Ok(()));
        assert_eq!(decomposition.width(), 3);
    }

    #[test]
    fn disconnected_graphs_still_produce_a_single_tree() {
        let graph = graph_of("edge(a, b). edge(c, d). p(e).");
        let decomposition = min_degree_decomposition(&graph);
        assert_eq!(decomposition.validate(&graph), Ok(()));
        assert_eq!(decomposition.width(), 1);
    }

    #[test]
    fn empty_graphs_yield_empty_decompositions() {
        let graph = GaifmanGraph::new();
        let decomposition = min_fill_decomposition(&graph);
        assert_eq!(decomposition.node_count(), 0);
        assert_eq!(decomposition.width(), 0);
    }

    #[test]
    fn width_shortcut_matches_the_materialised_decomposition() {
        let graph = graph_of("edge(a, b). edge(b, c). edge(c, a). edge(c, d).");
        let order = min_fill_order(&graph);
        assert_eq!(order.width(&graph), order.decomposition(&graph).width());
    }

    #[test]
    fn explicit_orders_are_respected() {
        let graph = graph_of("edge(a, b). edge(b, c).");
        // Eliminating the middle vertex first creates a bag {a, b, c}.
        let middle = graph.index_of(&ntgd_core::cst("b")).unwrap();
        let others: Vec<usize> = (0..graph.vertex_count()).filter(|v| *v != middle).collect();
        let mut order = vec![middle];
        order.extend(others);
        let order = EliminationOrder::new(order);
        assert_eq!(order.width(&graph), 2);
        let decomposition = order.decomposition(&graph);
        assert_eq!(decomposition.validate(&graph), Ok(()));
        assert_eq!(decomposition.width(), 2);
    }
}
