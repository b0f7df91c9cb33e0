//! The position (dependency) graph of Fagin et al., as in Definition 3 of the
//! paper.
//!
//! Vertices are positions `p[i]`; for every rule `σ`, every universally
//! quantified variable `X` occurring in the head and every position `π` of `X`
//! in the body:
//!
//! * a **regular** edge `(π, π')` for every position `π'` of `X` in the head;
//! * a **special** edge `(π, π'')` for every position `π''` of an
//!   existentially quantified variable in the head.

use std::collections::{BTreeMap, BTreeSet};

use ntgd_core::{Ntgd, Position, Program, Term};

/// The kind of a position-graph edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// A term may be copied from the source to the target position.
    Regular,
    /// Propagating a term into the source position creates a fresh null in
    /// the target position.
    Special,
}

/// The position graph `PoG(Σ)` of a program.
#[derive(Clone, Debug, Default)]
pub struct PositionGraph {
    vertices: BTreeSet<Position>,
    edges: BTreeSet<(Position, Position, EdgeKind)>,
}

impl PositionGraph {
    /// Builds the position graph of the *given rules as they are* (callers
    /// are responsible for passing `Σ⁺` when required).
    pub fn build(program: &Program) -> PositionGraph {
        let mut graph = PositionGraph::default();
        if let Ok(schema) = program.schema() {
            graph.vertices.extend(schema.positions());
        }
        for (_, rule) in program.iter() {
            graph.add_rule(rule);
        }
        graph
    }

    fn add_rule(&mut self, rule: &Ntgd) {
        let universal = rule.universal_variables();
        let existential = rule.existential_variables();
        // Positions of each universal variable in the positive body.
        let mut body_positions: BTreeMap<ntgd_core::Symbol, Vec<Position>> = BTreeMap::new();
        for atom in rule.body_positive() {
            for (i, term) in atom.args().iter().enumerate() {
                if let Term::Var(v) = term {
                    if universal.contains(v) {
                        body_positions
                            .entry(*v)
                            .or_default()
                            .push(Position::new(atom.predicate(), i + 1));
                    }
                }
            }
        }
        // Head positions of universal and existential variables.
        for atom in rule.head() {
            for (i, term) in atom.args().iter().enumerate() {
                let Term::Var(v) = term else { continue };
                let head_pos = Position::new(atom.predicate(), i + 1);
                if universal.contains(v) {
                    // Regular edges from every body position of v.
                    for src in body_positions.get(v).cloned().unwrap_or_default() {
                        self.edges.insert((src, head_pos, EdgeKind::Regular));
                    }
                } else if existential.contains(v) {
                    // Special edges from every body position of every
                    // universal variable that occurs in the head.
                    for (uvar, srcs) in &body_positions {
                        if rule.head_variables().contains(uvar) {
                            for src in srcs {
                                self.edges.insert((*src, head_pos, EdgeKind::Special));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The vertices (positions) of the graph.
    pub fn vertices(&self) -> impl Iterator<Item = &Position> + '_ {
        self.vertices.iter()
    }

    /// The edges of the graph.
    pub fn edges(&self) -> impl Iterator<Item = &(Position, Position, EdgeKind)> + '_ {
        self.edges.iter()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of special edges.
    pub fn special_edge_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|(_, _, k)| *k == EdgeKind::Special)
            .count()
    }

    /// Returns `true` if the graph has an edge between the two positions.
    pub fn has_edge(&self, from: Position, to: Position, kind: EdgeKind) -> bool {
        self.edges.contains(&(from, to, kind))
    }

    /// Computes the strongly connected components of the graph (Tarjan).
    /// Returns, for every position, the index of its component.
    pub fn strongly_connected_components(&self) -> BTreeMap<Position, usize> {
        // Iterative Tarjan to avoid recursion limits on large schemas.
        let vertices: Vec<Position> = self.vertices.iter().copied().collect();
        let index_of: BTreeMap<Position, usize> =
            vertices.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); vertices.len()];
        for (f, t, _) in &self.edges {
            if let (Some(&fi), Some(&ti)) = (index_of.get(f), index_of.get(t)) {
                adj[fi].push(ti);
            }
        }
        let n = vertices.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut components: Vec<usize> = vec![usize::MAX; n];
        let mut component_count = 0usize;

        #[derive(Clone)]
        struct Frame {
            v: usize,
            child: usize,
        }

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call_stack = vec![Frame { v: start, child: 0 }];
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(frame) = call_stack.last().cloned() {
                let v = frame.v;
                if frame.child < adj[v].len() {
                    let w = adj[v][frame.child];
                    call_stack.last_mut().expect("frame exists").child += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push(Frame { v: w, child: 0 });
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(parent) = call_stack.last() {
                        lowlink[parent.v] = lowlink[parent.v].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("stack not empty");
                            on_stack[w] = false;
                            components[w] = component_count;
                            if w == v {
                                break;
                            }
                        }
                        component_count += 1;
                    }
                }
            }
        }
        vertices
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, components[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_core::Symbol;
    use ntgd_parser::parse_program;

    fn pos_of(p: &str, i: usize) -> Position {
        Position::new(Symbol::intern(p), i)
    }

    #[test]
    fn regular_and_special_edges_follow_definition_3() {
        // person(X) -> hasFather(X, Y):
        //   regular  person[1] -> hasFather[1]
        //   special  person[1] -> hasFather[2]
        let p = parse_program("person(X) -> hasFather(X, Y).").unwrap();
        let g = PositionGraph::build(&p);
        assert!(g.has_edge(
            pos_of("person", 1),
            pos_of("hasFather", 1),
            EdgeKind::Regular
        ));
        assert!(g.has_edge(
            pos_of("person", 1),
            pos_of("hasFather", 2),
            EdgeKind::Special
        ));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.special_edge_count(), 1);
    }

    #[test]
    fn variables_not_propagated_to_head_generate_no_special_edges() {
        // t(X, Y, Z) -> s(Y, W): only Y reaches the head, so special edges
        // originate from t[2] only.
        let p = parse_program("t(X, Y, Z) -> s(Y, W).").unwrap();
        let g = PositionGraph::build(&p);
        assert!(g.has_edge(pos_of("t", 2), pos_of("s", 1), EdgeKind::Regular));
        assert!(g.has_edge(pos_of("t", 2), pos_of("s", 2), EdgeKind::Special));
        assert!(!g.has_edge(pos_of("t", 1), pos_of("s", 2), EdgeKind::Special));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn datalog_rules_have_only_regular_edges() {
        let p = parse_program("e(X, Y) -> r(Y, X).").unwrap();
        let g = PositionGraph::build(&p);
        assert_eq!(g.special_edge_count(), 0);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn vertices_cover_the_whole_schema() {
        let p = parse_program("p(X) -> q(X, Y).").unwrap();
        let g = PositionGraph::build(&p);
        assert_eq!(g.vertices().count(), 3);
    }

    #[test]
    fn scc_identifies_cycles() {
        // p[1] -> q[1] -> p[1] forms a cycle, r[1] is separate.
        let p = parse_program("p(X) -> q(X). q(X) -> p(X). p(X) -> r(X).").unwrap();
        let g = PositionGraph::build(&p);
        let scc = g.strongly_connected_components();
        assert_eq!(scc[&pos_of("p", 1)], scc[&pos_of("q", 1)]);
        assert_ne!(scc[&pos_of("p", 1)], scc[&pos_of("r", 1)]);
    }

    #[test]
    fn multiple_body_occurrences_produce_edges_from_each_position() {
        let p = parse_program("e(X, X) -> f(X, Y).").unwrap();
        let g = PositionGraph::build(&p);
        assert!(g.has_edge(pos_of("e", 1), pos_of("f", 1), EdgeKind::Regular));
        assert!(g.has_edge(pos_of("e", 2), pos_of("f", 1), EdgeKind::Regular));
        assert!(g.has_edge(pos_of("e", 1), pos_of("f", 2), EdgeKind::Special));
        assert!(g.has_edge(pos_of("e", 2), pos_of("f", 2), EdgeKind::Special));
    }
}
