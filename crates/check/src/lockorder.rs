//! Lock-order graph with cycle detection.
//!
//! Every time a thread acquires lock `b` while holding lock `a`, the edge
//! `a → b` is recorded (keyed by lock *label*, so the graph accumulates
//! across executions — labels are stable, per-execution lock ids are not).
//! A cycle in the accumulated graph means two code paths acquire the same
//! locks in conflicting orders: a potential deadlock, reported even when
//! no explored schedule actually deadlocked.

use std::collections::{BTreeMap, BTreeSet};

/// The accumulated acquired-while-holding relation.
#[derive(Debug, Clone, Default)]
pub struct LockOrderGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl LockOrderGraph {
    /// An empty graph.
    pub(crate) fn new() -> LockOrderGraph {
        LockOrderGraph::default()
    }

    /// Records that `inner` was acquired while `outer` was held.
    /// Self-edges (re-entrant shapes) are kept: they are cycles too.
    pub(crate) fn add_edge(&mut self, outer: &str, inner: &str) {
        self.edges
            .entry(outer.to_string())
            .or_default()
            .insert(inner.to_string());
    }

    /// All recorded edges as `(outer, inner)` pairs, sorted.
    pub(crate) fn edges(&self) -> Vec<(String, String)> {
        self.edges
            .iter()
            .flat_map(|(a, bs)| bs.iter().map(move |b| (a.clone(), b.clone())))
            .collect()
    }

    /// Cycles in the graph: every strongly connected component with more
    /// than one lock, plus self-loops. Each cycle is the sorted list of
    /// participating lock labels.
    pub(crate) fn cycles(&self) -> Vec<Vec<String>> {
        // Tarjan's SCC over the (small) label graph.
        let nodes: Vec<&String> = self.edges.keys().collect();
        let index_of: BTreeMap<&str, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut state = Tarjan {
            graph: self,
            nodes: &nodes,
            index_of: &index_of,
            index: 0,
            indices: vec![None; nodes.len()],
            lowlink: vec![0; nodes.len()],
            on_stack: vec![false; nodes.len()],
            stack: Vec::new(),
            sccs: Vec::new(),
        };
        for v in 0..nodes.len() {
            if state.indices[v].is_none() {
                state.strongconnect(v);
            }
        }
        let mut cycles = Vec::new();
        for scc in state.sccs {
            let is_cycle = scc.len() > 1
                || self
                    .edges
                    .get(nodes[scc[0]].as_str())
                    .is_some_and(|bs| bs.contains(nodes[scc[0]].as_str()));
            if is_cycle {
                let mut labels: Vec<String> = scc.iter().map(|&v| nodes[v].clone()).collect();
                labels.sort();
                cycles.push(labels);
            }
        }
        cycles.sort();
        cycles
    }
}

struct Tarjan<'a> {
    graph: &'a LockOrderGraph,
    nodes: &'a [&'a String],
    index_of: &'a BTreeMap<&'a str, usize>,
    index: usize,
    indices: Vec<Option<usize>>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    sccs: Vec<Vec<usize>>,
}

impl Tarjan<'_> {
    fn strongconnect(&mut self, v: usize) {
        self.indices[v] = Some(self.index);
        self.lowlink[v] = self.index;
        self.index += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
        let succs: Vec<usize> = self
            .graph
            .edges
            .get(self.nodes[v].as_str())
            .map(|bs| {
                bs.iter()
                    .filter_map(|b| self.index_of.get(b.as_str()).copied())
                    .collect()
            })
            .unwrap_or_default();
        for w in succs {
            if self.indices[w].is_none() {
                self.strongconnect(w);
                self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
            } else if self.on_stack[w] {
                self.lowlink[v] = self.lowlink[v].min(self.indices[w].unwrap());
            }
        }
        if Some(self.lowlink[v]) == self.indices[v] {
            let mut scc = Vec::new();
            while let Some(w) = self.stack.pop() {
                self.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            self.sccs.push(scc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_order_has_no_cycle() {
        let mut g = LockOrderGraph::new();
        g.add_edge("a", "b");
        g.add_edge("b", "c");
        g.add_edge("a", "c");
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn inversion_is_a_cycle() {
        let mut g = LockOrderGraph::new();
        g.add_edge("manager", "worker");
        g.add_edge("worker", "manager");
        assert_eq!(
            g.cycles(),
            vec![vec!["manager".to_string(), "worker".to_string()]]
        );
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = LockOrderGraph::new();
        g.add_edge("m", "m");
        assert_eq!(g.cycles(), vec![vec!["m".to_string()]]);
    }
}
