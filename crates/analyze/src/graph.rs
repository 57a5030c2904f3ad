//! The statically derived lock graph.
//!
//! Nodes are lock labels, a directed edge `outer → inner` means some code
//! path acquires `inner` while an `outer` guard is live. Each edge keeps
//! the first witnessing acquisition site (and the call chain when the edge
//! came from one level of call propagation) so findings can spell out the
//! concrete path. Cycle detection is Tarjan SCC, mirroring the dynamic
//! `presp-check` graph so the two analyses stay comparable.

use std::collections::BTreeMap;

/// Where an edge was observed: the inner acquisition site, plus the call
/// chain when the acquisition happened inside a propagated callee.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeSite {
    /// File containing the inner acquisition (workspace-relative).
    pub file: String,
    /// 1-based line of the inner acquisition (or the call site when
    /// propagated).
    pub line: usize,
    /// Call chain, e.g. `complete -> claim` when the edge crosses a call.
    pub chain: Vec<String>,
}

impl EdgeSite {
    /// Human-readable acquisition chain for findings.
    pub(crate) fn describe(&self, outer: &str, inner: &str) -> String {
        if self.chain.is_empty() {
            format!("`{inner}` acquired while `{outer}` is held")
        } else {
            format!(
                "`{inner}` acquired while `{outer}` is held (via {})",
                self.chain.join(" -> ")
            )
        }
    }
}

/// Directed lock-order graph with one witness site per edge.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    edges: BTreeMap<(String, String), EdgeSite>,
}

impl LockGraph {
    /// An empty graph.
    pub(crate) fn new() -> Self {
        LockGraph::default()
    }

    /// Record `outer → inner`, keeping the first witness site.
    pub(crate) fn add_edge(&mut self, outer: &str, inner: &str, site: EdgeSite) {
        self.edges
            .entry((outer.to_string(), inner.to_string()))
            .or_insert(site);
    }

    /// All edges in deterministic order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (&(String, String), &EdgeSite)> {
        self.edges.iter()
    }

    /// Edge label pairs only.
    pub fn edge_pairs(&self) -> Vec<(String, String)> {
        self.edges.keys().cloned().collect()
    }

    /// Witness site for an edge, if present.
    pub(crate) fn site(&self, outer: &str, inner: &str) -> Option<&EdgeSite> {
        self.edges.get(&(outer.to_string(), inner.to_string()))
    }

    /// True when the graph contains the edge.
    pub(crate) fn contains(&self, outer: &str, inner: &str) -> bool {
        self.edges
            .contains_key(&(outer.to_string(), inner.to_string()))
    }

    /// Strongly connected components with more than one node, plus
    /// self-loops — each is a potential-deadlock cycle. Tarjan, iterative.
    pub(crate) fn cycles(&self) -> Vec<Vec<String>> {
        let mut nodes: Vec<String> = Vec::new();
        for (outer, inner) in self.edges.keys() {
            if !nodes.contains(outer) {
                nodes.push(outer.clone());
            }
            if !nodes.contains(inner) {
                nodes.push(inner.clone());
            }
        }
        nodes.sort();
        let index_of: BTreeMap<&str, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        for (outer, inner) in self.edges.keys() {
            adj[index_of[outer.as_str()]].push(index_of[inner.as_str()]);
        }

        let n = nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        // Iterative Tarjan: (node, next-neighbor cursor) frames.
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames = vec![(start, 0usize)];
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                if *cursor == 0 {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = adj[v].get(*cursor) {
                    *cursor += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    if lowlink[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                }
            }
        }

        let mut cycles = Vec::new();
        for scc in sccs {
            let is_cycle =
                scc.len() > 1 || (scc.len() == 1 && self.contains(&nodes[scc[0]], &nodes[scc[0]]));
            if is_cycle {
                let mut labels: Vec<String> = scc.iter().map(|&i| nodes[i].clone()).collect();
                labels.sort();
                cycles.push(labels);
            }
        }
        cycles.sort();
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_two_node_cycle() {
        let mut g = LockGraph::new();
        g.add_edge("a", "b", EdgeSite::default());
        g.add_edge("b", "c", EdgeSite::default());
        g.add_edge("c", "a", EdgeSite::default());
        assert_eq!(
            g.cycles(),
            vec![vec!["a".to_string(), "b".into(), "c".into()]]
        );
    }

    #[test]
    fn dag_has_no_cycles() {
        let mut g = LockGraph::new();
        g.add_edge("a", "b", EdgeSite::default());
        g.add_edge("a", "c", EdgeSite::default());
        g.add_edge("b", "c", EdgeSite::default());
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = LockGraph::new();
        g.add_edge("a", "a", EdgeSite::default());
        assert_eq!(g.cycles(), vec![vec!["a".to_string()]]);
    }

    #[test]
    fn first_witness_site_wins() {
        let mut g = LockGraph::new();
        g.add_edge(
            "a",
            "b",
            EdgeSite {
                file: "x.rs".into(),
                line: 3,
                chain: vec![],
            },
        );
        g.add_edge(
            "a",
            "b",
            EdgeSite {
                file: "y.rs".into(),
                line: 9,
                chain: vec![],
            },
        );
        assert_eq!(g.site("a", "b").unwrap().file, "x.rs");
    }
}
