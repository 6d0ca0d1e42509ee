//! Communication tree structure.

/// A rooted spanning tree over machines `0..n`, with ordered children.
///
/// Child order is semantically meaningful: a single-ported sender transmits
/// to its children *in order*, so earlier children receive (and start
/// forwarding) sooner. All construction algorithms in this crate emit
/// children in the order they were selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommTree {
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl CommTree {
    /// A tree containing only the root.
    pub fn singleton(root: usize, n: usize) -> Self {
        assert!(root < n, "root {root} out of range for n={n}");
        CommTree {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
        }
    }

    /// Attach `child` under `parent`. Panics if the child already has a
    /// parent, is the root, or either index is out of range.
    pub fn attach(&mut self, parent: usize, child: usize) {
        assert!(parent < self.n() && child < self.n());
        assert_ne!(child, self.root, "cannot attach the root as a child");
        assert!(
            self.parent[child].is_none(),
            "machine {child} already attached"
        );
        self.parent[child] = Some(parent);
        self.children[parent].push(child);
    }

    /// Number of machines.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root machine.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `v` (`None` for the root and unattached machines).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Ordered children of `v`.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[v]
    }

    /// True when every machine is connected (spanning tree).
    pub fn is_spanning(&self) -> bool {
        (0..self.n()).all(|v| v == self.root || self.parent[v].is_some())
    }

    /// Machines in BFS order from the root (children in stored order).
    pub fn bfs_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.n());
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in &self.children[v] {
                queue.push_back(c);
            }
        }
        order
    }

    /// Size of the subtree rooted at each machine (1 for leaves).
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.n()];
        let order = self.bfs_order();
        for &v in order.iter().rev() {
            if let Some(p) = self.parent[v] {
                size[p] += size[v];
            }
        }
        size
    }

    /// Depth of each machine (root = 0). Unattached machines get
    /// `usize::MAX`.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![usize::MAX; self.n()];
        depth[self.root] = 0;
        for v in self.bfs_order() {
            for &c in &self.children[v] {
                depth[c] = depth[v] + 1;
            }
        }
        depth
    }

    /// Total edge weight of the heaviest root-to-leaf path (the paper's
    /// "total weight of the longest path", Fig. 1), where the weight of
    /// edge `(parent → child)` is `weights[(parent, child)]`.
    pub fn longest_path_weight(&self, weights: &cloudconst_linalg::Mat) -> f64 {
        let mut acc = vec![0.0f64; self.n()];
        let mut best = 0.0f64;
        for v in self.bfs_order() {
            for &c in &self.children[v] {
                acc[c] = acc[v] + weights[(v, c)];
                best = best.max(acc[c]);
            }
        }
        best
    }

    /// All tree edges `(parent, child)` in BFS order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.bfs_order()
            .into_iter()
            .flat_map(|v| self.children[v].iter().map(move |&c| (v, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_linalg::Mat;

    fn sample() -> CommTree {
        // 0 -> {1, 2}, 1 -> {3}, 2 -> {4}
        let mut t = CommTree::singleton(0, 5);
        t.attach(0, 1);
        t.attach(0, 2);
        t.attach(1, 3);
        t.attach(2, 4);
        t
    }

    #[test]
    fn structure_queries() {
        let t = sample();
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.children(0), &[1, 2]);
        assert!(t.is_spanning());
    }

    #[test]
    fn bfs_respects_child_order() {
        let t = sample();
        assert_eq!(t.bfs_order(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn subtree_sizes_correct() {
        let t = sample();
        assert_eq!(t.subtree_sizes(), vec![5, 2, 2, 1, 1]);
    }

    #[test]
    fn depths_correct() {
        let t = sample();
        assert_eq!(t.depths(), vec![0, 1, 1, 2, 2]);
    }

    #[test]
    fn longest_path() {
        let t = sample();
        let mut w = Mat::zeros(5, 5);
        w[(0, 1)] = 1.0;
        w[(0, 2)] = 4.0;
        w[(1, 3)] = 2.0;
        w[(2, 4)] = 0.5;
        assert_eq!(t.longest_path_weight(&w), 4.5);
    }

    #[test]
    fn not_spanning_when_detached() {
        let mut t = CommTree::singleton(0, 3);
        t.attach(0, 1);
        assert!(!t.is_spanning());
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let mut t = CommTree::singleton(0, 3);
        t.attach(0, 1);
        t.attach(0, 1);
    }

    #[test]
    #[should_panic(expected = "cannot attach the root")]
    fn attach_root_panics() {
        let mut t = CommTree::singleton(0, 3);
        t.attach(1, 0);
    }

    #[test]
    fn edges_enumeration() {
        let t = sample();
        assert_eq!(t.edges(), vec![(0, 1), (0, 2), (1, 3), (2, 4)]);
    }
}
