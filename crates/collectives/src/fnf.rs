//! Fastest-Node-First tree construction (Banikazemi, Moorthy & Panda),
//! the network-performance-aware optimizer of paper §II-C and Fig. 1.

use crate::tree::CommTree;
use cloudconst_linalg::Mat;

/// Build a communication tree with the FNF greedy algorithm.
///
/// `weights` is the all-link weight matrix — entry `(i, j)` is the cost of
/// sending over link `i → j`, *smaller is better* (the paper uses modeled
/// transfer time). The algorithm maintains the selected set `S` (insertion
/// ordered, starting with the root) and the unselected set `U`; in each
/// iteration every machine of `S`, visited in insertion order, adopts the
/// machine of `U` with the cheapest link from it (ties break toward the
/// smaller machine index). Newly adopted machines join `S` after the
/// iteration, so the tree doubles its sender set per iteration like a
/// binomial tree, but along the cheapest available links.
pub fn fnf_tree(root: usize, weights: &Mat) -> CommTree {
    let n = weights.rows();
    assert_eq!(weights.cols(), n, "weight matrix must be square");
    assert!(root < n);

    let mut tree = CommTree::singleton(root, n);
    let mut selected = vec![root];
    let mut unselected: Vec<bool> = (0..n).map(|v| v != root).collect();
    let mut remaining = n - 1;

    while remaining > 0 {
        let mut adopted = Vec::new();
        for &s in &selected {
            if remaining == 0 {
                break;
            }
            // Cheapest link from s into U; ties go to the smaller index.
            let mut best: Option<(f64, usize)> = None;
            for u in 0..n {
                if !unselected[u] {
                    continue;
                }
                let w = weights[(s, u)];
                match best {
                    None => best = Some((w, u)),
                    Some((bw, _)) if w < bw => best = Some((w, u)),
                    _ => {}
                }
            }
            if let Some((_, u)) = best {
                tree.attach(s, u);
                unselected[u] = false;
                remaining -= 1;
                adopted.push(u);
            }
        }
        selected.extend(adopted);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The weight matrix of the paper's Fig. 1 running example (machines
    /// 1..6 as indices 0..5, symmetric, smaller = better).
    pub(crate) fn fig1_weights() -> Mat {
        Mat::from_rows(&[
            &[0.0, 3.0, 2.0, 4.0, 6.0, 7.0],
            &[3.0, 0.0, 5.0, 2.0, 6.0, 4.0],
            &[2.0, 5.0, 0.0, 5.0, 3.0, 1.0],
            &[4.0, 2.0, 5.0, 0.0, 8.0, 9.0],
            &[6.0, 6.0, 3.0, 8.0, 0.0, 5.0],
            &[7.0, 4.0, 1.0, 9.0, 5.0, 0.0],
        ])
    }

    /// Fig. 1(b): the same matrix with weight(1,3) raised from 2 to 4.
    pub(crate) fn fig1_revised_weights() -> Mat {
        let mut w = fig1_weights();
        w[(0, 2)] = 4.0;
        w[(2, 0)] = 4.0;
        w
    }

    #[test]
    fn paper_example_original() {
        // Paper narration: machine 1 (index 0) is root; iteration 1 picks
        // machine 3 (index 2); iteration 2 gives 1→2 and 3→6; the longest
        // path weighs five.
        let t = fnf_tree(0, &fig1_weights());
        assert_eq!(t.parent(2), Some(0)); // machine 3 from machine 1
        assert_eq!(t.parent(1), Some(0)); // machine 2 from machine 1
        assert_eq!(t.parent(5), Some(2)); // machine 6 from machine 3
        assert_eq!(t.parent(4), Some(2)); // machine 5 from machine 3
        assert_eq!(t.parent(3), Some(0)); // machine 4 from machine 1
        assert_eq!(t.longest_path_weight(&fig1_weights()), 5.0);
    }

    #[test]
    fn paper_example_revised() {
        // With weight(1,3)=4 the structure changes and the longest path
        // reaches seven (paper §III).
        let w = fig1_revised_weights();
        let t = fnf_tree(0, &w);
        assert_eq!(t.parent(1), Some(0)); // machine 2 adopted first
        assert_eq!(t.parent(3), Some(1)); // machine 4 from machine 2
        assert_eq!(t.parent(5), Some(1)); // machine 6 from machine 2
        assert_eq!(t.longest_path_weight(&w), 7.0);
    }

    #[test]
    fn spans_for_any_root() {
        let w = fig1_weights();
        for root in 0..6 {
            let t = fnf_tree(root, &w);
            assert!(t.is_spanning(), "root {root}");
        }
    }

    #[test]
    fn uniform_weights_degenerate_to_index_order() {
        let w = Mat::full(4, 4, 1.0);
        let t = fnf_tree(0, &w);
        assert!(t.is_spanning());
        // Ties break toward smaller indices: 0 adopts 1; then 0 adopts 2,
        // 1 adopts 3.
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(0));
        assert_eq!(t.parent(3), Some(1));
    }

    #[test]
    fn prefers_cheap_links() {
        // Star-shaped cost: node 0 has a very cheap link to 3; everything
        // else is expensive.
        let mut w = Mat::full(4, 4, 100.0);
        for i in 0..4 {
            w[(i, i)] = 0.0;
        }
        w[(0, 3)] = 1.0;
        w[(3, 1)] = 1.0;
        w[(3, 2)] = 2.0;
        let t = fnf_tree(0, &w);
        // Iteration 1: 0 adopts 3 over the cheap link. Iteration 2 visits
        // S = [0, 3] in insertion order: 0 ties between 1 and 2 at cost 100
        // and takes the smaller index (1); 3 then takes 2 at cost 2.
        assert_eq!(t.parent(3), Some(0));
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(3));
        assert!(t.is_spanning());
    }

    #[test]
    fn two_machines() {
        let w = Mat::from_rows(&[&[0.0, 5.0], &[5.0, 0.0]]);
        let t = fnf_tree(1, &w);
        assert_eq!(t.parent(0), Some(1));
    }
}
