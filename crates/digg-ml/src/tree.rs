//! The decision-tree structure, prediction and Fig-5-style rendering.

use serde::{Deserialize, Serialize};

/// A node of a binary-threshold decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// A leaf predicting `label`; `total`/`errors` are the training
    /// instances that reached it and how many it misclassifies — the
    /// `yes (130/5)` annotations of the paper's Fig. 5.
    Leaf {
        /// Predicted class.
        label: bool,
        /// Training instances at this leaf.
        total: usize,
        /// Misclassified training instances at this leaf.
        errors: usize,
    },
    /// An internal `attr <= threshold` test.
    Split {
        /// Attribute index.
        attr: usize,
        /// Threshold; `<=` goes left.
        threshold: f64,
        /// Subtree for `value <= threshold`.
        le: Box<Node>,
        /// Subtree for `value > threshold`.
        gt: Box<Node>,
    },
}

impl Node {
    /// Predict a label for attribute values.
    pub(crate) fn predict(&self, values: &[f64]) -> bool {
        match self {
            Node::Leaf { label, .. } => *label,
            Node::Split {
                attr,
                threshold,
                le,
                gt,
            } => {
                if values[*attr] <= *threshold {
                    le.predict(values)
                } else {
                    gt.predict(values)
                }
            }
        }
    }

    /// Number of leaves.
    pub(crate) fn leaf_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { le, gt, .. } => le.leaf_count() + gt.leaf_count(),
        }
    }

    /// Depth (a lone leaf has depth 1).
    pub(crate) fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { le, gt, .. } => 1 + le.depth().max(gt.depth()),
        }
    }

    /// Sum of training errors recorded at the leaves.
    pub fn training_errors(&self) -> usize {
        match self {
            Node::Leaf { errors, .. } => *errors,
            Node::Split { le, gt, .. } => le.training_errors() + gt.training_errors(),
        }
    }

    /// Sum of training instances recorded at the leaves.
    pub fn training_total(&self) -> usize {
        match self {
            Node::Leaf { total, .. } => *total,
            Node::Split { le, gt, .. } => le.training_total() + gt.training_total(),
        }
    }
}

/// A trained decision tree with its attribute names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Attribute names for rendering.
    pub attribute_names: Vec<String>,
    /// Root node.
    pub root: Node,
}

impl DecisionTree {
    /// Predict a label.
    pub fn predict(&self, values: &[f64]) -> bool {
        self.root.predict(values)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.root.leaf_count()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Render in the C4.5 text format used (graphically) by Fig. 5:
    ///
    /// ```text
    /// v10 <= 4: yes (130/5)
    /// v10 > 4
    /// |  v10 <= 8
    /// |  |  fans1 <= 85: no (29/13)
    /// |  |  fans1 > 85: yes (30/8)
    /// |  v10 > 8: no (18/0)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.root {
            Node::Leaf {
                label,
                total,
                errors,
            } => {
                out.push_str(&format!(
                    ": {} ({}/{})\n",
                    if *label { "yes" } else { "no" },
                    total,
                    errors
                ));
            }
            split => self.render_node(split, 0, &mut out),
        }
        out
    }

    /// Render as Graphviz DOT for visual inspection
    /// (`dot -Tsvg tree.dot`). Leaves show `label (total/errors)`;
    /// split nodes show the test, with `<=` on the left edge.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph tree {\n  node [fontname=\"monospace\"];\n");
        let mut next_id = 0usize;
        self.dot_node(&self.root, &mut next_id, &mut out);
        out.push_str("}\n");
        out
    }

    fn dot_node(&self, node: &Node, next_id: &mut usize, out: &mut String) -> usize {
        let id = *next_id;
        *next_id += 1;
        match node {
            Node::Leaf {
                label,
                total,
                errors,
            } => {
                out.push_str(&format!(
                    "  n{id} [shape=box, label=\"{} ({}/{})\"];\n",
                    if *label { "yes" } else { "no" },
                    total,
                    errors
                ));
            }
            Node::Split {
                attr,
                threshold,
                le,
                gt,
            } => {
                out.push_str(&format!(
                    "  n{id} [shape=ellipse, label=\"{} <= {}\"];\n",
                    self.attribute_names[*attr], threshold
                ));
                let l = self.dot_node(le, next_id, out);
                let r = self.dot_node(gt, next_id, out);
                out.push_str(&format!("  n{id} -> n{l} [label=\"yes\"];\n"));
                out.push_str(&format!("  n{id} -> n{r} [label=\"no\"];\n"));
            }
        }
        id
    }

    fn render_node(&self, node: &Node, indent: usize, out: &mut String) {
        #[expect(
            clippy::unreachable,
            reason = "the caller dispatches leaves before recursing; only splits reach render_node"
        )]
        let Node::Split {
            attr,
            threshold,
            le,
            gt,
        } = node
        else {
            unreachable!("render_node is only called on splits");
        };
        let name = &self.attribute_names[*attr];
        let prefix = "|  ".repeat(indent);
        for (op, child) in [("<=", le.as_ref()), (">", gt.as_ref())] {
            match child {
                Node::Leaf {
                    label,
                    total,
                    errors,
                } => {
                    out.push_str(&format!(
                        "{prefix}{name} {op} {threshold}: {} ({}/{})\n",
                        if *label { "yes" } else { "no" },
                        total,
                        errors
                    ));
                }
                inner => {
                    out.push_str(&format!("{prefix}{name} {op} {threshold}\n"));
                    self.render_node(inner, indent + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact tree of the paper's Fig. 5.
    pub(crate) fn fig5_tree() -> DecisionTree {
        DecisionTree {
            attribute_names: vec!["v10".into(), "fans1".into()],
            root: Node::Split {
                attr: 0,
                threshold: 4.0,
                le: Box::new(Node::Leaf {
                    label: true,
                    total: 130,
                    errors: 5,
                }),
                gt: Box::new(Node::Split {
                    attr: 0,
                    threshold: 8.0,
                    le: Box::new(Node::Split {
                        attr: 1,
                        threshold: 85.0,
                        le: Box::new(Node::Leaf {
                            label: false,
                            total: 29,
                            errors: 13,
                        }),
                        gt: Box::new(Node::Leaf {
                            label: true,
                            total: 30,
                            errors: 8,
                        }),
                    }),
                    gt: Box::new(Node::Leaf {
                        label: false,
                        total: 18,
                        errors: 0,
                    }),
                }),
            },
        }
    }

    #[test]
    fn prediction_routes_through_thresholds() {
        let t = fig5_tree();
        assert!(t.predict(&[3.0, 0.0])); // v10 <= 4 -> yes
        assert!(!t.predict(&[9.0, 500.0])); // v10 > 8 -> no
        assert!(!t.predict(&[6.0, 50.0])); // 4 < v10 <= 8, fans1 <= 85 -> no
        assert!(t.predict(&[6.0, 100.0])); // fans1 > 85 -> yes
                                           // Boundary: <= goes left.
        assert!(t.predict(&[4.0, 0.0]));
        assert!(!t.predict(&[8.0, 85.0]));
    }

    #[test]
    fn structure_statistics() {
        let t = fig5_tree();
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.root.training_total(), 207);
        assert_eq!(t.root.training_errors(), 26);
    }

    #[test]
    fn rendering_matches_c45_format() {
        let t = fig5_tree();
        let r = t.render();
        assert!(r.contains("v10 <= 4: yes (130/5)"));
        assert!(r.contains("|  v10 > 8: no (18/0)"));
        assert!(r.contains("|  |  fans1 <= 85: no (29/13)"));
        assert!(r.contains("|  |  fans1 > 85: yes (30/8)"));
    }

    #[test]
    fn dot_export_has_all_nodes_and_edges() {
        let t = fig5_tree();
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph tree {"));
        assert!(dot.trim_end().ends_with('}'));
        // 4 leaves + 3 splits = 7 node definitions; 6 edges.
        assert_eq!(dot.matches("shape=box").count(), 4);
        assert_eq!(dot.matches("shape=ellipse").count(), 3);
        assert_eq!(dot.matches(" -> ").count(), 6);
        assert!(dot.contains("v10 <= 4"));
        assert!(dot.contains("yes (130/5)"));
    }

    #[test]
    fn lone_leaf_renders() {
        let t = DecisionTree {
            attribute_names: vec![],
            root: Node::Leaf {
                label: true,
                total: 7,
                errors: 2,
            },
        };
        assert_eq!(t.render(), ": yes (7/2)\n");
        assert_eq!(t.depth(), 1);
    }
}
