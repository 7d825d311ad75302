use crate::{AutogradError, Result};
use snappix_tensor::Tensor;

/// Handle to a node in a [`Graph`].
///
/// `Var` is a cheap copyable index; it is only meaningful together with the
/// graph that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Backward closure: given the upstream gradient and the parent values,
/// produce one gradient tensor per parent.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor]) -> Vec<Tensor> + Send>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<Var>,
    pub(crate) backward: Option<BackwardFn>,
    /// Whether gradients should flow into (or through) this node.
    pub(crate) needs_grad: bool,
}

/// A define-by-run computation tape.
///
/// Operations compute their result eagerly and record how to backpropagate.
/// Nodes are appended in topological order, so [`Graph::backward`] is a
/// single reverse sweep.
///
/// A `Graph` is built per training step: leaf in the parameters and inputs,
/// compose the loss, call [`Graph::backward`], then read gradients with
/// [`Graph::grad`].
///
/// # Examples
///
/// ```
/// use snappix_autograd::Graph;
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_autograd::AutogradError> {
/// let mut g = Graph::new();
/// let w = g.leaf(Tensor::eye(2), true);
/// let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?, false);
/// let y = g.matmul(x, w)?;
/// let loss = g.mean(y)?;
/// g.backward(loss)?;
/// assert!(g.grad(w).is_some());
/// assert!(g.grad(x).is_none()); // x did not require gradients
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes held by the values of all recorded nodes (`f32` elements
    /// times four, leaves included): the activation footprint of a
    /// forward pass.
    pub fn value_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.value.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Clears the tape so the allocation can be reused for another step.
    ///
    /// All [`Var`] handles issued before the reset are invalidated; the
    /// node and gradient buffers keep their capacity, which is what lets
    /// callers (e.g. `snappix_nn::SessionPool`) amortize graph allocation
    /// across repeated forward passes instead of building a fresh `Graph`
    /// per call.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.grads.clear();
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a leaf node holding `value`.
    ///
    /// If `requires_grad` is true, a gradient will be accumulated for this
    /// node during [`Graph::backward`].
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(Node {
            value,
            parents: Vec::new(),
            backward: None,
            needs_grad: requires_grad,
        })
    }

    pub(crate) fn push(&mut self, node: Node) -> Var {
        self.nodes.push(node);
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    /// Records an op node. `needs_grad` is inferred from the parents.
    pub(crate) fn push_op(
        &mut self,
        value: Tensor,
        parents: Vec<Var>,
        backward: BackwardFn,
    ) -> Var {
        let needs_grad = parents.iter().any(|p| self.nodes[p.0].needs_grad);
        self.push(Node {
            value,
            parents,
            backward: if needs_grad { Some(backward) } else { None },
            needs_grad,
        })
    }

    /// Records a unary op whose backward reads its own output (`exp`,
    /// `tanh`, softmax). `backward` maps (upstream gradient, output) to
    /// the input's gradient. The output is copied for it only when a
    /// gradient is needed, so an inference tape copies nothing.
    pub(crate) fn push_op_keeping_output(
        &mut self,
        value: Tensor,
        parent: Var,
        backward: fn(&Tensor, &Tensor) -> Tensor,
    ) -> Var {
        let output = self.nodes[parent.0].needs_grad.then(|| value.clone());
        self.push_op(
            value,
            vec![parent],
            Box::new(move |g, _| {
                let output = output.as_ref().expect("kept when a gradient is needed");
                vec![backward(g, output)]
            }),
        )
    }

    /// Records a custom differentiable operation.
    ///
    /// `value` is the already-computed forward result, `parents` the input
    /// variables, and `backward` maps (upstream gradient, parent values) to
    /// one gradient per parent with exactly the parent's shape. This is the
    /// extension point used by downstream crates for operations that are
    /// not worth expressing as compositions of primitives (convolutions,
    /// the coded-exposure integration, pooling).
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::InvalidVar`] if any parent handle is
    /// foreign.
    pub fn custom_op<F>(&mut self, value: Tensor, parents: Vec<Var>, backward: F) -> Result<Var>
    where
        F: Fn(&Tensor, &[&Tensor]) -> Vec<Tensor> + Send + 'static,
    {
        for &p in &parents {
            self.check(p)?;
        }
        Ok(self.push_op(value, parents, Box::new(backward)))
    }

    pub(crate) fn check(&self, v: Var) -> Result<()> {
        if v.0 >= self.nodes.len() {
            return Err(AutogradError::InvalidVar {
                index: v.0,
                nodes: self.nodes.len(),
            });
        }
        Ok(())
    }

    /// The value computed for `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of `v`, if any was produced by the most
    /// recent [`Graph::backward`] call.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Runs reverse-mode differentiation from scalar variable `v`.
    ///
    /// Gradients accumulate (`+=`) into every node with `needs_grad`,
    /// reachable from `v`.
    ///
    /// # Errors
    ///
    /// Returns [`AutogradError::NotScalar`] if `v` holds more than one
    /// element, or [`AutogradError::InvalidVar`] for a foreign handle.
    pub fn backward(&mut self, v: Var) -> Result<()> {
        self.check(v)?;
        let out = &self.nodes[v.0].value;
        if out.len() != 1 {
            return Err(AutogradError::NotScalar {
                shape: out.shape().to_vec(),
            });
        }
        self.grads[v.0] = Some(Tensor::full(out.shape(), 1.0));
        for i in (0..=v.0).rev() {
            let Some(upstream) = self.grads[i].clone() else {
                continue;
            };
            let node = &self.nodes[i];
            let Some(backward) = &node.backward else {
                continue;
            };
            let parent_values: Vec<&Tensor> = node
                .parents
                .iter()
                .map(|p| &self.nodes[p.0].value)
                .collect();
            let parent_grads = backward(&upstream, &parent_values);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            let parents = node.parents.clone();
            for (p, pg) in parents.iter().zip(parent_grads) {
                if !self.nodes[p.0].needs_grad {
                    continue;
                }
                debug_assert_eq!(
                    pg.shape(),
                    self.nodes[p.0].value.shape(),
                    "gradient shape mismatch for node {}",
                    p.0
                );
                match &mut self.grads[p.0] {
                    Some(existing) => existing.add_assign(&pg)?,
                    slot @ None => *slot = Some(pg),
                }
            }
        }
        Ok(())
    }
}

/// Sums `grad` down to `shape`, undoing NumPy-style broadcasting.
///
/// Used by every binary op's backward pass: if a `[1, 3]` bias was broadcast
/// against a `[2, 3]` activation, its gradient must be summed over the
/// broadcast axis.
pub(crate) fn reduce_to_shape(grad: &Tensor, shape: &[usize]) -> Tensor {
    let mut g = grad.clone();
    while g.rank() > shape.len() {
        g = g.sum_axis(0, false).expect("rank > 0");
    }
    for (axis, &d) in shape.iter().enumerate() {
        if d == 1 && g.shape()[axis] != 1 {
            g = g.sum_axis(axis, true).expect("axis in range");
        }
    }
    g.reshape(shape)
        .expect("same element count after reduction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value_round_trip() {
        let mut g = Graph::new();
        let t = Tensor::arange(3);
        let v = g.leaf(t.clone(), true);
        assert_eq!(g.value(v), &t);
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let v = g.leaf(Tensor::zeros(&[2]), true);
        assert!(matches!(
            g.backward(v),
            Err(AutogradError::NotScalar { .. })
        ));
    }

    #[test]
    fn backward_on_scalar_leaf_sets_unit_grad() {
        let mut g = Graph::new();
        let v = g.leaf(Tensor::scalar(5.0), true);
        g.backward(v).unwrap();
        assert_eq!(g.grad(v).unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn no_grad_for_non_requiring_leaves() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(1.0), false);
        let b = g.leaf(Tensor::scalar(2.0), true);
        let c = g.add(a, b).unwrap();
        g.backward(c).unwrap();
        assert!(g.grad(a).is_none());
        assert_eq!(g.grad(b).unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn grads_accumulate_across_uses() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0), true);
        let y = g.add(x, x).unwrap(); // y = 2x
        g.backward(y).unwrap();
        assert_eq!(g.grad(x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let grad = Tensor::ones(&[2, 3]);
        let r = reduce_to_shape(&grad, &[1, 3]);
        assert_eq!(r.shape(), &[1, 3]);
        assert_eq!(r.as_slice(), &[2.0, 2.0, 2.0]);
        let r2 = reduce_to_shape(&grad, &[3]);
        assert_eq!(r2.shape(), &[3]);
        let r3 = reduce_to_shape(&grad, &[]);
        assert_eq!(r3.as_slice(), &[6.0]);
    }

    #[test]
    fn graph_debug_prints_node_count() {
        let mut g = Graph::new();
        g.leaf(Tensor::scalar(0.0), false);
        assert!(format!("{g:?}").contains("nodes"));
    }
}
