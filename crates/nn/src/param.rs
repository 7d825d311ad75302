//! Parameter storage and per-step training sessions.

use crate::{NnError, Result};
use snappix_autograd::{Graph, Var};
use snappix_tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Owns the learnable tensors of one or more models.
///
/// Layers register parameters at construction time and keep only the
/// returned [`ParamId`]s; a [`Session`] binds those ids into an autograd
/// graph for each training step, and [`Adam`](crate::Adam) mutates the
/// stored values between steps.
///
/// # Examples
///
/// ```
/// use snappix_nn::ParamStore;
/// use snappix_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let id = store.register("w", Tensor::zeros(&[2, 2]));
/// assert_eq!(store.value(id).shape(), &[2, 2]);
/// assert_eq!(store.name(id), "w");
/// ```
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named parameter, returning its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different store.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different store.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Name of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different store.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.values.len()).map(ParamId).collect()
    }
}

/// Bytes of weight memory actually resident across `stores`, counting
/// each shared backing buffer once no matter how many stores (replicas)
/// or tensors reference it.
///
/// This is the number the serve layer's `ServerStats` reports: n clones
/// of a store cost one store's bytes until a clone writes a weight, and
/// n replicas over one artifact cost one payload buffer total.
pub fn resident_weight_bytes<'a>(stores: impl IntoIterator<Item = &'a ParamStore>) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut bytes = 0usize;
    for store in stores {
        for (_, _, value) in store.iter() {
            // A buffer may back many tensors (and many stores); its
            // allocation is resident exactly once.
            let buf = value.shared_buffer();
            if seen.insert(std::sync::Arc::as_ptr(buf) as usize) {
                bytes += buf.len() * value.dtype().size_of();
            }
        }
    }
    bytes
}

/// Per-parameter gradients produced by [`Session::backward`].
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient for `id`, if that parameter participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Global L2 norm across all gradients (useful for clipping and
    /// debugging training stability).
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(|g| g.as_slice().iter().map(|&x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.grads.iter_mut().flatten() {
                *g = g.scale(s);
            }
        }
    }
}

/// One training (or inference) step: a fresh autograd graph plus the
/// parameter bindings made while building it.
///
/// The public `graph` field is deliberate — model code freely mixes layer
/// calls with raw graph ops (residual adds, reshapes, losses).
pub struct Session<'s> {
    /// The underlying autograd tape for this step.
    pub graph: Graph,
    store: &'s ParamStore,
    bindings: Vec<Option<Var>>,
    /// When `false`, parameters are leafed without gradient tracking
    /// (inference mode).
    pub train: bool,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("graph", &self.graph)
            .field("train", &self.train)
            .finish()
    }
}

impl<'s> Session<'s> {
    /// Opens a training session against `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Session {
            graph: Graph::new(),
            store,
            bindings: vec![None; store.len()],
            train: true,
        }
    }

    /// Opens an inference session: parameters do not require gradients.
    pub fn inference(store: &'s ParamStore) -> Self {
        let mut s = Self::new(store);
        s.train = false;
        s
    }

    /// Binds parameter `id` into the graph (cached per session).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different store.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bindings[id.0] {
            return v;
        }
        let v = self.graph.leaf(self.store.value(id).clone(), self.train);
        self.bindings[id.0] = Some(v);
        v
    }

    /// Adds a non-learnable input tensor to the graph.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.graph.leaf(t, false)
    }

    /// Backpropagates from scalar `loss` and collects per-parameter
    /// gradients.
    ///
    /// # Errors
    ///
    /// Fails when `loss` is not a scalar of this session's graph.
    pub fn backward(&mut self, loss: Var) -> Result<Gradients> {
        self.graph.backward(loss).map_err(NnError::from)?;
        let grads = self
            .bindings
            .iter()
            .map(|b| b.and_then(|v| self.graph.grad(v).cloned()))
            .collect();
        Ok(Gradients { grads })
    }
}

/// Recycles the allocations behind [`Session`]s so long-lived callers
/// (inference engines, training loops, throughput harnesses) do not pay
/// the heap for a fresh graph, binding table and activation buffers on
/// every step.
///
/// A pool-opened session behaves exactly like one from [`Session::new`] /
/// [`Session::inference`], bit for bit; the only difference is where its
/// buffers come from. Hand the session back with
/// [`SessionPool::reclaim`] when the step's values have been read out:
/// every node value that no clone outlives goes to the graph's free list,
/// and the next step's ops write their outputs and scratch into those
/// buffers. A forward no larger than one the pool has run takes nothing
/// from the heap except buffers for values the caller kept (logits
/// cloned out of the session, say), which stay the caller's: a buffer
/// returns to the pool only when nothing else holds it.
///
/// # What a pool retains
///
/// Between steps a pool holds the buffers of the largest forward it has
/// run: one per node value and scratch area of the last step, each as
/// large as the largest request it has served. Buffers no request of a
/// step took are dropped at its reclaim, so a run of smaller steps does
/// not grow the pool, and varying batch sizes keep one set of buffers,
/// sized for the largest. Dropping the pool frees them.
///
/// ```
/// use snappix_nn::{ParamStore, SessionPool};
/// use snappix_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let id = store.register("w", Tensor::scalar(2.0));
/// let mut pool = SessionPool::new();
/// for _ in 0..3 {
///     let mut sess = pool.inference(&store);
///     let w = sess.param(id);
///     assert_eq!(sess.graph.value(w).as_slice(), &[2.0]);
///     pool.reclaim(sess);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SessionPool {
    graph: Graph,
    bindings: Vec<Option<Var>>,
}

impl SessionPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a training session against `store`, reusing pooled buffers.
    pub fn training<'s>(&mut self, store: &'s ParamStore) -> Session<'s> {
        self.open(store, true)
    }

    /// Opens an inference session against `store`, reusing pooled
    /// buffers.
    pub fn inference<'s>(&mut self, store: &'s ParamStore) -> Session<'s> {
        self.open(store, false)
    }

    fn open<'s>(&mut self, store: &'s ParamStore, train: bool) -> Session<'s> {
        // `reclaim` reset the graph; a fresh pool's graph is empty.
        let graph = std::mem::take(&mut self.graph);
        let mut bindings = std::mem::take(&mut self.bindings);
        bindings.clear();
        bindings.resize(store.len(), None);
        Session {
            graph,
            store,
            bindings,
            train,
        }
    }

    /// Returns a session's buffers to the pool.
    ///
    /// The graph is reset (and bindings cleared) immediately: backward
    /// closures are dropped now rather than pinned until the next open,
    /// and each activation buffer that no clone outlives goes to the free
    /// list the next session's ops draw from (see the type docs for what
    /// the pool retains).
    ///
    /// Dropping a pool-opened session instead of reclaiming it is safe —
    /// the pool simply allocates fresh buffers on the next open.
    pub fn reclaim(&mut self, sess: Session<'_>) {
        self.graph = sess.graph;
        self.graph.reset();
        self.bindings = sess.bindings;
        self.bindings.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(&[2]));
        let b = store.register("b", Tensor::ones(&[3]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 5);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.value(b).as_slice(), &[1.0; 3]);
        assert_eq!(store.ids().len(), 2);
        assert_eq!(store.iter().count(), 2);
    }

    #[test]
    fn session_binds_params_once() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::scalar(2.0));
        let mut sess = Session::new(&store);
        let v1 = sess.param(id);
        let v2 = sess.param(id);
        assert_eq!(v1, v2);
        assert_eq!(sess.graph.len(), 1);
    }

    #[test]
    fn backward_collects_param_grads() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let mut sess = Session::new(&store);
        let w = sess.param(id);
        let sq = sess.graph.mul(w, w).unwrap();
        let loss = sess.graph.sum(sq).unwrap();
        let grads = sess.backward(loss).unwrap();
        assert_eq!(grads.get(id).unwrap().as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn inference_session_produces_no_grads() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::scalar(3.0));
        let mut sess = Session::inference(&store);
        let w = sess.param(id);
        let loss = sess.graph.mul(w, w).unwrap();
        let grads = sess.backward(loss).unwrap();
        assert!(grads.get(id).is_none());
        assert!(!sess.train);
    }

    #[test]
    fn pooled_sessions_match_fresh_sessions() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let mut pool = SessionPool::new();
        for _ in 0..3 {
            let mut pooled = pool.training(&store);
            let mut fresh = Session::new(&store);
            let (wp, wf) = (pooled.param(id), fresh.param(id));
            let (sp, sf) = (
                pooled.graph.mul(wp, wp).unwrap(),
                fresh.graph.mul(wf, wf).unwrap(),
            );
            let (lp, lf) = (pooled.graph.sum(sp).unwrap(), fresh.graph.sum(sf).unwrap());
            let gp = pooled.backward(lp).unwrap();
            let gf = fresh.backward(lf).unwrap();
            assert_eq!(
                gp.get(id).unwrap().as_slice(),
                gf.get(id).unwrap().as_slice()
            );
            pool.reclaim(pooled);
        }
    }

    #[test]
    fn pool_reuse_resets_graph_and_bindings() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::scalar(5.0));
        let mut pool = SessionPool::new();
        let mut first = pool.inference(&store);
        first.param(id);
        first.input(Tensor::scalar(1.0));
        assert_eq!(first.graph.len(), 2);
        pool.reclaim(first);
        let second = pool.inference(&store);
        assert!(second.graph.is_empty(), "reclaimed graph must be reset");
        assert!(!second.train);
    }

    #[test]
    fn store_clones_share_buffers() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::arange(8));
        let b = store.register("b", Tensor::full(&[4], 2.0));
        assert_eq!(resident_weight_bytes([&store]), (8 + 4) * 4);
        let replica = store.clone();
        for id in [a, b] {
            assert!(std::sync::Arc::ptr_eq(
                store.value(id).shared_buffer(),
                replica.value(id).shared_buffer()
            ));
        }
        // Two replicas over shared storage are no bigger than one.
        assert_eq!(resident_weight_bytes([&store, &replica]), (8 + 4) * 4);
        // Training still works: mutation detaches a private copy.
        let mut trainee = store.clone();
        trainee.value_mut(a).as_mut_slice()[0] = -1.0;
        assert_eq!(store.value(a).as_slice()[0], 0.0);
        assert_eq!(trainee.value(a).as_slice()[0], -1.0);
    }

    #[test]
    fn resident_bytes_counts_deep_copies_per_replica() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[16]));
        let mut copy = store.clone();
        // The first write detaches a private copy: a real deep copy.
        copy.value_mut(copy.ids()[0]).as_mut_slice();
        assert_eq!(resident_weight_bytes([&store, &copy]), 2 * 16 * 4);
        assert_eq!(resident_weight_bytes(std::iter::empty::<&ParamStore>()), 0);
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        let mut sess = Session::new(&store);
        let w = sess.param(id);
        let sq = sess.graph.mul(w, w).unwrap();
        let loss = sess.graph.sum(sq).unwrap();
        let mut grads = sess.backward(loss).unwrap();
        // grad = [6, 8], norm 10.
        assert!((grads.global_norm() - 10.0).abs() < 1e-5);
        grads.clip_global_norm(5.0);
        assert!((grads.global_norm() - 5.0).abs() < 1e-4);
        assert_eq!(grads.get(id).unwrap().as_slice(), &[3.0, 4.0]);
        // Clipping below the threshold is a no-op.
        grads.clip_global_norm(100.0);
        assert!((grads.global_norm() - 5.0).abs() < 1e-4);
    }
}
