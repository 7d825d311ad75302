//! The serving engine: worker replicas around a central dynamic batcher.

use crate::queue::{Request, SharedQueue};
use crate::stats::Recorder;
use crate::{BatchPolicy, ServeError, ServerStats, Ticket};
use snappix::prelude::ActionModel;
use snappix::{Error, Pipeline, PipelineBuilder};
use snappix_ce::{AlgorithmicEncoder, Sense};
use snappix_metrics::Registry;
use snappix_tensor::{parallel, Tensor};
use snappix_trace::{ArgValue, SpanCtx, Tracer};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Staged construction of a [`Server`], created by [`Server::builder`].
///
/// The builder owns a [`PipelineBuilder`] *recipe* and stamps one
/// pipeline replica out of it per worker
/// (via [`PipelineBuilder::build_replicas`]), so every worker thread
/// serves from its own copy of the weights with no shared mutable state.
#[derive(Debug, Clone)]
pub struct ServerBuilder<S: Sense = AlgorithmicEncoder> {
    recipe: PipelineBuilder<S>,
    workers: usize,
    queue_depth: usize,
    policy: BatchPolicy,
    tracer: Tracer,
    metrics: Registry,
}

impl<S: Sense> ServerBuilder<S> {
    /// Sets the number of worker threads, each owning one pipeline
    /// replica (clamped to at least 1).
    ///
    /// Defaults to the ambient worker count
    /// ([`parallel::default_threads`]) — one replica per core. Replicas
    /// share one read-only copy of the model weights
    /// ([`PipelineBuilder::build_replicas`]), so scaling workers adds
    /// session/backend state but not weight memory (see
    /// [`ServerStats::resident_weight_bytes`]).
    ///
    /// Each replica runs under a data-parallel budget of
    /// `ambient_threads / workers` (at least 1), applied through
    /// [`PipelineBuilder::with_threads`], so N serving workers never
    /// oversubscribe the `SNAPPIX_THREADS` / core budget
    /// ([`Server::worker_threads`] reports it). The budget overrides any
    /// `with_threads` already set on the recipe.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bounds the admission queue (clamped to at least 1): once this
    /// many requests are waiting, [`Server::try_submit`] sheds load with
    /// [`ServeError::Overloaded`] and [`Server::submit`] blocks.
    /// Defaults to 64.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the dynamic batching policy (see [`BatchPolicy`]).
    #[must_use]
    pub fn with_batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Loads the recipe's model weights from the sealed `.spx` artifact
    /// at `path` (see [`PipelineBuilder::with_artifact`]).
    ///
    /// The artifact's payload is read once and shared read-only across
    /// every worker replica, so weight memory stays ~flat as
    /// [`with_workers`](Self::with_workers) scales — observable via
    /// [`ServerStats::resident_weight_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Nn`] when the artifact cannot be opened or does
    /// not match the model.
    pub fn with_artifact(mut self, path: impl AsRef<std::path::Path>) -> Result<Self, Error> {
        self.recipe = self.recipe.with_artifact(path)?;
        Ok(self)
    }

    /// Attaches a span recorder: every admitted request is stamped with
    /// a trace id (carried on its [`Ticket`]), admission opens a
    /// `queue_wait` span, and workers emit one `batch` span per forward
    /// pass with the pipeline's `sense`/`forward`/`readout` spans
    /// nested under it — plus a `compute` span per member request
    /// linking it to the shared batch. The tracer is also installed on
    /// every pipeline replica. Defaults to [`Tracer::disabled`]: no
    /// records, near-zero hot-path cost, and results are bit-for-bit
    /// identical either way.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the metrics [`Registry`] the server records into: request
    /// counters, queue/compute latency histograms (with trace-id
    /// exemplars when a tracer is attached), the batch-size histogram,
    /// and the per-stage latency histogram, all under `snappix_server_*`
    /// family names. [`Server::stats`] is derived from the same cells, so
    /// the registry's rendered page and the stats struct always agree.
    ///
    /// Defaults to an enabled [`Registry::new`] private to this server.
    /// Pass a shared registry to fold the server's families into a
    /// larger page (the gateway does exactly that), or
    /// [`Registry::disabled`] to drop all telemetry recording —
    /// serving results are bit-for-bit identical either way, and
    /// [`Server::stats`] then reads all-zero.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Registry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Assembles the server: validates the pipeline recipe, stamps out
    /// one replica per worker, and starts the worker threads.
    ///
    /// # Errors
    ///
    /// Any [`PipelineBuilder::build`] validation error (mask or
    /// normalization mismatch), or [`Error::Pipeline`] when worker
    /// threads cannot be spawned.
    pub fn build(self) -> Result<Server, Error>
    where
        S: Clone + Send + 'static,
        Error: From<S::Error>,
    {
        let workers = self.workers;
        let per_replica = (parallel::default_threads() / workers).max(1);
        let replicas = self
            .recipe
            .with_threads(per_replica)
            .with_tracer(self.tracer.clone())
            .build_replicas(workers)?;

        let model = replicas[0].model();
        let cfg = model.encoder().config();
        let expected_clip = [model.mask().num_slots(), cfg.height, cfg.width];
        let num_classes = model.num_classes();
        // Weights are fixed for the server's lifetime, so resident
        // bytes are measured once, before the replicas move into their
        // threads. build_replicas shares one read-only storage, so this
        // stays ~flat in the worker count.
        let resident_weight_bytes = snappix::resident_weight_bytes(&replicas) as u64;

        let queue = Arc::new(SharedQueue::new(self.queue_depth));
        let recorder = Arc::new(Recorder::new(resident_weight_bytes, self.metrics.clone()));
        let mut handles = Vec::with_capacity(workers);
        for (i, replica) in replicas.into_iter().enumerate() {
            let worker_queue = Arc::clone(&queue);
            let worker_recorder = Arc::clone(&recorder);
            let policy = self.policy;
            let spawned = std::thread::Builder::new()
                .name(format!("snappix-serve-{i}"))
                .spawn(move || run_worker(replica, &worker_queue, &worker_recorder, policy));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the partial pool before reporting.
                    queue.shutdown();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(Error::Pipeline {
                        context: format!("failed to spawn serving worker {i}: {e}"),
                    });
                }
            }
        }
        Ok(Server {
            queue,
            recorder,
            handles,
            expected_clip,
            num_classes,
            policy: self.policy,
            worker_threads: per_replica,
            tracer: self.tracer,
        })
    }
}

/// A multi-client serving engine over [`Pipeline`] replicas.
///
/// N worker threads each own a private replica of the pipeline (same
/// weights, same backend configuration); a central dynamic batcher
/// coalesces concurrent client requests into one `[batch, t, h, w]`
/// tensor per forward pass under a [`BatchPolicy`]; and a bounded
/// admission queue turns overload into an explicit
/// [`ServeError::Overloaded`] instead of unbounded memory growth.
/// With a deterministic backend (the algorithmic encoder, or a
/// hardware sensor with a noiseless readout) results are *identical*
/// to running each clip through a serial pipeline — batching and
/// replication change the schedule, never the numbers (pinned by the
/// workspace integration tests). A *noisy* readout is stateful: each
/// replica draws from its own RNG stream, so which noise realization a
/// clip receives depends on scheduling — exactly as it would across
/// physical sensors.
///
/// All client methods take `&self`, so one `Server` can be shared across
/// client threads directly (e.g. via [`std::thread::scope`]) or behind
/// an [`Arc`].
///
/// Dropping the server shuts it down gracefully: no new admissions,
/// queued work is drained, workers are joined.
///
/// # Examples
///
/// ```no_run
/// use snappix::prelude::*;
/// use snappix_serve::Server;
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let server = Server::builder(Pipeline::builder(model))
///     .with_workers(2)
///     .build()?;
/// let ticket = server
///     .submit(&Tensor::zeros(&[8, 16, 16]))
///     .map_err(snappix::Error::from)?;
/// let prediction = ticket.wait().map_err(snappix::Error::from)?;
/// println!("class {} — {}", prediction.label, server.stats());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Server {
    queue: Arc<SharedQueue>,
    recorder: Arc<Recorder>,
    handles: Vec<JoinHandle<()>>,
    expected_clip: [usize; 3],
    num_classes: usize,
    policy: BatchPolicy,
    worker_threads: usize,
    tracer: Tracer,
}

impl Server {
    /// Starts building a server around a pipeline recipe; see
    /// [`ServerBuilder`] for the knobs and their defaults.
    pub fn builder<S: Sense>(recipe: PipelineBuilder<S>) -> ServerBuilder<S> {
        ServerBuilder {
            recipe,
            workers: parallel::default_threads(),
            queue_depth: 64,
            policy: BatchPolicy::default(),
            tracer: Tracer::disabled(),
            metrics: Registry::new(),
        }
    }

    /// The span recorder requests flow through (disabled unless
    /// [`ServerBuilder::with_tracer`] attached one). Snapshot it to
    /// export traces: `server.tracer().snapshot().to_chrome_json()`.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry the server records into (see
    /// [`ServerBuilder::with_metrics`]). Render it for a Prometheus
    /// page — `server.stats()` first to refresh the scrape-time gauges,
    /// then `server.metrics().render()` — or clone it to register
    /// further families alongside the server's.
    pub fn metrics(&self) -> &Registry {
        self.recorder.registry()
    }

    /// Number of worker threads (= pipeline replicas).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The data-parallel thread budget each replica runs under.
    pub fn worker_threads(&self) -> usize {
        self.worker_threads
    }

    /// The admission bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Requests waiting in the admission queue right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The dynamic batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of output classes of the served model.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The `[t, h, w]` clip geometry this server accepts.
    pub fn expected_clip(&self) -> [usize; 3] {
        self.expected_clip
    }

    /// A point-in-time telemetry snapshot.
    pub fn stats(&self) -> ServerStats {
        self.recorder.snapshot(self.queue.depth())
    }

    /// Submits a clip without blocking, shedding load when the queue is
    /// full — the building block for callers that implement their own
    /// retry/backoff (or return 503s).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadClip`] for a geometry mismatch or a non-finite
    /// pixel,
    /// [`ServeError::Overloaded`] at capacity,
    /// [`ServeError::ShuttingDown`] during shutdown.
    pub fn try_submit(&self, clip: &Tensor) -> Result<Ticket, ServeError> {
        self.admit(clip, None, false)
    }

    /// Like [`try_submit`](Self::try_submit), but with `Some(deadline)`
    /// the request expires (with [`ServeError::DeadlineExpired`] on its
    /// [`Ticket`]) if it is still queued `deadline` from now — stale work
    /// is shed instead of served late. `None` is exactly `try_submit`.
    ///
    /// # Errors
    ///
    /// Same as [`try_submit`](Self::try_submit).
    pub fn try_submit_within(
        &self,
        clip: &Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.admit(clip, deadline, false)
    }

    /// Submits a clip, blocking until the queue has room — backpressure
    /// propagates to the caller as waiting, never as unbounded queueing.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadClip`] for a geometry mismatch or a non-finite
    /// pixel,
    /// [`ServeError::ShuttingDown`] during shutdown.
    pub fn submit(&self, clip: &Tensor) -> Result<Ticket, ServeError> {
        self.admit(clip, None, true)
    }

    /// Like [`submit`](Self::submit) with an optional per-request
    /// deadline; the deadline clock starts when the call is made — time
    /// spent blocked waiting for queue room counts against the deadline.
    /// `None` is exactly `submit`.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn submit_within(
        &self,
        clip: &Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.admit(clip, deadline, true)
    }

    /// Submits one clip and blocks for its [`Prediction`](snappix::Prediction) —
    /// the one-call client API mirroring [`Pipeline::infer_clip`].
    ///
    /// # Errors
    ///
    /// Any admission or execution failure; see [`ServeError`].
    pub fn infer_clip(&self, clip: &Tensor) -> Result<snappix::Prediction, ServeError> {
        self.submit(clip)?.wait()
    }

    /// Submits one clip and blocks for its class label.
    ///
    /// # Errors
    ///
    /// Same as [`infer_clip`](Self::infer_clip).
    pub fn classify(&self, clip: &Tensor) -> Result<usize, ServeError> {
        Ok(self.infer_clip(clip)?.label)
    }

    /// Shuts the server down gracefully — stops admissions, serves what
    /// is queued, joins the workers — and returns the final telemetry.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.recorder.snapshot(0)
    }

    fn admit(
        &self,
        clip: &Tensor,
        deadline: Option<Duration>,
        block: bool,
    ) -> Result<Ticket, ServeError> {
        if clip.shape() != self.expected_clip {
            return Err(ServeError::BadClip {
                context: format!(
                    "expected a [t, h, w] = {:?} clip, got {:?}",
                    self.expected_clip,
                    clip.shape()
                ),
            });
        }
        if let Some(at) = clip.as_slice().iter().position(|x| !x.is_finite()) {
            return Err(ServeError::BadClip {
                context: format!(
                    "pixel {at} is {}; clips must be finite",
                    clip.as_slice()[at]
                ),
            });
        }
        // Trace stamping: inherit the trace already open on this thread
        // (the gateway's request span) or mint a fresh id, then open the
        // queue-wait span — it starts here on the client thread and is
        // finished by whichever worker claims the batch.
        let parent = self.tracer.current();
        let trace_id = if parent.trace_id != 0 {
            parent.trace_id
        } else {
            self.tracer.new_trace_id()
        };
        let trace = SpanCtx {
            trace_id,
            span_id: parent.span_id,
        };
        let (reply, receiver) = channel();
        let enqueued = Instant::now();
        let request = Request {
            clip: clip.clone(),
            enqueued,
            deadline: deadline.and_then(|d| enqueued.checked_add(d)),
            reply,
            trace,
            queue_span: Some(self.tracer.span_detached("queue_wait", trace)),
        };
        // Shed-path fast exit: under sustained overload there is no
        // point deep-cloning the clip and building a channel only for
        // try_push to reject it. The check is racy (capacity may free
        // up before the authoritative check under the queue lock), but
        // a stale rejection under overload is exactly what shedding
        // means.
        if !block && self.queue.depth() >= self.queue.capacity() {
            self.recorder.record_rejected();
            return Err(ServeError::Overloaded {
                capacity: self.queue.capacity(),
            });
        }
        // Count the admission *before* publishing the request: once it
        // is in the queue a worker may complete it at any moment, and a
        // completion must never be observable ahead of its submission
        // (the conserved-accounting invariant on `ServerStats`). A
        // rejected push compensates below.
        self.recorder.record_admitted();
        let admitted = if block {
            self.queue.push_blocking(request)
        } else {
            self.queue.try_push(request)
        };
        match admitted {
            Ok(()) => Ok(Ticket::new(receiver)),
            Err(e) => {
                self.recorder.record_unadmitted();
                if matches!(e, ServeError::Overloaded { .. }) {
                    self.recorder.record_rejected();
                }
                Err(e)
            }
        }
    }

    fn stop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.queue.shutdown();
        for handle in self.handles.drain(..) {
            // A panic in a batch's forward pass is caught and answered
            // inside the worker, so workers only end here, once the
            // queue is drained.
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One worker: claim a batch, expire stale requests, run the rest
/// through the private replica in a single forward pass, fan the
/// per-clip predictions back out.
fn run_worker<S>(
    mut pipeline: Pipeline<S>,
    queue: &SharedQueue,
    recorder: &Recorder,
    policy: BatchPolicy,
) where
    S: Sense,
    Error: From<S::Error>,
{
    let tracer = pipeline.tracer().clone();
    while let Some(mut batch) = queue.pop_batch(&policy) {
        let claimed = Instant::now();
        // Close every member's queue-wait span at the moment the batch
        // is claimed — that is where queueing ends, even for requests
        // that turn out to be expired.
        for request in &mut batch {
            if let Some(span) = request.queue_span.take() {
                span.finish();
            }
        }
        // Each queue-latency sample carries its request's trace id so
        // the registry histogram can attach it as an exemplar.
        let queue_latencies: Vec<(Duration, u64)> = batch
            .iter()
            .map(|r| (claimed.duration_since(r.enqueued), r.trace.trace_id))
            .collect();
        let (expired, live): (Vec<Request>, Vec<Request>) =
            batch.into_iter().partition(|r| r.expired(claimed));
        // Every request is counted before its client hears back, so a
        // client holding its answer always finds it in `stats()`.
        recorder.record_batch(&queue_latencies, expired.len() as u64, 0, None);
        for request in expired {
            let waited = claimed.duration_since(request.enqueued);
            request.answer(Err(ServeError::DeadlineExpired { waited }));
        }
        if live.is_empty() {
            continue;
        }

        // One `batch` span per forward pass, on the background trace
        // (many requests share it). It sits on this thread's span
        // stack, so the pipeline's `sense`/`forward`/`readout` guards
        // nest under it with no plumbing.
        let mut batch_span = tracer.span("batch");
        batch_span.arg("clips", live.len());
        // The compute histogram gets one sample per batch; its exemplar
        // points at the first rider's trace.
        let compute_trace = live.first().map_or(0, |r| r.trace.trace_id);
        let batch_ctx = batch_span.ctx();
        let compute_start_us = tracer.now_us();
        let started = Instant::now();
        let clips: Vec<&Tensor> = live.iter().map(|r| &r.clip).collect();
        // A panic in the forward pass fails this batch like an error does
        // and the worker goes on serving; the thread budget and the span
        // guards restore themselves on unwind.
        let result = catch_unwind(AssertUnwindSafe(|| {
            Tensor::stack(&clips, 0)
                .map_err(Error::Tensor)
                .and_then(|stacked| pipeline.infer(&stacked))
        }));
        let compute_end_us = tracer.now_us();
        drop(batch_span);
        if tracer.is_enabled() {
            // Each member request gets its own `compute` span over the
            // one shared forward pass, parented into *its* trace and
            // pointing back at the shared batch span via the arg.
            for request in &live {
                tracer.record_span(
                    "compute",
                    request.trace.trace_id,
                    request.trace.span_id,
                    compute_start_us,
                    compute_end_us,
                    vec![("batch", ArgValue::U64(batch_ctx.span_id))],
                );
            }
        }
        recorder.record_profile(&pipeline.take_profile());
        // A prediction-count regression in the pipeline fails every
        // rider loudly instead of `zip` silently dropping the tail (which
        // would break the conserved accounting and strand clients on
        // `Disconnected`).
        let executed = live.len();
        let compute = started.elapsed();
        let answers = match result {
            Ok(Ok(inference)) if inference.len() == executed => Ok(inference),
            failed => Err(match failed {
                Ok(Ok(inference)) => format!(
                    "pipeline returned {} predictions for a batch of {executed} clips",
                    inference.len()
                ),
                Ok(Err(e)) => e.to_string(),
                Err(payload) => panic_message(payload.as_ref()),
            }),
        };
        let compute = answers.is_ok().then_some((compute, compute_trace));
        recorder.record_batch(&[], 0, executed, compute);
        match answers {
            Ok(inference) => {
                for (request, prediction) in live.into_iter().zip(&inference) {
                    request.answer(Ok(prediction));
                }
            }
            Err(message) => {
                for request in live {
                    request.answer(Err(ServeError::Inference {
                        message: message.clone(),
                    }));
                }
            }
        }
    }
}

/// The text of a panic caught around a batch: `panic!` payloads are a
/// `&str` or a `String`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    format!("inference panicked: {text}")
}
