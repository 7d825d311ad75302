//! The span recorder: tracer handle, RAII guards, per-thread rings.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::record::{ArgValue, SpanRecord};
use crate::snapshot::{LaneInfo, TraceSnapshot};

/// Default per-lane ring capacity: enough for tens of thousands of
/// requests' spans before the oldest records rotate out.
const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Tracer handles need distinct identities so one thread can hold
/// spans for several tracers at once (e.g. a fleet run's private
/// tracer next to a server's).
static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

/// A cheap, clonable handle to a span recorder — or to nothing.
///
/// The two modes are the whole point:
///
/// * [`Tracer::disabled`] holds no recorder at all. Every method is a
///   branch on an `Option` returning an inert value, so threading a
///   disabled tracer through the hot path costs one branch per call
///   site. perfbench's `trace.overhead_share` measures what an enabled
///   tracer costs the benchmark workloads.
/// * [`Tracer::new`] / [`TracerBuilder::build`] hold a shared recorder:
///   spans go into per-thread bounded ring buffers (no contention
///   between recording threads; a mutex per ring is only ever fought
///   over by [`Tracer::snapshot`]).
///
/// Clones share the recorder; snapshotting from any clone sees every
/// thread's records.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Builds an enabled [`Tracer`] with a custom ring capacity or clock.
pub struct TracerBuilder {
    capacity: usize,
    clock: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl fmt::Debug for TracerBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracerBuilder")
            .field("capacity", &self.capacity)
            .field("injected_clock", &self.clock.is_some())
            .finish()
    }
}

impl TracerBuilder {
    /// Cap each per-thread ring at `capacity` records (min 1). When a
    /// ring is full the oldest record rotates out and the snapshot's
    /// `dropped` counter grows — recording never blocks or allocates
    /// beyond the cap.
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Replace the monotonic clock with `clock`, which must return
    /// microseconds since an epoch of its choosing. Tests inject a
    /// counter for deterministic timestamps; the fleet simulator
    /// exports virtual time directly via [`Tracer::record_raw`]
    /// instead.
    pub fn with_clock(mut self, clock: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        self.clock = Some(Arc::new(clock));
        self
    }

    /// Build the enabled tracer.
    pub fn build(self) -> Tracer {
        let clock = match self.clock {
            Some(f) => Clock::Injected(f),
            None => Clock::Monotonic(Instant::now()),
        };
        Tracer {
            inner: Some(Arc::new(Inner {
                id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
                clock,
                capacity: self.capacity,
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                next_lane: AtomicU32::new(1),
                lanes: Mutex::new(Vec::new()),
            })),
        }
    }
}

impl Tracer {
    /// An enabled tracer with default capacity and a monotonic clock.
    #[allow(clippy::new_without_default)] // `Default` is the *disabled* tracer
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Start configuring an enabled tracer.
    pub fn builder() -> TracerBuilder {
        TracerBuilder {
            capacity: DEFAULT_RING_CAPACITY,
            clock: None,
        }
    }

    /// The inert tracer: records nothing, allocates nothing. This is
    /// also what [`Tracer::default`] returns, so builders that carry a
    /// tracer field default to tracing off.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether spans are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocate a fresh request-scoped trace id (`0` when disabled —
    /// `0` is the reserved *background* trace).
    pub fn new_trace_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_trace.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Microseconds since the tracer's epoch (`0` when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.clock.now_us(),
            None => 0,
        }
    }

    /// The context children should attach to right now on this thread:
    /// the innermost live span, or the zero context if none is open.
    pub fn current(&self) -> SpanCtx {
        match &self.inner {
            Some(inner) => with_slot(inner, |slot| slot.stack.last().copied().unwrap_or_default()),
            None => SpanCtx::default(),
        }
    }

    /// Open a span that closes when the guard drops. The span inherits
    /// the innermost live span on this thread as parent (and its trace
    /// id), so nested guards build a tree with no plumbing: the serve
    /// worker opens `batch`, calls into the pipeline, and the
    /// pipeline's `sense`/`forward`/`readout` guards land as children.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        let start_us = inner.clock.now_us();
        with_slot(inner, |slot| {
            let parent = slot.stack.last().copied().unwrap_or_default();
            let ctx = SpanCtx {
                trace_id: parent.trace_id,
                span_id: inner.next_span.fetch_add(1, Ordering::Relaxed),
            };
            slot.stack.push(ctx);
            SpanGuard {
                state: Some(GuardState {
                    tracer: Arc::clone(inner),
                    ctx,
                    parent: parent.span_id,
                    name,
                    start_us,
                    args: Vec::new(),
                }),
                _not_send: PhantomData,
            }
        })
    }

    /// Open a span under an explicit parent context instead of the
    /// thread's innermost span — how a worker thread re-enters a
    /// request's trace after the request crossed the queue. The guard
    /// still lands on this thread's stack, so further [`Tracer::span`]
    /// calls nest under it.
    pub fn span_in(&self, name: &'static str, ctx: SpanCtx) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        let start_us = inner.clock.now_us();
        with_slot(inner, |slot| {
            let own = SpanCtx {
                trace_id: ctx.trace_id,
                span_id: inner.next_span.fetch_add(1, Ordering::Relaxed),
            };
            slot.stack.push(own);
            SpanGuard {
                state: Some(GuardState {
                    tracer: Arc::clone(inner),
                    ctx: own,
                    parent: ctx.span_id,
                    name,
                    start_us,
                    args: Vec::new(),
                }),
                _not_send: PhantomData,
            }
        })
    }

    /// Open a `Send` span that can finish on a different thread than it
    /// started on (it never touches the per-thread span stack, so it
    /// does not become anyone's implicit parent). This is the queue
    /// wait: admission opens it on the client thread, the worker that
    /// claims the batch finishes it.
    pub fn span_detached(&self, name: &'static str, ctx: SpanCtx) -> DetachedSpan {
        let Some(inner) = &self.inner else {
            return DetachedSpan { state: None };
        };
        let start_us = inner.clock.now_us();
        DetachedSpan {
            state: Some(GuardState {
                tracer: Arc::clone(inner),
                ctx: SpanCtx {
                    trace_id: ctx.trace_id,
                    span_id: inner.next_span.fetch_add(1, Ordering::Relaxed),
                },
                parent: ctx.span_id,
                name,
                start_us,
                args: Vec::new(),
            }),
        }
    }

    /// Record an already-measured interval under `(trace_id, parent)`
    /// with a freshly allocated span id (returned; `0` when disabled).
    /// The serving layer uses this to give every member request of a
    /// batch its own `compute` span over the one measured forward pass.
    pub fn record_span(
        &self,
        name: &'static str,
        trace_id: u64,
        parent: u64,
        start_us: u64,
        end_us: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let span_id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        inner.push_here(SpanRecord {
            trace_id,
            span_id,
            parent,
            name,
            start_us,
            end_us,
            lane: 0, // overwritten with the recording lane by push_here
            args,
        });
        span_id
    }

    /// Record a fully caller-specified record, lane and span id
    /// included. The record lands in the calling thread's ring (rings
    /// are storage, not identity: the record's own `lane` field is
    /// what the snapshot and the exporter believe). The fleet
    /// simulator uses this to export every virtual node's events on
    /// its own lane with its own deterministic per-node span sequence.
    ///
    /// Callers must keep `(lane, span_id)` pairs unique, or snapshot
    /// ordering (sorted by `(start_us, lane, span_id)`) loses its
    /// determinism guarantee.
    pub fn record_raw(&self, record: SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.push_here_keep_lane(record);
        }
    }

    /// Merge every thread's ring into one deterministically ordered
    /// snapshot (sorted by `(start_us, lane, span_id)`). Records stay
    /// in the rings — snapshots are cheap reads, and `/debug/trace`
    /// can serve them repeatedly.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(inner) = &self.inner else {
            return TraceSnapshot::default();
        };
        let lanes: Vec<Arc<Lane>> = lock(&inner.lanes).clone();
        let mut records = Vec::new();
        let mut dropped = 0u64;
        let mut infos = Vec::with_capacity(lanes.len());
        for lane in &lanes {
            let ring = lock(&lane.ring);
            records.extend(ring.buf.iter().cloned());
            dropped += ring.dropped;
            infos.push(LaneInfo {
                lane: lane.lane,
                name: lane.name.clone(),
            });
        }
        records.sort_by_key(|r| (r.start_us, r.lane, r.span_id));
        infos.sort_by_key(|info| info.lane);
        TraceSnapshot {
            records,
            dropped,
            lanes: infos,
        }
    }
}

/// The `(trace_id, span_id)` pair children parent themselves to.
///
/// The zero value ([`SpanCtx::default`]) is "no context": background
/// trace, root parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    /// The request-scoped trace id (`0` = background).
    pub trace_id: u64,
    /// The span children should use as `parent` (`0` = root).
    pub span_id: u64,
}

enum Clock {
    Monotonic(Instant),
    Injected(Arc<dyn Fn() -> u64 + Send + Sync>),
}

impl Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Monotonic(epoch) => {
                u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            Clock::Injected(f) => f(),
        }
    }
}

struct Inner {
    id: u64,
    clock: Clock,
    capacity: usize,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    next_lane: AtomicU32,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

impl Inner {
    /// Push into the calling thread's ring, stamping the ring's lane id
    /// onto the record.
    fn push_here(self: &Arc<Self>, mut record: SpanRecord) {
        with_slot(self, |slot| {
            record.lane = slot.lane.lane;
            slot.lane.push(record);
        });
    }

    /// Push into the calling thread's ring, keeping the record's own
    /// lane field.
    fn push_here_keep_lane(self: &Arc<Self>, record: SpanRecord) {
        with_slot(self, |slot| slot.lane.push(record));
    }

    fn register_lane(&self) -> Arc<Lane> {
        let id = self.next_lane.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("lane-{id}"));
        let lane = Arc::new(Lane {
            lane: id,
            name,
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                dropped: 0,
                cap: self.capacity,
            }),
        });
        lock(&self.lanes).push(Arc::clone(&lane));
        lane
    }
}

struct Lane {
    lane: u32,
    name: String,
    ring: Mutex<Ring>,
}

impl Lane {
    fn push(&self, record: SpanRecord) {
        let mut ring = lock(&self.ring);
        if ring.buf.len() >= ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(record);
    }
}

struct Ring {
    buf: VecDeque<SpanRecord>,
    dropped: u64,
    cap: usize,
}

/// Recover from poisoning: a panicking recording thread must not take
/// every later span (or the snapshot) down with it.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// Per-thread state: one (lane, span stack) slot per live tracer. The
// vector is effectively length 1 or 2 in practice, so a linear scan
// beats any map.
thread_local! {
    static SLOTS: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

struct Slot {
    tracer: u64,
    lane: Arc<Lane>,
    stack: Vec<SpanCtx>,
}

fn with_slot<R>(inner: &Arc<Inner>, f: impl FnOnce(&mut Slot) -> R) -> R {
    SLOTS.with(|slots| {
        let mut slots = slots.borrow_mut();
        let idx = match slots.iter().position(|s| s.tracer == inner.id) {
            Some(idx) => idx,
            None => {
                slots.push(Slot {
                    tracer: inner.id,
                    lane: inner.register_lane(),
                    stack: Vec::new(),
                });
                slots.len() - 1
            }
        };
        f(&mut slots[idx])
    })
}

struct GuardState {
    tracer: Arc<Inner>,
    ctx: SpanCtx,
    parent: u64,
    name: &'static str,
    start_us: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII handle for an open span: dropping it closes and records the
/// span. Deliberately `!Send` — it sits on this thread's span stack;
/// use [`Tracer::span_detached`] for intervals that cross threads.
pub struct SpanGuard {
    state: Option<GuardState>,
    _not_send: PhantomData<*const ()>,
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("ctx", &self.ctx())
            .finish()
    }
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            state: None,
            _not_send: PhantomData,
        }
    }

    /// The context children should parent to (zero when disabled).
    pub fn ctx(&self) -> SpanCtx {
        self.state.as_ref().map(|s| s.ctx).unwrap_or_default()
    }

    /// The trace this span belongs to (`0` when disabled/background).
    pub fn trace_id(&self) -> u64 {
        self.ctx().trace_id
    }

    /// Attach a key/value argument to the span (no-op when disabled).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(state) = &mut self.state {
            state.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let end_us = state.tracer.clock.now_us();
        let tracer = Arc::clone(&state.tracer);
        with_slot(&tracer, |slot| {
            // Guards normally drop LIFO; tolerate out-of-order drops by
            // removing our own entry wherever it sits.
            if let Some(pos) = slot
                .stack
                .iter()
                .rposition(|c| c.span_id == state.ctx.span_id)
            {
                slot.stack.remove(pos);
            }
            slot.lane.push(SpanRecord {
                trace_id: state.ctx.trace_id,
                span_id: state.ctx.span_id,
                parent: state.parent,
                name: state.name,
                start_us: state.start_us,
                end_us,
                lane: slot.lane.lane,
                args: state.args,
            });
        });
    }
}

/// A `Send` span that may start on one thread and finish on another.
/// It records when dropped (or via the explicit [`DetachedSpan::finish`])
/// into whichever thread's ring it ends on; it never participates in
/// implicit parenting.
pub struct DetachedSpan {
    state: Option<GuardState>,
}

impl fmt::Debug for DetachedSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetachedSpan")
            .field("ctx", &self.ctx())
            .finish()
    }
}

impl DetachedSpan {
    /// The context children should parent to (zero when disabled).
    pub fn ctx(&self) -> SpanCtx {
        self.state.as_ref().map(|s| s.ctx).unwrap_or_default()
    }

    /// Close the span now. Equivalent to dropping it; spelled out so
    /// call sites show *where* the interval ends.
    pub fn finish(self) {}
}

impl Drop for DetachedSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let end_us = state.tracer.clock.now_us();
        let tracer = Arc::clone(&state.tracer);
        tracer.push_here(SpanRecord {
            trace_id: state.ctx.trace_id,
            span_id: state.ctx.span_id,
            parent: state.parent,
            name: state.name,
            start_us: state.start_us,
            end_us,
            lane: 0, // stamped with the finishing thread's lane by push_here
            args: state.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    /// A deterministic clock: each read advances by 10 us.
    fn ticking() -> Tracer {
        let ticks = Arc::new(Counter::new(0));
        Tracer::builder()
            .with_clock(move || ticks.fetch_add(10, Ordering::Relaxed))
            .build()
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.new_trace_id(), 0);
        assert_eq!(tracer.now_us(), 0);
        let mut guard = tracer.span("noop");
        guard.arg("k", 1u64);
        assert_eq!(guard.ctx(), SpanCtx::default());
        drop(guard);
        tracer.span_detached("noop", SpanCtx::default()).finish();
        let snap = tracer.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn nested_guards_parent_automatically() {
        let tracer = ticking();
        let trace = tracer.new_trace_id();
        let (outer_id, inner_id);
        {
            let outer = tracer.span_in(
                "outer",
                SpanCtx {
                    trace_id: trace,
                    span_id: 0,
                },
            );
            outer_id = outer.ctx().span_id;
            assert_eq!(tracer.current(), outer.ctx());
            {
                let inner = tracer.span("inner");
                inner_id = inner.ctx().span_id;
                assert_eq!(inner.trace_id(), trace, "trace id inherited");
            }
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 2);
        let inner = snap.records.iter().find(|r| r.span_id == inner_id).unwrap();
        let outer = snap.records.iter().find(|r| r.span_id == outer_id).unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.trace_id, trace);
        // Injected clock: strictly increasing 10 us ticks, inner nested
        // inside outer.
        assert!(outer.start_us < inner.start_us);
        assert!(inner.end_us < outer.end_us);
        assert_eq!(inner.duration_us(), 10);
    }

    #[test]
    fn args_ride_on_the_record() {
        let tracer = ticking();
        {
            let mut span = tracer.span("work");
            span.arg("clips", 8usize);
            span.arg("endpoint", "classify");
        }
        let snap = tracer.snapshot();
        let record = &snap.records[0];
        assert_eq!(record.arg("clips").and_then(ArgValue::as_u64), Some(8));
        assert_eq!(
            record.arg("endpoint").and_then(ArgValue::as_str),
            Some("classify")
        );
        assert_eq!(record.arg("missing"), None);
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let ticks = Arc::new(Counter::new(0));
        let tracer = Tracer::builder()
            .ring_capacity(4)
            .with_clock(move || ticks.fetch_add(1, Ordering::Relaxed))
            .build();
        for _ in 0..10 {
            tracer.span("s");
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.dropped, 6);
        // The survivors are the most recent records.
        let min_start = snap.records.iter().map(|r| r.start_us).min().unwrap();
        assert!(min_start >= 12, "oldest records rotated out");
    }

    #[test]
    fn detached_spans_cross_threads() {
        let tracer = ticking();
        let trace = tracer.new_trace_id();
        let root = SpanCtx {
            trace_id: trace,
            span_id: 7,
        };
        let span = tracer.span_detached("queue_wait", root);
        let ctx = span.ctx();
        std::thread::spawn(move || span.finish()).join().unwrap();
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 1);
        let record = &snap.records[0];
        assert_eq!(record.span_id, ctx.span_id);
        assert_eq!(record.parent, 7);
        assert_eq!(record.trace_id, trace);
        assert_eq!(record.name, "queue_wait");
    }

    #[test]
    fn record_raw_keeps_lane_and_ids() {
        let tracer = ticking();
        // Out-of-order inserts on purpose: the snapshot re-sorts.
        for (lane, seq, at) in [(3u32, 2u64, 50u64), (3, 1, 20), (1, 1, 20)] {
            tracer.record_raw(SpanRecord {
                trace_id: 0,
                span_id: seq,
                parent: 0,
                name: "event",
                start_us: at,
                end_us: at,
                lane,
                args: Vec::new(),
            });
        }
        let snap = tracer.snapshot();
        let order: Vec<(u64, u32, u64)> = snap
            .records
            .iter()
            .map(|r| (r.start_us, r.lane, r.span_id))
            .collect();
        assert_eq!(order, vec![(20, 1, 1), (20, 3, 1), (50, 3, 2)]);
    }

    #[test]
    fn record_span_allocates_an_id_and_lands_on_this_lane() {
        let tracer = ticking();
        let id = tracer.record_span("compute", 9, 4, 100, 250, vec![("batch", ArgValue::U64(2))]);
        assert_ne!(id, 0);
        let snap = tracer.snapshot();
        let record = &snap.records[0];
        assert_eq!(record.span_id, id);
        assert_eq!((record.trace_id, record.parent), (9, 4));
        assert_eq!((record.start_us, record.end_us), (100, 250));
        assert_ne!(record.lane, 0, "stamped with the recording lane");
    }

    #[test]
    fn snapshot_merges_lanes_from_many_threads() {
        let tracer = ticking();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    tracer.span("worker");
                });
            }
        });
        tracer.span("main");
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.lanes.len(), 5);
        // Sorted by (start_us, lane, span_id): start times are unique
        // under the ticking clock, so the order is by start.
        let mut starts: Vec<u64> = snap.records.iter().map(|r| r.start_us).collect();
        let sorted = {
            let mut s = starts.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(starts, sorted);
        starts.dedup();
        assert_eq!(starts.len(), 5);
    }

    #[test]
    fn chrome_export_round_trips_basic_shape() {
        let tracer = ticking();
        {
            let mut span = tracer.span_in(
                "classify",
                SpanCtx {
                    trace_id: 1,
                    span_id: 0,
                },
            );
            span.arg("note", "quote\" and \\slash");
        }
        let json = tracer.snapshot().to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"classify\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"note\":\"quote\\\" and \\\\slash\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn tracer_and_types_are_send_sync_where_promised() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Tracer>();
        assert_send_sync::<SpanRecord>();
        assert_send_sync::<TraceSnapshot>();
        assert_send::<DetachedSpan>();
    }
}
