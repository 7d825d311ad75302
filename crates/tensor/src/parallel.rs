//! Shared data-parallel execution layer for the workspace's hot kernels.
//!
//! Every parallel region in the workspace (tensor matmul, the
//! convolution loops in `snappix-nn`, the pipeline's clip sharding and
//! dataset evaluation) splits its work through the helpers here instead
//! of spawning ad-hoc threads per call site. The helpers are built on
//! [`std::thread::scope`], so borrowed inputs flow into workers without
//! `'static` bounds or any `unsafe`.
//!
//! # Thread-count resolution
//!
//! The number of workers a parallel region uses is resolved at the call,
//! in priority order:
//!
//! 1. a scoped override installed by [`with_threads`] on the calling
//!    thread (this is how `snappix::PipelineBuilder::with_threads` scopes
//!    parallelism per pipeline);
//! 2. the `SNAPPIX_THREADS` environment variable (a positive integer;
//!    read once and cached);
//! 3. [`std::thread::available_parallelism`].
//!
//! `SNAPPIX_THREADS=1` (or `with_threads(1, ..)`) makes every kernel run
//! its serial path on the calling thread — deterministic and
//! allocation-free, and the reference the parity tests compare against.
//! Worker threads themselves run with an override of 1, so a kernel
//! calling another kernel from inside a parallel region never
//! oversubscribes.
//!
//! # Examples
//!
//! ```
//! use snappix_tensor::parallel;
//!
//! // Square 8 numbers across however many workers are available.
//! let mut data: Vec<f32> = (0..8).map(|i| i as f32).collect();
//! parallel::par_chunks_mut(&mut data, 2, |_chunk_index, chunk| {
//!     for x in chunk {
//!         *x *= *x;
//!     }
//! });
//! assert_eq!(data[3], 9.0);
//!
//! // Scope a region to exactly one worker (the serial reference path).
//! let total: usize = parallel::with_threads(1, || {
//!     parallel::par_ranges(10, |r| r.len()).into_iter().sum()
//! });
//! assert_eq!(total, 10);
//! ```

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Name of the environment variable that pins the worker count.
pub const THREADS_ENV_VAR: &str = "SNAPPIX_THREADS";

static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses a `SNAPPIX_THREADS`-style value: a positive integer pins the
/// worker count, anything else (empty, `0`, garbage) falls back to auto
/// detection.
fn parse_thread_count(value: Option<&str>) -> Option<usize> {
    match value?.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// The process-wide default worker count: `SNAPPIX_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
///
/// Resolved once and cached for the life of the process.
pub fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        parse_thread_count(std::env::var(THREADS_ENV_VAR).ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// The worker count a parallel region started from this thread would use:
/// the innermost [`with_threads`] override if one is active, otherwise
/// [`default_threads`].
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_threads)
}

/// Runs `f` with the calling thread's worker count pinned to `threads`
/// (clamped to at least 1), restoring the previous setting afterwards —
/// including on panic.
///
/// Overrides nest: the innermost wins. This is the mechanism behind the
/// per-pipeline knob (`snappix::PipelineBuilder::with_threads`) and the
/// parity tests' `with_threads(1, ..)` serial reference runs.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let previous = THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
    let _restore = Restore(previous);
    f()
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` over all of them,
/// fanning out across [`current_threads`] scoped workers.
///
/// Chunks are claimed dynamically from a shared queue, so uneven
/// per-chunk cost still load-balances. The calling thread is one of the
/// workers: it spawns `threads - 1` scoped helpers and claims chunks
/// alongside them. With one worker — or when there is at most one
/// chunk — everything runs on the calling thread in index order with no
/// thread spawned: that is the serial reference path.
///
/// Each `(chunk_index, chunk)` pair is visited exactly once, and distinct
/// chunks never alias, so kernels that partition their output tensor by
/// rows/batches write lock-free. Every worker, the caller included, runs
/// `f` under `with_threads(1)`. A panic in `f` — on the caller's chunk
/// or a helper's — propagates to the caller once all workers have
/// stopped; the other workers drain the remaining chunks first.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = current_threads().min(n_chunks);
    if threads <= 1 {
        for (index, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(index, chunk);
        }
        return;
    }
    // A shared queue of disjoint `&mut` chunks: workers claim the next
    // chunk under a short-lived lock (one lock round-trip per chunk; the
    // chunks are coarse, so contention is noise next to the work).
    let queue = std::sync::Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let (queue, f) = (&queue, &f);
    // Workers run nested kernels serially: the split at this level
    // already saturates the requested parallelism.
    let work = move || {
        with_threads(1, || loop {
            let next = queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .next();
            match next {
                Some((index, chunk)) => f(index, chunk),
                None => break,
            }
        });
    };
    // `scope` joins every helper before it returns or resumes a panic
    // raised on the calling thread.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

/// Splits `0..len` into up to [`current_threads`] contiguous,
/// near-equal-length, non-empty ranges, runs `f` on each (in parallel
/// when more than one), and returns the per-range results in range
/// order.
///
/// This is the map-reduce companion to [`par_chunks_mut`] for kernels
/// that *read* a shared structure and fold a value per shard (e.g.
/// dataset evaluation). With one worker the single range `0..len` runs on
/// the calling thread. `len == 0` yields no ranges.
pub fn par_ranges<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = current_threads().min(len);
    if threads <= 1 {
        return vec![f(0..len)];
    }
    // The ceil-divided stride can overshoot `len` before `threads` ranges
    // are cut (e.g. len 10 across 7 workers: strides of 2 cover it in
    // 5), so ranges are built by walking to `len` — never empty, never
    // inverted — rather than by worker index.
    let per = len.div_ceil(threads);
    let ranges: Vec<Range<usize>> = (0..len)
        .step_by(per)
        .map(|start| start..(start + per).min(len))
        .collect();
    if ranges.len() <= 1 {
        return vec![f(0..len)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || with_threads(1, || f(range))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Number of workers worth spawning for a kernel with `work` cost units
/// when each worker should receive at least `min_per_worker` units:
/// `min(current_threads, work / min_per_worker)`, at least 1.
///
/// This is the one shared sizing policy for every parallel kernel in the
/// workspace. An on/off threshold is not enough: a kernel barely above
/// such a threshold would fan tiny slices across every core and pay more
/// in spawn/join than the slices are worth (an early version cost the
/// ViT forward 2.3x when oversubscribed; CHANGES.md records it). Scaling
/// the worker count by the work keeps each spawn paid for, on any
/// machine and under any `SNAPPIX_THREADS` setting. Callers pick
/// `min_per_worker` so a slice runs on the order of 100 µs — an order
/// of magnitude above scoped spawn/join cost.
pub fn workers_for(work: usize, min_per_worker: usize) -> usize {
    current_threads().min(work / min_per_worker.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_thread_count_accepts_positive_integers_only() {
        assert_eq!(parse_thread_count(Some("4")), Some(4));
        assert_eq!(parse_thread_count(Some(" 16 ")), Some(16));
        assert_eq!(parse_thread_count(Some("1")), Some(1));
        assert_eq!(parse_thread_count(Some("0")), None);
        assert_eq!(parse_thread_count(Some("-2")), None);
        assert_eq!(parse_thread_count(Some("eight")), None);
        assert_eq!(parse_thread_count(Some("")), None);
        assert_eq!(parse_thread_count(None), None);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
        assert_eq!(current_threads(), default_threads());
    }

    #[test]
    fn with_threads_overrides_scoped_and_nested() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(7, || assert_eq!(current_threads(), 7));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), default_threads());
        // Zero clamps to the serial path rather than wedging.
        with_threads(0, || assert_eq!(current_threads(), 1));
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(current_threads(), default_threads());
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_exactly_once() {
        for threads in [1usize, 2, 3, 64] {
            let mut data = vec![0u32; 37];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 5, |index, chunk| {
                    for x in chunk.iter_mut() {
                        *x += 1 + index as u32;
                    }
                });
            });
            // 37 = 7 chunks of 5 + tail of 2; element e belongs to chunk e / 5.
            for (e, &v) in data.iter().enumerate() {
                assert_eq!(v, 1 + (e / 5) as u32, "element {e} at {threads} threads");
            }
        }
    }

    #[test]
    fn par_chunks_mut_handles_degenerate_shapes() {
        let mut empty: Vec<f32> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks expected"));

        let mut one = vec![1.0f32; 3];
        with_threads(8, || {
            // Chunk longer than the data: single chunk, runs serially.
            par_chunks_mut(&mut one, 100, |index, chunk| {
                assert_eq!(index, 0);
                assert_eq!(chunk.len(), 3);
                chunk[0] = 9.0;
            });
        });
        assert_eq!(one[0], 9.0);

        // chunk_len of 0 clamps to 1 instead of looping forever.
        let mut tiny = vec![0u8; 2];
        par_chunks_mut(&mut tiny, 0, |i, c| c[0] = i as u8);
        assert_eq!(tiny, vec![0, 1]);
    }

    #[test]
    fn par_chunks_mut_workers_run_nested_kernels_serially() {
        let mut data = vec![0usize; 4];
        with_threads(4, || {
            par_chunks_mut(&mut data, 1, |_, chunk| {
                chunk[0] = current_threads();
            });
        });
        assert!(data.iter().all(|&t| t == 1), "workers must report 1 thread");
    }

    #[test]
    fn par_chunks_mut_caller_is_one_of_the_workers() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        use std::time::{Duration, Instant};

        let caller = std::thread::current().id();
        let workers = Mutex::new(HashSet::new());
        let started = AtomicUsize::new(0);
        let mut data = vec![0u8; 8];
        with_threads(2, || {
            par_chunks_mut(&mut data, 1, |_, _| {
                workers.lock().unwrap().insert(std::thread::current().id());
                // Hold each first chunk until both workers have claimed
                // one (bounded, so a regression fails instead of hanging).
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
        });
        let workers = workers.into_inner().unwrap();
        assert_eq!(workers.len(), 2, "two workers share the chunks");
        assert!(workers.contains(&caller), "the caller claims chunks too");
    }

    /// Runs 16 one-element chunks on 2 workers; the first chunk claimed
    /// by the caller (`on_caller`) or by the helper panics. The other
    /// worker's first chunk waits until the panicking worker has started,
    /// so exactly one chunk panics. Returns whether the panic reached the
    /// caller, and how many chunks had finished by then.
    fn panic_on_worker(on_caller: bool) -> (bool, usize) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        let caller = std::thread::current().id();
        let panicker_started = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let mut data = vec![0u8; 16];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(2, || {
                par_chunks_mut(&mut data, 1, |_, _| {
                    let is_panicker = (std::thread::current().id() == caller) == on_caller;
                    if is_panicker && !panicker_started.swap(true, Ordering::SeqCst) {
                        panic!("chunk panicked");
                    }
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !panicker_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        (result.is_err(), finished.load(Ordering::SeqCst))
    }

    #[test]
    fn par_chunks_mut_propagates_a_panic_on_the_callers_chunk() {
        let (panicked, finished) = panic_on_worker(true);
        assert!(panicked, "the caller's panic must reach the caller");
        assert_eq!(finished, 15, "the helper drained every other chunk first");
        assert_eq!(current_threads(), default_threads(), "override restored");
    }

    #[test]
    fn par_chunks_mut_propagates_a_panic_on_a_helpers_chunk() {
        let (panicked, finished) = panic_on_worker(false);
        assert!(panicked, "a helper's panic must reach the caller");
        assert_eq!(finished, 15, "the caller drained every other chunk first");
        assert_eq!(current_threads(), default_threads(), "override restored");
    }

    #[test]
    fn par_ranges_covers_and_orders() {
        // Includes len/thread pairs whose ceil-divided stride overshoots
        // (10 across 7, 5 across 4): a worker-indexed split would emit
        // empty and inverted ranges there.
        for len in [23usize, 10, 5, 1] {
            for threads in [1usize, 2, 4, 5, 7, 100] {
                let ranges = with_threads(threads, || par_ranges(len, |r| r));
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= threads);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "len {len}, {threads} threads");
                    assert!(r.end > r.start, "len {len}, {threads} threads");
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len);
            }
        }
        assert!(par_ranges(0, |r| r).is_empty());
    }

    #[test]
    fn workers_for_scales_with_work() {
        with_threads(8, || {
            assert_eq!(workers_for(0, 100), 1);
            assert_eq!(workers_for(99, 100), 1);
            assert_eq!(workers_for(250, 100), 2);
            assert_eq!(workers_for(100_000, 100), 8, "clamped by threads");
            assert_eq!(workers_for(5, 0), 5, "zero floor clamps to 1 unit");
        });
        with_threads(1, || assert_eq!(workers_for(1 << 30, 1), 1));
    }

    #[test]
    fn par_ranges_reduces_like_serial() {
        let serial: usize = (0..1000).sum();
        let parallel: usize = with_threads(7, || {
            par_ranges(1000, |r| r.sum::<usize>()).into_iter().sum()
        });
        assert_eq!(serial, parallel);
    }
}
