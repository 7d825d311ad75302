//! The dynamic batching policy: how many concurrent requests a worker
//! coalesces into one forward pass, and how long it will hold a partial
//! batch open waiting for more.

use std::time::Duration;

/// Controls how the central batcher trades latency for throughput.
///
/// A worker that finds requests waiting takes up to
/// [`max_batch`](Self::max_batch) of them immediately; when fewer are
/// available it keeps the partial batch open for up to
/// [`max_delay`](Self::max_delay) in case more clients arrive, then runs
/// with what it has. `max_delay` is the most latency batching may *add*
/// to a request; `Duration::ZERO` degenerates to take-what's-there
/// batching (still batching under burst load, never waiting for it).
///
/// # Examples
///
/// ```
/// use snappix_serve::BatchPolicy;
/// use std::time::Duration;
///
/// let policy = BatchPolicy::new(16, Duration::from_millis(2));
/// assert_eq!(policy.max_batch, 16);
/// let greedy = BatchPolicy::greedy(8);
/// assert_eq!(greedy.max_delay, Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest `[batch, t, h, w]` batch a worker will assemble.
    pub max_batch: usize,
    /// Longest a worker holds a partial batch open for late arrivals.
    pub max_delay: Duration,
}

impl BatchPolicy {
    /// A policy batching up to `max_batch` clips (clamped to at least 1)
    /// with at most `max_delay` of added queueing.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
            max_delay,
        }
    }

    /// A policy that never waits: workers run immediately with whatever
    /// is queued (up to `max_batch`). Lowest latency; batches only form
    /// when clients genuinely pile up.
    pub fn greedy(max_batch: usize) -> Self {
        BatchPolicy::new(max_batch, Duration::ZERO)
    }
}

impl Default for BatchPolicy {
    /// Batch up to 8 clips, holding partial batches open for at most
    /// 2 ms.
    fn default() -> Self {
        BatchPolicy::new(8, Duration::from_millis(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_clamp_and_default_sanely() {
        assert_eq!(BatchPolicy::new(0, Duration::ZERO).max_batch, 1);
        let d = BatchPolicy::default();
        assert_eq!(d.max_batch, 8);
        assert_eq!(d.max_delay, Duration::from_millis(2));
        assert_eq!(BatchPolicy::greedy(4).max_delay, Duration::ZERO);
    }
}
