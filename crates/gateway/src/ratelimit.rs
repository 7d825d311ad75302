//! Per-client token-bucket rate limiting for the classify endpoint.
//!
//! Admission control happens in two layers: this bucket sheds clients
//! that are individually too chatty (`429 Too Many Requests` with a
//! `Retry-After` telling them when their next token lands), and the
//! serving layer's bounded queue sheds *aggregate* overload
//! (`503 Service Unavailable`). Both map to explicit backoff on the
//! wire instead of queueing without bound.

use crate::GatewayError;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A per-client token-bucket policy: sustained `rate` requests per
/// second with bursts of up to `burst` back-to-back requests.
///
/// Clients are keyed by peer IP address. Each client's bucket starts
/// full (a fresh client can always burst), refills continuously at
/// `rate` tokens per second, and caps at `burst` tokens; one classify
/// request spends one token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained tokens (requests) per second per client.
    pub rate: f64,
    /// Bucket capacity: the largest burst a client can spend at once.
    pub burst: u32,
}

impl RateLimit {
    /// A policy of `rate` requests per second with a burst of `burst`.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] unless `rate` is finite and positive
    /// and `burst` is at least 1 — a zero-token bucket would shed every
    /// request, which is a misconfiguration, not a policy.
    pub fn new(rate: f64, burst: u32) -> Result<Self, GatewayError> {
        if !rate.is_finite() || rate <= 0.0 || burst == 0 {
            return Err(GatewayError::Config {
                context: format!(
                    "rate limit must be finite, positive, and allow a burst of at least 1 \
                     (got {rate} rps, burst {burst})"
                ),
            });
        }
        Ok(RateLimit { rate, burst })
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

#[derive(Debug, Default)]
struct Buckets {
    by_client: HashMap<IpAddr, Bucket>,
    /// `by_client.len()` right after the last sweep.
    swept_len: usize,
}

/// The shared limiter: one bucket per client IP, behind one lock (the
/// critical section is a few float operations — negligible next to the
/// forward pass each admitted request buys).
///
/// Memory is bounded by recently active clients: a bucket idle for
/// `burst / rate` seconds has refilled to `burst`, which is exactly the
/// state of a fresh bucket, so such buckets are swept whenever the map
/// doubles past its size at the last sweep (amortized O(1) per new
/// client) without changing any answer.
#[derive(Debug)]
pub(crate) struct Limiter {
    policy: RateLimit,
    buckets: Mutex<Buckets>,
}

impl Limiter {
    pub fn new(policy: RateLimit) -> Self {
        Limiter {
            policy,
            buckets: Mutex::new(Buckets::default()),
        }
    }

    /// Spends one token from `client`'s bucket at time `now`.
    ///
    /// `Err(wait)` means the bucket is empty; `wait` is how long until
    /// the next token lands (the `Retry-After` payload).
    pub fn admit(&self, client: IpAddr, now: Instant) -> Result<(), Duration> {
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Buckets {
            by_client,
            swept_len,
        } = &mut *buckets;
        let burst = f64::from(self.policy.burst);
        if by_client.len() >= 2 * *swept_len && !by_client.contains_key(&client) {
            // The refill below caps `tokens + elapsed * rate` at `burst`,
            // and `tokens >= 0`, so once `elapsed * rate >= burst` the
            // bucket is full whatever it held: the same as a fresh one.
            by_client.retain(|_, b| {
                now.saturating_duration_since(b.refilled).as_secs_f64() * self.policy.rate < burst
            });
            *swept_len = by_client.len();
        }
        let bucket = by_client.entry(client).or_insert(Bucket {
            tokens: burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.policy.rate).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64(
                (1.0 - bucket.tokens) / self.policy.rate,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    #[test]
    fn rejects_degenerate_policies() {
        assert!(RateLimit::new(0.0, 4).is_err());
        assert!(RateLimit::new(-1.0, 4).is_err());
        assert!(RateLimit::new(f64::NAN, 4).is_err());
        assert!(RateLimit::new(f64::INFINITY, 4).is_err());
        assert!(RateLimit::new(10.0, 0).is_err());
        assert!(RateLimit::new(10.0, 1).is_ok());
    }

    #[test]
    fn bursts_then_refills_at_the_sustained_rate() {
        let limiter = Limiter::new(RateLimit::new(10.0, 3).expect("valid"));
        let t0 = Instant::now();
        // A fresh client gets its full burst...
        for _ in 0..3 {
            assert_eq!(limiter.admit(ip(1), t0), Ok(()));
        }
        // ...then is told to wait one token-interval (100 ms at 10 rps).
        let wait = limiter.admit(ip(1), t0).expect_err("bucket empty");
        assert!(
            (wait.as_secs_f64() - 0.1).abs() < 1e-6,
            "expected ~100 ms, got {wait:?}"
        );
        // Half a token refilled after 50 ms: still shed, shorter wait.
        let wait = limiter
            .admit(ip(1), t0 + Duration::from_millis(50))
            .expect_err("only half a token");
        assert!((wait.as_secs_f64() - 0.05).abs() < 1e-6, "got {wait:?}");
        // After a full interval the request is admitted again.
        assert_eq!(
            limiter.admit(ip(1), t0 + Duration::from_millis(150)),
            Ok(())
        );
    }

    #[test]
    fn clients_have_independent_buckets_and_refill_caps_at_burst() {
        let limiter = Limiter::new(RateLimit::new(1.0, 2).expect("valid"));
        let t0 = Instant::now();
        assert_eq!(limiter.admit(ip(1), t0), Ok(()));
        assert_eq!(limiter.admit(ip(1), t0), Ok(()));
        assert!(limiter.admit(ip(1), t0).is_err(), "client 1 exhausted");
        assert_eq!(limiter.admit(ip(2), t0), Ok(()), "client 2 unaffected");
        // An hour idle refills to the burst cap, not to 3600 tokens.
        let later = t0 + Duration::from_secs(3600);
        assert_eq!(limiter.admit(ip(1), later), Ok(()));
        assert_eq!(limiter.admit(ip(1), later), Ok(()));
        assert!(limiter.admit(ip(1), later).is_err(), "capped at burst 2");
    }

    #[test]
    fn idle_clients_are_swept_without_changing_any_answer() {
        let policy = RateLimit::new(10.0, 2).expect("valid");
        let limiter = Limiter::new(policy);
        // The same token bucket with no eviction: one entry per client
        // ever seen.
        let mut reference: HashMap<IpAddr, (f64, Instant)> = HashMap::new();
        let mut reference_admit = |client: IpAddr, now: Instant| {
            let burst = f64::from(policy.burst);
            let (tokens, refilled) = reference.entry(client).or_insert((burst, now));
            let elapsed = now.saturating_duration_since(*refilled).as_secs_f64();
            *tokens = (*tokens + elapsed * policy.rate).min(burst);
            *refilled = now;
            if *tokens >= 1.0 {
                *tokens -= 1.0;
                Ok(())
            } else {
                Err(Duration::from_secs_f64((1.0 - *tokens) / policy.rate))
            }
        };
        let client = |i: u32| IpAddr::from((0x0a00_0000 + i).to_be_bytes());
        let t0 = Instant::now();
        let len = || limiter.buckets.lock().expect("unpoisoned").by_client.len();
        // A drained bucket is full again after 200 ms idle. Every 10 ms a
        // new client drains its bucket, and the clients that arrived
        // 150 ms and 250 ms ago try three more times: each finds 1.5
        // tokens refilled since it last drained, so one is admitted and
        // two are refused, where a fresh bucket would admit two.
        for step in 0..2000u32 {
            let now = t0 + Duration::from_millis(10 * u64::from(step));
            for i in [step, step.saturating_sub(15), step.saturating_sub(25)] {
                for _ in 0..3 {
                    assert_eq!(
                        limiter.admit(client(i), now),
                        reference_admit(client(i), now),
                        "client {i} at step {step}"
                    );
                }
            }
        }
        assert!(len() < 100, "{} buckets kept for 2000 clients", len());
    }
}
