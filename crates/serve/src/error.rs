//! Serving-layer errors: admission, deadline, and batch-execution
//! failures, plus the bridge into the umbrella [`snappix::Error`].

use std::fmt;
use std::time::Duration;

/// Everything that can go wrong between submitting a clip to a
/// [`Server`](crate::Server) and receiving its
/// [`Prediction`](snappix::Prediction).
///
/// The enum is `#[non_exhaustive]`: the serving layer can grow failure
/// modes (e.g. per-client quotas) without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded admission queue was full: the server is shedding load
    /// instead of queueing without bound. Back off and retry, or treat
    /// as a 503.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline passed while it was still queued, so the
    /// server expired it instead of spending compute on an answer the
    /// client would no longer use.
    DeadlineExpired {
        /// How long the request sat in the queue before expiring.
        waited: Duration,
    },
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
    /// The clip was rejected at submission: its geometry does not match
    /// the model the server runs (admitting it would poison a whole
    /// batch at execution time), or a pixel is NaN or infinite (its
    /// logits would be NaN, which argmax reads as class 0).
    BadClip {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// The batch this request rode in failed inference. The message is
    /// the display form of the underlying [`snappix::Error`], shared by
    /// every request of the failed batch.
    Inference {
        /// Display form of the pipeline error.
        message: String,
    },
    /// The worker processing this request died without answering
    /// (it panicked mid-batch). The request's fate is unknown.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "server overloaded: admission queue at capacity {capacity}"
                )
            }
            ServeError::DeadlineExpired { waited } => {
                write!(f, "deadline expired after {waited:?} in queue")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadClip { context } => write!(f, "clip rejected: {context}"),
            ServeError::Inference { message } => write!(f, "batch inference failed: {message}"),
            ServeError::Disconnected => write!(f, "worker disconnected before answering"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for snappix::Error {
    fn from(e: ServeError) -> Self {
        snappix::Error::Serve(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases = [
            (
                ServeError::Overloaded { capacity: 4 }.to_string(),
                "capacity 4",
            ),
            (
                ServeError::DeadlineExpired {
                    waited: Duration::from_millis(3),
                }
                .to_string(),
                "deadline expired",
            ),
            (ServeError::ShuttingDown.to_string(), "shutting down"),
            (
                ServeError::BadClip {
                    context: "rank 2".into(),
                }
                .to_string(),
                "rank 2",
            ),
            (
                ServeError::Inference {
                    message: "boom".into(),
                }
                .to_string(),
                "boom",
            ),
            (ServeError::Disconnected.to_string(), "disconnected"),
        ];
        for (display, needle) in cases {
            assert!(display.contains(needle), "{display} should name {needle}");
        }
    }

    #[test]
    fn converts_into_the_umbrella_error() {
        let unified: snappix::Error = ServeError::Overloaded { capacity: 2 }.into();
        assert!(matches!(unified, snappix::Error::Serve(_)));
        assert!(unified.to_string().contains("overloaded"));
        let source = std::error::Error::source(&unified).expect("chained");
        assert!(source.downcast_ref::<ServeError>().is_some());
    }
}
