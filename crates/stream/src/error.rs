//! Streaming-layer errors, plus the bridge into the umbrella
//! [`snappix::Error`].

use snappix_serve::ServeError;
use std::fmt;

/// Everything that can go wrong between a frame entering a stream and
/// its window's result (or drop) being accounted for.
///
/// Policy *outcomes* — a window shed under overload, a deadline
/// expiring, a window the server refuses as a bad clip — are not errors:
/// they are counted in [`StreamStats`](crate::StreamStats) and recorded
/// per window. This enum covers genuine failures: misconfiguration,
/// geometry mismatches, a source that cannot produce frames, or a
/// serving failure that is not one of those outcomes.
///
/// The enum is `#[non_exhaustive]`: the streaming layer can grow failure
/// modes without a breaking release.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamError {
    /// A session or runner was misconfigured (window geometry that does
    /// not match the server's model, a zero-length window, ...).
    Config {
        /// Human-readable description of the problem.
        context: String,
    },
    /// A frame did not match the stream's `[h, w]` geometry.
    Frame {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// A frame source failed to produce its next frame.
    Source {
        /// Human-readable description of the failure.
        context: String,
    },
    /// The serving layer failed in a way no overload policy covers
    /// (batch inference error, worker death, shutdown mid-stream).
    Serve(ServeError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Config { context } => write!(f, "stream misconfigured: {context}"),
            StreamError::Frame { context } => write!(f, "bad frame: {context}"),
            StreamError::Source { context } => write!(f, "frame source failed: {context}"),
            StreamError::Serve(e) => write!(f, "serving failure: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for StreamError {
    fn from(e: ServeError) -> Self {
        StreamError::Serve(e)
    }
}

impl From<StreamError> for snappix::Error {
    fn from(e: StreamError) -> Self {
        snappix::Error::Stream(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases = [
            (
                StreamError::Config {
                    context: "window 0".into(),
                }
                .to_string(),
                "window 0",
            ),
            (
                StreamError::Frame {
                    context: "got [3, 3]".into(),
                }
                .to_string(),
                "got [3, 3]",
            ),
            (
                StreamError::Source {
                    context: "decoder died".into(),
                }
                .to_string(),
                "decoder died",
            ),
            (
                StreamError::Serve(ServeError::Disconnected).to_string(),
                "disconnected",
            ),
        ];
        for (display, needle) in cases {
            assert!(display.contains(needle), "{display} should name {needle}");
        }
    }

    #[test]
    fn converts_into_the_umbrella_error() {
        let unified: snappix::Error = StreamError::Serve(ServeError::ShuttingDown).into();
        assert!(matches!(unified, snappix::Error::Stream(_)));
        assert!(unified.to_string().contains("shutting down"));
        let source = std::error::Error::source(&unified).expect("chained");
        let stream = source.downcast_ref::<StreamError>().expect("stream error");
        // The serve error is still one more hop down the chain.
        assert!(std::error::Error::source(stream).is_some());
    }
}
