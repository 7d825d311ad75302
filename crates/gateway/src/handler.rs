//! Endpoint routing: one parsed [`Request`](crate::http::Request) in,
//! one [`Response`](crate::http::Response) out, with every admission
//! failure mapped to an explicit HTTP status instead of a hang.

use crate::http::{Request, Response};
use crate::ratelimit::Limiter;
use crate::stats::{Endpoint, Recorder};
use snappix_serve::{ServeError, Server};
use snappix_tensor::Tensor;
use snappix_trace::SpanCtx;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Optional per-request deadline on classify, in integer milliseconds.
/// A request still queued this long after admission is expired by the
/// serving layer and answered `504` instead of served late.
pub(crate) const DEADLINE_HEADER: &str = "x-snappix-deadline-ms";

/// Optional caller-chosen trace id on classify (a nonzero integer). The
/// gateway adopts it instead of minting one, records the request's
/// spans under it, and echoes it back on the response — so a caller can
/// correlate its own logs with the gateway's `/debug/trace` output.
pub(crate) const TRACE_HEADER: &str = "x-snappix-trace";

/// How many of the most recent request traces `GET /debug/trace`
/// serves; older traces (and eventually the rings themselves) rotate
/// out, keeping the page bounded.
const DEBUG_TRACE_LIMIT: usize = 64;

/// Tracer timestamps the connection loop measured before routing: when
/// the connection was accepted (first request only) and the interval
/// spent reading + framing the request off the wire. Classify turns
/// these into `accept`/`parse` spans under its request span.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireTiming {
    /// When the connection was accepted — `Some` only for the first
    /// request of a connection.
    pub accepted_us: Option<u64>,
    /// When the request's first read began.
    pub parse_start_us: u64,
    /// When the request was fully parsed.
    pub parse_end_us: u64,
}

/// Everything a connection handler needs to answer requests, shared
/// across all connection threads behind one `Arc`.
#[derive(Debug)]
pub(crate) struct AppState {
    pub server: Server,
    pub recorder: Recorder,
    pub limiter: Option<Limiter>,
    pub shutting_down: AtomicBool,
}

impl AppState {
    /// The exact classify body size: `t * h * w` little-endian `f32`s.
    pub fn clip_bytes(&self) -> usize {
        self.server.expected_clip().iter().product::<usize>() * 4
    }
}

/// Routes one request. The returned endpoint tags the request in the
/// gateway's telemetry (including 404/405s, under [`Endpoint::Other`]).
pub(crate) fn handle(
    state: &AppState,
    request: &Request,
    peer: IpAddr,
    wire: WireTiming,
) -> (Endpoint, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/classify") => (Endpoint::Classify, classify(state, request, peer, wire)),
        ("GET", "/health") => (Endpoint::Health, health(state)),
        ("GET", "/stats") => (Endpoint::Stats, stats(state)),
        ("GET", "/metrics") => (Endpoint::Metrics, metrics(state, request)),
        ("GET", "/debug/trace") => (Endpoint::Trace, trace(state)),
        (_, "/v1/classify" | "/health" | "/stats" | "/metrics" | "/debug/trace") => (
            Endpoint::Other,
            Response::text(405, format!("method {} not allowed here", request.method)),
        ),
        (_, path) => (
            Endpoint::Other,
            Response::text(404, format!("no route for {path}")),
        ),
    }
}

/// `POST /v1/classify`: the tracing shell around [`classify_inner`] —
/// adopt or mint the request's trace id, open the `request` span (so
/// the serving layer's admission inherits it), turn the connection
/// loop's wire timing into `accept`/`parse` child spans, and echo the
/// id on the response.
fn classify(state: &AppState, request: &Request, peer: IpAddr, wire: WireTiming) -> Response {
    let tracer = state.server.tracer();
    let trace_id = match request.header(TRACE_HEADER) {
        None => tracer.new_trace_id(),
        Some(v) => match v.parse::<u64>() {
            Ok(id) if id != 0 => id,
            _ => {
                return Response::text(
                    400,
                    format!("{TRACE_HEADER} must be a nonzero integer trace id"),
                );
            }
        },
    };
    let mut span = tracer.span_in(
        "request",
        SpanCtx {
            trace_id,
            span_id: 0,
        },
    );
    span.arg("endpoint", "classify");
    let ctx = span.ctx();
    if tracer.is_enabled() {
        if let Some(accepted_us) = wire.accepted_us {
            tracer.record_span(
                "accept",
                trace_id,
                ctx.span_id,
                accepted_us,
                wire.parse_start_us,
                Vec::new(),
            );
        }
        tracer.record_span(
            "parse",
            trace_id,
            ctx.span_id,
            wire.parse_start_us,
            wire.parse_end_us,
            Vec::new(),
        );
    }
    let response = classify_inner(state, request, peer);
    drop(span);
    if trace_id != 0 {
        // Echo even when tracing is off but the client sent an id:
        // propagation is free and keeps multi-hop correlation working.
        response.with_trace(SpanCtx {
            trace_id,
            span_id: ctx.span_id,
        })
    } else {
        response
    }
}

/// The classify admission ladder — shutdown check, per-client
/// token bucket (429), body decode (400), then the serving layer's
/// bounded queue (503 on shed) and optional deadline (504 on expiry).
fn classify_inner(state: &AppState, request: &Request, peer: IpAddr) -> Response {
    if state.shutting_down.load(Ordering::SeqCst) {
        return Response::text(503, "gateway is shutting down")
            .with_retry_after(1)
            .with_close();
    }
    if let Some(limiter) = &state.limiter {
        if let Err(wait) = limiter.admit(peer, Instant::now()) {
            state.recorder.record_rate_limited();
            let seconds = (wait.as_secs_f64().ceil() as u64).max(1);
            return Response::text(429, "rate limit exceeded: slow down").with_retry_after(seconds);
        }
    }

    let expected = state.clip_bytes();
    if request.body.len() != expected {
        let [t, h, w] = state.server.expected_clip();
        return Response::text(
            400,
            format!(
                "classify body must be exactly {expected} bytes \
                 ({t}x{h}x{w} little-endian f32s), got {}",
                request.body.len()
            ),
        );
    }
    let samples: Vec<f32> = request
        .body
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let clip = match Tensor::from_vec(samples, &state.server.expected_clip()) {
        Ok(clip) => clip,
        Err(e) => return Response::text(400, format!("clip rejected: {e}")),
    };

    let deadline = match request.header(DEADLINE_HEADER).map(str::parse::<u64>) {
        None => None,
        Some(Ok(ms)) => Some(Duration::from_millis(ms)),
        Some(Err(_)) => {
            return Response::text(
                400,
                format!("{DEADLINE_HEADER} must be an integer millisecond count"),
            );
        }
    };
    // Always the non-blocking admission path: a full queue becomes an
    // immediate 503 + Retry-After on the wire (the client's connection
    // is the wrong place to park backpressure), feeding the serving
    // layer's existing shed machinery.
    let ticket = match state.server.try_submit_within(&clip, deadline) {
        Ok(ticket) => ticket,
        Err(ServeError::Overloaded { capacity }) => {
            return Response::text(
                503,
                format!("server overloaded: admission queue at capacity {capacity}"),
            )
            .with_retry_after(1);
        }
        Err(ServeError::ShuttingDown) => {
            return Response::text(503, "server is shutting down")
                .with_retry_after(1)
                .with_close();
        }
        Err(e) => return Response::text(400, format!("submission rejected: {e}")),
    };
    // Poll rather than park: a request riding a half-open batch can be
    // outlived by a gateway shutdown (the worker holds the batch open
    // for stragglers), and shutdown joins this thread — an unbounded
    // wait here would deadlock the teardown. The poll returns the
    // moment the answer lands; the interval is only how often an
    // in-flight request notices the shutdown flag.
    let answer = loop {
        match ticket.wait_timeout(Duration::from_millis(50)) {
            Ok(Some(prediction)) => break Ok(prediction),
            Ok(None) => {
                if state.shutting_down.load(Ordering::SeqCst) {
                    return Response::text(
                        503,
                        "gateway shut down while the request was in flight",
                    )
                    .with_retry_after(1)
                    .with_close();
                }
            }
            Err(e) => break Err(e),
        }
    };
    match answer {
        Ok(prediction) => {
            let mut body = format!("{{\"label\":{},\"logits\":[", prediction.label);
            for (i, logit) in prediction.logits.as_slice().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                // Shortest-round-trip float formatting: parsing the JSON
                // number back as f32 reproduces the logit bit-for-bit.
                let _ = write!(body, "{logit}");
            }
            body.push_str("]}");
            Response::json(200, body)
        }
        Err(ServeError::DeadlineExpired { waited }) => Response::text(
            504,
            format!("deadline expired after {waited:?} in the serving queue"),
        ),
        Err(e) => Response::text(500, format!("inference failed: {e}")),
    }
}

/// `GET /health`: cheap liveness — never touches the admission queue.
fn health(state: &AppState) -> Response {
    let status = if state.shutting_down.load(Ordering::SeqCst) {
        "shutting-down"
    } else {
        "ok"
    };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"workers\":{},\"queue_depth\":{}}}",
            state.server.workers(),
            state.server.queue_depth(),
        ),
    )
}

/// `GET /stats`: the human-readable telemetry dump, conservation-checked
/// (in debug builds a counter drift panics here — failing the test suite
/// — instead of publishing a wrong page).
fn stats(state: &AppState) -> Response {
    let server = state.server.stats();
    server.debug_assert_conserved();
    Response::text(
        200,
        format!(
            "--- server ---\n{server}\n--- gateway ---\n{}",
            state.recorder.snapshot()
        ),
    )
}

/// `GET /debug/trace`: the most recent request traces (plus the
/// background batch spans they reference) as Chrome trace-event JSON,
/// ready for Perfetto / `chrome://tracing`. Bounded two ways: the
/// tracer's rings cap resident records, and the page keeps only the
/// last [`DEBUG_TRACE_LIMIT`] trace ids.
fn trace(state: &AppState) -> Response {
    let tracer = state.server.tracer();
    if !tracer.is_enabled() {
        return Response::text(
            404,
            "tracing is disabled: build the server with ServerBuilder::with_tracer",
        );
    }
    let snapshot = tracer.snapshot();
    let recent: HashSet<u64> = snapshot
        .trace_ids()
        .into_iter()
        .rev()
        .take(DEBUG_TRACE_LIMIT)
        .collect();
    let bounded = snapshot.filtered(|r| r.trace_id == 0 || recent.contains(&r.trace_id));
    Response::json(200, bounded.to_chrome_json())
}

/// `GET /metrics`: the shared registry rendered as Prometheus text,
/// conservation-checked the same way as `/stats`. An
/// `Accept: application/openmetrics-text` header selects the
/// OpenMetrics rendering (exemplars on latency buckets, `# EOF`
/// trailer); anything else gets the classic 0.0.4 text format.
fn metrics(state: &AppState, request: &Request) -> Response {
    // Snapshot both layers first: this refreshes the scrape-time gauges
    // (queue depth, in-flight, uptimes) the render below will read, and
    // conservation-checks the page before publishing it.
    state.server.stats().debug_assert_conserved();
    let _ = state.recorder.snapshot();
    let registry = state.recorder.registry();
    let (page, content_type) = if crate::metrics::wants_openmetrics(request.header("accept")) {
        (
            registry.render_openmetrics(),
            crate::metrics::OPENMETRICS_CONTENT_TYPE,
        )
    } else {
        (registry.render(), crate::metrics::TEXT_CONTENT_TYPE)
    };
    Response {
        content_type,
        ..Response::text(200, page)
    }
}
