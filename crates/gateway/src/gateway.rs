//! The front-end itself: a [`TcpListener`] accept loop, one handler
//! thread per connection (bounded by `max_connections`), and a graceful
//! shutdown path that drains the serving layer underneath.

use crate::handler::{handle, AppState, WireTiming};
use crate::http::{read_request, ParseError, Response};
use crate::ratelimit::{Limiter, RateLimit};
use crate::stats::{Endpoint, GatewayStats, Recorder};
use crate::GatewayError;
use snappix_serve::{Server, ServerStats};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Staged construction of a [`Gateway`], created by
/// [`Gateway::builder`].
///
/// # Examples
///
/// ```no_run
/// use snappix_gateway::prelude::*;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), snappix::Error> {
/// let mask = patterns::long_exposure(8, (8, 8))?;
/// let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask)?;
/// let server = Server::builder(Pipeline::builder(model))
///     .with_workers(2)
///     .build()?;
///
/// let gateway = Gateway::builder(server)
///     .with_addr("127.0.0.1:8080".parse().expect("socket address"))
///     .with_max_connections(256)
///     .with_rate_limit(RateLimit::new(100.0, 20).map_err(snappix::Error::from)?)
///     .bind()
///     .map_err(snappix::Error::from)?;
/// println!("listening on http://{}", gateway.local_addr());
/// // curl -X POST --data-binary @clip.f32le http://127.0.0.1:8080/v1/classify
/// // curl http://127.0.0.1:8080/metrics
/// let (gateway_stats, server_stats) = gateway.shutdown();
/// println!("{gateway_stats}\n{server_stats}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GatewayBuilder {
    server: Server,
    addr: SocketAddr,
    max_connections: usize,
    rate_limit: Option<RateLimit>,
    read_timeout: Duration,
}

impl GatewayBuilder {
    /// Sets the address to listen on. Defaults to `127.0.0.1:0`
    /// (loopback, OS-assigned port — read it back with
    /// [`Gateway::local_addr`]).
    #[must_use]
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Bounds concurrently open connections (clamped to at least 1);
    /// connections beyond the cap are answered `503` + `Retry-After`
    /// and closed immediately instead of queueing. Defaults to 256.
    #[must_use]
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Applies a per-client (per peer IP) token-bucket [`RateLimit`] to
    /// the classify endpoint. No limit by default.
    #[must_use]
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(limit);
        self
    }

    /// How long a connection may sit idle (or dribble bytes) before the
    /// gateway closes it. Bounds both slow-loris heads and abandoned
    /// keep-alive sessions. Defaults to 5 seconds.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Binds the listener and starts the acceptor thread.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Bind`] when the socket cannot be bound or
    /// configured, [`GatewayError::Config`] for a zero read timeout,
    /// [`GatewayError::Spawn`] when the acceptor thread cannot start.
    pub fn bind(self) -> Result<Gateway, GatewayError> {
        if self.read_timeout.is_zero() {
            return Err(GatewayError::Config {
                context: "read timeout must be non-zero (a zero timeout disables reads)".into(),
            });
        }
        let listener = TcpListener::bind(self.addr).map_err(|e| GatewayError::Bind {
            context: format!("{}: {e}", self.addr),
        })?;
        let local_addr = listener.local_addr().map_err(|e| GatewayError::Bind {
            context: format!("{}: local_addr: {e}", self.addr),
        })?;
        // The gateway's families join the fronted server's registry, so
        // one render covers both layers (and a disabled registry
        // disables both).
        let recorder = Recorder::new(self.server.metrics().clone());
        let state = Arc::new(AppState {
            server: self.server,
            recorder,
            limiter: self.rate_limit.map(Limiter::new),
            shutting_down: AtomicBool::new(false),
        });
        let conns = Arc::new(ConnRegistry::default());
        let acceptor = {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            let max_connections = self.max_connections;
            let read_timeout = self.read_timeout;
            std::thread::Builder::new()
                .name("snappix-gateway-accept".into())
                .spawn(move || {
                    run_acceptor(&listener, &state, &conns, max_connections, read_timeout);
                })
                .map_err(|e| GatewayError::Spawn {
                    context: format!("acceptor: {e}"),
                })?
        };
        Ok(Gateway {
            state: Some(state),
            conns,
            acceptor: Some(acceptor),
            local_addr,
        })
    }
}

/// A std-only HTTP/1.1 front-end over a [`Server`]: the process
/// boundary that makes the serving stack reachable (classify over TCP)
/// and observable (`/health`, `/stats`, Prometheus `/metrics`) without
/// any client-side Rust.
///
/// Overload never hangs a client: the per-client token bucket answers
/// `429 Too Many Requests`, a full admission queue answers
/// `503 Service Unavailable` (both with `Retry-After`), and a
/// per-request deadline that expires in the queue answers
/// `504 Gateway Timeout` — the HTTP projection of the serving layer's
/// shed/backpressure/deadline machinery.
///
/// Dropping the gateway shuts it down gracefully: the listener stops
/// accepting, open connections are closed, handler threads are joined,
/// and the owned server drains its queue. Prefer
/// [`shutdown`](Gateway::shutdown) to also collect the final telemetry.
#[derive(Debug)]
pub struct Gateway {
    /// `Some` until [`shutdown`](Gateway::shutdown) takes the state to
    /// recover the owned [`Server`].
    state: Option<Arc<AppState>>,
    conns: Arc<ConnRegistry>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Gateway {
    /// Starts building a gateway over `server`; see [`GatewayBuilder`]
    /// for the knobs and their defaults.
    pub fn builder(server: Server) -> GatewayBuilder {
        GatewayBuilder {
            server,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_connections: 256,
            rate_limit: None,
            read_timeout: Duration::from_secs(5),
        }
    }

    fn state(&self) -> &Arc<AppState> {
        self.state.as_ref().expect("state present until shutdown")
    }

    /// The bound address — with the default `127.0.0.1:0`, this is
    /// where the OS actually put the listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The [`Server`] being fronted (for stats or direct in-process
    /// submission alongside the network path).
    pub fn server(&self) -> &Server {
        &self.state().server
    }

    /// A point-in-time snapshot of the gateway's own telemetry.
    pub fn stats(&self) -> GatewayStats {
        self.state().recorder.snapshot()
    }

    /// Shuts down gracefully — stop accepting, close connections, join
    /// handler threads, drain and join the server — and returns both
    /// layers' final telemetry.
    pub fn shutdown(mut self) -> (GatewayStats, ServerStats) {
        self.stop();
        let state = self.state.take().expect("first shutdown");
        let gateway_stats = state.recorder.snapshot();
        let server_stats = match Arc::try_unwrap(state) {
            Ok(app) => app.server.shutdown(),
            // Unreachable after every thread is joined, but a snapshot
            // is strictly better than a panic inside teardown.
            Err(shared) => shared.server.stats(),
        };
        (gateway_stats, server_stats)
    }

    fn stop(&mut self) {
        let Some(state) = &self.state else { return };
        state.shutting_down.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is parked in accept(); a throwaway connection
            // wakes it so it can observe the flag and exit.
            let _ = TcpStream::connect(self.local_addr);
            let _ = acceptor.join();
        }
        self.conns.close_all();
        self.conns.join_all();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Live connections (so shutdown can unblock their reads) plus handler
/// thread handles (so shutdown can join them). Handles of finished
/// handlers are joined as new ones attach, so the list is bounded by
/// live connections, not by every connection ever accepted.
#[derive(Debug, Default)]
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    active: HashMap<u64, TcpStream>,
    handles: Vec<JoinHandle<()>>,
}

impl ConnRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn active_count(&self) -> usize {
        self.lock().active.len()
    }

    fn register(&self, stream: TcpStream) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.active.insert(id, stream);
        id
    }

    fn attach(&self, handle: JoinHandle<()>) {
        let mut inner = self.lock();
        // A finished thread joins at once, so this never blocks.
        for finished in inner.handles.extract_if(.., |h| h.is_finished()) {
            let _ = finished.join();
        }
        inner.handles.push(handle);
    }

    fn deregister(&self, id: u64) {
        self.lock().active.remove(&id);
    }

    fn close_all(&self) {
        for stream in self.lock().active.values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn join_all(&self) {
        // Drain under the lock, join outside it: exiting handlers must
        // be able to deregister themselves while we wait.
        let handles = std::mem::take(&mut self.lock().handles);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn run_acceptor(
    listener: &TcpListener,
    state: &Arc<AppState>,
    conns: &Arc<ConnRegistry>,
    max_connections: usize,
    read_timeout: Duration,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) if state.shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => continue, // transient (EMFILE, ECONNABORTED): keep serving
        };
        if state.shutting_down.load(Ordering::SeqCst) {
            return; // the shutdown wake-up connection (or a last-instant client)
        }
        if conns.active_count() >= max_connections {
            state.recorder.record_connection_rejected();
            let _ = Response::text(503, "connection limit reached")
                .with_retry_after(1)
                .with_close()
                .write_to(&mut &stream);
            continue;
        }
        state.recorder.record_connection();
        let registered = match stream.try_clone() {
            Ok(clone) => conns.register(clone),
            Err(_) => {
                // Without a registered clone, shutdown could not unblock
                // this connection's reads; refuse it instead.
                state.recorder.record_disconnect();
                continue;
            }
        };
        let spawned = {
            let state = Arc::clone(state);
            let conns = Arc::clone(conns);
            std::thread::Builder::new()
                .name(format!("snappix-gateway-conn-{registered}"))
                .spawn(move || {
                    run_connection(&state, &stream, peer, read_timeout);
                    conns.deregister(registered);
                    state.recorder.record_disconnect();
                })
        };
        match spawned {
            Ok(handle) => conns.attach(handle),
            Err(_) => {
                conns.deregister(registered);
                state.recorder.record_disconnect();
            }
        }
    }
}

/// One keep-alive session: parse, route, respond, repeat until the peer
/// closes, errors, asks to close, or sends something unrecoverable.
fn run_connection(state: &AppState, stream: &TcpStream, peer: SocketAddr, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let max_body = state.clip_bytes();
    let tracer = state.server.tracer().clone();
    // Consumed by the first request's `accept` span; later requests on
    // the same keep-alive connection have no accept phase.
    let mut accepted_us = tracer.is_enabled().then(|| tracer.now_us());
    loop {
        let parse_start_us = tracer.now_us();
        match read_request(&mut reader, max_body) {
            Ok(request) => {
                let wire = WireTiming {
                    accepted_us: accepted_us.take(),
                    parse_start_us,
                    parse_end_us: tracer.now_us(),
                };
                let started = Instant::now();
                let (endpoint, mut response) = handle(state, &request, peer.ip(), wire);
                if !request.keep_alive {
                    response.close = true;
                }
                let respond_start_us = tracer.now_us();
                let Ok(written) = response.write_to(&mut writer) else {
                    return;
                };
                if let Some(trace) = response.trace {
                    // The response is on the wire; close the trace with
                    // a `respond` span under the request span.
                    tracer.record_span(
                        "respond",
                        trace.trace_id,
                        trace.span_id,
                        respond_start_us,
                        tracer.now_us(),
                        Vec::new(),
                    );
                }
                state.recorder.record_request(
                    endpoint,
                    response.status,
                    request.bytes_read as u64,
                    written as u64,
                    started.elapsed(),
                    response.trace.map_or(0, |t| t.trace_id),
                );
                if response.close {
                    return;
                }
            }
            Err(ParseError::Closed) | Err(ParseError::Io(_)) => return,
            Err(ParseError::Malformed { status, reason }) => {
                // Framing may be unrecoverable mid-stream; answer and close.
                let started = Instant::now();
                if let Ok(written) = Response::text(status, reason)
                    .with_close()
                    .write_to(&mut writer)
                {
                    state.recorder.record_request(
                        Endpoint::Other,
                        status,
                        0,
                        written as u64,
                        started.elapsed(),
                        0,
                    );
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn attach_joins_finished_handlers() {
        let conns = ConnRegistry::default();
        let (release, wait) = mpsc::channel::<()>();
        conns.attach(std::thread::spawn(move || {
            let _ = wait.recv();
        }));
        for _ in 0..64 {
            let done = std::thread::spawn(|| {});
            while !done.is_finished() {
                std::thread::yield_now();
            }
            conns.attach(done);
            // One live handler, plus the one just attached.
            assert!(conns.lock().handles.len() <= 2);
        }
        release.send(()).expect("live handler waiting");
        conns.join_all();
        assert!(conns.lock().handles.is_empty());
    }
}
