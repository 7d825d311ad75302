//! Minimal HTTP/1.1 framing — just enough protocol for the gateway's
//! four endpoints, with no external dependencies (mirroring the
//! workspace's vendored-only policy).
//!
//! Supported: request-line + header parsing, `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default, `Connection: close` honoured,
//! HTTP/1.0 defaults to close), and bounded head/body sizes so a
//! misbehaving client costs a bounded amount of memory. Deliberately
//! not supported: chunked transfer encoding (501), HTTP/2, TLS.

use std::io::{self, BufRead, Read, Write};

/// Hard cap on the request line + headers, after which parsing fails
/// with `431 Request Header Fields Too Large`.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request, plus the accounting the gateway's byte counters
/// need.
#[derive(Debug)]
pub(crate) struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any `?query` suffix stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Total bytes consumed off the wire for this request.
    pub bytes_read: usize,
    /// Whether the connection should be kept open after responding.
    pub keep_alive: bool,
}

impl Request {
    /// First value of `name` (must be lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub(crate) enum ParseError {
    /// The peer closed the connection cleanly before sending anything —
    /// the normal end of a keep-alive session, not an error to report.
    Closed,
    /// Socket-level failure (reset, read timeout, ...); the connection
    /// is unusable. The payload is carried for `Debug` logging only.
    #[allow(dead_code)]
    Io(io::Error),
    /// The bytes were not a request this gateway serves; answer with
    /// `status` and close (framing may be unrecoverable).
    Malformed {
        /// HTTP status to answer with (400/411/413/431/501/505).
        status: u16,
        /// Human-readable reason, sent as the response body.
        reason: String,
    },
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads one request off `reader`, enforcing [`MAX_HEAD_BYTES`] on the
/// head and `max_body` on the body.
pub(crate) fn read_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<Request, ParseError> {
    let mut head_bytes = 0usize;
    let request_line = match read_line(reader, &mut head_bytes)? {
        Some(line) => line,
        None => return Err(ParseError::Closed),
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(malformed(400, format!("bad request line {request_line:?}")));
        }
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(malformed(505, format!("unsupported version {other:?}"))),
    };

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut head_bytes)? {
            Some(line) => line,
            None => return Err(malformed(400, "connection closed mid-headers".into())),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(400, format!("malformed header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(malformed(501, "chunked bodies are not supported".into()));
    }
    // RFC 9112 §6.3: a length with anything but digits, or duplicate
    // lengths that differ, leave the body's framing unknown.
    let mut lengths = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str());
    let content_length = match lengths.next() {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) && lengths.all(|other| other == v) => n,
            _ => return Err(malformed(400, format!("bad content-length {v:?}"))),
        },
        None if method == "POST" => {
            return Err(malformed(411, "POST requires content-length".into()));
        }
        None => 0,
    };
    if content_length > max_body {
        return Err(malformed(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => keep_alive_default,
    };
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request {
        method: method.to_string(),
        path,
        headers,
        body,
        bytes_read: head_bytes + content_length,
        keep_alive,
    })
}

fn malformed(status: u16, reason: String) -> ParseError {
    ParseError::Malformed { status, reason }
}

/// One CRLF- (or bare-LF-) terminated line, with the shared head-size
/// budget decremented. `Ok(None)` is clean EOF before any byte of the
/// line.
fn read_line<R: BufRead>(
    reader: &mut R,
    head_bytes: &mut usize,
) -> Result<Option<String>, ParseError> {
    let mut raw = Vec::new();
    let budget = MAX_HEAD_BYTES - *head_bytes;
    if budget == 0 {
        return Err(malformed(431, "request head too large".into()));
    }
    let read = reader
        .take(budget as u64)
        .read_until(b'\n', &mut raw)
        .map_err(ParseError::Io)?;
    if read == 0 {
        return Ok(None);
    }
    *head_bytes += read;
    if raw.last() != Some(&b'\n') {
        // Either the head outgrew its budget or the peer died mid-line.
        if *head_bytes >= MAX_HEAD_BYTES {
            return Err(malformed(431, "request head too large".into()));
        }
        return Err(malformed(400, "connection closed mid-line".into()));
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| malformed(400, "request head is not UTF-8".into()))
}

/// One response, serialized by [`Response::write_to`].
#[derive(Debug)]
pub(crate) struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Emits a `Retry-After: <seconds>` header (the 429/503 backoff
    /// contract).
    pub retry_after: Option<u64>,
    /// Emits `Connection: close` and ends the session after writing.
    pub close: bool,
    /// The request's trace context, echoed as an `X-Snappix-Trace`
    /// header (the id) and used by the connection loop to record the
    /// `respond` span into the right trace.
    pub trace: Option<snappix_trace::SpanCtx>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
            close: false,
            trace: None,
        }
    }

    /// An `application/json` response (the body must already be JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            content_type: "application/json",
            ..Response::text(status, body)
        }
    }

    /// Adds a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Marks the connection for closing after this response.
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Attaches the request's trace context: the id is echoed back as
    /// an `X-Snappix-Trace` header.
    pub fn with_trace(mut self, trace: snappix_trace::SpanCtx) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Serializes status line, headers and body, returning the bytes
    /// written (the gateway's `bytes_written` counter).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<usize> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("retry-after: {seconds}\r\n"));
        }
        if let Some(trace) = &self.trace {
            head.push_str(&format!("x-snappix-trace: {}\r\n", trace.trace_id));
        }
        if self.close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()?;
        Ok(head.len() + self.body.len())
    }
}

/// Canonical reason phrase for the statuses the gateway emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::io::BufReader;

    fn parse(raw: &[u8], max_body: usize) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw), max_body)
    }

    /// A socket that hands out at most `k` bytes per `read`, so the
    /// parser meets every read boundary a peer can produce.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        k: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.k).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// How a session ended: the number of requests parsed, then the
    /// status of the malformed request that stopped it, if one did.
    type Ending = (usize, Option<u16>);

    /// Parses `raw` as one keep-alive session read `k` bytes at a time
    /// and checks how it ends: every request within the head and body
    /// caps, then a clean close, an I/O error only once the input ran
    /// out, or a status the gateway answers malformed requests with.
    fn check_session(raw: &[u8], k: usize, max_body: usize) -> Result<Ending, String> {
        let mut reader = BufReader::new(Trickle {
            data: raw,
            pos: 0,
            k,
        });
        let mut parsed = 0;
        loop {
            match read_request(&mut reader, max_body) {
                Ok(request) => {
                    let body = request.body.len();
                    if body > max_body || request.bytes_read - body > MAX_HEAD_BYTES {
                        return Err(format!("{} bytes read, body {body}", request.bytes_read));
                    }
                    parsed += 1;
                }
                Err(ParseError::Closed) => return Ok((parsed, None)),
                Err(ParseError::Io(e)) if reader.get_ref().pos == raw.len() => {
                    return match e.kind() {
                        io::ErrorKind::UnexpectedEof => Ok((parsed, None)),
                        kind => Err(format!("I/O error {kind:?} at end of input")),
                    };
                }
                Err(ParseError::Io(e)) => return Err(format!("I/O error {e} mid-input")),
                Err(ParseError::Malformed { status, .. })
                    if [400, 411, 413, 431, 501, 505].contains(&status) =>
                {
                    return Ok((parsed, Some(status)))
                }
                Err(ParseError::Malformed { status, reason }) => {
                    return Err(format!("status {status}: {reason}"))
                }
            }
        }
    }

    /// One to three requests back to back, and how parsing them must
    /// end. Each is well formed, but its body may be one byte over
    /// `max_body` (413) and its padding header may push the head past
    /// [`MAX_HEAD_BYTES`] (431); the session stops at the first of these.
    fn valid_session(rng: &mut StdRng, max_body: usize) -> (Vec<u8>, Ending) {
        let mut raw = Vec::new();
        let count = rng.random_range(1..4);
        for i in 0..count {
            let head_start = raw.len();
            let body_len = rng.random_range(0..=max_body + 1);
            let post = body_len > 0 || rng.random::<bool>();
            let version = if rng.random::<bool>() { "1.1" } else { "1.0" };
            let method = if post { "POST" } else { "GET" };
            raw.extend_from_slice(
                format!("{method} /v1/classify?x=1 HTTP/{version}\r\n").as_bytes(),
            );
            if post {
                raw.extend_from_slice(format!("Content-Length: {body_len}\r\n").as_bytes());
            }
            if rng.random::<bool>() {
                raw.extend_from_slice(b"Connection: keep-alive\n");
            }
            let pad = if rng.random::<bool>() {
                rng.random_range(0..64)
            } else {
                rng.random_range(MAX_HEAD_BYTES - 160..MAX_HEAD_BYTES)
            };
            raw.extend_from_slice(b"X-Pad: ");
            raw.extend(std::iter::repeat_n(b'a', pad));
            raw.extend_from_slice(b"\r\n\r\n");
            if raw.len() - head_start > MAX_HEAD_BYTES {
                return (raw, (i, Some(431)));
            }
            raw.extend((0..body_len).map(|_| rng.random_range(0..=u8::MAX)));
            if body_len > max_body {
                return (raw, (i, Some(413)));
            }
        }
        (raw, (count, None))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the parser and end the session
        /// in a parsed request, a close, a truncation or a 4xx/5xx.
        #[test]
        fn arbitrary_bytes_end_in_a_known_outcome(
            raw in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..1024),
            k in 1usize..65,
            max_body in 0usize..64,
        ) {
            let outcome = check_session(&raw, k, max_body);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }

        /// Requests parse, or hit their cap, at every read boundary;
        /// with random bytes flipped they still end in a known outcome.
        #[test]
        fn flipped_requests_end_in_a_known_outcome(
            seed in 0u64..1_000_000,
            k in 1usize..65,
            max_body in 0usize..64,
            flips in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut raw, ending) = valid_session(&mut rng, max_body);
            prop_assert_eq!(check_session(&raw, k, max_body), Ok(ending));
            for _ in 0..flips {
                let at = rng.random_range(0..raw.len());
                raw[at] ^= rng.random_range(1..=u8::MAX);
            }
            let outcome = check_session(&raw, k, max_body);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }

    #[test]
    fn parses_a_post_with_body_and_accounts_bytes() {
        let raw = b"POST /v1/classify?tier=s HTTP/1.1\r\n\
                    Content-Length: 4\r\n\
                    X-Snappix-Deadline-Ms: 50\r\n\
                    \r\n\
                    \x01\x02\x03\x04";
        let req = parse(raw, 16).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/classify", "query is stripped");
        assert_eq!(req.body, [1, 2, 3, 4]);
        assert_eq!(req.header("x-snappix-deadline-ms"), Some("50"));
        assert_eq!(req.bytes_read, raw.len(), "every byte accounted");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 0).expect("parses");
        assert!(!close.keep_alive);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n", 0).expect("parses");
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let pinned = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 0).expect("parses");
        assert!(pinned.keep_alive);
    }

    #[test]
    fn malformed_requests_map_to_the_right_statuses() {
        let cases: [(&[u8], u16); 8] = [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET / HTTP/2\r\n\r\n", 505),
            (b"POST / HTTP/1.1\r\n\r\n", 411),
            (b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 413),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            (b"GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400),
            // Ambiguous framing (RFC 9112 6.3): a signed length, and
            // duplicate lengths that differ.
            (b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n", 400),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nabcd",
                400,
            ),
        ];
        for (raw, expected) in cases {
            match parse(raw, 8) {
                Err(ParseError::Malformed { status, .. }) => {
                    assert_eq!(status, expected, "{:?}", String::from_utf8_lossy(raw));
                }
                other => panic!("expected {expected}, got {other:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_is_closed_and_oversized_heads_are_431() {
        assert!(matches!(parse(b"", 0), Err(ParseError::Closed)));
        let mut huge = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        while huge.len() < MAX_HEAD_BYTES + 64 {
            huge.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        huge.extend_from_slice(b"\r\n");
        match parse(&huge, 0) {
            Err(ParseError::Malformed { status: 431, .. }) => {}
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let mut out = Vec::new();
        let written = Response::json(503, "{\"error\":\"overloaded\"}")
            .with_retry_after(2)
            .with_close()
            .write_to(&mut out)
            .expect("in-memory write");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(written, text.len());
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 22\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"overloaded\"}"));
    }

    #[test]
    fn trace_context_is_echoed_as_a_header() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_trace(snappix_trace::SpanCtx {
                trace_id: 42,
                span_id: 9,
            })
            .write_to(&mut out)
            .expect("in-memory write");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.contains("x-snappix-trace: 42\r\n"), "{text}");
        assert!(
            !text.contains("x-snappix-trace: 9"),
            "span id stays internal: {text}"
        );
    }

    #[test]
    fn a_keep_alive_session_parses_back_to_back_requests() {
        let raw: &[u8] = b"GET /health HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let first = read_request(&mut reader, 0).expect("first");
        assert_eq!(first.path, "/health");
        let second = read_request(&mut reader, 0).expect("second");
        assert_eq!(second.path, "/metrics");
        assert!(matches!(
            read_request(&mut reader, 0),
            Err(ParseError::Closed)
        ));
    }
}
