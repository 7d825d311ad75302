//! Integration suite for the `snappix-gateway` subsystem: real TCP
//! clients against a real listener. The network front-end must be
//! *operationally* different from in-process serving (HTTP framing,
//! rate limits, explicit 4xx/5xx shedding) while staying *numerically*
//! identical to it — and its `/metrics` page must be valid Prometheus
//! text with conserved request accounting.

use rand::{rngs::StdRng, SeedableRng};
use snappix_gateway::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 5;

fn model() -> SnapPixAr {
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("valid model")
}

fn clips(n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(0xabcd);
    (0..n)
        .map(|_| Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0))
        .collect()
}

fn clip_bytes(clip: &Tensor) -> Vec<u8> {
    clip.as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// A minimal keep-alive HTTP/1.1 client — deliberately independent of
/// the gateway's own parser, so both sides of the wire are exercised.
struct Client {
    reader: BufReader<TcpStream>,
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> String {
        String::from_utf8(self.body.clone()).expect("utf-8 body")
    }
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to gateway");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("socket timeout");
        Client {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, method: &str, path: &str, headers: &[(&str, String)], body: &[u8]) -> Reply {
        let mut head = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if method == "POST" {
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body).expect("write body");
        stream.flush().expect("flush");
        self.read_reply()
    }

    fn read_reply(&mut self) -> Reply {
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("read status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("malformed status line {status_line:?}"))
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header colon");
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse().expect("numeric content-length"))
            .expect("content-length present");
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("read body");
        Reply {
            status,
            headers,
            body,
        }
    }
}

fn classify(client: &mut Client, clip: &Tensor) -> Reply {
    client.send("POST", "/v1/classify", &[], &clip_bytes(clip))
}

/// `{"label":N,"logits":[...]}` back into numbers; logits parse as f32
/// so shortest-round-trip formatting restores the exact bits.
fn parse_prediction(body: &str) -> (usize, Vec<f32>) {
    let label = body
        .split("\"label\":")
        .nth(1)
        .expect("label field")
        .split([',', '}'])
        .next()
        .expect("label value")
        .parse()
        .expect("numeric label");
    let logits = body
        .split("\"logits\":[")
        .nth(1)
        .expect("logits field")
        .split(']')
        .next()
        .expect("logits close")
        .split(',')
        .map(|s| s.parse().expect("float logit"))
        .collect();
    (label, logits)
}

/// A parsed `/metrics` page: family name -> declared type, plus every
/// sample. Panics (failing the test) on any line that is not valid
/// Prometheus text exposition format.
type Sample = (String, Vec<(String, String)>, f64);

struct Scrape {
    families: BTreeMap<String, String>,
    samples: Vec<Sample>,
}

impl Scrape {
    fn value(&self, name: &str) -> f64 {
        let matching: Vec<&Sample> = self.samples.iter().filter(|(n, _, _)| n == name).collect();
        assert_eq!(matching.len(), 1, "{name} should be a single sample");
        matching[0].2
    }

    fn sum_over_labels(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    }
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_prometheus(page: &str) -> Scrape {
    let mut families = BTreeMap::new();
    let mut samples = Vec::new();
    for line in page.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("family type").to_string();
            assert!(valid_metric_name(&name), "bad family name {name:?}");
            assert!(
                ["counter", "gauge", "histogram", "summary"].contains(&kind.as_str()),
                "unknown metric type {kind:?}"
            );
            assert!(
                families.insert(name.clone(), kind).is_none(),
                "family {name} declared twice"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample: name[{labels}] value
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample needs a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let (name, labels) = match name_and_labels.split_once('{') {
            None => (name_and_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let inner = rest.strip_suffix('}').expect("closing brace");
                let labels = inner
                    .split(',')
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').expect("label equals");
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .expect("quoted label value");
                        assert!(valid_metric_name(k), "bad label name {k:?}");
                        (k.to_string(), v.to_string())
                    })
                    .collect();
                (name.to_string(), labels)
            }
        };
        assert!(valid_metric_name(&name), "bad sample name {name:?}");
        // Every sample must belong to a declared family (summary and
        // histogram samples may carry _sum/_count/_bucket suffixes).
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| {
                families
                    .get(*base)
                    .is_some_and(|k| k == "summary" || k == "histogram")
            })
            .unwrap_or(&name);
        assert!(
            families.contains_key(family),
            "sample {name} has no # TYPE declaration"
        );
        samples.push((name, labels, value));
    }
    Scrape { families, samples }
}

fn scrape(addr: SocketAddr) -> Scrape {
    let reply = Client::connect(addr).send("GET", "/metrics", &[], &[]);
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8"),
        "classic text format is the default"
    );
    let page = reply.text();
    assert!(
        !page.contains("# {"),
        "exemplars must not leak into the classic text format"
    );
    parse_prometheus(&page)
}

/// Compile-time pin: the gateway's object graph crosses threads.
#[test]
fn gateway_types_are_send() {
    fn assert_send<Type: Send>() {}
    assert_send::<Gateway>();
    assert_send::<GatewayBuilder>();
    assert_send::<GatewayError>();
    assert_send::<GatewayStats>();
    fn assert_sync<Type: Sync>() {}
    assert_sync::<Gateway>(); // shared by reference across test threads
}

/// The headline guarantee plus the observability contract in one
/// end-to-end run: 8 concurrent TCP clients' classifications are
/// bit-for-bit identical to a serial in-process pipeline loop, and the
/// `/metrics` scrape afterwards is valid Prometheus text whose request
/// accounting is conserved.
#[test]
fn concurrent_tcp_clients_match_serial_inference_and_metrics_are_conserved() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 3;
    let all = clips(CLIENTS * PER_CLIENT);

    // Serial reference: one pipeline, one clip at a time, in process.
    let mut serial = Pipeline::builder(model()).build().expect("assembly");
    let reference: Vec<Prediction> = all
        .iter()
        .map(|c| serial.infer_clip(c).expect("serial inference"))
        .collect();

    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(2)
        .with_queue_depth(CLIENTS * PER_CLIENT)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(2)))
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();

    let served: Vec<Vec<(usize, Vec<f32>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let all = &all;
                scope.spawn(move || {
                    // One keep-alive TCP connection per client; clips
                    // interleaved so batches mix clients.
                    let mut connection = Client::connect(addr);
                    (0..PER_CLIENT)
                        .map(|i| {
                            let reply = classify(&mut connection, &all[i * CLIENTS + client]);
                            assert_eq!(reply.status, 200, "client {client}: {}", reply.text());
                            assert_eq!(reply.header("content-type"), Some("application/json"));
                            parse_prediction(&reply.text())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (client, results) in served.iter().enumerate() {
        for (i, (label, logits)) in results.iter().enumerate() {
            let expected = &reference[i * CLIENTS + client];
            assert_eq!(*label, expected.label, "client {client} clip {i}");
            let expected_logits = expected.logits.as_slice();
            assert_eq!(logits.len(), expected_logits.len());
            for (got, want) in logits.iter().zip(expected_logits) {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "client {client} clip {i}: logits over the wire must round-trip bit-for-bit"
                );
            }
        }
    }

    // The metrics page, scraped over the same wire. The gateway records
    // a request *after* flushing its response, so a scrape racing the
    // last connection's bookkeeping can see the gateway counters lag
    // responses already read. Counters are monotone — wait for the
    // ledger to settle before asserting on the page.
    let served_total = (CLIENTS * PER_CLIENT) as f64;
    let deadline = Instant::now() + Duration::from_secs(5);
    let page = loop {
        let page = scrape(addr);
        if page.sum_over_labels("snappix_gateway_requests_total") >= served_total
            || Instant::now() >= deadline
        {
            break page;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        page.value("snappix_server_requests_submitted_total"),
        served_total
    );
    // Workers answer tickets *before* recording the batch, so a scrape
    // racing the last batch's bookkeeping may see completed lag the
    // responses already on the wire — but never exceed submissions.
    // (The exact completed == submitted check runs after shutdown.)
    assert!(page.value("snappix_server_requests_completed_total") <= served_total);
    // Conserved request accounting, from the page alone.
    assert_eq!(
        page.value("snappix_server_requests_submitted_total"),
        page.value("snappix_server_requests_completed_total")
            + page.value("snappix_server_requests_expired_total")
            + page.value("snappix_server_requests_failed_total")
            + page.value("snappix_server_requests_in_flight"),
    );
    assert_eq!(
        page.value("snappix_server_batch_size_sum"),
        page.value("snappix_server_requests_completed_total")
            + page.value("snappix_server_requests_failed_total"),
        "every batched clip resolved as completed or failed"
    );
    assert!(page.sum_over_labels("snappix_gateway_requests_total") >= served_total);
    assert!(page.value("snappix_gateway_bytes_read_total") >= served_total * 4096.0);
    assert!(page.families.len() >= 15, "both layers' families exported");

    let (gateway_stats, server_stats) = gateway.shutdown();
    assert_eq!(
        gateway_stats.requests_to(Endpoint::Classify),
        served_total as u64
    );
    assert!(gateway_stats.requests_with_status(200) >= served_total as u64);
    assert_eq!(server_stats.completed, served_total as u64);
    server_stats.debug_assert_conserved();
}

/// The reference table in docs/METRICS.md and a live scrape must agree
/// exactly, in both directions: a metric added without documentation,
/// or documented without being exported, fails here. Rows below the
/// "Off-gateway families" heading document layers the gateway does not
/// host (stream sessions, fleet exports) — they are allowed to be
/// absent from a plain gateway scrape, but still cover any family that
/// does appear.
#[test]
fn metrics_reference_table_matches_a_live_scrape() {
    let table = include_str!("../docs/METRICS.md");
    // (name without the `snappix_` prefix, documented type) per row.
    let rows = |text: &'static str| -> Vec<(&'static str, &'static str)> {
        text.lines()
            .filter_map(|line| line.strip_prefix("| `snappix_"))
            .map(|rest| {
                let (name, cells) = rest.split_once('`').expect("closing backtick");
                let kind = cells.split('|').nth(1).expect("type column").trim();
                (name, kind)
            })
            .collect()
    };
    let documented = rows(table);
    let required = rows(
        table
            .split("## Off-gateway families")
            .next()
            .expect("split never empty"),
    );
    assert!(
        !required.is_empty() && documented.len() > required.len(),
        "docs/METRICS.md must document gateway rows and off-gateway rows"
    );

    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server)
        .with_rate_limit(RateLimit::new(1000.0, 1000).expect("valid"))
        .bind()
        .expect("bind");
    // Touch every endpoint once so per-endpoint families have samples.
    let mut client = Client::connect(gateway.local_addr());
    assert_eq!(classify(&mut client, &clips(1)[0]).status, 200);
    assert_eq!(client.send("GET", "/health", &[], &[]).status, 200);
    assert_eq!(client.send("GET", "/stats", &[], &[]).status, 200);
    let page = scrape(gateway.local_addr());

    for (name, kind) in &documented {
        assert!(
            ["counter", "gauge", "histogram"].contains(kind),
            "docs/METRICS.md documents snappix_{name} as a {kind:?}, not a registry kind"
        );
    }
    for (name, _) in &required {
        let full = format!("snappix_{name}");
        assert!(
            page.families.contains_key(&full),
            "docs/METRICS.md documents {full} but /metrics does not export it"
        );
    }
    for (family, scraped) in &page.families {
        let short = family.strip_prefix("snappix_").expect("snappix_ prefix");
        let kind = documented
            .iter()
            .find(|(name, _)| *name == short)
            .map(|&(_, kind)| kind);
        assert!(
            kind.is_some(),
            "/metrics exports {family} but docs/METRICS.md does not document it"
        );
        assert_eq!(
            kind,
            Some(scraped.as_str()),
            "docs/METRICS.md types {family} differently from its scraped # TYPE"
        );
    }
    // The latency families are real histograms now — buckets a scraper
    // can aggregate across replicas — not summaries.
    for family in [
        "snappix_server_queue_latency_seconds",
        "snappix_server_compute_latency_seconds",
        "snappix_gateway_request_latency_seconds",
        "snappix_server_batch_size",
        "snappix_server_stage_latency_seconds",
    ] {
        assert_eq!(
            page.families.get(family).map(String::as_str),
            Some("histogram"),
            "{family} must be exported as a histogram"
        );
    }
}

/// `Accept: application/openmetrics-text` selects the OpenMetrics
/// exposition: same families and values, plus trace exemplars on the
/// latency buckets and the mandatory `# EOF` trailer. A caller-chosen
/// trace id must ride the request end to end — gateway wire latency
/// *and* the serving layer's queue latency — and come back on the page.
#[test]
fn openmetrics_scrapes_carry_trace_exemplars_and_eof() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_tracer(Tracer::new())
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let mut client = Client::connect(gateway.local_addr());
    let reply = client.send(
        "POST",
        "/v1/classify",
        &[("x-snappix-trace", "48879".into())],
        &clip_bytes(&clips(1)[0]),
    );
    assert_eq!(reply.status, 200, "{}", reply.text());

    let reply = client.send(
        "GET",
        "/metrics",
        &[(
            "accept",
            // Exactly what a Prometheus 2.x scraper sends.
            "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5"
                .into(),
        )],
        &[],
    );
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("application/openmetrics-text; version=1.0.0; charset=utf-8")
    );
    let page = reply.text();
    assert!(page.ends_with("# EOF\n"), "OpenMetrics pages end in # EOF");
    assert!(
        page.lines().any(|l| {
            l.starts_with("snappix_gateway_request_latency_seconds_bucket{endpoint=\"classify\"")
                && l.contains("# {trace_id=\"48879\"}")
        }),
        "classify latency buckets must carry the request's trace id:\n{page}"
    );
    assert!(
        page.lines().any(|l| {
            l.starts_with("snappix_server_queue_latency_seconds_bucket")
                && l.contains("# {trace_id=\"48879\"}")
        }),
        "the same trace id must reach the serving layer's queue buckets:\n{page}"
    );
    // Both formats render the same registry: family for family, the
    // classic page and the OpenMetrics page agree. (OpenMetrics
    // declares counters without the `_total` suffix, so normalize the
    // classic names the same way before comparing.)
    let mut openmetrics_families: Vec<String> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().expect("family name").to_string())
        .collect();
    openmetrics_families.sort();
    let classic = scrape(gateway.local_addr());
    let mut classic_families: Vec<String> = classic
        .families
        .iter()
        .map(
            |(name, kind)| match (kind.as_str(), name.strip_suffix("_total")) {
                ("counter", Some(base)) => base.to_string(),
                _ => name.clone(),
            },
        )
        .collect();
    classic_families.sort();
    assert_eq!(
        classic_families, openmetrics_families,
        "both formats expose the same families"
    );
    gateway.shutdown();
}

/// Telemetry must never change what clients receive: a gateway whose
/// server was built with a disabled registry answers classify with the
/// same bytes as the default (metrics-on) gateway, and its `/metrics`
/// page is empty rather than wrong.
#[test]
fn disabling_metrics_changes_no_response_bytes() {
    let build = |registry: Registry| {
        Gateway::builder(
            Server::builder(Pipeline::builder(model()))
                .with_workers(1)
                .with_metrics(registry)
                .build()
                .expect("server assembly"),
        )
        .bind()
        .expect("bind")
    };
    let on = build(Registry::new());
    let off = build(Registry::disabled());
    let all = clips(4);

    let mut on_client = Client::connect(on.local_addr());
    let mut off_client = Client::connect(off.local_addr());
    for clip in &all {
        let a = classify(&mut on_client, clip);
        let b = classify(&mut off_client, clip);
        assert_eq!(a.status, 200, "{}", a.text());
        assert_eq!(b.status, 200, "{}", b.text());
        assert_eq!(
            a.body, b.body,
            "classify bodies must be bit-for-bit identical with metrics on or off"
        );
    }

    // The enabled page counts the work; the disabled page is empty.
    let page = scrape(on.local_addr());
    assert_eq!(
        page.value("snappix_server_requests_completed_total"),
        all.len() as f64
    );
    let reply = Client::connect(off.local_addr()).send("GET", "/metrics", &[], &[]);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.text(), "", "a disabled registry renders nothing");

    on.shutdown();
    let (_, stats) = off.shutdown();
    assert_eq!(
        stats.completed, 0,
        "a disabled registry reads back all-zero stats"
    );
}

/// Saturation becomes explicit backoff on the wire, never a hang: with
/// a one-slot queue and a worker parked holding its batch open, a
/// second classify answers 503 + Retry-After within bounded time.
#[test]
fn saturated_one_slot_queue_returns_503_with_retry_after_never_hangs() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_queue_depth(1)
        // A large max_batch with a long delay parks the worker in its
        // "wait for more clips" phase, so the admitted request stays
        // queued and deterministically occupies the only slot.
        .with_batch_policy(BatchPolicy::new(8, Duration::from_secs(30)))
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();
    let clip = &clips(1)[0];

    // Client A occupies the slot; its handler thread is now waiting on
    // the parked batch, so A gets no response yet.
    let mut occupant = Client::connect(addr);
    {
        let stream = occupant.reader.get_mut();
        stream
            .write_all(
                format!(
                    "POST /v1/classify HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    clip_bytes(clip).len()
                )
                .as_bytes(),
            )
            .expect("head");
        stream.write_all(&clip_bytes(clip)).expect("body");
        stream.flush().expect("flush");
    }
    // Give the submission time to land in the queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while gateway.server().queue_depth() == 0 {
        assert!(
            Instant::now() < deadline,
            "occupant never reached the queue"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Client B must be shed immediately — not queued, not hung.
    let started = Instant::now();
    let reply = classify(&mut Client::connect(addr), clip);
    let elapsed = started.elapsed();
    assert_eq!(reply.status, 503, "{}", reply.text());
    assert!(reply.text().contains("overloaded"), "{}", reply.text());
    let retry_after: u64 = reply
        .header("retry-after")
        .expect("Retry-After on 503")
        .parse()
        .expect("numeric Retry-After");
    assert!(retry_after >= 1);
    assert!(
        elapsed < Duration::from_secs(5),
        "shedding must be immediate, took {elapsed:?}"
    );

    // Teardown with a parked batch must not deadlock either: the
    // occupant's handler notices the shutdown flag and answers 503, or
    // the connection is closed under it — both are "never a hang".
    let (gateway_stats, server_stats) = gateway.shutdown();
    assert!(gateway_stats.requests_with_status(503) >= 1);
    assert_eq!(
        server_stats.rejected, 1,
        "B was shed by the admission queue"
    );
    server_stats.debug_assert_conserved();
}

/// The per-client token bucket answers 429 with a Retry-After, and a
/// client that actually waits is admitted again.
#[test]
fn rate_limited_clients_get_429_then_service_after_backoff() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server)
        .with_rate_limit(RateLimit::new(1.0, 2).expect("valid"))
        .bind()
        .expect("bind");
    let clip = &clips(1)[0];
    let mut client = Client::connect(gateway.local_addr());

    // The burst passes...
    assert_eq!(classify(&mut client, clip).status, 200);
    assert_eq!(classify(&mut client, clip).status, 200);
    // ...the third is rate-limited with explicit backoff...
    let shed = classify(&mut client, clip);
    assert_eq!(shed.status, 429, "{}", shed.text());
    let retry_after: u64 = shed
        .header("retry-after")
        .expect("Retry-After on 429")
        .parse()
        .expect("numeric Retry-After");
    assert!(retry_after >= 1);
    // ...and obeying it restores service (1 rps refills a token in 1 s).
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(classify(&mut client, clip).status, 200);

    let (gateway_stats, _) = gateway.shutdown();
    assert_eq!(gateway_stats.rate_limited, 1);
    assert_eq!(gateway_stats.requests_with_status(429), 1);
}

/// A deadline that expires in the serving queue answers 504 — the HTTP
/// projection of `ServeError::DeadlineExpired`.
#[test]
fn queue_expired_deadlines_answer_504() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_batch_policy(BatchPolicy::new(2, Duration::from_millis(50)))
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let clip = &clips(1)[0];
    let mut client = Client::connect(gateway.local_addr());

    // A zero deadline is expired by the time any worker claims it.
    let reply = client.send(
        "POST",
        "/v1/classify",
        &[("x-snappix-deadline-ms", "0".into())],
        &clip_bytes(clip),
    );
    assert_eq!(reply.status, 504, "{}", reply.text());
    // A generous deadline serves normally on the same connection.
    let reply = client.send(
        "POST",
        "/v1/classify",
        &[("x-snappix-deadline-ms", "60000".into())],
        &clip_bytes(clip),
    );
    assert_eq!(reply.status, 200, "{}", reply.text());

    let (_, server_stats) = gateway.shutdown();
    assert_eq!(server_stats.expired, 1);
    assert_eq!(server_stats.completed, 1);
}

/// Protocol-level rejections: wrong sizes, paths, methods and headers
/// all map to 4xx with informative bodies — and never reach the queue.
#[test]
fn malformed_requests_get_4xx_and_health_and_stats_respond() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();
    let good = clip_bytes(&clips(1)[0]);

    // Short body: 400 naming both sizes.
    let reply = Client::connect(addr).send("POST", "/v1/classify", &[], &good[..64]);
    assert_eq!(reply.status, 400);
    assert!(reply.text().contains("4096"), "{}", reply.text());
    // Oversized body: 413 at the framing layer.
    let huge = vec![0u8; good.len() + 4];
    let reply = Client::connect(addr).send("POST", "/v1/classify", &[], &huge);
    assert_eq!(reply.status, 413);
    // Unknown path / wrong method.
    let reply = Client::connect(addr).send("GET", "/nope", &[], &[]);
    assert_eq!(reply.status, 404);
    let reply = Client::connect(addr).send("GET", "/v1/classify", &[], &[]);
    assert_eq!(reply.status, 405);
    // Unparseable deadline header.
    let reply = Client::connect(addr).send(
        "POST",
        "/v1/classify",
        &[("x-snappix-deadline-ms", "soon".into())],
        &good,
    );
    assert_eq!(reply.status, 400);
    assert!(reply.text().contains("millisecond"), "{}", reply.text());

    // Liveness and the human-readable dump.
    let reply = Client::connect(addr).send("GET", "/health", &[], &[]);
    assert_eq!(reply.status, 200);
    assert!(
        reply.text().contains("\"status\":\"ok\""),
        "{}",
        reply.text()
    );
    let reply = Client::connect(addr).send("GET", "/stats", &[], &[]);
    assert_eq!(reply.status, 200);
    let dump = reply.text();
    assert!(dump.contains("--- server ---"), "{dump}");
    assert!(dump.contains("--- gateway ---"), "{dump}");
    assert!(dump.contains("p99"), "{dump}");

    // Nothing malformed reached the admission queue.
    let (gateway_stats, server_stats) = gateway.shutdown();
    assert_eq!(server_stats.submitted, 0);
    assert!(gateway_stats.requests_with_status(400) >= 2);
    assert_eq!(gateway_stats.requests_with_status(404), 1);
    assert_eq!(gateway_stats.requests_with_status(405), 1);
    assert_eq!(gateway_stats.requests_with_status(413), 1);
}

/// A well-sized body holding a NaN pixel is refused at admission with
/// 400, never answered as a class, and the gateway keeps serving.
#[test]
fn a_nan_clip_body_gets_400_and_never_reaches_the_queue() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();
    let clean = &clips(1)[0];
    let mut poisoned = clean.clone();
    poisoned.as_mut_slice()[17] = f32::NAN;

    let reply = Client::connect(addr).send("POST", "/v1/classify", &[], &clip_bytes(&poisoned));
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert!(reply.text().contains("NaN"), "{}", reply.text());
    let reply = classify(&mut Client::connect(addr), clean);
    assert_eq!(reply.status, 200, "{}", reply.text());

    let (gateway_stats, server_stats) = gateway.shutdown();
    assert_eq!(
        server_stats.submitted, 1,
        "only the clean clip was admitted"
    );
    assert_eq!(server_stats.completed, 1);
    assert_eq!(gateway_stats.requests_with_status(400), 1);
}

/// Gateway errors unify into `snappix::Error` for callers mixing layers.
#[test]
fn gateway_errors_unify_into_the_umbrella_error() {
    let e: snappix::Error = GatewayError::Config {
        context: "zero read timeout".into(),
    }
    .into();
    assert!(matches!(e, snappix::Error::Gateway(_)));
    assert!(e.to_string().contains("zero read timeout"));

    // And builder validation actually produces them.
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let err = Gateway::builder(server)
        .with_read_timeout(Duration::ZERO)
        .bind()
        .expect_err("zero timeout must be rejected");
    assert!(matches!(err, GatewayError::Config { .. }));
    assert!(RateLimit::new(0.0, 1).is_err());
}
