//! `gateway_keepalive`: two keep-alive loopback connections in a closed
//! loop POST 16 KiB clips to `/v1/classify` over a server with
//! `BatchPolicy::greedy(8)`; one connection also scrapes `GET /metrics`
//! every 50th request. Batches stay at 1-2 clips, so per-request fixed
//! costs (HTTP framing, JSON logits, per-call tape set-up) dominate.
//!
//! The same loop, run briefly, is the `gateway` probe of the `fleet_hw`
//! and `serve_open_loop` traced runs.

use crate::common::{self, Reference, Run};
use crate::report::{median, ms, quantile, Outcome, Sliced};
use snappix_fleet::prelude::*;
use snappix_gateway::{Endpoint, Gateway};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const HW: usize = 16;
const CLIPS: usize = 256;
const CONNECTIONS: usize = 2;
/// Connection 0 scrapes `/metrics` once per this many classify requests.
const SCRAPE_EVERY: usize = 50;
/// Untraced/traced slice pairs the overhead comparison interleaves.
const OVERHEAD_SLICES: usize = 4;
/// Time slice the end-to-end figures are read over (hundreds of
/// requests).
const SLICE: Duration = Duration::from_millis(100);
/// Round trips each connection makes during set-up.
const WARM_REQUESTS: usize = 32;
/// A family the scraped page must carry.
const SCRAPE_MARKER: &str = "snappix_server_requests_submitted_total";

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Head and body go out in one write with Nagle off: a separate
        // body write would wait out the peer's delayed-ACK timer.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one whole request and reads the status and body back.
    fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::other("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Parses the logits array out of a classify answer,
/// `{"label":L,"logits":[a,b,...]}`.
fn parse_logits(body: &[u8]) -> Option<Vec<f32>> {
    let text = std::str::from_utf8(body).ok()?;
    let list = text.split("\"logits\":[").nth(1)?.split(']').next()?;
    list.split(',').map(|v| v.parse().ok()).collect()
}

/// One classify request per clip: head and body in one buffer.
fn classify_requests(clips: &[Tensor]) -> Vec<Vec<u8>> {
    clips
        .iter()
        .map(|clip| {
            let body: Vec<u8> = clip
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let mut request = format!(
                "POST /v1/classify HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(&body);
            request
        })
        .collect()
}

const SCRAPE_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: perfbench\r\n\r\n";

/// What one closed-loop phase measured, over both connections.
struct Phase {
    elapsed: Duration,
    /// Classify round trips.
    latencies_ms: Sliced,
    scrapes_ms: Vec<f64>,
}

/// Requests, wall time and samples summed over several phases.
#[derive(Default)]
struct Totals {
    requests: u64,
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    scrapes_ms: Vec<f64>,
}

impl Totals {
    fn add(&mut self, phase: Phase) {
        self.requests += phase.latencies_ms.len() as u64;
        self.elapsed += phase.elapsed;
        self.latencies_ms.extend(phase.latencies_ms.all());
        self.scrapes_ms.extend(phase.scrapes_ms);
    }

    fn per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

/// Per-connection tally, merged into the phase afterwards.
struct Lane {
    latencies_ms: Sliced,
    scrapes_ms: Vec<f64>,
    ok: Vec<bool>,
}

fn drive(
    lane_id: usize,
    client: &mut Client,
    requests: &[Vec<u8>],
    reference: &Reference,
    (started, until): (Instant, Instant),
) -> Lane {
    let mut lane = Lane {
        latencies_ms: Sliced::new(started, SLICE),
        scrapes_ms: Vec::new(),
        ok: Vec::new(),
    };
    let mut k = 0;
    while k == 0 || Instant::now() < until {
        let clip = (lane_id + k * CONNECTIONS) % requests.len();
        let sent = Instant::now();
        let answer = client.round_trip(&requests[clip]);
        let done = Instant::now();
        lane.latencies_ms.push(done, ms(done - sent));
        let ok = matches!(&answer, Ok((200, body))
            if parse_logits(body).is_some_and(|l| reference.matches(clip, &l)));
        lane.ok.push(ok);
        if answer.is_err() {
            break;
        }
        k += 1;
        if lane_id == 0 && k % SCRAPE_EVERY == 0 {
            let sent = Instant::now();
            let page = client.round_trip(SCRAPE_REQUEST);
            lane.scrapes_ms.push(ms(sent.elapsed()));
            let ok = matches!(&page, Ok((200, body))
                if std::str::from_utf8(body).is_ok_and(|p| p.contains(SCRAPE_MARKER)));
            lane.ok.push(ok);
        }
    }
    lane
}

fn closed_loop(
    out: &mut Outcome,
    clients: &mut [Client],
    requests: &[Vec<u8>],
    reference: &Reference,
    length: Duration,
) -> Phase {
    let started = Instant::now();
    let until = started + length;
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                scope.spawn(move || drive(id, client, requests, reference, (started, until)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut phase = Phase {
        elapsed,
        latencies_ms: Sliced::new(started, SLICE),
        scrapes_ms: Vec::new(),
    };
    for lane in lanes {
        for ok in lane.ok {
            out.check(ok);
        }
        phase.latencies_ms.merge(lane.latencies_ms);
        phase.scrapes_ms.extend(lane.scrapes_ms);
    }
    phase.latencies_ms.close(started + elapsed);
    phase
}

/// Binds a loopback gateway over `server`, opens the client connections
/// and warms them up.
fn bind(server: Server, requests: &[Vec<u8>]) -> (Gateway, Vec<Client>) {
    let gateway = Gateway::builder(server)
        .with_max_connections(CONNECTIONS + 2)
        .bind()
        .expect("bind the loopback gateway");
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(gateway.local_addr()).expect("connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        for k in 0..WARM_REQUESTS {
            let (status, _) = client
                .round_trip(&requests[(i + k) % requests.len()])
                .expect("warm-up round trip");
            assert_eq!(status, 200, "warm-up classify");
        }
    }
    (gateway, clients)
}

/// Records `gateway.*`: the handler's own classify latency, the client
/// round trip less that, and the scrape round trip.
fn record_gateway(
    out: &mut Outcome,
    gateway: &Gateway,
    round_trips_ms: &[f64],
    scrapes_ms: &[f64],
) {
    let handler_ms = gateway
        .stats()
        .latency
        .iter()
        .find(|l| l.endpoint == Endpoint::Classify)
        .map_or(0.0, |l| ms(l.summary.p50));
    out.set("gateway.request_ms_p50", handler_ms);
    out.set("gateway.wire_ms_p50", median(round_trips_ms) - handler_ms);
    out.set("gateway.scrape_ms_p50", median(scrapes_ms));
}

/// Closes the clients, shuts the gateway down and checks both layers'
/// books: conserved server ledgers, nothing but 200s on the wire.
fn shut_down(out: &mut Outcome, gateway: Gateway, clients: Vec<Client>) {
    drop(clients);
    let (gateway_stats, server_stats) = gateway.shutdown();
    if let Err(drift) = server_stats.check_conserved() {
        out.broke(format!("server ledger not conserved: {drift}"));
    }
    let non_200: u64 = gateway_stats
        .requests
        .iter()
        .filter(|r| r.status != 200)
        .map(|r| r.count)
        .sum();
    if non_200 > 0 {
        out.broke(format!(
            "the gateway answered {non_200} requests with a non-200 status"
        ));
    }
}

/// `gateway` probe for another workload's traced run: the keep-alive
/// closed loop over `server` for `length`, recording `gateway.*`.
pub fn probe(
    out: &mut Outcome,
    server: Server,
    clips: &[Tensor],
    reference: &Reference,
    length: Duration,
) {
    let requests = classify_requests(clips);
    let (gateway, mut clients) = bind(server, &requests);
    let phase = closed_loop(out, &mut clients, &requests, reference, length);
    record_gateway(out, &gateway, &phase.latencies_ms.all(), &phase.scrapes_ms);
    shut_down(out, gateway, clients);
}

pub fn run(run: &Run) -> Outcome {
    let clips = common::clips(run, CLIPS, HW);
    let reference = Reference::compute(&common::model(run, HW), &clips);
    let requests = classify_requests(&clips);
    let path = common::artifact_path("gateway_keepalive");

    let setup = common::repeat_setup(|| {
        let model = common::model(run, HW);
        let (reader, open) = common::write_and_open(&model, &path);
        let server = Server::builder(
            Pipeline::builder(model)
                .with_artifact_reader(&reader)
                .expect("artifact matches the model"),
        )
        .with_batch_policy(BatchPolicy::greedy(8))
        .build()
        .expect("server");
        (bind(server, &requests), open)
    });
    std::fs::remove_file(&path).ok();
    let (gateway, mut clients) = setup.harness;
    let mut out = Outcome::default();

    if run.trace {
        // Slices with and without the server-stats spans, interleaved so
        // drift hits both sides alike.
        let slice = run.share(0.8 / (2 * OVERHEAD_SLICES) as f64);
        let (mut untraced, mut traced) = (Totals::default(), Totals::default());
        let mut profile = PipelineProfile::default();
        let mut compute = Duration::ZERO;
        for _ in 0..OVERHEAD_SLICES {
            untraced.add(closed_loop(
                &mut out,
                &mut clients,
                &requests,
                &reference,
                slice,
            ));
            let before = gateway.server().stats();
            traced.add(closed_loop(
                &mut out,
                &mut clients,
                &requests,
                &reference,
                slice,
            ));
            let after = gateway.server().stats();
            profile.merge(&common::profile_delta(&before.profile, &after.profile));
            compute += after
                .compute_latency
                .total
                .saturating_sub(before.compute_latency.total);
        }
        common::record_overhead(&mut out, untraced.per_s(), traced.per_s());
        common::record_profile(&mut out, &profile, compute);
        common::record_server(&mut out, &gateway.server().stats());
        record_gateway(&mut out, &gateway, &traced.latencies_ms, &traced.scrapes_ms);
        out.set("latency_p99_ms", quantile(&traced.latencies_ms, 0.99));

        let probe = Pipeline::builder(common::model(run, HW))
            .build()
            .expect("probe pipeline");
        let batches = common::batches(&clips, 1);
        let coded = common::probe_encoder(&mut out, probe.model(), &batches, run.share(0.1));
        common::probe_forward(&mut out, probe.model(), &coded, &reference, run.share(0.1));
    } else {
        let phase = closed_loop(
            &mut out,
            &mut clients,
            &requests,
            &reference,
            run.share(1.0),
        );
        out.set("throughput_per_s", phase.latencies_ms.rate(1.0));
        out.set("latency_p50_ms", phase.latencies_ms.median(0.5));
        out.set("latency_p99_ms", phase.latencies_ms.tail(0.99));
        out.notes.push(format!(
            "{} classify round trips over {CONNECTIONS} connections, {} scrapes \
             (p50 {:.3} ms)",
            phase.latencies_ms.len(),
            phase.scrapes_ms.len(),
            median(&phase.scrapes_ms),
        ));
    }
    shut_down(&mut out, gateway, clients);
    common::finish(&mut out, setup.setup_s, setup.open_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logits_parse_back_bit_for_bit() {
        let logits = [0.1f32, -2.5e-8, 3.0];
        let body = format!(
            "{{\"label\":2,\"logits\":[{},{},{}]}}",
            logits[0], logits[1], logits[2]
        );
        assert_eq!(parse_logits(body.as_bytes()).unwrap(), logits);
        assert!(parse_logits(b"{\"label\":1}").is_none());
    }
}
