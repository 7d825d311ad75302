//! Gateway load test: stand up the HTTP front-end over a replicated
//! server, hammer it over loopback TCP from hundreds of simulated
//! clients (mixed policies: patient, deadline-bound, and metrics
//! scrapers riding the same wire), and print both layers' telemetry.
//!
//! Run with `cargo run --release --example gateway`. Environment knobs:
//! `SNAPPIX_THREADS` bounds the machine parallelism the server divides
//! among its replicas. The gateway's measured numbers come from
//! perfbench's traced `fleet_hw` run (`gateway.request_ms_p50`,
//! `gateway.wire_ms_p50`).

use rand::{rngs::StdRng, SeedableRng};
use snappix_gateway::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const T: usize = 8;
const HW: usize = 16;
const CLASSES: usize = 5;
const CLIENTS: usize = 200;
const CLIPS_PER_CLIENT: usize = 3;

/// One round trip on an existing keep-alive connection; returns the
/// status code and the body.
fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    extra: &str,
    body: &[u8],
) -> (u16, String) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n{extra}\r\n",
        body.len()
    );
    let stream = reader.get_mut();
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");

    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().expect("numeric content-length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn main() -> Result<(), snappix::Error> {
    // A small co-designed model at the paper's 16x16 edge scale.
    let mask = patterns::long_exposure(T, (8, 8))?;
    let model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask)?;
    let server = Server::builder(Pipeline::builder(model))
        .with_workers(2)
        .with_queue_depth(64)
        .with_batch_policy(BatchPolicy::new(8, Duration::from_millis(2)))
        .build()?;

    // No rate limit here: every loopback client shares one peer IP, so
    // a per-client token bucket would throttle the whole fleet as one.
    let gateway = Gateway::builder(server)
        .with_max_connections(CLIENTS + 8)
        .bind()
        .map_err(snappix::Error::from)?;
    let addr = gateway.local_addr();
    println!(
        "gateway on http://{addr} over {} workers, queue depth {}",
        gateway.server().workers(),
        gateway.server().queue_capacity(),
    );

    let mut rng = StdRng::seed_from_u64(11);
    let clips: Vec<Vec<u8>> = (0..CLIENTS * CLIPS_PER_CLIENT)
        .map(|_| {
            Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0)
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect()
        })
        .collect();

    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (clips, ok, shed, expired) = (&clips, &ok, &shed, &expired);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("timeout");
                let mut conn = BufReader::new(stream);
                for i in 0..CLIPS_PER_CLIENT {
                    let body = &clips[client * CLIPS_PER_CLIENT + i];
                    // Every third client is deadline-bound; the rest wait.
                    let extra = if client % 3 == 2 {
                        "x-snappix-deadline-ms: 250\r\n"
                    } else {
                        ""
                    };
                    let (status, _) = roundtrip(&mut conn, "POST", "/v1/classify", extra, body);
                    match status {
                        200 => ok.fetch_add(1, Ordering::Relaxed),
                        503 => shed.fetch_add(1, Ordering::Relaxed),
                        504 => expired.fetch_add(1, Ordering::Relaxed),
                        other => panic!("client {client}: unexpected status {other}"),
                    };
                }
                // A handful of clients double as monitoring scrapers.
                if client % 50 == 0 {
                    let (status, page) = roundtrip(&mut conn, "GET", "/metrics", "", &[]);
                    assert_eq!(status, 200);
                    assert!(page.contains("snappix_server_requests_submitted_total"));
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let total = (CLIENTS * CLIPS_PER_CLIENT) as u64;
    let (ok, shed, expired) = (ok.into_inner(), shed.into_inner(), expired.into_inner());
    assert_eq!(ok + shed + expired, total, "every request was answered");
    println!(
        "\n{CLIENTS} clients x {CLIPS_PER_CLIENT} clips in {elapsed:.2?} \
         ({:.0} req/s over the wire)",
        total as f64 / elapsed.as_secs_f64()
    );
    println!("{ok} served (200), {shed} shed (503), {expired} expired (504)");

    let (gateway_stats, server_stats) = gateway.shutdown();
    server_stats.debug_assert_conserved();
    println!("\n--- gateway telemetry ---\n{gateway_stats}");
    println!("--- server telemetry ---\n{server_stats}");
    println!(
        "mean batch size {:.2} across {} batches",
        server_stats.mean_batch_size(),
        server_stats.batches
    );
    Ok(())
}
