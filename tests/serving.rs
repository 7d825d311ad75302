//! Integration suite for the `snappix-serve` subsystem: a batched,
//! replicated server must be *operationally* different from a serial
//! pipeline (batching, shedding, deadlines) while staying *numerically*
//! identical to it.

use rand::{rngs::StdRng, SeedableRng};
use snappix_serve::prelude::*;
use std::time::Duration;

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 5;

fn model() -> SnapPixAr {
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("valid model")
}

fn clips(n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    (0..n)
        .map(|_| Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0))
        .collect()
}

/// Compile-time pin: the serving layer's whole object graph crosses
/// threads, so `Pipeline` (both backends), `Server`, and `Ticket` must
/// stay `Send`. A regression here (an `Rc`, a non-`Send` closure in the
/// autograd graph, ...) fails compilation, not a test at runtime.
#[test]
fn serving_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Pipeline<AlgorithmicEncoder>>();
    assert_send::<Pipeline<HardwareSensor>>();
    assert_send::<PipelineBuilder<AlgorithmicEncoder>>();
    assert_send::<Server>();
    assert_send::<Ticket>();
    assert_send::<ServeError>();
    fn assert_sync<T: Sync>() {}
    assert_sync::<Server>(); // clients share &Server across threads
}

/// The headline guarantee: hammer one server from many client threads
/// and require every answer to be bit-for-bit identical to a serial
/// per-clip loop over a single pipeline.
#[test]
fn concurrent_batched_serving_matches_serial_inference_exactly() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    let all = clips(CLIENTS * PER_CLIENT);

    // Serial reference: one pipeline, one clip at a time.
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

    let served: Vec<Vec<Prediction>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let all = &all;
                let server = &server;
                scope.spawn(move || {
                    // Interleave clients across the clip list so batches
                    // mix requests from different clients.
                    (0..PER_CLIENT)
                        .map(|i| {
                            let ticket = server
                                .submit(&all[i * CLIENTS + client])
                                .expect("admission");
                            ticket.wait().expect("prediction")
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (client, results) in served.iter().enumerate() {
        for (i, prediction) in results.iter().enumerate() {
            let expected = &reference[i * CLIENTS + client];
            assert_eq!(prediction.label, expected.label, "client {client} clip {i}");
            assert!(
                prediction.logits.approx_eq(&expected.logits, 0.0),
                "client {client} clip {i}: batched logits must be bit-for-bit serial"
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.rejected + stats.expired + stats.failed, 0);
    assert!(stats.batches >= 1);
    // Batch sizes here stay below 128, in exact singleton buckets.
    let clips_through_batches: u64 = stats
        .batch_size
        .buckets
        .iter()
        .map(|bucket| bucket.upper * bucket.count)
        .sum();
    assert_eq!(clips_through_batches, stats.completed);
    assert!(stats.queue_latency.samples >= stats.completed);
    assert!(stats.compute_latency.samples >= stats.batches);
    assert!(stats.throughput() > 0.0);
}

/// Backpressure is explicit: with a one-slot queue and a worker holding
/// its batch open, the second submission must shed with `Overloaded`.
#[test]
fn tiny_queue_sheds_load_with_overloaded() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_queue_depth(1)
        // A large max_batch with a long delay parks the worker in its
        // "wait for more clips" phase, so the queued request stays in
        // the queue and deterministically occupies the only slot.
        .with_batch_policy(BatchPolicy::new(8, Duration::from_secs(30)))
        .build()
        .expect("server assembly");

    let clip = &clips(1)[0];
    let first = server.submit(clip).expect("one slot free");
    let shed = server.try_submit(clip);
    assert!(
        matches!(shed, Err(ServeError::Overloaded { capacity: 1 })),
        "second submission must be shed, got {shed:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 1);

    // Shutdown flushes the parked partial batch immediately — the
    // admitted request is still answered, not abandoned.
    drop(server);
    let p = first.wait().expect("drained on shutdown");
    assert_eq!(p.logits.shape(), &[CLASSES]);
}

/// Deadlines expire queued work instead of running it late.
#[test]
fn expired_deadlines_shed_queued_work() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_queue_depth(8)
        .with_batch_policy(BatchPolicy::new(2, Duration::from_millis(100)))
        .build()
        .expect("server assembly");

    let clip = &clips(1)[0];
    // A zero deadline is expired by the time any worker claims it.
    let doomed = server
        .try_submit_within(clip, Some(Duration::ZERO))
        .expect("admission is still granted");
    match doomed.wait() {
        Err(ServeError::DeadlineExpired { .. }) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    // A generous deadline serves normally on the same server.
    let fine = server
        .submit_within(clip, Some(Duration::from_secs(60)))
        .expect("admission");
    assert_eq!(fine.wait().expect("served").logits.shape(), &[CLASSES]);

    let stats = server.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
}

/// A client holding its answer finds its request in `stats()`: the
/// worker counts each request before answering it, so a stats read
/// right after a served or expired request never lags one behind.
#[test]
fn answered_requests_are_already_counted() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_batch_policy(BatchPolicy::greedy(1))
        .build()
        .expect("server assembly");
    let clip = &clips(1)[0];
    for n in 1..=32 {
        server.classify(clip).expect("served");
        assert_eq!(server.stats().completed, n, "served request {n}");
        let doomed = server
            .try_submit_within(clip, Some(Duration::ZERO))
            .expect("admission is still granted");
        assert!(matches!(
            doomed.wait(),
            Err(ServeError::DeadlineExpired { .. })
        ));
        let stats = server.stats();
        assert_eq!(stats.expired, n, "expired request {n}");
        assert_eq!(stats.check_conserved(), Ok(0), "nothing in flight");
    }
    server.shutdown();
}

/// Every executed batch leaves exactly one sample in each pipeline
/// stage and one compute-latency sample in the live registry, so the
/// per-batch families agree with the batch counter: concurrent clients
/// over two workers, no failures.
#[test]
fn a_served_run_records_one_stage_sample_per_executed_batch() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(2)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(1)))
        .build()
        .expect("server assembly");
    let all = clips(CLIENTS * PER_CLIENT);
    std::thread::scope(|scope| {
        for chunk in all.chunks(PER_CLIENT) {
            let server = &server;
            scope.spawn(move || {
                for clip in chunk {
                    server.classify(clip).expect("served");
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.rejected + stats.expired + stats.failed, 0);
    let profile = stats.profile;
    assert_eq!(
        [
            profile.sense.calls,
            profile.forward.calls,
            profile.readout.calls,
            profile.batches,
            stats.compute_latency.samples,
        ],
        [stats.batches; 5],
        "one sample per executed batch in every per-batch family"
    );
}

/// A client-side `wait_timeout` that expires while the request is
/// *mid-compute* (claimed off the queue, riding in a running batch) must
/// return `Ok(None)` and leave the ticket redeemable — a client timing
/// out is not a server-side deadline expiry. Only queue-side expiry was
/// covered before this test.
#[test]
fn wait_timeout_mid_compute_leaves_the_ticket_redeemable() {
    // A deliberately heavy batch so its compute dwarfs the poll timeout:
    // 32 clips of [8, 32, 32] through SnapPix-S is multiple milliseconds
    // of forward pass on any CPU, and the timeout below is 250 us.
    const B: usize = 32;
    let mask = patterns::long_exposure(8, (8, 8)).expect("valid mask");
    let model = SnapPixAr::new(VitConfig::snappix_s(32, 32, CLASSES), mask).expect("valid model");
    let server = Server::builder(Pipeline::builder(model))
        .with_workers(1)
        .with_queue_depth(B)
        // The worker holds its batch open until all B requests are
        // queued, then claims them together — so compute starts, and
        // only starts, right after the last submission below.
        .with_batch_policy(BatchPolicy::new(B, Duration::from_secs(30)))
        .build()
        .expect("server assembly");

    let mut rng = StdRng::seed_from_u64(0xfeed);
    let tickets: Vec<Ticket> = (0..B)
        .map(|_| {
            let clip = Tensor::rand_uniform(&mut rng, &[8, 32, 32], 0.0, 1.0);
            server.submit(&clip).expect("admission")
        })
        .collect();

    // The full batch was just claimed; its forward pass is now running.
    // A 250 us poll cannot outlive a 32-clip forward pass, so this
    // expires with the request mid-compute (or still being claimed —
    // either way, unanswered).
    let last = tickets.last().expect("B tickets");
    assert_eq!(
        last.wait_timeout(Duration::from_micros(250)),
        Ok(None),
        "client-side timeout, request still in flight"
    );

    // The ticket remains redeemable: a later bounded wait gets the
    // answer, and so do all the other tickets.
    let answered = last
        .wait_timeout(Duration::from_secs(60))
        .expect("served")
        .expect("answer arrived within the bounded wait");
    assert_eq!(answered.logits.shape(), &[CLASSES]);
    for ticket in &tickets[..B - 1] {
        assert!(ticket.wait_timeout(Duration::from_secs(60)).is_ok());
    }

    // Nothing expired server-side: the client giving up on a poll must
    // not shed the work.
    let stats = server.shutdown();
    assert_eq!(stats.completed, B as u64);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.batches, 1, "all B rode one batch");
    assert_eq!(
        (stats.batch_size.count, stats.batch_size.max),
        (1, B as u64)
    );
}

/// Geometry is validated at admission so one bad clip cannot poison a
/// whole batch, and shutdown refuses new work.
#[test]
fn bad_clips_and_shutdown_are_rejected_at_the_door() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    assert_eq!(server.expected_clip(), [T, HW, HW]);
    assert_eq!(server.num_classes(), CLASSES);
    assert!(matches!(
        server.try_submit(&Tensor::zeros(&[T, 8, 8])),
        Err(ServeError::BadClip { .. })
    ));
    assert!(matches!(
        server.try_submit(&Tensor::zeros(&[1, T, HW, HW])),
        Err(ServeError::BadClip { .. })
    ));
    // Bad clips never reach the queue or the stats.
    assert_eq!(server.stats().submitted, 0);

    // The blocking API answers like the one-shot API.
    let clip = &clips(1)[0];
    let label = server.classify(clip).expect("classify");
    let direct = server.infer_clip(clip).expect("infer_clip");
    assert_eq!(label, direct.label);
}

/// A clip with a NaN or infinite pixel is refused at the door like a
/// misshapen one: it would otherwise come back as NaN logits read as
/// class 0. Nothing is admitted for it, and the server's next answer is
/// still bit for bit the serial pipeline's.
#[test]
fn non_finite_clips_are_rejected_at_the_door() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let clean = &clips(1)[0];
    for (pixel, poison) in [
        (0, f32::NAN),
        (100, f32::INFINITY),
        (1023, f32::NEG_INFINITY),
    ] {
        let mut clip = clean.clone();
        clip.as_mut_slice()[pixel] = poison;
        match server.try_submit(&clip) {
            Err(ServeError::BadClip { context }) => {
                assert!(context.contains(&format!("pixel {pixel}")), "{context}");
            }
            other => panic!("{poison} pixel admitted: {other:?}"),
        }
        assert!(matches!(
            server.submit(&clip),
            Err(ServeError::BadClip { .. })
        ));
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 0, "poisoned clips never reach the queue");
    assert_eq!(stats.check_conserved(), Ok(0));

    let served = server.infer_clip(clean).expect("clean clip served");
    let mut serial = Pipeline::builder(model()).build().expect("assembly");
    let reference = serial.infer_clip(clean).expect("serial inference");
    assert_eq!(served.label, reference.label);
    let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served.logits), bits(&reference.logits));
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    assert_eq!(stats.check_conserved(), Ok(0));
}

/// First pixel that marks a clip [`PanicsOnPoison`] panics on. It is
/// finite, so admission lets it through to the worker.
const POISON: f32 = -1.0;

/// A backend that senses exactly as the algorithmic encoder it wraps,
/// except that it panics on any batch holding a clip whose first pixel
/// is [`POISON`].
#[derive(Debug, Clone)]
struct PanicsOnPoison(AlgorithmicEncoder);

impl Sense for PanicsOnPoison {
    type Error = <AlgorithmicEncoder as Sense>::Error;

    fn mask(&self) -> &ExposureMask {
        self.0.mask()
    }

    fn sense_batch(&mut self, clips: &Tensor) -> Result<Tensor, Self::Error> {
        let clip_len = T * HW * HW;
        if clips
            .as_slice()
            .chunks(clip_len)
            .any(|clip| clip[0] == POISON)
        {
            panic!("poisoned clip");
        }
        self.0.sense_batch(clips)
    }
}

/// A panic inside a worker's forward pass fails that batch like an
/// inference error: its rider is answered with `Inference` and counted
/// as failed, nothing is left in flight, the same worker goes on to
/// serve the next clip bit for bit, and shutdown returns. Every wait is
/// bounded, so a regression fails instead of hanging.
#[test]
fn a_panicking_batch_is_answered_and_the_worker_goes_on() {
    const BOUND: Duration = Duration::from_secs(60);
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    let recipe =
        Pipeline::builder(model()).with_backend(PanicsOnPoison(AlgorithmicEncoder::new(mask)));
    let server = Server::builder(recipe)
        .with_workers(1)
        .with_batch_policy(BatchPolicy::greedy(1))
        .build()
        .expect("server assembly");
    let clean = &clips(1)[0];
    let mut poisoned = clean.clone();
    poisoned.as_mut_slice()[0] = POISON;

    let doomed = server.submit(&poisoned).expect("a finite clip is admitted");
    match doomed.wait_timeout(BOUND) {
        Err(ServeError::Inference { message }) => {
            assert!(message.contains("poisoned clip"), "{message}");
        }
        other => panic!("expected an Inference error, got {other:?}"),
    }

    let served = server
        .submit(clean)
        .expect("the worker still admits")
        .wait_timeout(BOUND)
        .expect("served")
        .expect("answered within the bound");
    let mut offline = Pipeline::builder(model()).build().expect("assembly");
    let reference = offline.infer_clip(clean).expect("offline inference");
    let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served.logits), bits(&reference.logits));

    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let stats = stopped.recv_timeout(BOUND).expect("shutdown returns");
    stopper.join().expect("shutdown thread");
    assert_eq!((stats.submitted, stats.completed, stats.failed), (2, 1, 1));
    assert_eq!(stats.check_conserved(), Ok(0), "nothing left in flight");
}

/// The hardware-sensor path serves through replicas too (each replica
/// clones the readout chain), and agrees with the algorithmic path on
/// the decision for a noiseless ADC.
#[test]
fn hardware_backed_server_serves_and_agrees_on_labels() {
    let recipe = Pipeline::builder(model())
        .with_hardware_sensor(ReadoutConfig::noiseless(12, 4.0))
        .expect("sensor assembly");
    let server = Server::builder(recipe)
        .with_workers(2)
        .build()
        .expect("server assembly");
    let mut sw = Pipeline::builder(model()).build().expect("assembly");
    for clip in &clips(3) {
        let hw_label = server.classify(clip).expect("served");
        let sw_label = sw.infer_clip(clip).expect("serial").label;
        assert_eq!(hw_label, sw_label, "noiseless ADC must not flip labels");
    }
}

/// Serve errors unify into `snappix::Error` for callers mixing layers.
#[test]
fn serve_errors_unify_into_the_umbrella_error() {
    let e: snappix::Error = ServeError::Overloaded { capacity: 64 }.into();
    assert!(matches!(e, snappix::Error::Serve(_)));
    assert!(e.to_string().contains("overloaded"));
}

/// Each replica's data-parallel budget is derived from the ambient
/// thread count and the worker count alone, so N workers never
/// oversubscribe the `SNAPPIX_THREADS` / core budget — including more
/// workers than threads, where every replica still gets one.
#[test]
fn per_replica_thread_budget_splits_the_ambient_threads() {
    let ambient = parallel::default_threads();
    for workers in [1, 2, ambient + 1] {
        let server = Server::builder(Pipeline::builder(model()))
            .with_workers(workers)
            .build()
            .expect("server assembly");
        assert_eq!(server.workers(), workers);
        assert_eq!(
            server.worker_threads(),
            (ambient / workers).max(1),
            "{workers} workers over {ambient} ambient threads"
        );
    }
}
