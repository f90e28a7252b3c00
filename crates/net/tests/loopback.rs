//! Loopback wire tests: a workload classified through the TCP front door
//! must be **bit-for-bit** identical to the same cohorts run in-process,
//! and no byte stream — torn, oversized, or garbage — may panic the
//! server.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sbgt_engine::{EngineConfig, FaultPlan, SharedEngine};
use sbgt_net::{
    DecodeError, FabricConfig, FabricRouter, Request, Response, ShardClient, ShardServer,
    MAX_PAYLOAD,
};
use sbgt_service::{
    batch_specimens, run_cohort_serial, CohortReport, CohortSpec, ServiceConfig, Specimen,
};

fn shared_engine() -> SharedEngine {
    SharedEngine::new(EngineConfig::default().with_threads(2))
}

/// An engine holding every sharded round for 300 ms (an injected straggler
/// on task 0 of each fused round), so a drain a few milliseconds after
/// placement always finds the shard's cohorts live. Stragglers only slow a
/// stage; they change no result.
fn holding_engine() -> SharedEngine {
    let engine = shared_engine();
    let hold = Duration::from_millis(300);
    engine.set_fault_plan(FaultPlan::new().delay_at("fused-round:in-place", 0, hold));
    engine
}

fn specimens(n: usize, seed: u64) -> Vec<Specimen> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let risk = 0.01 + rng.random::<f64>() * 0.12;
            Specimen {
                risk,
                infected: rng.random_bool(risk),
            }
        })
        .collect()
}

fn wire_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        batch_size: 6,
        // Long deadline: only the size trigger forms batches, so the
        // server-side cohorts match `batch_specimens` exactly.
        batch_deadline: Duration::from_secs(5),
        dense_threshold: 5,
        parts: 3,
        base_seed: 77,
        ..ServiceConfig::default()
    }
}

/// Poll a shard until `expected` reports have arrived (or a deadline).
fn poll_until(client: &mut ShardClient, expected: usize) -> Vec<CohortReport> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut all = Vec::new();
    while all.len() < expected {
        assert!(
            Instant::now() < deadline,
            "only {} of {expected} reports arrived",
            all.len()
        );
        match client.call(&Request::PollReports).unwrap() {
            Response::Reports { reports } => all.extend(reports),
            other => panic!("unexpected response: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    all.sort_by_key(|r| r.cohort);
    all
}

#[test]
fn wire_submission_matches_in_process_run_bit_for_bit() {
    let engine = shared_engine();
    let config = wire_config();
    let sp = specimens(36, 11);

    let server = ShardServer::bind("127.0.0.1:0", engine.clone(), config.clone()).unwrap();
    let mut client = ShardClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    // Submit over the wire in uneven chunks (frames need not align with
    // batches).
    for chunk in sp.chunks(7) {
        match client
            .call(&Request::Submit {
                tenant: 0,
                specimens: chunk.to_vec(),
                trace: None,
            })
            .unwrap()
        {
            Response::Accepted {
                accepted,
                shed: 0,
                reason: None,
            } => assert_eq!(accepted as usize, chunk.len()),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    let specs = batch_specimens(&sp, config.batch_size, config.base_seed);
    let reports = poll_until(&mut client, specs.len());

    // Every report read over TCP equals the serial in-process reference,
    // down to the last marginal bit.
    for (report, spec) in reports.iter().zip(&specs) {
        let serial =
            run_cohort_serial(&engine, spec, config.model, config.session, config.policy());
        assert_eq!(report.cohort, spec.id);
        assert_eq!(report.tenant, 0);
        assert_eq!(report.outcome, serial);
        for (a, b) in report.outcome.marginals.iter().zip(&serial.marginals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Stats scrape over the wire parses and shows the submissions.
    match client.call(&Request::Stats).unwrap() {
        Response::Stats { prometheus } => {
            let samples = sbgt_engine::obs::parse_prometheus(&prometheus).unwrap();
            let submitted = samples
                .iter()
                .find(|s| s.name == "sbgt_service_specimens_submitted_total")
                .expect("submitted counter present");
            assert_eq!(submitted.value as usize, sp.len());
        }
        other => panic!("unexpected response: {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn malformed_frames_get_typed_errors_and_never_kill_the_server() {
    let engine = shared_engine();
    let server = ShardServer::bind("127.0.0.1:0", engine, wire_config()).unwrap();
    let addr = server.local_addr();

    // Garbage magic.
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(b"XXzzzzzz").unwrap() {
        Response::Error { message } => assert!(message.contains("bad magic"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // Future protocol version.
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(b"SB\x09\x01\x00\x00\x00\x00").unwrap() {
        Response::Error { message } => assert!(message.contains("version"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // Stale protocol version (v1, pre word-list truth).
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(b"SB\x01\x01\x00\x00\x00\x00").unwrap() {
        Response::Error { message } => assert!(message.contains("version"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // Stale protocol version (v2, pre trace-trailers).
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(b"SB\x02\x01\x00\x00\x00\x00").unwrap() {
        Response::Error { message } => assert!(message.contains("version"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // Unknown frame kind.
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(b"SB\x03\x7e\x00\x00\x00\x00").unwrap() {
        Response::Error { message } => assert!(message.contains("unknown"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // Oversized length prefix: rejected before any allocation.
    let mut header = Vec::from(*b"SB\x03\x01");
    header.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(&header).unwrap() {
        Response::Error { message } => assert!(message.contains("oversized"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // Corrupt payload: a Submit frame promising more specimens than it
    // carries.
    let mut corrupt = Vec::from(*b"SB\x03\x02");
    corrupt.extend_from_slice(&8u32.to_le_bytes());
    corrupt.extend_from_slice(&0u32.to_le_bytes());
    corrupt.extend_from_slice(&1000u32.to_le_bytes());
    let mut client = ShardClient::connect(addr).unwrap();
    match client.call_raw(&corrupt).unwrap() {
        Response::Error { message } => assert!(message.contains("corrupt"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // A torn frame is NOT an error on a live stream: completing it later
    // must yield a normal response.
    let ping = Request::Ping.encode();
    {
        use std::io::{Read, Write};
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&ping[..5]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        raw.write_all(&ping[5..]).unwrap();
        let mut buf = [0u8; 64];
        let n = raw.read(&mut buf).unwrap();
        let (response, _) = Response::decode(&buf[..n]).unwrap();
        assert_eq!(response, Response::Pong);
    }

    // After all that abuse the server still serves.
    let mut client = ShardClient::connect(addr).unwrap();
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    server.shutdown().unwrap();
}

#[test]
fn decode_error_variants_match_the_wire_cases() {
    // The same malformed inputs the server sees, asserted at the codec
    // level for their exact typed variants.
    assert!(matches!(
        Request::decode(b"XXzzzzzz"),
        Err(DecodeError::BadMagic(_))
    ));
    assert!(matches!(
        Request::decode(b"SB\x09\x01\x00\x00\x00\x00"),
        Err(DecodeError::BadVersion(9))
    ));
    assert!(
        matches!(
            Request::decode(b"SB\x01\x7e\x00\x00\x00\x00"),
            Err(DecodeError::BadVersion(1)),
        ),
        "v1 frames are rejected at the header since the truth widened"
    );
    assert!(
        matches!(
            Request::decode(b"SB\x02\x7e\x00\x00\x00\x00"),
            Err(DecodeError::BadVersion(2)),
        ),
        "v2 frames are rejected at the header since trailers were added"
    );
    assert!(matches!(
        Request::decode(b"SB\x03\x7e\x00\x00\x00\x00"),
        Err(DecodeError::UnknownKind(0x7e))
    ));
    let ping = Request::Ping.encode();
    assert!(matches!(
        Request::decode(&ping[..5]),
        Err(DecodeError::Torn { have: 5, .. })
    ));
}

#[test]
fn drain_handoff_relocates_cohorts_bit_for_bit() {
    // Two shards, each its own engine (as in separate processes); a
    // router places 24 cohorts, then shard 0 is drained mid-run and its
    // live cohorts must finish on shard 1 with identical reports. Every
    // cohort is sharded, so that shard 0's rounds run on its engine and its
    // stragglers hold them until the drain.
    let config = ServiceConfig {
        workers: 2,
        batch_size: 12,
        dense_threshold: 0,
        base_seed: 4242,
        ..ServiceConfig::default()
    };
    let server_a = ShardServer::bind("127.0.0.1:0", holding_engine(), config.clone()).unwrap();
    let server_b = ShardServer::bind("127.0.0.1:0", shared_engine(), config.clone()).unwrap();

    let fabric_config = FabricConfig {
        batch_size: 12,
        base_seed: config.base_seed,
        ..FabricConfig::default()
    };
    let mut router = FabricRouter::connect(
        &[(0, server_a.local_addr()), (1, server_b.local_addr())],
        &fabric_config,
    )
    .unwrap();

    let sp = specimens(24 * 12, 29);
    for s in &sp {
        router.submit(0, *s).unwrap();
    }
    router.flush_all().unwrap();
    let placed = router.counters().placed_cohorts;
    assert_eq!(placed, 24);
    assert_eq!(router.counters().shed_specimens, 0);

    // Drain shard 0 immediately: its live cohorts freeze into SBGTCKPT
    // blobs and re-home onto shard 1.
    let mut reports = router.drain_shard(0).unwrap();
    assert_eq!(router.live_shards(), vec![1]);
    assert!(
        router.counters().relocated_cohorts > 0,
        "drain this early must catch live cohorts"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    while (reports.len() as u64) < placed {
        assert!(
            Instant::now() < deadline,
            "only {} of {placed} reports arrived",
            reports.len()
        );
        reports.extend(router.poll_reports().unwrap());
        std::thread::sleep(Duration::from_millis(2));
    }
    reports.sort_by_key(|r| r.cohort);

    // Reference: the router's cohort formation is deterministic (chunks of
    // 12 in submission order, sequential ids), so rebuild each spec and
    // run it serially.
    let engine = shared_engine();
    for (i, (report, chunk)) in reports.iter().zip(sp.chunks(12)).enumerate() {
        let spec = CohortSpec::from_specimens(i as u64, config.base_seed, chunk);
        let serial = run_cohort_serial(
            &engine,
            &spec,
            config.model,
            config.session,
            config.policy(),
        );
        assert_eq!(report.cohort, i as u64);
        assert_eq!(report.outcome, serial, "cohort {i} diverged after handoff");
        for (a, b) in report.outcome.marginals.iter().zip(&serial.marginals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    router.shutdown_all().unwrap();
    server_a.join().unwrap();
    server_b.join().unwrap();
}

#[test]
fn drained_checkpoints_round_trip_byte_exactly() {
    // Every blob a drain returns re-encodes to the identical bytes after a
    // decode, and the drain accounts for every cohort. With one worker the
    // four small cohorts may all classify before the drain lands, so the
    // ledger — not "some cohort was still live" — is what is asserted; the
    // byte-exactness of SBGTCKPT itself is pinned deterministically by the
    // tamper harness in `sbgt_service::checkpoint`.
    let config = ServiceConfig {
        workers: 1,
        batch_size: 10,
        dense_threshold: 11,
        base_seed: 99,
        ..ServiceConfig::default()
    };
    let server = ShardServer::bind("127.0.0.1:0", shared_engine(), config.clone()).unwrap();
    let mut client = ShardClient::connect(server.local_addr()).unwrap();

    let sp = specimens(40, 51);
    for (i, chunk) in sp.chunks(10).enumerate() {
        let spec = CohortSpec::from_specimens(i as u64, config.base_seed, chunk);
        match client
            .call(&Request::PlaceCohort { spec, trace: None })
            .unwrap()
        {
            Response::Accepted { accepted: 1, .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let (reports, checkpoints) = match client.call(&Request::Drain).unwrap() {
        Response::Drained {
            reports,
            checkpoints,
        } => (reports, checkpoints),
        other => panic!("unexpected response: {other:?}"),
    };
    assert_eq!(
        reports.len() + checkpoints.len(),
        4,
        "every placed cohort is reported or frozen"
    );
    for blob in &checkpoints {
        let decoded = sbgt_service::CohortCheckpoint::from_bytes(blob).unwrap();
        assert_eq!(
            &decoded.to_bytes(),
            blob,
            "SBGTCKPT blob must round-trip byte-exactly"
        );
    }
    // A drained shard refuses new work with a typed error.
    match client
        .call(&Request::Submit {
            tenant: 0,
            specimens: vec![sp[0]],
            trace: None,
        })
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("drained"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }
    server.shutdown().unwrap();
}

// ---- connection-thread lifecycle ------------------------------------------

#[test]
fn concurrent_clients_each_get_their_own_responses() {
    let server = ShardServer::bind("127.0.0.1:0", shared_engine(), wire_config()).unwrap();
    let addr = server.local_addr();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for offset in 0..4 {
            let start = &start;
            scope.spawn(move || {
                let mut client = ShardClient::connect(addr).unwrap();
                start.wait();
                for i in 0..200 {
                    // Each client walks the verbs from a different phase, so
                    // the four connections ask different things at once.
                    let (request, right_type): (_, fn(&Response) -> bool) = match (i + offset) % 3 {
                        0 => (Request::Ping, |r| *r == Response::Pong),
                        1 => (Request::PollReports, |r| {
                            matches!(r, Response::Reports { .. })
                        }),
                        _ => (Request::Stats, |r| matches!(r, Response::Stats { .. })),
                    };
                    let response = client.call(&request).unwrap();
                    assert!(right_type(&response), "{request:?} got {response:?}");
                }
            });
        }
    });
    server.shutdown().unwrap();
}

#[test]
fn shutdown_wakes_idle_and_stalled_connections_with_every_thread_taken() {
    use std::io::{Read, Write};
    let server = ShardServer::bind("127.0.0.1:0", shared_engine(), wire_config()).unwrap();
    let addr = server.local_addr();

    // Every connection thread is taken: all but one by an idle connection
    // whose thread is parked in `read` (the answered ping proves a thread
    // took it), the last by a peer stalled mid-frame.
    let mut idle: Vec<ShardClient> = (1..sbgt_net::server::CONN_THREADS)
        .map(|_| {
            let mut client = ShardClient::connect(addr).unwrap();
            assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
            client
        })
        .collect();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&Request::Ping.encode()[..5]).unwrap();

    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown()));
    returned
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown returns within 1 s")
        .unwrap();

    // Joined means gone: the listener is closed and both peers see it.
    assert!(TcpStream::connect(addr).is_err(), "listener still open");
    for client in &mut idle {
        assert!(client.call(&Request::Ping).is_err());
    }
    assert!(matches!(stalled.read(&mut [0u8; 8]), Ok(0) | Err(_)));
}

#[test]
fn span_lanes_stay_bounded_by_the_thread_set_across_reconnects() {
    use sbgt_engine::obs::ObsConfig;
    let engine = SharedEngine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_obs(ObsConfig::spans()),
    );
    let server = ShardServer::bind("127.0.0.1:0", engine, wire_config()).unwrap();
    let addr = server.local_addr();

    // One connect → ping → drop cycle; the empty submit records a
    // `net:submit` span, so the serving thread registers its lane.
    let cycle = || {
        let mut client = ShardClient::connect(addr).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        let empty = Request::Submit {
            tenant: 0,
            specimens: Vec::new(),
            trace: None,
        };
        assert!(matches!(
            client.call(&empty).unwrap(),
            Response::Accepted { accepted: 0, .. }
        ));
        match client.call(&Request::Stats).unwrap() {
            Response::Stats { prometheus } => {
                let samples = sbgt_engine::obs::parse_prometheus(&prometheus).unwrap();
                let lanes = samples.iter().find(|s| s.name == "sbgt_obs_lanes");
                lanes.expect("lane gauge present").value as usize
            }
            other => panic!("unexpected response: {other:?}"),
        }
    };
    let first = cycle();
    let mut last = first;
    for _ in 1..100 {
        last = cycle();
    }
    assert!(
        last <= first + sbgt_net::server::CONN_THREADS,
        "{first} lanes after one connection, {last} after a hundred"
    );
    server.shutdown().unwrap();
}

#[test]
fn a_frame_written_one_byte_at_a_time_still_answers() {
    use std::io::{Read, Write};
    let server = ShardServer::bind("127.0.0.1:0", shared_engine(), wire_config()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    for byte in Request::Ping.encode() {
        raw.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut buf = [0u8; 64];
    let n = raw.read(&mut buf).unwrap();
    assert_eq!(Response::decode(&buf[..n]).unwrap().0, Response::Pong);
    server.shutdown().unwrap();
}
