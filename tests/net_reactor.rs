//! Event-loop behavior of the TCP front-end: connection scale on a fixed
//! thread count, per-client fairness budgets, the pipelining limit,
//! slow-client and idle disconnects, connection-level admission, and
//! garbage-resilience of the event loop.  (Served ≡ offline on every engine
//! lives in `net_e2e.rs`.)

use pdmm::net::{
    frame_batch, serve, AdmissionPolicy, DrainMode, FairnessPolicy, Response, ServerConfig,
    ServerHandle, ServerStats,
};
use pdmm::prelude::*;
use pdmm::sharding::ShardedService;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service(num_vertices: usize, shards: usize) -> Arc<ShardedService> {
    let builder = EngineBuilder::new(num_vertices).seed(9);
    let engines = (0..shards)
        .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
        .collect();
    Arc::new(ShardedService::new(engines))
}

fn pair_batch(id: u64, num_vertices: u32) -> UpdateBatch {
    UpdateBatch::new(vec![Update::Insert(HyperEdge::pair(
        EdgeId(id),
        VertexId((2 * id) as u32 % num_vertices),
        VertexId((2 * id + 1) as u32 % num_vertices),
    ))])
    .unwrap()
}

fn submit(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    batch: &UpdateBatch,
) -> Response {
    stream.write_all(frame_batch(batch).as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Response::parse(&line).unwrap_or_else(|| panic!("unparseable response: {line:?}"))
}

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Polls `handle.stats()` until `predicate` holds or the deadline passes.
fn wait_for_stats(handle: &ServerHandle, predicate: impl Fn(&ServerStats) -> bool) -> ServerStats {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = handle.stats();
        if predicate(&stats) || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A byte-at-a-time sender is just a very slow client: the reactor must
/// assemble lines across arbitrarily many partial reads and answer exactly
/// as if the script had arrived in one write.
#[test]
fn byte_at_a_time_slow_sender_is_assembled_correctly() {
    let service = service(16, 2);
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut stream, mut reader) = connect(&handle);

    // Three valid batches, one garbage batch: OK, OK, ERR, OK.
    let script = "+ 1 0 1\n\n+ 2 2 3\n\nnonsense\n\n- 1\n\n";
    for byte in script.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut responses = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(Response::parse(&line).unwrap());
    }
    assert!(matches!(responses[0], Response::Ok { updates: 1, .. }));
    assert!(matches!(responses[1], Response::Ok { updates: 1, .. }));
    assert!(
        matches!(&responses[2], Response::Error { message } if message.starts_with("line 5:")),
        "{:?}",
        responses[2]
    );
    assert!(matches!(responses[3], Response::Ok { updates: 1, .. }));

    drop((stream, reader));
    let stats = handle.shutdown();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(
        service.snapshot().arbitrated_matching().edge_ids(),
        vec![EdgeId(2)]
    );
}

/// A client that stops reading mid-response must not wedge the server: it is
/// disconnected (bounded write buffer, write-stall limit) while the loop
/// keeps serving everyone else.
#[test]
fn slow_reader_is_disconnected_not_wedged() {
    let service = service(16, 1);
    let config = ServerConfig {
        fairness: FairnessPolicy {
            write_buffer_limit: 1024,
            batch_budget: 1024,
            ..FairnessPolicy::default()
        },
        write_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    // The slow client floods cheap protocol errors (each garbage frame earns
    // an ~40-byte ERR line) and never reads a single response, so kernel
    // buffers fill and the server-side write stops making progress.
    let mut slow = TcpStream::connect(handle.local_addr()).unwrap();
    slow.set_write_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let garbage = "nonsense\n\n".repeat(512); // ~5 KiB, ~20 KiB of ERRs
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if slow.write_all(garbage.as_bytes()).is_err() {
            break; // server already dropped us
        }
        if handle.stats().disconnected_slow > 0 {
            break;
        }
    }
    let stats = wait_for_stats(&handle, |stats| stats.disconnected_slow > 0);
    assert!(
        stats.disconnected_slow >= 1,
        "slow client was never disconnected: {stats:?}"
    );

    // The loop is not wedged: a well-behaved client is served.
    let (mut stream, mut reader) = connect(&handle);
    let response = submit(&mut stream, &mut reader, &pair_batch(7, 16));
    assert!(matches!(response, Response::Ok { .. }));
    drop((stream, reader, slow));
    let _ = handle.shutdown();
}

/// Idle-connection reaping: a connection that goes silent past
/// `idle_timeout` is closed by the server and counted.
#[test]
fn idle_connections_are_reaped() {
    let service = service(16, 1);
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let (mut stream, mut reader) = connect(&handle);
    // Activity first, then silence: the timer must restart on traffic.
    let response = submit(&mut stream, &mut reader, &pair_batch(1, 16));
    assert!(matches!(response, Response::Ok { .. }));

    // The server closes its side once the idle timeout passes; the client
    // observes EOF.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    let read = stream.read(&mut byte);
    assert!(
        matches!(read, Ok(0)),
        "expected EOF from idle reaping, got {read:?}"
    );
    let stats = wait_for_stats(&handle, |stats| stats.disconnected_idle > 0);
    assert_eq!(stats.disconnected_idle, 1);
    drop((stream, reader));
    let _ = handle.shutdown();
}

/// Connection-level admission: past `max_connections` live connections, an
/// accepted socket is told why and closed, and the slot frees up when a live
/// connection leaves.
#[test]
fn connection_limit_rejects_at_accept_and_recovers() {
    let service = service(16, 1);
    let config = ServerConfig {
        policy: AdmissionPolicy {
            max_connections: 2,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let first = connect(&handle);
    let second = connect(&handle);
    // Both slots taken: the third connection is rejected with one typed line,
    // then EOF.
    let rejected = TcpStream::connect(handle.local_addr()).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(rejected.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert_eq!(line.trim(), "ERR connection limit reached");
    let stats = wait_for_stats(&handle, |stats| stats.rejected_connections > 0);
    assert_eq!(stats.rejected_connections, 1);
    assert_eq!(stats.connections, 2);

    // Free one slot; a fresh connection is now admitted and served.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    let served = loop {
        let (mut stream, mut reader) = connect(&handle);
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        stream
            .write_all(frame_batch(&pair_batch(3, 16)).as_bytes())
            .unwrap();
        let mut line = String::new();
        // A probe racing the server's close of `first` is itself rejected
        // with the limit `ERR` — keep probing until one is admitted or the
        // deadline passes.
        if matches!(reader.read_line(&mut line), Ok(n) if n > 0)
            && matches!(Response::parse(&line), Some(Response::Ok { .. }))
        {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(served, "slot never freed after disconnect");
    drop((second, rejected));
    let _ = handle.shutdown();
}

/// Connection scale: 256 concurrent, mostly idle connections served by one
/// event-loop thread — every one gets its batch admitted, the server's
/// thread count stays fixed (event loop + drainer), independent of the
/// connection count, and the journal of the run replays bit-identically.
#[test]
fn many_mostly_idle_connections_on_one_event_thread() {
    let num_vertices = 1024;
    // Deep queues: all 256 batches must admit cleanly even if the drainer
    // lags the burst on a small machine.
    let builder = EngineBuilder::new(num_vertices).seed(9);
    let shards = (0..2)
        .map(|_| {
            pdmm::service::EngineService::with_queue_capacity(
                pdmm::engine::build(EngineKind::Parallel, &builder),
                512,
            )
        })
        .collect();
    let service = Arc::new(ShardedService::from_services(
        shards,
        Box::new(pdmm::sharding::HashPartitioner),
    ));
    let config = ServerConfig {
        policy: AdmissionPolicy {
            max_in_flight: 1024,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let mut clients = Vec::new();
    for _ in 0..256 {
        clients.push(connect(&handle));
    }
    // Every connection submits exactly one batch; the rest of the time it
    // idles.  Interleave the submissions so many are in flight at once.
    for (id, (stream, _)) in clients.iter_mut().enumerate() {
        stream
            .write_all(frame_batch(&pair_batch(id as u64, num_vertices as u32)).as_bytes())
            .unwrap();
    }
    for (id, (_, reader)) in clients.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = Response::parse(&line).unwrap();
        assert!(
            matches!(response, Response::Ok { updates: 1, .. }),
            "connection {id}: {response}"
        );
    }

    let stats = handle.stats();
    assert_eq!(stats.connections, 256);
    assert_eq!(stats.peak_connections, 256);
    assert_eq!(stats.admitted, 256);
    // One event-loop thread + one background drainer — the whole point.
    assert_eq!(stats.worker_threads, 2);

    drop(clients);
    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(service.snapshot().committed_batches(), 256);

    // Replaying the served journal onto fresh engines reproduces the matched
    // edges and the arbitrated matching exactly.
    let engines = (0..2)
        .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
        .collect();
    let replayed = ShardedService::replay_with(
        engines,
        Box::new(pdmm::sharding::HashPartitioner),
        &service.journal(),
    )
    .unwrap();
    let (served, twin) = (service.snapshot(), replayed.snapshot());
    for k in 0..2 {
        assert_eq!(twin.shard(k).edge_ids(), served.shard(k).edge_ids());
    }
    assert_eq!(twin.arbitrated_matching(), served.arbitrated_matching());
}

/// The pipelining limit: with `max_pipeline = 1` and a manual drainer, a
/// client that writes three batches up front gets exactly one admission per
/// drain — the connection is paused (not read) between drains, so admission
/// is coupled to the commit rate.
#[test]
fn pipelining_limit_paces_admissions_to_drains() {
    let service = service(16, 1);
    let config = ServerConfig {
        fairness: FairnessPolicy {
            max_pipeline: 1,
            ..FairnessPolicy::default()
        },
        drain: DrainMode::Manual,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let (mut stream, mut reader) = connect(&handle);

    let mut script = String::new();
    for id in 0..3u64 {
        script.push_str(&frame_batch(&pair_batch(id, 16)));
    }
    stream.write_all(script.as_bytes()).unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(Response::parse(&line), Some(Response::Ok { .. })));

    // The second batch is already in the server's buffers, but the window is
    // exhausted: no second response may arrive until a drain happens.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut byte = [0u8; 1];
    let starved = stream.read(&mut byte);
    assert!(
        matches!(&starved, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "expected no response before the drain, got {starved:?}"
    );
    assert_eq!(handle.stats().admitted, 1);

    for expected in 2..=3u64 {
        let report = handle.drain_now();
        assert!(report.committed >= 1);
        let stats = wait_for_stats(&handle, |stats| stats.admitted >= expected);
        assert_eq!(stats.admitted, expected);
    }

    // All three responses are on the wire now.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(Response::parse(&line), Some(Response::Ok { .. })));
    }
    drop((stream, reader));
    let _ = handle.shutdown();
}

/// Fairness pin: while one firehose connection saturates the server with
/// pipelined batches, a trickle connection submitting one batch at a time
/// still sees bounded response latency — the per-wake budgets force
/// round-robin service instead of letting the firehose monopolize the loop.
#[test]
fn trickle_latency_stays_bounded_under_a_firehose() {
    let num_vertices = 4096;
    let service = service(num_vertices, 2);
    let config = ServerConfig {
        policy: AdmissionPolicy {
            max_in_flight: usize::MAX,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let firehose_stream = TcpStream::connect(handle.local_addr()).unwrap();
    // Kept to cut the firehose off at the end: a write blocked on the
    // server's backlog would otherwise hold the join until that backlog
    // drains.
    let firehose_socket = firehose_stream.try_clone().unwrap();
    let firehose = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut stream = firehose_stream;
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let reader_stop = Arc::clone(&stop);
            let drain = std::thread::spawn(move || {
                let mut line = String::new();
                while !reader_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
            });
            // Pipeline aggressively: many frames per write, never waiting.
            let mut id = 1u64 << 32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut burst = String::new();
                for _ in 0..64 {
                    burst.push_str(&frame_batch(&pair_batch(id, num_vertices as u32)));
                    id += 1;
                }
                if stream.write_all(burst.as_bytes()).is_err() {
                    break;
                }
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = drain.join();
        })
    };

    // Let the firehose saturate first, then measure the trickle.
    std::thread::sleep(Duration::from_millis(100));
    let (mut stream, mut reader) = connect(&handle);
    let mut latencies = Vec::new();
    for id in 0..30u64 {
        let start = Instant::now();
        let response = submit(
            &mut stream,
            &mut reader,
            &pair_batch(id, num_vertices as u32),
        );
        assert!(
            !matches!(response, Response::Error { .. }),
            "trickle got a protocol error: {response}"
        );
        latencies.push(start.elapsed());
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = firehose_socket.shutdown(std::net::Shutdown::Both);
    firehose.join().unwrap();

    latencies.sort();
    let p99 = latencies[latencies.len() - 1]; // max of 30 samples ≈ p99
    assert!(
        p99 < Duration::from_millis(500),
        "trickle starved under the firehose: max latency {p99:?} of {latencies:?}"
    );
    drop((stream, reader));
    let _ = handle.shutdown();
}

/// Garbage and truncation against the reactor with deliberately tiny budgets
/// (so the budget/backlog paths are exercised): the loop never panics, a
/// truncated batch never commits, and the server keeps serving afterwards.
#[test]
fn garbage_and_truncated_frames_never_panic_the_loop() {
    let service = service(64, 2);
    let config = ServerConfig {
        fairness: FairnessPolicy {
            read_budget_bytes: 64,
            batch_budget: 2,
            ..FairnessPolicy::default()
        },
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for case in 0..24 {
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut garbage = Vec::new();
        for _ in 0..(next() % 400 + 20) {
            let byte = (next() % 256) as u8;
            garbage.push(if byte == 0 { b'\n' } else { byte });
        }
        stream.write_all(&garbage).unwrap();
        if case % 2 == 0 {
            // Truncation: die mid-frame without the terminating blank line.
            stream
                .write_all(b"\n\n+ 9999999 1 2") // resync, then truncated insert
                .unwrap();
            drop(stream);
        } else {
            // Resync, then prove the connection still works: the sentinel
            // batch must be admitted.
            stream.write_all(b"\n\n+ 424242 4 5\n\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let ok = loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break false;
                }
                match Response::parse(&line) {
                    Some(Response::Ok { updates: 1, .. }) => break true,
                    Some(_) => {}
                    None => break false,
                }
            };
            assert!(ok, "case {case}: sentinel batch was not admitted");
            // Clean up the sentinel so the next case can reuse the id.
            let mut line = String::new();
            stream.write_all(b"- 424242\n\n").unwrap();
            reader.read_line(&mut line).unwrap();
            drop(stream);
        }
    }
    let stats = handle.shutdown();
    // The truncated inserts (edge 9999999) must never have committed.
    let snapshot = service.snapshot();
    assert!((0..snapshot.num_shards()).all(|k| !snapshot.shard(k).contains_edge(EdgeId(9_999_999))));
    assert!(stats.protocol_errors > 0, "garbage produced no ERRs?");
}
