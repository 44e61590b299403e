//! Protocol-level tests of the TCP front-end: malformed, truncated and
//! interleaved frames must never panic the server, `ERR` responses must name
//! the offending per-connection line, and the journal's `@ <shard>` framing
//! must stay internal to the server.

use pdmm::net::{serve, DrainMode, Response, ServerConfig, ServerHandle};
use pdmm::prelude::*;
use pdmm::service::EngineService;
use pdmm::sharding::HashPartitioner;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// A small single-shard server with a manual drainer, so queue depths (and
/// therefore responses) are fully deterministic.
fn server(queue_capacity: usize) -> ServerHandle {
    let engine = pdmm::engine::build(EngineKind::NaiveSequential, &EngineBuilder::new(16).seed(1));
    let service = Arc::new(ShardedService::from_services(
        vec![EngineService::with_queue_capacity(engine, queue_capacity)],
        Box::new(HashPartitioner),
    ));
    let config = ServerConfig {
        drain: DrainMode::Manual,
        ..ServerConfig::default()
    };
    serve(service, "127.0.0.1:0", config).unwrap()
}

/// Reads every response line until the server closes the connection.
fn read_all_responses(stream: TcpStream) -> Vec<String> {
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            return lines;
        }
        lines.push(line.trim().to_string());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary garbage — valid lines, journal framing, printable junk, raw
    /// non-UTF-8 bytes, stray blanks — never kills the connection: every
    /// response stays parseable and a sentinel batch submitted after a resync
    /// is still admitted.
    #[test]
    fn prop_garbage_never_panics_the_server(seed in 0u64..1_000_000) {
        let handle = server(64);
        let service = Arc::clone(handle.service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let mut garbage: Vec<u8> = Vec::new();
        for _ in 0..(1 + next() % 24) {
            match next() % 6 {
                0 => garbage.extend_from_slice(b"+ 1 2 3\n"),
                1 => garbage.extend_from_slice(b"- 3\n"),
                2 => garbage.extend_from_slice(b"@ 0\n"), // journal-internal framing
                3 => garbage.push(b'\n'),
                4 => {
                    for _ in 0..next() % 12 {
                        garbage.push(32 + (next() % 95) as u8);
                    }
                    garbage.push(b'\n');
                }
                _ => {
                    for _ in 0..(1 + next() % 8) {
                        let byte = (next() % 256) as u8;
                        garbage.push(if byte == b'\n' { 0xFF } else { byte });
                    }
                    garbage.push(b'\n');
                }
            }
        }
        stream.write_all(&garbage).unwrap();
        // Resynchronize (flushes or un-poisons whatever the garbage left
        // half-built) and submit a well-formed sentinel batch.
        stream.write_all(b"\n\n+ 424242 4 5\n\n").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();

        let lines = read_all_responses(stream);
        let responses: Vec<Response> = lines
            .iter()
            .map(|l| Response::parse(l).unwrap_or_else(|| panic!("unparseable response {l:?}")))
            .collect();
        prop_assert!(!responses.is_empty());
        prop_assert_eq!(
            responses.last().unwrap(),
            &Response::Ok { updates: 1, sub_batches: 1, cross_shard: 0 }
        );
        // The server survives a full drain of whatever was admitted, too.
        let _ = handle.drain_now();
        prop_assert!(service.queue_len() == 0);
    }
}

/// A batch truncated by connection loss (no terminating blank line) earns no
/// response and never commits.
#[test]
fn truncated_batch_never_commits() {
    let handle = server(8);
    let service = Arc::clone(handle.service());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(b"+ 7 1 2\n+ 8 3 4\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no blank line, no response: {rest:?}");

    let stats = handle.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(service.snapshot().committed_batches(), 0);
    assert!(service.snapshot().arbitrated_matching().is_empty());
}

/// Interleaving valid batches with malformed ones: the `ERR` names the
/// offending 1-based per-connection line, the rest of the poisoned batch is
/// swallowed, and the next blank line fully resynchronizes the stream.
#[test]
fn err_names_the_offending_line_and_resyncs() {
    let handle = server(8);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let input = concat!(
        "+ 1 0 1\n", // line 1
        "\n",        // line 2: submits -> OK
        "# note\n",  // line 3: comment
        "+ 2 x y\n", // line 4: malformed vertex id -> ERR, poisons
        "- 9\n",     // line 5: swallowed
        "\n",        // line 6: resync, no response
        "@ 0\n",     // line 7: journal framing is not client vocabulary -> ERR
        "\n",        // line 8: resync
        "+ 3 2 3\n", // line 9
        "+ 3 2 3\n", // line 10: repeated update in one batch -> ERR
        "\n",        // line 11: resync
        "+ 4 4 5\n", // line 12
        "\n",        // line 13: submits -> OK
    );
    stream.write_all(input.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let lines = read_all_responses(stream);
    assert_eq!(lines.len(), 5, "{lines:?}");
    for ok in [&lines[0], &lines[4]] {
        assert_eq!(
            Response::parse(ok),
            Some(Response::Ok {
                updates: 1,
                sub_batches: 1,
                cross_shard: 0
            })
        );
    }
    for (response, line) in [(&lines[1], 4), (&lines[2], 7), (&lines[3], 10)] {
        match Response::parse(response) {
            Some(Response::Error { message }) => assert!(
                message.starts_with(&format!("line {line}:")),
                "expected line {line} in {message:?}"
            ),
            other => panic!("expected ERR, got {other:?}"),
        }
    }
    // `@` specifically is rejected as an unknown operation.
    assert!(lines[2].contains("unknown operation `@`"), "{:?}", lines[2]);

    let probe = TcpStream::connect(handle.local_addr()).unwrap();
    probe.shutdown(Shutdown::Write).unwrap();
    let response = read_all_responses(probe);
    assert!(response.is_empty());
    let stats = handle.shutdown();
    assert_eq!(stats.admitted, 2, "poisoned batches must not commit");
    assert_eq!(stats.protocol_errors, 3);
}

/// An oversized batch is a protocol error (poison), not backpressure.
#[test]
fn oversized_batch_is_a_protocol_error() {
    let engine = pdmm::engine::build(EngineKind::NaiveSequential, &EngineBuilder::new(16).seed(1));
    let service = Arc::new(ShardedService::from_services(
        vec![EngineService::new(engine)],
        Box::new(HashPartitioner),
    ));
    let config = ServerConfig {
        policy: pdmm::net::AdmissionPolicy {
            max_batch_updates: 3,
            ..Default::default()
        },
        drain: DrainMode::Manual,
        ..ServerConfig::default()
    };
    let handle = serve(service, "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut input = String::new();
    for id in 0..5 {
        input.push_str(&format!("+ {id} {} {}\n", 2 * id % 16, (2 * id + 1) % 16));
    }
    input.push('\n');
    stream.write_all(input.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let lines = read_all_responses(stream);
    assert_eq!(lines.len(), 1, "{lines:?}");
    match Response::parse(&lines[0]) {
        Some(Response::Error { message }) => {
            assert!(
                message.starts_with("line 4:") && message.contains("max_batch_updates"),
                "{message:?}"
            );
        }
        other => panic!("expected ERR, got {other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.retried + stats.shed, 0);
    assert_eq!(stats.protocol_errors, 1);
}
