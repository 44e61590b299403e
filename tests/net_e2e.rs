//! End-to-end tests of the TCP front-end: a live loopback server on every
//! engine, bit-identical to an offline [`ShardedService`] fed the same
//! batches, plus the backpressure escalation (`RETRY` → `SHED`) pinned at a
//! tiny queue capacity.

use pdmm::net::{frame_batch, serve, AdmissionPolicy, DrainMode, Response, ServerConfig};
use pdmm::prelude::*;
use pdmm::service::EngineService;
use pdmm::sharding::HashPartitioner;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn engines(
    kind: EngineKind,
    shards: usize,
    num_vertices: usize,
) -> Vec<Box<dyn MatchingEngine + Send>> {
    let builder = EngineBuilder::new(num_vertices).seed(7);
    (0..shards)
        .map(|_| pdmm::engine::build(kind, &builder))
        .collect()
}

/// A blocking line-oriented protocol client: send one framed batch, read one
/// response line.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { reader, writer }
    }

    fn send_raw(&mut self, text: &str) {
        self.writer.write_all(text.as_bytes()).unwrap();
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Response::parse(&line).unwrap_or_else(|| panic!("unparseable response: {line:?}"))
    }

    fn submit(&mut self, batch: &UpdateBatch) -> Response {
        self.send_raw(&frame_batch(batch));
        self.read_response()
    }
}

/// Every engine kind: drive a skewed-churn workload over a real socket into
/// a 2-shard server, and assert the served snapshot is bit-identical to an
/// offline `ShardedService` (same engines, same partitioner) fed the same
/// batches directly — served ≡ offline, journals included.
#[test]
fn served_snapshot_matches_offline_sharded_service_on_every_engine() {
    let workload = pdmm::hypergraph::streams::skewed_churn(96, 3, 60, 12, 16, 0.6, 2.0, 11);
    for kind in EngineKind::ALL {
        let offline = ShardedService::new(engines(kind, 2, workload.num_vertices));
        for batch in &workload.batches {
            offline.submit(batch.clone());
        }
        let _ = offline.drain_lossy();
        let twin = offline.snapshot();

        let live = Arc::new(ShardedService::new(engines(kind, 2, workload.num_vertices)));
        let handle = serve(Arc::clone(&live), "127.0.0.1:0", ServerConfig::default()).unwrap();

        let mut client = Client::connect(handle.local_addr());
        for batch in &workload.batches {
            let response = client.submit(batch);
            match response {
                Response::Ok { updates, .. } => assert_eq!(updates, batch.len(), "{kind:?}"),
                other => panic!("{kind:?}: expected OK under default policy, got {other}"),
            }
        }
        drop(client);
        let stats = handle.shutdown(); // joins the event loop, drains everything admitted
        assert_eq!(stats.admitted, workload.batches.len() as u64, "{kind:?}");
        assert_eq!(stats.protocol_errors, 0, "{kind:?}");

        let served = live.snapshot();
        for k in 0..served.num_shards() {
            assert_eq!(
                served.shard(k).edge_ids(),
                twin.shard(k).edge_ids(),
                "{kind:?}: shard {k}"
            );
        }
        assert_eq!(
            served.arbitrated_matching(),
            twin.arbitrated_matching(),
            "{kind:?}"
        );
        assert_eq!(
            served.committed_batches(),
            twin.committed_batches(),
            "{kind:?}"
        );
        // The journals replay both to the same state, so they must agree
        // shard by shard.
        for shard in 0..2 {
            assert_eq!(
                live.shard_journal(shard),
                offline.shard_journal(shard),
                "{kind:?}"
            );
        }
    }
}

/// The RETRY → SHED escalation at queue capacity 1, with a manual drainer so
/// queue depths are deterministic: one admission fills the queue, the next
/// `shed_after` submissions earn growing RETRY hints, everything after that
/// is SHED until a drain frees the queue again.
#[test]
fn backpressure_escalates_retry_then_shed_and_recovers() {
    let num_vertices = 32;
    let services = vec![EngineService::with_queue_capacity(
        pdmm::engine::build(
            EngineKind::Parallel,
            &EngineBuilder::new(num_vertices).seed(3),
        ),
        1,
    )];
    let service = Arc::new(ShardedService::from_services(
        services,
        Box::new(HashPartitioner),
    ));
    let policy = AdmissionPolicy {
        retry_after_ms: 2,
        shed_after: 3,
        ..AdmissionPolicy::default()
    };
    let config = ServerConfig {
        policy,
        drain: DrainMode::Manual,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.local_addr());

    let batch = |id: u64| {
        UpdateBatch::new(vec![Update::Insert(HyperEdge::pair(
            EdgeId(id),
            VertexId((2 * id) as u32 % 32),
            VertexId((2 * id + 1) as u32 % 32),
        ))])
        .unwrap()
    };

    assert!(matches!(client.submit(&batch(0)), Response::Ok { .. }));
    // Queue (capacity 1) is now full; nobody drains.
    assert_eq!(client.submit(&batch(1)), Response::Retry { after_ms: 2 });
    assert_eq!(client.submit(&batch(2)), Response::Retry { after_ms: 4 });
    assert_eq!(client.submit(&batch(3)), Response::Retry { after_ms: 6 });
    assert_eq!(client.submit(&batch(4)), Response::Shed);
    assert_eq!(client.submit(&batch(5)), Response::Shed);

    let report = handle.drain_now();
    assert_eq!(report.committed, 1);

    // The queue has room again: admission recovers and the escalation resets.
    assert!(matches!(client.submit(&batch(6)), Response::Ok { .. }));
    assert_eq!(client.submit(&batch(7)), Response::Retry { after_ms: 2 });

    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.retried, 4);
    assert_eq!(stats.shed, 2);
    assert_eq!(stats.connections, 1);
    // Shutdown flushed the second admitted batch; refused batches are gone.
    let snapshot = service.snapshot();
    assert_eq!(snapshot.committed_batches(), 2);
    assert_eq!(
        snapshot.arbitrated_matching().edge_ids(),
        vec![EdgeId(0), EdgeId(6)]
    );
}

/// Refused batches are dropped server-side: the served state contains exactly
/// the admitted batches, and replaying the journal offline reproduces it
/// bit-identically (the acceptance-criteria scenario, in miniature).
#[test]
fn shed_load_leaves_a_replayable_consistent_history() {
    let num_vertices = 64;
    let engine = || {
        pdmm::engine::build(
            EngineKind::Parallel,
            &EngineBuilder::new(num_vertices).seed(5),
        )
    };
    let service = Arc::new(ShardedService::from_services(
        vec![EngineService::with_queue_capacity(engine(), 2)],
        Box::new(HashPartitioner),
    ));
    let config = ServerConfig {
        drain: DrainMode::Manual,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.local_addr());

    let workload = pdmm::hypergraph::streams::random_churn(num_vertices, 2, 40, 24, 8, 0.6, 17);
    let mut accepted = 0u64;
    let mut refused = 0u64;
    for (i, batch) in workload.batches.iter().enumerate() {
        match client.submit(batch) {
            Response::Ok { .. } => accepted += 1,
            r if r.is_backpressure() => refused += 1,
            other => panic!("unexpected response {other}"),
        }
        // Drain every few batches so the run interleaves admission and
        // refusal instead of wedging at capacity 2 forever.
        if i % 5 == 4 {
            handle.drain_now();
        }
    }
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.admitted, accepted);
    assert_eq!(stats.retried + stats.shed, refused);
    assert!(refused > 0, "capacity 2 without a drainer must refuse work");
    assert!(accepted > 0);

    // Offline replay of the journal reproduces the served state exactly,
    // even though the accepted stream is lossy (deletions may reference shed
    // inserts — the lossy drain rejected those as typed errors, and the
    // journal records only what committed).
    let replayed = ShardedService::replay_with(
        vec![engine()],
        Box::new(HashPartitioner),
        &service.journal(),
    )
    .unwrap();
    assert_eq!(
        replayed.snapshot().arbitrated_matching(),
        service.snapshot().arbitrated_matching()
    );
    assert_eq!(
        replayed.snapshot().committed_batches(),
        service.snapshot().committed_batches()
    );
}
