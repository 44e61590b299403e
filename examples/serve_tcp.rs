//! Serving a matching over TCP: start a [`pdmm::net`] server on loopback,
//! speak the update-stream protocol over a real socket, and watch admission
//! control answer.
//!
//! ```text
//! cargo run --release --example serve_tcp
//! ```
//!
//! A batch is newline-framed update lines terminated by a blank line; the
//! server answers one line per batch: `OK <updates> <sub_batches>
//! <cross_shard>` on admission, `RETRY <hint_ms>` / `SHED` under backpressure,
//! `ERR <message>` on malformed input.

use pdmm::net::{frame_batch, serve, Response, ServerConfig};
use pdmm::prelude::*;
use pdmm::service::EngineService;
use pdmm::sharding::HashPartitioner;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // Two shards, each a full engine + service; the router splits batches.
    let num_vertices = 512;
    let services = (0..2)
        .map(|_| {
            let builder = EngineBuilder::new(num_vertices).seed(7);
            EngineService::new(pdmm::engine::build(EngineKind::Parallel, &builder))
        })
        .collect();
    let service = Arc::new(ShardedService::from_services(
        services,
        Box::new(HashPartitioner),
    ));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())?;
    println!("serving on {}", handle.local_addr());

    // A client: one socket, a churny workload from the stream generators.
    let stream = TcpStream::connect(handle.local_addr())?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let workload = pdmm::hypergraph::streams::skewed_churn(
        num_vertices,
        2,   // rank
        64,  // initial edges
        8,   // churn batches
        16,  // updates per batch
        0.6, // insert fraction
        1.5, // skew
        42,  // seed
    );
    for batch in &workload.batches {
        writer.write_all(frame_batch(batch).as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let response = Response::parse(&line).expect("server speaks the protocol");
        println!("batch of {:>2} -> {response}", batch.len());
        assert!(
            !response.is_backpressure(),
            "default queues never fill at this pace"
        );
    }
    drop(writer);

    // Shutdown drains every admitted batch, then the snapshot is final.
    let stats = handle.shutdown();
    let snapshot = service.snapshot();
    println!(
        "admitted {} batch(es) on {} connection(s), committed {}, matching size {}",
        stats.admitted,
        stats.connections,
        snapshot.committed_batches(),
        snapshot.arbitrated_matching().size()
    );

    // The journal replays onto fresh engines, bit-identically.
    let engines = (0..2)
        .map(|_| {
            let builder = EngineBuilder::new(num_vertices).seed(7);
            pdmm::engine::build(EngineKind::Parallel, &builder)
        })
        .collect();
    let replayed = ShardedService::replay(engines, &service.journal()).expect("journal replays");
    for k in 0..2 {
        assert_eq!(replayed.shard_state(k), service.shard_state(k));
    }
    assert_eq!(
        replayed.snapshot().arbitrated_matching(),
        snapshot.arbitrated_matching()
    );
    println!("replayed the journal: shard states and arbitrated matching identical");
    Ok(())
}
