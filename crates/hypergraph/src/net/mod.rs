//! TCP front-end for the sharded serving layer: newline-framed update batches
//! in, typed admission responses out.
//!
//! This module puts a wire in front of [`ShardedService`] — the end-to-end
//! client → socket → router → shards → snapshot path in the workspace.  The
//! design follows the classic router split: a thin, fast
//! classification/admission layer in front of the real engine, where overload
//! is a *typed outcome* (retry, shed) rather than a blocked connection.
//!
//! # Wire format
//!
//! Requests reuse the [`crate::io`] update-stream text format verbatim: one
//! update per line (`+ <id> <v1> ... <vk>` inserts, `- <id>` deletes), `#`
//! comment lines are skipped, and a **blank line submits** the accumulated
//! batch.  The shard-tagged `@ <shard>` framing of the journal stays internal
//! to the server — a client that sends one is told `ERR unknown operation`
//! like any other malformed line.  A connection that closes mid-batch (EOF
//! without the terminating blank line) drops the unterminated batch silently,
//! so partial writes from a dying client cannot commit.
//!
//! Every submitted batch earns exactly one response line:
//!
//! | line | meaning |
//! |---|---|
//! | `OK <updates> <sub_batches> <cross_shard>` | admitted: routed to its owner shards and queued for commit |
//! | `RETRY <after_ms>` | refused under backpressure; resend the batch after the hinted delay |
//! | `SHED` | refused and the client should back off for real — the server is saturated |
//! | `ERR <message>` | the batch was malformed; `<message>` names the offending (1-based, per-connection) line |
//!
//! `OK` is an **admission** acknowledgement, not a commit acknowledgement:
//! the batch sits in the owner shards' bounded queues until a drain commits
//! it.  Refused (`RETRY`/`SHED`) batches are *dropped server-side* — the
//! client owns retransmission.  After a parse error the connection enters a
//! poisoned state that swallows every line up to the next blank line, so one
//! bad line costs exactly the batch it belongs to and resynchronization is
//! just "start the next batch".
//!
//! # Admission control
//!
//! [`AdmissionPolicy`] decides when to refuse: a batch is bounced when the
//! queued-batch total across shards reaches `max_in_flight`, or when
//! [`ShardedService::try_submit`] itself finds some owner shard's queue full.
//! Refusals escalate per connection: the first `shed_after` consecutive
//! bounces answer `RETRY` with a linearly growing `after_ms` hint, and every
//! bounce past that answers `SHED` until an admission succeeds again.
//! Oversized batches (`max_batch_updates`) are a protocol error, not
//! backpressure: they poison like a parse error.  Admission also exists at
//! the *connection* level: past `max_connections` live connections, an
//! accepted socket is told `ERR connection limit reached` and closed.
//!
//! Admission performs the **context-free** legality check only (the per-line
//! [`BatchLedger`] machine — the same tier as [`UpdateBatch::new`]): it
//! rejects batches that are illegal in isolation without consulting engine
//! state.  The engine-context check happens exactly once, in the drain, where
//! the shard's [`MatchingEngine::validate`] mints the [`ValidatedBatch`]
//! proof discharged by the trusted kernel path — see the single-validation
//! data-flow section in `ARCHITECTURE.md`.
//!
//! [`BatchLedger`]: crate::engine::BatchLedger
//! [`MatchingEngine::validate`]: crate::engine::MatchingEngine::validate
//! [`ValidatedBatch`]: crate::engine::ValidatedBatch
//! [`UpdateBatch::new`]: crate::types::UpdateBatch::new
//! [`UpdateBatch`]: crate::types::UpdateBatch
//! [`ShardedService`]: crate::sharding::ShardedService
//! [`ShardedService::try_submit`]: crate::sharding::ShardedService::try_submit
//! [`ShardedService::drain_lossy`]: crate::sharding::ShardedService::drain_lossy
//!
//! # I/O model
//!
//! The server is readiness-driven: the listener and every connection socket
//! are non-blocking and registered with `epoll`, and one event-loop thread
//! drives *all* connections through per-connection state machines
//! (read-buffer → parse → admit → queued response → write-buffer).  Server
//! memory and thread count are independent of the connection count, and a
//! [`FairnessPolicy`] bounds how much service any one connection gets per
//! wake — one firehose client cannot monopolize admission, and a client that
//! stops draining its responses is disconnected (bounded write buffers),
//! never blocks the loop.  `epoll` is Linux-only; elsewhere [`serve`] returns
//! [`std::io::ErrorKind::Unsupported`].
//!
//! Beside the event loop, a background drainer thread
//! ([`DrainMode::Background`]) turns queued batches into commits via
//! [`ShardedService::drain_lossy`] — lossy on purpose: shedding whole batches
//! makes the surviving stream self-inconsistent (a later deletion may
//! reference a shed insert), and the lossy path converts exactly those into
//! typed per-update rejections instead of poisoning a strict drain.
//! Deterministic tests use [`DrainMode::Manual`] and call
//! [`ServerHandle::drain_now`] themselves.
//!
//! ```no_run
//! use pdmm_hypergraph::net::{serve, ServerConfig};
//! use pdmm_hypergraph::sharding::ShardedService;
//! use std::sync::Arc;
//! # fn engines() -> Vec<Box<dyn pdmm_hypergraph::engine::MatchingEngine + Send>> { vec![] }
//!
//! let service = Arc::new(ShardedService::new(engines()));
//! let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.local_addr());
//! let stats = handle.shutdown();
//! println!("{} batches admitted, {} shed", stats.admitted, stats.shed);
//! ```

// Off Linux `serve` refuses to start, so the machinery it would run is dead.
#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

mod conn;
mod protocol;
#[cfg(target_os = "linux")]
mod reactor;
mod server;

pub use protocol::{frame_batch, Response};
pub use server::{
    serve, AdmissionPolicy, DisconnectReason, DrainMode, FairnessPolicy, ServerConfig,
    ServerHandle, ServerStats,
};
