//! Server assembly: configuration, shared state, statistics, the background
//! drainer, and the [`ServerHandle`] lifecycle around the event loop.

use crate::sharding::{ShardedIngestReport, ShardedService};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Admission policy and server configuration
// ---------------------------------------------------------------------------

/// When the server refuses work, and how it says so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Bounce a batch when this many batches are already queued across all
    /// shards (checked before routing, on top of the per-shard queue
    /// capacities [`ShardedService::try_submit`] enforces).
    pub max_in_flight: usize,
    /// Maximum updates one batch may carry; exceeding it is a protocol error
    /// (`ERR`), not backpressure.
    pub max_batch_updates: usize,
    /// Base retry hint in milliseconds; the `RETRY` hint grows linearly with
    /// the connection's consecutive-bounce count.
    pub retry_after_ms: u64,
    /// Consecutive bounces answered `RETRY` before escalating to `SHED`.
    pub shed_after: u32,
    /// Connection-level admission: past this many live connections a freshly
    /// accepted socket is told `ERR connection limit reached`, closed, and
    /// counted in [`ServerStats::rejected_connections`].  Effectively
    /// unlimited by default.
    pub max_connections: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_in_flight: 256,
            max_batch_updates: 4096,
            retry_after_ms: 2,
            shed_after: 3,
            max_connections: usize::MAX,
        }
    }
}

/// Per-connection service budgets of the event loop: how much attention any
/// single connection can claim before the loop moves on, and how much memory
/// it may pin.
///
/// The budgets are what makes one firehose connection unable to monopolize
/// admission: each event-loop wake services ready connections round-robin,
/// and a connection that exhausts its per-wake byte or batch budget simply
/// waits for the next pass while its peers get served.  The pipelining limit
/// couples a connection's admission rate to the drain rate: past
/// `max_pipeline` admitted-but-undrained batches the connection is paused
/// (its socket stops being read, so TCP backpressure reaches the client)
/// until the next drain completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessPolicy {
    /// Maximum batches one connection may have admitted since the last drain
    /// before it is paused (read interest dropped) until the next drain.
    pub max_pipeline: usize,
    /// Maximum bytes read from one connection per event-loop wake.
    pub read_budget_bytes: usize,
    /// Maximum admission decisions (`OK`/`RETRY`/`SHED`/`ERR` responses) one
    /// connection receives per event-loop wake.
    pub batch_budget: usize,
    /// Maximum bytes of queued-but-unsent responses per connection; a client
    /// that lets its responses pile past this is disconnected
    /// ([`ServerStats::disconnected_slow`]) rather than allowed to wedge the
    /// loop or pin unbounded memory.
    pub write_buffer_limit: usize,
    /// Maximum length of a single request line; a connection streaming a
    /// longer newline-free run is disconnected (resource protection — the
    /// line parser would otherwise have to buffer it whole).
    pub max_line_bytes: usize,
}

impl Default for FairnessPolicy {
    fn default() -> Self {
        FairnessPolicy {
            max_pipeline: 64,
            read_budget_bytes: 64 * 1024,
            batch_budget: 32,
            write_buffer_limit: 256 * 1024,
            max_line_bytes: 1024 * 1024,
        }
    }
}

/// Who turns queued batches into commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainMode {
    /// A dedicated server thread drains continuously (kicked on every
    /// admission, with a timed fallback).  The default.
    #[default]
    Background,
    /// Nobody: the test (or embedding application) calls
    /// [`ServerHandle::drain_now`] when it wants commits to happen —
    /// deterministic queue depths for backpressure tests.  Whatever is still
    /// queued at [`ServerHandle::shutdown`] is drained then.
    Manual,
}

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The admission policy.
    pub policy: AdmissionPolicy,
    /// Per-connection fairness budgets.
    pub fairness: FairnessPolicy,
    /// Who drains (see [`DrainMode`]).
    pub drain: DrainMode,
    /// Disconnect a connection that has shown no socket activity for this
    /// long ([`ServerStats::disconnected_idle`]).  `None` (the default)
    /// never reaps idle connections.
    pub idle_timeout: Option<Duration>,
    /// The event loop's write-stall limit: the longest a non-empty write
    /// buffer may sit without the client accepting a single byte before the
    /// connection is declared slow and disconnected
    /// ([`ServerStats::disconnected_slow`]).  `None` never times a write out
    /// (the bounded write buffer still applies).
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            policy: AdmissionPolicy::default(),
            fairness: FairnessPolicy::default(),
            drain: DrainMode::Background,
            idle_timeout: None,
            write_timeout: Some(Duration::from_secs(2)),
        }
    }
}

/// Why the server closed a connection on its own initiative (used for
/// statistics; the client just observes EOF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// The client stopped draining its responses: the bounded write buffer
    /// overflowed, the write stalled past [`ServerConfig::write_timeout`],
    /// or a single line exceeded [`FairnessPolicy::max_line_bytes`].
    SlowClient,
    /// No socket activity for [`ServerConfig::idle_timeout`].
    IdleTimeout,
}

// ---------------------------------------------------------------------------
// Server statistics
// ---------------------------------------------------------------------------

/// A point-in-time copy of the server's counters (all monotonic except the
/// configuration-derived `worker_threads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted and served (rejected connections are counted in
    /// [`ServerStats::rejected_connections`] instead).
    pub connections: u64,
    /// Batches admitted (`OK`).
    pub admitted: u64,
    /// Batches bounced with `RETRY`.
    pub retried: u64,
    /// Batches bounced with `SHED`.
    pub shed: u64,
    /// Batches discarded with `ERR` (parse, batch-validation, or size-cap
    /// errors).
    pub protocol_errors: u64,
    /// Sub-batches committed by drains the server ran.
    pub committed_batches: u64,
    /// Exact-duplicate updates silently dropped by lossy drains.
    pub deduplicated_updates: u64,
    /// Updates rejected with typed errors by lossy drains (e.g. a deletion
    /// referencing a shed insert).
    pub rejected_updates: u64,
    /// Conflicted vertices resolved by boundary-arbitration passes across
    /// drains the server ran (see
    /// [`crate::sharding::ArbitrationReport`]).
    pub arbitration_conflicts: u64,
    /// Matched edges evicted by arbitration award passes.
    pub arbitration_evicted: u64,
    /// Matched edges added back by arbitration repair waves.
    pub arbitration_repaired: u64,
    /// Connections the server closed because the client stopped draining
    /// responses (bounded write buffer, write stall/timeout, oversized
    /// line).
    pub disconnected_slow: u64,
    /// Connections reaped after [`ServerConfig::idle_timeout`] of silence.
    pub disconnected_idle: u64,
    /// Connections refused at accept time because
    /// [`AdmissionPolicy::max_connections`] live connections already existed
    /// (the socket is told `ERR connection limit reached` and closed).
    pub rejected_connections: u64,
    /// OS threads the server dedicates to serving: the event loop, plus the
    /// drainer under [`DrainMode::Background`] — fixed at startup,
    /// *independent of the connection count*.
    pub worker_threads: u64,
    /// Peak simultaneously live connections.
    pub peak_connections: u64,
    /// Peak total bytes of per-connection user-space buffering observed (a
    /// memory proxy: the read and write buffer capacities of every live
    /// connection, sampled on the event loop's tick).
    pub peak_buffer_bytes: u64,
}

#[derive(Debug, Default)]
pub(super) struct AtomicStats {
    pub(super) connections: AtomicU64,
    pub(super) admitted: AtomicU64,
    pub(super) retried: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) protocol_errors: AtomicU64,
    pub(super) committed_batches: AtomicU64,
    pub(super) deduplicated_updates: AtomicU64,
    pub(super) rejected_updates: AtomicU64,
    pub(super) arbitration_conflicts: AtomicU64,
    pub(super) arbitration_evicted: AtomicU64,
    pub(super) arbitration_repaired: AtomicU64,
    pub(super) disconnected_slow: AtomicU64,
    pub(super) disconnected_idle: AtomicU64,
    pub(super) rejected_connections: AtomicU64,
    pub(super) worker_threads: AtomicU64,
    pub(super) peak_connections: AtomicU64,
    pub(super) peak_buffer_bytes: AtomicU64,
}

// ---------------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------------

/// State shared by the event loop, the drainer and the handle.
pub(super) struct Shared {
    pub(super) service: Arc<ShardedService>,
    pub(super) config: ServerConfig,
    pub(super) stats: AtomicStats,
    pub(super) stop: AtomicBool,
    /// Completed-drain counter: bumped by every drain (background or
    /// manual).  The event loop uses it to reset per-connection pipelining
    /// windows — a paused connection resumes when the generation moves.
    pub(super) drain_gen: AtomicU64,
    /// Live-connection gauge backing `max_connections` and
    /// `peak_connections`.
    live_connections: AtomicU64,
    /// Generation counter + condvar kicking the background drainer out of its
    /// timed wait as soon as a batch is admitted.
    wake: Mutex<u64>,
    wake_cv: Condvar,
}

impl Shared {
    pub(super) fn kick_drainer(&self) {
        let mut generation = self.wake.lock().expect("wake lock");
        *generation += 1;
        self.wake_cv.notify_one();
    }

    pub(super) fn absorb(&self, report: &ShardedIngestReport) {
        let ordering = Ordering::Relaxed;
        self.stats
            .committed_batches
            .fetch_add(report.committed as u64, ordering);
        self.stats
            .deduplicated_updates
            .fetch_add(report.deduplicated as u64, ordering);
        self.stats
            .rejected_updates
            .fetch_add(report.rejected as u64, ordering);
        let arbitration = report.arbitration.stats;
        self.stats
            .arbitration_conflicts
            .fetch_add(arbitration.conflicted_vertices as u64, ordering);
        self.stats
            .arbitration_evicted
            .fetch_add(arbitration.evicted_edges as u64, ordering);
        self.stats
            .arbitration_repaired
            .fetch_add(arbitration.repaired_edges as u64, ordering);
        // Every completed drain opens a fresh pipelining window.
        self.drain_gen.fetch_add(1, ordering);
    }

    /// Connection-level admission: claims a live-connection slot, or reports
    /// that the limit is reached (the caller then rejects the socket).
    pub(super) fn try_accept_connection(&self) -> bool {
        let limit = self.config.policy.max_connections as u64;
        let mut live = self.live_connections.load(Ordering::Relaxed);
        loop {
            if live >= limit {
                return false;
            }
            match self.live_connections.compare_exchange_weak(
                live,
                live + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => live = actual,
            }
        }
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.stats
            .peak_connections
            .fetch_max(live + 1, Ordering::Relaxed);
        true
    }

    /// Releases a live-connection slot claimed by
    /// [`Shared::try_accept_connection`].
    pub(super) fn connection_closed(&self) {
        self.live_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Rejects a just-accepted socket over the connection limit: counts it,
    /// tells the client why (best effort), closes it.
    pub(super) fn reject_connection(&self, stream: TcpStream) {
        self.stats
            .rejected_connections
            .fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
        let mut stream = stream;
        let _ = stream.write_all(b"ERR connection limit reached\n");
    }

    /// Counts a server-initiated disconnect.
    pub(super) fn note_disconnect(&self, reason: DisconnectReason) {
        let counter = match reason {
            DisconnectReason::SlowClient => &self.stats.disconnected_slow,
            DisconnectReason::IdleTimeout => &self.stats.disconnected_idle,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn record_peak_buffer_bytes(&self, total: u64) {
        self.stats
            .peak_buffer_bytes
            .fetch_max(total, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The server handle
// ---------------------------------------------------------------------------

/// A running server.  Dropping the handle shuts the server down (prefer
/// [`ServerHandle::shutdown`] to also read the final counters).
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    drainer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The sharded service behind the server — the read path: snapshots,
    /// journals and replay work exactly as without the wire.
    #[must_use]
    pub fn service(&self) -> &Arc<ShardedService> {
        &self.shared.service
    }

    /// A point-in-time copy of the server counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let ordering = Ordering::Relaxed;
        let stats = &self.shared.stats;
        ServerStats {
            connections: stats.connections.load(ordering),
            admitted: stats.admitted.load(ordering),
            retried: stats.retried.load(ordering),
            shed: stats.shed.load(ordering),
            protocol_errors: stats.protocol_errors.load(ordering),
            committed_batches: stats.committed_batches.load(ordering),
            deduplicated_updates: stats.deduplicated_updates.load(ordering),
            rejected_updates: stats.rejected_updates.load(ordering),
            arbitration_conflicts: stats.arbitration_conflicts.load(ordering),
            arbitration_evicted: stats.arbitration_evicted.load(ordering),
            arbitration_repaired: stats.arbitration_repaired.load(ordering),
            disconnected_slow: stats.disconnected_slow.load(ordering),
            disconnected_idle: stats.disconnected_idle.load(ordering),
            rejected_connections: stats.rejected_connections.load(ordering),
            worker_threads: stats.worker_threads.load(ordering),
            peak_connections: stats.peak_connections.load(ordering),
            peak_buffer_bytes: stats.peak_buffer_bytes.load(ordering),
        }
    }

    /// Drains everything currently queued (lossily, like the background
    /// drainer) and returns the merged report.  The companion of
    /// [`DrainMode::Manual`]; safe — if pointless — alongside a background
    /// drainer.
    pub fn drain_now(&self) -> ShardedIngestReport {
        let report = self.shared.service.drain_lossy();
        self.shared.absorb(&report);
        report
    }

    /// Stops accepting, joins the event loop, drains whatever was admitted,
    /// and returns the final counters.
    /// Idempotent via `Drop` — calling this is just the version that hands
    /// the counters back.
    #[must_use = "the final counters are the server's summary; drop the handle to discard them"]
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The event loop polls with a timeout and observes `stop` on its own.
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        self.shared.kick_drainer();
        if let Some(drainer) = self.drainer.take() {
            let _ = drainer.join();
        } else {
            // Manual mode: flush what was admitted so the post-shutdown
            // snapshot reflects every `OK` the server sent.
            let report = self.shared.service.drain_lossy();
            self.shared.absorb(&report);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// serve(): bind, then start the event loop and the drainer
// ---------------------------------------------------------------------------

/// Binds `addr` and serves `service` over it until the returned handle is
/// shut down (or dropped).
///
/// # Errors
///
/// Returns the bind/spawn error if the listener or the server threads cannot
/// be created.  Off Linux, where there is no `epoll` for the event loop,
/// always returns a [`std::io::ErrorKind::Unsupported`] error.
pub fn serve(
    service: Arc<ShardedService>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (service, addr, config);
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "pdmm::net serves through epoll, which only Linux has",
        ));
    }
    #[cfg(target_os = "linux")]
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let drain = config.drain;
        let shared = Arc::new(Shared {
            service,
            config,
            stats: AtomicStats::default(),
            stop: AtomicBool::new(false),
            drain_gen: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
        });
        let drainer_threads = u64::from(drain == DrainMode::Background);
        shared
            .stats
            .worker_threads
            .store(1 + drainer_threads, Ordering::Relaxed);
        let event_loop = super::reactor::spawn_event_loop(Arc::clone(&shared), listener)?;

        let drainer = match drain {
            DrainMode::Background => {
                let drain_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("pdmm-net-drain".into())
                        .spawn(move || run_drainer(&drain_shared))?,
                )
            }
            DrainMode::Manual => None,
        };

        Ok(ServerHandle {
            shared,
            local_addr,
            event_loop: Some(event_loop),
            drainer,
        })
    }
}

/// The background drainer: commit whatever is queued, then sleep until the
/// next admission kicks the condvar (or a timed fallback fires).  On
/// shutdown it keeps draining until the queues are empty, so every admitted
/// batch commits before [`ServerHandle::shutdown`] returns.
fn run_drainer(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let report = shared.service.drain_lossy();
        shared.absorb(&report);
        if shared.stop.load(Ordering::Acquire) {
            if shared.service.queue_len() == 0 {
                break;
            }
            continue;
        }
        let generation = shared.wake.lock().expect("wake lock");
        if *generation == seen {
            let (generation, _timeout) = shared
                .wake_cv
                .wait_timeout(generation, Duration::from_millis(20))
                .expect("wake lock");
            seen = *generation;
        } else {
            seen = *generation;
        }
    }
}
