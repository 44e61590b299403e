//! The per-connection protocol state machine.
//!
//! [`ConnState`] is pure protocol: it consumes one received line at a time
//! (already stripped of its newline) and occasionally produces a
//! [`Response`] to send back.  It owns the batch being accumulated, the
//! per-line context-free validation ledger, the 1-based line counter `ERR`
//! messages refer to, the post-error poisoned mode, and the per-connection
//! RETRY → SHED escalation.  It does no I/O at all: the event loop owns the
//! socket and its buffers, cuts lines out of what it reads, and queues the
//! responses for writing.

use super::protocol::Response;
use super::server::Shared;
use crate::engine::BatchLedger;
use crate::io::{check_and_push, parse_update};
use crate::types::{Update, UpdateBatch};
use std::sync::atomic::Ordering;

/// Per-connection protocol state.
pub(super) struct ConnState {
    /// Updates of the batch being accumulated.
    current: Vec<Update>,
    /// The per-line batch-validation machine (same one `io` parsing uses).
    ledger: BatchLedger,
    /// 1-based count of lines received on this connection (including
    /// comments and blanks) — what `ERR line <n>:` refers to.
    pub(super) lineno: usize,
    /// After an `ERR`: swallow lines until the next blank line.
    poisoned: bool,
    /// Consecutive admission bounces, driving the RETRY → SHED escalation.
    consecutive_bounces: u32,
}

impl ConnState {
    pub(super) fn new() -> Self {
        ConnState {
            current: Vec::new(),
            ledger: BatchLedger::new(),
            lineno: 0,
            poisoned: false,
            consecutive_bounces: 0,
        }
    }

    fn reset_batch(&mut self) {
        self.current.clear();
        self.ledger = BatchLedger::new();
    }

    /// Discards the current batch, enters poisoned mode, and builds the `ERR`
    /// response.
    fn poison(&mut self, shared: &Shared, message: String) -> Response {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.poisoned = true;
        self.reset_batch();
        Response::Error { message }
    }

    /// Runs the admission decision for one complete batch.
    fn admit(&mut self, batch: UpdateBatch, shared: &Shared) -> Response {
        let bounced = if shared.service.queue_len() >= shared.config.policy.max_in_flight {
            true
        } else {
            match shared.service.try_submit(batch) {
                Ok(report) => {
                    self.consecutive_bounces = 0;
                    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                    shared.kick_drainer();
                    return Response::Ok {
                        updates: report.routed(),
                        sub_batches: report.sub_batches(),
                        cross_shard: report.cross_shard,
                    };
                }
                Err(_bounced_batch) => true,
            }
        };
        debug_assert!(bounced);
        self.consecutive_bounces += 1;
        if self.consecutive_bounces <= shared.config.policy.shed_after {
            shared.stats.retried.fetch_add(1, Ordering::Relaxed);
            Response::Retry {
                after_ms: shared.config.policy.retry_after_ms * u64::from(self.consecutive_bounces),
            }
        } else {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            Response::Shed
        }
    }

    /// Processes one received line; returns the response to send, if this
    /// line completed (or killed) a batch.  The caller has already counted
    /// the line into [`ConnState::lineno`].
    pub(super) fn process_line(&mut self, line: &str, shared: &Shared) -> Option<Response> {
        if line.starts_with('#') {
            return None;
        }
        if line.is_empty() {
            if self.poisoned {
                // The ERR went out when the batch was poisoned; the blank
                // line just resynchronizes.
                self.poisoned = false;
                return None;
            }
            if self.current.is_empty() {
                return None; // stray blank line: no batch, no response
            }
            // Line-by-line ledger checks above make the batch context-free
            // valid by construction.
            let batch = UpdateBatch::trusted(std::mem::take(&mut self.current));
            self.ledger = BatchLedger::new();
            return Some(self.admit(batch, shared));
        }
        if self.poisoned {
            return None;
        }
        let update = match parse_update(line, self.lineno) {
            Ok(update) => update,
            Err(e) => return Some(self.poison(shared, e.to_string())),
        };
        if let Err(e) = check_and_push(&mut self.ledger, &mut self.current, update, self.lineno) {
            return Some(self.poison(shared, e.to_string()));
        }
        if self.current.len() > shared.config.policy.max_batch_updates {
            let message = format!(
                "line {}: batch exceeds max_batch_updates = {}",
                self.lineno, shared.config.policy.max_batch_updates
            );
            return Some(self.poison(shared, message));
        }
        None
    }
}
