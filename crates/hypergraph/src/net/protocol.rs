//! The wire protocol: typed response lines and batch framing.
//!
//! Kept deliberately tiny and I/O-free so the server, perfbench's load
//! generator and protocol clients share one source of truth for what travels
//! on the socket.

use crate::io::batches_to_string;
use crate::types::UpdateBatch;

/// One response line, as the server sends it and the client parses it.
///
/// The wire form is `Display` (no trailing newline); [`Response::parse`] is
/// its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK <updates> <sub_batches> <cross_shard>` — the batch was admitted.
    Ok {
        /// Updates routed (the batch size as the server counted it).
        updates: usize,
        /// Non-empty per-shard sub-batches the batch fanned out into.
        sub_batches: usize,
        /// How many of the updates were cross-shard (see
        /// [`crate::sharding::RouteReport::cross_shard`]).
        cross_shard: usize,
    },
    /// `RETRY <after_ms>` — refused under backpressure; resend after the
    /// hinted number of milliseconds.
    Retry {
        /// Suggested client-side delay before resending, in milliseconds.
        after_ms: u64,
    },
    /// `SHED` — refused, and the hinting phase is over: the server is
    /// saturated and the client should back off for real (or drop load).
    Shed,
    /// `ERR <message>` — the batch was malformed and has been discarded;
    /// `message` names the offending per-connection line.
    Error {
        /// Human-readable description, starting with `line <n>:` for parse
        /// and batch-validation errors.
        message: String,
    },
}

impl std::fmt::Display for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Response::Ok {
                updates,
                sub_batches,
                cross_shard,
            } => write!(f, "OK {updates} {sub_batches} {cross_shard}"),
            Response::Retry { after_ms } => write!(f, "RETRY {after_ms}"),
            Response::Shed => write!(f, "SHED"),
            Response::Error { message } => write!(f, "ERR {message}"),
        }
    }
}

impl Response {
    /// Parses one response line (the inverse of `Display`).  Returns `None`
    /// for anything that is not a well-formed response line.
    #[must_use]
    pub fn parse(line: &str) -> Option<Response> {
        let line = line.trim();
        let (tag, rest) = match line.split_once(char::is_whitespace) {
            Some((tag, rest)) => (tag, rest.trim()),
            None => (line, ""),
        };
        match tag {
            "OK" => {
                let mut it = rest.split_whitespace();
                let updates = it.next()?.parse().ok()?;
                let sub_batches = it.next()?.parse().ok()?;
                let cross_shard = it.next()?.parse().ok()?;
                if it.next().is_some() {
                    return None;
                }
                Some(Response::Ok {
                    updates,
                    sub_batches,
                    cross_shard,
                })
            }
            "RETRY" => {
                let mut it = rest.split_whitespace();
                let after_ms = it.next()?.parse().ok()?;
                if it.next().is_some() {
                    return None;
                }
                Some(Response::Retry { after_ms })
            }
            "SHED" => rest.is_empty().then_some(Response::Shed),
            "ERR" => Some(Response::Error {
                message: rest.to_string(),
            }),
            _ => None,
        }
    }

    /// Whether this response means "not admitted, but resending may work"
    /// (`RETRY` or `SHED`).
    #[must_use]
    pub fn is_backpressure(&self) -> bool {
        matches!(self, Response::Retry { .. } | Response::Shed)
    }
}

/// Serializes one batch in wire form: its update lines plus the terminating
/// blank line that submits it.  The format has no representation for an empty
/// batch, so an empty batch frames to a lone blank line — a no-op the server
/// ignores (no response).
#[must_use]
pub fn frame_batch(batch: &UpdateBatch) -> String {
    let mut framed = batches_to_string(std::slice::from_ref(batch));
    framed.push('\n');
    framed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Update;

    fn ok(u: usize, s: usize, c: usize) -> Response {
        Response::Ok {
            updates: u,
            sub_batches: s,
            cross_shard: c,
        }
    }

    #[test]
    fn response_wire_roundtrip() {
        let cases = [
            ok(12, 3, 4),
            Response::Retry { after_ms: 6 },
            Response::Shed,
            Response::Error {
                message: "line 7: unknown operation `@` (expected `+` or `-`)".into(),
            },
        ];
        for response in cases {
            let line = response.to_string();
            assert_eq!(Response::parse(&line), Some(response.clone()), "{line}");
            assert_eq!(Response::parse(&format!("  {line}  ")), Some(response));
        }
    }

    #[test]
    fn response_parse_rejects_malformed_lines() {
        for line in [
            "",
            "NO",
            "OK",
            "OK 1",
            "OK 1 2",
            "OK 1 2 3 4",
            "OK a b c",
            "RETRY",
            "RETRY x",
            "RETRY 1 2",
            "SHED 1",
            "ok 1 2 3",
        ] {
            assert_eq!(Response::parse(line), None, "{line:?}");
        }
        // ERR with an empty message is degenerate but well-formed.
        assert_eq!(
            Response::parse("ERR"),
            Some(Response::Error {
                message: String::new()
            })
        );
    }

    #[test]
    fn backpressure_predicate() {
        assert!(Response::Shed.is_backpressure());
        assert!(Response::Retry { after_ms: 1 }.is_backpressure());
        assert!(!ok(1, 1, 0).is_backpressure());
        assert!(!Response::Error {
            message: "x".into()
        }
        .is_backpressure());
    }

    #[test]
    fn frame_batch_is_update_lines_plus_blank() {
        use crate::types::{EdgeId, HyperEdge, VertexId};
        let batch = UpdateBatch::new(vec![
            Update::Insert(HyperEdge::pair(EdgeId(4), VertexId(0), VertexId(1))),
            Update::Delete(EdgeId(9)),
        ])
        .unwrap();
        assert_eq!(frame_batch(&batch), "+ 4 0 1\n- 9\n\n");
        assert_eq!(frame_batch(&UpdateBatch::empty()), "\n");
    }
}
