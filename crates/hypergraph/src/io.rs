//! Plain-text serialization of hypergraphs and update streams.
//!
//! A small, dependency-free exchange format so that workloads can be generated
//! once, stored, and replayed across runs or shared with other implementations:
//!
//! * **update stream** — one batch per blank-line-separated block, one update per
//!   line: `+ <id> <v1> ... <vk>` for an insertion, `- <id>` for a deletion;
//! * **shard-tagged update stream** — the update-stream format with one
//!   `@ <shard>` header line per block, used by the sharded serving layer's
//!   journal (written by [`ShardedService::journal`], which tags the blocks
//!   of the shard journals without parsing them, and read by
//!   [`sharded_batches_from_string`]) so every batch replays onto the shard
//!   that committed it.  Nothing arbitration-related is journaled: the
//!   arbitrated matching is derived state, recomputed deterministically from
//!   the replayed per-shard matchings.
//!
//! Lines starting with `#` are comments.  Parsing is strict: malformed lines return
//! an error rather than being skipped, so corrupted workload files are caught
//! early.
//!
//! The stream parsers run the shared [`BatchLedger`] machine per block, so a
//! parsed [`UpdateBatch`] carries the **context-free** tier of batch validity
//! (the same proof [`UpdateBatch::new`] mints) — journals and workload files
//! re-enter the system at the same trust level as freshly constructed
//! batches.  The engine-context check still happens exactly once downstream,
//! when a drain or replay mints the [`ValidatedBatch`] proof against the live
//! engine.
//!
//! [`ValidatedBatch`]: crate::engine::ValidatedBatch
//! [`ShardedService::journal`]: crate::sharding::ShardedService::journal

use crate::engine::{BatchLedger, UpdateCheck};
use crate::types::{EdgeId, HyperEdge, ShardId, Update, UpdateBatch, VertexId};

/// Error produced by the parsers in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Trailer comment the serve path writes as the last line of every journal
/// block (`crate::service`), inside the same append as the block's updates.
///
/// Comments are invisible to the parsers in this module, so the trailer
/// changes nothing about replay — but it gives crash recovery
/// (`crate::checkpoint`) a sound completeness check: a block whose last line
/// is this marker was appended whole, while a torn or short write loses the
/// trailer along with whatever else it cut.  Recovery can therefore drop an
/// incomplete tail block instead of resurrecting the readable prefix of a
/// batch that never finished committing.
pub const COMMIT_MARKER: &str = "# commit";

/// Splits journal text into its blank-line-separated blocks, dropping empty
/// blocks (a journal ending in a dangling separator, or an empty journal,
/// yields no phantom block).  Purely structural: blocks are *not* parsed or
/// validated here.
#[must_use]
pub fn journal_blocks(text: &str) -> Vec<&str> {
    text.split("\n\n")
        .map(|block| block.trim_matches('\n'))
        .filter(|block| !block.is_empty())
        .collect()
}

/// Whether a journal block carries the [`COMMIT_MARKER`] trailer — i.e.
/// whether its append completed.  The marker must be the block's last
/// non-blank line; a torn write that cut the trailer (or left a prefix of it)
/// leaves the block incomplete.
#[must_use]
pub fn block_is_committed(block: &str) -> bool {
    block
        .lines()
        .next_back()
        .is_some_and(|line| line.trim() == COMMIT_MARKER)
}

/// Serializes a sequence of update batches.
///
/// The format has no representation for an *empty* batch (a batch is a maximal
/// run of non-blank update lines), so empty batches — no-ops for every engine —
/// are skipped; [`batches_from_string`] consequently never produces one, and the
/// round trip `parse ∘ serialize` is the identity on streams of non-empty
/// batches (property-tested in `tests/io_roundtrip.rs`).
///
/// Takes anything that exposes a batch's updates as a slice, so the serve path
/// can journal validated lossy survivors without sealing them into an
/// [`UpdateBatch`] (and so checking them) again.
#[must_use]
pub fn batches_to_string<B: AsRef<[Update]>>(batches: &[B]) -> String {
    let mut out = String::new();
    let mut written = 0usize;
    for batch in batches.iter().map(AsRef::as_ref) {
        if batch.is_empty() {
            continue;
        }
        if written > 0 {
            out.push('\n');
        }
        written += 1;
        for update in batch {
            write_update(&mut out, update);
        }
    }
    out
}

/// Serializes one update as its stream line (the single place the line format
/// is written, shared by the plain serializer and the serve path's journal).
pub(crate) fn write_update(out: &mut String, update: &Update) {
    match update {
        Update::Insert(e) => {
            out.push_str("+ ");
            push_decimal(out, e.id.0);
            for v in e.vertices() {
                out.push(' ');
                push_decimal(out, u64::from(v.0));
            }
        }
        Update::Delete(id) => {
            out.push_str("- ");
            push_decimal(out, id.0);
        }
    }
    out.push('\n');
}

/// Appends `n` in decimal.  The digits are written back to front into a
/// stack buffer and pushed as ASCII: `core::fmt`'s machinery costs more per
/// integer than the digits themselves, and a journal block is mostly
/// integers.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Parses one non-empty, non-comment update line (`+ <id> <v>…` / `- <id>`).
pub(crate) fn parse_update(line: &str, lineno: usize) -> Result<Update, ParseError> {
    let mut parts = line.split_whitespace();
    let op = parts.next().expect("non-empty line has a first token");
    match op {
        "+" => {
            let id = parse_u64(parts.next(), lineno, "edge id")?;
            let vertices: Vec<VertexId> = parts
                .map(|p| parse_u32(Some(p), lineno, "vertex id").map(VertexId))
                .collect::<Result<_, _>>()?;
            if vertices.is_empty() {
                return Err(ParseError {
                    line: lineno,
                    message: "insertion with no endpoints".into(),
                });
            }
            Ok(Update::Insert(HyperEdge::new(EdgeId(id), vertices)))
        }
        "-" => {
            let id = parse_u64(parts.next(), lineno, "edge id")?;
            if parts.next().is_some() {
                return Err(ParseError {
                    line: lineno,
                    message: "deletion takes exactly one id".into(),
                });
            }
            Ok(Update::Delete(EdgeId(id)))
        }
        other => Err(ParseError {
            line: lineno,
            message: format!("unknown operation `{other}` (expected `+` or `-`)"),
        }),
    }
}

/// Runs the shared per-line batch validation and pushes a fresh update into
/// the current block.
pub(crate) fn check_and_push(
    ledger: &mut BatchLedger,
    current: &mut Vec<Update>,
    update: Update,
    lineno: usize,
) -> Result<(), ParseError> {
    match UpdateBatch::check_context_free(ledger, &update) {
        Ok(UpdateCheck::Fresh) => {
            ledger.record(&update, current.len());
            current.push(update);
            Ok(())
        }
        Ok(UpdateCheck::RepeatedInsert { .. } | UpdateCheck::RepeatedDelete) => Err(ParseError {
            line: lineno,
            message: format!(
                "invalid batch: repeated update for edge {}",
                update.edge_id()
            ),
        }),
        Err(error) => Err(ParseError {
            line: lineno,
            message: format!("invalid batch: {error}"),
        }),
    }
}

/// Parses an update stream produced by [`batches_to_string`].
///
/// Every block is validated as it is parsed with the same [`BatchLedger`]
/// machine behind [`UpdateBatch::new`] and engine validation, so a stream file
/// can no longer smuggle an invalid batch (repeated ids, double deletions,
/// insert-then-delete of one id) past the engines: the parser reports the
/// offending *line* instead of handing the batch on.
pub fn batches_from_string(text: &str) -> Result<Vec<UpdateBatch>, ParseError> {
    let mut batches: Vec<UpdateBatch> = Vec::new();
    let mut current: Vec<Update> = Vec::new();
    let mut ledger = BatchLedger::new();
    let mut flush = |current: &mut Vec<Update>, ledger: &mut BatchLedger| {
        if !current.is_empty() {
            // Line-by-line ledger checks above make this infallible.
            batches.push(UpdateBatch::trusted(std::mem::take(current)));
            *ledger = BatchLedger::new();
        }
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            flush(&mut current, &mut ledger);
            continue;
        }
        let update = parse_update(line, i + 1)?;
        check_and_push(&mut ledger, &mut current, update, i + 1)?;
    }
    flush(&mut current, &mut ledger);
    Ok(batches)
}

/// Parses a shard-tagged update stream: the sharded serving layer's journal
/// (`pdmm_hypergraph::sharding`).
///
/// The framing extends the update-stream format with one header line per
/// block: `@ <shard>` names the shard that committed the following updates.
/// `@ <shard>` starts a new block (flushing any updates accumulated for the
/// previous tag, so a blank line between tagged blocks is optional); blank
/// lines flush the current block while keeping the tag sticky for the next
/// untagged block; update lines before any tag are an error.  Every block is
/// validated with the same [`BatchLedger`] machine as [`batches_from_string`].
pub fn sharded_batches_from_string(text: &str) -> Result<Vec<(ShardId, UpdateBatch)>, ParseError> {
    let mut entries: Vec<(ShardId, UpdateBatch)> = Vec::new();
    let mut shard: Option<ShardId> = None;
    let mut current: Vec<Update> = Vec::new();
    let mut ledger = BatchLedger::new();
    let mut flush =
        |shard: Option<ShardId>, current: &mut Vec<Update>, ledger: &mut BatchLedger| {
            if !current.is_empty() {
                let tag = shard.expect("updates are only accumulated under a tag");
                // Line-by-line ledger checks make this infallible.
                entries.push((tag, UpdateBatch::trusted(std::mem::take(current))));
                *ledger = BatchLedger::new();
            }
        };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            flush(shard, &mut current, &mut ledger);
            continue;
        }
        if let Some(rest) = line.strip_prefix('@') {
            flush(shard, &mut current, &mut ledger);
            let mut parts = rest.split_whitespace();
            let id = parse_u32(parts.next(), i + 1, "shard id")?;
            if parts.next().is_some() {
                return Err(ParseError {
                    line: i + 1,
                    message: "shard tag takes exactly one id".into(),
                });
            }
            shard = Some(ShardId(id));
            continue;
        }
        if shard.is_none() {
            return Err(ParseError {
                line: i + 1,
                message: "update line before any `@ <shard>` tag".into(),
            });
        }
        let update = parse_update(line, i + 1)?;
        check_and_push(&mut ledger, &mut current, update, i + 1)?;
    }
    flush(shard, &mut current, &mut ledger);
    Ok(entries)
}

fn parse_u64(token: Option<&str>, line: usize, what: &str) -> Result<u64, ParseError> {
    token
        .ok_or_else(|| ParseError {
            line,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| ParseError {
            line,
            message: format!("invalid {what}"),
        })
}

fn parse_u32(token: Option<&str>, line: usize, what: &str) -> Result<u32, ParseError> {
    parse_u64(token, line, what).and_then(|v| {
        u32::try_from(v).map_err(|_| ParseError {
            line,
            message: format!("{what} out of range"),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm_graph;
    use crate::streams::random_churn;

    #[test]
    fn batch_roundtrip() {
        let w = random_churn(40, 2, 30, 5, 20, 0.5, 9);
        let text = batches_to_string(&w.batches);
        let parsed = batches_from_string(&text).unwrap();
        assert_eq!(parsed, w.batches);
    }

    #[test]
    fn batch_roundtrip_for_graph_workload() {
        let edges = gnm_graph(20, 40, 3, 0);
        let batches: Vec<UpdateBatch> = vec![
            UpdateBatch::new(edges.iter().take(20).cloned().map(Update::Insert).collect()).unwrap(),
            UpdateBatch::new(edges.iter().take(5).map(|e| Update::Delete(e.id)).collect()).unwrap(),
        ];
        let parsed = batches_from_string(&batches_to_string(&batches)).unwrap();
        assert_eq!(parsed, batches);
    }

    #[test]
    fn batch_parser_rejects_invalid_batches_with_the_offending_line() {
        // Insert-then-delete of one id inside one block (§3.3 ordering).
        let err = batches_from_string("+ 1 0 1\n- 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("invalid batch"), "{err}");
        // The same two updates split across blocks are fine.
        assert_eq!(batches_from_string("+ 1 0 1\n\n- 1\n").unwrap().len(), 2);

        // Repeated insertion id inside one block.
        let err = batches_from_string("+ 2 0 1\n+ 2 0 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("repeated update"), "{err}");

        // Double deletion inside one block.
        let err = batches_from_string("- 3\n# interleaved comment\n- 3\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn empty_batches_are_skipped_by_the_serializer() {
        let batch = UpdateBatch::new(vec![Update::Delete(EdgeId(1))]).unwrap();
        let batches = vec![
            UpdateBatch::empty(),
            batch.clone(),
            UpdateBatch::empty(),
            batch.clone(),
            UpdateBatch::empty(),
        ];
        let text = batches_to_string(&batches);
        assert_eq!(text, "- 1\n\n- 1\n");
        assert_eq!(
            batches_from_string(&text).unwrap(),
            vec![batch.clone(), batch]
        );
    }

    #[test]
    fn batch_parser_rejects_bad_operations() {
        assert!(batches_from_string("* 1 2 3").is_err());
        assert!(batches_from_string("+ 1").is_err());
        assert!(batches_from_string("- 1 2").is_err());
        assert!(batches_from_string("+ x 1 2").is_err());
    }

    #[test]
    fn empty_input_gives_no_batches() {
        assert_eq!(batches_from_string("").unwrap(), Vec::<UpdateBatch>::new());
        assert_eq!(batches_from_string("# only comments\n\n").unwrap().len(), 0);
    }

    #[test]
    fn sharded_roundtrip() {
        // The journal's framing: one tag per block, blank lines between
        // blocks, and under each tag the plain serializer's lines plus the
        // commit trailer.
        let text = "@ 0\n+ 0 1 2\n- 5\n# commit\n\n@ 2\n+ 1 3 4\n# commit\n\n@ 0\n- 0\n# commit\n";
        let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
        let entries = vec![
            (
                ShardId(0),
                UpdateBatch::new(vec![pair(0, 1, 2), Update::Delete(EdgeId(5))]).unwrap(),
            ),
            (ShardId(2), UpdateBatch::new(vec![pair(1, 3, 4)]).unwrap()),
            (
                ShardId(0),
                UpdateBatch::new(vec![Update::Delete(EdgeId(0))]).unwrap(),
            ),
        ];
        assert_eq!(sharded_batches_from_string(text).unwrap(), entries);
        for ((shard, batch), block) in entries.iter().zip(journal_blocks(text)) {
            let plain = batches_to_string(std::slice::from_ref(batch));
            assert_eq!(
                format!("{block}\n"),
                format!("@ {}\n{plain}{COMMIT_MARKER}\n", shard.0)
            );
        }
    }

    #[test]
    fn sharded_tags_are_sticky_and_flush_blocks() {
        // A tag both flushes the previous block and tags the next; blank lines
        // keep the last tag sticky.
        let text = "@ 1\n+ 0 1 2\n@ 2\n+ 1 3 4\n\n+ 2 5 6\n";
        let parsed = sharded_batches_from_string(text).unwrap();
        let shards: Vec<u32> = parsed.iter().map(|(s, _)| s.0).collect();
        assert_eq!(shards, vec![1, 2, 2]);
        assert_eq!(parsed[2].1.len(), 1);
    }

    #[test]
    fn sharded_parser_rejects_malformed_streams() {
        // Updates before any tag.
        let err = sharded_batches_from_string("+ 1 0 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("before any"), "{err}");
        // Garbage tags.
        assert!(sharded_batches_from_string("@ x\n").is_err());
        assert!(sharded_batches_from_string("@ 1 2\n").is_err());
        assert!(sharded_batches_from_string("@\n").is_err());
        // Invalid batches are caught with the offending line, like the plain
        // parser.
        let err = sharded_batches_from_string("@ 0\n+ 1 0 1\n- 1\n").unwrap_err();
        assert_eq!(err.line, 3);
        // The plain parser refuses shard tags (the two formats stay distinct).
        assert!(batches_from_string("@ 0\n+ 1 0 1\n").is_err());
    }

    #[test]
    fn journal_blocks_are_structural_and_ignore_padding() {
        assert!(journal_blocks("").is_empty());
        assert!(journal_blocks("\n\n\n").is_empty());
        let text = "+ 1 0 1\n# commit\n\n- 1\n# commit\n";
        let blocks = journal_blocks(text);
        assert_eq!(blocks, vec!["+ 1 0 1\n# commit", "- 1\n# commit"]);
        // A dangling separator after the last block adds no phantom block.
        let padded = format!("{text}\n");
        assert_eq!(journal_blocks(&padded).len(), 2);
    }

    #[test]
    fn commit_marker_detection_survives_torn_trailers() {
        assert!(block_is_committed("+ 1 0 1\n# commit"));
        assert!(block_is_committed("# commit"));
        // No trailer, a torn prefix of it, or updates after it: incomplete.
        assert!(!block_is_committed("+ 1 0 1"));
        assert!(!block_is_committed("+ 1 0 1\n# com"));
        assert!(!block_is_committed("+ 1 0 1\n# commit\n- 1"));
        // The marker itself parses as a comment: replay is unaffected.
        let parsed = batches_from_string("+ 1 0 1\n# commit\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].len(), 1);
    }
}
