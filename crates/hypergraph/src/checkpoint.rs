//! Checkpointed durability: consistent checkpoints at drain boundaries,
//! journal-tail recovery, and fault injection for crash testing.
//!
//! The journal alone already makes a service recoverable — but only in
//! `O(history)`: every committed batch since the beginning of time must be
//! re-applied.  A **checkpoint** caps that cost.  Taken at a drain boundary
//! (the one point where the engine is between batches and the commit lock
//! serializes everything), it captures the two things a service *is*:
//!
//! 1. the engine's canonical serialized state
//!    ([`MatchingEngine::save_state`]), which holds the live graph, and
//! 2. the committed-batch counter plus how many journal blocks the checkpoint
//!    covers.
//!
//! Recovery is then **O(delta since the checkpoint)**: restore the engine
//! state, skip the covered journal blocks, and replay only the tail (a
//! sharded service then rebuilds its router from each engine's
//! [`MatchingEngine::live_edges`]) —
//! [`EngineService::recover`](crate::service::EngineService::recover) and
//! [`ShardedService::recover`](crate::sharding::ShardedService::recover).
//! Because every engine's serialized state is a pure function of its logical
//! state, a recovered service is **bit-identical** to a clean twin that
//! replayed the same committed prefix.
//!
//! The sharded layer's boundary-arbitration outcome
//! ([`ArbitratedMatching`](crate::sharding::ArbitratedMatching)) is
//! deliberately **not** part of this format: it is derived state — a pure,
//! deterministic function of the committed per-shard matchings — so
//! [`ShardedService::recover`](crate::sharding::ShardedService::recover)
//! (and replay) recompute it after rebuilding the shards and reproduce the
//! original arbitrated view bit-identically without persisting a byte.
//!
//! Tail replay trusts the journal the same way live replay does: each tail
//! block parses through [`crate::io`] (re-minting the context-free tier of
//! batch validity) and then commits through the engine's validating
//! `apply_batch` — which post-refactor mints the engine-context
//! [`ValidatedBatch`](crate::engine::ValidatedBatch) proof once and runs the
//! trusted kernel path.  Recovery therefore validates each replayed update
//! exactly once, like the serve path.
//!
//! ## The format, fingerprinted
//!
//! A checkpoint is a line-oriented text document:
//!
//! ```text
//! pdmm-checkpoint v2
//! engine <name>
//! vertices <n>
//! rank <r>
//! shards <k>
//! @ 0
//! committed <batches>
//! tailskip <journal blocks covered>
//! state <lines>
//! <engine state blob, verbatim>
//! @ 1
//! ...
//! ```
//!
//! The header is the **fingerprint**: engine kind, vertex-space size, rank
//! bound and shard count.  [`Checkpoint::parse`] rejects an unknown version
//! line with [`CheckpointError::Version`] — including `v1`, whose shard
//! sections also carried a copy of the graph — and recovery rejects a
//! checkpoint whose fingerprint disagrees with the engines it was handed with
//! [`CheckpointError::Fingerprint`] — a checkpoint from a previous run with a
//! different configuration can never be silently restored into the wrong
//! topology.  The seed is deliberately **not** part of the fingerprint: the
//! RNG position is restored wholesale from the engine state, so the builder
//! seed of the recovering engine is irrelevant.
//!
//! ## Coverage rule
//!
//! A checkpoint deletes nothing.  The journal is append-only and keeps every
//! block, so it stays the full history, and the checkpoint records
//! `tailskip`: how many complete journal blocks its engine state already
//! covers.  The service counts the blocks as it appends them, so taking a
//! checkpoint never reads the journal back.  Recovery skips exactly
//! `tailskip` blocks and replays the rest.  Because no block is ever removed,
//! every checkpoint ever stored stays recoverable with the journal, even when
//! a later checkpoint is lost before it is stored.
//!
//! ## Torn-tail semantics
//!
//! Every journal block ends with the [`io::COMMIT_MARKER`] trailer, written in
//! the same append as the block's updates.  A crash mid-append loses the
//! trailer along with whatever else it cut, so recovery can tell a complete
//! block from a torn one without guessing: the tail of the journal is
//! recovered **up to the last complete block**, a trailing incomplete block is
//! dropped (that batch never finished committing — it is not resurrected,
//! not even the readable prefix of it), and an incomplete block *before* a
//! complete one is real corruption and a typed [`CheckpointError::Corrupt`].
//!
//! ## Fault injection
//!
//! [`FaultSink`] wraps any [`JournalSink`] and injects the failures the
//! recovery path must survive: a torn write at a configurable byte offset
//! (everything after is lost — the crash), a short write of one append (a
//! mid-journal hole), or an I/O failure at a configurable commit (which
//! panics, per the documented sink policy).  The crash-recovery test harness
//! (`tests/recovery_faults.rs`) drives services into these faults and asserts
//! recovery lands bit-identical to a clean twin.
//!
//! ## Quick start
//!
//! ```
//! use pdmm::engine::{self, EngineBuilder, EngineKind};
//! use pdmm::prelude::*;
//! use pdmm::service::{EngineService, MemoryJournal};
//!
//! let builder = EngineBuilder::new(8).seed(7);
//! let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
//! service.submit(
//!     UpdateBatch::new(vec![Update::Insert(HyperEdge::pair(
//!         EdgeId(0),
//!         VertexId(0),
//!         VertexId(1),
//!     ))])
//!     .unwrap(),
//! );
//! service.drain().unwrap();
//!
//! // A consistent checkpoint at the drain boundary; later batches land in
//! // the journal tail.
//! let checkpoint = service.checkpoint().unwrap();
//! service.submit(
//!     UpdateBatch::new(vec![Update::Insert(HyperEdge::pair(
//!         EdgeId(1),
//!         VertexId(2),
//!         VertexId(3),
//!     ))])
//!     .unwrap(),
//! );
//! service.drain().unwrap();
//!
//! // Crash.  Recovery = checkpoint + journal tail, on a fresh engine.
//! let survived = service.journal();
//! let recovered = EngineService::recover(
//!     engine::build(EngineKind::Parallel, &builder),
//!     &checkpoint,
//!     &survived,
//!     Box::new(MemoryJournal::new()),
//! )
//! .unwrap();
//! assert_eq!(recovered.snapshot().edge_ids(), service.snapshot().edge_ids());
//! assert_eq!(recovered.snapshot().committed_batches(), 2);
//! ```

use crate::engine::{BatchError, MatchingEngine, StateError, StateParser};
use crate::io::{self, ParseError};
use crate::service::JournalSink;
use std::fmt;
use std::path::Path;

/// First line of every checkpoint document.
const VERSION_LINE: &str = "pdmm-checkpoint v2";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be written, parsed, or recovered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The engine does not implement state serialization
    /// ([`MatchingEngine::save_state`] returned `None`), so it cannot be
    /// checkpointed.
    Unsupported {
        /// Name of the engine that refused.
        engine: String,
    },
    /// The document does not start with a known checkpoint version line.
    Version {
        /// The first line actually found.
        found: String,
    },
    /// The checkpoint's fingerprint (engine kind, vertex-space size, rank
    /// bound, shard count) disagrees with the configuration it is being
    /// recovered into — it was written by a differently-configured run.
    Fingerprint {
        /// Which fingerprint field disagreed.
        field: &'static str,
        /// The recovering configuration's value.
        expected: String,
        /// The checkpoint's value.
        found: String,
    },
    /// The engine refused its serialized state section.
    State(StateError),
    /// The checkpoint document or the surviving journal is structurally
    /// corrupt (line 0: a whole-document problem).
    Corrupt {
        /// 1-based line of the offending checkpoint line, 0 for whole-input
        /// problems.
        line: usize,
        /// What is wrong.
        message: String,
    },
    /// A complete journal-tail block is not a well-formed update stream.
    Journal(ParseError),
    /// The engine refused a journal-tail batch during recovery replay
    /// (journal and checkpoint disagree — e.g. mixed-up files).
    Batch {
        /// 0-based index of the refused block in the surviving journal.
        index: usize,
        /// The engine's refusal.
        error: BatchError,
    },
    /// Reading or writing a checkpoint file failed.
    Io {
        /// The offending path.
        path: String,
        /// The I/O error.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Unsupported { engine } => {
                write!(f, "engine `{engine}` does not support state serialization")
            }
            CheckpointError::Version { found } => {
                write!(f, "not a `{VERSION_LINE}` document (found `{found}`)")
            }
            CheckpointError::Fingerprint {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint fingerprint mismatch on {field}: this configuration has {expected}, \
                 the checkpoint was written with {found}"
            ),
            CheckpointError::State(e) => write!(f, "engine state rejected: {e}"),
            CheckpointError::Corrupt { line: 0, message } => {
                write!(f, "corrupt checkpoint or journal: {message}")
            }
            CheckpointError::Corrupt { line, message } => {
                write!(f, "corrupt checkpoint, line {line}: {message}")
            }
            CheckpointError::Journal(e) => write!(f, "journal tail does not parse: {e}"),
            CheckpointError::Batch { index, error } => {
                write!(f, "journal block {index} refused during recovery: {error}")
            }
            CheckpointError::Io { path, message } => write!(f, "checkpoint i/o {path}: {message}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::State(e) => Some(e),
            CheckpointError::Journal(e) => Some(e),
            CheckpointError::Batch { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Maps a [`StateError`] raised while parsing checkpoint *structure* (not an
/// engine state section) onto [`CheckpointError::Corrupt`], keeping the line.
fn structural(e: StateError) -> CheckpointError {
    match e {
        StateError::Corrupt { line, message } => CheckpointError::Corrupt { line, message },
        other => CheckpointError::Corrupt {
            line: 0,
            message: other.to_string(),
        },
    }
}

// ---------------------------------------------------------------------------
// The parsed document
// ---------------------------------------------------------------------------

/// The fingerprint header shared by every shard of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) engine: String,
    pub(crate) num_vertices: usize,
    pub(crate) max_rank: usize,
}

impl Header {
    /// Checks the fingerprint against a recovering engine.
    pub(crate) fn validate_engine(
        &self,
        engine: &dyn MatchingEngine,
    ) -> Result<(), CheckpointError> {
        if engine.name() != self.engine {
            return Err(CheckpointError::Fingerprint {
                field: "engine",
                expected: engine.name().to_string(),
                found: self.engine.clone(),
            });
        }
        if engine.num_vertices() != self.num_vertices {
            return Err(CheckpointError::Fingerprint {
                field: "vertices",
                expected: engine.num_vertices().to_string(),
                found: self.num_vertices.to_string(),
            });
        }
        if engine.max_rank() != self.max_rank {
            return Err(CheckpointError::Fingerprint {
                field: "rank",
                expected: engine.max_rank().to_string(),
                found: self.max_rank.to_string(),
            });
        }
        Ok(())
    }
}

/// One shard's slice of a checkpoint: its counters and its engine's
/// serialized state.
pub(crate) struct ShardSection {
    /// Batches committed on this shard when the checkpoint was taken.
    pub(crate) committed: u64,
    /// Complete journal blocks at the head of this shard's surviving journal
    /// that the checkpoint already covers (recovery skips them).
    pub(crate) tail_skip: u64,
    /// The shard engine's canonical serialized state.
    pub(crate) state: String,
}

/// A parsed checkpoint document: the fingerprint header plus one section per
/// shard.
///
/// Produced by [`Checkpoint::parse`]; consumed by
/// [`EngineService::recover`](crate::service::EngineService::recover) and
/// [`ShardedService::recover`](crate::sharding::ShardedService::recover)
/// (which parse internally — parse directly when you only need to *inspect* a
/// checkpoint, e.g. for size/coverage accounting).
pub struct Checkpoint {
    pub(crate) header: Header,
    pub(crate) sections: Vec<ShardSection>,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("engine", &self.header.engine)
            .field("num_vertices", &self.header.num_vertices)
            .field("max_rank", &self.header.max_rank)
            .field("shards", &self.sections.len())
            .finish_non_exhaustive()
    }
}

impl Checkpoint {
    /// Parses and structurally validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Version`] for an unknown version line,
    /// [`CheckpointError::Corrupt`] (with the offending line) for anything
    /// structurally wrong — truncation, bad counts, misnumbered sections.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let mut p = StateParser::new(text);
        let first = p.next_line().map_err(|_| CheckpointError::Version {
            found: String::new(),
        })?;
        if first != VERSION_LINE {
            return Err(CheckpointError::Version {
                found: first.to_string(),
            });
        }
        let engine = p.tagged("engine").map_err(structural)?.to_string();
        let num_vertices = {
            let rest = p.tagged("vertices").map_err(structural)?;
            p.parse_token(rest, "vertex count").map_err(structural)?
        };
        let max_rank = {
            let rest = p.tagged("rank").map_err(structural)?;
            p.parse_token(rest, "rank bound").map_err(structural)?
        };
        let shards: usize = {
            let rest = p.tagged("shards").map_err(structural)?;
            p.parse_token(rest, "shard count").map_err(structural)?
        };
        if shards == 0 {
            return Err(structural(
                p.corrupt("a checkpoint needs at least one shard"),
            ));
        }
        // Grown as sections parse: the count is untrusted input, and a
        // truncated document must fail on its missing section, not on an
        // allocation sized by a bogus count.
        let mut sections = Vec::new();
        for k in 0..shards {
            let tag: usize = {
                let rest = p.tagged("@").map_err(structural)?;
                p.parse_token(rest, "shard index").map_err(structural)?
            };
            if tag != k {
                return Err(structural(
                    p.corrupt(format!("expected shard section {k}, found {tag}")),
                ));
            }
            let committed = {
                let rest = p.tagged("committed").map_err(structural)?;
                p.parse_token(rest, "committed count").map_err(structural)?
            };
            let tail_skip = {
                let rest = p.tagged("tailskip").map_err(structural)?;
                p.parse_token(rest, "tail-skip count").map_err(structural)?
            };
            let state_lines: usize = {
                let rest = p.tagged("state").map_err(structural)?;
                p.parse_token(rest, "state line count")
                    .map_err(structural)?
            };
            let mut state = String::new();
            for _ in 0..state_lines {
                state.push_str(p.next_line().map_err(structural)?);
                state.push('\n');
            }
            sections.push(ShardSection {
                committed,
                tail_skip,
                state,
            });
        }
        p.finish().map_err(structural)?;
        Ok(Checkpoint {
            header: Header {
                engine,
                num_vertices,
                max_rank,
            },
            sections,
        })
    }

    /// Display name of the engine kind the checkpoint was taken from.
    #[must_use]
    pub fn engine(&self) -> &str {
        &self.header.engine
    }

    /// The fingerprinted vertex-space size.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.header.num_vertices
    }

    /// The fingerprinted rank bound.
    #[must_use]
    pub fn max_rank(&self) -> usize {
        self.header.max_rank
    }

    /// How many shard sections the checkpoint holds.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.sections.len()
    }

    /// Total batches committed across shards when the checkpoint was taken,
    /// saturating at `u64::MAX`.
    #[must_use]
    pub fn committed_batches(&self) -> u64 {
        self.sections
            .iter()
            .fold(0, |total, s| total.saturating_add(s.committed))
    }
}

// ---------------------------------------------------------------------------
// Rendering (crate-internal: the services gather the parts)
// ---------------------------------------------------------------------------

/// One shard's contribution to a checkpoint, gathered under that shard's
/// commit lock by `EngineService::checkpoint_parts`.
pub(crate) struct ShardParts {
    pub(crate) engine: &'static str,
    pub(crate) num_vertices: usize,
    pub(crate) max_rank: usize,
    pub(crate) committed: u64,
    pub(crate) tail_skip: u64,
    /// The shard engine's canonical serialized state.
    pub(crate) state: String,
}

/// Renders shard parts into the checkpoint document.
///
/// # Errors
///
/// [`CheckpointError::Fingerprint`] if the shards disagree on engine kind,
/// vertex-space size or rank bound — a heterogeneous shard set has no single
/// honest fingerprint, so it cannot be checkpointed.
pub(crate) fn render(parts: &[ShardParts]) -> Result<String, CheckpointError> {
    use std::fmt::Write as _;
    let first = parts
        .first()
        .expect("a checkpoint needs at least one shard");
    for part in parts {
        for (field, expected, found) in [
            ("engine", first.engine.to_string(), part.engine.to_string()),
            (
                "vertices",
                first.num_vertices.to_string(),
                part.num_vertices.to_string(),
            ),
            (
                "rank",
                first.max_rank.to_string(),
                part.max_rank.to_string(),
            ),
        ] {
            if expected != found {
                return Err(CheckpointError::Fingerprint {
                    field,
                    expected,
                    found,
                });
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{VERSION_LINE}");
    let _ = writeln!(out, "engine {}", first.engine);
    let _ = writeln!(out, "vertices {}", first.num_vertices);
    let _ = writeln!(out, "rank {}", first.max_rank);
    let _ = writeln!(out, "shards {}", parts.len());
    for (k, part) in parts.iter().enumerate() {
        let _ = writeln!(out, "@ {k}");
        let _ = writeln!(out, "committed {}", part.committed);
        let _ = writeln!(out, "tailskip {}", part.tail_skip);
        let _ = writeln!(out, "state {}", part.state.lines().count());
        out.push_str(&part.state);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Journal-tail salvage
// ---------------------------------------------------------------------------

/// The complete blocks of a surviving journal, in order.
///
/// A trailing block without its [`io::COMMIT_MARKER`] trailer is a torn tail:
/// dropped silently (that batch never finished committing).  An incomplete
/// block *before* a complete one cannot be a crash artifact — appends are
/// sequential — so it is reported as corruption.
pub(crate) fn complete_blocks(journal: &str) -> Result<Vec<&str>, CheckpointError> {
    let blocks = io::journal_blocks(journal);
    let mut out = Vec::with_capacity(blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        if !io::block_is_committed(block) {
            if i + 1 == blocks.len() {
                break; // Torn tail: recover to the last complete block.
            }
            return Err(CheckpointError::Corrupt {
                line: 0,
                message: format!(
                    "journal block {i} is missing its commit trailer but is not the final block"
                ),
            });
        }
        out.push(*block);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Writes a checkpoint document to `path`, synced to storage before
/// returning — a checkpoint that could vanish in the same crash it is meant
/// to survive would be pointless.
///
/// # Errors
///
/// [`CheckpointError::Io`] with the offending path.
pub fn store_checkpoint(path: impl AsRef<Path>, text: &str) -> Result<(), CheckpointError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let io_err = |e: std::io::Error| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut file = std::fs::File::create(path).map_err(io_err)?;
    file.write_all(text.as_bytes()).map_err(io_err)?;
    file.sync_all().map_err(io_err)
}

/// Reads a checkpoint document back from `path` (the content is validated by
/// [`Checkpoint::parse`] / recovery, not here).
///
/// # Errors
///
/// [`CheckpointError::Io`] with the offending path.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<String, CheckpointError> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Which failure a [`FaultSink`] injects.
enum Fault {
    /// Truncate the append that crosses this cumulative block-byte offset,
    /// then drop everything after (the crash).
    TornAtByte(u64),
    /// Forward only the first `keep` bytes of the `append`-th append (1-based)
    /// and keep running — a mid-journal hole.
    ShortWrite { append: u64, keep: usize },
    /// Panic at the `commit`-th commit (1-based), per the documented sink
    /// policy that journal I/O failures panic.
    FailCommit(u64),
}

/// A [`JournalSink`] wrapper that injects write and commit failures, for
/// crash-recovery testing.
///
/// Byte offsets count the bytes of the *blocks* handed to
/// [`JournalSink::append_block`] (separator bytes an inner sink adds are not
/// counted).  After a torn write the sink plays dead — every later append and
/// commit is silently dropped, exactly as a crash would cut them off — while
/// a short write damages one append and keeps going, leaving the kind of
/// mid-journal hole recovery must refuse.  An injected commit failure
/// **panics**, mirroring [`FileJournal`](crate::service::FileJournal)'s
/// documented policy; the bytes already appended stay in the inner sink, so
/// an on-disk journal remains readable after the panic.
pub struct FaultSink {
    inner: Box<dyn JournalSink>,
    fault: Fault,
    bytes_through: u64,
    appends: u64,
    commits: u64,
    dead: bool,
}

impl fmt::Debug for FaultSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultSink")
            .field("bytes_through", &self.bytes_through)
            .field("appends", &self.appends)
            .field("commits", &self.commits)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl FaultSink {
    fn new(inner: Box<dyn JournalSink>, fault: Fault) -> Self {
        FaultSink {
            inner,
            fault,
            bytes_through: 0,
            appends: 0,
            commits: 0,
            dead: false,
        }
    }

    /// Torn write: the append that crosses cumulative block byte `at_byte` is
    /// truncated there, and everything after it is lost (the crash).
    #[must_use]
    pub fn torn_at_byte(inner: Box<dyn JournalSink>, at_byte: u64) -> Self {
        Self::new(inner, Fault::TornAtByte(at_byte))
    }

    /// Short write: the `append`-th append (1-based) forwards only its first
    /// `keep` bytes; the sink keeps running afterwards, leaving a mid-journal
    /// hole.
    #[must_use]
    pub fn short_write(inner: Box<dyn JournalSink>, append: u64, keep: usize) -> Self {
        Self::new(inner, Fault::ShortWrite { append, keep })
    }

    /// I/O failure at the `commit`-th commit (1-based): panics, per the
    /// documented journal-sink policy.
    #[must_use]
    pub fn fail_commit(inner: Box<dyn JournalSink>, commit: u64) -> Self {
        Self::new(inner, Fault::FailCommit(commit))
    }
}

/// Largest `i' <= i` that is a char boundary of `s` (the format is ASCII, but
/// a torn write must never split a code point into invalid UTF-8).
fn char_floor(s: &str, i: usize) -> usize {
    let mut i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

impl JournalSink for FaultSink {
    fn append_block(&mut self, block: &str) {
        self.appends += 1;
        if self.dead {
            return;
        }
        match self.fault {
            Fault::TornAtByte(at_byte) => {
                let remaining = at_byte.saturating_sub(self.bytes_through);
                if block.len() as u64 > remaining {
                    let keep = char_floor(block, usize::try_from(remaining).unwrap_or(usize::MAX));
                    if keep > 0 {
                        self.inner.append_block(&block[..keep]);
                    }
                    self.bytes_through += keep as u64;
                    self.dead = true;
                    return;
                }
            }
            Fault::ShortWrite { append, keep } if self.appends == append => {
                let keep = char_floor(block, keep);
                if keep > 0 {
                    self.inner.append_block(&block[..keep]);
                }
                self.bytes_through += keep as u64;
                return;
            }
            _ => {}
        }
        self.inner.append_block(block);
        self.bytes_through += block.len() as u64;
    }

    fn commit(&mut self) {
        if self.dead {
            return;
        }
        self.commits += 1;
        if let Fault::FailCommit(commit) = self.fault {
            if self.commits == commit {
                self.dead = true;
                panic!("journal commit {commit}: injected I/O failure");
            }
        }
        self.inner.commit();
    }

    fn contents(&self) -> String {
        self.inner.contents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MemoryJournal;

    fn mem() -> Box<dyn JournalSink> {
        Box::new(MemoryJournal::new())
    }

    #[test]
    fn parse_rejects_wrong_versions_and_truncation() {
        assert!(matches!(
            Checkpoint::parse("pdmm-checkpoint v9\n"),
            Err(CheckpointError::Version { found }) if found == "pdmm-checkpoint v9"
        ));
        assert!(matches!(
            Checkpoint::parse(""),
            Err(CheckpointError::Version { .. })
        ));
        // The previous format, which also stored each shard's graph.
        assert!(matches!(
            Checkpoint::parse("pdmm-checkpoint v1\nengine toy\n"),
            Err(CheckpointError::Version { found }) if found == "pdmm-checkpoint v1"
        ));
        let truncated = "pdmm-checkpoint v2\nengine toy\nvertices 4\n";
        assert!(matches!(
            Checkpoint::parse(truncated),
            Err(CheckpointError::Corrupt { .. })
        ));
        // Shard sections must be numbered densely from zero.
        let missectioned = "pdmm-checkpoint v2\nengine toy\nvertices 4\nrank 2\nshards 1\n\
                            @ 1\ncommitted 0\ntailskip 0\nstate 0\n";
        let err = Checkpoint::parse(missectioned).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Corrupt { message, .. } if message.contains("shard")),
            "{err}"
        );
        // A huge shard count is a missing section, not an allocation.
        let huge = "pdmm-checkpoint v2\nengine toy\nvertices 4\nrank 2\n\
                    shards 18446744073709551615\n";
        assert!(matches!(
            Checkpoint::parse(huge),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn parse_roundtrips_a_rendered_document() {
        let parts = ShardParts {
            engine: "toy",
            num_vertices: 6,
            max_rank: 2,
            committed: 3,
            tail_skip: 1,
            state: "line one\nline two\n".to_string(),
        };
        let text = render(std::slice::from_ref(&parts)).unwrap();
        let doc = Checkpoint::parse(&text).unwrap();
        assert_eq!(doc.engine(), "toy");
        assert_eq!(doc.num_vertices(), 6);
        assert_eq!(doc.max_rank(), 2);
        assert_eq!(doc.num_shards(), 1);
        assert_eq!(doc.committed_batches(), 3);
        assert_eq!(doc.sections[0].tail_skip, 1);
        assert_eq!(doc.sections[0].state, "line one\nline two\n");
    }

    #[test]
    fn render_refuses_heterogeneous_shards() {
        let part = |engine: &'static str| ShardParts {
            engine,
            num_vertices: 4,
            max_rank: 2,
            committed: 0,
            tail_skip: 0,
            state: String::new(),
        };
        let err = render(&[part("a"), part("b")]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Fingerprint {
                    field: "engine",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn complete_blocks_drop_only_a_torn_tail() {
        let whole = "+ 1 0 1\n# commit\n\n- 1\n# commit\n";
        assert_eq!(complete_blocks(whole).unwrap().len(), 2);
        // Torn tail: trailer lost with the cut — the block is dropped.
        let torn = "+ 1 0 1\n# commit\n\n- 1\n# co";
        assert_eq!(complete_blocks(torn).unwrap().len(), 1);
        // Even a tail whose update lines all survived is dropped without its
        // trailer: the batch never finished committing.
        let line_boundary = "+ 1 0 1\n# commit\n\n- 1\n";
        assert_eq!(complete_blocks(line_boundary).unwrap().len(), 1);
        // A hole in the middle is corruption, not a crash artifact.
        let hole = "+ 1 0 1\n\n- 1\n# commit\n";
        assert!(matches!(
            complete_blocks(hole),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn torn_sink_truncates_once_and_plays_dead() {
        let mut sink = FaultSink::torn_at_byte(mem(), 10);
        sink.append_block("0123456");
        sink.commit();
        sink.append_block("789AB");
        sink.commit();
        // 7 bytes of the first block, then 3 of the second; the rest is gone.
        assert_eq!(sink.contents(), "0123456\n789");
        sink.append_block("never lands");
        sink.commit();
        assert_eq!(sink.contents(), "0123456\n789");
    }

    #[test]
    fn short_write_damages_one_append_and_keeps_going() {
        let mut sink = FaultSink::short_write(mem(), 2, 3);
        sink.append_block("first");
        sink.append_block("second");
        sink.append_block("third");
        assert_eq!(sink.contents(), "first\nsec\nthird");
    }

    #[test]
    fn fail_commit_panics_per_sink_policy() {
        let mut sink = FaultSink::fail_commit(mem(), 2);
        sink.append_block("a");
        sink.commit();
        sink.append_block("b");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.commit()))
            .expect_err("the injected commit failure must panic");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("injected"), "{message}");
        // The appended bytes are still in the inner sink.
        assert_eq!(sink.contents(), "a\nb");
    }

    #[test]
    fn checkpoint_files_store_and_load() {
        let dir = std::env::temp_dir().join("pdmm_checkpoint_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.txt");
        store_checkpoint(&path, "pdmm-checkpoint v2\n").unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), "pdmm-checkpoint v2\n");
        let missing = dir.join("does_not_exist.txt");
        assert!(matches!(
            load_checkpoint(&missing),
            Err(CheckpointError::Io { .. })
        ));
    }
}
