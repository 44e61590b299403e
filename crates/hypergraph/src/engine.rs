//! The engine layer: one API for every dynamic maximal-matching implementation.
//!
//! The experiments of the paper compare the parallel batch-dynamic algorithm
//! against static and sequential baselines under *identical* update streams.  This
//! module is the contract that makes that comparison honest: every implementation
//! in the workspace — the paper's algorithm (`pdmm-core`), the two sequential
//! repair baselines (`pdmm-seq-dynamic`), and the two recompute-from-scratch
//! baselines (`pdmm-static`) — is driven through the [`MatchingEngine`] trait and
//! configured through the [`EngineBuilder`], so the harness, the conformance
//! tests, and user code all exercise exactly the same code paths.
//!
//! Design points:
//!
//! * **One ingest path** — a batch is validated once, by
//!   [`MatchingEngine::validate`] (strict) or [`MatchingEngine::validate_lossy`]
//!   (drops exact repeats, reports the rest), which mints the sealed
//!   [`ValidatedBatch`] proof; [`MatchingEngine::apply_batch_trusted`] then runs
//!   the kernel without checking again.  [`MatchingEngine::apply_batch`] is the
//!   two steps in one call.
//! * **Typed errors** — invalid batches (duplicate ids, rank violations, unknown
//!   deletions, out-of-range endpoints) return a [`BatchError`] instead of
//!   panicking, and an engine rejects the *whole* batch before mutating anything.
//! * **Zero-copy queries** — [`MatchingEngine::matching`] iterates the current
//!   matching straight out of the engine's internal tables ([`MatchingIter`]
//!   borrows the engine; no `Vec` is materialised unless the caller asks with
//!   [`MatchingEngine::matching_ids`]).

use crate::matching::MatchingDelta;
use crate::types::{EdgeId, HyperEdge, Update, UpdateBatch, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A structurally invalid batch, rejected before any state was mutated.
///
/// The update model of §2 requires ids to be unique among live edges, deletions
/// to name pre-batch live edges, and every hyperedge to respect the configured
/// maximum rank and vertex range.  A batch violating any of these is refused as a
/// whole with the first violation found.
///
/// ```
/// use pdmm::engine::{self, BatchError, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// // Deleting an edge that was never inserted is a typed error, not a panic —
/// // and the engine is untouched (rejection is atomic).
/// let err = engine.apply_batch(&[Update::Delete(EdgeId(7))]).unwrap_err();
/// assert_eq!(err, BatchError::UnknownDeletion { id: EdgeId(7) });
/// assert_eq!(err.to_string(), "deletion of unknown edge e7");
/// assert_eq!(engine.matching_size(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// An insertion reuses the id of a live edge (or of an earlier insertion in
    /// the same batch).
    DuplicateEdgeId {
        /// The conflicting edge id.
        id: EdgeId,
    },
    /// An inserted hyperedge has more endpoints than the engine's configured
    /// maximum rank.
    RankExceeded {
        /// The offending edge id.
        id: EdgeId,
        /// Its rank.
        rank: usize,
        /// The configured maximum.
        max_rank: usize,
    },
    /// A deletion names an edge that was not live before the batch (deletions are
    /// processed before insertions, so an id inserted in the same batch does not
    /// count).
    UnknownDeletion {
        /// The unknown edge id.
        id: EdgeId,
    },
    /// The same edge id is deleted twice in one batch.
    DuplicateDeletion {
        /// The doubly-deleted edge id.
        id: EdgeId,
    },
    /// An inserted hyperedge has an endpoint outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending edge id.
        id: EdgeId,
        /// The out-of-range endpoint.
        vertex: VertexId,
        /// The engine's vertex-set size.
        num_vertices: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::DuplicateEdgeId { id } => {
                write!(f, "insertion reuses live edge id {id}")
            }
            BatchError::RankExceeded { id, rank, max_rank } => {
                write!(
                    f,
                    "edge {id} has rank {rank} > configured maximum {max_rank}"
                )
            }
            BatchError::UnknownDeletion { id } => {
                write!(f, "deletion of unknown edge {id}")
            }
            BatchError::DuplicateDeletion { id } => {
                write!(f, "edge {id} deleted twice in one batch")
            }
            BatchError::VertexOutOfRange {
                id,
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "edge {id} endpoint {vertex} out of range (n = {num_vertices})"
                )
            }
        }
    }
}

impl std::error::Error for BatchError {}

// ---------------------------------------------------------------------------
// Engine state serialization
// ---------------------------------------------------------------------------

/// Failure to restore an engine from a serialized state blob.
///
/// Produced by [`MatchingEngine::restore_state`].  The variants separate "this
/// blob belongs to a different world" (engine kind or configuration mismatch —
/// the checkpoint-staleness hazard) from "this blob is damaged" (corruption),
/// so recovery code can decide whether to refuse or to fall back to a full
/// replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The engine does not implement state serialization.
    Unsupported {
        /// Name of the engine that refused.
        engine: &'static str,
    },
    /// The blob was saved by a different engine kind.
    EngineMismatch {
        /// Name of the engine asked to restore.
        expected: String,
        /// Engine name recorded in the blob.
        found: String,
    },
    /// The blob was saved under a different configuration (vertex count, rank
    /// bound, …) than the engine being restored.
    ConfigMismatch {
        /// Which configuration field disagrees.
        field: &'static str,
        /// The restoring engine's value.
        expected: String,
        /// The value recorded in the blob.
        found: String,
    },
    /// The engine has already applied batches; restore requires a freshly
    /// built one.
    NotFresh {
        /// Batches the engine has already applied.
        batches: u64,
    },
    /// The blob is malformed: truncated, un-parseable, or internally
    /// inconsistent.
    Corrupt {
        /// 1-based line number of the problem (0 when it concerns the blob as
        /// a whole, e.g. a failed post-restore invariant check).
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Unsupported { engine } => {
                write!(f, "engine `{engine}` does not support state serialization")
            }
            StateError::EngineMismatch { expected, found } => {
                write!(
                    f,
                    "state blob was saved by engine `{found}`, not `{expected}`"
                )
            }
            StateError::ConfigMismatch {
                field,
                expected,
                found,
            } => {
                write!(
                    f,
                    "state blob disagrees on {field}: engine has {expected}, blob has {found}"
                )
            }
            StateError::NotFresh { batches } => {
                write!(
                    f,
                    "restore target must be freshly built, but it already applied {batches} batches"
                )
            }
            StateError::Corrupt { line, message } => {
                if *line == 0 {
                    write!(f, "corrupt state blob: {message}")
                } else {
                    write!(f, "corrupt state blob at line {line}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Line-oriented cursor over a state blob.
///
/// Tracks 1-based line numbers so every parse failure names the offending
/// line in its [`StateError::Corrupt`].  All engine `restore_state`
/// implementations (and the checkpoint loader) parse through this, so
/// truncated or garbled blobs fail with a typed error instead of a panic.
#[derive(Debug)]
pub struct StateParser<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> StateParser<'a> {
    /// Starts parsing `blob` from its first line.
    #[must_use]
    pub fn new(blob: &'a str) -> Self {
        StateParser {
            lines: blob.lines(),
            line_no: 0,
        }
    }

    /// A [`StateError::Corrupt`] pointing at the line most recently read.
    #[must_use]
    pub fn corrupt(&self, message: impl Into<String>) -> StateError {
        StateError::Corrupt {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// The next line, or a corruption error if the blob ends early.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] at end of input.
    pub fn next_line(&mut self) -> Result<&'a str, StateError> {
        self.line_no += 1;
        self.lines.next().ok_or(StateError::Corrupt {
            line: self.line_no,
            message: "unexpected end of state".to_string(),
        })
    }

    /// The next line, which must be `tag` alone or `tag` followed by fields;
    /// returns the fields (trimmed, empty for a bare tag).
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if the blob ends or the line has another tag.
    pub fn tagged(&mut self, tag: &str) -> Result<&'a str, StateError> {
        let line = self.next_line()?;
        match line.strip_prefix(tag) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(rest.trim()),
            _ => Err(self.corrupt(format!("expected `{tag}` line, found `{line}`"))),
        }
    }

    /// Parses one whitespace-free token, naming `what` in the error.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if the token does not parse as `T`.
    pub fn parse_token<T: std::str::FromStr>(
        &self,
        token: &str,
        what: &str,
    ) -> Result<T, StateError> {
        token
            .parse()
            .map_err(|_| self.corrupt(format!("invalid {what} `{token}`")))
    }

    /// Splits `rest` into exactly `N` whitespace-separated tokens.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] on too few or too many fields.
    pub fn tokens<const N: usize>(&self, rest: &'a str) -> Result<[&'a str; N], StateError> {
        let mut it = rest.split_whitespace();
        let mut out = [""; N];
        for slot in &mut out {
            *slot = it
                .next()
                .ok_or_else(|| self.corrupt(format!("expected {N} fields")))?;
        }
        if it.next().is_some() {
            return Err(self.corrupt(format!("expected exactly {N} fields")));
        }
        Ok(out)
    }

    /// Asserts the blob is exhausted.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] if any line remains.
    pub fn finish(mut self) -> Result<(), StateError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => {
                self.line_no += 1;
                Err(self.corrupt(format!("trailing data `{line}`")))
            }
        }
    }
}

/// Writes the `engine`/`n`/`rank` header every state blob starts with.
pub fn write_state_header(out: &mut String, name: &str, num_vertices: usize, max_rank: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "engine {name}");
    let _ = writeln!(out, "n {num_vertices}");
    let _ = writeln!(out, "rank {max_rank}");
}

/// Checks the common header against the restoring engine's identity.
///
/// # Errors
///
/// [`StateError::EngineMismatch`] on a foreign engine name,
/// [`StateError::ConfigMismatch`] on a different vertex count or rank bound,
/// [`StateError::Corrupt`] on a malformed header.
pub fn read_state_header(
    p: &mut StateParser<'_>,
    name: &str,
    num_vertices: usize,
    max_rank: usize,
) -> Result<(), StateError> {
    let found = p.tagged("engine")?;
    if found != name {
        return Err(StateError::EngineMismatch {
            expected: name.to_string(),
            found: found.to_string(),
        });
    }
    let n: usize = {
        let rest = p.tagged("n")?;
        p.parse_token(rest, "vertex count")?
    };
    if n != num_vertices {
        return Err(StateError::ConfigMismatch {
            field: "num_vertices",
            expected: num_vertices.to_string(),
            found: n.to_string(),
        });
    }
    let r: usize = {
        let rest = p.tagged("rank")?;
        p.parse_token(rest, "max rank")?
    };
    if r != max_rank {
        return Err(StateError::ConfigMismatch {
            field: "max_rank",
            expected: max_rank.to_string(),
            found: r.to_string(),
        });
    }
    Ok(())
}

/// Writes the uniform lifetime counters and the work/depth cost totals.
pub fn write_state_counters(out: &mut String, c: &UpdateCounters, work: u64, depth: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "counters {} {} {} {} {} {}",
        c.batches, c.updates, c.insertions, c.deletions, c.matched_deletions, c.rebuilds
    );
    let _ = writeln!(out, "cost {work} {depth}");
}

/// Reads back what [`write_state_counters`] wrote: `(counters, work, depth)`.
///
/// # Errors
///
/// [`StateError::Corrupt`] on malformed lines.
pub fn read_state_counters(
    p: &mut StateParser<'_>,
) -> Result<(UpdateCounters, u64, u64), StateError> {
    let rest = p.tagged("counters")?;
    let [b, u, i, d, m, r] = p.tokens(rest)?;
    let counters = UpdateCounters {
        batches: p.parse_token(b, "batch count")?,
        updates: p.parse_token(u, "update count")?,
        insertions: p.parse_token(i, "insertion count")?,
        deletions: p.parse_token(d, "deletion count")?,
        matched_deletions: p.parse_token(m, "matched-deletion count")?,
        rebuilds: p.parse_token(r, "rebuild count")?,
    };
    let rest = p.tagged("cost")?;
    let [w, dep] = p.tokens(rest)?;
    Ok((
        counters,
        p.parse_token(w, "work total")?,
        p.parse_token(dep, "depth total")?,
    ))
}

/// Writes an RNG stream position (16 ChaCha words plus the word index) as one
/// `rng` line.
pub fn write_state_rng(out: &mut String, words: [u32; 16], index: usize) {
    use std::fmt::Write as _;
    out.push_str("rng");
    for w in words {
        let _ = write!(out, " {w}");
    }
    let _ = writeln!(out, " {index}");
}

/// Reads back what [`write_state_rng`] wrote.
///
/// # Errors
///
/// [`StateError::Corrupt`] on a malformed line or an index above 16.
pub fn read_state_rng(p: &mut StateParser<'_>) -> Result<([u32; 16], usize), StateError> {
    let rest = p.tagged("rng")?;
    let toks: [&str; 17] = p.tokens(rest)?;
    let mut words = [0u32; 16];
    for (w, tok) in words.iter_mut().zip(&toks) {
        *w = p.parse_token(tok, "rng word")?;
    }
    let index: usize = p.parse_token(toks[16], "rng word index")?;
    if index > 16 {
        return Err(p.corrupt(format!("rng word index {index} out of range")));
    }
    Ok((words, index))
}

/// Writes the live edge set of `graph` in canonical (ascending id) order: an
/// `edges <count>` line followed by one `e <id> <endpoints…>` line per edge.
pub fn write_state_graph(out: &mut String, graph: &crate::graph::DynamicHypergraph) {
    use std::fmt::Write as _;
    let edges = graph.snapshot_edges();
    let _ = writeln!(out, "edges {}", edges.len());
    for e in &edges {
        let _ = write!(out, "e {}", e.id.0);
        for v in e.vertices() {
            let _ = write!(out, " {}", v.0);
        }
        out.push('\n');
    }
}

/// Reads back what [`write_state_graph`] wrote, validating ids, ranks, and
/// vertex ranges so a damaged blob cannot panic the graph constructors.
///
/// # Errors
///
/// [`StateError::Corrupt`] on malformed or out-of-range edge lines.
pub fn read_state_graph(
    p: &mut StateParser<'_>,
    num_vertices: usize,
    max_rank: usize,
) -> Result<crate::graph::DynamicHypergraph, StateError> {
    let count: usize = {
        let rest = p.tagged("edges")?;
        p.parse_token(rest, "edge count")?
    };
    let mut graph = crate::graph::DynamicHypergraph::new(num_vertices);
    for _ in 0..count {
        let rest = p.tagged("e")?;
        let mut it = rest.split_whitespace();
        let id_tok = it.next().ok_or_else(|| p.corrupt("edge line without id"))?;
        let id = EdgeId(p.parse_token(id_tok, "edge id")?);
        if graph.contains_edge(id) {
            return Err(p.corrupt(format!("duplicate edge id {id}")));
        }
        let mut vertices = Vec::new();
        for tok in it {
            let v = VertexId(p.parse_token(tok, "vertex id")?);
            if v.index() >= num_vertices {
                return Err(p.corrupt(format!("vertex {v} out of range (n = {num_vertices})")));
            }
            vertices.push(v);
        }
        if vertices.is_empty() {
            return Err(p.corrupt(format!("edge {id} has no endpoints")));
        }
        if vertices.len() > max_rank {
            return Err(p.corrupt(format!(
                "edge {id} has rank {} > configured maximum {max_rank}",
                vertices.len()
            )));
        }
        graph.insert_edge(crate::types::HyperEdge::new(id, vertices));
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Reports and metrics
// ---------------------------------------------------------------------------

/// Summary of one successfully applied batch.
///
/// Every engine produces one through the shared [`run_batch_trusted`]
/// scaffold, so the fields mean the same thing regardless of which engine
/// filled them in.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// let report = engine
///     .apply_batch(&[Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))])
///     .unwrap();
/// assert_eq!(report.batch_size, 1);
/// assert_eq!(report.matching_size, 1);
/// assert!(!report.rebuilt);
/// // The per-batch metrics delta is reported uniformly by every engine:
/// assert_eq!(report.metrics.batches, 1);
/// assert_eq!(report.metrics.insertions, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Number of updates in the batch.
    pub batch_size: usize,
    /// Parallel rounds (depth) spent on this batch.
    pub depth: u64,
    /// Work units spent on this batch.
    pub work: u64,
    /// How many of the deletions hit matched edges.
    pub matched_deletions: usize,
    /// Size of the matching after the batch.
    pub matching_size: usize,
    /// Whether this batch rebuilt the matching from scratch: an `N`-doubling
    /// rebuild for the parallel algorithm, every batch for the recompute
    /// engines, never for the incremental-repair baselines.
    pub rebuilt: bool,
    /// The exact [`EngineMetrics`] delta of this batch (lifetime metrics after
    /// the batch minus before).  `metrics.work`/`metrics.depth` equal the
    /// flat [`BatchReport::work`]/[`BatchReport::depth`] fields; the delta
    /// additionally carries the per-batch update/insertion/deletion/rebuild
    /// counts so all engines report uniformly.
    pub metrics: EngineMetrics,
}

/// Lifetime counters every engine can report uniformly.
///
/// Engine-specific metrics (the epoch statistics of §4.2, say) stay on the
/// concrete type; these are the fields the harness tables need from *any* engine.
///
/// ```
/// use pdmm_hypergraph::engine::EngineMetrics;
///
/// let metrics = EngineMetrics { updates: 100, work: 450, ..EngineMetrics::default() };
/// assert_eq!(metrics.work_per_update(), 4.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Batches applied.
    pub batches: u64,
    /// Individual updates applied.
    pub updates: u64,
    /// Insertions applied.
    pub insertions: u64,
    /// Deletions applied.
    pub deletions: u64,
    /// Deletions that hit a matched edge (the expensive case).
    pub matched_deletions: u64,
    /// Total work units (cost model).
    pub work: u64,
    /// Total depth in parallel rounds (cost model).
    pub depth: u64,
    /// Full matching rebuilds: `N`-doubling rebuilds for the parallel
    /// algorithm, one per batch for the recompute engines, always zero for
    /// the incremental-repair baselines.
    pub rebuilds: u64,
}

impl EngineMetrics {
    /// Amortized work per update.
    #[must_use]
    pub fn work_per_update(&self) -> f64 {
        self.work as f64 / self.updates.max(1) as f64
    }

    /// Field-wise difference between two metric snapshots (`self` taken after
    /// `earlier`).  The shared [`run_batch_trusted`] scaffold uses this to
    /// derive the per-batch delta reported in [`BatchReport::metrics`].
    ///
    /// ```
    /// use pdmm_hypergraph::engine::EngineMetrics;
    ///
    /// let before = EngineMetrics { batches: 2, work: 10, ..EngineMetrics::default() };
    /// let after = EngineMetrics { batches: 3, work: 45, ..EngineMetrics::default() };
    /// let delta = after.since(&before);
    /// assert_eq!(delta.batches, 1);
    /// assert_eq!(delta.work, 35);
    /// ```
    #[must_use]
    pub fn since(&self, earlier: &EngineMetrics) -> EngineMetrics {
        EngineMetrics {
            batches: self.batches.saturating_sub(earlier.batches),
            updates: self.updates.saturating_sub(earlier.updates),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            deletions: self.deletions.saturating_sub(earlier.deletions),
            matched_deletions: self
                .matched_deletions
                .saturating_sub(earlier.matched_deletions),
            work: self.work.saturating_sub(earlier.work),
            depth: self.depth.saturating_sub(earlier.depth),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
        }
    }

    /// Field-wise sum, saturating at `u64::MAX` (a restored state blob may
    /// carry counters that high) — the inverse of [`EngineMetrics::since`],
    /// for accumulating per-batch deltas back into totals.
    ///
    /// ```
    /// use pdmm_hypergraph::engine::EngineMetrics;
    ///
    /// let mut total = EngineMetrics { batches: 2, work: 10, ..EngineMetrics::default() };
    /// total.merge(&EngineMetrics { batches: 1, work: 35, ..EngineMetrics::default() });
    /// assert_eq!(total.batches, 3);
    /// assert_eq!(total.work, 45);
    /// ```
    pub fn merge(&mut self, delta: &EngineMetrics) {
        self.batches = self.batches.saturating_add(delta.batches);
        self.updates = self.updates.saturating_add(delta.updates);
        self.insertions = self.insertions.saturating_add(delta.insertions);
        self.deletions = self.deletions.saturating_add(delta.deletions);
        self.matched_deletions = self
            .matched_deletions
            .saturating_add(delta.matched_deletions);
        self.work = self.work.saturating_add(delta.work);
        self.depth = self.depth.saturating_add(delta.depth);
        self.rebuilds = self.rebuilds.saturating_add(delta.rebuilds);
    }
}

/// Per-batch update counters shared by the baseline engines, and the shape of
/// the per-batch delta the [`run_batch_trusted`] scaffold hands to
/// [`BatchKernel::record_batch`].
///
/// (`pdmm-core` derives the same numbers from its richer §4.2 metrics.)
///
/// ```
/// use pdmm_hypergraph::engine::UpdateCounters;
///
/// let counters = UpdateCounters { batches: 2, updates: 10, ..UpdateCounters::default() };
/// let metrics = counters.into_metrics(40, 2);
/// assert_eq!(metrics.updates, 10);
/// assert_eq!(metrics.work, 40);
/// assert_eq!(metrics.rebuilds, 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateCounters {
    /// Batches applied.
    pub batches: u64,
    /// Individual updates applied.
    pub updates: u64,
    /// Insertions applied.
    pub insertions: u64,
    /// Deletions applied.
    pub deletions: u64,
    /// Deletions that hit a matched edge.
    pub matched_deletions: u64,
    /// Full matching rebuilds (every batch for the recompute engines, zero for
    /// the incremental-repair baselines).
    pub rebuilds: u64,
}

impl UpdateCounters {
    /// Folds the counters into an [`EngineMetrics`] with the given cost totals.
    #[must_use]
    pub fn into_metrics(self, work: u64, depth: u64) -> EngineMetrics {
        EngineMetrics {
            batches: self.batches,
            updates: self.updates,
            insertions: self.insertions,
            deletions: self.deletions,
            matched_deletions: self.matched_deletions,
            work,
            depth,
            rebuilds: self.rebuilds,
        }
    }

    /// Adds a per-batch delta (produced by the [`run_batch_trusted`]
    /// scaffold) into these lifetime counters, saturating at `u64::MAX`
    /// (a restored state blob may carry counters that high).
    ///
    /// ```
    /// use pdmm_hypergraph::engine::UpdateCounters;
    ///
    /// let mut lifetime = UpdateCounters { batches: 1, updates: 4, ..UpdateCounters::default() };
    /// lifetime.merge(&UpdateCounters { batches: 1, updates: 3, rebuilds: 1, ..UpdateCounters::default() });
    /// assert_eq!(lifetime.batches, 2);
    /// assert_eq!(lifetime.updates, 7);
    /// assert_eq!(lifetime.rebuilds, 1);
    /// ```
    pub fn merge(&mut self, delta: &UpdateCounters) {
        self.batches = self.batches.saturating_add(delta.batches);
        self.updates = self.updates.saturating_add(delta.updates);
        self.insertions = self.insertions.saturating_add(delta.insertions);
        self.deletions = self.deletions.saturating_add(delta.deletions);
        self.matched_deletions = self
            .matched_deletions
            .saturating_add(delta.matched_deletions);
        self.rebuilds = self.rebuilds.saturating_add(delta.rebuilds);
    }
}

/// One update refused by skip-and-report (lossy) validation, together with
/// the typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedUpdate {
    /// Position of the update in the submission order (counting every
    /// offered update, including deduplicated and rejected ones).
    pub index: usize,
    /// The refused update.
    pub update: Update,
    /// Why it was refused.
    pub error: BatchError,
}

/// Report of one skip-and-report (lossy) ingest: what was committed, what was
/// silently deduplicated, and what was rejected with which error.
///
/// Produced by `EngineService::drain_lossy` (one per drained batch) — the
/// ingest-pipeline recovery path where a dirty stream must not poison the
/// whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Report of the committed batch (the surviving subset of the updates).
    pub batch: BatchReport,
    /// Exact duplicates silently dropped during validation (not errors).
    pub deduplicated: usize,
    /// Per-update rejections, in submission order.
    pub rejected: Vec<RejectedUpdate>,
}

impl IngestReport {
    /// Total updates offered: committed plus deduplicated plus rejected.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.batch.batch_size + self.deduplicated + self.rejected.len()
    }
}

// ---------------------------------------------------------------------------
// Zero-copy matching view
// ---------------------------------------------------------------------------

/// Borrowing iterator over the ids of the current matching.
///
/// Engines build it straight over their internal tables: the matching itself is
/// never copied into a `Vec`.  The one cost per `matching()` call is the small
/// `Box` holding the iterator — required because [`MatchingEngine`] must stay
/// usable as a trait object.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
/// engine
///     .apply_batch(&[Update::Insert(HyperEdge::pair(EdgeId(3), VertexId(0), VertexId(1)))])
///     .unwrap();
/// // Iterate without materialising a Vec:
/// assert_eq!(engine.matching().count(), 1);
/// assert!(engine.matching().all(|id| id == EdgeId(3)));
/// ```
pub struct MatchingIter<'a> {
    inner: Box<dyn Iterator<Item = EdgeId> + 'a>,
}

impl<'a> MatchingIter<'a> {
    /// Wraps an engine-internal iterator.
    pub fn new(inner: impl Iterator<Item = EdgeId> + 'a) -> Self {
        MatchingIter {
            inner: Box::new(inner),
        }
    }
}

impl Iterator for MatchingIter<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl fmt::Debug for MatchingIter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MatchingIter")
    }
}

// ---------------------------------------------------------------------------
// The engine trait
// ---------------------------------------------------------------------------

/// A fully dynamic maximal-matching engine driven by update batches.
///
/// Implemented by the paper's parallel algorithm and every baseline; the bench
/// runner, the conformance suite, and the examples are written against this
/// trait only.
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let builder = EngineBuilder::new(6).rank(2).seed(42);
/// let mut engine = engine::build(EngineKind::Parallel, &builder);
/// engine
///     .apply_batch(&[
///         Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
///         Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
///     ])
///     .unwrap();
/// engine.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
/// assert_eq!(engine.matching_size(), 1);
/// assert!(engine.contains_edge(EdgeId(1)));
/// assert_eq!(engine.metrics().updates, 3);
/// engine.verify().unwrap();
/// ```
pub trait MatchingEngine {
    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Number of vertices of the underlying hypergraph.
    fn num_vertices(&self) -> usize;

    /// Whether `v` belongs to this engine's vertex space (`0..num_vertices`).
    ///
    /// O(1).  This is the ownership query a routing layer asks per endpoint
    /// when deciding where an update belongs — e.g. the sharded serving
    /// layer's merge side ([`crate::sharding`]) bounds-checks vertices against
    /// a shard's engine through it without touching any engine table.
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.num_vertices()
    }

    /// Maximum rank accepted by validation.
    fn max_rank(&self) -> usize;

    /// Whether an edge with this id is currently live (from the adversary's point
    /// of view — edges the algorithm has only *temporarily* deleted are live).
    fn contains_edge(&self, id: EdgeId) -> bool;

    /// Every live edge, temporarily deleted ones included, in ascending id
    /// order.  Sharded recovery rebuilds its router from this after
    /// [`MatchingEngine::restore_state`], so a checkpoint stores each edge
    /// once, inside the engine's state.
    fn live_edges(&self) -> Vec<HyperEdge>;

    /// Calls `f` once for every live edge at `v`, temporarily deleted ones
    /// included, with its endpoints, in no particular order; never for a
    /// vertex out of range.  Boundary arbitration's repair wave reads a
    /// vertex's edges through this, so a service keeps no graph of its own.
    fn for_each_incident_edge(&self, v: VertexId, f: &mut dyn FnMut(EdgeId, &[VertexId]));

    /// Validates `updates` against this engine's live state and mints the
    /// [`ValidatedBatch`] proof — the one legality pass of the batch.
    /// Discharge the proof with [`MatchingEngine::apply_batch_trusted`] before
    /// the engine changes.
    ///
    /// `delete X` followed by `insert X` in one batch is legal (deletions are
    /// processed first, §3.3); `insert X` followed by `delete X` is not, and
    /// neither is any repeat — even an exact copy (use
    /// [`MatchingEngine::validate_lossy`] to drop those instead).
    ///
    /// # Errors
    ///
    /// Returns the first violation in batch order; nothing was applied.
    fn validate<'u>(&self, updates: &'u [Update]) -> Result<ValidatedBatch<'u>, BatchError> {
        fold_strict(
            updates,
            |update| self.contains_edge(update.edge_id()),
            self.max_rank(),
            self.num_vertices(),
        )?;
        Ok(ValidatedBatch {
            updates,
            _proof: ValidationToken { _sealed: () },
        })
    }

    /// Skip-and-report validation: keeps the largest legal subsequence of
    /// `updates` a left-to-right scan finds, so a dirty stream cannot poison
    /// the whole batch.
    ///
    /// An exact repeat of a kept update (the same deletion id, or an
    /// insertion structurally equal to a kept one) is dropped and counted in
    /// [`LossyBatch::deduplicated`]; any other illegal update lands in
    /// [`LossyBatch::rejected`] with its submission index and the exact
    /// [`BatchError`] [`MatchingEngine::validate`] would return for the kept
    /// updates plus it.  [`LossyBatch::proof`] mints the [`ValidatedBatch`]
    /// for the survivors.
    ///
    /// ```
    /// use pdmm::engine::{self, BatchError, EngineBuilder, EngineKind};
    /// use pdmm::prelude::*;
    ///
    /// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
    /// let e = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)));
    /// let lossy = engine.validate_lossy(vec![
    ///     e.clone(),
    ///     e.clone(),                 // exact repeat: dropped
    ///     Update::Delete(EdgeId(7)), // unknown: rejected, not fatal
    /// ]);
    /// assert_eq!(lossy.survivors(), &[e]);
    /// assert_eq!(lossy.deduplicated, 1);
    /// assert_eq!(lossy.rejected[0].index, 2);
    /// assert_eq!(lossy.rejected[0].error, BatchError::UnknownDeletion { id: EdgeId(7) });
    /// let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
    /// assert_eq!(report.batch_size, 1);
    /// ```
    fn validate_lossy(&self, updates: Vec<Update>) -> LossyBatch {
        let (survivors, deduplicated, rejected) = fold_lossy(
            updates,
            |update| self.contains_edge(update.edge_id()),
            self.max_rank(),
            self.num_vertices(),
        );
        LossyBatch {
            survivors,
            deduplicated,
            rejected,
        }
    }

    /// Applies a batch that already carries its validation proof and restores
    /// maximality, without checking legality again.  Every in-tree engine
    /// implements this with [`run_batch_trusted`], run on its own pool.
    ///
    /// # Errors
    ///
    /// Cannot fire for engines routed through [`run_batch_trusted`]; the
    /// `Result` leaves room for engines whose kernels can fail.
    fn apply_batch_trusted(&mut self, batch: ValidatedBatch<'_>)
        -> Result<BatchReport, BatchError>;

    /// Applies one batch of simultaneous updates and restores maximality:
    /// [`MatchingEngine::validate`], then
    /// [`MatchingEngine::apply_batch_trusted`].
    ///
    /// # Errors
    ///
    /// Returns the first [`BatchError`] found in the batch; nothing was
    /// applied.
    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchReport, BatchError> {
        let proof = self.validate(updates)?;
        self.apply_batch_trusted(proof)
    }

    /// The current matching, iterated zero-copy out of the engine's state.
    fn matching(&self) -> MatchingIter<'_>;

    /// The net change to the matching since the previous call, under the
    /// [`MatchingDelta`] contract; a fresh or just-restored engine's first
    /// call returns its whole matching as `added`.
    ///
    /// Engines record each change as they make it, through one
    /// [`DeltaTracker`](crate::matching::DeltaTracker), so a call costs
    /// O(delta) and never scans the edge table.  The bookkeeping charges
    /// nothing to the cost model and is not part of
    /// [`MatchingEngine::save_state`].  The serve path publishes snapshots
    /// from it ([`crate::service`]).
    ///
    /// ```
    /// use pdmm::engine::{self, EngineBuilder, EngineKind};
    /// use pdmm::prelude::*;
    ///
    /// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(4));
    /// engine
    ///     .apply_batch(&[Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))])
    ///     .unwrap();
    /// let delta = engine.take_matching_delta();
    /// assert_eq!(delta.added[0].vertices(), &[VertexId(0), VertexId(1)]);
    /// engine.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
    /// assert_eq!(engine.take_matching_delta().removed, vec![EdgeId(0)]);
    /// ```
    fn take_matching_delta(&mut self) -> MatchingDelta;

    /// Current matching size.
    fn matching_size(&self) -> usize {
        self.matching().count()
    }

    /// The current matching collected into a vector (allocating convenience).
    fn matching_ids(&self) -> Vec<EdgeId> {
        self.matching().collect()
    }

    /// Verifies the engine's internal invariants (at minimum: the matching is
    /// valid and maximal on the engine's view of the graph).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    fn verify(&mut self) -> Result<(), String>;

    /// Uniform lifetime counters.
    fn metrics(&self) -> EngineMetrics;

    /// Serializes the engine's complete dynamic state as a canonical text
    /// blob, or `None` for engines without state serialization (the default).
    ///
    /// "Canonical" is a strong promise: the blob is a pure function of the
    /// engine's logical state, so two engines that reached the same state
    /// along different code paths — say, one recovered from a checkpoint and
    /// a clean twin that replayed the full history — produce *byte-identical*
    /// blobs.  The recovery tests lean on this to prove bit-exact recovery.
    fn save_state(&self) -> Option<String> {
        None
    }

    /// Restores state saved by [`MatchingEngine::save_state`] into this
    /// freshly built engine.
    ///
    /// The engine must have been built with the same configuration the blob
    /// was saved under and must not have applied any batches yet.  After a
    /// successful restore it behaves exactly as the saved engine would,
    /// including all future random draws.
    ///
    /// # Errors
    ///
    /// [`StateError::Unsupported`] for engines without state serialization
    /// (the default), [`StateError::NotFresh`] if this engine already applied
    /// batches, [`StateError::EngineMismatch`] / [`StateError::ConfigMismatch`]
    /// if the blob belongs to a different engine kind or configuration, and
    /// [`StateError::Corrupt`] if the blob is truncated, garbled, or
    /// internally inconsistent.  On error the engine is left untouched only
    /// for the mismatch/freshness variants; after `Corrupt` it must be
    /// discarded.
    fn restore_state(&mut self, blob: &str) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported {
            engine: self.name(),
        })
    }

    /// Applies every batch of a workload in order.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first invalid batch.
    fn apply_all(&mut self, batches: &[UpdateBatch]) -> Result<Vec<BatchReport>, BatchError> {
        let mut reports = Vec::with_capacity(batches.len());
        for batch in batches {
            reports.push(self.apply_batch(batch)?);
        }
        Ok(reports)
    }
}

// ---------------------------------------------------------------------------
// The shared batch pipeline
// ---------------------------------------------------------------------------

/// Process-lifetime count of per-update legality checks (see
/// [`validation_checks`]).
static VALIDATION_CHECKS: AtomicU64 = AtomicU64::new(0);

/// How many per-update legality checks this process has performed, lifetime.
///
/// Every legality decision in the workspace — [`MatchingEngine::validate`],
/// [`MatchingEngine::validate_lossy`], [`crate::types::UpdateBatch`]
/// construction, the `io` parser, `net` admission — flows through the one
/// [`BatchLedger::check`] machine, which bumps this counter once per update
/// checked.  The counter is the observability hook behind the
/// single-validation guarantee: the serve path
/// ([`crate::service::EngineService::submit`] → `drain` or `drain_lossy`)
/// performs **exactly one** check per offered update, which
/// `tests/hot_path_validation.rs` asserts by differencing this counter around
/// strict and lossy drains.
///
/// The counter is global and monotone (relaxed atomics; reads may interleave
/// with concurrent checks), so measure on a quiescent process or difference
/// within one thread of control.
#[must_use]
pub fn validation_checks() -> u64 {
    VALIDATION_CHECKS.load(AtomicOrdering::Relaxed)
}

/// Proof that a run of updates passed the full engine-context legality check
/// — the sealed handoff between the validation layer and the kernels.
///
/// A `ValidatedBatch` can only be minted by paying exactly one
/// [`BatchLedger`] pass against a live engine: [`MatchingEngine::validate`]
/// (strict) or [`LossyBatch::proof`] (the survivors of
/// [`MatchingEngine::validate_lossy`]).  The token inside is a zero-sized
/// sealed witness with a private constructor, so the *type system*, not
/// code-review discipline, guarantees [`run_batch_trusted`] never sees an
/// unvalidated update: there is no way to construct the proof without running
/// the validator.
///
/// The proof certifies validity **against the engine state at mint time**.
/// Discharge it before the engine changes (the in-tree callers mint and
/// discharge under one commit lock, with nothing in between).
///
/// ```
/// use pdmm::engine::{self, EngineBuilder, EngineKind};
/// use pdmm::prelude::*;
///
/// let mut engine = engine::build(EngineKind::Parallel, &EngineBuilder::new(10));
/// let updates = vec![Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1)))];
/// let proof = engine.validate(&updates).unwrap();
/// assert_eq!(proof.len(), 1);
/// assert_eq!(engine.apply_batch_trusted(proof).unwrap().matching_size, 1);
/// ```
///
/// The seal cannot be worked around — neither the struct nor its token can be
/// built by hand:
///
/// ```compile_fail
/// use pdmm_hypergraph::engine::ValidatedBatch;
/// use pdmm_hypergraph::types::Update;
/// let updates: Vec<Update> = Vec::new();
/// // ERROR: the proof field is private; validation cannot be skipped.
/// let forged = ValidatedBatch { updates: &updates[..] };
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ValidatedBatch<'a> {
    updates: &'a [Update],
    /// The sealed witness: only this module can produce one.
    _proof: ValidationToken,
}

/// Zero-sized sealed witness that a [`BatchLedger`] pass ran.  Its one field
/// is private, so no code outside `pdmm_hypergraph::engine` can construct it
/// — forging a [`ValidatedBatch`] is a compile error, not a code-review item.
///
/// ```compile_fail
/// use pdmm_hypergraph::engine::ValidationToken;
/// // ERROR: the field is private — proofs are minted, never forged.
/// let forged = ValidationToken { _sealed: () };
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ValidationToken {
    _sealed: (),
}

impl<'a> ValidatedBatch<'a> {
    /// The proven updates.
    #[must_use]
    pub fn updates(&self) -> &'a [Update] {
        self.updates
    }

    /// Number of updates in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// What [`MatchingEngine::validate_lossy`] kept of a dirty batch: the owned
/// survivors, which only validation can produce, plus the dedup count and
/// typed rejections an [`IngestReport`] carries.
///
/// Like a [`ValidatedBatch`], it certifies the survivors against the engine
/// state it was validated on; [`LossyBatch::proof`] hands them to
/// [`MatchingEngine::apply_batch_trusted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossyBatch {
    /// The kept updates, in submission order (private: the seal).
    survivors: Vec<Update>,
    /// Exact repeats dropped (not errors).
    pub deduplicated: usize,
    /// Per-update rejections, in submission order.
    pub rejected: Vec<RejectedUpdate>,
}

impl LossyBatch {
    /// The kept updates, in submission order.
    #[must_use]
    pub fn survivors(&self) -> &[Update] {
        &self.survivors
    }

    /// The proof for the survivors, to discharge through
    /// [`MatchingEngine::apply_batch_trusted`].
    #[must_use]
    pub fn proof(&self) -> ValidatedBatch<'_> {
        ValidatedBatch {
            updates: &self.survivors,
            _proof: ValidationToken { _sealed: () },
        }
    }
}

/// What an engine's recompute/repair kernel reports back to
/// [`run_batch_trusted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelOutcome {
    /// Deletions in this batch that removed a matched edge.
    pub matched_deletions: usize,
    /// Whether the kernel rebuilt the matching from scratch (every batch for
    /// the recompute engines, `N`-doubling batches for the parallel
    /// algorithm, never for the incremental-repair baselines).
    pub rebuilt: bool,
}

/// The per-engine kernel driven by the shared [`run_batch_trusted`] batch
/// pipeline.
///
/// [`run_batch_trusted`] owns everything the engines' batch implementations
/// used to copy-paste: empty-batch short-circuiting, lifetime-counter
/// bookkeeping, matched-deletion accounting, per-batch [`EngineMetrics`]
/// deltas, and [`BatchReport`] assembly.  An engine supplies only its
/// recompute/repair kernel plus a one-line counter fold, and wires
/// [`MatchingEngine::apply_batch_trusted`] to `run_batch_trusted(self, batch)`.
pub trait BatchKernel: MatchingEngine {
    /// Applies one validated, non-empty batch of updates and restores
    /// maximality.  The proof certifies the batch, so kernels may assume
    /// deletions name live edges and insertions carry fresh ids.
    fn run_kernel(&mut self, updates: &[Update]) -> KernelOutcome;

    /// Folds the scaffold's per-batch counter delta into the engine's
    /// lifetime counters (baselines: [`UpdateCounters::merge`]; the parallel
    /// algorithm updates its richer §4.2 metrics).
    fn record_batch(&mut self, delta: &UpdateCounters);
}

/// The shared batch pipeline: discharges a [`ValidatedBatch`] proof straight
/// into the engine's kernel, with **no** validation pass, then counts,
/// snapshots costs and assembles the [`BatchReport`].
///
/// Semantics every engine inherits by routing
/// [`MatchingEngine::apply_batch_trusted`] through here:
///
/// * the kernel only ever sees batches [`MatchingEngine::validate`] or
///   [`MatchingEngine::validate_lossy`] accepted, so each update is checked
///   exactly once end to end;
/// * the empty batch is a true no-op: an `Ok` report with `batch_size == 0`,
///   the current matching size, and a zeroed metrics delta, and **no**
///   lifetime counter is mutated;
/// * [`BatchReport::metrics`] is the exact [`EngineMetrics`] delta of this
///   batch, so every engine reports its per-batch costs uniformly.
///
/// Infallible by construction: the proof certifies the batch, so there is no
/// error path left.
pub fn run_batch_trusted<E: BatchKernel + ?Sized>(
    engine: &mut E,
    batch: ValidatedBatch<'_>,
) -> BatchReport {
    let updates = batch.updates();
    if updates.is_empty() {
        return BatchReport {
            matching_size: engine.matching_size(),
            ..BatchReport::default()
        };
    }
    let before = engine.metrics();
    let outcome = engine.run_kernel(updates);
    let insertions = updates.iter().filter(|u| u.is_insert()).count() as u64;
    engine.record_batch(&UpdateCounters {
        batches: 1,
        updates: updates.len() as u64,
        insertions,
        deletions: updates.len() as u64 - insertions,
        matched_deletions: outcome.matched_deletions as u64,
        rebuilds: u64::from(outcome.rebuilt),
    });
    let metrics = engine.metrics().since(&before);
    BatchReport {
        batch_size: updates.len(),
        depth: metrics.depth,
        work: metrics.work,
        matched_deletions: outcome.matched_deletions,
        matching_size: engine.matching_size(),
        rebuilt: outcome.rebuilt,
        metrics,
    }
}

/// Verdict of [`BatchLedger::check`] for an update that passed the shared
/// legality checks but repeats content the batch already contains.
///
/// Strict validation ([`MatchingEngine::validate`],
/// [`crate::types::UpdateBatch::new`]) treats both variants as errors; lossy
/// validation deduplicates exact copies instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateCheck {
    /// Fresh and legal: record it and include it in the batch.
    Fresh,
    /// An insertion whose id was already inserted in this batch.  Strict
    /// validation turns this into [`BatchError::DuplicateEdgeId`]; lossy
    /// validation compares the two edges structurally and deduplicates exact
    /// copies.
    RepeatedInsert {
        /// The position passed to [`BatchLedger::record`] for the earlier
        /// insertion of this id.
        at: usize,
    },
    /// A deletion of an id this batch already deletes.  Strict validation
    /// turns this into [`BatchError::DuplicateDeletion`]; lossy validation
    /// deduplicates.
    RepeatedDelete,
}

/// The id-tracking state of one in-flight batch plus the per-update legality
/// rules of the §2 update model — the **single** validation machine behind
/// the strict and lossy batch folds and the `io`/`net` per-line parsers, so
/// no two paths can drift (a differential property test pins them together).
///
/// The rules, per update kind:
///
/// * an insertion must respect the rank and vertex-range limits, and its id
///   must be fresh: not live before the batch (unless deleted earlier in the
///   batch) and not already inserted by the batch;
/// * a deletion must name a pre-batch live edge that the batch has not
///   already deleted; ids inserted by the batch itself cannot be deleted
///   (deletions are processed before insertions, §3.3), and a second
///   deletion of a delete-then-reinserted id is refused because one batch
///   cannot express delete/insert/delete.
///
/// ```
/// use pdmm_hypergraph::engine::{BatchLedger, UpdateCheck};
/// use pdmm_hypergraph::types::{EdgeId, HyperEdge, Update, VertexId};
///
/// let live = |id: EdgeId| id == EdgeId(0);
/// let mut ledger = BatchLedger::new();
/// let delete = Update::Delete(EdgeId(0));
/// assert_eq!(ledger.check(&delete, live, 2, 10), Ok(UpdateCheck::Fresh));
/// ledger.record(&delete, 0);
/// // Deleting the same pre-batch edge again repeats batch content …
/// assert_eq!(ledger.check(&delete, live, 2, 10), Ok(UpdateCheck::RepeatedDelete));
/// // … while re-inserting its id after the deletion is fresh and legal (§3.3).
/// let reinsert = Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(1), VertexId(2)));
/// assert_eq!(ledger.check(&reinsert, live, 2, 10), Ok(UpdateCheck::Fresh));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchLedger {
    /// Ids inserted so far, mapped to the position the caller recorded.
    inserted: FxHashMap<EdgeId, usize>,
    /// Ids deleted so far.
    deleted: FxHashSet<EdgeId>,
}

impl BatchLedger {
    /// An empty ledger: no updates recorded yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty ledger with room for every update of `updates`, so folding
    /// them never rehashes.
    fn sized_for(updates: &[Update]) -> Self {
        let inserts = updates
            .iter()
            .filter(|u| matches!(u, Update::Insert(_)))
            .count();
        BatchLedger {
            inserted: FxHashMap::with_capacity_and_hasher(inserts, Default::default()),
            deleted: FxHashSet::with_capacity_and_hasher(
                updates.len() - inserts,
                Default::default(),
            ),
        }
    }

    /// Checks one update against the engine-level live predicate and
    /// everything recorded so far, without recording it.
    ///
    /// # Errors
    ///
    /// Returns the [`BatchError`] this update would trigger in a batch made of
    /// the recorded updates.
    pub fn check(
        &self,
        update: &Update,
        is_live: impl Fn(EdgeId) -> bool,
        max_rank: usize,
        num_vertices: usize,
    ) -> Result<UpdateCheck, BatchError> {
        // Every per-update legality decision in the workspace lands here, so
        // one relaxed bump gives an exact global check count — the hook the
        // single-validation tests difference.
        VALIDATION_CHECKS.fetch_add(1, AtomicOrdering::Relaxed);
        match update {
            Update::Insert(edge) => {
                if edge.rank() > max_rank {
                    return Err(BatchError::RankExceeded {
                        id: edge.id,
                        rank: edge.rank(),
                        max_rank,
                    });
                }
                if let Some(&v) = edge.vertices().iter().find(|v| v.index() >= num_vertices) {
                    return Err(BatchError::VertexOutOfRange {
                        id: edge.id,
                        vertex: v,
                        num_vertices,
                    });
                }
                if let Some(&at) = self.inserted.get(&edge.id) {
                    return Ok(UpdateCheck::RepeatedInsert { at });
                }
                if is_live(edge.id) && !self.deleted.contains(&edge.id) {
                    return Err(BatchError::DuplicateEdgeId { id: edge.id });
                }
                Ok(UpdateCheck::Fresh)
            }
            Update::Delete(id) => {
                if self.deleted.contains(id) {
                    // A second deletion of the same pre-batch edge.  If the id
                    // was re-inserted after the recorded deletion, this targets
                    // the *new* edge, which a single batch cannot express
                    // (deletions run first, §3.3) — an error for strict and
                    // lossy validation alike, never a dedup.
                    return if self.inserted.contains_key(id) {
                        Err(BatchError::DuplicateDeletion { id: *id })
                    } else {
                        Ok(UpdateCheck::RepeatedDelete)
                    };
                }
                if self.inserted.contains_key(id) || !is_live(*id) {
                    return Err(BatchError::UnknownDeletion { id: *id });
                }
                Ok(UpdateCheck::Fresh)
            }
        }
    }

    /// Records a [`UpdateCheck::Fresh`] update at position `at` (the lossy
    /// fold passes the survivor index, the strict fold the batch index; the
    /// value is only echoed back through [`UpdateCheck::RepeatedInsert`]).
    pub fn record(&mut self, update: &Update, at: usize) {
        match update {
            Update::Insert(edge) => {
                self.inserted.insert(edge.id, at);
            }
            Update::Delete(id) => {
                self.deleted.insert(*id);
            }
        }
    }
}

/// The strict batch fold: every update must be [`UpdateCheck::Fresh`], and a
/// repeat — even an exact copy — is a `Duplicate*` error.
///
/// Shared by [`MatchingEngine::validate`] and
/// [`crate::types::UpdateBatch::new`], which differ only in what they pass:
/// `live(update)` says whether the edge `update` names was live before the
/// batch, and `max_rank`/`num_vertices` bound insertions.
pub(crate) fn fold_strict(
    updates: &[Update],
    live: impl Fn(&Update) -> bool,
    max_rank: usize,
    num_vertices: usize,
) -> Result<(), BatchError> {
    let mut ledger = BatchLedger::sized_for(updates);
    for (at, update) in updates.iter().enumerate() {
        let id = update.edge_id();
        match ledger.check(update, |_| live(update), max_rank, num_vertices)? {
            UpdateCheck::Fresh => ledger.record(update, at),
            UpdateCheck::RepeatedInsert { .. } => return Err(BatchError::DuplicateEdgeId { id }),
            UpdateCheck::RepeatedDelete => return Err(BatchError::DuplicateDeletion { id }),
        }
    }
    Ok(())
}

/// The lossy batch fold: keeps every [`UpdateCheck::Fresh`] update, drops
/// exact repeats of kept ones, and rejects the rest with the error strict
/// validation would return for the kept updates plus it.  Returns
/// `(survivors, deduplicated, rejected)`.
///
/// Shared by [`MatchingEngine::validate_lossy`] and
/// [`crate::types::UpdateBatch::new_lossy`], with the same parameters as
/// [`fold_strict`].
pub(crate) fn fold_lossy(
    updates: Vec<Update>,
    live: impl Fn(&Update) -> bool,
    max_rank: usize,
    num_vertices: usize,
) -> (Vec<Update>, usize, Vec<RejectedUpdate>) {
    let mut ledger = BatchLedger::sized_for(&updates);
    let mut survivors: Vec<Update> = Vec::with_capacity(updates.len());
    let mut deduplicated = 0;
    let mut rejected = Vec::new();
    for (index, update) in updates.into_iter().enumerate() {
        let error = match ledger.check(&update, |_| live(&update), max_rank, num_vertices) {
            Ok(UpdateCheck::Fresh) => {
                ledger.record(&update, survivors.len());
                survivors.push(update);
                continue;
            }
            // A structurally identical repeat is dropped; a different edge
            // under a kept id is a conflict.
            Ok(UpdateCheck::RepeatedInsert { at }) if survivors[at] == update => {
                deduplicated += 1;
                continue;
            }
            Ok(UpdateCheck::RepeatedInsert { .. }) => BatchError::DuplicateEdgeId {
                id: update.edge_id(),
            },
            Ok(UpdateCheck::RepeatedDelete) => {
                deduplicated += 1;
                continue;
            }
            Err(error) => error,
        };
        rejected.push(RejectedUpdate {
            index,
            update,
            error,
        });
    }
    (survivors, deduplicated, rejected)
}

// ---------------------------------------------------------------------------
// Builder and engine registry
// ---------------------------------------------------------------------------

/// Uniform configuration for every engine, replacing the per-engine `Config`
/// constructors (`Config::for_graphs`, `with_defaults`, bare seeds, …).
///
/// ```
/// use pdmm_hypergraph::engine::EngineBuilder;
///
/// let builder = EngineBuilder::new(1_000)
///     .rank(3)
///     .seed(42)
///     .threads(8)
///     .capacity_hint(100_000)
///     .check_invariants(false);
/// assert_eq!(builder.max_rank, 3);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    /// Number of vertices of the hypergraph.
    pub num_vertices: usize,
    /// Maximum rank any inserted hyperedge may have (`α = 4·max_rank`).
    pub max_rank: usize,
    /// Seed for all engine randomness (oblivious-adversary model: streams must be
    /// generated independently of it).
    pub seed: u64,
    /// Thread budget for parallel engines (`None`: use the global pool).
    ///
    /// Engines with parallel phases turn this into an owned [`EnginePool`] at
    /// construction and run every batch on it, so the worker count is bounded
    /// end to end — this is what the E9 thread-scaling experiment varies.
    pub threads: Option<usize>,
    /// Expected total number of updates; sizes the `N` bound so early batches do
    /// not trigger rebuilds.
    pub capacity_hint: usize,
    /// Verify the full invariant set after every batch (expensive; tests only).
    pub check_invariants: bool,
}

impl EngineBuilder {
    /// A rank-2, seed-0 configuration on `num_vertices` vertices.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        EngineBuilder {
            num_vertices,
            max_rank: 2,
            seed: 0,
            threads: None,
            capacity_hint: 0,
            check_invariants: false,
        }
    }

    /// Sets the maximum hyperedge rank (must be ≥ 1).
    #[must_use]
    pub fn rank(mut self, max_rank: usize) -> Self {
        assert!(max_rank >= 1, "rank must be at least 1");
        self.max_rank = max_rank;
        self
    }

    /// Sets the randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread budget (the worker count of the engine's [`EnginePool`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the expected total number of updates.
    #[must_use]
    pub fn capacity_hint(mut self, updates: usize) -> Self {
        self.capacity_hint = updates;
        self
    }

    /// Enables or disables per-batch invariant checking.
    #[must_use]
    pub fn check_invariants(mut self, enabled: bool) -> Self {
        self.check_invariants = enabled;
        self
    }
}

// ---------------------------------------------------------------------------
// Engine-owned thread pools
// ---------------------------------------------------------------------------

/// The worker pool an engine runs its parallel phases on.
///
/// Built from [`EngineBuilder::threads`]: `Some(t)` owns a dedicated
/// work-stealing pool of `t` workers (shared by clones of this handle), `None`
/// delegates to the process-global pool.  Engines wrap each `apply_batch` in
/// [`EnginePool::install`], which makes the bounded pool ambient for the
/// batch.  Today one step beneath it runs on the pool: Luby's priority map,
/// and only while more than 2,048 candidate edges are alive.
///
/// ```
/// use pdmm_hypergraph::engine::{EngineBuilder, EnginePool};
///
/// let pool = EnginePool::from_builder(&EngineBuilder::new(10).threads(2));
/// assert_eq!(pool.num_threads(), Some(2));
/// // Parallel work inside `install` runs on (at most) the 2 bounded workers.
/// let sum = pool.install(|| (0..100u64).sum::<u64>());
/// assert_eq!(sum, 4950);
///
/// // Without a thread budget the global pool is used.
/// let ambient = EnginePool::from_builder(&EngineBuilder::new(10));
/// assert_eq!(ambient.num_threads(), None);
/// assert_eq!(ambient.install(|| 7), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnginePool {
    pool: Option<Arc<rayon::ThreadPool>>,
}

impl EnginePool {
    /// The pool an [`EngineBuilder`] describes.
    ///
    /// # Panics
    ///
    /// Panics if the underlying thread pool cannot be constructed (the
    /// in-tree pool never fails to build).
    #[must_use]
    pub fn from_builder(builder: &EngineBuilder) -> Self {
        EnginePool {
            pool: builder.threads.map(|threads| {
                Arc::new(
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads.max(1))
                        .build()
                        .expect("engine thread pool construction failed"),
                )
            }),
        }
    }

    /// The bounded worker count, or `None` when delegating to the global pool.
    #[must_use]
    pub fn num_threads(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.current_num_threads())
    }

    /// Runs `op` with this pool ambient: on the bounded pool's workers if one
    /// was configured, else in place (global pool for any parallel calls).
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }
}

/// The engines the workspace ships; the facade's `pdmm::engine::build` turns a
/// kind plus an [`EngineBuilder`] into a boxed [`MatchingEngine`].
///
/// ```
/// use pdmm_hypergraph::engine::EngineKind;
///
/// assert_eq!(EngineKind::ALL.len(), 5);
/// assert_eq!(EngineKind::Parallel.to_string(), "parallel-dynamic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's parallel batch-dynamic algorithm (`pdmm-core`).
    Parallel,
    /// One-update-at-a-time greedy repair (§3.1 strawman).
    NaiveSequential,
    /// Sequential repair with uniformly random replacement choices.
    RandomReplace,
    /// Recompute with the parallel static matcher (Luby) after every batch.
    RecomputeSequential,
    /// Recompute with the sequential greedy scan after every batch.
    StaticRecompute,
}

impl EngineKind {
    /// Every engine kind, in the order the experiment tables list them.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Parallel,
        EngineKind::NaiveSequential,
        EngineKind::RandomReplace,
        EngineKind::RecomputeSequential,
        EngineKind::StaticRecompute,
    ];

    /// The engine's stable display name (matches [`MatchingEngine::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Parallel => "parallel-dynamic",
            EngineKind::NaiveSequential => "naive-sequential",
            EngineKind::RandomReplace => "random-replace-sequential",
            EngineKind::RecomputeSequential => "recompute-from-scratch",
            EngineKind::StaticRecompute => "static-recompute",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The one test fixture engine, shared by the `engine` and `service` unit
/// tests: keep the graph, recompute greedily.  Enough to exercise the
/// trait's provided methods and the service without the real engines (which
/// live in downstream crates).
#[cfg(test)]
pub(crate) mod toy {
    use super::*;
    use crate::graph::DynamicHypergraph;
    use crate::matching::{greedy_maximal_matching, verify_maximality, DeltaTracker};

    pub(crate) struct ToyEngine {
        graph: DynamicHypergraph,
        matching: Vec<EdgeId>,
        delta: DeltaTracker,
        counters: UpdateCounters,
    }

    impl ToyEngine {
        pub(crate) fn new(num_vertices: usize) -> Self {
            ToyEngine {
                graph: DynamicHypergraph::new(num_vertices),
                matching: Vec::new(),
                delta: DeltaTracker::default(),
                counters: UpdateCounters::default(),
            }
        }

        pub(crate) fn boxed(num_vertices: usize) -> Box<dyn MatchingEngine + Send> {
            Box::new(ToyEngine::new(num_vertices))
        }
    }

    impl MatchingEngine for ToyEngine {
        fn name(&self) -> &'static str {
            "toy-recompute"
        }

        fn num_vertices(&self) -> usize {
            self.graph.num_vertices()
        }

        fn max_rank(&self) -> usize {
            3
        }

        fn contains_edge(&self, id: EdgeId) -> bool {
            self.graph.contains_edge(id)
        }

        fn live_edges(&self) -> Vec<HyperEdge> {
            self.graph.snapshot_edges()
        }

        fn for_each_incident_edge(&self, v: VertexId, f: &mut dyn FnMut(EdgeId, &[VertexId])) {
            self.graph.for_each_incident_edge(v, f);
        }

        fn apply_batch_trusted(
            &mut self,
            batch: ValidatedBatch<'_>,
        ) -> Result<BatchReport, BatchError> {
            Ok(run_batch_trusted(self, batch))
        }

        fn matching(&self) -> MatchingIter<'_> {
            MatchingIter::new(self.matching.iter().copied())
        }

        fn take_matching_delta(&mut self) -> MatchingDelta {
            self.delta.take()
        }

        fn verify(&mut self) -> Result<(), String> {
            verify_maximality(&self.graph, &self.matching).map_err(|e| format!("{e:?}"))
        }

        fn metrics(&self) -> EngineMetrics {
            self.counters.into_metrics(0, 0)
        }
    }

    impl BatchKernel for ToyEngine {
        fn run_kernel(&mut self, updates: &[Update]) -> KernelOutcome {
            let matched_deletions = updates
                .iter()
                .filter(|u| matches!(u, Update::Delete(id) if self.matching.contains(id)))
                .count();
            self.delta.retire(&self.matching, &self.graph);
            self.graph.apply_batch(updates);
            self.matching = greedy_maximal_matching(&self.graph);
            self.delta.adopt(&self.matching, &self.graph);
            KernelOutcome {
                matched_deletions,
                rebuilt: true,
            }
        }

        fn record_batch(&mut self, delta: &UpdateCounters) {
            self.counters.merge(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::toy::ToyEngine;
    use super::*;
    use crate::types::HyperEdge;

    fn pair(id: u64, a: u32, b: u32) -> HyperEdge {
        HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b))
    }

    /// Edge 7 is live; rank ≤ 2 on 10 vertices.
    fn strict(updates: &[Update]) -> Result<(), BatchError> {
        fold_strict(updates, |u| u.edge_id() == EdgeId(7), 2, 10)
    }

    #[test]
    fn apply_all_and_matching_defaults_work() {
        let mut engine = ToyEngine::new(6);
        let batches: Vec<UpdateBatch> = vec![
            UpdateBatch::new(vec![
                Update::Insert(pair(0, 0, 1)),
                Update::Insert(pair(1, 2, 3)),
            ])
            .unwrap(),
            UpdateBatch::new(vec![Update::Delete(EdgeId(0))]).unwrap(),
            UpdateBatch::new(vec![Update::Insert(pair(2, 1, 4))]).unwrap(),
        ];
        let reports = engine.apply_all(&batches).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(engine.name(), "toy-recompute");
        assert_eq!(engine.matching_size(), engine.matching_ids().len());
        assert_eq!(engine.metrics().batches, 3);
        engine.verify().unwrap();
    }

    #[test]
    fn strict_fold_catches_every_error_kind() {
        assert_eq!(strict(&[Update::Delete(EdgeId(7))]), Ok(()));
        assert_eq!(
            strict(&[Update::Delete(EdgeId(9))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(9) })
        );
        assert_eq!(
            strict(&[Update::Delete(EdgeId(7)), Update::Delete(EdgeId(7))]),
            Err(BatchError::DuplicateDeletion { id: EdgeId(7) })
        );
        assert_eq!(
            strict(&[Update::Insert(pair(7, 0, 1))]),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(7) })
        );
        assert_eq!(
            strict(&[Update::Insert(pair(1, 0, 1)), Update::Insert(pair(1, 2, 3))]),
            Err(BatchError::DuplicateEdgeId { id: EdgeId(1) })
        );
        assert_eq!(
            strict(&[Update::Insert(HyperEdge::new(
                EdgeId(1),
                vec![VertexId(0), VertexId(1), VertexId(2)]
            ))]),
            Err(BatchError::RankExceeded {
                id: EdgeId(1),
                rank: 3,
                max_rank: 2
            })
        );
        assert_eq!(
            strict(&[Update::Insert(pair(1, 0, 99))]),
            Err(BatchError::VertexOutOfRange {
                id: EdgeId(1),
                vertex: VertexId(99),
                num_vertices: 10
            })
        );
        // delete X then insert X in one batch is legal (§3.3 ordering) …
        assert_eq!(
            strict(&[Update::Delete(EdgeId(7)), Update::Insert(pair(7, 0, 1))]),
            Ok(())
        );
        // … but insert X then delete X is not.
        assert_eq!(
            strict(&[Update::Insert(pair(1, 0, 1)), Update::Delete(EdgeId(1))]),
            Err(BatchError::UnknownDeletion { id: EdgeId(1) })
        );
    }

    #[test]
    fn builder_defaults_and_setters() {
        let b = EngineBuilder::new(100);
        assert_eq!(b.num_vertices, 100);
        assert_eq!(b.max_rank, 2);
        assert_eq!(b.seed, 0);
        assert_eq!(b.threads, None);
        assert!(!b.check_invariants);
        let b = b
            .rank(4)
            .seed(9)
            .threads(2)
            .capacity_hint(50)
            .check_invariants(true);
        assert_eq!(b.max_rank, 4);
        assert_eq!(b.seed, 9);
        assert_eq!(b.threads, Some(2));
        assert_eq!(b.capacity_hint, 50);
        assert!(b.check_invariants);
    }

    #[test]
    fn engine_kinds_have_stable_names() {
        assert_eq!(EngineKind::ALL.len(), 5);
        let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "parallel-dynamic",
                "naive-sequential",
                "random-replace-sequential",
                "recompute-from-scratch",
                "static-recompute",
            ]
        );
        assert_eq!(EngineKind::Parallel.to_string(), "parallel-dynamic");
    }

    #[test]
    fn empty_batch_is_a_counter_neutral_noop() {
        let mut engine = ToyEngine::new(4);
        let report = engine.apply_batch(&[]).unwrap();
        assert_eq!(report, BatchReport::default());
        assert_eq!(engine.metrics(), EngineMetrics::default());

        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();
        let before = engine.metrics();
        let report = engine.apply_batch(&[]).unwrap();
        assert_eq!(report.batch_size, 0);
        assert_eq!(report.matching_size, 1, "reports the current matching");
        assert_eq!(report.metrics, EngineMetrics::default());
        assert_eq!(engine.metrics(), before, "empty batch mutated counters");
    }

    #[test]
    fn scaffold_reports_per_batch_metric_deltas() {
        let mut engine = ToyEngine::new(6);
        let r1 = engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1)), Update::Insert(pair(1, 2, 3))])
            .unwrap();
        assert_eq!(r1.metrics.batches, 1);
        assert_eq!(r1.metrics.updates, 2);
        assert_eq!(r1.metrics.insertions, 2);
        assert_eq!(r1.metrics.deletions, 0);
        assert_eq!(r1.metrics.rebuilds, 1, "the toy engine rebuilds per batch");
        assert!(r1.rebuilt);
        let r2 = engine.apply_batch(&[Update::Delete(EdgeId(0))]).unwrap();
        assert_eq!(r2.metrics.deletions, 1);
        assert_eq!(r2.metrics.matched_deletions, 1);
        assert_eq!(r2.matched_deletions, 1);
        // Deltas sum to the lifetime metrics.
        let m = engine.metrics();
        assert_eq!(m.batches, 2);
        assert_eq!(m.updates, 3);
        assert_eq!(m.matched_deletions, 1);
        assert_eq!(m.rebuilds, 2);
    }

    #[test]
    fn lossy_validation_skips_and_reports_instead_of_failing() {
        let mut engine = ToyEngine::new(6);
        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();

        let lossy = engine.validate_lossy(vec![
            Update::Insert(pair(1, 2, 3)),  // 0: kept
            Update::Insert(pair(1, 2, 3)),  // 1: exact dup, dropped
            Update::Insert(pair(1, 4, 5)),  // 2: conflicting id, rejected
            Update::Insert(pair(0, 4, 5)),  // 3: live id, rejected
            Update::Delete(EdgeId(42)),     // 4: unknown, rejected
            Update::Delete(EdgeId(0)),      // 5: kept
            Update::Insert(pair(9, 0, 77)), // 6: out of range, rejected
            Update::Insert(HyperEdge::new(EdgeId(9), (0..4).map(VertexId).collect())), // 7: rank > 3, rejected
            Update::Delete(EdgeId(1)), // 8: deletes an id this batch inserts (§3.3), rejected
        ]);
        assert_eq!(
            lossy.survivors(),
            &[Update::Insert(pair(1, 2, 3)), Update::Delete(EdgeId(0))]
        );
        assert_eq!(lossy.deduplicated, 1);
        let expected: Vec<(usize, BatchError)> = vec![
            (2, BatchError::DuplicateEdgeId { id: EdgeId(1) }),
            (3, BatchError::DuplicateEdgeId { id: EdgeId(0) }),
            (4, BatchError::UnknownDeletion { id: EdgeId(42) }),
            (
                6,
                BatchError::VertexOutOfRange {
                    id: EdgeId(9),
                    vertex: VertexId(77),
                    num_vertices: 6,
                },
            ),
            (
                7,
                BatchError::RankExceeded {
                    id: EdgeId(9),
                    rank: 4,
                    max_rank: 3,
                },
            ),
            (8, BatchError::UnknownDeletion { id: EdgeId(1) }),
        ];
        let got: Vec<(usize, BatchError)> = lossy
            .rejected
            .iter()
            .map(|r| (r.index, r.error.clone()))
            .collect();
        assert_eq!(got, expected);
        // The survivors pass strict validation and commit: edge 0 replaced
        // by edge 1.
        assert!(engine.validate(lossy.survivors()).is_ok());
        let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
        assert_eq!(report.batch_size, 2);
        assert!(!engine.contains_edge(EdgeId(0)));
        assert!(engine.contains_edge(EdgeId(1)));
        engine.verify().unwrap();
    }

    #[test]
    fn lossy_validation_rejects_delete_of_a_reinserted_id() {
        let mut engine = ToyEngine::new(4);
        engine
            .apply_batch(&[Update::Insert(pair(0, 0, 1))])
            .unwrap();
        // Deleting id 0 again targets the re-inserted edge; one batch cannot
        // express delete/insert/delete, so this must be an error — not a
        // silent dedup that would drop the caller's request.
        let lossy = engine.validate_lossy(vec![
            Update::Delete(EdgeId(0)),
            Update::Insert(pair(0, 2, 3)),
            Update::Delete(EdgeId(0)),
        ]);
        assert_eq!(lossy.survivors().len(), 2);
        assert_eq!(lossy.deduplicated, 0);
        assert_eq!(
            lossy.rejected[0].error,
            BatchError::DuplicateDeletion { id: EdgeId(0) }
        );
        engine.apply_batch_trusted(lossy.proof()).unwrap();
        assert!(engine.contains_edge(EdgeId(0)));
    }

    #[test]
    fn lossy_commit_of_nothing_is_a_noop() {
        let mut engine = ToyEngine::new(4);
        let lossy = engine.validate_lossy(vec![Update::Delete(EdgeId(3))]);
        assert_eq!(lossy.rejected.len(), 1);
        let report = engine.apply_batch_trusted(lossy.proof()).unwrap();
        assert_eq!(report.batch_size, 0);
        assert_eq!(engine.metrics(), EngineMetrics::default());
    }

    #[test]
    fn ledger_and_strict_fold_agree_on_every_error_kind() {
        // Every BatchError kind, checked through both entry points.
        let live = |id: EdgeId| id == EdgeId(7);
        let cases: Vec<(Update, BatchError)> = vec![
            (
                Update::Delete(EdgeId(9)),
                BatchError::UnknownDeletion { id: EdgeId(9) },
            ),
            (
                Update::Insert(pair(7, 0, 1)),
                BatchError::DuplicateEdgeId { id: EdgeId(7) },
            ),
            (
                Update::Insert(HyperEdge::new(
                    EdgeId(1),
                    vec![VertexId(0), VertexId(1), VertexId(2)],
                )),
                BatchError::RankExceeded {
                    id: EdgeId(1),
                    rank: 3,
                    max_rank: 2,
                },
            ),
            (
                Update::Insert(pair(1, 0, 99)),
                BatchError::VertexOutOfRange {
                    id: EdgeId(1),
                    vertex: VertexId(99),
                    num_vertices: 10,
                },
            ),
        ];
        for (update, expected) in cases {
            let ledger = BatchLedger::new();
            assert_eq!(
                ledger.check(&update, live, 2, 10),
                Err(expected.clone()),
                "{update:?}"
            );
            assert_eq!(
                strict(std::slice::from_ref(&update)),
                Err(expected),
                "{update:?}"
            );
        }
    }

    #[test]
    fn batch_error_messages_name_the_edge() {
        let msg = BatchError::UnknownDeletion { id: EdgeId(3) }.to_string();
        assert!(msg.contains("e3"), "message should name the edge: {msg}");
        let msg = BatchError::RankExceeded {
            id: EdgeId(1),
            rank: 5,
            max_rank: 2,
        }
        .to_string();
        assert!(msg.contains("rank 5"));
    }
}
