//! The serve path: a long-lived, concurrency-safe service over any engine.
//!
//! The bench drivers exercise the algorithm one-shot: build an engine, feed it a
//! pre-generated workload, read the final matching.  A production matcher is a
//! *service*: updates arrive over time from many producers, queries must not
//! stall behind a committing batch, and the whole update history must be
//! recoverable after a restart.  [`EngineService`] owns a [`MatchingEngine`]
//! and adds exactly those three capabilities:
//!
//! * **snapshot reads** — [`EngineService::snapshot`] hands out an
//!   `Arc<`[`MatchingSnapshot`]`>`: an immutable view of the matching (size,
//!   sorted matched-edge set, per-vertex lookup) taken at a committed batch
//!   boundary.  Readers clone the `Arc` under a lock held for nanoseconds, then
//!   query lock-free for as long as they like — a snapshot stays consistent
//!   while the next batch commits.  Each publish folds the engine's matching
//!   delta ([`MatchingEngine::take_matching_delta`]) into the previous
//!   snapshot: it copies the flat id and endpoint arrays and the vertex map,
//!   and scans no edge table;
//! * **a submission queue with backpressure** — producers
//!   [`EngineService::submit`] validated [`UpdateBatch`]es; when the bounded
//!   queue is full, `submit` blocks (and [`EngineService::try_submit`] hands
//!   the batch back) until a drain makes room.  [`EngineService::drain`]
//!   commits each queued batch through the single-validation hot path: one
//!   legality pass mints the [`crate::engine::ValidatedBatch`] proof
//!   ([`MatchingEngine::validate`]) and the commit discharges it through
//!   [`MatchingEngine::apply_batch_trusted`] — no second validation anywhere
//!   on the serve path;
//! * **persistence and replay** — every committed batch is journaled in the
//!   [`crate::io`] update-stream format ([`EngineService::journal`]) through a
//!   pluggable [`JournalSink`] (in-memory by default, [`FileJournal`] for an
//!   append-only rotated file), and [`EngineService::replay`] rebuilds a
//!   service from a journal on a fresh engine.  With the same engine kind and
//!   seed, replay reproduces the exact matching, bit for bit, because the
//!   journal preserves committed batch boundaries and every engine is
//!   deterministic given (seed, batch sequence).
//!
//! Two serve-path variations: [`EngineService::drain_lossy`] drains in
//! skip-and-report mode (dirty streams cannot poison a drain), and
//! [`EngineService::with_snapshot_every`] throttles snapshot publishing for
//! huge matchings under tiny batches.  To scale commits past this one
//! engine's lock, shard the vertex space with [`crate::sharding`].
//!
//! ```
//! use pdmm::engine::{self, EngineBuilder, EngineKind};
//! use pdmm::prelude::*;
//! use pdmm::service::EngineService;
//!
//! let builder = EngineBuilder::new(8).seed(7);
//! let service = EngineService::new(engine::build(EngineKind::Parallel, &builder));
//!
//! // Producers submit validated batches; a drain commits them.
//! let batch = UpdateBatch::new(vec![
//!     Update::Insert(HyperEdge::pair(EdgeId(0), VertexId(0), VertexId(1))),
//!     Update::Insert(HyperEdge::pair(EdgeId(1), VertexId(2), VertexId(3))),
//! ])
//! .unwrap();
//! service.submit(batch);
//! service.drain().unwrap();
//!
//! // Snapshot reads are cheap and stay consistent while later batches commit.
//! let snap = service.snapshot();
//! assert_eq!(snap.size(), 2);
//! assert_eq!(snap.matched_edge_of(VertexId(2)), Some(EdgeId(1)));
//!
//! // The journal replays to a bit-identical matching on a fresh engine.
//! let replayed =
//!     EngineService::replay(engine::build(EngineKind::Parallel, &builder), &service.journal())
//!         .unwrap();
//! assert_eq!(replayed.snapshot().edge_ids(), snap.edge_ids());
//! ```

use crate::checkpoint::{self, CheckpointError};
use crate::engine::{BatchError, BatchReport, EngineMetrics, IngestReport, MatchingEngine};
use crate::graph::DynamicHypergraph;
use crate::io::{self, ParseError};
use crate::matching::MatchingDelta;
use crate::types::{EdgeId, HyperEdge, Update, UpdateBatch, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default bound of the submission queue (batches, not updates).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Journal sinks
// ---------------------------------------------------------------------------

/// Where a service's journal of committed batches is written.
///
/// The journal is the service's recovery story: every committed batch is
/// appended as one block in the [`crate::io`] update-stream format, and
/// [`EngineService::replay`] rebuilds bit-identical state from the
/// concatenation of those blocks.  The default sink is [`MemoryJournal`] (the
/// pre-sink behavior: the journal lives in a `String` until the caller writes
/// it out); [`FileJournal`] appends to disk with a flush-on-commit policy and
/// simple size-based rotation.  A sharded service gives each shard its own
/// sink, so per-shard journals can land in per-shard files.
///
/// Sinks are infallible from the service's point of view: a sink that cannot
/// persist the journal **panics** (see [`FileJournal`]) — losing the recovery
/// log silently would be strictly worse than crashing the serve loop.
pub trait JournalSink: Send {
    /// Appends one serialized batch block: update lines plus the
    /// [`io::COMMIT_MARKER`] trailer line, each with a trailing newline, no
    /// blank-line separator — the sink owns separator placement.  The trailer
    /// arrives in the *same* call as the updates, so a sink that loses the
    /// tail of an append (a torn write) loses the trailer with it and the
    /// recovery path can tell the block never finished committing.
    fn append_block(&mut self, block: &str);

    /// Commit barrier, called once per committed batch after any append.  A
    /// durable sink pushes buffered bytes to storage here (the flush-on-commit
    /// policy point); the in-memory sink does nothing.
    fn commit(&mut self);

    /// The full journal so far — every appended block in order, in the
    /// [`crate::io`] update-stream format (rotated segments included).
    fn contents(&self) -> String;

    /// Deletes history that a checkpoint has made redundant: every **rotated**
    /// segment (never the active one — it is the open file).  Returns how many
    /// segments were dropped.  Sinks without rotation (the default) have
    /// nothing to truncate and return 0.
    ///
    /// Only called at a drain boundary under the commit lock, immediately
    /// before a checkpoint records how many surviving blocks it covers — after
    /// truncation, [`JournalSink::contents`] alone is no longer the full
    /// history.
    fn truncate_rotated(&mut self) -> usize {
        0
    }
}

/// The default in-memory journal sink: blocks accumulate in one `String`.
#[derive(Debug, Clone, Default)]
pub struct MemoryJournal {
    text: String,
}

impl MemoryJournal {
    /// An empty in-memory journal.
    #[must_use]
    pub fn new() -> Self {
        MemoryJournal::default()
    }
}

impl JournalSink for MemoryJournal {
    fn append_block(&mut self, block: &str) {
        if !self.text.is_empty() {
            self.text.push('\n');
        }
        self.text.push_str(block);
    }

    fn commit(&mut self) {}

    fn contents(&self) -> String {
        self.text.clone()
    }
}

/// A file-backed journal sink: append-only, flushed to storage on every commit
/// by default, with optional size-based rotation.
///
/// Rotation: when the active file holds at least `rotate_at` bytes, it is
/// renamed to `<path>.<seq>` (`seq` counting up from 1) and a fresh active
/// file is started — blocks never span segments.  [`JournalSink::contents`]
/// reads the rotated segments and the active file back in order, so replay
/// works unchanged across rotations.
///
/// # Panics
///
/// Every I/O failure panics with the offending path: the journal is the
/// recovery story, and a serve loop that keeps committing while its journal
/// silently diverges from reality would be worse than one that crashes.
#[derive(Debug)]
pub struct FileJournal {
    /// Path of the active segment; rotated segments are `<path>.<seq>`.
    path: PathBuf,
    /// The open active segment.
    file: File,
    /// Bytes written to the active segment so far.
    active_bytes: u64,
    /// Rotation threshold in bytes (`None`: never rotate).
    rotate_at: Option<u64>,
    /// Number of rotated segments (`<path>.1` … `<path>.<segments>`).
    segments: usize,
    /// Whether [`JournalSink::commit`] syncs to storage (default `true`).
    flush_on_commit: bool,
    /// Whether bytes were appended since the last sync.
    dirty: bool,
}

impl FileJournal {
    /// Creates (truncating) the journal file at `path`, removing any rotated
    /// segments (`<path>.1`, `<path>.2`, …) a previous journal left behind —
    /// the on-disk state must reflect only this journal's history, or a
    /// restart reading the segment files back would replay stale batches.
    ///
    /// # Errors
    ///
    /// Returns the error of creating the file or clearing old segments.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        for seq in 1.. {
            let mut name = path.clone().into_os_string();
            name.push(format!(".{seq}"));
            match std::fs::remove_file(PathBuf::from(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileJournal {
            path,
            file,
            active_bytes: 0,
            rotate_at: None,
            segments: 0,
            flush_on_commit: true,
            dirty: false,
        })
    }

    /// Rotates the active file into a numbered segment once it holds at least
    /// `bytes` bytes (minimum 1).
    #[must_use]
    pub fn with_rotate_at(mut self, bytes: u64) -> Self {
        assert!(bytes >= 1, "rotation threshold must be at least 1 byte");
        self.rotate_at = Some(bytes);
        self
    }

    /// Enables or disables the sync-to-storage barrier on every committed
    /// batch (enabled by default; disabling trades durability for commit
    /// throughput — the OS still sees every write immediately).
    #[must_use]
    pub fn with_flush_on_commit(mut self, enabled: bool) -> Self {
        self.flush_on_commit = enabled;
        self
    }

    /// How many rotated segments exist (`<path>.1` … `<path>.<n>`).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Path of rotated segment `seq` (1-based).
    fn segment_path(&self, seq: usize) -> PathBuf {
        let mut name = self.path.clone().into_os_string();
        name.push(format!(".{seq}"));
        PathBuf::from(name)
    }

    /// Moves the active file to the next numbered segment and starts a fresh
    /// active file.
    fn rotate(&mut self) {
        self.sync();
        self.segments += 1;
        let segment = self.segment_path(self.segments);
        std::fs::rename(&self.path, &segment).unwrap_or_else(|e| {
            panic!(
                "journal rotation {} -> {}: {e}",
                self.path.display(),
                segment.display()
            )
        });
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)
            .unwrap_or_else(|e| panic!("journal segment {}: {e}", self.path.display()));
        self.active_bytes = 0;
    }

    fn sync(&mut self) {
        if self.dirty {
            self.file
                .sync_data()
                .unwrap_or_else(|e| panic!("journal sync {}: {e}", self.path.display()));
            self.dirty = false;
        }
    }

    fn read_segment(path: &Path) -> String {
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .unwrap_or_else(|e| panic!("journal read {}: {e}", path.display()));
        text
    }

    /// Reads the surviving journal at `path` back after a crash — rotated
    /// segments (`<path>.1`, `<path>.2`, …) then the active file, concatenated
    /// exactly as [`JournalSink::contents`] would — **without** opening
    /// anything for writing.  This is the post-crash read: salvage first, then
    /// hand the text to
    /// [`EngineService::recover`] together with a *fresh* journal (a
    /// [`FileJournal::create`] at the same path truncates, so create it only
    /// after salvaging).
    ///
    /// # Errors
    ///
    /// Returns the error of reading the active file; a missing rotated segment
    /// simply ends the segment scan.
    pub fn salvage(path: impl AsRef<Path>) -> std::io::Result<String> {
        let path = path.as_ref();
        let mut out = String::new();
        for seq in 1.. {
            let mut name = path.to_path_buf().into_os_string();
            name.push(format!(".{seq}"));
            match std::fs::read_to_string(PathBuf::from(name)) {
                Ok(segment) => {
                    if !out.is_empty() && !segment.is_empty() {
                        out.push('\n');
                    }
                    out.push_str(&segment);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            }
        }
        let active = std::fs::read_to_string(path)?;
        if !out.is_empty() && !active.is_empty() {
            out.push('\n');
        }
        out.push_str(&active);
        Ok(out)
    }
}

impl JournalSink for FileJournal {
    fn append_block(&mut self, block: &str) {
        if let Some(limit) = self.rotate_at {
            if self.active_bytes >= limit {
                self.rotate();
            }
        }
        let mut buf = String::with_capacity(block.len() + 1);
        if self.active_bytes > 0 {
            buf.push('\n');
        }
        buf.push_str(block);
        self.file
            .write_all(buf.as_bytes())
            .unwrap_or_else(|e| panic!("journal append {}: {e}", self.path.display()));
        self.active_bytes += buf.len() as u64;
        self.dirty = true;
    }

    fn commit(&mut self) {
        if self.flush_on_commit {
            self.sync();
        }
    }

    fn contents(&self) -> String {
        let mut out = String::new();
        for seq in 1..=self.segments {
            let segment = Self::read_segment(&self.segment_path(seq));
            if !out.is_empty() && !segment.is_empty() {
                out.push('\n');
            }
            out.push_str(&segment);
        }
        let active = Self::read_segment(&self.path);
        if !out.is_empty() && !active.is_empty() {
            out.push('\n');
        }
        out.push_str(&active);
        out
    }

    fn truncate_rotated(&mut self) -> usize {
        let dropped = self.segments;
        for seq in 1..=self.segments {
            let segment = self.segment_path(seq);
            std::fs::remove_file(&segment)
                .unwrap_or_else(|e| panic!("journal truncate {}: {e}", segment.display()));
        }
        self.segments = 0;
        dropped
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// An immutable view of the matching at a committed batch boundary.
///
/// Produced by [`EngineService::snapshot`].  All queries are lock-free reads of
/// data frozen at commit time, so a snapshot held across a later commit keeps
/// answering from the state it was taken at.
///
/// The matched edges live in flat arrays — the sorted ids, and every edge's
/// endpoints concatenated in the same order — beside a vertex → edge map whose
/// keys and values are `Copy`, so copying a snapshot is a few flat copies and
/// no per-edge allocation.  A publish builds the next snapshot from the
/// previous one plus the engine's [`MatchingDelta`] in one merge pass: it
/// copies the id and endpoint arrays and the vertex map, hashes only the
/// vertices of changed edges, and scans no edge table — O(M + delta) for a
/// matching of `M` edges, whatever the number of live edges.
#[derive(Debug, Clone)]
pub struct MatchingSnapshot {
    /// How many batches had committed when this snapshot was taken.
    committed_batches: u64,
    /// The engine's vertex-space size.
    num_vertices: usize,
    /// The matched edge ids, sorted.
    matching: Box<[EdgeId]>,
    /// `matching[i]`'s endpoints are `endpoints[bounds[i]..bounds[i + 1]]`
    /// (`bounds[0] == 0`).  Matched edges are vertex-disjoint, so the total
    /// fits the `u32` vertex-id space.
    bounds: Box<[u32]>,
    /// The endpoints of every matched edge, concatenated in `matching` order.
    endpoints: Box<[VertexId]>,
    /// Matched edge covering each matched vertex.
    by_vertex: FxHashMap<VertexId, EdgeId>,
    /// The engine's lifetime metrics at commit time.
    metrics: EngineMetrics,
    /// The engine's display name.
    engine: &'static str,
}

impl MatchingSnapshot {
    /// Number of matched edges.
    #[must_use]
    pub fn size(&self) -> usize {
        self.matching.len()
    }

    /// Whether the matching is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matching.is_empty()
    }

    /// Whether `id` is matched in this snapshot.
    #[must_use]
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.matching.binary_search(&id).is_ok()
    }

    /// The matched edge covering `v`, if any.
    #[must_use]
    pub fn matched_edge_of(&self, v: VertexId) -> Option<EdgeId> {
        self.by_vertex.get(&v).copied()
    }

    /// Whether `v` is an endpoint of a matched edge.
    #[must_use]
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.by_vertex.contains_key(&v)
    }

    /// The endpoint set of matched edge `id` (sorted ascending, as stored by
    /// [`HyperEdge`]), or `None` if `id` is not
    /// matched in this snapshot.  Frozen at commit time like every other
    /// query, so the endpoints remain readable even after a later batch
    /// deletes the edge — the sharded boundary-arbitration pass relies on
    /// this to judge conflicts without touching the engines.  O(log M).
    #[must_use]
    pub fn matched_endpoints(&self, id: EdgeId) -> Option<&[VertexId]> {
        let i = self.matching.binary_search(&id).ok()?;
        Some(self.endpoints_at(i))
    }

    /// The edges matched in `older` but not here (`removed`) and the
    /// reverse (`added`), with their endpoints: one hash-free merge of the
    /// two sorted id arrays, comparing runs of equal ids wholesale.  An id
    /// matched in both with different endpoints (deleted and re-inserted in
    /// between) counts as both.  The sharded layer's incremental arbitration
    /// finds each shard's matching change since its last drain this way.
    pub(crate) fn delta_since<'a>(
        &'a self,
        older: &'a MatchingSnapshot,
        removed: &mut Vec<(EdgeId, &'a [VertexId])>,
        added: &mut Vec<(EdgeId, &'a [VertexId])>,
    ) {
        let (a, b) = (&older.matching, &self.matching);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let run = a[i..]
                .iter()
                .zip(&b[j..])
                .take_while(|(x, y)| x == y)
                .count();
            if run == 0 {
                if a[i] < b[j] {
                    removed.push((a[i], older.endpoints_at(i)));
                    i += 1;
                } else {
                    added.push((b[j], self.endpoints_at(j)));
                    j += 1;
                }
                continue;
            }
            // Same ids: same edge sizes and endpoints, almost always.
            let (from_a, from_b) = (older.bounds[i], self.bounds[j]);
            let same = older.bounds[i..=i + run]
                .iter()
                .zip(&self.bounds[j..=j + run])
                .all(|(&x, &y)| x - from_a == y - from_b)
                && older.endpoints[from_a as usize..older.bounds[i + run] as usize]
                    == self.endpoints[from_b as usize..self.bounds[j + run] as usize];
            if !same {
                for t in 0..run {
                    let (before, after) = (older.endpoints_at(i + t), self.endpoints_at(j + t));
                    if before != after {
                        removed.push((a[i + t], before));
                        added.push((b[j + t], after));
                    }
                }
            }
            i += run;
            j += run;
        }
        removed.extend((i..a.len()).map(|i| (a[i], older.endpoints_at(i))));
        added.extend((j..b.len()).map(|j| (b[j], self.endpoints_at(j))));
    }

    /// The endpoints of the `i`-th matched edge in id order.
    fn endpoints_at(&self, i: usize) -> &[VertexId] {
        &self.endpoints[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// Every matched edge with its endpoints, ascending by id — one pass over
    /// the flat arrays, no lookups.
    pub(crate) fn matched_edges(&self) -> impl Iterator<Item = (EdgeId, &[VertexId])> + '_ {
        self.matching
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, self.endpoints_at(i)))
    }

    /// The matched edge ids, sorted ascending.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.matching.iter().copied()
    }

    /// Every vertex covered by a matched edge, **sorted ascending** — the
    /// order is contractual, so two snapshots of the same matching iterate
    /// identically regardless of hash-map history.  The merge side of a
    /// sharded snapshot folds this into its conflict accounting (which
    /// vertices are matched in more than one shard) and relies on the
    /// determinism.  Copies and sorts the flat endpoint array; O(k log k)
    /// for k matched vertices.
    pub fn matched_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut vertices = self.endpoints.to_vec();
        vertices.sort_unstable();
        vertices.into_iter()
    }

    /// The matched edge ids as a sorted vector.
    #[must_use]
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.matching.to_vec()
    }

    /// How many batches had committed when this snapshot was taken (0 for the
    /// initial snapshot of a fresh service).
    #[must_use]
    pub fn committed_batches(&self) -> u64 {
        self.committed_batches
    }

    /// The engine's vertex-space size at commit time.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The engine's lifetime [`EngineMetrics`] at commit time.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Display name of the engine that produced this snapshot.
    #[must_use]
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// The snapshot of an empty matching — the base a service's first
    /// publish folds the engine's whole matching into.
    fn empty(engine: &(impl MatchingEngine + ?Sized)) -> Self {
        MatchingSnapshot {
            committed_batches: 0,
            num_vertices: engine.num_vertices(),
            matching: Box::default(),
            bounds: Box::new([0]),
            endpoints: Box::default(),
            by_vertex: FxHashMap::default(),
            metrics: engine.metrics(),
            engine: engine.name(),
        }
    }

    /// The next snapshot: this one with `delta` applied, stamped with the
    /// engine's current metrics and `committed_batches`.  One merge pass in
    /// id order copies each run of retained edges wholesale into the new id
    /// and endpoint arrays; the vertex map is copied flat and only the
    /// vertices of removed and added edges are rehashed.
    fn advance(
        &self,
        delta: &MatchingDelta,
        engine: &(impl MatchingEngine + ?Sized),
        committed_batches: u64,
    ) -> Self {
        let mut by_vertex = self.by_vertex.clone();
        // Retire removals before installing additions: a vertex freed by an
        // unmatched edge may be claimed by a newly matched one.
        let removed_at: Vec<usize> = delta
            .removed
            .iter()
            .map(|id| {
                let i = self
                    .matching
                    .binary_search(id)
                    .expect("removed edges were matched at the previous publish");
                for v in self.endpoints_at(i) {
                    by_vertex.remove(v);
                }
                i
            })
            .collect();
        for edge in &delta.added {
            for &v in edge.vertices() {
                by_vertex.insert(v, edge.id);
            }
        }

        let size = self.matching.len() - delta.removed.len() + delta.added.len();
        let added_endpoints: usize = delta.added.iter().map(HyperEdge::rank).sum();
        let mut next = FlatEdges {
            matching: Vec::with_capacity(size),
            bounds: Vec::with_capacity(size + 1),
            endpoints: Vec::with_capacity(self.endpoints.len() + added_endpoints),
        };
        next.bounds.push(0);
        // `copied`: this snapshot's edges below it are copied or dropped.  A
        // removal at `r` is dropped only once no addition sorts before it, so
        // an edge re-added under a removed id takes the old one's place.
        let mut copied = 0;
        let mut removed = removed_at.into_iter().peekable();
        for edge in &delta.added {
            let at = self.matching.partition_point(|&id| id < edge.id);
            while let Some(r) = removed.next_if(|&r| r < at) {
                next.copy(self, copied..r);
                copied = r + 1;
            }
            next.copy(self, copied..at);
            copied = at;
            next.push(edge.id, edge.vertices());
        }
        for r in removed {
            next.copy(self, copied..r);
            copied = r + 1;
        }
        next.copy(self, copied..self.matching.len());
        MatchingSnapshot {
            committed_batches,
            num_vertices: engine.num_vertices(),
            matching: next.matching.into_boxed_slice(),
            bounds: next.bounds.into_boxed_slice(),
            endpoints: next.endpoints.into_boxed_slice(),
            by_vertex,
            metrics: engine.metrics(),
            engine: engine.name(),
        }
    }
}

/// The flat arrays of a [`MatchingSnapshot`] under construction.
struct FlatEdges {
    matching: Vec<EdgeId>,
    bounds: Vec<u32>,
    endpoints: Vec<VertexId>,
}

impl FlatEdges {
    /// Appends one edge.
    fn push(&mut self, id: EdgeId, vertices: &[VertexId]) {
        self.matching.push(id);
        self.endpoints.extend_from_slice(vertices);
        self.bounds.push(self.end());
    }

    /// Appends `from`'s edges `edges` (by index) wholesale.
    fn copy(&mut self, from: &MatchingSnapshot, edges: Range<usize>) {
        let (lo, hi) = (from.bounds[edges.start], from.bounds[edges.end]);
        let base = self.end();
        self.matching
            .extend_from_slice(&from.matching[edges.clone()]);
        self.endpoints
            .extend_from_slice(&from.endpoints[lo as usize..hi as usize]);
        self.bounds.extend(
            from.bounds[edges.start + 1..=edges.end]
                .iter()
                .map(|&b| b - lo + base),
        );
    }

    /// The offset one past the last endpoint.
    fn end(&self) -> u32 {
        u32::try_from(self.endpoints.len()).expect("matched edges are vertex-disjoint")
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A drain stopped at an invalid batch.
///
/// Everything committed before the offending batch stands (and is journaled);
/// the offending batch is dropped; batches queued after it stay queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Batches this drain committed before hitting the invalid one.
    pub committed: usize,
    /// The [`BatchReport`]s of those committed batches, in commit order
    /// (`reports.len() == committed`) — the error path does not lose what
    /// the drain already did.
    pub reports: Vec<BatchReport>,
    /// Why the batch was refused.
    pub error: BatchError,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drain stopped after {} committed batches: {}",
            self.committed, self.error
        )
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Why [`EngineService::replay`] could not rebuild a service from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The journal text is not a well-formed update stream.
    Parse(ParseError),
    /// A parsed batch was refused by the engine (wrong engine configuration,
    /// truncated or reordered journal).
    Batch {
        /// 0-based index of the refused batch in the journal.
        index: usize,
        /// The engine's refusal.
        error: BatchError,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Parse(e) => write!(f, "journal does not parse: {e}"),
            ReplayError::Batch { index, error } => {
                write!(f, "journal batch {index} refused by the engine: {error}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// State guarded by the commit lock: the engine, its ground-truth mirror, and
/// the journal of committed batches.
struct ServiceInner {
    engine: Box<dyn MatchingEngine + Send>,
    /// Mirrors every committed batch for the live-edge queries of the sharded
    /// router and arbitration's repair wave, which need a vertex's incident
    /// edges: the parallel engine keeps temporarily deleted edges only in
    /// their `D(e)` bucket, under no vertex.  Checkpoints do not store it;
    /// recovery rebuilds it from [`MatchingEngine::live_edges`].  Snapshots
    /// never read it (matched endpoints come with the engine's matching
    /// delta).
    mirror: DynamicHypergraph,
    /// Sink holding the committed batches in the [`crate::io`] update-stream
    /// format ([`MemoryJournal`] unless [`EngineService::with_journal`] swapped
    /// in another sink).
    journal: Box<dyn JournalSink>,
    /// Committed batch count (equals the journal's block count, minus any
    /// committed empty batches, which the format cannot represent).
    committed: u64,
    /// `committed` value of the most recently published snapshot (snapshot
    /// publishing may lag `committed` under [`EngineService::with_snapshot_every`];
    /// the engine's delta tracker nets the changes in between).
    published_at: u64,
}

/// A long-lived engine service: concurrent snapshot reads, a bounded
/// submission queue, incremental draining, and a replayable journal.
///
/// See the [module docs](self) for the full story and an end-to-end example.
/// The service is `Sync`: share it across threads with `Arc` or scoped
/// borrows.  Locking is split so the read path never touches the commit path —
/// [`EngineService::snapshot`] holds a lock only long enough to clone an `Arc`,
/// even while a drain is mid-commit.
pub struct EngineService {
    /// The engine, mirror and journal, locked for the duration of a drain.
    inner: Mutex<ServiceInner>,
    /// The most recent snapshot, swapped in after every committed batch.
    published: Mutex<Arc<MatchingSnapshot>>,
    /// Submitted-but-uncommitted batches, FIFO.
    queue: Mutex<VecDeque<UpdateBatch>>,
    /// Signalled when a drain pops the queue (backpressure release).
    space: Condvar,
    /// Bound on `queue` (batches).
    capacity: usize,
    /// Publish a snapshot every this many committed batches (plus always at
    /// the end of a drain).  Default 1: publish per commit.
    snapshot_every: u64,
}

impl fmt::Debug for EngineService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineService")
            .field("capacity", &self.capacity)
            .field("queued", &self.queue_len())
            .field("committed", &self.snapshot().committed_batches())
            .finish_non_exhaustive()
    }
}

impl EngineService {
    /// Wraps a **fresh** engine (no batches applied yet) with the default
    /// queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already applied batches: the service's mirror
    /// and journal must observe the engine's whole history for snapshots and
    /// replay to be faithful.
    #[must_use]
    pub fn new(engine: Box<dyn MatchingEngine + Send>) -> Self {
        Self::with_queue_capacity(engine, DEFAULT_QUEUE_CAPACITY)
    }

    /// Wraps a fresh engine with a custom submission-queue bound (in batches,
    /// minimum 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or the engine has already applied batches.
    #[must_use]
    pub fn with_queue_capacity(
        mut engine: Box<dyn MatchingEngine + Send>,
        capacity: usize,
    ) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        assert_eq!(
            engine.metrics().batches,
            0,
            "EngineService needs a fresh engine: it must observe the whole update history"
        );
        let mirror = DynamicHypergraph::new(engine.num_vertices());
        let initial = Arc::new(first_snapshot(engine.as_mut(), 0));
        EngineService {
            inner: Mutex::new(ServiceInner {
                engine,
                mirror,
                journal: Box::new(MemoryJournal::new()),
                committed: 0,
                published_at: 0,
            }),
            published: Mutex::new(initial),
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            capacity,
            snapshot_every: 1,
        }
    }

    /// Replaces the journal sink (default: [`MemoryJournal`]) — e.g. with a
    /// [`FileJournal`] for a durable, rotated on-disk journal.
    ///
    /// # Panics
    ///
    /// Panics if batches have already been committed: the sink must observe
    /// the service's whole history for replay to be faithful.
    #[must_use]
    pub fn with_journal(self, sink: Box<dyn JournalSink>) -> Self {
        {
            let mut inner = self.inner.lock().expect("service commit lock poisoned");
            assert_eq!(
                inner.committed, 0,
                "the journal sink must be installed before the first commit"
            );
            inner.journal = sink;
        }
        self
    }

    /// Publishes a fresh snapshot only every `n` committed batches (and always
    /// at the end of a drain), instead of after every commit.  A publish
    /// copies the matching's flat arrays and vertex map, O(M) for a matching
    /// of `M` edges, so with a 100k-edge matching under tiny batches the copy
    /// can dominate the commit path; throttling trades snapshot freshness
    /// *during* a drain for commit throughput (the engine nets the skipped
    /// commits' changes into the next publish's delta).  Readers still only
    /// ever observe committed prefixes — snapshots are captured strictly after
    /// a batch commits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[must_use]
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        assert!(n >= 1, "snapshot period must be at least 1");
        self.snapshot_every = n;
        self
    }

    /// The submission-queue bound, in batches.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Batches currently queued (submitted, not yet committed).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.lock_queue().len()
    }

    /// Free submission-queue slots right now (`capacity - queue_len`).  The
    /// admission-control side of the serve stack reads this to decide between
    /// accepting, asking the client to retry, and shedding — by the time the
    /// caller acts the depth may have changed, so treat it as a hint, not a
    /// reservation (use [`EngineService::try_submit`] for the atomic check).
    #[must_use]
    pub fn queue_free(&self) -> usize {
        self.capacity.saturating_sub(self.lock_queue().len())
    }

    /// The current published snapshot — the state after the most recently
    /// committed batch.  O(1): one short lock, one `Arc` clone.
    #[must_use]
    pub fn snapshot(&self) -> Arc<MatchingSnapshot> {
        Arc::clone(&self.published.lock().expect("snapshot lock poisoned"))
    }

    /// Enqueues a batch, **blocking** while the queue is at capacity until a
    /// concurrent [`EngineService::drain`] makes room.  Do not call from the
    /// only thread that drains — with a full queue it would wait forever; use
    /// [`EngineService::try_submit`] or drain first.
    pub fn submit(&self, batch: UpdateBatch) {
        let mut queue = self.lock_queue();
        while queue.len() >= self.capacity {
            queue = self
                .space
                .wait(queue)
                .expect("submission queue lock poisoned");
        }
        queue.push_back(batch);
    }

    /// Enqueues a batch if the queue has room; hands the batch back otherwise
    /// (backpressure, non-blocking).
    ///
    /// # Errors
    ///
    /// Returns `Err(batch)` when the queue is at capacity.
    pub fn try_submit(&self, batch: UpdateBatch) -> Result<(), UpdateBatch> {
        let mut queue = self.lock_queue();
        if queue.len() >= self.capacity {
            return Err(batch);
        }
        queue.push_back(batch);
        Ok(())
    }

    /// Commits every queued batch (including batches submitted *while* the
    /// drain runs) on the **single-validation hot path**: each popped batch's
    /// [`ValidatedBatch`](crate::engine::ValidatedBatch) proof is minted by
    /// [`MatchingEngine::validate`] —
    /// the one legality check on the serve path — and discharged by
    /// [`MatchingEngine::apply_batch_trusted`], which runs the kernel without
    /// revalidating.  After each committed batch the journal is appended and a
    /// fresh snapshot is published, so concurrent readers advance batch by
    /// batch.
    ///
    /// Returns one [`BatchReport`] per committed batch, in commit order.
    ///
    /// # Errors
    ///
    /// Stops at the first batch the engine refuses: the offending batch is
    /// dropped, everything committed before it stands, and later batches stay
    /// queued for the next drain.  Errors are reported in batch order (the
    /// first illegal update of the refused batch), exactly as the validating
    /// [`MatchingEngine::apply_batch`] path reports them.
    pub fn drain(&self) -> Result<Vec<BatchReport>, ServiceError> {
        let mut guard = self.inner.lock().expect("service commit lock poisoned");
        let inner = &mut *guard;
        let mut reports = Vec::new();
        loop {
            let batch = {
                let mut queue = self.lock_queue();
                let popped = queue.pop_front();
                if popped.is_some() {
                    self.space.notify_all();
                }
                popped
            };
            let Some(batch) = batch else {
                if inner.published_at != inner.committed {
                    self.publish(inner);
                }
                return Ok(reports);
            };
            // Mint the proof (the serve path's only per-update legality
            // check), then discharge it: validation and kernel execution are
            // decoupled, so the kernel never re-hashes what was just checked.
            let committed = inner
                .engine
                .validate(batch.updates())
                .and_then(|proven| inner.engine.apply_batch_trusted(proven));
            let report = match committed {
                Ok(report) => report,
                Err(error) => {
                    // The offending batch is dropped whole: nothing of it was
                    // committed (validation is all-or-nothing and precedes the
                    // kernel).  Publish whatever the snapshot throttle still
                    // owes before reporting.
                    if inner.published_at != inner.committed {
                        self.publish(inner);
                    }
                    return Err(ServiceError {
                        committed: reports.len(),
                        reports,
                        error,
                    });
                }
            };
            inner.mirror.apply_batch(&batch);
            inner.committed += 1;
            append_journal(inner.journal.as_mut(), &batch);
            inner.journal.commit();
            if inner.committed.is_multiple_of(self.snapshot_every) {
                self.publish(inner);
            }
            reports.push(report);
        }
    }

    /// Commits every queued batch in **skip-and-report** mode, so a dirty
    /// stream cannot poison a drain: [`MatchingEngine::validate_lossy`] drops
    /// exact repeats and reports invalid updates with their typed error, and
    /// the surviving subset of each batch commits through
    /// [`MatchingEngine::apply_batch_trusted`] — one legality check per
    /// offered update, as in [`EngineService::drain`].  The journal records
    /// exactly the surviving subsets, so [`EngineService::replay`] of a lossy
    /// journal still rebuilds bit-identical state.
    ///
    /// Returns one [`IngestReport`] per drained batch, in commit order.  A
    /// batch whose updates are all rejected commits the empty batch (counted,
    /// not journaled).  Unlike [`EngineService::drain`] this never stops
    /// early, so the queue is always empty when it returns.
    pub fn drain_lossy(&self) -> Vec<IngestReport> {
        let mut guard = self.inner.lock().expect("service commit lock poisoned");
        let inner = &mut *guard;
        let mut reports = Vec::new();
        loop {
            let batch = {
                let mut queue = self.lock_queue();
                let popped = queue.pop_front();
                if popped.is_some() {
                    self.space.notify_all();
                }
                popped
            };
            let Some(batch) = batch else {
                if inner.published_at != inner.committed {
                    self.publish(inner);
                }
                return reports;
            };
            let lossy = inner.engine.validate_lossy(batch.into_updates());
            let report = inner
                .engine
                .apply_batch_trusted(lossy.proof())
                .expect("validated survivors cannot fail the trusted apply");
            // The journal and mirror record what actually committed — the
            // surviving subset — so replay stays bit-faithful.
            inner.mirror.apply_batch(lossy.survivors());
            inner.committed += 1;
            append_journal(inner.journal.as_mut(), lossy.survivors());
            inner.journal.commit();
            if inner.committed.is_multiple_of(self.snapshot_every) {
                self.publish(inner);
            }
            reports.push(IngestReport {
                batch: report,
                deduplicated: lossy.deduplicated,
                rejected: lossy.rejected,
            });
        }
    }

    /// Takes the engine's matching delta since the last publish, folds it
    /// into the published snapshot and swaps the result in — O(M + delta),
    /// no edge-table scan (see [`MatchingSnapshot`]).  The replaced snapshot
    /// is freed after the slot's lock is released.
    fn publish(&self, inner: &mut ServiceInner) {
        let delta = inner.engine.take_matching_delta();
        let next = Arc::new(self.snapshot().advance(
            &delta,
            inner.engine.as_ref(),
            inner.committed,
        ));
        let previous = std::mem::replace(
            &mut *self.published.lock().expect("snapshot lock poisoned"),
            next,
        );
        drop(previous);
        inner.published_at = inner.committed;
    }

    /// The journal so far: every committed batch, in commit order, in the
    /// [`crate::io`] update-stream format (read back from the configured
    /// [`JournalSink`]).  Feed it to [`EngineService::replay`] to rebuild the
    /// exact state on a fresh engine.
    #[must_use]
    pub fn journal(&self) -> String {
        self.inner
            .lock()
            .expect("service commit lock poisoned")
            .journal
            .contents()
    }

    /// Rebuilds a service by committing every batch of `journal` (produced by
    /// [`EngineService::journal`], or any well-formed update stream) on a
    /// fresh engine.  Replay preserves batch boundaries, so an engine of the
    /// same kind, configuration and seed reproduces a bit-identical matching —
    /// and the rebuilt service's journal equals the canonical serialization of
    /// the input.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Parse`] if the text is not a well-formed update stream,
    /// [`ReplayError::Batch`] if the engine refuses a batch (wrong engine
    /// configuration, truncated or tampered journal).
    ///
    /// # Panics
    ///
    /// Panics if `engine` is not fresh (see [`EngineService::new`]).
    pub fn replay(
        engine: Box<dyn MatchingEngine + Send>,
        journal: &str,
    ) -> Result<Self, ReplayError> {
        let batches = io::batches_from_string(journal).map_err(ReplayError::Parse)?;
        // Replay drains after every submit, so the queue never holds more
        // than one batch; the rebuilt service keeps the default capacity for
        // its life *after* replay (capacity is not part of the journal).
        let service = EngineService::new(engine);
        for (index, batch) in batches.into_iter().enumerate() {
            service.submit(batch);
            service.drain().map_err(|e| ReplayError::Batch {
                index,
                error: e.error,
            })?;
        }
        Ok(service)
    }

    /// Serializes a consistent checkpoint of the service at the current drain
    /// boundary (see [`crate::checkpoint`]): the engine's canonical state and
    /// the committed-batch counter, under one fingerprinted header.  As a
    /// side effect, rotated journal segments — which the checkpoint makes
    /// redundant — are deleted ([`JournalSink::truncate_rotated`]), and the
    /// checkpoint records how many blocks of the surviving journal it still
    /// covers.  Queued but uncommitted batches are *not* part of a
    /// checkpoint; they are not part of the service's durable state until a
    /// drain commits them.
    ///
    /// Taking a checkpoint waits for any in-flight drain (it needs the commit
    /// lock), so it always observes a batch boundary.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] if the engine does not implement state
    /// serialization.
    pub fn checkpoint(&self) -> Result<String, CheckpointError> {
        checkpoint::render(std::slice::from_ref(&self.checkpoint_parts()?))
    }

    /// Gathers this service's shard section of a checkpoint under the commit
    /// lock, truncating rotated journal segments in the same critical section
    /// so `tail_skip` matches the surviving journal exactly.
    pub(crate) fn checkpoint_parts(&self) -> Result<checkpoint::ShardParts, CheckpointError> {
        let mut guard = self.inner.lock().expect("service commit lock poisoned");
        let inner = &mut *guard;
        let state = inner
            .engine
            .save_state()
            .ok_or_else(|| CheckpointError::Unsupported {
                engine: inner.engine.name().to_string(),
            })?;
        inner.journal.truncate_rotated();
        let tail_skip = io::journal_blocks(&inner.journal.contents()).len() as u64;
        Ok(checkpoint::ShardParts {
            engine: inner.engine.name(),
            num_vertices: inner.engine.num_vertices(),
            max_rank: inner.engine.max_rank(),
            committed: inner.committed,
            tail_skip,
            state,
        })
    }

    /// Rebuilds a service from a checkpoint plus the surviving journal — in
    /// time proportional to the journal blocks committed *since* the
    /// checkpoint, not the whole history.  `journal` is the post-crash journal
    /// text (e.g. [`FileJournal::salvage`], or [`EngineService::journal`] of
    /// the dying service in tests); `sink` is a **fresh, empty** journal for
    /// the recovered service's next life.  Every retained complete block is
    /// re-appended into `sink`, so the (checkpoint, new journal) pair survives
    /// a second crash before the next checkpoint.
    ///
    /// A trailing block without its commit trailer is a torn write: it is
    /// dropped, never replayed — a batch whose commit did not finish is not
    /// resurrected, not even a parseable prefix of it.  (A committed *empty*
    /// batch after the checkpoint leaves no journal block, so recovery cannot
    /// count it; the recovered `committed_batches` reflects journaled
    /// history.)
    ///
    /// The recovered service keeps the default queue capacity and publishes
    /// per commit; re-apply [`EngineService::with_snapshot_every`]-style
    /// tuning as needed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Version`] / [`CheckpointError::Fingerprint`] for a
    /// checkpoint from a differently-configured run,
    /// [`CheckpointError::State`] if the engine refuses the checkpointed
    /// state, [`CheckpointError::Corrupt`] for structural damage (including a
    /// journal shorter than the checkpoint's coverage or a mid-journal hole),
    /// [`CheckpointError::Journal`] / [`CheckpointError::Batch`] for a tail
    /// block that does not parse or replay.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is not empty — recovery re-appends the retained
    /// blocks, and a pre-populated sink would duplicate history.
    pub fn recover(
        engine: Box<dyn MatchingEngine + Send>,
        checkpoint_text: &str,
        journal: &str,
        sink: Box<dyn JournalSink>,
    ) -> Result<Self, CheckpointError> {
        let doc = checkpoint::Checkpoint::parse(checkpoint_text)?;
        if doc.num_shards() != 1 {
            return Err(CheckpointError::Fingerprint {
                field: "shards",
                expected: "1".to_string(),
                found: doc.num_shards().to_string(),
            });
        }
        let checkpoint::Checkpoint { header, sections } = doc;
        let section = sections
            .into_iter()
            .next()
            .expect("parse guarantees at least one shard section");
        Self::recover_shard(engine, &header, section, journal, sink)
    }

    /// Recovers one shard: validates the fingerprint, restores the engine
    /// state, rebuilds the mirror from the engine's live edges, re-appends the
    /// retained journal blocks into the fresh sink, and replays the tail past
    /// the checkpoint's coverage.
    pub(crate) fn recover_shard(
        mut engine: Box<dyn MatchingEngine + Send>,
        header: &checkpoint::Header,
        section: checkpoint::ShardSection,
        journal: &str,
        mut sink: Box<dyn JournalSink>,
    ) -> Result<Self, CheckpointError> {
        header.validate_engine(engine.as_ref())?;
        assert!(
            sink.contents().is_empty(),
            "recovery needs an empty journal sink: the retained blocks are re-appended into it"
        );
        engine
            .restore_state(&section.state)
            .map_err(CheckpointError::State)?;
        let mut mirror = DynamicHypergraph::from_edges(engine.num_vertices(), engine.live_edges());
        let blocks = checkpoint::complete_blocks(journal)?;
        let skip = usize::try_from(section.tail_skip).unwrap_or(usize::MAX);
        if blocks.len() < skip {
            return Err(CheckpointError::Corrupt {
                line: 0,
                message: format!(
                    "journal holds {} complete blocks but the checkpoint covers {skip}",
                    blocks.len()
                ),
            });
        }
        let mut committed = section.committed;
        for (index, block) in blocks.iter().enumerate() {
            let mut text = String::with_capacity(block.len() + 1);
            text.push_str(block);
            text.push('\n');
            sink.append_block(&text);
            if index < skip {
                continue; // Covered by the checkpoint: carried, not replayed.
            }
            let batches = io::batches_from_string(block).map_err(CheckpointError::Journal)?;
            for batch in &batches {
                engine
                    .apply_batch(batch)
                    .map_err(|error| CheckpointError::Batch { index, error })?;
                mirror.apply_batch(batch);
            }
            committed += 1;
        }
        sink.commit();
        // The restored engine's first delta is its whole matching.
        let initial = Arc::new(first_snapshot(engine.as_mut(), committed));
        Ok(EngineService {
            inner: Mutex::new(ServiceInner {
                engine,
                mirror,
                journal: sink,
                committed,
                published_at: committed,
            }),
            published: Mutex::new(initial),
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            capacity: DEFAULT_QUEUE_CAPACITY,
            snapshot_every: 1,
        })
    }

    /// The engine's canonical serialized state at the current commit boundary
    /// ([`MatchingEngine::save_state`]); `None` if the engine does not
    /// implement state serialization.  Two services whose logical state is
    /// identical serialize identically — the recovery tests assert
    /// bit-identity through this.
    #[must_use]
    pub fn save_state(&self) -> Option<String> {
        self.inner
            .lock()
            .expect("service commit lock poisoned")
            .engine
            .save_state()
    }

    /// The live edges of the service's mirror graph (the committed ground
    /// truth).  The sharded layer rebuilds its router from recovered shard
    /// mirrors through this.
    pub(crate) fn mirror_edges(&self) -> Vec<HyperEdge> {
        self.inner
            .lock()
            .expect("service commit lock poisoned")
            .mirror
            .snapshot_edges()
    }

    /// Whether `id` is live in the committed mirror graph.  The sharded
    /// router reconciles its ownership map against this after a drain, so
    /// entries recorded at routing time for updates an engine later rejected
    /// do not linger.
    pub(crate) fn contains_live_edge(&self, id: EdgeId) -> bool {
        self.inner
            .lock()
            .expect("service commit lock poisoned")
            .mirror
            .contains_edge(id)
    }

    /// The edge ids named by still-queued (submitted, uncommitted) updates:
    /// `(inserted, deleted)`.  The sharded router's post-failure resync must
    /// not touch entries for updates that are still in flight.
    pub(crate) fn queued_update_ids(&self) -> (FxHashSet<EdgeId>, FxHashSet<EdgeId>) {
        let queue = self.lock_queue();
        let mut inserted = FxHashSet::default();
        let mut deleted = FxHashSet::default();
        for batch in queue.iter() {
            for update in batch {
                match update {
                    Update::Insert(edge) => {
                        inserted.insert(edge.id);
                    }
                    Update::Delete(id) => {
                        deleted.insert(*id);
                    }
                }
            }
        }
        (inserted, deleted)
    }

    /// Live committed edges incident to any vertex in `freed`, with their
    /// endpoint sets, deduplicated and **sorted ascending by edge id** — the
    /// deterministic per-shard candidate list the boundary-arbitration
    /// repair wave merges (`ShardedService` iterates shards in order, so the
    /// global candidate order is exactly the `(owner shard, edge id)`
    /// priority rule).
    pub(crate) fn repair_candidates(&self, freed: &[VertexId]) -> Vec<(EdgeId, Box<[VertexId]>)> {
        let mut out = self.incident_edges_where(freed, |_, _| true);
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// The live committed edges incident to any vertex in `vertices` that
    /// `keep` accepts, each once, with their endpoint sets, in no particular
    /// order.  The incremental boundary arbitration scans with this: `keep`
    /// runs under the commit lock, once per edge, and only the edges it
    /// keeps are copied.
    pub(crate) fn incident_edges_where(
        &self,
        vertices: &[VertexId],
        keep: impl Fn(EdgeId, &[VertexId]) -> bool,
    ) -> Vec<(EdgeId, Box<[VertexId]>)> {
        let inner = self.inner.lock().expect("service commit lock poisoned");
        let mut seen: FxHashSet<EdgeId> = FxHashSet::default();
        let mut out = Vec::new();
        for &v in vertices {
            for id in inner.mirror.incident_edges_unordered(v) {
                if !seen.insert(id) {
                    continue;
                }
                let endpoints = inner
                    .mirror
                    .edge(id)
                    .expect("incident edges are live in the mirror graph")
                    .vertices();
                if keep(id, endpoints) {
                    out.push((id, endpoints.into()));
                }
            }
        }
        out
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<UpdateBatch>> {
        self.queue.lock().expect("submission queue lock poisoned")
    }

    /// Locks the submission queue and hands the guard out, so the sharded
    /// layer can admit one batch's sub-batches to *several* shards
    /// all-or-nothing: lock every target queue, check capacities, then push
    /// (`ShardedService::try_submit`).  Crate-internal: holding queue guards
    /// across shards is a locking pattern the sharded router owns.
    pub(crate) fn queue_guard(&self) -> MutexGuard<'_, VecDeque<UpdateBatch>> {
        self.lock_queue()
    }
}

/// A service's first snapshot: the engine's first delta — its whole
/// matching — folded into the empty snapshot, exactly as later publishes fold
/// theirs.
fn first_snapshot(engine: &mut (dyn MatchingEngine + Send), committed: u64) -> MatchingSnapshot {
    let delta = engine.take_matching_delta();
    MatchingSnapshot::empty(engine).advance(&delta, engine, committed)
}

/// Appends one committed batch to a journal sink as an update-stream block,
/// through the one serializer ([`io::batches_to_string`]) so the journal
/// format cannot drift from the `io` module's.  The block carries the
/// [`io::COMMIT_MARKER`] trailer in the same append, so a torn write loses
/// the trailer with the tail and recovery never mistakes a partial block for
/// a committed batch (the parsers skip `#` lines, so replay is unaffected).
fn append_journal(journal: &mut dyn JournalSink, batch: &[Update]) {
    if batch.is_empty() {
        // The stream format cannot represent an empty batch; it is a no-op on
        // every engine, so skipping it keeps replay faithful.
        return;
    }
    let mut block = io::batches_to_string(&[batch]);
    block.push_str(io::COMMIT_MARKER);
    block.push('\n');
    journal.append_block(&block);
}

// The whole point of the service: it is shareable across threads.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<EngineService>();
    assert_sync_send::<MatchingSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::toy::ToyEngine;
    use crate::types::{HyperEdge, Update};

    fn pair(id: u64, a: u32, b: u32) -> Update {
        Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)))
    }

    fn batch(updates: Vec<Update>) -> UpdateBatch {
        UpdateBatch::new(updates).unwrap()
    }

    #[test]
    fn submit_drain_snapshot_roundtrip() {
        let service = EngineService::new(ToyEngine::boxed(6));
        let initial = service.snapshot();
        assert_eq!(initial.size(), 0);
        assert_eq!(initial.committed_batches(), 0);
        assert!(!initial.is_matched(VertexId(0)));

        service.submit(batch(vec![pair(0, 0, 1), pair(1, 2, 3)]));
        service.submit(batch(vec![Update::Delete(EdgeId(0)), pair(2, 1, 4)]));
        assert_eq!(service.queue_len(), 2);
        let reports = service.drain().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(service.queue_len(), 0);

        // The pre-drain snapshot still answers from its own commit point.
        assert_eq!(initial.size(), 0);

        let snap = service.snapshot();
        assert_eq!(snap.committed_batches(), 2);
        assert_eq!(snap.size(), 2);
        assert_eq!(snap.edge_ids(), vec![EdgeId(1), EdgeId(2)]);
        assert!(snap.contains_edge(EdgeId(1)));
        assert!(!snap.contains_edge(EdgeId(0)));
        assert_eq!(snap.matched_edge_of(VertexId(2)), Some(EdgeId(1)));
        assert_eq!(snap.matched_edge_of(VertexId(0)), None);
        assert!(snap.is_matched(VertexId(4)));
        assert_eq!(snap.edges().count(), 2);
        assert_eq!(snap.metrics().batches, 2);
        assert_eq!(snap.engine(), "toy-recompute");
    }

    #[test]
    fn drain_matches_direct_apply_batch() {
        let batches = vec![
            batch(vec![pair(0, 0, 1), pair(1, 2, 3)]),
            batch(vec![Update::Delete(EdgeId(1))]),
            batch(vec![pair(2, 3, 4), pair(3, 1, 2)]),
        ];
        let service = EngineService::new(ToyEngine::boxed(6));
        for b in &batches {
            service.submit(b.clone());
        }
        let service_reports = service.drain().unwrap();

        let mut direct = ToyEngine::boxed(6);
        let direct_reports = direct.apply_all(&batches).unwrap();
        assert_eq!(service_reports, direct_reports);
        let mut ids = direct.matching_ids();
        ids.sort_unstable();
        assert_eq!(service.snapshot().edge_ids(), ids);
        assert_eq!(service.snapshot().metrics(), direct.metrics());
    }

    #[test]
    fn invalid_batch_is_dropped_and_the_rest_stays_queued() {
        let service = EngineService::new(ToyEngine::boxed(6));
        service.submit(batch(vec![pair(0, 0, 1)]));
        // Context-free-valid, but deletes an edge that is not live.
        service.submit(batch(vec![Update::Delete(EdgeId(9))]));
        service.submit(batch(vec![pair(1, 2, 3)]));

        let err = service.drain().unwrap_err();
        assert_eq!(err.committed, 1);
        assert_eq!(err.error, BatchError::UnknownDeletion { id: EdgeId(9) });
        assert!(err.to_string().contains("after 1 committed"), "{err}");
        // The good tail batch is still queued; the poison batch is gone.
        assert_eq!(service.queue_len(), 1);
        let reports = service.drain().unwrap();
        assert_eq!(reports.len(), 1);
        let snap = service.snapshot();
        assert_eq!(snap.committed_batches(), 2);
        assert_eq!(snap.edge_ids(), vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn try_submit_applies_backpressure() {
        let service = EngineService::with_queue_capacity(ToyEngine::boxed(4), 2);
        assert_eq!(service.queue_capacity(), 2);
        assert!(service.try_submit(batch(vec![pair(0, 0, 1)])).is_ok());
        assert!(service.try_submit(batch(vec![pair(1, 2, 3)])).is_ok());
        let bounced = service
            .try_submit(batch(vec![pair(2, 1, 2)]))
            .expect_err("queue is full");
        assert_eq!(bounced.len(), 1, "the batch is handed back intact");
        service.drain().unwrap();
        assert!(service.try_submit(bounced).is_ok());
        service.drain().unwrap();
        assert_eq!(service.snapshot().committed_batches(), 3);
    }

    #[test]
    fn journal_and_replay_rebuild_identical_state() {
        let service = EngineService::new(ToyEngine::boxed(8));
        service.submit(batch(vec![pair(0, 0, 1), pair(1, 2, 3), pair(2, 4, 5)]));
        service.submit(batch(vec![Update::Delete(EdgeId(1))]));
        service.submit(batch(vec![pair(3, 2, 6), pair(4, 3, 7)]));
        service.drain().unwrap();

        let journal = service.journal();
        let replayed = EngineService::replay(ToyEngine::boxed(8), &journal).unwrap();
        let a = service.snapshot();
        let b = replayed.snapshot();
        assert_eq!(a.edge_ids(), b.edge_ids());
        assert_eq!(a.committed_batches(), b.committed_batches());
        assert_eq!(a.metrics(), b.metrics());
        // Replaying a journal reproduces the journal itself.
        assert_eq!(replayed.journal(), journal);
    }

    #[test]
    fn empty_batches_commit_but_are_not_journaled() {
        let service = EngineService::new(ToyEngine::boxed(4));
        service.submit(batch(vec![pair(0, 0, 1)]));
        service.submit(UpdateBatch::empty());
        let reports = service.drain().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[1].batch_size, 0);
        assert_eq!(service.snapshot().committed_batches(), 2);
        // The journal holds one block; replay lands on the same matching (the
        // empty batch was a no-op, so only the committed count differs).
        let replayed = EngineService::replay(ToyEngine::boxed(4), &service.journal()).unwrap();
        assert_eq!(replayed.snapshot().committed_batches(), 1);
        assert_eq!(
            replayed.snapshot().edge_ids(),
            service.snapshot().edge_ids()
        );
    }

    #[test]
    fn replay_rejects_garbage_and_mismatched_journals() {
        assert!(matches!(
            EngineService::replay(ToyEngine::boxed(4), "* nonsense"),
            Err(ReplayError::Parse(_))
        ));
        let err = EngineService::replay(ToyEngine::boxed(4), "- 7\n").unwrap_err();
        assert_eq!(
            err,
            ReplayError::Batch {
                index: 0,
                error: BatchError::UnknownDeletion { id: EdgeId(7) }
            }
        );
        assert!(err.to_string().contains("batch 0"), "{err}");
    }

    #[test]
    #[should_panic(expected = "fresh engine")]
    fn service_refuses_a_used_engine() {
        let mut engine = ToyEngine::boxed(4);
        engine.apply_batch(&[pair(0, 0, 1)]).unwrap();
        let _ = EngineService::new(engine);
    }
}
