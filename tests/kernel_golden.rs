//! Pins the parallel kernel's output bit for bit.
//!
//! Each run drives `ParallelDynamicMatching` through a fixed stream and folds
//! everything the kernel decides into one FNV-1a digest: every
//! [`BatchReport`]'s work, depth, matching size, matched deletions and
//! rebuild flag, every `take_matching_delta()`, and the final full
//! `save_state()` blob, `cost` line included.  The constants below were
//! recorded with the kernel's original hash-set leveling state.  A change to
//! the kernel's data layout must leave them untouched; only a change to the
//! algorithm or its cost model may move them.
//!
//! Every stream also runs at 2 threads (same digest) and as a twin restored
//! from `save_state()` at the midpoint, which must reproduce the live run's
//! tail digest.

use pdmm::engine::{self, BatchReport, EngineKind, MatchingEngine};
use pdmm::hypergraph::matching::MatchingDelta;
use pdmm::hypergraph::streams::{self, Workload};
use pdmm::prelude::*;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn report(&mut self, r: &BatchReport) {
        self.word(r.work);
        self.word(r.depth);
        self.word(r.matching_size as u64);
        self.word(r.matched_deletions as u64);
        self.word(u64::from(r.rebuilt));
    }

    fn delta(&mut self, d: &MatchingDelta) {
        self.word(d.removed.len() as u64);
        for id in &d.removed {
            self.word(id.0);
        }
        self.word(d.added.len() as u64);
        for e in &d.added {
            self.word(e.id.0);
        }
    }
}

/// The four stream families, by name, for stream seed `s`.
fn stream(family: usize, s: u64) -> Workload {
    match family {
        0 => streams::random_churn(10_000, 3, 2_000, 500, 64, 0.5, s),
        1 => streams::skewed_churn(10_000, 2, 2_000, 500, 32, 0.5, 1.5, s),
        2 => streams::random_churn(2_000, 3, 400, 400, 64, 0.5, s),
        // Small n against 300 batches: the N-doubling rebuild fires.
        3 => streams::random_churn(500, 4, 300, 300, 16, 0.5, s),
        _ => unreachable!(),
    }
}

const FAMILIES: [&str; 4] = [
    "random_churn(10000, 3, 2000, 500, 64, 0.5)",
    "skewed_churn(10000, 2, 2000, 500, 32, 0.5, 1.5)",
    "random_churn(2000, 3, 400, 400, 64, 0.5)",
    "random_churn(500, 4, 300, 300, 16, 0.5)",
];

/// Digests recorded for family `f` (row) and seed `k·1000003`, k = 1..3
/// (column).
const GOLDEN: [[u64; 3]; 4] = [
    [
        0x8814_4a89_d347_8caf,
        0xac02_00fd_86d1_97a4,
        0x6fc0_736d_89b7_3925,
    ],
    [
        0x6837_3f17_be20_b23f,
        0x5719_3963_edc9_1335,
        0x9211_d13b_b6ef_6336,
    ],
    [
        0xc7b1_f84c_9854_47e2,
        0x8ce9_0662_744a_6cec,
        0x5885_9fb5_1f47_56c9,
    ],
    [
        0xec68_851a_a731_b4f6,
        0x56a7_0bba_3bc4_c916,
        0x097b_c090_583b_a24f,
    ],
];

fn builder(w: &Workload, s: u64, threads: usize) -> EngineBuilder {
    EngineBuilder::new(w.num_vertices)
        .rank(w.rank)
        .seed(s * 31 + 7)
        .threads(threads)
}

/// Applies `batches`, folding each report and delta into `h`.
fn drive(engine: &mut dyn MatchingEngine, batches: &[UpdateBatch], h: &mut Fnv) -> bool {
    let mut rebuilt = false;
    for batch in batches {
        let report = engine.apply_batch(batch).expect("generated batch is valid");
        rebuilt |= report.rebuilt;
        h.report(&report);
        h.delta(&engine.take_matching_delta());
    }
    rebuilt
}

/// The whole-run digest, and the digest of the tail after the midpoint
/// together with the state blob saved there.
struct Run {
    full: u64,
    tail: u64,
    midpoint_blob: String,
    rebuilt: bool,
}

fn run(w: &Workload, s: u64, threads: usize) -> Run {
    let mut engine = engine::build(EngineKind::Parallel, &builder(w, s, threads));
    let mid = w.batches.len() / 2;
    let mut full = Fnv::new();
    let mut rebuilt = drive(engine.as_mut(), &w.batches[..mid], &mut full);
    let midpoint_blob = engine.save_state().expect("batch boundary");
    let mut tail = Fnv::new();
    for batch in &w.batches[mid..] {
        let report = engine.apply_batch(batch).expect("generated batch is valid");
        rebuilt |= report.rebuilt;
        let delta = engine.take_matching_delta();
        for h in [&mut full, &mut tail] {
            h.report(&report);
            h.delta(&delta);
        }
    }
    let blob = engine.save_state().expect("batch boundary");
    full.bytes(blob.as_bytes());
    tail.bytes(blob.as_bytes());
    Run {
        full: full.0,
        tail: tail.0,
        midpoint_blob,
        rebuilt,
    }
}

/// A fresh engine restored from `blob`, driven through the tail.
fn restored_tail(w: &Workload, s: u64, blob: &str) -> u64 {
    let mut twin = engine::build(EngineKind::Parallel, &builder(w, s, 1));
    twin.restore_state(blob).expect("own blob restores");
    // The restored matching is the twin's first delta; the live engine
    // handed those edges out batch by batch before the midpoint.
    twin.take_matching_delta();
    let mid = w.batches.len() / 2;
    let mut tail = Fnv::new();
    drive(twin.as_mut(), &w.batches[mid..], &mut tail);
    tail.bytes(twin.save_state().expect("batch boundary").as_bytes());
    tail.0
}

fn check_family(family: usize) {
    let mut recorded = Vec::new();
    for k in 1..=3u64 {
        let s = k * 1_000_003;
        let w = stream(family, s);
        let one = run(&w, s, 1);
        let two = run(&w, s, 2);
        let name = FAMILIES[family];
        assert_eq!(one.full, two.full, "{name}, seed {s}: 1 vs 2 threads");
        assert_eq!(
            restored_tail(&w, s, &one.midpoint_blob),
            one.tail,
            "{name}, seed {s}: restored twin's tail"
        );
        if family == 3 {
            assert!(one.rebuilt, "{name}, seed {s}: the stream must rebuild");
        }
        recorded.push(one.full);
    }
    assert_eq!(
        recorded, GOLDEN[family],
        "{} digests moved: {recorded:#x?}",
        FAMILIES[family]
    );
}

#[test]
fn random_churn_10k_rank_3() {
    check_family(0);
}

#[test]
fn skewed_churn_10k_rank_2() {
    check_family(1);
}

#[test]
fn random_churn_2k_rank_3() {
    check_family(2);
}

#[test]
fn random_churn_500_rank_4_rebuilds() {
    check_family(3);
}
