//! Pins all five engines' output bit for bit: the parallel kernel on every
//! stream family, the two sequential-repair engines on families 0–2 (family
//! 3 exists to make an engine rebuild, which these never do), and the two
//! recompute engines on the smaller streams.
//!
//! Each run drives one engine kind through a fixed stream and folds
//! everything the engine decides into one FNV-1a digest: every
//! [`BatchReport`]'s work, depth, matching size, matched deletions and
//! rebuild flag, every `take_matching_delta()`, and the final full
//! `save_state()` blob, `cost` line included.  The parallel constants were
//! recorded with the kernel's original hash-set leveling state, the
//! recompute constants with the two engines' original separate
//! implementations, and the sequential-repair constants with the naive and
//! random-replace engines' original separate implementations.  A change to
//! an engine's data layout or code structure must leave them untouched;
//! only a change to an algorithm or its cost model may move them.
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

/// Parallel-engine digests recorded for family `f` (row) and seed
/// `k·1000003`, k = 1..3 (column).
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

/// [`EngineKind::RecomputeSequential`]'s digests for families 2 (row 0) and
/// 3 (row 1), seeds as in [`GOLDEN`].  Families 0 and 1 are left to the
/// parallel engine: a full recompute per batch makes them slow in a debug
/// build.
const RECOMPUTE_SEQUENTIAL_GOLDEN: [[u64; 3]; 2] = [
    [
        0xc2a7_8c79_f286_f276,
        0xfebf_2807_2c32_bd78,
        0xf55a_29fe_5057_2d76,
    ],
    [
        0x45fe_ee38_3312_2aa5,
        0x2016_f775_9f92_7661,
        0xba4c_7da5_40d5_b8aa,
    ],
];

/// [`EngineKind::StaticRecompute`]'s digests, laid out as
/// [`RECOMPUTE_SEQUENTIAL_GOLDEN`].
const STATIC_RECOMPUTE_GOLDEN: [[u64; 3]; 2] = [
    [
        0x524a_962b_f48e_5186,
        0xe233_8bf3_5ec7_dc0e,
        0xe6a8_b748_6997_c0d2,
    ],
    [
        0x976f_3fa6_1472_ee24,
        0x325c_89ac_a7b8_81d8,
        0xc565_615e_22ea_528f,
    ],
];

/// [`EngineKind::NaiveSequential`]'s digests for families 0–2, laid out as
/// [`GOLDEN`].  Family 3 is left out: its rebuild assertion is for engines
/// that rebuild, and the sequential-repair engines never do.
const NAIVE_SEQUENTIAL_GOLDEN: [[u64; 3]; 3] = [
    [
        0x58e6_efef_0e2b_9d63,
        0x890b_af19_2a80_a8f8,
        0x7d45_d580_a673_4346,
    ],
    [
        0x846a_b0a5_4515_968d,
        0xa275_d9b4_1662_2ab9,
        0x9b02_94e0_6c24_9cf1,
    ],
    [
        0x9061_a232_4ff5_824e,
        0xf415_777a_299c_d757,
        0x3550_e8a9_400b_56e1,
    ],
];

/// [`EngineKind::RandomReplace`]'s digests, laid out as
/// [`NAIVE_SEQUENTIAL_GOLDEN`].
const RANDOM_REPLACE_GOLDEN: [[u64; 3]; 3] = [
    [
        0x8f4b_300f_00dd_b950,
        0x8343_8b5d_b533_5ef2,
        0x543a_03c6_6c78_d79f,
    ],
    [
        0x0c2f_2c54_577c_d830,
        0xc302_3632_aa1d_8b88,
        0x3ab5_3627_c7db_573a,
    ],
    [
        0x657c_712e_81b2_b3a8,
        0xf2b6_d4a8_0191_a767,
        0x7495_2056_576f_0d39,
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

fn run(kind: EngineKind, w: &Workload, s: u64, threads: usize) -> Run {
    let mut engine = engine::build(kind, &builder(w, s, threads));
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
fn restored_tail(kind: EngineKind, w: &Workload, s: u64, blob: &str) -> u64 {
    let mut twin = engine::build(kind, &builder(w, s, 1));
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

fn check_family(kind: EngineKind, family: usize, golden: [u64; 3]) {
    let mut recorded = Vec::new();
    for k in 1..=3u64 {
        let s = k * 1_000_003;
        let w = stream(family, s);
        let one = run(kind, &w, s, 1);
        let two = run(kind, &w, s, 2);
        let name = format!("{kind} on {}", FAMILIES[family]);
        assert_eq!(one.full, two.full, "{name}, seed {s}: 1 vs 2 threads");
        assert_eq!(
            restored_tail(kind, &w, s, &one.midpoint_blob),
            one.tail,
            "{name}, seed {s}: restored twin's tail"
        );
        if family == 3 {
            assert!(one.rebuilt, "{name}, seed {s}: the stream must rebuild");
        }
        recorded.push(one.full);
    }
    assert_eq!(
        recorded, golden,
        "{kind} on {} digests moved: {recorded:#x?}",
        FAMILIES[family]
    );
}

#[test]
fn random_churn_10k_rank_3() {
    check_family(EngineKind::Parallel, 0, GOLDEN[0]);
}

#[test]
fn skewed_churn_10k_rank_2() {
    check_family(EngineKind::Parallel, 1, GOLDEN[1]);
}

#[test]
fn random_churn_2k_rank_3() {
    check_family(EngineKind::Parallel, 2, GOLDEN[2]);
}

#[test]
fn random_churn_500_rank_4_rebuilds() {
    check_family(EngineKind::Parallel, 3, GOLDEN[3]);
}

#[test]
fn recompute_sequential_random_churn_2k_rank_3() {
    check_family(
        EngineKind::RecomputeSequential,
        2,
        RECOMPUTE_SEQUENTIAL_GOLDEN[0],
    );
}

#[test]
fn recompute_sequential_random_churn_500_rank_4() {
    check_family(
        EngineKind::RecomputeSequential,
        3,
        RECOMPUTE_SEQUENTIAL_GOLDEN[1],
    );
}

#[test]
fn static_recompute_random_churn_2k_rank_3() {
    check_family(EngineKind::StaticRecompute, 2, STATIC_RECOMPUTE_GOLDEN[0]);
}

#[test]
fn static_recompute_random_churn_500_rank_4() {
    check_family(EngineKind::StaticRecompute, 3, STATIC_RECOMPUTE_GOLDEN[1]);
}

#[test]
fn naive_sequential_random_churn_10k_rank_3() {
    check_family(EngineKind::NaiveSequential, 0, NAIVE_SEQUENTIAL_GOLDEN[0]);
}

#[test]
fn naive_sequential_skewed_churn_10k_rank_2() {
    check_family(EngineKind::NaiveSequential, 1, NAIVE_SEQUENTIAL_GOLDEN[1]);
}

#[test]
fn naive_sequential_random_churn_2k_rank_3() {
    check_family(EngineKind::NaiveSequential, 2, NAIVE_SEQUENTIAL_GOLDEN[2]);
}

#[test]
fn random_replace_random_churn_10k_rank_3() {
    check_family(EngineKind::RandomReplace, 0, RANDOM_REPLACE_GOLDEN[0]);
}

#[test]
fn random_replace_skewed_churn_10k_rank_2() {
    check_family(EngineKind::RandomReplace, 1, RANDOM_REPLACE_GOLDEN[1]);
}

#[test]
fn random_replace_random_churn_2k_rank_3() {
    check_family(EngineKind::RandomReplace, 2, RANDOM_REPLACE_GOLDEN[2]);
}
