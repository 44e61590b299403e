//! Deterministic, splittable randomness for parallel phases.
//!
//! The algorithm is randomized and analysed against an *oblivious* adversary (§2):
//! the update sequence may not depend on the algorithm's coin flips.  To make that
//! model concrete (and the whole system reproducible), all algorithm randomness is
//! derived from a single user-provided seed through a ChaCha-based PRNG, and the
//! per-element coins needed inside parallel loops (edge marking in
//! `grand-random-subsubsettle`, Luby priorities, random endpoint choices `h(e)`) are
//! derived *statelessly* from `(round_seed, element_id)` so that different rayon
//! tasks never contend on a shared generator and the outcome does not depend on the
//! parallel schedule.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Root source of algorithm randomness.
///
/// One `RandomSource` is owned by each algorithm instance.  Each parallel phase asks
/// it for a fresh [`PhaseRandom`] (a 64-bit phase seed); within the phase, per-element
/// draws are pure functions of `(phase seed, element id)`.
#[derive(Debug, Clone)]
pub struct RandomSource {
    rng: ChaCha8Rng,
}

impl RandomSource {
    /// Creates a source from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        RandomSource {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Draws a fresh phase seed; every parallel phase must use a distinct one.
    pub fn next_phase(&mut self) -> PhaseRandom {
        PhaseRandom {
            seed: self.rng.next_u64(),
        }
    }

    /// Draws a uniform value in `[0, bound)` (sequential use only).
    pub fn uniform_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "uniform_below requires a positive bound");
        self.rng.gen_range(0..bound)
    }

    /// Draws a raw 64-bit value (sequential use only).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Exports the exact stream position as `(chacha_input_block, word_index)`.
    ///
    /// Together with [`RandomSource::from_state`] this lets an engine checkpoint
    /// its randomness mid-stream and resume with bit-identical draws.
    #[must_use]
    pub fn state(&self) -> ([u32; 16], usize) {
        self.rng.to_state()
    }

    /// Rebuilds a source from a position exported by [`RandomSource::state`].
    ///
    /// # Panics
    ///
    /// Panics if `index > 16` (not a valid stream position).
    #[must_use]
    pub fn from_state(state: [u32; 16], index: usize) -> Self {
        RandomSource {
            rng: ChaCha8Rng::from_state(state, index),
        }
    }
}

/// Stateless per-phase randomness: deterministic function of `(phase seed, id)`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseRandom {
    seed: u64,
}

impl PhaseRandom {
    /// Creates a phase from an explicit seed (useful in tests).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        PhaseRandom { seed }
    }

    /// A 64-bit hash of `(phase seed, id)`, uniform and independent across ids.
    #[must_use]
    pub fn hash64(&self, id: u64) -> u64 {
        // SplitMix64 finalizer over the xor of seed and id; passes the usual
        // avalanche tests and is far cheaper than instantiating an RNG per element.
        let mut z = self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` for element `id`.
    #[must_use]
    pub fn uniform_f64(&self, id: u64) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.hash64(id) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli coin with probability `p` for element `id`.
    #[must_use]
    pub fn bernoulli(&self, id: u64, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64(id) < p
        }
    }

    /// Uniform value in `[0, bound)` for element `id`.
    #[must_use]
    pub fn uniform_below(&self, id: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0, "uniform_below requires a positive bound");
        // 128-bit multiply-shift avoids modulo bias for the bounds used here.
        ((u128::from(self.hash64(id)) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RandomSource::from_seed(7);
        let mut b = RandomSource::from_seed(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomSource::from_seed(1);
        let mut b = RandomSource::from_seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn phase_hash_is_deterministic() {
        let p = PhaseRandom::from_seed(99);
        assert_eq!(p.hash64(5), p.hash64(5));
        assert_ne!(p.hash64(5), p.hash64(6));
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let p = PhaseRandom::from_seed(3);
        for id in 0..10_000u64 {
            let x = p.uniform_f64(id);
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_respects_probability() {
        let p = PhaseRandom::from_seed(42);
        let n = 200_000u64;
        let hits = (0..n).filter(|&id| p.bernoulli(id, 0.25)).count() as f64;
        let frac = hits / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
        assert!(!(0..100).any(|id| p.bernoulli(id, 0.0)));
        assert!((0..100).all(|id| p.bernoulli(id, 1.0)));
    }

    #[test]
    fn uniform_below_in_range_and_roughly_uniform() {
        let p = PhaseRandom::from_seed(11);
        let bound = 10u64;
        let mut counts = vec![0usize; bound as usize];
        for id in 0..100_000u64 {
            let v = p.uniform_below(id, bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        for c in counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.02, "bucket frac = {frac}");
        }
    }

    #[test]
    fn uniform_below_source_in_range() {
        let mut s = RandomSource::from_seed(5);
        for _ in 0..1000 {
            assert!(s.uniform_below(7) < 7);
        }
    }

    #[test]
    fn phases_are_distinct() {
        let mut s = RandomSource::from_seed(0);
        let p1 = s.next_phase();
        let p2 = s.next_phase();
        let same = (0..100u64)
            .filter(|&i| p1.hash64(i) == p2.hash64(i))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn state_roundtrip_resumes_mid_stream() {
        let mut a = RandomSource::from_seed(21);
        let _ = a.next_phase();
        let _ = a.uniform_below(13);
        let (words, index) = a.state();
        let mut b = RandomSource::from_state(words, index);
        for bound in [2u64, 7, 1000, u64::MAX] {
            assert_eq!(a.uniform_below(bound), b.uniform_below(bound));
        }
        assert_eq!(a.next_phase().hash64(4), b.next_phase().hash64(4));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
