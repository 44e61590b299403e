//! # pdmm-primitives
//!
//! Building blocks shared by every engine of the Parallel Dynamic Maximal
//! Matching reproduction (Ghaffari & Trygub, SPAA 2024):
//!
//! * [`random`] — deterministic splittable randomness (oblivious-adversary model),
//! * [`cost_model`] — explicit work/depth (round) accounting.
//!
//! The paper's §2 parallel dictionary and the prefix sums of Claim 3.3 are
//! PRAM bookkeeping; the kernel keeps that bookkeeping in dense per-vertex
//! buckets and charges its cost through [`cost_model`] instead.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cost_model;
pub mod random;

pub use cost_model::{CostSnapshot, CostTracker};
pub use random::{PhaseRandom, RandomSource};
