//! # pdmm-static
//!
//! Static maximal-matching algorithms for the Parallel Dynamic Maximal Matching
//! reproduction (Ghaffari & Trygub, SPAA 2024):
//!
//! * [`luby`] — the parallel maximal matching of Theorem 2.2 (Luby's MIS on the
//!   hyperedge conflict graph), used both inside the dynamic algorithm (insertion
//!   handling, `process-level` Step 1) and as a recompute-from-scratch baseline;
//! * [`greedy`] — the trivial sequential scan, the work-efficiency yardstick;
//! * [`recompute`] — the [`Recompute`] engine, which reruns either matcher over
//!   the whole graph after every batch, behind the workspace-wide
//!   `MatchingEngine` API.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod greedy;
pub mod luby;
pub mod recompute;

pub use greedy::greedy_maximal_matching;
pub use luby::{luby_maximal_matching, luby_maximal_matching_by_ref, StaticMatching};
pub use recompute::{GreedyMatcher, LubyMatcher, Recompute, StaticMatcher};
