//! Epoch and cost metrics (§4.2 of the paper).
//!
//! The analysis of the paper charges all computation to *epochs*: an epoch is the
//! maximal time interval during which a hyperedge stays in the matching at a fixed
//! level (Definition 4.5).  Epochs end *naturally* (the adversary deletes the
//! matched edge) or *induced* (the algorithm kicks the edge out in favour of a
//! higher-level one).  Lemma 4.6 guarantees every `grand-random-settle` call creates
//! at least `|B|/α³` new epochs, and Lemmas 4.13/4.14 bound the fraction of "short"
//! epochs — those for which only few of the temporarily deleted edges in `D(e)` were
//! deleted before `e` itself.
//!
//! This module counts exactly those quantities so that experiment E8 can report
//! them, and exposes aggregate work/depth/batch counters for E2/E3.

/// Per-level epoch statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Number of epochs (matched edges) created at this level.
    pub epochs_created: u64,
    /// Epochs ended by an adversary deletion of the matched edge ("natural").
    pub epochs_ended_natural: u64,
    /// Epochs ended by the algorithm kicking the edge out ("induced").
    pub epochs_ended_induced: u64,
    /// Sum of `|D(e)|` over epochs created at this level (sampling-set sizes).
    pub d_size_at_creation: u64,
    /// Sum over naturally ended epochs of the number of `D(e)` edges the adversary
    /// deleted before deleting `e` itself (the "uninterrupted duration" proxy of
    /// Definition 4.8).
    pub d_deleted_before_natural_end: u64,
}

/// Counters accumulated over the lifetime of one algorithm instance.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Number of batches processed.
    pub batches: u64,
    /// Number of individual updates processed.
    pub updates: u64,
    /// Adversary insertions processed.
    pub insertions: u64,
    /// Adversary deletions processed.
    pub deletions: u64,
    /// Deletions that hit a matched edge (the expensive case).
    pub matched_deletions: u64,
    /// Deletions that hit a temporarily deleted edge (the cheapest case).
    pub temp_deleted_deletions: u64,
    /// Edges temporarily deleted by the algorithm (placed into some `D(e)`).
    pub temp_deletions: u64,
    /// Edges re-inserted by the algorithm (from `D(e)` of dead matched edges,
    /// plus kicked-out matched edges themselves).
    pub reinsertions: u64,
    /// Number of `grand-random-settle` invocations.
    pub settle_invocations: u64,
    /// Total `grand-random-subsettle` repetitions across all invocations.
    pub settle_outer_repeats: u64,
    /// Total `grand-random-subsubsettle` iterations (each is one parallel round).
    pub settle_iterations: u64,
    /// Total Luby iterations across all static-matching invocations.
    pub luby_iterations: u64,
    /// Number of full rebuilds triggered by the `N`-doubling rule.
    pub rebuilds: u64,
    /// Number of `process-level` invocations.
    pub levels_processed: u64,
    /// Per-level epoch statistics, indexed by level `0..=L`.
    pub per_level: Vec<LevelStats>,
}

impl Metrics {
    /// Creates zeroed metrics with room for `num_levels + 1` levels.
    #[must_use]
    pub fn new(num_levels: usize) -> Self {
        Metrics {
            per_level: vec![LevelStats::default(); num_levels + 1],
            ..Metrics::default()
        }
    }

    /// Makes sure the per-level table can hold `level` (levels grow on rebuild).
    pub fn ensure_level(&mut self, level: usize) {
        if self.per_level.len() <= level {
            self.per_level.resize(level + 1, LevelStats::default());
        }
    }

    /// Records the creation of an epoch at `level` with a sampling set of size
    /// `d_size`.
    pub fn record_epoch_created(&mut self, level: usize, d_size: u64) {
        self.ensure_level(level);
        let stats = &mut self.per_level[level];
        stats.epochs_created = stats.epochs_created.saturating_add(1);
        stats.d_size_at_creation = stats.d_size_at_creation.saturating_add(d_size);
    }

    /// Records a natural epoch termination at `level` after `d_deleted` of its
    /// temporarily deleted edges were themselves deleted by the adversary.
    pub fn record_epoch_natural_end(&mut self, level: usize, d_deleted: u64) {
        self.ensure_level(level);
        let stats = &mut self.per_level[level];
        stats.epochs_ended_natural = stats.epochs_ended_natural.saturating_add(1);
        stats.d_deleted_before_natural_end =
            stats.d_deleted_before_natural_end.saturating_add(d_deleted);
    }

    /// Records an induced epoch termination at `level`.
    pub fn record_epoch_induced_end(&mut self, level: usize) {
        self.ensure_level(level);
        let stats = &mut self.per_level[level];
        stats.epochs_ended_induced = stats.epochs_ended_induced.saturating_add(1);
    }

    /// Total epochs created across all levels, saturating at `u64::MAX`.
    #[must_use]
    pub fn total_epochs_created(&self) -> u64 {
        self.level_total(|l| l.epochs_created)
    }

    /// Total natural epoch terminations across all levels, saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn total_natural_ends(&self) -> u64 {
        self.level_total(|l| l.epochs_ended_natural)
    }

    /// Total induced epoch terminations across all levels, saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn total_induced_ends(&self) -> u64 {
        self.level_total(|l| l.epochs_ended_induced)
    }

    /// The saturating sum of one per-level counter: a restored state blob
    /// can hold counters at `u64::MAX`.
    fn level_total(&self, counter: impl Fn(&LevelStats) -> u64) -> u64 {
        self.per_level
            .iter()
            .fold(0, |total, l| total.saturating_add(counter(l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_zero() {
        let m = Metrics::new(4);
        assert_eq!(m.per_level.len(), 5);
        assert_eq!(m.total_epochs_created(), 0);
        assert_eq!(m.batches, 0);
    }

    #[test]
    fn epoch_recording_accumulates() {
        let mut m = Metrics::new(2);
        m.record_epoch_created(1, 10);
        m.record_epoch_created(1, 20);
        m.record_epoch_created(2, 5);
        m.record_epoch_natural_end(1, 7);
        m.record_epoch_induced_end(2);
        assert_eq!(m.per_level[1].epochs_created, 2);
        assert_eq!(m.per_level[1].d_size_at_creation, 30);
        assert_eq!(m.per_level[1].epochs_ended_natural, 1);
        assert_eq!(m.per_level[1].d_deleted_before_natural_end, 7);
        assert_eq!(m.per_level[2].epochs_ended_induced, 1);
        assert_eq!(m.total_epochs_created(), 3);
        assert_eq!(m.total_natural_ends(), 1);
        assert_eq!(m.total_induced_ends(), 1);
    }

    #[test]
    fn counters_at_u64_max_saturate() {
        let max = LevelStats {
            epochs_created: u64::MAX,
            epochs_ended_natural: u64::MAX,
            epochs_ended_induced: u64::MAX,
            d_size_at_creation: u64::MAX,
            d_deleted_before_natural_end: u64::MAX,
        };
        let mut m = Metrics::new(1);
        m.per_level = vec![max.clone(); 2];
        m.record_epoch_created(1, 3);
        m.record_epoch_natural_end(1, 3);
        m.record_epoch_induced_end(1);
        assert_eq!(m.per_level[1], max);
        assert_eq!(m.total_epochs_created(), u64::MAX);
        assert_eq!(m.total_natural_ends(), u64::MAX);
        assert_eq!(m.total_induced_ends(), u64::MAX);
    }

    #[test]
    fn ensure_level_grows_table() {
        let mut m = Metrics::new(1);
        m.record_epoch_created(6, 1);
        assert_eq!(m.per_level.len(), 7);
        assert_eq!(m.per_level[6].epochs_created, 1);
    }
}
