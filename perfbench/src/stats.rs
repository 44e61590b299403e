//! The benchmark's own arithmetic: nearest-rank percentiles, the tail rule,
//! open-loop due-time accounting and the failed-operation fraction.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 < q <= 1`) of an ascending slice by the nearest-rank
/// rule: the smallest sample with at least `q * n` samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentiles the benchmark may report, lowest first.
pub const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it among `n` samples, or `None` when not even the median
/// does.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// Sorted samples of one latency, with the figures the report needs.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
    sorted_ok: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.sorted.push(value);
        self.sorted_ok = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.sorted.extend_from_slice(&other.sorted);
        self.sorted_ok = false;
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted_ok {
            self.sorted.sort_by(f64::total_cmp);
            self.sorted_ok = true;
        }
        &self.sorted
    }

    /// The `q`-quantile, or an error naming the metric when `q` is beyond the
    /// highest percentile these samples can support (see [`reportable_tail`]).
    pub fn quantile(&mut self, name: &str, q: f64) -> Result<f64, String> {
        let n = self.len();
        match reportable_tail(n) {
            Some(tail) if q <= tail => {
                Ok(percentile(self.sorted(), q).expect("non-empty: a tail exists"))
            }
            _ => Err(format!(
                "{name}: {n} samples cannot support the {q} quantile (needs ten beyond it)"
            )),
        }
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// The lowest over segments of each segment's `q`-quantile.  On a shared
/// machine whole segments run slower at random, commits and reads alike, so
/// the quietest segment is the steadiest estimate of the program's own cost;
/// the tail inside that segment is still the program's.
pub fn best_segment_quantile<'a>(
    segments: impl IntoIterator<Item = &'a mut Samples>,
    name: &str,
    q: f64,
) -> Result<f64, String> {
    let per_segment = segments
        .into_iter()
        .map(|samples| samples.quantile(name, q))
        .collect::<Result<Vec<_>, _>>()?;
    lowest(&per_segment).ok_or_else(|| format!("{name}: no segments"))
}

/// The smallest of `values`, `None` when there are none.
pub fn lowest(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// The largest of `values`, `None` when there are none.
pub fn highest(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// An open-loop schedule: operation `i` is due at `start + i / rate`, no
/// matter how earlier operations fared.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Latency of an operation timed from when it was due, so a generator that
/// falls behind charges its backlog to the operations that waited.
pub fn since_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator issued an operation.
pub fn lateness(due: Instant, issued: Instant) -> Duration {
    issued.saturating_duration_since(due)
}

/// What became of the operations one run attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub answered: u64,
    pub refused: u64,
    pub errored: u64,
}

impl Outcomes {
    /// Refused, errored and never-answered operations.
    pub fn failed(&self) -> u64 {
        let unanswered = self.attempted.saturating_sub(self.answered);
        self.refused + self.errored + unanswered
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

pub fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted, 0.999), Some(999.0));
        assert_eq!(percentile(&sorted, 1.0), Some(1000.0));
        assert_eq!(percentile(&[7.0], 0.999), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(reportable_tail(0), None);
        assert_eq!(reportable_tail(19), None);
        // The median of 20 sits at rank 10 with 10 beyond it.
        assert_eq!(reportable_tail(20), Some(0.5));
        assert_eq!(reportable_tail(99), Some(0.5));
        assert_eq!(reportable_tail(100), Some(0.9));
        assert_eq!(reportable_tail(999), Some(0.9));
        assert_eq!(reportable_tail(1000), Some(0.99));
        assert_eq!(reportable_tail(10_000), Some(0.999));
        assert_eq!(reportable_tail(1_000_000), Some(0.9999));
    }

    #[test]
    fn quantile_refuses_an_unsupported_tail() {
        let mut samples = Samples::default();
        for v in 0..500 {
            samples.push(f64::from(500 - v));
        }
        assert_eq!(samples.quantile("x", 0.5), Ok(250.0));
        assert_eq!(samples.quantile("x", 0.9), Ok(450.0));
        assert!(samples.quantile("x", 0.99).is_err());
    }

    #[test]
    fn best_segment_quantile_is_the_lowest_segment() {
        let segment = |values: &[f64]| {
            let mut samples = Samples::default();
            for &v in values {
                samples.push(v);
            }
            samples
        };
        let low: Vec<f64> = (1..=20).map(f64::from).collect();
        let high: Vec<f64> = (101..=120).map(f64::from).collect();
        let mut segments = [segment(&high), segment(&low), segment(&high)];
        assert_eq!(
            best_segment_quantile(segments.iter_mut(), "x", 0.5),
            Ok(10.0)
        );
        // Every segment must support the quantile, the lowest one included.
        assert!(best_segment_quantile(segments.iter_mut(), "x", 0.9).is_err());
        assert!(best_segment_quantile(std::iter::empty(), "x", 0.5).is_err());
        assert_eq!(lowest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(lowest(&[]), None);
        assert_eq!(highest(&[3.0, 1.5, 2.0]), Some(3.0));
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule { start, rate: 100.0 };
        // Operation 3 is due 30 ms in; the writer only got to it at 50 ms and
        // the answer came 1 ms later: it waited 21 ms, of which 20 ms were the
        // generator's backlog.
        let due = schedule.due(3);
        assert_eq!(due - start, Duration::from_millis(30));
        let issued = start + Duration::from_millis(50);
        let done = issued + Duration::from_millis(1);
        assert_eq!(since_due(due, done), Duration::from_millis(21));
        assert_eq!(lateness(due, issued), Duration::from_millis(20));
        // Early completion never reads as negative.
        assert_eq!(lateness(due, start), Duration::ZERO);
    }

    #[test]
    fn failed_counts_refused_errored_and_unanswered() {
        let outcomes = Outcomes {
            attempted: 100,
            answered: 97,
            refused: 2,
            errored: 1,
        };
        assert_eq!(outcomes.failed(), 6);
        assert!((outcomes.failed_frac() - 0.06).abs() < 1e-12);
        let clean = Outcomes {
            attempted: 10,
            answered: 10,
            ..Outcomes::default()
        };
        assert_eq!(clean.failed_frac(), 0.0);
        assert_eq!(Outcomes::default().failed_frac(), 1.0);
    }
}
