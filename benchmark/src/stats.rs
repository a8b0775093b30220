//! Sample arithmetic: nearest-rank percentiles, medians, per-segment percentiles.

use crate::json::Json;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with at least
/// `q` of the samples at or below it. `q` in (0, 1]. Always an observed value.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(samples: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(samples), q)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Splits `samples` (in arrival order) into `segments` equal consecutive parts and
/// returns each part's `q`-percentile. The reported percentile is the median of these:
/// one slow second then moves one segment, not the answer.
pub fn segment_percentiles(samples: &[f64], segments: usize, q: f64) -> Vec<f64> {
    assert!(segments > 0 && samples.len() >= segments);
    let len = samples.len() / segments;
    (0..segments)
        .map(|s| percentile(&samples[s * len..(s + 1) * len], q))
        .collect()
}

/// A reported number: the median of its samples with their range and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        Summary {
            median: median(&v),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// A number that is not a median of repeated samples (a count, a ratio).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// A median of per-segment values that rests on `n` underlying samples.
    pub fn of_segments(values: &[f64], n: usize) -> Summary {
        Summary {
            n,
            ..Summary::of(values)
        }
    }

    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.min), f(self.max));
        Summary {
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
            n: self.n,
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
            ("unit", Json::str(unit)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 7 samples: p50 is the 4th, p99 the 7th.
        let w = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0];
        assert_eq!(percentile(&w, 0.5), 5.0);
        assert_eq!(percentile(&w, 0.99), 9.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_of_segments_ignores_one_bad_segment() {
        // Three segments of 100; the middle one has a slow tail.
        let mut samples = vec![1.0; 300];
        for s in samples.iter_mut().skip(100).take(100).step_by(10) {
            *s = 50.0;
        }
        let per_segment = segment_percentiles(&samples, 3, 0.99);
        assert_eq!(per_segment, vec![1.0, 50.0, 1.0]);
        assert_eq!(median(&per_segment), 1.0);
        // The pooled p99 would have reported the slow segment.
        assert_eq!(percentile(&samples, 0.99), 50.0);
    }

    #[test]
    fn summary_reports_range_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
        let inv = s.map(|x| 1.0 / x);
        assert!(inv.min < inv.max && inv.median == 0.25);
    }
}
