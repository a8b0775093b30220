//! Open-loop arrival processes for service scenarios.
//!
//! The offline experiments hand a pre-assembled batch to the algorithms; the serving
//! layer (`hcsp-service`) instead receives queries over time and must *form* batches
//! from whatever queues up behind its busy workers. An [`ArrivalProcess`] turns a generated query set into a
//! deterministic open-loop schedule — `(offset from start, query)` pairs — that a service
//! replays at its intended inter-arrival gaps. "Open loop" means arrival times do not
//! depend on service completion times, the standard model for studying queueing behaviour
//! under offered load.

use hcsp_core::PathQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// How inter-arrival gaps of an open-loop schedule are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: independent exponential inter-arrival gaps with mean `1 / rate`,
    /// the classic model of many independent users. `rate_qps` is queries per second.
    Poisson {
        /// Mean offered load in queries per second (must be positive).
        rate_qps: f64,
    },
    /// Deterministic arrivals: exactly one query every `gap`.
    Uniform {
        /// The fixed inter-arrival gap.
        gap: Duration,
    },
    /// Bursty arrivals: `burst_size` queries arrive at the same instant, consecutive
    /// bursts are `gap` apart — the best case for micro-batching (a burst queues up behind
    /// a busy worker and shares its next micro-batch) and the worst case for per-query
    /// serving.
    Bursty {
        /// Queries per burst (values of 0 are treated as 1).
        burst_size: usize,
        /// Gap between consecutive bursts.
        gap: Duration,
    },
}

impl ArrivalProcess {
    /// Assigns an arrival offset to every query, in order. Offsets are non-decreasing and
    /// start at zero; for a fixed process and seed the schedule is fully deterministic.
    pub fn schedule(&self, queries: &[PathQuery], seed: u64) -> Vec<(Duration, PathQuery)> {
        self.offsets(queries.len(), seed)
            .into_iter()
            .zip(queries.iter().copied())
            .collect()
    }

    /// The bare arrival offsets for `count` items — the same deterministic schedule as
    /// [`ArrivalProcess::schedule`] without tying it to [`PathQuery`] values, so callers
    /// can pace anything (the network front-end paces query-language statements with it).
    pub fn offsets(&self, count: usize, seed: u64) -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA881_7A1E);
        let mut offset = Duration::ZERO;
        (0..count)
            .map(|i| {
                if i > 0 {
                    offset += self.next_gap(i, &mut rng);
                }
                offset
            })
            .collect()
    }

    /// The gap between arrival `i - 1` and arrival `i` (`i >= 1`).
    fn next_gap(&self, i: usize, rng: &mut StdRng) -> Duration {
        match *self {
            ArrivalProcess::Poisson { rate_qps } => {
                assert!(rate_qps > 0.0, "Poisson rate must be positive");
                // Inverse-CDF exponential sampling; 1 - u avoids ln(0).
                let u: f64 = rng.gen_range(0.0..1.0);
                Duration::from_secs_f64(-(1.0 - u).ln() / rate_qps)
            }
            ArrivalProcess::Uniform { gap } => gap,
            ArrivalProcess::Bursty { burst_size, gap } => {
                if i.is_multiple_of(burst_size.max(1)) {
                    gap
                } else {
                    Duration::ZERO
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries(n: usize) -> Vec<PathQuery> {
        (0..n as u32).map(|i| PathQuery::new(i, i + 1, 4)).collect()
    }

    fn offsets(schedule: &[(Duration, PathQuery)]) -> Vec<Duration> {
        schedule.iter().map(|&(o, _)| o).collect()
    }

    #[test]
    fn schedules_are_deterministic_and_ordered() {
        let q = queries(50);
        let p = ArrivalProcess::Poisson { rate_qps: 1000.0 };
        let a = p.schedule(&q, 7);
        let b = p.schedule(&q, 7);
        assert_eq!(a, b);
        let c = p.schedule(&q, 8);
        assert_ne!(offsets(&a), offsets(&c));
        assert_eq!(a[0].0, Duration::ZERO);
        assert!(offsets(&a).windows(2).all(|w| w[0] <= w[1]));
        // Queries keep their order.
        assert_eq!(a.iter().map(|&(_, q)| q).collect::<Vec<_>>(), q);
    }

    #[test]
    fn poisson_mean_gap_approximates_the_rate() {
        let q = queries(2000);
        let rate = 500.0;
        let schedule = ArrivalProcess::Poisson { rate_qps: rate }.schedule(&q, 42);
        let span = schedule.last().unwrap().0.as_secs_f64();
        let mean_gap = span / (q.len() - 1) as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap - expected).abs() < expected * 0.2,
            "mean gap {mean_gap} should be within 20% of {expected}"
        );
    }

    #[test]
    fn uniform_gaps_are_exact() {
        let q = queries(4);
        let schedule = ArrivalProcess::Uniform {
            gap: Duration::from_millis(3),
        }
        .schedule(&q, 1);
        assert_eq!(
            offsets(&schedule),
            vec![
                Duration::ZERO,
                Duration::from_millis(3),
                Duration::from_millis(6),
                Duration::from_millis(9),
            ]
        );
    }

    #[test]
    fn bursts_arrive_together() {
        let q = queries(7);
        let schedule = ArrivalProcess::Bursty {
            burst_size: 3,
            gap: Duration::from_millis(10),
        }
        .schedule(&q, 1);
        let o = offsets(&schedule);
        // Bursts of 3: [0,0,0], [10,10,10], [20].
        assert_eq!(o[0], o[2]);
        assert_eq!(o[3], o[5]);
        assert!(o[3] > o[2]);
        assert_eq!(o[6], Duration::from_millis(20));
        // Degenerate burst size behaves like Uniform.
        let degenerate = ArrivalProcess::Bursty {
            burst_size: 0,
            gap: Duration::from_millis(1),
        }
        .schedule(&queries(3), 1);
        assert_eq!(
            offsets(&degenerate),
            vec![
                Duration::ZERO,
                Duration::from_millis(1),
                Duration::from_millis(2)
            ]
        );
    }

    #[test]
    fn offsets_match_the_schedule() {
        let q = queries(32);
        let p = ArrivalProcess::Poisson { rate_qps: 2000.0 };
        assert_eq!(p.offsets(q.len(), 9), offsets(&p.schedule(&q, 9)));
        assert!(p.offsets(0, 9).is_empty());
    }

    #[test]
    fn empty_query_sets_schedule_nothing() {
        let schedule = ArrivalProcess::Uniform {
            gap: Duration::from_millis(1),
        }
        .schedule(&[], 0);
        assert!(schedule.is_empty());
    }
}
