//! Mixed-mode query generation: typed [`QuerySpec`] workloads for the request/response
//! serving scenarios.
//!
//! The paper's workloads are pure full-enumeration batches. Real serving traffic mixes
//! answer shapes — fraud screens ask *exists?*, analytics asks for counts, interactive
//! exploration asks for the first few paths, offline jobs still collect everything. This
//! module turns any query set drawn by the paper's rule into such a mixed stream: each
//! query is assigned a [`ResultMode`] by a seeded weighted draw, so the stream is
//! deterministic per seed and its mode composition is tunable per scenario.

use crate::query_gen::{random_query_set, QuerySetSpec};
use hcsp_core::{PathQuery, QuerySpec, ResultMode};
use hcsp_graph::DiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative weights of the four result modes in a generated mixed-mode workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeMix {
    /// Weight of [`ResultMode::Exists`].
    pub exists: u32,
    /// Weight of [`ResultMode::Count`].
    pub count: u32,
    /// Weight of [`ResultMode::FirstK`].
    pub first_k: u32,
    /// Weight of [`ResultMode::Collect`].
    pub collect: u32,
    /// The `k` used for generated `FirstK` specs.
    pub first_k_paths: usize,
}

impl Default for ModeMix {
    /// A balanced serving mix: every mode equally likely, `FirstK(4)`.
    fn default() -> Self {
        ModeMix {
            exists: 1,
            count: 1,
            first_k: 1,
            collect: 1,
            first_k_paths: 4,
        }
    }
}

impl ModeMix {
    /// A mix with explicit weights (all-zero weights fall back to `Collect`).
    pub fn new(exists: u32, count: u32, first_k: u32, collect: u32) -> Self {
        ModeMix {
            exists,
            count,
            first_k,
            collect,
            ..ModeMix::default()
        }
    }

    /// Returns the mix with a different `k` for generated `FirstK` specs.
    pub fn with_first_k_paths(mut self, k: usize) -> Self {
        self.first_k_paths = k.max(1);
        self
    }

    /// Total weight (0 means "always Collect").
    fn total(&self) -> u32 {
        self.exists + self.count + self.first_k + self.collect
    }

    /// Draws one mode according to the weights.
    pub fn draw(&self, rng: &mut StdRng) -> ResultMode {
        let total = self.total();
        if total == 0 {
            return ResultMode::Collect;
        }
        let mut roll = rng.gen_range(0..total);
        for (weight, mode) in [
            (self.exists, ResultMode::Exists),
            (self.count, ResultMode::Count),
            (self.first_k, ResultMode::FirstK(self.first_k_paths)),
            (self.collect, ResultMode::Collect),
        ] {
            if roll < weight {
                return mode;
            }
            roll -= weight;
        }
        ResultMode::Collect
    }
}

/// Assigns a result mode to each query of an existing set by a seeded weighted draw
/// (deterministic per `(queries, seed, mix)`).
pub fn assign_modes(queries: &[PathQuery], mix: ModeMix, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC0_0DE5);
    queries
        .iter()
        .map(|&q| QuerySpec::new(q, mix.draw(&mut rng)))
        .collect()
}

/// Generates the paper's default workload (`random_query_set`) and assigns each query a
/// result mode drawn from `mix` — the mixed-mode serving scenario in one call.
pub fn mixed_mode_query_set(graph: &DiGraph, spec: QuerySetSpec, mix: ModeMix) -> Vec<QuerySpec> {
    let queries = random_query_set(graph, spec);
    assign_modes(&queries, mix, spec.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Dataset, DatasetScale};

    #[test]
    fn mixed_sets_are_deterministic_and_cover_modes() {
        let g = Dataset::EP.build(DatasetScale::Tiny);
        let spec = QuerySetSpec::new(40, 9).with_hops(3, 4);
        let a = mixed_mode_query_set(&g, spec, ModeMix::default());
        let b = mixed_mode_query_set(&g, spec, ModeMix::default());
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 40);
        // With 40 draws at equal weights, every mode appears with overwhelming
        // probability (deterministic given the fixed seed).
        for probe in [
            ResultMode::Exists,
            ResultMode::Count,
            ResultMode::FirstK(4),
            ResultMode::Collect,
        ] {
            assert!(
                a.iter().any(|s| s.mode == probe),
                "mode {probe} missing from the default mix"
            );
        }
    }

    #[test]
    fn single_mode_mixes_assign_uniformly() {
        let g = Dataset::WT.build(DatasetScale::Tiny);
        let spec = QuerySetSpec::new(12, 3).with_hops(3, 4);
        let exists = mixed_mode_query_set(&g, spec, ModeMix::new(1, 0, 0, 0));
        assert!(exists.iter().all(|s| s.mode == ResultMode::Exists));
        let first_k = ModeMix::new(0, 0, 1, 0).with_first_k_paths(7);
        let first = mixed_mode_query_set(&g, spec, first_k);
        assert!(first.iter().all(|s| s.mode == ResultMode::FirstK(7)));
        // The underlying queries are the paper's rule, independent of the mix.
        let collect = mixed_mode_query_set(&g, spec, ModeMix::new(0, 0, 0, 1));
        let qs: Vec<_> = exists.iter().map(|s| s.query).collect();
        let qs2: Vec<_> = collect.iter().map(|s| s.query).collect();
        assert_eq!(qs, qs2);
    }

    #[test]
    fn zero_weight_mix_falls_back_to_collect() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = ModeMix::new(0, 0, 0, 0);
        assert_eq!(mix.draw(&mut rng), ResultMode::Collect);
        assert_eq!(ModeMix::default().with_first_k_paths(0).first_k_paths, 1);
    }
}
