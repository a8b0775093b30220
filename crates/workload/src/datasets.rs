//! Synthetic analogs of the paper's Table I datasets.
//!
//! | Code | Paper dataset | Paper \|V\| | Paper \|E\| | Paper d_avg | Character reproduced by the analog |
//! |------|---------------|-----------|-----------|-------------|------------------------------------|
//! | EP   | Epinions      | 75 K   | 508 K  | 13.4  | small social graph, heavy-tailed degrees |
//! | SL   | Slashdot      | 82 K   | 948 K  | 21.2  | small social graph, denser than EP |
//! | BK   | Baidu-baike   | 416 K  | 3.0 M  | 5.0   | sparse encyclopedia link graph, extreme hub |
//! | WT   | WikiTalk      | 2.0 M  | 5.0 M  | 5.0   | very sparse communication graph |
//! | BS   | BerkStan      | 685 K  | 7.0 M  | 22.2  | web graph: strong locality + long-range links |
//! | SK   | Skitter       | 1.6 M  | 11 M   | 13.1  | internet topology |
//! | UK   | Web-uk-2005   | 130 K  | 11.7 M | 181.2 | dense web crawl (scaled down, still the densest) |
//! | DA   | Rec-dating    | 169 K  | 17 M   | 205.7 | dense bipartite-ish interaction graph (scaled) |
//! | PO   | Pokec         | 1.6 M  | 31 M   | 37.5  | mid-size social network |
//! | LJ   | LiveJournal   | 4.0 M  | 69 M   | 17.9  | large social network |
//! | TW   | Twitter-2010  | 42 M   | 1.46 B | 70.5  | billion-scale follower graph (largest analog), low reciprocity |
//! | FS   | Friendster    | 65 M   | 1.81 B | 27.5  | billion-scale friendship graph, high reciprocity |
//!
//! Every analog is deterministic for a given [`DatasetScale`] and the workspace-wide seed,
//! so experiment runs are reproducible.

use hcsp_graph::generators::preferential::{preferential_attachment, PreferentialConfig};
use hcsp_graph::generators::{gnm_random, small_world};
use hcsp_graph::{DiGraph, GraphStats};
use std::fmt;

/// Scale factor for the analog datasets.
///
/// The paper runs on graphs up to 1.8 B edges on a 512 GB server; the analogs default to
/// sizes that let the full benchmark suite finish on a laptop, with [`DatasetScale::Medium`]
/// and [`DatasetScale::Large`] available for longer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatasetScale {
    /// Tiny graphs for unit/integration tests (hundreds of vertices).
    Tiny,
    /// Default benchmark scale (thousands to tens of thousands of vertices).
    #[default]
    Small,
    /// Extended benchmark scale (~10x Small).
    Medium,
    /// Stress scale (~40x Small); only used when explicitly requested.
    Large,
}

impl DatasetScale {
    /// Multiplier applied to the base vertex counts.
    pub fn multiplier(self) -> f64 {
        match self {
            DatasetScale::Tiny => 0.12,
            DatasetScale::Small => 1.0,
            DatasetScale::Medium => 8.0,
            DatasetScale::Large => 40.0,
        }
    }
}

/// The twelve dataset analogs, named by the paper's abbreviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::upper_case_acronyms)]
pub enum Dataset {
    /// Epinions analog.
    EP,
    /// Slashdot analog.
    SL,
    /// Baidu-baike analog.
    BK,
    /// WikiTalk analog.
    WT,
    /// BerkStan analog.
    BS,
    /// Skitter analog.
    SK,
    /// Web-uk-2005 analog.
    UK,
    /// Rec-dating analog.
    DA,
    /// Pokec analog.
    PO,
    /// LiveJournal analog.
    LJ,
    /// Twitter-2010 analog.
    TW,
    /// Friendster analog.
    FS,
}

impl Dataset {
    /// All datasets in the order Table I lists them.
    pub const ALL: [Dataset; 12] = [
        Dataset::EP,
        Dataset::SL,
        Dataset::BK,
        Dataset::WT,
        Dataset::BS,
        Dataset::SK,
        Dataset::UK,
        Dataset::DA,
        Dataset::PO,
        Dataset::LJ,
        Dataset::TW,
        Dataset::FS,
    ];

    /// A fast default subset used where running all twelve would be excessive
    /// (unit tests, smoke benchmarks): one small social graph, one sparse graph, one web
    /// graph and one "billion-scale" analog.
    pub const SMOKE: [Dataset; 4] = [Dataset::EP, Dataset::WT, Dataset::BS, Dataset::TW];

    /// The full name of the original dataset this analog stands in for.
    pub fn paper_name(self) -> &'static str {
        match self {
            Dataset::EP => "Epinions",
            Dataset::SL => "Slashdot",
            Dataset::BK => "Baidu-baike",
            Dataset::WT => "WikiTalk",
            Dataset::BS => "BerkStan",
            Dataset::SK => "Skitter",
            Dataset::UK => "Web-uk-2005",
            Dataset::DA => "Rec-dating",
            Dataset::PO => "Pokec",
            Dataset::LJ => "LiveJournal",
            Dataset::TW => "Twitter-2010",
            Dataset::FS => "Friendster",
        }
    }

    /// Deterministic per-dataset seed.
    fn seed(self) -> u64 {
        0x5CDB_0000 + self as u64
    }

    /// Base vertex count at [`DatasetScale::Small`]; scaled by the multiplier.
    fn base_vertices(self) -> usize {
        match self {
            Dataset::EP => 1_500,
            Dataset::SL => 1_600,
            Dataset::BK => 6_000,
            Dataset::WT => 12_000,
            Dataset::BS => 5_000,
            Dataset::SK => 9_000,
            Dataset::UK => 1_400,
            Dataset::DA => 1_700,
            Dataset::PO => 10_000,
            Dataset::LJ => 20_000,
            Dataset::TW => 40_000,
            Dataset::FS => 48_000,
        }
    }

    /// Generates the analog graph at the given scale.
    pub fn build(self, scale: DatasetScale) -> DiGraph {
        let n = ((self.base_vertices() as f64 * scale.multiplier()) as usize).max(50);
        let seed = self.seed();
        match self {
            // Small social graphs: preferential attachment with moderate reciprocity.
            Dataset::EP => pref(n, 6, 0.30, seed),
            Dataset::SL => pref(n, 9, 0.35, seed),
            // Sparse link / communication graphs.
            Dataset::BK => pref(n, 2, 0.15, seed),
            Dataset::WT => pref(n, 2, 0.05, seed),
            // Web graphs: ring locality plus rewiring.
            Dataset::BS => small_world(n, 10, 0.15, seed).expect("valid parameters"),
            Dataset::UK => small_world(n, 28, 0.10, seed).expect("valid parameters"),
            // Internet topology.
            Dataset::SK => pref(n, 6, 0.40, seed),
            // Dense interaction graph: uniform random with high average degree.
            Dataset::DA => gnm_random(n, n * 28, seed).expect("valid parameters"),
            // Mid/large social networks.
            Dataset::PO => pref(n, 9, 0.40, seed),
            Dataset::LJ => pref(n, 5, 0.50, seed),
            // Billion-scale analogs.
            Dataset::TW => pref(n, 8, 0.10, seed),
            Dataset::FS => pref(n, 6, 0.60, seed),
        }
    }

    /// Generates the analog and returns it with its statistics (a Table I row).
    pub fn build_with_stats(self, scale: DatasetScale) -> (DiGraph, GraphStats) {
        let graph = self.build(scale);
        let stats = GraphStats::compute(&graph);
        (graph, stats)
    }
}

fn pref(n: usize, m: usize, reciprocity: f64, seed: u64) -> DiGraph {
    preferential_attachment(PreferentialConfig {
        num_vertices: n,
        edges_per_vertex: m,
        reciprocity,
        seed,
    })
    .expect("valid parameters")
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::str::FromStr for Dataset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dataset::ALL
            .iter()
            .find(|d| d.to_string().eq_ignore_ascii_case(s))
            .copied()
            .ok_or_else(|| format!("unknown dataset {s:?} (expected one of EP..FS)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_build_at_tiny_scale() {
        for d in Dataset::ALL {
            let (g, stats) = d.build_with_stats(DatasetScale::Tiny);
            assert!(g.num_vertices() >= 50, "{d}: too few vertices");
            assert!(g.num_edges() > 0, "{d}: empty graph");
            assert_eq!(stats.num_edges, g.num_edges());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::EP.build(DatasetScale::Tiny);
        let b = Dataset::EP.build(DatasetScale::Tiny);
        assert_eq!(a, b);
        let c = Dataset::SL.build(DatasetScale::Tiny);
        assert_ne!(a, c);
    }

    #[test]
    fn relative_size_ordering_follows_table_one() {
        let sizes: Vec<(Dataset, usize)> = [Dataset::EP, Dataset::WT, Dataset::LJ, Dataset::TW]
            .into_iter()
            .map(|d| (d, d.build(DatasetScale::Tiny).num_vertices()))
            .collect();
        // EP < WT < LJ < TW in vertex count, mirroring Table I.
        assert!(sizes[0].1 < sizes[1].1);
        assert!(sizes[1].1 < sizes[2].1);
        assert!(sizes[2].1 < sizes[3].1);
    }

    #[test]
    fn dense_analogs_are_denser_than_sparse_ones() {
        let (_, uk) = Dataset::UK.build_with_stats(DatasetScale::Tiny);
        let (_, da) = Dataset::DA.build_with_stats(DatasetScale::Tiny);
        let (_, wt) = Dataset::WT.build_with_stats(DatasetScale::Tiny);
        let (_, bk) = Dataset::BK.build_with_stats(DatasetScale::Tiny);
        assert!(
            uk.avg_degree > 4.0 * wt.avg_degree,
            "UK {uk:?} vs WT {wt:?}"
        );
        assert!(
            da.avg_degree > 4.0 * bk.avg_degree,
            "DA {da:?} vs BK {bk:?}"
        );
    }

    #[test]
    fn social_analogs_have_degree_skew() {
        let (_, tw) = Dataset::TW.build_with_stats(DatasetScale::Tiny);
        assert!(tw.max_degree as f64 > 5.0 * tw.avg_degree, "{tw:?}");
    }

    #[test]
    fn scale_multiplies_vertex_counts() {
        let tiny = Dataset::EP.build(DatasetScale::Tiny).num_vertices();
        let small = Dataset::EP.build(DatasetScale::Small).num_vertices();
        assert!(small > 4 * tiny);
        assert!(DatasetScale::Medium.multiplier() > DatasetScale::Small.multiplier());
        assert!(DatasetScale::Large.multiplier() > DatasetScale::Medium.multiplier());
    }

    #[test]
    fn names_parse_and_round_trip() {
        for d in Dataset::ALL {
            let parsed: Dataset = d.to_string().parse().unwrap();
            assert_eq!(parsed, d);
            assert!(!d.paper_name().is_empty());
        }
        assert!("ep".parse::<Dataset>().is_ok());
        assert!("nope".parse::<Dataset>().is_err());
        assert_eq!(Dataset::ALL.len(), 12);
        assert_eq!(Dataset::SMOKE.len(), 4);
    }
}
