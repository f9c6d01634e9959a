//! The paper's partition-quality metrics (Eqs. 1 and 2).

use std::fmt;

use blockpart_graph::Csr;

use crate::partition::Partition;

/// Static and dynamic edge-cut and balance of a partition over a graph.
///
/// *Static* metrics count vertices and edges; *dynamic* metrics weight them
/// by activity (vertex weights) and interaction frequency (edge weights),
/// matching the paper's Eq. 1 and Eq. 2 and their weighted variants:
///
/// * `edge-cut = Σᵢ |C(pᵢ)| / |E|` — the fraction of edges that connect two
///   different shards (each cut edge counted once);
/// * `balance = maxᵢ(|pᵢ|) · k / |V|` — how much the fullest shard exceeds
///   the average (1.0 is perfect).
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::{CutMetrics, Partition};
/// use blockpart_types::ShardCount;
///
/// let csr = Csr::from_edges(4, &[(0, 1, 1), (1, 2, 8), (2, 3, 1)]);
/// let p = Partition::from_assignment(vec![0, 0, 1, 1], ShardCount::TWO).unwrap();
/// let m = CutMetrics::compute(&csr, &p);
/// assert_eq!(m.cut_edges, 1);
/// assert!((m.static_edge_cut - 1.0 / 3.0).abs() < 1e-12);
/// assert!((m.dynamic_edge_cut - 0.8).abs() < 1e-12);
/// assert!((m.static_balance - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CutMetrics {
    /// Number of undirected edges crossing shards.
    pub cut_edges: usize,
    /// Total number of undirected edges.
    pub total_edges: usize,
    /// Sum of weights of cut edges.
    pub cut_weight: u64,
    /// Sum of all edge weights.
    pub total_edge_weight: u64,
    /// Eq. 1 on counts: `cut_edges / total_edges` (0 if no edges).
    pub static_edge_cut: f64,
    /// Eq. 1 on weights: `cut_weight / total_edge_weight` (0 if unweighted
    /// total is zero).
    pub dynamic_edge_cut: f64,
    /// Eq. 2 on vertex counts.
    pub static_balance: f64,
    /// Eq. 2 on vertex activity weights.
    pub dynamic_balance: f64,
}

impl CutMetrics {
    /// Computes all metrics of `partition` over `csr`.
    ///
    /// # Panics
    ///
    /// Panics if `partition.len() != csr.node_count()`.
    pub fn compute(csr: &Csr, partition: &Partition) -> CutMetrics {
        assert_eq!(
            partition.len(),
            csr.node_count(),
            "partition covers {} vertices but graph has {}",
            partition.len(),
            csr.node_count()
        );
        let mut cut_edges = 0usize;
        let mut cut_weight = 0u64;
        let mut total_edges = 0usize;
        for (u, v, w) in csr.edges() {
            total_edges += 1;
            if partition.shard_of(u as usize) != partition.shard_of(v as usize) {
                cut_edges += 1;
                cut_weight += w;
            }
        }
        let k = partition.shard_count().as_usize() as f64;
        let n = csr.node_count();

        let sizes = partition.shard_sizes();
        let static_balance = if n == 0 {
            1.0
        } else {
            sizes.iter().copied().max().unwrap_or(0) as f64 * k / n as f64
        };

        let weights = partition.shard_weights(csr.vertex_weights());
        let total_vwgt = csr.total_vertex_weight();
        let dynamic_balance = if total_vwgt == 0 {
            1.0
        } else {
            weights.iter().copied().max().unwrap_or(0) as f64 * k / total_vwgt as f64
        };

        let total_edge_weight = csr.total_edge_weight();
        CutMetrics {
            cut_edges,
            total_edges,
            cut_weight,
            total_edge_weight,
            static_edge_cut: ratio(cut_edges as f64, total_edges as f64),
            dynamic_edge_cut: ratio(cut_weight as f64, total_edge_weight as f64),
            static_balance,
            dynamic_balance,
        }
    }

    /// The paper's Fig. 5 normalization of balance for cross-`k`
    /// comparison: `(balance − 1) / (k − 1)`, clamped at 0. For `k = 1` the
    /// result is 0.
    pub fn normalized_balance(balance: f64, k: usize) -> f64 {
        if k <= 1 {
            0.0
        } else {
            ((balance - 1.0) / (k as f64 - 1.0)).max(0.0)
        }
    }
}

impl fmt::Display for CutMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cut {:.3}/{:.3} (static/dynamic), balance {:.3}/{:.3}",
            self.static_edge_cut, self.dynamic_edge_cut, self.static_balance, self.dynamic_balance
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_types::ShardCount;

    fn k2() -> ShardCount {
        ShardCount::TWO
    }

    #[test]
    fn zero_cut_when_all_one_shard() {
        let csr = Csr::from_edges(3, &[(0, 1, 5), (1, 2, 5)]);
        let p = Partition::all_on_first(3, k2());
        let m = CutMetrics::compute(&csr, &p);
        assert_eq!(m.cut_edges, 0);
        assert_eq!(m.static_edge_cut, 0.0);
        assert_eq!(m.dynamic_edge_cut, 0.0);
        // everything on one of two shards: balance = 3 * 2 / 3 = 2
        assert!((m.static_balance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn full_cut() {
        let csr = Csr::from_edges(2, &[(0, 1, 7)]);
        let p = Partition::from_assignment(vec![0, 1], k2()).unwrap();
        let m = CutMetrics::compute(&csr, &p);
        assert_eq!(m.cut_edges, 1);
        assert_eq!(m.static_edge_cut, 1.0);
        assert_eq!(m.dynamic_edge_cut, 1.0);
        assert!((m.static_balance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_differs_from_static() {
        // heavy edge inside shard, light edge cut
        let csr = Csr::from_edges(4, &[(0, 1, 99), (1, 2, 1)]);
        let p = Partition::from_assignment(vec![0, 0, 1, 1], k2()).unwrap();
        let m = CutMetrics::compute(&csr, &p);
        assert!((m.static_edge_cut - 0.5).abs() < 1e-12);
        assert!((m.dynamic_edge_cut - 0.01).abs() < 1e-12);
    }

    #[test]
    fn dynamic_balance_uses_vertex_weights() {
        use blockpart_graph::GraphBuilder;
        use blockpart_types::Address;
        // vertex 0 and 1 interact heavily; 2 and 3 once.
        let mut b = GraphBuilder::new();
        b.add_interaction(Address::from_index(0), Address::from_index(1), 9);
        b.add_interaction(Address::from_index(2), Address::from_index(3), 1);
        let csr = b.build().to_csr();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], k2()).unwrap();
        let m = CutMetrics::compute(&csr, &p);
        assert!((m.static_balance - 1.0).abs() < 1e-12);
        // weights: shard0 = 18, shard1 = 2, total 20 -> 18*2/20 = 1.8
        assert!((m.dynamic_balance - 1.8).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_perfectly_balanced() {
        let csr = Csr::from_edges(0, &[]);
        let p = Partition::all_on_first(0, k2());
        let m = CutMetrics::compute(&csr, &p);
        assert_eq!(m.static_edge_cut, 0.0);
        assert!((m.static_balance - 1.0).abs() < 1e-12);
        assert!((m.dynamic_balance - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn size_mismatch_panics() {
        let csr = Csr::from_edges(2, &[(0, 1, 1)]);
        let p = Partition::all_on_first(3, k2());
        let _ = CutMetrics::compute(&csr, &p);
    }

    #[test]
    fn normalized_balance() {
        assert_eq!(CutMetrics::normalized_balance(1.0, 2), 0.0);
        assert!((CutMetrics::normalized_balance(2.0, 2) - 1.0).abs() < 1e-12);
        assert!((CutMetrics::normalized_balance(4.0, 8) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(CutMetrics::normalized_balance(0.9, 2), 0.0);
        assert_eq!(CutMetrics::normalized_balance(5.0, 1), 0.0);
    }

    #[test]
    fn display_nonempty() {
        let csr = Csr::from_edges(2, &[(0, 1, 1)]);
        let p = Partition::all_on_first(2, k2());
        assert!(!CutMetrics::compute(&csr, &p).to_string().is_empty());
    }
}
