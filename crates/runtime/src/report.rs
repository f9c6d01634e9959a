//! The runtime's measurement output: what a partition actually costs at
//! execution time.

use std::collections::BTreeMap;

use blockpart_metrics::{percentile_sorted, Table};
use blockpart_types::{ShardCount, ShardId};

/// Per-shard execution counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// The shard.
    pub shard: ShardId,
    /// Transactions committed with this shard as home.
    pub committed: u64,
    /// Of those, how many needed cross-shard coordination.
    pub cross_committed: u64,
    /// Virtual microseconds the execution unit was busy.
    pub busy_us: u64,
    /// `busy_us / makespan` — how loaded the shard's executor was.
    pub utilization: f64,
    /// Prepare rounds this shard coordinated that aborted.
    pub aborted_rounds: u64,
    /// Speculative executions the engine ran ahead of the commit point
    /// (0 under the serial engine; absent in pre-split reports).
    pub exec_speculated: u64,
    /// Cached speculations invalidated by an intervening write to their
    /// read/write footprint.
    pub exec_conflicts: u64,
    /// Transactions re-executed at their commit point because their
    /// speculation was invalidated or flushed.
    pub exec_re_executions: u64,
}

/// The outcome of one sharded execution run.
///
/// This is the execution-level counterpart of the paper's static
/// edge-cut/balance metrics: the same partition quality, expressed as
/// coordination cost — cross-shard ratio, 2PC aborts, commit latency and
/// delivered throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeReport {
    /// Shard count of the run.
    pub k: ShardCount,
    /// Transactions offered to the system.
    pub total_txs: usize,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that exhausted their 2PC retry budget.
    pub failed: u64,
    /// Transactions whose footprint spanned more than one shard.
    pub cross_shard_txs: usize,
    /// `cross_shard_txs / total_txs` (0 when the run is empty).
    pub cross_shard_ratio: f64,
    /// Prepare rounds broadcast (0 when every transaction is
    /// single-shard).
    pub prepare_rounds: u64,
    /// Prepare rounds that aborted.
    pub aborted_rounds: u64,
    /// `aborted_rounds` broken down by cause. `"lock-conflict"` rounds
    /// lost a lock race and will retry; `"retry-exhausted"` rounds were
    /// the terminal attempt of a transaction that then failed. Values
    /// sum to `aborted_rounds`.
    pub abort_causes: BTreeMap<String, u64>,
    /// `aborted_rounds / prepare_rounds` (0 when no rounds ran).
    pub abort_rate: f64,
    /// Single-shard executions deferred by a lock held locally.
    pub local_conflicts: u64,
    /// Executed touches outside the declared footprint (divergence of
    /// the sharded re-execution from the canonical access list).
    pub stray_touches: u64,
    /// Median commit latency (arrival → commit), microseconds.
    pub p50_commit_latency_us: u64,
    /// 99th-percentile commit latency, microseconds.
    pub p99_commit_latency_us: u64,
    /// First arrival → last commit, microseconds.
    pub makespan_us: u64,
    /// Committed transactions per virtual second.
    pub throughput_tps: f64,
    /// Speculative executions across all shards (0 under the serial
    /// engine; absent in pre-split reports).
    pub exec_speculated: u64,
    /// Speculations invalidated by an intervening write, across shards.
    pub exec_conflicts: u64,
    /// Commit-point re-executions after a wasted speculation, across
    /// shards.
    pub exec_re_executions: u64,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardReport>,
}

impl RuntimeReport {
    /// Computes the p50/p99 fields from raw commit latencies.
    pub(crate) fn latency_percentiles(latencies: &mut [u64]) -> (u64, u64) {
        if latencies.is_empty() {
            return (0, 0);
        }
        latencies.sort_unstable();
        let as_f64: Vec<f64> = latencies.iter().map(|&v| v as f64).collect();
        (
            percentile_sorted(&as_f64, 0.50) as u64,
            percentile_sorted(&as_f64, 0.99) as u64,
        )
    }

    /// One-line headline: the numbers a comparison table shows. When
    /// rounds aborted, the abort percentage carries its cause breakdown
    /// (`aborts=12.0% [lock-conflict=40 retry-exhausted=2]`).
    pub fn headline(&self) -> String {
        let causes = if self.abort_causes.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = self
                .abort_causes
                .iter()
                .map(|(cause, n)| format!("{cause}={n}"))
                .collect();
            format!(" [{}]", parts.join(" "))
        };
        format!(
            "k={} committed={}/{} cross={:.1}% aborts={:.1}%{} p50={}µs p99={}µs {:.0} tx/s",
            self.k.get(),
            self.committed,
            self.total_txs,
            self.cross_shard_ratio * 100.0,
            self.abort_rate * 100.0,
            causes,
            self.p50_commit_latency_us,
            self.p99_commit_latency_us,
            self.throughput_tps,
        )
    }

    /// Renders the per-shard breakdown as a table.
    pub fn shard_table(&self) -> Table {
        let mut t = Table::new(vec![
            "shard",
            "committed",
            "cross",
            "aborts",
            "busy-ms",
            "util",
        ]);
        for s in &self.per_shard {
            t.row(vec![
                s.shard.to_string(),
                s.committed.to_string(),
                s.cross_committed.to_string(),
                s.aborted_rounds.to_string(),
                format!("{:.1}", s.busy_us as f64 / 1e3),
                format!("{:.2}", s.utilization),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_latencies() {
        let mut l: Vec<u64> = (1..=100).collect();
        let (p50, p99) = RuntimeReport::latency_percentiles(&mut l);
        assert!((49..=51).contains(&p50), "p50 {p50}");
        assert!((98..=100).contains(&p99), "p99 {p99}");
        let (z50, z99) = RuntimeReport::latency_percentiles(&mut Vec::new());
        assert_eq!((z50, z99), (0, 0));
    }
}
