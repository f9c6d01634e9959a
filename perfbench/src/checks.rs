//! Output checks. Each recomputes a result from the program's plain
//! outputs with the benchmark's own code instead of trusting the
//! program's bookkeeping, and names itself when it fails.

use std::collections::BTreeMap;
use std::fmt;

use blockpart_graph::Csr;

/// A failed output check: which check, and what it saw.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckFailure {
    pub check: &'static str,
    pub detail: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check `{}` failed: {}", self.check, self.detail)
    }
}

pub type Check = Result<(), CheckFailure>;

fn fail(check: &'static str, detail: String) -> Check {
    Err(CheckFailure { check, detail })
}

/// Every vertex sits on a shard below `k`.
pub fn shards_below_k(assignment: &[u16], k: u16) -> Check {
    match assignment.iter().position(|&s| s >= k) {
        Some(v) => fail(
            "shard-below-k",
            format!("vertex {v} is on shard {} with k={k}", assignment[v]),
        ),
        None => Ok(()),
    }
}

/// The static edge cut of `assignment` on `csr`: cut distinct edges over
/// all distinct edges, counting each undirected edge once (from its
/// lower endpoint).
pub fn static_edge_cut(csr: &Csr, assignment: &[u16]) -> f64 {
    let (mut edges, mut cut) = (0u64, 0u64);
    for v in 0..csr.node_count() {
        for (t, _) in csr.neighbors(v) {
            let t = t as usize;
            if t > v {
                edges += 1;
                if assignment[v] != assignment[t] {
                    cut += 1;
                }
            }
        }
    }
    if edges == 0 {
        0.0
    } else {
        cut as f64 / edges as f64
    }
}

/// The recomputed static edge cut matches the one the simulator
/// reported.
pub fn edge_cut_matches(recomputed: f64, reported: f64) -> Check {
    if (recomputed - reported).abs() <= 1e-12 {
        Ok(())
    } else {
        fail(
            "static-edge-cut",
            format!("recomputed {recomputed} but the simulator reported {reported}"),
        )
    }
}

/// Every offered transaction either committed or failed.
pub fn offered_accounted(committed: u64, failed: u64, offered: u64) -> Check {
    if committed + failed == offered {
        Ok(())
    } else {
        fail(
            "committed-plus-failed",
            format!("{committed} committed + {failed} failed != {offered} offered"),
        )
    }
}

/// The per-cause abort counts sum to the aborted prepare rounds.
pub fn abort_causes_sum(causes: &BTreeMap<String, u64>, aborted_rounds: u64) -> Check {
    let sum: u64 = causes.values().sum();
    if sum == aborted_rounds {
        Ok(())
    } else {
        fail(
            "abort-causes",
            format!("causes sum to {sum} but {aborted_rounds} rounds aborted"),
        )
    }
}

/// A single-shard replay coordinates nothing.
pub fn single_shard_is_local(prepare_rounds: u64, cross_shard_txs: usize) -> Check {
    if prepare_rounds == 0 && cross_shard_txs == 0 {
        Ok(())
    } else {
        fail(
            "k1-no-2pc",
            format!("{prepare_rounds} prepare rounds, {cross_shard_txs} cross-shard txs at k=1"),
        )
    }
}

/// Every pass of a run, and every earlier run of the same build, seed
/// and workload, produced the same simulated outcome. `fingerprints`
/// holds one rendering per pass.
pub fn simulated_identical(fingerprints: &[String]) -> Check {
    let Some(first) = fingerprints.first() else {
        return Ok(());
    };
    match fingerprints.iter().position(|f| f != first) {
        Some(i) => {
            let (was, now) = first_difference(first, &fingerprints[i]);
            fail(
                "simulated-identical",
                format!("pass {i} drifted: `{was}` became `{now}`"),
            )
        }
        None => Ok(()),
    }
}

/// The first `;`-separated field at which two fingerprints differ.
fn first_difference<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    a.split(';')
        .zip(b.split(';'))
        .find(|(x, y)| x != y)
        .unwrap_or((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_at_or_above_k_is_rejected() {
        assert!(shards_below_k(&[0, 1, 1, 0], 2).is_ok());
        let err = shards_below_k(&[0, 1, 2, 0], 2).unwrap_err();
        assert_eq!(err.check, "shard-below-k");
        assert!(err.detail.contains("vertex 2"), "{err}");
    }

    #[test]
    fn edge_cut_is_recomputed_from_the_csr() {
        // path 0-1-2-3
        let csr = Csr::from_edges(4, &[(0, 1, 1), (1, 2, 5), (2, 3, 1)]);
        let part = [0, 0, 1, 1];
        let cut = static_edge_cut(&csr, &part);
        assert!((cut - 1.0 / 3.0).abs() < 1e-15, "{cut}");
        assert!(edge_cut_matches(cut, 1.0 / 3.0).is_ok());
        assert_eq!(
            edge_cut_matches(cut, 0.5).unwrap_err().check,
            "static-edge-cut"
        );
    }

    #[test]
    fn unaccounted_transactions_are_rejected() {
        assert!(offered_accounted(98, 2, 100).is_ok());
        let err = offered_accounted(97, 2, 100).unwrap_err();
        assert_eq!(err.check, "committed-plus-failed");
    }

    #[test]
    fn abort_causes_must_sum_to_aborted_rounds() {
        let causes = BTreeMap::from([("lock".to_string(), 3), ("stale".to_string(), 4)]);
        assert!(abort_causes_sum(&causes, 7).is_ok());
        assert_eq!(
            abort_causes_sum(&causes, 8).unwrap_err().check,
            "abort-causes"
        );
    }

    #[test]
    fn single_shard_replay_must_not_coordinate() {
        assert!(single_shard_is_local(0, 0).is_ok());
        assert_eq!(single_shard_is_local(1, 0).unwrap_err().check, "k1-no-2pc");
        assert!(single_shard_is_local(0, 3).is_err());
    }

    #[test]
    fn drifted_simulated_metric_is_rejected() {
        let same = vec!["cut=0.25;moves=10".to_string(); 3];
        assert!(simulated_identical(&same).is_ok());
        let mut drifted = same.clone();
        drifted[2] = "cut=0.25;moves=11".to_string();
        let err = simulated_identical(&drifted).unwrap_err();
        assert_eq!(err.check, "simulated-identical");
        assert!(err.detail.contains("moves=10") && err.detail.contains("moves=11"));
    }
}
