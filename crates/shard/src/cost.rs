//! Cost models for sharded execution — what edge-cut and balance *mean*
//! for throughput.
//!
//! The paper's introduction names the two ways a system can handle a
//! multi-shard request: (a) coordinate the involved shards (Spanner-style
//! two-phase commit, S-SMR) or (b) move the needed state to one shard and
//! execute locally (dynamic SMR). Either way, a cross-shard transaction
//! costs more than a local one, and a shard can only process work
//! proportional to its capacity. This module turns a simulation's window
//! records into estimated system throughput under both regimes, so the
//! abstract metrics become a concrete "would sharding have helped?"
//! answer.

use crate::simulator::{SimulationResult, WindowRecord};

/// How multi-shard transactions are executed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CrossShardMode {
    /// Involved shards coordinate (2PC-style): a cross-shard transaction
    /// consumes `coordination_factor` times the work of a local one *on
    /// every involved shard*.
    Coordinate {
        /// Work multiplier per cross-shard transaction (≥ 1; Spanner-style
        /// systems typically pay 2–5×).
        coordination_factor: f64,
    },
    /// State moves to one shard first (dynamic SMR): the transaction runs
    /// locally, but the move itself costs `relocation_cost` transactions'
    /// worth of work.
    Relocate {
        /// Work units charged per relocated transaction.
        relocation_cost: f64,
    },
}

/// Parameters of the throughput estimate.
///
/// # Examples
///
/// ```
/// use blockpart_shard::cost::{CostModel, CrossShardMode};
///
/// let model = CostModel {
///     shard_capacity: 100.0,
///     mode: CrossShardMode::Coordinate { coordination_factor: 3.0 },
///     ..CostModel::default()
/// };
/// assert!(model.shard_capacity > 0.0);
/// assert_eq!(model.exec_lanes, 1.0); // serial execution by default
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Transactions per window one shard can execute.
    pub shard_capacity: f64,
    /// How cross-shard transactions are handled.
    pub mode: CrossShardMode,
    /// Intra-shard execution parallelism: the effective number of
    /// concurrent execution lanes per shard (a Block-STM-style parallel
    /// engine). Scales each shard's capacity; the unsharded baseline the
    /// speed-up compares against stays a single serial machine. `1.0`
    /// (the default) reproduces the serial model's numbers exactly;
    /// fractional values express sub-linear scaling under conflicts
    /// (e.g. `3.4` effective lanes from 4 physical ones). Degenerate
    /// values (zero, negative, non-finite — including a zero from a
    /// pre-field document) are treated as serial.
    pub exec_lanes: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            shard_capacity: 1_000.0,
            mode: CrossShardMode::Coordinate {
                coordination_factor: 3.0,
            },
            exec_lanes: 1.0,
        }
    }
}

/// The estimated performance of one window under a [`CostModel`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowThroughput {
    /// Work units demanded of the busiest shard.
    pub bottleneck_load: f64,
    /// The fraction of offered load the system sustains (1.0 = keeps up).
    pub sustained_fraction: f64,
    /// Speed-up over a single unsharded machine with the same capacity.
    pub speedup: f64,
}

impl CostModel {
    /// Sets the intra-shard parallelism factor (see
    /// [`exec_lanes`](CostModel::exec_lanes)).
    pub fn with_exec_lanes(mut self, lanes: f64) -> Self {
        self.exec_lanes = lanes;
        self
    }

    /// The sanitized lane factor: non-finite or non-positive values fall
    /// back to serial execution.
    fn lane_factor(&self) -> f64 {
        if self.exec_lanes.is_finite() && self.exec_lanes > 0.0 {
            self.exec_lanes
        } else {
            1.0
        }
    }

    /// Estimates one window's throughput from its recorded metrics.
    ///
    /// The load on the busiest shard is derived from the window's event
    /// count, its dynamic balance (how skewed activity was) and its
    /// dynamic edge-cut (how much work was cross-shard), with the mode's
    /// surcharge applied to the cross-shard share.
    pub fn window_throughput(&self, window: &WindowRecord, k: usize) -> WindowThroughput {
        let events = window.events as f64;
        if events == 0.0 || k == 0 {
            return WindowThroughput {
                bottleneck_load: 0.0,
                sustained_fraction: 1.0,
                speedup: k.max(1) as f64,
            };
        }
        let cross = window.dynamic_edge_cut.clamp(0.0, 1.0);
        let local = 1.0 - cross;
        // per-transaction work surcharge for the cross-shard share
        let cross_work = match self.mode {
            CrossShardMode::Coordinate {
                coordination_factor,
            } => cross * coordination_factor.max(1.0) * 2.0, // both shards pay
            CrossShardMode::Relocate { relocation_cost } => cross * (1.0 + relocation_cost),
        };
        let total_work = events * (local + cross_work);
        // balance ∈ [1, k] scales the busiest shard's share of the work
        let balance = window.dynamic_balance.clamp(1.0, k as f64);
        let bottleneck_load = total_work / k as f64 * balance;
        // each shard executes with `exec_lanes` effective lanes; the
        // single-machine comparison below stays serial
        let sustained = (self.shard_capacity * self.lane_factor() / bottleneck_load).min(1.0);
        // a single machine of the same capacity would sustain capacity/events
        let single = (self.shard_capacity / events).min(1.0);
        let speedup = if single == 0.0 {
            1.0
        } else {
            (sustained * events) / (single * events) // = sustained / single
        };
        WindowThroughput {
            bottleneck_load,
            sustained_fraction: sustained,
            speedup,
        }
    }

    /// Mean sustained fraction and speed-up across a whole run.
    pub fn run_summary(&self, result: &SimulationResult, k: usize) -> WindowThroughput {
        let active: Vec<&WindowRecord> = result.windows.iter().filter(|w| w.events > 0).collect();
        if active.is_empty() {
            return WindowThroughput {
                bottleneck_load: 0.0,
                sustained_fraction: 1.0,
                speedup: k.max(1) as f64,
            };
        }
        let mut acc = WindowThroughput::default();
        for w in &active {
            let t = self.window_throughput(w, k);
            acc.bottleneck_load += t.bottleneck_load;
            acc.sustained_fraction += t.sustained_fraction;
            acc.speedup += t.speedup;
        }
        let n = active.len() as f64;
        WindowThroughput {
            bottleneck_load: acc.bottleneck_load / n,
            sustained_fraction: acc.sustained_fraction / n,
            speedup: acc.speedup / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_types::Timestamp;

    fn window(events: usize, cut: f64, balance: f64) -> WindowRecord {
        WindowRecord {
            start: Timestamp::EPOCH,
            events,
            dynamic_edge_cut: cut,
            dynamic_balance: balance,
            ..WindowRecord::default()
        }
    }

    #[test]
    fn perfect_partition_gives_linear_speedup() {
        let model = CostModel {
            shard_capacity: 1_000.0,
            mode: CrossShardMode::Coordinate {
                coordination_factor: 3.0,
            },
            ..CostModel::default()
        };
        // zero cut, perfect balance, load beyond a single machine
        let t = model.window_throughput(&window(4_000, 0.0, 1.0), 4);
        assert!((t.bottleneck_load - 1_000.0).abs() < 1e-9);
        assert!((t.sustained_fraction - 1.0).abs() < 1e-9);
        // a single machine would sustain 1000/4000 = 0.25 -> speedup 4
        assert!((t.speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_cut_erases_the_benefit() {
        let model = CostModel::default();
        let good = model.window_throughput(&window(4_000, 0.0, 1.0), 4);
        let bad = model.window_throughput(&window(4_000, 0.9, 1.0), 4);
        assert!(bad.sustained_fraction < good.sustained_fraction);
        assert!(
            bad.speedup < 1.0,
            "poorly partitioned sharding should lose to one machine: {}",
            bad.speedup
        );
    }

    #[test]
    fn imbalance_shifts_load_to_bottleneck() {
        let model = CostModel::default();
        let balanced = model.window_throughput(&window(2_000, 0.1, 1.0), 2);
        let skewed = model.window_throughput(&window(2_000, 0.1, 2.0), 2);
        assert!(skewed.bottleneck_load > balanced.bottleneck_load * 1.9);
    }

    #[test]
    fn relocate_mode_charges_relocation() {
        let coordinate = CostModel {
            shard_capacity: 1_000.0,
            mode: CrossShardMode::Coordinate {
                coordination_factor: 1.0,
            },
            ..CostModel::default()
        };
        let relocate = CostModel {
            shard_capacity: 1_000.0,
            mode: CrossShardMode::Relocate {
                relocation_cost: 5.0,
            },
            ..CostModel::default()
        };
        let w = window(1_000, 0.5, 1.0);
        let tc = coordinate.window_throughput(&w, 2);
        let tr = relocate.window_throughput(&w, 2);
        assert!(tr.bottleneck_load > tc.bottleneck_load);
    }

    #[test]
    fn exec_lanes_scale_shard_capacity_but_not_the_baseline() {
        let serial = CostModel::default();
        let parallel = CostModel::default().with_exec_lanes(2.0);
        // overloaded window: sustained < 1 under the serial model
        let w = window(8_000, 0.1, 1.2);
        let ts = serial.window_throughput(&w, 4);
        let tp = parallel.window_throughput(&w, 4);
        assert!(ts.sustained_fraction < 1.0);
        assert!((tp.sustained_fraction - (ts.sustained_fraction * 2.0).min(1.0)).abs() < 1e-9);
        assert!(tp.speedup > ts.speedup, "{} vs {}", tp.speedup, ts.speedup);
        // bottleneck demand is a property of the partition, not the engine
        assert_eq!(tp.bottleneck_load, ts.bottleneck_load);
        // the default (and any degenerate factor) reproduces serial numbers
        let degenerate = CostModel::default().with_exec_lanes(f64::NAN);
        assert_eq!(degenerate.window_throughput(&w, 4), ts);
    }

    #[test]
    fn empty_window_is_trivially_sustained() {
        let model = CostModel::default();
        let t = model.window_throughput(&window(0, 0.0, 1.0), 8);
        assert_eq!(t.sustained_fraction, 1.0);
        assert_eq!(t.speedup, 8.0);
    }

    #[test]
    fn run_summary_averages() {
        let model = CostModel::default();
        let result = SimulationResult {
            windows: vec![
                window(1_000, 0.0, 1.0),
                window(1_000, 1.0, 2.0),
                window(0, 0.0, 1.0),
            ],
            ..SimulationResult::default()
        };
        let s = model.run_summary(&result, 2);
        // only the two active windows count
        assert!(s.bottleneck_load > 0.0);
        assert!(s.sustained_fraction <= 1.0);
    }
}
