//! The three workloads: what each sets up, what one timed pass calls,
//! and how its outputs are checked.
//!
//! * `offline-paper` — the paper's experiment: five strategies × k ∈
//!   {2, 4} through `Experiment`, offline simulation only. The
//!   `partition` and `shard` layers do the work; `runtime` does none.
//! * `replay-2pc` — one chain replayed through `ShardedRuntime::run` on
//!   three placements. `runtime` and the VM do the timed work; the
//!   partitioner runs only in set-up.
//! * `live-hub-burst` — the `hub-burst` scenario through
//!   `LiveRunner::run`: windowed repartitioning and state migration
//!   interleaved with foreground 2PC traffic.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use blockpart_core::{
    Experiment, ExperimentReport, ScenarioRegistry, StrategyRegistry, StrategySpec,
};
use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::{ExecutedTx, SyntheticChain};
use blockpart_graph::{InteractionLog, NodeId};
use blockpart_live::{LiveConfig, LiveRunner, MigrationReport};
use blockpart_obs::Trace;
use blockpart_partition::{kway_traced, MultilevelConfig};
use blockpart_runtime::{Assignment, RuntimeConfig, RuntimeReport, ShardedRuntime};
use blockpart_shard::{ShardSimulator, SimulationResult};
use blockpart_types::{Duration, ShardCount};

use crate::checks::{self, Check};
use crate::spans::Recorder;

/// The paper's five strategies, in the order `Experiment` runs them.
pub const STRATEGIES: [&str; 5] = ["hash", "kl", "metis", "r-metis", "tr-metis"];
/// The offline study's shard counts.
pub const OFFLINE_SHARDS: [u16; 2] = [2, 4];
/// The replay pairs: no 2PC, 2PC-bound, and a partitioned placement.
pub const REPLAY_PAIRS: [(&str, u16); 3] = [("hash", 1), ("hash", 4), ("metis", 4)];
/// The live service's shard count.
pub const LIVE_SHARDS: u16 = 4;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfflinePaper,
    Replay2pc,
    LiveHubBurst,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OfflinePaper,
        Workload::Replay2pc,
        Workload::LiveHubBurst,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflinePaper => "offline-paper",
            Workload::Replay2pc => "replay-2pc",
            Workload::LiveHubBurst => "live-hub-burst",
        }
    }

    /// Generator scale (fraction of the full transaction rate). Sized
    /// so that one pass takes about a second (offline, live) or two
    /// (replay) on a 2-core host and a 30 s run holds ten passes or
    /// more. The live service's cost grows faster than its chain, and
    /// at 0.0004 its throughput differed by up to a fifth between seeds.
    pub fn scale(self) -> f64 {
        match self {
            Workload::OfflinePaper => 0.0001,
            Workload::Replay2pc => 0.0012,
            Workload::LiveHubBurst => 0.00015,
        }
    }

    /// The chain this workload runs on: a pure function of `seed`.
    pub fn chain(self, seed: u64, scale: f64) -> SyntheticChain {
        let config = GeneratorConfig::demo_scale(seed).with_scale(scale);
        match self {
            Workload::OfflinePaper | Workload::Replay2pc => ChainGenerator::new(config).generate(),
            Workload::LiveHubBurst => ScenarioRegistry::with_builtins()
                .compose("hub-burst")
                .expect("hub-burst is a built-in scenario")
                .build(&config),
        }
    }
}

fn shards(k: u16) -> ShardCount {
    ShardCount::new(k).expect("non-zero shard count")
}

fn spec(name: &str) -> Arc<dyn StrategySpec> {
    StrategyRegistry::with_builtins()
        .resolve(name)
        .expect("built-in strategy resolves")
}

/// Pair label used in metric names, e.g. `r-metis.k2`.
pub fn pair_label(strategy: &str, k: u16) -> String {
    format!("{strategy}.k{k}")
}

/// FNV-1a over a rendering: a compact, stable stand-in for a report.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one timed pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host seconds inside the measured calls.
    pub host_s: f64,
    /// Units of work completed: interactions simulated (offline) or
    /// transactions committed (replay, live).
    pub work: u64,
    /// Operations offered and operations failed.
    pub offered: u64,
    pub failed: u64,
    /// Every simulated outcome, rendered; identical across passes.
    pub fingerprint: String,
    /// Simulated end-to-end metrics.
    pub simulated: Vec<(&'static str, f64)>,
    /// Deterministic per-layer counts.
    pub counters: Vec<(String, f64)>,
    /// Host milliseconds per measured call, by metric name.
    pub timings: Vec<(String, f64)>,
    /// Output checks on this pass.
    pub checks: Vec<Check>,
}

/// A workload after set-up, ready for timed passes.
pub enum Prepared {
    Offline(Offline),
    Replay(Replay),
    Live(Live),
}

impl Prepared {
    /// Builds everything the timed passes need, recording spans around
    /// each call into a layer.
    pub fn setup(workload: Workload, seed: u64, rec: &mut Recorder) -> Prepared {
        let chain = rec.time("ethereum", "gen", || workload.chain(seed, workload.scale()));
        match workload {
            Workload::OfflinePaper => Prepared::Offline(Offline { seed, chain }),
            Workload::Replay2pc => Prepared::Replay(Replay::setup(seed, chain, rec)),
            Workload::LiveHubBurst => Prepared::Live(Live::setup(seed, chain)),
        }
    }

    pub fn chain(&self) -> &SyntheticChain {
        match self {
            Prepared::Offline(w) => &w.chain,
            Prepared::Replay(w) => &w.chain,
            Prepared::Live(w) => &w.chain,
        }
    }

    /// Per-layer counts fixed at set-up.
    pub fn setup_counters(&self) -> Vec<(String, f64)> {
        let chain = self.chain();
        let mut out = vec![
            ("gen.txs".to_string(), chain.txs.len() as f64),
            ("gen.interactions".to_string(), chain.log.len() as f64),
        ];
        let (v, e) = match self {
            Prepared::Replay(w) => (w.vertices, w.edges),
            _ => (0, 0),
        };
        out.push(("graph.vertices".to_string(), v as f64));
        out.push(("graph.edges".to_string(), e as f64));
        out
    }

    /// One timed pass; `traced` turns the program's own tracing on.
    pub fn pass(&self, traced: bool, rec: &mut Recorder) -> PassOut {
        match self {
            Prepared::Offline(w) => w.pass(traced, rec),
            Prepared::Replay(w) => w.pass(traced, rec),
            Prepared::Live(w) => w.pass(traced, rec),
        }
    }

    /// Checks that need a run of their own, made once after the timed
    /// passes against the first pass's output. May add simulated
    /// metrics that only such a run can measure.
    pub fn verify(&self, first: &PassOut) -> PassOut {
        match self {
            Prepared::Offline(w) => w.verify(first),
            Prepared::Replay(_) => PassOut::default(),
            Prepared::Live(w) => w.verify(first),
        }
    }
}

// ---- offline-paper ------------------------------------------------------

pub struct Offline {
    seed: u64,
    chain: SyntheticChain,
}

/// Mean dynamic edge cut and balance over a run's active windows — the
/// aggregation of the report's offline table.
fn window_means(sim: &SimulationResult) -> (f64, f64) {
    let active: Vec<_> = sim.windows.iter().filter(|w| w.events > 0).collect();
    let n = active.len().max(1) as f64;
    (
        active.iter().map(|w| w.dynamic_edge_cut).sum::<f64>() / n,
        active.iter().map(|w| w.dynamic_balance).sum::<f64>() / n,
    )
}

fn sim_fingerprint(label: &str, sim: &SimulationResult) -> String {
    let (cut, bal) = window_means(sim);
    format!(
        "{label}:moves={},reparts={},cut={cut},balance={bal},windows={:x}",
        sim.total_moves,
        sim.repartitions,
        fnv(&format!("{:?}", sim.windows)),
    )
}

impl Offline {
    fn experiment(&self, traced: bool) -> Experiment<'_> {
        Experiment::over_chain(&self.chain)
            .named_strategies(&StrategyRegistry::with_builtins(), &STRATEGIES.join(","))
            .expect("built-in strategies resolve")
            .shard_counts(OFFLINE_SHARDS.iter().map(|&k| shards(k)).collect())
            .offline(true)
            .replay(false)
            .seed(self.seed)
            .trace(traced)
    }

    fn pass(&self, traced: bool, rec: &mut Recorder) -> PassOut {
        let experiment = self.experiment(traced);
        let start_us = rec.now_us();
        let clock = Instant::now();
        let report: ExperimentReport = rec.time("core", "experiment", || experiment.run());
        let host_s = clock.elapsed().as_secs_f64();
        if let Some(trace) = &report.trace {
            rec.absorb(trace, start_us);
        }

        let mut out = PassOut {
            host_s,
            ..PassOut::default()
        };
        let (mut cut, mut bal, mut moved) = (0.0, 0.0, 0);
        let mut prints = Vec::new();
        for (run, (s, k)) in report.runs.iter().zip(offline_pairs()) {
            let sim = run.offline.as_ref().expect("offline stage enabled");
            let label = pair_label(s, k);
            let events: usize = sim.windows.iter().map(|w| w.events).sum();
            out.work += events as u64;
            let (c, b) = window_means(sim);
            cut += c;
            bal += b;
            moved += sim.total_moves;
            prints.push(sim_fingerprint(&label, sim));
            out.counters.push((
                format!("shard.repartitions.{label}"),
                sim.repartitions as f64,
            ));
            out.counters
                .push((format!("shard.moves.{label}"), sim.total_moves as f64));
        }
        let pairs = report.runs.len() as f64;
        out.offered = out.work;
        out.fingerprint = prints.join(";");
        out.simulated = vec![("edge_cut", cut / pairs), ("balance", bal / pairs)];
        out.counters
            .push(("shard.moved_vertices".to_string(), moved as f64));
        out
    }

    /// Re-runs every pair through `ShardSimulator` directly to reach its
    /// final state, then checks that state against the benchmark's own
    /// recomputation. Also measures the cross-shard share of the chain's
    /// transactions under each final placement.
    fn verify(&self, first: &PassOut) -> PassOut {
        let pairs = offline_pairs();
        let mut out = PassOut::default();
        let mut prints = Vec::new();
        let mut cross = 0.0;
        for &(strategy, k) in &pairs {
            let (print, checks, cross_pct) = self.verify_pair(strategy, k);
            prints.push(print);
            out.checks.extend(checks);
            cross += cross_pct;
        }
        out.checks
            .push(parity(&first.fingerprint, &prints.join(";")));
        out.simulated = vec![("cross_shard_pct", cross / pairs.len() as f64)];
        out
    }

    fn verify_pair(&self, strategy: &str, k: u16) -> (String, Vec<Check>, f64) {
        let spec = spec(strategy);
        let config = spec
            .simulator_config(shards(k))
            .with_window(Duration::hours(4));
        let mut sim = ShardSimulator::new(config, spec.build_partitioner(self.seed));
        let result = sim.run(&self.chain.log);
        let state = sim.into_state();
        let (csr, _, _, partition) = state.full_graph();
        let recomputed = checks::static_edge_cut(&csr, partition.as_slice());
        let mut found = vec![
            checks::shards_below_k(partition.as_slice(), k),
            checks::edge_cut_matches(recomputed, state.static_edge_cut()),
        ];
        // the last window's record predates a repartition at its close
        if let Some(last) = result.windows.last().filter(|w| !w.repartitioned) {
            found.push(checks::edge_cut_matches(recomputed, last.static_edge_cut));
        }
        let assignment = Assignment::from_map(state.assignment_map(), shards(k));
        let cross = cross_shard_pct(&self.chain.txs, &assignment);
        (
            sim_fingerprint(&pair_label(strategy, k), &result),
            found,
            cross,
        )
    }
}

/// The offline pairs in `Experiment`'s strategy-major order.
pub fn offline_pairs() -> Vec<(&'static str, u16)> {
    STRATEGIES
        .iter()
        .flat_map(|&s| OFFLINE_SHARDS.iter().map(move |&k| (s, k)))
        .collect()
}

/// The direct simulator runs must reproduce the experiment's results,
/// or checks on their final states say nothing about the experiment.
fn parity(experiment: &str, direct: &str) -> Check {
    checks::simulated_identical(&[experiment.to_string(), direct.to_string()]).map_err(|mut e| {
        e.check = "experiment-parity";
        e
    })
}

/// Share (%) of transactions whose touched accounts span two or more
/// shards under `assignment`.
fn cross_shard_pct(txs: &[ExecutedTx], assignment: &Assignment) -> f64 {
    let cross = txs
        .iter()
        .filter(|t| {
            let mut shards = t.touched.iter().map(|&a| assignment.shard_of(a));
            let first = shards.next();
            shards.any(|s| Some(s) != first)
        })
        .count();
    100.0 * cross as f64 / txs.len().max(1) as f64
}

// ---- replay-2pc ---------------------------------------------------------

pub struct Replay {
    chain: SyntheticChain,
    runtimes: Vec<(String, ShardedRuntime)>,
    vertices: usize,
    edges: usize,
    edge_cut: f64,
}

impl Replay {
    fn setup(seed: u64, chain: SyntheticChain, rec: &mut Recorder) -> Replay {
        let graph = rec.time("graph", "graph.build", || {
            InteractionLog::graph_of(chain.log.events())
        });
        let csr = rec.time("graph", "graph.csr", || graph.to_csr());
        let k4 = shards(4);
        let config = MultilevelConfig {
            seed,
            ..MultilevelConfig::default()
        };
        let mut trace = Trace::new_at(rec.epoch());
        let partition = rec.time("partition", "kway", || {
            kway_traced(&csr, k4, &config, &mut trace)
        });
        rec.absorb(&trace, 0);

        let metis: HashMap<_, _> = (0..csr.node_count())
            .map(|v| (graph.address(NodeId::new(v as u32)), partition.shard_of(v)))
            .collect();
        let hashed4 = Assignment::hashed(k4);
        let hash4: Vec<u16> = (0..csr.node_count())
            .map(|v| {
                hashed4
                    .shard_of(graph.address(NodeId::new(v as u32)))
                    .as_u16()
            })
            .collect();
        let edge_cut = (checks::static_edge_cut(&csr, &hash4)
            + checks::static_edge_cut(&csr, partition.as_slice()))
            / 2.0;

        let runtimes = REPLAY_PAIRS
            .iter()
            .map(|&(s, k)| {
                let assignment = match s {
                    "metis" => Assignment::from_map(metis.clone(), shards(k)),
                    _ => Assignment::hashed(shards(k)),
                };
                let config = RuntimeConfig::new(shards(k)).with_seed(seed);
                (pair_label(s, k), ShardedRuntime::new(config, assignment))
            })
            .collect();
        Replay {
            vertices: csr.node_count(),
            edges: graph.edge_count(),
            chain,
            runtimes,
            edge_cut,
        }
    }

    fn pass(&self, traced: bool, rec: &mut Recorder) -> PassOut {
        let world = self.chain.chain.world();
        let txs = &self.chain.txs;
        let mut out = PassOut::default();
        let mut reports: Vec<(&str, RuntimeReport)> = Vec::new();
        for (label, runtime) in &self.runtimes {
            let clock = Instant::now();
            let report = rec.time("runtime", &format!("replay.{label}"), || {
                if traced {
                    runtime.run_traced(world, txs).0
                } else {
                    runtime.run(world, txs)
                }
            });
            let secs = clock.elapsed().as_secs_f64();
            out.host_s += secs;
            out.timings
                .push((format!("runtime.replay_ms.{label}"), secs * 1e3));
            out.timings.push((
                format!("runtime.us_per_tx.{label}"),
                secs * 1e6 / txs.len().max(1) as f64,
            ));
            reports.push((label, report));
        }

        let mut prints = Vec::new();
        let (mut cross, mut bal, mut k4) = (0.0, 0.0, 0.0);
        let (mut prepares, mut aborts, mut p99, mut failed) = (0, 0, 0.0, 0);
        let (mut spec, mut conflicts, mut reexec) = (0, 0, 0);
        for (label, r) in &reports {
            out.work += r.committed;
            out.offered += r.total_txs as u64;
            out.failed += r.failed;
            out.checks.push(checks::offered_accounted(
                r.committed,
                r.failed,
                r.total_txs as u64,
            ));
            out.checks
                .push(checks::abort_causes_sum(&r.abort_causes, r.aborted_rounds));
            if r.k.get() == 1 {
                out.checks.push(checks::single_shard_is_local(
                    r.prepare_rounds,
                    r.cross_shard_txs,
                ));
            } else {
                cross += 100.0 * r.cross_shard_ratio;
                bal += busy_balance(r);
                k4 += 1.0;
            }
            prepares += r.prepare_rounds;
            aborts += r.aborted_rounds;
            failed += r.failed;
            p99 += r.p99_commit_latency_us as f64 / 1e3;
            spec += r.exec_speculated;
            conflicts += r.exec_conflicts;
            reexec += r.exec_re_executions;
            prints.push(format!("{label}:{:x}", fnv(&format!("{r:?}"))));
            for (name, value) in [
                ("prepare_rounds", r.prepare_rounds as f64),
                ("aborted_rounds", r.aborted_rounds as f64),
                ("local_conflicts", r.local_conflicts as f64),
                ("makespan_ms_vclock", r.makespan_us as f64 / 1e3),
            ] {
                out.counters
                    .push((format!("runtime.{name}.{label}"), value));
            }
        }
        out.fingerprint = prints.join(";");
        out.simulated = vec![
            ("cross_shard_pct", cross / k4),
            ("edge_cut", self.edge_cut),
            ("balance", bal / k4),
        ];
        out.counters.extend([
            ("runtime.abort_pct".to_string(), pct(aborts, prepares)),
            (
                "runtime.p99_commit_ms_vclock".to_string(),
                p99 / reports.len() as f64,
            ),
            ("runtime.failed_txs".to_string(), failed as f64),
            ("exec.speculated".to_string(), spec as f64),
            ("exec.conflicts".to_string(), conflicts as f64),
            ("exec.re_executions".to_string(), reexec as f64),
        ]);
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Busiest shard's virtual busy time over the mean: 1 is perfectly
/// balanced.
fn busy_balance(r: &RuntimeReport) -> f64 {
    let busy: Vec<u64> = r.per_shard.iter().map(|s| s.busy_us).collect();
    let total: u64 = busy.iter().sum();
    let max = busy.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        max as f64 * busy.len() as f64 / total as f64
    }
}

// ---- live-hub-burst -----------------------------------------------------

pub struct Live {
    seed: u64,
    chain: SyntheticChain,
    spec: Arc<dyn StrategySpec>,
    config: LiveConfig,
}

impl Live {
    fn setup(seed: u64, chain: SyntheticChain) -> Live {
        let k = shards(LIVE_SHARDS);
        let spec = spec("tr-metis");
        let window = Duration::hours(4);
        // the strategy's own trigger and scope drive the live loop, as
        // in `Experiment`'s live stage
        let sim = spec.simulator_config(k);
        let depth = (sim.scope_window.as_secs() / window.as_secs()).max(1) as usize;
        let mut runtime = spec.runtime_config(k).with_seed(seed);
        runtime.k = k;
        let config = LiveConfig::new(k)
            .with_window(window)
            .with_depth(depth)
            .with_policy(sim.policy)
            .with_runtime(runtime)
            .with_label(spec.name());
        Live {
            seed,
            chain,
            spec,
            config,
        }
    }

    /// Runs the live service once. A traced run also returns the
    /// session's virtual-clock trace, which carries the 2PC counters.
    fn run(&self, traced: bool) -> (MigrationReport, Option<Trace>) {
        let config = self.config.clone().with_tracing(traced);
        let mut runner = LiveRunner::new(config, self.spec.build_partitioner(self.seed));
        let run = runner.run(self.chain.chain.world(), &self.chain.txs);
        let trace = traced.then(|| run.session.finish());
        (run.report, trace)
    }

    fn pass(&self, traced: bool, rec: &mut Recorder) -> PassOut {
        let clock = Instant::now();
        let (report, trace) = rec.time("live", "live", || self.run(traced));
        let host_s = clock.elapsed().as_secs_f64();
        let offered = self.chain.txs.len() as u64;
        let committed = report.total_committed();
        let mut out = PassOut {
            host_s,
            work: committed,
            offered,
            failed: report.total_failed(),
            fingerprint: live_fingerprint(&report),
            ..PassOut::default()
        };
        out.checks.push(checks::offered_accounted(
            committed,
            report.total_failed(),
            offered,
        ));
        out.timings.push(("live.run_ms".to_string(), host_s * 1e3));
        out.timings.push((
            "live.us_per_tx".to_string(),
            host_s * 1e6 / offered.max(1) as f64,
        ));
        let active: Vec<_> = report.windows.iter().filter(|w| w.txs > 0).collect();
        let n = active.len().max(1) as f64;
        let cross: usize = report.windows.iter().map(|w| w.cross_shard_txs).sum();
        let txs: usize = report.windows.iter().map(|w| w.txs).sum();
        out.simulated = vec![
            ("cross_shard_pct", 100.0 * cross as f64 / txs.max(1) as f64),
            (
                "edge_cut",
                active.iter().map(|w| w.window_cut).sum::<f64>() / n,
            ),
            (
                "balance",
                active.iter().map(|w| w.window_balance).sum::<f64>() / n,
            ),
        ];
        out.counters.extend([
            ("live.windows".to_string(), report.windows.len() as f64),
            ("live.migrations".to_string(), report.migrations() as f64),
            (
                "live.accounts_moved".to_string(),
                report.accounts_moved() as f64,
            ),
            (
                "live.migrated_mb".to_string(),
                report.bytes_moved() as f64 / 1e6,
            ),
            (
                "live.migration_ms_vclock".to_string(),
                report.migration_wall_us() as f64 / 1e3,
            ),
            (
                "live.p99_commit_ms_vclock".to_string(),
                active.iter().map(|w| w.p99_us as f64).sum::<f64>() / n / 1e3,
            ),
            ("live.failed_txs".to_string(), report.total_failed() as f64),
        ]);
        if let Some(trace) = trace {
            out.checks.push(abort_causes_add_up(&report, &trace));
            let prepares = session_counters(&trace)
                .get("prepare_rounds")
                .copied()
                .unwrap_or(0);
            out.counters.push((
                "live.abort_pct".to_string(),
                pct(aborted_by_cause(&trace).values().sum(), prepares),
            ));
        }
        out
    }

    /// One traced run after the timed passes: its report must equal the
    /// untraced ones, and its 2PC counters must add up.
    fn verify(&self, first: &PassOut) -> PassOut {
        let (report, trace) = self.run(true);
        let trace = trace.expect("traced run returns its trace");
        PassOut {
            checks: vec![
                abort_causes_add_up(&report, &trace),
                parity(&first.fingerprint, &live_fingerprint(&report)),
            ],
            ..PassOut::default()
        }
    }
}

/// The session's counters summed over shards: workers count under a
/// `<shard>/` prefix.
fn session_counters(trace: &Trace) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (name, n) in trace.metrics().counters() {
        let unscoped = name.split_once('/').map_or(name, |(_, rest)| rest);
        *out.entry(unscoped.to_string()).or_insert(0) += n;
    }
    out
}

fn aborted_by_cause(trace: &Trace) -> BTreeMap<String, u64> {
    session_counters(trace)
        .into_iter()
        .filter_map(|(name, n)| name.strip_prefix("aborts/").map(|c| (c.to_string(), n)))
        .collect()
}

/// The session's per-cause abort counters sum to the aborted rounds the
/// report's windows record.
fn abort_causes_add_up(report: &MigrationReport, trace: &Trace) -> Check {
    let aborted: u64 = report.windows.iter().map(|w| w.aborted_rounds).sum();
    checks::abort_causes_sum(&aborted_by_cause(trace), aborted)
}

fn live_fingerprint(report: &MigrationReport) -> String {
    format!("live:{:x}", fnv(&format!("{report:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.00002;

    #[test]
    fn seed_reaches_the_generator() {
        for workload in [Workload::OfflinePaper, Workload::LiveHubBurst] {
            let a = workload.chain(7, TINY);
            let b = workload.chain(7, TINY);
            let c = workload.chain(8, TINY);
            assert!(!a.txs.is_empty());
            assert_eq!(a.log.events(), b.log.events(), "{workload:?}");
            assert_eq!(format!("{:?}", a.txs), format!("{:?}", b.txs));
            assert_ne!(a.log.events(), c.log.events(), "{workload:?}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn offline_pairs_follow_experiment_order() {
        let pairs = offline_pairs();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], ("hash", 2));
        assert_eq!(pairs[1], ("hash", 4));
        assert_eq!(pairs[9], ("tr-metis", 4));
    }
}
