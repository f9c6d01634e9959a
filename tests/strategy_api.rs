//! Integration tests for the open strategy API: registry round-trips,
//! user strategies through the `Experiment` pipeline, pinned numbers
//! from the former `Study`/`RuntimeStudy` drivers, and
//! assignment-totality properties for every registered strategy.

use std::sync::Arc;

use blockpart::core::{
    EngineRegistry, Experiment, ExperimentReport, ScenarioRegistry, StrategyError,
    StrategyRegistry, StrategySpec,
};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::graph::Csr;
use blockpart::partition::{Partition, PartitionRequest, Partitioner};
use blockpart::shard::{PlacementRule, RepartitionPolicy, SimulatorConfig};
use blockpart::types::{Duration, ShardCount};
use proptest::prelude::*;

fn k(n: u16) -> ShardCount {
    ShardCount::new(n).expect("non-zero")
}

/// A strategy defined entirely outside the `blockpart-*` crates: round
/// robin over dense vertex indices, repartitioned daily.
struct RoundRobin;

struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let assignment: Vec<u16> = (0..req.csr.node_count())
            .map(|v| (v % req.k.as_usize()) as u16)
            .collect();
        Partition::from_assignment(assignment, req.k).expect("shards within k")
    }
}

impl StrategySpec for RoundRobin {
    fn name(&self) -> &str {
        "ROUND-ROBIN"
    }

    fn build_partitioner(&self, _seed: u64) -> Box<dyn Partitioner> {
        Box::new(RoundRobinPartitioner)
    }

    fn simulator_config(&self, k: ShardCount) -> SimulatorConfig {
        SimulatorConfig::new(k)
            .with_placement(PlacementRule::Hash)
            .with_policy(RepartitionPolicy::Periodic {
                interval: Duration::days(1),
            })
    }
}

/// Satellite acceptance: a custom (non-paper) strategy registers and
/// runs end-to-end — offline metrics and 2PC replay — through the same
/// pipeline as the built-ins, without modifying any `blockpart-*` crate.
#[test]
fn registry_round_trip_custom_strategy_end_to_end() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(13)).generate();
    let mut registry = StrategyRegistry::with_builtins();
    registry.register(
        "round-robin",
        "dense-index round robin",
        Arc::new(RoundRobin),
    );

    let report = Experiment::over_chain(&chain)
        .named_strategies(&registry, "hash,round-robin")
        .expect("both resolve")
        .shard_counts(vec![k(2)])
        .replay(true)
        .seed(5)
        .run();

    let offline = report
        .offline("round-robin", k(2))
        .expect("offline stage ran");
    assert!(offline.repartitions > 0, "daily policy should fire");
    let runtime = report.runtime("round-robin", k(2)).expect("replay ran");
    assert_eq!(runtime.total_txs, chain.txs.len());
    assert!(runtime.committed > 0);
    // the custom strategy flows into rendering and serialization too
    assert!(report
        .offline_table()
        .render_ascii()
        .contains("ROUND-ROBIN"));
    let json = report.to_json();
    assert!(json.contains("\"strategy\":\"ROUND-ROBIN\""), "{json}");
    assert!(json.contains("\"runtime\":"), "{json}");
}

/// The `Experiment` pipeline reproduces, exactly, the offline numbers
/// the former `Study` driver reported for HASH and METIS at k = 2 on
/// the seed-17 test workload.
#[test]
fn experiment_reproduces_study_numbers() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(17)).generate();
    let registry = StrategyRegistry::with_builtins();
    let report = Experiment::over_log(&chain.log)
        .named_strategies(&registry, "hash,metis")
        .expect("resolve")
        .shard_counts(vec![k(2)])
        .seed(17)
        .run();

    let pinned = [
        (
            "HASH",
            0,
            0,
            0.4973544973544973,
            0.5016973378595676,
            0.5039117609336925,
            1.005706134094151,
        ),
        (
            "METIS",
            693,
            1,
            0.42857142857142855,
            0.38484902626407,
            0.433371809670386,
            1.072753209700428,
        ),
    ];
    assert_offline_pins(&report, k(2), &pinned);
}

/// The METIS family at k = 4 on the seed-17 test workload, pinned to the
/// numbers of the quadratic-scan FM initial bisection it replaced.
#[test]
fn metis_family_k4_numbers_are_pinned() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(17)).generate();
    let registry = StrategyRegistry::with_builtins();
    let report = Experiment::over_log(&chain.log)
        .named_strategies(&registry, "metis,r-metis,tr-metis")
        .expect("resolve")
        .shard_counts(vec![k(4)])
        .seed(17)
        .run();

    // one repartition each, so the three share their numbers
    let pinned = ["METIS", "R-METIS", "TR-METIS"].map(|name| {
        (
            name,
            1024,
            1,
            0.656084656084656,
            0.577273539396105,
            0.643196101064512,
            1.275320970042796,
        )
    });
    assert_offline_pins(&report, k(4), &pinned);
}

/// (strategy, moves, repartitions, last window's dynamic edge-cut,
/// static edge-cut, cumulative dynamic edge-cut, static balance)
type OfflinePin = (&'static str, u64, usize, f64, f64, f64, f64);

/// Checks each pinned strategy's offline run on the seed-17 workload.
fn assert_offline_pins(report: &ExperimentReport, shards: ShardCount, pinned: &[OfflinePin]) {
    for &(name, moves, repartitions, dec, sec, cdec, sb) in pinned {
        let r = report.offline(name, shards).expect("offline stage ran");
        assert_eq!(r.total_moves, moves, "{name}");
        assert_eq!(r.total_relocated_units, moves, "{name}");
        assert_eq!(r.repartitions, repartitions, "{name}");
        assert_eq!((r.vertex_count, r.edge_count), (1402, 5597), "{name}");
        assert_eq!(r.windows.len(), 84, "{name}");
        let events: usize = r.windows.iter().map(|w| w.events).sum();
        let window_moves: u64 = r.windows.iter().map(|w| w.moves).sum();
        assert_eq!((events, window_moves), (7817, moves), "{name}");
        let last = r.windows.last().expect("windows");
        assert_eq!(last.dynamic_edge_cut, dec, "{name}");
        assert_eq!(last.static_edge_cut, sec, "{name}");
        assert_eq!(last.cumulative_dynamic_edge_cut, cdec, "{name}");
        assert_eq!(last.static_balance, sb, "{name}");
    }
}

/// The `Experiment` replay stage reproduces, exactly, the runtime
/// reports the former `RuntimeStudy` driver produced for HASH and METIS
/// at k = 2 on the seed-19 test workload (1 ms links, 500 µs arrivals).
#[test]
fn experiment_reproduces_runtime_study_numbers() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(19)).generate();
    let registry = StrategyRegistry::with_builtins();
    let report = Experiment::over_chain(&chain)
        .named_strategies(&registry, "hash,metis")
        .expect("resolve")
        .shard_counts(vec![k(2)])
        .seed(19)
        .offline(false)
        .replay(true)
        .net_latency_us(1_000)
        .inter_arrival_us(500)
        .run();

    // (strategy, cross-shard txs, prepare rounds, aborted rounds,
    //  local conflicts, stray touches, makespan µs, headline)
    let pinned = [
        (
            "HASH",
            3410,
            3918,
            508,
            1325,
            390,
            3_017_326,
            "k=2 committed=6009/6009 cross=56.7% aborts=13.0% [lock-conflict=508] \
             p50=4230µs p99=28739µs 1991 tx/s",
        ),
        (
            "METIS",
            1128,
            1171,
            43,
            466,
            389,
            3_007_230,
            "k=2 committed=6009/6009 cross=18.8% aborts=3.7% [lock-conflict=43] \
             p50=315µs p99=4924µs 1998 tx/s",
        ),
    ];
    for (name, cross, prepares, aborts, local, stray, makespan, headline) in pinned {
        let r = report.runtime(name, k(2)).expect("replay ran");
        assert_eq!(
            (r.total_txs, r.committed, r.failed),
            (6009, 6009, 0),
            "{name}"
        );
        assert_eq!(r.cross_shard_txs, cross, "{name}");
        assert_eq!(
            (r.prepare_rounds, r.aborted_rounds),
            (prepares, aborts),
            "{name}"
        );
        assert_eq!(
            (r.local_conflicts, r.stray_touches),
            (local, stray),
            "{name}"
        );
        assert_eq!(r.makespan_us, makespan, "{name}");
        assert_eq!(r.exec_speculated, 0, "{name}");
        assert_eq!(r.headline(), headline, "{name}");
    }
}

/// The message of a failed resolution (`unwrap_err` would need the
/// resolved type to be `Debug`, which trait objects are not).
fn err_of<T>(resolved: Result<T, StrategyError>) -> String {
    match resolved {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected a resolution error"),
    }
}

/// Runs the `blockpart` binary and returns its stdout.
fn cli_stdout(command: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_blockpart"))
        .arg(command)
        .output()
        .expect("blockpart runs");
    assert!(out.status.success(), "blockpart {command} failed");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Golden pin: the three registries' help tables and the CLI's listing
/// commands are byte-identical to the committed golden files.
#[test]
fn registry_listings_are_pinned() {
    let tables = [
        (
            "list-strategies",
            StrategyRegistry::with_builtins().help_table(),
            include_str!("golden/list-strategies.txt"),
        ),
        (
            "list-scenarios",
            ScenarioRegistry::with_builtins().help_table(),
            include_str!("golden/list-scenarios.txt"),
        ),
        (
            "list-engines",
            EngineRegistry::with_builtins().help_table(),
            include_str!("golden/list-engines.txt"),
        ),
    ];
    for (command, table, golden) in tables {
        assert_eq!(format!("{}\n", table.render_ascii()), golden, "{command}");
        assert_eq!(cli_stdout(command), golden, "{command}");
    }
    assert_eq!(cli_stdout("help"), include_str!("golden/help.txt"));
}

/// Golden pin: every registry's one-line resolution errors, exactly.
/// Parameter-parse errors name the registry's own noun.
#[test]
fn registry_errors_are_pinned() {
    let strategies = StrategyRegistry::with_builtins();
    let scenarios = ScenarioRegistry::with_builtins();
    let engines = EngineRegistry::with_builtins();
    let cases = [
        (
            err_of(strategies.resolve("bogus")),
            "unknown strategy `bogus` (registered: hash, kl, metis, r-metis, tr-metis, \
             p-metis, ldg, fennel)",
        ),
        (
            err_of(strategies.resolve("r-metis[window=7")),
            "unclosed `[` in strategy spec `r-metis[window=7`",
        ),
        (
            err_of(strategies.resolve("hash[window=7]")),
            "strategy `hash` does not take parameter `window` (accepted: none)",
        ),
        (
            err_of(strategies.resolve("r-metis[window]")),
            "malformed strategy parameter `window` (expected key=value)",
        ),
        (
            err_of(strategies.resolve("r-metis[window=7;window=8]")),
            "duplicate strategy parameter `window`",
        ),
        (
            err_of(strategies.resolve_list(" , ")),
            "empty strategy list ` , ` (registered: hash, kl, metis, r-metis, tr-metis, \
             p-metis, ldg, fennel)",
        ),
        (
            err_of(scenarios.resolve("bogus")),
            "unknown scenario `bogus` (registered: friendly, baseline, hub-burst, ico-burst, \
             dummy-spam, dex-arb, aa-batch, nft-mint, phase-shift)",
        ),
        (
            err_of(scenarios.resolve("hub-burst[contracts=3")),
            "unclosed `[` in scenario spec `hub-burst[contracts=3`",
        ),
        (
            err_of(scenarios.resolve("friendly[x=1]")),
            "scenario `friendly` does not take parameter `x` (accepted: none)",
        ),
        (
            err_of(scenarios.resolve("hub-burst[contracts]")),
            "malformed scenario parameter `contracts` (expected key=value)",
        ),
        (
            err_of(scenarios.resolve("hub-burst[contracts=2;contracts=3]")),
            "duplicate scenario parameter `contracts`",
        ),
        (
            err_of(scenarios.resolve_list(" , ")),
            "empty scenario list ` , ` (registered: friendly, baseline, hub-burst, ico-burst, \
             dummy-spam, dex-arb, aa-batch, nft-mint, phase-shift)",
        ),
        (
            err_of(engines.resolve("bogus")),
            "unknown engine `bogus` (registered: serial, parallel, block-stm)",
        ),
        (
            err_of(engines.resolve("parallel[lanes=2")),
            "unclosed `[` in engine spec `parallel[lanes=2`",
        ),
        (
            err_of(engines.resolve("serial[lanes=2]")),
            "engine `serial` does not take parameter `lanes` (accepted: none)",
        ),
        (
            err_of(engines.resolve("parallel[lanes]")),
            "malformed engine parameter `lanes` (expected key=value)",
        ),
        (
            err_of(engines.resolve("parallel[x=1;x=2]")),
            "duplicate engine parameter `x`",
        ),
    ];
    for (actual, expected) in cases {
        assert_eq!(actual, expected);
    }
}

/// Random undirected edge lists over up to `max_nodes` vertices.
fn edges_strategy(max_nodes: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 1..50u64)
            .prop_filter("no self-loops", |(u, v, _)| u != v)
            .prop_map(|(u, v, w)| (u, v, w));
        (Just(n as usize), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite acceptance: every registered strategy yields a *total*
    // assignment — every vertex placed, every shard id < k.
    #[test]
    fn every_registered_strategy_yields_total_assignment(
        (n, edges) in edges_strategy(48),
        kk in 2u16..=8,
        seed in 0u64..500,
    ) {
        let registry = StrategyRegistry::with_builtins();
        let csr = Csr::from_edges(n, &edges);
        let k = ShardCount::new(kk).unwrap();
        for name in registry.names() {
            let spec = registry.resolve(name).expect("registered name resolves");
            let mut partitioner = spec.build_partitioner(seed);
            let part = partitioner.partition(&PartitionRequest::new(&csr, k));
            prop_assert_eq!(part.len(), n, "{}: not total", name);
            for v in 0..n {
                prop_assert!(
                    k.contains(part.shard_of(v)),
                    "{}: vertex {} out of range", name, v
                );
            }
        }
    }
}
