//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <offline-paper|replay-2pc|live-hub-burst>
//!           --seed <u64> --seconds <u64> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in
//! this directory for the workloads and the metric → layer map.

mod checks;
mod metrics;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use checks::CheckFailure;
use metrics::{MetricSet, END_TO_END};
use reference::Reference;
use spans::{Recorder, LAYERS};
use workloads::{offline_pairs, pair_label, PassOut, Prepared, Workload, STRATEGIES};

/// A run sets up at least `MIN_SETUPS` times; `setup_s` is the median,
/// each set-up scaled by the reference workload's time before it.
/// Set-ups after the first are spread through the timed passes, taking
/// up to `SETUP_SHARE` of the elapsed time, so they sample the same host
/// conditions as the passes instead of one burst at the start.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.1;
/// Fewest timed passes of each kind a run takes, however long they are.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <offline-paper|replay-2pc|live-hub-burst> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut opts: BTreeMap<String, String> = BTreeMap::new();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            if !["workload", "seed", "seconds", "trace"].contains(&name) {
                return Err(format!("unknown option `{key}`"));
            }
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            opts.insert(name.to_string(), value);
        }
        let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing `--{k}`"));
        let workload = get("workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let seed = get("seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let seconds = get("seconds")?
            .parse::<u64>()
            .map_err(|e| format!("bad --seconds: {e}"))?;
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        };
        Ok(Args {
            workload,
            seed,
            seconds: seconds as f64,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = metrics::provenance(args.workload, args.seed);
    eprintln!("perfbench: {provenance}");
    println!("provenance {provenance}");

    let mut rec = Recorder::new();
    // The reference workload runs before the first set-up and after
    // every pass; a timed pass is paired with the mean of the runs on
    // either side of it, a set-up with the run before it.
    let mut reference = Reference::new();
    reference.run();
    let mut ref_before = reference.run();

    let mut setups = Vec::new();
    let prepared = timed_setup(&args, &mut rec, &mut setups, ref_before);

    // One untimed pass first: memory the passes reuse is faulted in and
    // lazily built state is ready. Its outputs are still checked.
    let warmup = prepared.pass(false, &mut rec);

    // Timed passes until the time is up. A traced run alternates
    // untraced and traced passes, so the two see the same host state
    // and their difference is the tracing overhead. Peak memory is
    // read after a fixed number of passes: later passes only add
    // allocator fragmentation, and how many fit depends on host speed.
    let mut peak_rss_mb = 0.0;
    let clock = Instant::now();
    let (mut plain, mut traced): (Vec<PassOut>, Vec<PassOut>) = (Vec::new(), Vec::new());
    let mut ref_s = Vec::new();
    loop {
        let enough = plain.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && clock.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if args.trace && traced.len() < plain.len() {
            let start = rec.now_us();
            traced.push(prepared.pass(true, &mut rec));
            rec.close_pass(start);
            ref_before = reference.run();
        } else {
            plain.push(prepared.pass(false, &mut rec));
            let ref_after = reference.run();
            ref_s.push((ref_before + ref_after) / 2.0);
            ref_before = ref_after;
            if plain.len() == MIN_PASSES {
                peak_rss_mb = metrics::peak_rss_mb();
            }
        }
        // extra set-ups only after memory is read: each briefly holds a
        // second copy of the workload
        while plain.len() >= MIN_PASSES
            && setups.iter().map(|s| s.0).sum::<f64>() < SETUP_SHARE * clock.elapsed().as_secs_f64()
        {
            drop(timed_setup(&args, &mut rec, &mut setups, ref_before));
        }
    }
    while setups.len() < MIN_SETUPS {
        drop(timed_setup(&args, &mut rec, &mut setups, ref_before));
    }
    let verified = prepared.verify(&warmup);

    let all: Vec<&PassOut> = [&warmup].into_iter().chain(&plain).chain(&traced).collect();
    let mut failures: Vec<CheckFailure> = all
        .iter()
        .chain([&&verified])
        .flat_map(|p| p.checks.iter())
        .filter_map(|c| c.clone().err())
        .collect();
    let prints: Vec<String> = all.iter().map(|p| p.fingerprint.clone()).collect();
    failures.extend(checks::simulated_identical(&prints).err());
    match metrics::remember_fingerprint(args.workload, args.seed, &prints[0]) {
        Ok(check) => failures.extend(check.err()),
        Err(e) => eprintln!("perfbench: fingerprint store unavailable: {e}"),
    }

    let mut set = MetricSet::default();
    if args.trace {
        per_layer(
            &mut set, &args, &prepared, &rec, &setups, &plain, &ref_s, &traced,
        );
    } else {
        end_to_end(&mut set, &setups, peak_rss_mb, &plain, &ref_s, &verified);
    }
    let attempted: u64 = all.iter().map(|p| p.offered).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    for f in &failures {
        eprintln!("perfbench: {f}");
        println!("failed-check {f}");
    }
    eprint!("{}", set.table());
    println!(
        "{}",
        set.result_json(failures.is_empty(), attempted.max(1), failed)
    );
    ExitCode::SUCCESS
}

/// Sets the workload up once, appending the seconds it took and the
/// reference workload's latest time.
fn timed_setup(
    args: &Args,
    rec: &mut Recorder,
    setups: &mut Vec<(f64, f64)>,
    ref_s: f64,
) -> Prepared {
    let clock = Instant::now();
    let prepared = Prepared::setup(args.workload, args.seed, rec);
    setups.push((clock.elapsed().as_secs_f64(), ref_s));
    prepared
}

/// Each set-up's host seconds.
fn setup_host_s(setups: &[(f64, f64)]) -> Vec<f64> {
    setups.iter().map(|s| s.0).collect()
}

/// Each timed pass's throughput in work per second of host time.
fn host_throughput(plain: &[PassOut]) -> Vec<f64> {
    plain.iter().map(|p| p.work as f64 / p.host_s).collect()
}

fn end_to_end(
    set: &mut MetricSet,
    setups: &[(f64, f64)],
    peak_rss_mb: f64,
    plain: &[PassOut],
    ref_s: &[f64],
    verified: &PassOut,
) {
    // set-up seconds on a host where the reference takes its nominal time
    set.samples(
        "setup_s",
        setups
            .iter()
            .map(|(s, r)| s * reference::NOMINAL_S / r)
            .collect(),
    );
    // work done in the time the reference workload took beside the pass
    let per_s = host_throughput(plain);
    set.samples(
        "throughput_per_ref",
        per_s.iter().zip(ref_s).map(|(t, r)| t * r).collect(),
    );
    eprintln!(
        "perfbench: host throughput {:.1}/s, reference {:.2} ms (medians over {} passes), \
         set-up {:.4} s (median of {})",
        stats::median(&per_s),
        stats::median(ref_s) * 1e3,
        plain.len(),
        stats::median(&setup_host_s(setups)),
        setups.len()
    );
    set.one("peak_rss_mb", peak_rss_mb);
    for (name, value) in plain[0].simulated.iter().chain(&verified.simulated) {
        set.one(name, *value);
    }
    for (name, _) in END_TO_END {
        assert!(set.has(name), "workload did not produce `{name}`");
    }
}

fn per_layer(
    set: &mut MetricSet,
    args: &Args,
    prepared: &Prepared,
    rec: &Recorder,
    setups: &[(f64, f64)],
    plain: &[PassOut],
    ref_s: &[f64],
    traced: &[PassOut],
) {
    // the host's speed: raw set-up time and throughput of the untraced
    // passes, and the reference workload's time beside them
    set.samples("host.setup_s", setup_host_s(setups));
    set.samples("host.throughput_per_s", host_throughput(plain));
    set.samples("host.reference_ms", ref_s.iter().map(|r| r * 1e3).collect());

    // set-up layers: the benchmark's spans and kway's own phase spans
    for (metric, span) in [
        ("gen.ms", "gen"),
        ("graph.build_ms", "graph.build"),
        ("graph.csr_ms", "graph.csr"),
        ("partition.kway_ms", "kway"),
        ("partition.coarsen_ms", "partition/coarsen"),
        ("partition.initial_ms", "partition/initial"),
        ("partition.refine_ms", "partition/refine"),
    ] {
        let ms: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_us as f64 / 1e3)
            .collect();
        if !ms.is_empty() {
            set.samples(metric, ms);
        }
    }
    for (name, value) in prepared.setup_counters() {
        set.one(&name, value);
    }

    // deterministic counts and host timings the passes reported
    for (name, value) in traced.iter().flat_map(|p| &p.counters) {
        set.one(name, *value);
    }
    let mut timings: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, ms) in traced.iter().flat_map(|p| &p.timings) {
        timings.entry(name).or_default().push(*ms);
    }
    for (name, ms) in timings {
        set.samples(name, ms);
    }

    // offline-paper: the simulator's and pipeline's own spans
    let passes = rec.passes();
    if args.workload == Workload::OfflinePaper {
        let pairs = offline_pairs();
        let pair_of = |lane: (u32, u32)| -> Option<(&str, u16)> {
            (lane.0 == 0 && lane.1 >= 1)
                .then(|| pairs.get(lane.1 as usize - 1).copied())
                .flatten()
        };
        let mut sim_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut repart_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut assembly, mut apply, mut busy) = (Vec::new(), Vec::new(), Vec::new());
        let workers = blockpart_types::resolve_workers(0).min(pairs.len()) as f64;
        for spans in &passes {
            let (mut asm, mut app, mut simulated) = (0.0, 0.0, 0.0);
            let mut wall = 0.0;
            for s in spans {
                let ms = s.dur_us as f64 / 1e3;
                match (s.name.as_str(), pair_of(s.lane)) {
                    ("simulate", Some((strategy, k))) => {
                        sim_ms
                            .entry(format!("shard.sim_ms.{}", pair_label(strategy, k)))
                            .or_default()
                            .push(ms);
                        simulated += ms;
                    }
                    ("simulate/partition", Some((strategy, _))) => {
                        repart_ms.entry(strategy).or_default().push(ms)
                    }
                    ("simulate/graph-assembly", _) => asm += ms,
                    ("simulate/apply-moves", _) => app += ms,
                    ("experiment", None) => wall += ms,
                    _ => {}
                }
            }
            assembly.push(asm);
            apply.push(app);
            if wall > 0.0 {
                busy.push(simulated / (wall * workers));
            }
        }
        for (name, ms) in sim_ms {
            set.samples(&name, ms);
        }
        for strategy in STRATEGIES {
            let ms = repart_ms.get(strategy).cloned().unwrap_or_default();
            for (p, label) in [(50.0, "p50"), (90.0, "p90")] {
                // left at 0 when fewer than ten samples lie beyond it
                if let Some(v) = stats::tail_percentile(&ms, p) {
                    set.one(&format!("shard.repartition_ms_{label}.{strategy}"), v);
                }
            }
        }
        set.samples("shard.graph_assembly_ms", assembly);
        set.samples("shard.apply_moves_ms", apply);
        if !busy.is_empty() {
            set.samples("core.fanout_busy_ratio", busy);
        }
    }

    // the traced run against the untraced passes beside it
    let host = |ps: &[PassOut]| stats::median(&ps.iter().map(|p| p.host_s).collect::<Vec<_>>());
    set.one(
        "obs.trace_overhead_pct",
        100.0 * (host(traced) / host(plain) - 1.0),
    );
    set.one("obs.coverage", 100.0 * rec.coverage());
    let self_us = rec.self_time_us();
    for layer in LAYERS {
        set.one(
            &format!("self_ms.{layer}"),
            self_us[layer] as f64 / 1e3 / passes.len().max(1) as f64,
        );
    }
    let dominant = LAYERS
        .iter()
        .max_by_key(|l| self_us[*l])
        .expect("layers are listed");
    eprintln!(
        "perfbench: dominant layer on {}: {dominant} ({:.1}% of traced self time)",
        args.workload.name(),
        100.0 * self_us[dominant] as f64 / self_us.values().sum::<u64>().max(1) as f64
    );
    set.fill_missing(metrics::per_layer_names().iter().map(|(n, _)| n.as_str()));
}
