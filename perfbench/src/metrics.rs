//! Metric names and units, the result line, and the provenance that
//! goes with every result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use crate::checks::{self, Check};
use crate::spans::LAYERS;
use crate::stats::{self, Summary};
use crate::workloads::{offline_pairs, pair_label, Workload, REPLAY_PAIRS, STRATEGIES};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
    ("cross_shard_pct", "%"),
    ("edge_cut", "ratio"),
    ("balance", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// a workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for (name, unit) in [
        ("host.setup_s", "s"),
        ("host.throughput_per_s", "1/s"),
        ("host.reference_ms", "ms"),
        ("gen.ms", "ms"),
        ("gen.txs", "count"),
        ("gen.interactions", "count"),
        ("graph.build_ms", "ms"),
        ("graph.csr_ms", "ms"),
        ("graph.vertices", "count"),
        ("graph.edges", "count"),
        ("partition.kway_ms", "ms"),
        ("partition.coarsen_ms", "ms"),
        ("partition.initial_ms", "ms"),
        ("partition.refine_ms", "ms"),
    ] {
        add(name.to_string(), unit);
    }
    let pairs: Vec<String> = offline_pairs()
        .iter()
        .map(|&(s, k)| pair_label(s, k))
        .collect();
    for field in ["sim_ms", "repartitions", "moves"] {
        let unit = if field == "sim_ms" { "ms" } else { "count" };
        for pair in &pairs {
            add(format!("shard.{field}.{pair}"), unit);
        }
    }
    for p in ["p50", "p90"] {
        for s in STRATEGIES {
            add(format!("shard.repartition_ms_{p}.{s}"), "ms");
        }
    }
    add("shard.graph_assembly_ms".into(), "ms");
    add("shard.apply_moves_ms".into(), "ms");
    add("shard.moved_vertices".into(), "count");
    add("core.fanout_busy_ratio".into(), "ratio");
    for (field, unit) in [
        ("replay_ms", "ms"),
        ("us_per_tx", "us"),
        ("prepare_rounds", "count"),
        ("aborted_rounds", "count"),
        ("local_conflicts", "count"),
        ("makespan_ms_vclock", "ms"),
    ] {
        for &(s, k) in &REPLAY_PAIRS {
            add(format!("runtime.{field}.{}", pair_label(s, k)), unit);
        }
    }
    for (name, unit) in [
        ("runtime.abort_pct", "%"),
        ("runtime.p99_commit_ms_vclock", "ms"),
        ("runtime.failed_txs", "count"),
        ("exec.speculated", "count"),
        ("exec.conflicts", "count"),
        ("exec.re_executions", "count"),
        ("live.run_ms", "ms"),
        ("live.us_per_tx", "us"),
        ("live.windows", "count"),
        ("live.migrations", "count"),
        ("live.accounts_moved", "count"),
        ("live.migrated_mb", "MB"),
        ("live.migration_ms_vclock", "ms"),
        ("live.abort_pct", "%"),
        ("live.p99_commit_ms_vclock", "ms"),
        ("live.failed_txs", "count"),
        ("obs.trace_overhead_pct", "%"),
        ("obs.coverage", "%"),
    ] {
        add(name.to_string(), unit);
    }
    for layer in LAYERS {
        add(format!("self_ms.{layer}"), "ms");
    }
    m
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer_names()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// The metrics of one run, each a summary of its samples.
#[derive(Default)]
pub struct MetricSet {
    entries: BTreeMap<String, Summary>,
}

impl MetricSet {
    /// Records a metric measured once per pass (or per set-up); its
    /// value is the median.
    pub fn samples(&mut self, name: &str, samples: Vec<f64>) {
        self.entries
            .insert(name.to_string(), stats::summary(&samples));
    }

    /// Records a metric with a single value.
    pub fn one(&mut self, name: &str, value: f64) {
        self.samples(name, vec![value]);
    }

    pub fn has(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Reads every listed metric the run did not produce as 0: the
    /// layer did no work on this workload, or a percentile lacked the
    /// samples beyond it.
    pub fn fill_missing<'a>(&mut self, names: impl Iterator<Item = &'a str>) {
        for name in names {
            if !self.entries.contains_key(name) {
                self.one(name, 0.0);
            }
        }
    }

    /// Median, quartiles and sample count of every metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<36} {:>14} {:>14} {:>14} {:>4}  unit\n",
            "metric", "median", "q1", "q3", "n"
        );
        for (name, s) in &self.entries {
            let _ = writeln!(
                out,
                "{name:<36} {:>14.4} {:>14.4} {:>14.4} {:>4}  {}",
                s.median,
                s.q1,
                s.q3,
                s.n,
                unit_of(name)
            );
        }
        out
    }

    /// The result line. A metric that is not a finite number makes the
    /// run incorrect rather than the line unparsable.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.entries.values().all(|s| s.median.is_finite());
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, s)| {
                let value = if s.median.is_finite() { s.median } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            correct && finite,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A hash of this executable: two runs with the same build id ran the
/// same code.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| {
            let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            format!("{h:016x}")
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Seed, scale, worker count, `nproc`, CPU model, compiler, commit and
/// build id, as one JSON object.
pub fn provenance(workload: Workload, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", quoted(workload.name())),
        ("seed", seed.to_string()),
        ("scale", workload.scale().to_string()),
        ("workers", blockpart_types::resolve_workers(0).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", quoted(&cpu_model())),
        (
            "rustc",
            quoted(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit",
            quoted(
                &command_line("git", &["rev-parse", "--verify", "-q", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("build", quoted(&build_id())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Compares this run's simulated outcome with the one an earlier run of
/// the same build, workload, seed and scale stored, and stores it when
/// none did. The store lives in `.perfbench/` under the working
/// directory.
pub fn remember_fingerprint(
    workload: Workload,
    seed: u64,
    fingerprint: &str,
) -> std::io::Result<Check> {
    let dir = PathBuf::from(".perfbench").join("fingerprints");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-{seed}-{}-{}.txt",
        workload.name(),
        workload.scale(),
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => Ok(checks::simulated_identical(&[
            earlier,
            fingerprint.to_string(),
        ])),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(&path, fingerprint)?;
            Ok(Ok(()))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the binary reports are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at =
                            entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut set = MetricSet::default();
        set.samples("setup_s", vec![0.5, 0.25, 0.75]);
        let line = set.result_json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        set.one("balance", f64::NAN);
        assert!(set
            .result_json(true, 10, 0)
            .starts_with("{\"correct\": false"));
    }
}
