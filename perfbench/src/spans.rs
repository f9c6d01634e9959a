//! Benchmark-side spans around each call into a layer, merged with the
//! wall-clock spans the program already emits, and the per-layer self
//! time and coverage derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

use blockpart_obs::{ClockDomain, Trace};

/// The layers a span can be charged to: the workspace crates.
pub const LAYERS: [&str; 7] = [
    "ethereum",
    "graph",
    "partition",
    "shard",
    "core",
    "runtime",
    "live",
];

/// The lane the benchmark's own spans occupy; program lanes are small
/// process numbers, so this one never collides.
const BENCH_LANE: (u32, u32) = (u32::MAX, 0);

/// One closed span on the recorder's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub lane: (u32, u32),
    pub start_us: u64,
    pub dur_us: u64,
}

impl Span {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// The layer a program span belongs to, by the names the program emits
/// (`Experiment::trace`, `ShardSimulator::run_traced`, `kway_traced`).
pub fn layer_of(name: &str) -> Option<&'static str> {
    match name {
        "chain-gen" => Some("ethereum"),
        "simulate/partition" => Some("partition"),
        "replay" => Some("runtime"),
        "live" => Some("live"),
        n if n == "simulate" || n.starts_with("simulate/") => Some("shard"),
        n if n.starts_with("partition/") => Some("partition"),
        _ => None,
    }
}

/// Collects spans in memory on one clock; nothing is written until the
/// run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    windows: Vec<(u64, u64)>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// The recorder's clock origin, for program collectors that can
    /// share it (`Trace::new_at`).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a benchmark span charged to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        let dur_us = self.now_us() - start_us;
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            lane: BENCH_LANE,
            start_us,
            dur_us,
        });
        out
    }

    /// Marks the benchmark spans recorded since `since_us` as one timed
    /// pass: its wall runs from the first call's start to the last
    /// call's end, so the benchmark's own bookkeeping between passes is
    /// not charged to it. Coverage and self times are measured over the
    /// marked passes only.
    pub fn close_pass(&mut self, since_us: u64) {
        let calls = self
            .spans
            .iter()
            .filter(|s| s.lane == BENCH_LANE && s.start_us >= since_us);
        let start = calls.clone().map(|s| s.start_us).min();
        let end = calls.map(Span::end_us).max();
        if let (Some(a), Some(b)) = (start, end) {
            self.windows.push((a, b));
        }
    }

    /// Merges the program's wall-clock spans from `trace`, whose clock
    /// started `offset_us` into the recorder's. Spans whose names no
    /// layer claims are left out.
    pub fn absorb(&mut self, trace: &Trace, offset_us: u64) {
        for r in trace.records() {
            let (Some(dur_us), ClockDomain::Wall) = (r.dur_us, r.clock) else {
                continue;
            };
            if let Some(layer) = layer_of(&r.name) {
                self.spans.push(Span {
                    layer,
                    name: r.name.clone(),
                    lane: (r.process, r.thread),
                    start_us: offset_us + r.ts_us,
                    dur_us,
                });
            }
        }
    }

    /// The spans of each marked pass, in pass order.
    pub fn passes(&self) -> Vec<Vec<&Span>> {
        self.windows
            .iter()
            .map(|&(a, b)| {
                self.spans
                    .iter()
                    .filter(|s| s.start_us >= a && s.end_us() <= b)
                    .collect()
            })
            .collect()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer summed over the marked passes.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, u64> {
        let inside: Vec<Span> = self.passes().into_iter().flatten().cloned().collect();
        self_time_us(&inside)
    }

    /// Share of the marked passes' wall time inside any layer span.
    pub fn coverage(&self) -> f64 {
        let total: u64 = self.windows.iter().map(|&(a, b)| b - a).sum();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .windows
            .iter()
            .map(|&(a, b)| {
                let clipped: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .map(|s| (s.start_us.max(a), s.end_us().min(b)))
                    .filter(|&(x, y)| x < y)
                    .collect();
                union_len(clipped)
            })
            .sum();
        covered as f64 / total as f64
    }
}

/// Length of the union of half-open intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover. A span's parent is the innermost span of its own
/// lane enclosing it; a lane's outermost spans hang under the
/// benchmark span enclosing their start (the call that spawned the
/// lane's thread).
pub fn self_time_us(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.lane, s.start_us, std::cmp::Reverse(s.dur_us))
    });
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut lane = None;
    for &i in &order {
        let s = &spans[i];
        if lane != Some(s.lane) {
            stack.clear();
            lane = Some(s.lane);
        }
        while stack
            .last()
            .is_some_and(|&p| spans[p].end_us() < s.end_us())
        {
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    let bench: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| spans[i].lane == BENCH_LANE)
        .collect();
    for i in 0..spans.len() {
        if parent[i].is_none() && spans[i].lane != BENCH_LANE {
            let s = &spans[i];
            parent[i] = bench
                .iter()
                .copied()
                .filter(|&b| spans[b].start_us <= s.start_us && s.start_us < spans[b].end_us())
                .min_by_key(|&b| spans[b].dur_us);
        }
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            let (a, b) = (spans[p].start_us, spans[p].end_us());
            let (x, y) = (spans[i].start_us.max(a), spans[i].end_us().min(b));
            if x < y {
                children[p].push((x, y));
            }
        }
    }
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for (i, s) in spans.iter().enumerate() {
        let covered = union_len(std::mem::take(&mut children[i]));
        *out.entry(s.layer).or_insert(0) += s.dur_us - covered.min(s.dur_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, lane: (u32, u32), start_us: u64, dur_us: u64) -> Span {
        Span {
            layer,
            name: layer.to_string(),
            lane,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_children_across_lanes() {
        let spans = vec![
            // the benchmark's call into core, 0..100
            span("core", BENCH_LANE, 0, 100),
            // two worker lanes running in parallel under it
            span("shard", (0, 1), 5, 60),
            span("partition", (0, 1), 10, 40),
            span("shard", (0, 2), 5, 90),
        ];
        let t = self_time_us(&spans);
        assert_eq!(t["core"], 10); // 0..5 and 95..100 idle
        assert_eq!(t["partition"], 40);
        assert_eq!(t["shard"], 20 + 90);
        assert_eq!(t["runtime"], 0);
    }

    #[test]
    fn program_span_names_map_to_layers() {
        assert_eq!(layer_of("simulate"), Some("shard"));
        assert_eq!(layer_of("simulate/apply-moves"), Some("shard"));
        assert_eq!(layer_of("simulate/partition"), Some("partition"));
        assert_eq!(layer_of("partition/coarsen"), Some("partition"));
        assert_eq!(layer_of("chain-gen"), Some("ethereum"));
        assert_eq!(layer_of("unheard-of"), None);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }
}
