//! Initial partitioning of the coarsest graph: greedy graph growing
//! bisection, Fiduccia–Mattheyses-style refinement, recursive bisection.

use blockpart_graph::Csr;
use blockpart_types::ShardCount;
use rand::rngs::SmallRng;
use rand::Rng;

use super::MultilevelConfig;
use crate::partition::Partition;

/// Produces an initial k-way partition of `csr` by recursive bisection.
///
/// Each bisection splits the target shard count `k` into `⌈k/2⌉` and
/// `⌊k/2⌋` and aims for vertex-weight targets proportional to that split,
/// so uneven `k` still comes out balanced. Each bisection runs
/// `config.init_trials` greedy-graph-growing attempts refined with an FM
/// pass and keeps the best cut.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::multilevel::initial::recursive_bisection;
/// use blockpart_partition::MultilevelConfig;
/// use blockpart_types::ShardCount;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let edges: Vec<(u32, u32, u64)> = (0..15).map(|i| (i, i + 1, 1)).collect();
/// let csr = Csr::from_edges(16, &edges);
/// let mut rng = SmallRng::seed_from_u64(0);
/// let p = recursive_bisection(&csr, ShardCount::new(4).unwrap(), &MultilevelConfig::default(), &mut rng);
/// assert_eq!(p.len(), 16);
/// let sizes = p.shard_sizes();
/// assert!(sizes.iter().all(|&s| s >= 2), "sizes {sizes:?}");
/// ```
pub fn recursive_bisection(
    csr: &Csr,
    k: ShardCount,
    config: &MultilevelConfig,
    rng: &mut SmallRng,
) -> Partition {
    let n = csr.node_count();
    let mut assignment = vec![0u16; n];
    let all: Vec<u32> = (0..n as u32).collect();
    split(csr, &all, k.get(), 0, &mut assignment, config, rng);
    Partition::from_assignment(assignment, k).expect("labels bounded by k")
}

fn split(
    csr: &Csr,
    verts: &[u32],
    k: u16,
    offset: u16,
    assignment: &mut [u16],
    config: &MultilevelConfig,
    rng: &mut SmallRng,
) {
    if k <= 1 || verts.is_empty() {
        for &v in verts {
            assignment[v as usize] = offset;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total: u64 = verts.iter().map(|&v| csr.vertex_weight(v as usize)).sum();
    let target0 = total * u64::from(k0) / u64::from(k);

    let sub = Subgraph::extract(csr, verts);
    let side = best_bisection(&sub, target0, config, rng);

    let (mut side0, mut side1) = (Vec::new(), Vec::new());
    for (i, &v) in verts.iter().enumerate() {
        if side[i] == 0 {
            side0.push(v);
        } else {
            side1.push(v);
        }
    }
    split(csr, &side0, k0, offset, assignment, config, rng);
    split(csr, &side1, k1, offset + k0, assignment, config, rng);
}

/// A vertex-induced subgraph with local indices.
struct Subgraph {
    csr: Csr,
}

impl Subgraph {
    fn extract(csr: &Csr, verts: &[u32]) -> Subgraph {
        let mut local = vec![u32::MAX; csr.node_count()];
        for (i, &v) in verts.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut xadj = Vec::with_capacity(verts.len() + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(verts.len());
        xadj.push(0);
        for &v in verts {
            for (u, w) in csr.neighbors(v as usize) {
                let lu = local[u as usize];
                if lu != u32::MAX {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            vwgt.push(csr.vertex_weight(v as usize));
            xadj.push(adjncy.len());
        }
        Subgraph {
            csr: Csr::from_parts(xadj, adjncy, adjwgt, vwgt),
        }
    }
}

/// Runs `config.init_trials` GGG+FM attempts and returns the side
/// assignment (0/1 per local vertex) of the trial with the smallest cut.
/// Ties go to the smaller gap between side 0's weight and `target0`, then
/// to the earlier trial. No balance tolerance is checked: a trial's
/// balance only breaks ties.
fn best_bisection(
    sub: &Subgraph,
    target0: u64,
    config: &MultilevelConfig,
    rng: &mut SmallRng,
) -> Vec<u8> {
    let csr = &sub.csr;
    let n = csr.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Option<(u64, u64, Vec<u8>)> = None; // (cut, balance error, side)
    let trials = config.init_trials.max(1);
    // FM is skipped on the rare graphs above 4096 vertices, where coarsening
    // stalled, and the O(V + E) k-way refinement of the uncoarsening phase
    // does the polishing. The guard stays although FM is no longer
    // quadratic: lifting it would change the partitions that reach it, such
    // as the set-up partition of perfbench's replay-2pc workload, whose
    // coarsest graph has 14,110 vertices.
    let mut fm = (n <= 4096).then(|| Fm::new(csr));
    for _ in 0..trials {
        let mut side = grow(csr, target0, rng);
        if let Some(fm) = &mut fm {
            fm_refine(csr, &mut side, target0, config.imbalance, 4, |side, hi| {
                fm.pass(side, hi)
            });
        }
        let cut = cut_weight(csr, &side);
        let w0: u64 = (0..n)
            .filter(|&v| side[v] == 0)
            .map(|v| csr.vertex_weight(v))
            .sum();
        let err = w0.abs_diff(target0);
        let better = match &best {
            None => true,
            Some((bc, be, _)) => (cut, err) < (*bc, *be),
        };
        if better {
            best = Some((cut, err, side));
        }
    }
    best.expect("at least one trial").2
}

/// Greedy graph growing: grow side 0 from a random seed by always pulling
/// the frontier vertex with the strongest connection to the grown region,
/// until the region reaches `target0` weight.
///
/// Uses a lazy max-heap over frontier connectivity, so a full grow is
/// `O((V + E) log V)` even on the large graphs that reach initial
/// partitioning when coarsening stalls.
fn grow(csr: &Csr, target0: u64, rng: &mut SmallRng) -> Vec<u8> {
    use std::collections::BinaryHeap;
    let n = csr.node_count();
    let mut side = vec![1u8; n];
    if n == 0 || target0 == 0 {
        return side;
    }
    let mut weight0 = 0u64;
    let mut conn = vec![0u64; n];
    let mut in_region = vec![false; n];
    // lazy heap of (connection snapshot, vertex); stale entries are
    // skipped on pop
    let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::new();
    // rotating fallback cursor for disconnected graphs (amortized O(n))
    let mut scan = 0usize;

    let mut current = rng.gen_range(0..n);
    loop {
        in_region[current] = true;
        side[current] = 0;
        weight0 += csr.vertex_weight(current);
        if weight0 >= target0 {
            break;
        }
        for (u, w) in csr.neighbors(current) {
            let u = u as usize;
            if !in_region[u] {
                conn[u] += w;
                heap.push((conn[u], u));
            }
        }
        let mut next = None;
        while let Some((snapshot, v)) = heap.pop() {
            if !in_region[v] && conn[v] == snapshot {
                next = Some(v);
                break;
            }
        }
        if next.is_none() {
            // disconnected: take the next unreached vertex in index order
            while scan < n && in_region[scan] {
                scan += 1;
            }
            if scan < n {
                next = Some(scan);
            }
        }
        match next {
            Some(v) => current = v,
            None => break,
        }
    }
    side
}

/// FM-style bisection refinement with vertex weights: single-vertex moves,
/// best-prefix commit, both sides kept within `imbalance` of their target.
/// `pass` runs one pass against the caps `[hi0, hi1]` and returns its
/// committed gain; passes repeat until one gains nothing.
///
/// Returns the committed gain.
pub(crate) fn fm_refine(
    csr: &Csr,
    side: &mut [u8],
    target0: u64,
    imbalance: f64,
    max_passes: usize,
    mut pass: impl FnMut(&mut [u8], [u64; 2]) -> i64,
) -> i64 {
    if csr.node_count() < 2 {
        return 0;
    }
    let target1 = csr.total_vertex_weight() - target0;
    let hi0 = ((target0 as f64) * imbalance).ceil() as u64;
    let hi1 = ((target1 as f64) * imbalance).ceil() as u64;

    let mut total_gain = 0i64;
    for _ in 0..max_passes {
        let pass_gain = pass(side, [hi0, hi1]);
        if pass_gain <= 0 {
            break;
        }
        total_gain += pass_gain;
    }
    total_gain
}

/// The FM pass over one graph, with its buffers kept across passes and
/// trials.
///
/// Each move takes the unlocked vertex of greatest gain, ties to the
/// smallest id, among those whose destination side stays within its cap.
/// A vertex fits iff its weight is at most the destination's slack, so
/// with the vertices ranked by weight the movable ones on each side are a
/// prefix of that ranking. One max-tree per side over the ranking answers
/// "best move on this side" as a prefix maximum in `O(log n)`, and a gain
/// change is a leaf update, so a pass costs `O((V + E) log V)`.
struct Fm<'a> {
    csr: &'a Csr,
    /// Rank of each vertex in ascending (weight, id) order.
    rank: Vec<u32>,
    /// Vertex weights in rank order.
    ranked_weight: Vec<u64>,
    gain: Vec<i64>,
    locked: Vec<bool>,
    /// Unlocked vertices currently on side 0 and on side 1.
    trees: [MaxTree; 2],
    moves: Vec<usize>,
    gains: Vec<i64>,
}

impl<'a> Fm<'a> {
    fn new(csr: &'a Csr) -> Fm<'a> {
        let n = csr.node_count();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| csr.vertex_weight(v as usize));
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Fm {
            csr,
            rank,
            ranked_weight: order
                .iter()
                .map(|&v| csr.vertex_weight(v as usize))
                .collect(),
            gain: vec![0; n],
            locked: vec![false; n],
            trees: [MaxTree::new(n), MaxTree::new(n)],
            moves: Vec::with_capacity(n),
            gains: Vec::with_capacity(n),
        }
    }

    fn pass(&mut self, side: &mut [u8], hi: [u64; 2]) -> i64 {
        let csr = self.csr;
        let n = csr.node_count();
        let mut weights = [0u64, 0];
        for tree in &mut self.trees {
            tree.clear();
        }
        for v in 0..n {
            let mut g = 0i64;
            for (u, w) in csr.neighbors(v) {
                if side[u as usize] == side[v] {
                    g -= w as i64;
                } else {
                    g += w as i64;
                }
            }
            self.gain[v] = g;
            self.locked[v] = false;
            weights[side[v] as usize] += csr.vertex_weight(v);
            self.trees[side[v] as usize].put(self.rank[v] as usize, key(g, v));
        }
        for tree in &mut self.trees {
            tree.build();
        }
        self.moves.clear();
        self.gains.clear();

        loop {
            // Best unlocked move that keeps the destination side within bound.
            let mut best = EMPTY;
            for (from, tree) in self.trees.iter().enumerate() {
                let to = 1 - from;
                if let Some(slack) = hi[to].checked_sub(weights[to]) {
                    // the slack usually fits every weight: skip the search
                    let fits = if self.ranked_weight.last().is_none_or(|&w| w <= slack) {
                        n
                    } else {
                        self.ranked_weight.partition_point(|&w| w <= slack)
                    };
                    best = best.max(tree.prefix_max(fits));
                }
            }
            if best == EMPTY {
                break;
            }
            let v = vertex_of(best);
            let from = side[v] as usize;
            let to = 1 - from;
            weights[from] -= csr.vertex_weight(v);
            weights[to] += csr.vertex_weight(v);
            side[v] = to as u8;
            self.locked[v] = true;
            self.trees[from].set(self.rank[v] as usize, EMPTY);
            self.moves.push(v);
            self.gains.push(self.gain[v]);
            for (u, w) in csr.neighbors(v) {
                let u = u as usize;
                if !self.locked[u] {
                    if side[u] == side[v] {
                        self.gain[u] -= 2 * w as i64;
                    } else {
                        self.gain[u] += 2 * w as i64;
                    }
                    self.trees[side[u] as usize].set(self.rank[u] as usize, key(self.gain[u], u));
                }
            }
        }
        commit_best_prefix(side, &self.moves, &self.gains)
    }
}

/// A move's priority: greater gain first, then smaller vertex id.
fn key(gain: i64, v: usize) -> i128 {
    (i128::from(gain) << 32) | i128::from(u32::MAX - v as u32)
}

fn vertex_of(key: i128) -> usize {
    (u32::MAX - key as u32) as usize
}

/// The key of an empty slot, below every real key.
const EMPTY: i128 = i128::MIN;

/// A max segment tree over `n` slots (leaves at `n..2n`).
struct MaxTree {
    t: Vec<i128>,
}

impl MaxTree {
    fn new(n: usize) -> MaxTree {
        MaxTree {
            t: vec![EMPTY; 2 * n],
        }
    }

    fn clear(&mut self) {
        self.t.fill(EMPTY);
    }

    /// Writes a leaf without fixing its ancestors; call [`MaxTree::build`]
    /// after the last one.
    fn put(&mut self, slot: usize, key: i128) {
        let n = self.t.len() / 2;
        self.t[n + slot] = key;
    }

    fn build(&mut self) {
        for i in (1..self.t.len() / 2).rev() {
            self.t[i] = self.t[2 * i].max(self.t[2 * i + 1]);
        }
    }

    fn set(&mut self, slot: usize, key: i128) {
        let mut i = self.t.len() / 2 + slot;
        self.t[i] = key;
        while i > 1 {
            i /= 2;
            let max = self.t[2 * i].max(self.t[2 * i + 1]);
            if self.t[i] == max {
                break; // the ancestors already hold the right maxima
            }
            self.t[i] = max;
        }
    }

    /// The greatest key among slots `0..end`.
    fn prefix_max(&self, end: usize) -> i128 {
        let n = self.t.len() / 2;
        if end == n {
            // every leaf descends from the root
            return self.t.get(1).copied().unwrap_or(EMPTY);
        }
        let (mut l, mut r) = (n, n + end);
        let mut best = EMPTY;
        while l < r {
            if l & 1 == 1 {
                best = best.max(self.t[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                best = best.max(self.t[r]);
            }
            l /= 2;
            r /= 2;
        }
        best
    }
}

/// Keeps the prefix of `moves` with the greatest cumulative gain, rolls
/// back the rest, and returns that prefix's gain (0 if none is positive).
fn commit_best_prefix(side: &mut [u8], moves: &[usize], gains: &[i64]) -> i64 {
    let mut best_total = 0i64;
    let mut best_len = 0usize;
    let mut running = 0i64;
    for (i, &g) in gains.iter().enumerate() {
        running += g;
        if running > best_total {
            best_total = running;
            best_len = i + 1;
        }
    }
    for &v in moves.iter().skip(best_len).rev() {
        side[v] = 1 - side[v];
    }
    best_total
}

fn cut_weight(csr: &Csr, side: &[u8]) -> u64 {
    csr.edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .map(|(_, _, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    fn two_cliques() -> Csr {
        Csr::from_edges(
            8,
            &[
                (0, 1, 5),
                (0, 2, 5),
                (0, 3, 5),
                (1, 2, 5),
                (1, 3, 5),
                (2, 3, 5),
                (4, 5, 5),
                (4, 6, 5),
                (4, 7, 5),
                (5, 6, 5),
                (5, 7, 5),
                (6, 7, 5),
                (3, 4, 1),
            ],
        )
    }

    #[test]
    fn bisection_finds_bridge() {
        let csr = two_cliques();
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        let sizes = p.shard_sizes();
        assert_eq!(sizes, vec![4, 4]);
        let cut: u64 = csr
            .edges()
            .filter(|&(u, v, _)| p.shard_of(u as usize) != p.shard_of(v as usize))
            .map(|(_, _, w)| w)
            .sum();
        assert_eq!(cut, 1);
    }

    #[test]
    fn uneven_k_gets_proportional_targets() {
        // 30 unit vertices in a path, k = 3: each part ~10
        let edges: Vec<(u32, u32, u64)> = (0..29).map(|i| (i, i + 1, 1)).collect();
        let csr = Csr::from_edges(30, &edges);
        let p = recursive_bisection(
            &csr,
            ShardCount::new(3).unwrap(),
            &MultilevelConfig::default(),
            &mut rng(),
        );
        for &s in &p.shard_sizes() {
            assert!((7..=13).contains(&s), "sizes {:?}", p.shard_sizes());
        }
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // one huge vertex (weight 10) + ten unit vertices in a star
        let edges: Vec<(u32, u32, u64)> = (1..11).map(|i| (0, i, 1)).collect();
        let mut vwgt = vec![1u64; 11];
        vwgt[0] = 10;
        let csr = reweighted(&Csr::from_edges(11, &edges), vwgt);
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        let weights = p.shard_weights(csr.vertex_weights());
        // total 20, target 10 each: the big vertex should sit alone-ish
        assert!(weights.iter().all(|&w| w <= 13), "weights {weights:?}");
    }

    #[test]
    fn fm_refine_improves_bad_split() {
        let csr = two_cliques();
        let mut side = vec![0u8, 1, 0, 1, 0, 1, 0, 1];
        let mut fm = Fm::new(&csr);
        let gain = fm_refine(&csr, &mut side, 4, 1.1, 8, |side, hi| fm.pass(side, hi));
        assert!(gain > 0);
        assert_eq!(cut_weight(&csr, &side), 1);
    }

    /// The reference FM pass: each move scans every vertex for the best
    /// feasible one, `O(n)` per move.
    fn fm_pass_scan(csr: &Csr, side: &mut [u8], hi: [u64; 2]) -> i64 {
        let n = csr.node_count();
        let mut gain: Vec<i64> = (0..n)
            .map(|v| {
                let mut g = 0i64;
                for (u, w) in csr.neighbors(v) {
                    if side[u as usize] == side[v] {
                        g -= w as i64;
                    } else {
                        g += w as i64;
                    }
                }
                g
            })
            .collect();
        let mut weights = [0u64, 0];
        for v in 0..n {
            weights[side[v] as usize] += csr.vertex_weight(v);
        }
        let mut locked = vec![false; n];
        let mut moves: Vec<usize> = Vec::new();
        let mut gains: Vec<i64> = Vec::new();
        for _ in 0..n {
            let mut best: Option<(usize, i64)> = None;
            for v in 0..n {
                if locked[v] {
                    continue;
                }
                let to = 1 - side[v] as usize;
                if weights[to] + csr.vertex_weight(v) > hi[to] {
                    continue;
                }
                if best.is_none_or(|(_, g)| gain[v] > g) {
                    best = Some((v, gain[v]));
                }
            }
            let Some((v, g)) = best else { break };
            let from = side[v] as usize;
            let to = 1 - from;
            weights[from] -= csr.vertex_weight(v);
            weights[to] += csr.vertex_weight(v);
            side[v] = to as u8;
            locked[v] = true;
            moves.push(v);
            gains.push(g);
            for (u, w) in csr.neighbors(v) {
                let u = u as usize;
                if !locked[u] {
                    if side[u] == side[v] {
                        gain[u] -= 2 * w as i64;
                    } else {
                        gain[u] += 2 * w as i64;
                    }
                }
            }
        }
        commit_best_prefix(side, &moves, &gains)
    }

    /// `csr` with its vertex weights replaced by `vwgt`.
    fn reweighted(csr: &Csr, vwgt: Vec<u64>) -> Csr {
        let n = csr.node_count();
        let mut xadj = vec![0usize];
        for v in 0..n {
            xadj.push(xadj[v] + csr.degree(v));
        }
        let adjncy = (0..n).flat_map(|v| csr.neighbors(v).map(|(u, _)| u));
        let adjwgt = (0..n).flat_map(|v| csr.neighbors(v).map(|(_, w)| w));
        Csr::from_parts(xadj, adjncy.collect(), adjwgt.collect(), vwgt)
    }

    fn weighted_graph() -> impl Strategy<Value = Csr> {
        (2usize..80).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..20), 0..4 * n);
            let vwgt = proptest::collection::vec(1u64..=50, n);
            (edges, vwgt).prop_map(move |(edges, vwgt)| {
                let edges: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
                reweighted(&Csr::from_edges(n, &edges), vwgt)
            })
        })
    }

    // The tree-based pass makes the scan's moves exactly: same final sides,
    // same committed gain, with vertex weights up to 50 so the caps bind.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fm_matches_quadratic_scan(
            csr in weighted_graph(),
            sides in proptest::collection::vec(any::<bool>(), 80),
            target_pct in 10u64..=90,
        ) {
            let n = csr.node_count();
            let target0 = csr.total_vertex_weight() * target_pct / 100;
            let mut fm = Fm::new(&csr);
            for imbalance in [1.0, 1.05, 1.3] {
                let mut fast: Vec<u8> = sides[..n].iter().map(|&s| u8::from(s)).collect();
                let mut scan = fast.clone();
                let g_fast = fm_refine(&csr, &mut fast, target0, imbalance, 4, |s, hi| fm.pass(s, hi));
                let g_scan = fm_refine(&csr, &mut scan, target0, imbalance, 4, |s, hi| {
                    fm_pass_scan(&csr, s, hi)
                });
                prop_assert_eq!(&fast, &scan, "imbalance {}", imbalance);
                prop_assert_eq!(g_fast, g_scan, "imbalance {}", imbalance);
            }
        }
    }

    #[test]
    fn grow_reaches_target() {
        let csr = two_cliques();
        let side = grow(&csr, 4, &mut rng());
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!(w0 >= 4, "grew only {w0}");
    }

    #[test]
    fn handles_singleton() {
        let csr = Csr::from_edges(1, &[]);
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn disconnected_components_distribute() {
        let csr = Csr::from_edges(8, &[(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1)]);
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        let sizes = p.shard_sizes();
        assert!(sizes.iter().all(|&s| s == 4), "sizes {sizes:?}");
    }
}
