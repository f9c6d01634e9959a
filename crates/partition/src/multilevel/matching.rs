//! Vertex matchings for the coarsening phase.

use blockpart_graph::Csr;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// How to pick the matching collapsed at each coarsening step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchingScheme {
    /// Match each vertex with its heaviest unmatched neighbour (METIS's
    /// HEM): hides heavy edges inside coarse vertices so they can never be
    /// cut, which is what drives the partitioner's low dynamic edge-cut.
    /// Computed by deterministic handshake rounds — see
    /// [`match_vertices`].
    #[default]
    HeavyEdge,
    /// Match with a uniformly random unmatched neighbour (METIS's RM).
    /// Cheaper but quality-blind; kept for the ablation benchmarks.
    /// Consumes the RNG per visit.
    Random,
}

/// Computes a matching over `csr`.
///
/// Returns `mate` where `mate[v]` is the vertex `v` is matched with
/// (`mate[v] == v` for unmatched vertices). The relation is symmetric:
/// `mate[mate[v]] == v`. Matched pairs are either adjacent (edge
/// matching) or share a common neighbour (the two-hop phase that keeps
/// star-shaped blockchain graphs coarsening — see below).
///
/// [`MatchingScheme::HeavyEdge`] runs *handshake rounds*: every unmatched
/// vertex computes its preferred unmatched neighbour — heaviest edge,
/// ties to the smallest id — from the round's start state, then pairs
/// whose preferences are mutual are matched. Rounds stop at a fixed cap
/// or when one yields no mutual pair; whatever remains (preference
/// cycles, cap leftovers) is matched by a single greedy sweep in index
/// order using the same selection rule.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::multilevel::matching::{match_vertices, MatchingScheme};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let csr = Csr::from_edges(4, &[(0, 1, 9), (1, 2, 1), (2, 3, 9)]);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mate = match_vertices(&csr, MatchingScheme::HeavyEdge, &mut rng);
/// // heavy edges 0-1 and 2-3 always win over the light 1-2
/// assert_eq!(mate[0], 1);
/// assert_eq!(mate[2], 3);
/// ```
pub fn match_vertices(csr: &Csr, scheme: MatchingScheme, rng: &mut SmallRng) -> Vec<u32> {
    let n = csr.node_count();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];

    match scheme {
        MatchingScheme::HeavyEdge => {
            handshake_rounds(csr, &mut mate, &mut matched);
        }
        MatchingScheme::Random => {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.shuffle(rng);
            for &v in &order {
                let v = v as usize;
                if matched[v] {
                    continue;
                }
                let free: Vec<u32> = csr
                    .neighbors(v)
                    .filter(|&(u, _)| !matched[u as usize])
                    .map(|(u, _)| u)
                    .collect();
                if let Some(&u) = free.choose(rng) {
                    let u = u as usize;
                    mate[v] = u as u32;
                    mate[u] = v as u32;
                    matched[v] = true;
                    matched[u] = true;
                }
            }
        }
    }

    // Second phase: two-hop matching for star-shaped regions. Blockchain
    // graphs are dominated by hubs with thousands of degree-1 leaves; edge
    // matchings can only pair one leaf per hub per level, stalling the
    // coarsening. Pair up unmatched leaves that share a neighbour instead
    // (METIS applies the same trick to power-law graphs).
    for hub in 0..n {
        let mut pending: Option<usize> = None;
        for (u, _) in csr.neighbors(hub) {
            let u = u as usize;
            if matched[u] || csr.degree(u) > 2 {
                continue;
            }
            match pending.take() {
                None => pending = Some(u),
                Some(prev) => {
                    mate[prev] = u as u32;
                    mate[u] = prev as u32;
                    matched[prev] = true;
                    matched[u] = true;
                }
            }
        }
    }
    mate
}

/// Handshake rounds before falling back to one sequential greedy sweep.
/// Real graphs converge in a handful of rounds; the cap bounds
/// adversarial shapes (e.g. a path with monotone weights resolves one
/// pair per round) to O(rounds · E) instead of O(V · E).
const MAX_HANDSHAKE_ROUNDS: usize = 16;

/// Runs deterministic heavy-edge handshake rounds, then matches whatever
/// they left (preference cycles, round-cap leftovers) with a single
/// greedy sweep in index order.
fn handshake_rounds(csr: &Csr, mate: &mut [u32], matched: &mut [bool]) {
    let n = csr.node_count();
    let mut candidate = vec![u32::MAX; n];
    for _ in 0..MAX_HANDSHAKE_ROUNDS {
        compute_candidates(csr, matched, &mut candidate);
        let mut progress = false;
        for v in 0..n {
            if matched[v] || candidate[v] == u32::MAX {
                continue;
            }
            let u = candidate[v] as usize;
            // mutual preference; `v < u` so each pair matches once
            if !matched[u] && candidate[u] == v as u32 && v < u {
                mate[v] = u as u32;
                mate[u] = v as u32;
                matched[v] = true;
                matched[u] = true;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    // Greedy finish: one O(E) pass picking each remaining vertex's best
    // unmatched neighbour by the same (weight, smallest-id) rule.
    for v in 0..n {
        if matched[v] {
            continue;
        }
        let best = csr
            .neighbors(v)
            .filter(|&(u, _)| !matched[u as usize])
            .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)))
            .map(|(u, _)| u);
        if let Some(u) = best {
            let u = u as usize;
            mate[v] = u as u32;
            mate[u] = v as u32;
            matched[v] = true;
            matched[u] = true;
        }
    }
}

/// Fills `candidate[v]` with `v`'s heaviest unmatched neighbour (ties to
/// the smallest id), or `u32::MAX` when `v` is matched or isolated among
/// the unmatched. A pure function of `(csr, matched)`.
fn compute_candidates(csr: &Csr, matched: &[bool], candidate: &mut [u32]) {
    for (v, slot) in candidate.iter_mut().enumerate() {
        *slot = if matched[v] {
            u32::MAX
        } else {
            csr.neighbors(v)
                .filter(|&(u, _)| !matched[u as usize])
                .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)))
                .map_or(u32::MAX, |(u, _)| u)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn assert_valid_matching(csr: &Csr, mate: &[u32]) {
        for v in 0..csr.node_count() {
            let m = mate[v] as usize;
            assert_eq!(mate[m] as usize, v, "matching not symmetric at {v}");
            if m != v {
                let adjacent = csr.neighbors(v).any(|(u, _)| u as usize == m);
                let two_hop = csr
                    .neighbors(v)
                    .any(|(h, _)| csr.neighbors(h as usize).any(|(u, _)| u as usize == m));
                assert!(
                    adjacent || two_hop,
                    "matched vertices {v} and {m} share no neighbour"
                );
            }
        }
    }

    #[test]
    fn two_hop_phase_collapses_stars() {
        // a hub with 40 degree-1 leaves: edge matching alone pairs the hub
        // with one leaf, leaving 39 unmatched; the two-hop phase must pair
        // the rest so coarsening halves the graph.
        let edges: Vec<(u32, u32, u64)> = (1..41).map(|i| (0, i, 1)).collect();
        let csr = Csr::from_edges(41, &edges);
        let mate = match_vertices(&csr, MatchingScheme::HeavyEdge, &mut rng());
        assert_valid_matching(&csr, &mate);
        let unmatched = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v == m as usize)
            .count();
        assert!(unmatched <= 2, "star left {unmatched} unmatched vertices");
    }

    #[test]
    fn heavy_edge_prefers_heavy() {
        let csr = Csr::from_edges(4, &[(0, 1, 100), (1, 2, 1), (2, 3, 100)]);
        for seed in 0..10 {
            let mut r = SmallRng::seed_from_u64(seed);
            let mate = match_vertices(&csr, MatchingScheme::HeavyEdge, &mut r);
            assert_valid_matching(&csr, &mate);
            assert_eq!(mate[0], 1);
            assert_eq!(mate[2], 3);
        }
    }

    #[test]
    fn random_matching_is_valid() {
        let edges: Vec<(u32, u32, u64)> = (0..19).map(|i| (i, i + 1, 1)).collect();
        let csr = Csr::from_edges(20, &edges);
        let mate = match_vertices(&csr, MatchingScheme::Random, &mut rng());
        assert_valid_matching(&csr, &mate);
        // a path of 20 vertices always admits some matching
        let matched = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v != m as usize)
            .count();
        assert!(matched >= 2);
    }

    #[test]
    fn isolated_vertices_stay_unmatched() {
        let csr = Csr::from_edges(3, &[(0, 1, 1)]);
        let mate = match_vertices(&csr, MatchingScheme::HeavyEdge, &mut rng());
        assert_eq!(mate[2], 2);
        assert_valid_matching(&csr, &mate);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert!(match_vertices(&csr, MatchingScheme::HeavyEdge, &mut rng()).is_empty());
    }

    #[test]
    fn matching_halves_triangle() {
        // odd cycles leave exactly one vertex unmatched
        let csr = Csr::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let mate = match_vertices(&csr, MatchingScheme::HeavyEdge, &mut rng());
        assert_valid_matching(&csr, &mate);
        let unmatched = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v == m as usize)
            .count();
        assert_eq!(unmatched, 1);
    }
}
