//! Intervention families — what a containment request removes from the
//! cascade — and the greedy drivers for the two beyond vertex blocking.
//!
//! [`Intervention`] is the request-level selector threaded through
//! [`crate::ContainmentRequest`]: the paper's vertex blocking, edge
//! blocking (Zehmakan & Maurya, arXiv 2308.08860) or prebunking (Furutani
//! et al., arXiv 2508.01124). Each family is a *cut*, which drops stored
//! live edges of a realisation, plus a *credit* rule, which prices
//! candidates from the dominator subtree sizes `size(v)` of the cascade
//! re-rooted at the seeds:
//!
//! | family  | the cut drops live edge `(u, t)` when …    | credit                               |
//! |---------|--------------------------------------------|--------------------------------------|
//! | vertex  | `t` is blocked                             | `size(t)` per vertex `t`             |
//! | prebunk | `t` is prebunked and its `α`-coin rejects  | `size(t)` per vertex `t`             |
//! | edge    | `(u, t)` is deleted                        | `size(t)` per sole live in-edge `(u, t)` |
//!
//! Deleting `t`'s only live in-edge detaches exactly the vertices `t`
//! dominates, so the edge credit is exact per realisation. A prebunked
//! vertex keeps transmitting but accepts each activation only with
//! probability `α`; its coin is a deterministic hash of the pool seed, the
//! realisation index and the edge, so `α = 1.0` keeps every edge
//! (byte-identical to no intervention) and `α = 0.0` is vertex blocking.
//!
//! The greedy drivers [`pooled_edge_greedy_in`] and
//! [`pooled_prebunk_greedy_in`] price every round with the one
//! re-rooted-cascade kernel of [`crate::pool`], like the vertex greedy
//! loops: the same integer accumulation, the same bit-identical answers at
//! any thread count, and the same phase attribution.

use crate::decrease::DecreaseEstimate;
use crate::pool::{
    check_mask_len, timed_select, validate_pooled_query, with_pool_workspace, Credit, Cut,
    PoolWorkspace, SamplePool,
};
use crate::request::{ContainmentRequest, EvalBackend};
use crate::types::{BlockerSelection, SelectionStats};
use crate::{IminError, Result};
use imin_graph::VertexId;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// What a containment request removes from the cascade: the paper's vertex
/// blocking (the default), edge blocking, or probabilistic prebunking.
///
/// The wire syntax accepted by [`FromStr`] (and printed by `Display`) is
/// the protocol's `intervene=` parameter: `vertex`, `edge`, or
/// `prebunk:<alpha>` with `alpha ∈ [0, 1]`.
///
/// ```
/// use imin_core::Intervention;
///
/// assert_eq!("vertex".parse::<Intervention>().unwrap(), Intervention::BlockVertices);
/// assert_eq!("edge".parse::<Intervention>().unwrap(), Intervention::BlockEdges);
/// assert_eq!(
///     "prebunk:0.25".parse::<Intervention>().unwrap(),
///     Intervention::Prebunk { alpha: 0.25 },
/// );
/// assert!("prebunk:1.5".parse::<Intervention>().is_err());
/// assert_eq!(Intervention::Prebunk { alpha: 0.25 }.to_string(), "prebunk:0.25");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Intervention {
    /// Remove up to `budget` vertices — today's behaviour, byte-identical
    /// to requests that never mention an intervention.
    #[default]
    BlockVertices,
    /// Remove up to `budget` edges: each removal is a targeted live-edge
    /// deletion in every pooled realisation.
    BlockEdges,
    /// Prebunk up to `budget` vertices: each keeps transmitting but accepts
    /// incoming activations only with probability `alpha`.
    Prebunk {
        /// Acceptance probability of a prebunked vertex, in `[0, 1]`.
        /// `alpha = 0.0` is equivalent to vertex blocking; `alpha = 1.0`
        /// is a no-op.
        alpha: f64,
    },
}

impl Intervention {
    /// Short family label used in error payloads and metrics:
    /// `"vertex"`, `"edge"` or `"prebunk"` (without the `α`).
    pub fn family(self) -> &'static str {
        match self {
            Intervention::BlockVertices => "vertex",
            Intervention::BlockEdges => "edge",
            Intervention::Prebunk { .. } => "prebunk",
        }
    }

    /// Validates the parameters of the family (today: `alpha ∈ [0, 1]` and
    /// finite for [`Intervention::Prebunk`]).
    ///
    /// # Errors
    /// Returns [`IminError::InvalidIntervention`] on an out-of-range or
    /// non-finite `alpha`.
    pub fn validate(self) -> Result<()> {
        if let Intervention::Prebunk { alpha } = self {
            if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
                return Err(IminError::InvalidIntervention {
                    spec: self.to_string(),
                    reason: "alpha must be a finite probability in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Intervention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intervention::BlockVertices => f.write_str("vertex"),
            Intervention::BlockEdges => f.write_str("edge"),
            Intervention::Prebunk { alpha } => write!(f, "prebunk:{alpha}"),
        }
    }
}

impl FromStr for Intervention {
    type Err = IminError;

    fn from_str(s: &str) -> Result<Self> {
        let lower = s.trim().to_ascii_lowercase();
        let parsed = match lower.as_str() {
            "vertex" | "vertices" => Intervention::BlockVertices,
            "edge" | "edges" => Intervention::BlockEdges,
            _ => match lower.strip_prefix("prebunk:") {
                Some(alpha) => {
                    let alpha: f64 = alpha.parse().map_err(|_| IminError::InvalidIntervention {
                        spec: s.trim().to_string(),
                        reason: "alpha is not a number",
                    })?;
                    Intervention::Prebunk { alpha }
                }
                None => {
                    return Err(IminError::InvalidIntervention {
                        spec: s.trim().to_string(),
                        reason: "unknown intervention family",
                    })
                }
            },
        };
        parsed.validate()?;
        Ok(parsed)
    }
}

/// `α` scaled to the pool's 2⁵³ integer coin range: an edge into a
/// prebunked vertex survives iff `prebunk_coin(..) >> 11 < threshold`.
/// `α = 1.0` maps to 2⁵³ itself, which every 53-bit draw is strictly below
/// — so full acceptance keeps every edge *exactly* (no boundary case).
fn alpha_threshold(alpha: f64) -> u64 {
    if alpha >= 1.0 {
        1u64 << 53
    } else {
        (alpha * (1u64 << 53) as f64) as u64
    }
}

/// Deterministic per-(sample, edge) coin for prebunk thinning: a
/// splitmix64-style finalizer over the pool seed, the realisation index and
/// the edge endpoints. Pure function of its inputs, so estimates are
/// byte-identical at any thread count and across repeated evaluations.
#[inline]
fn prebunk_coin(pool_seed: u64, sample_idx: u64, src: u32, dst: u32) -> u64 {
    let mut x = pool_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(sample_idx.wrapping_add(1)))
        ^ (((src as u64) << 32) | dst as u64);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The prebunk cut: a stored live edge into a prebunked vertex survives
/// only when its `α`-coin comes up accept.
struct PrebunkCut<'a> {
    prebunked: &'a [bool],
    keep_threshold: u64,
    pool_seed: u64,
}

impl<'a> PrebunkCut<'a> {
    fn new(pool: &SamplePool, prebunked: &'a [bool], alpha: f64) -> Self {
        PrebunkCut {
            prebunked,
            keep_threshold: alpha_threshold(alpha),
            pool_seed: pool.pool_seed(),
        }
    }
}

impl Cut for PrebunkCut<'_> {
    const CREDIT: Credit = Credit::Vertex;

    #[inline]
    fn keeps(&self, sample: usize, u: u32, t: u32) -> bool {
        !self.prebunked[t as usize]
            || (prebunk_coin(self.pool_seed, sample as u64, u, t) >> 11) < self.keep_threshold
    }
}

/// The edge cut: deleted edges are dropped from every realisation.
/// `deleted_src` marks their sources, so the common case costs one mask
/// load.
struct EdgeCut<'a> {
    deleted: &'a [(u32, u32)],
    deleted_src: &'a [bool],
}

impl Cut for EdgeCut<'_> {
    const CREDIT: Credit = Credit::SoleInEdge;

    #[inline]
    fn keeps(&self, _sample: usize, u: u32, t: u32) -> bool {
        !self.deleted_src[u as usize] || !self.deleted.contains(&(u, t))
    }
}

/// Algorithm 2 generalised to prebunking: estimates the spread decrease of
/// every candidate vertex when the vertices of `prebunked` accept incoming
/// activations only with probability `alpha`, by re-rooting the θ stored
/// realisations through the deterministic thinning coins.
///
/// With `alpha = 1.0` the coin keeps every edge, so the returned estimate
/// is byte-identical to [`crate::pool::pooled_decrease`] with nothing
/// blocked — the property test pins this.
///
/// # Errors
/// Returns an error on an empty/out-of-range seed set, a wrong-length
/// `prebunked` mask, or an invalid `alpha`.
pub fn pooled_prebunk_decrease(
    pool: &SamplePool,
    seeds: &[VertexId],
    prebunked: &[bool],
    alpha: f64,
    threads: usize,
) -> Result<DecreaseEstimate> {
    check_mask_len(pool, prebunked)?;
    Intervention::Prebunk { alpha }.validate()?;
    let mut workspace = PoolWorkspace::new();
    workspace.stage_seeds(pool.num_vertices(), seeds, None)?;
    let cut = PrebunkCut::new(pool, prebunked, alpha);
    Ok(workspace.decrease_estimate(pool, &cut, threads))
}

/// Deterministic argmax of the merged edge credit, whatever the map's
/// iteration order: largest credit first, ties towards the
/// lexicographically smallest edge; `None` when no edge has positive
/// credit. With `seed_first`, only edges leaving the seed set compete
/// while any of them has positive credit.
fn best_edge(
    credit: &HashMap<(u32, u32), u64>,
    is_seed: &[bool],
    seed_first: bool,
) -> Option<((u32, u32), u64)> {
    let seed_edges_only = seed_first && credit.iter().any(|(e, &d)| is_seed[e.0 as usize] && d > 0);
    let mut best: Option<((u32, u32), u64)> = None;
    for (&edge, &delta) in credit {
        if seed_edges_only && !is_seed[edge.0 as usize] {
            continue;
        }
        let better = match best {
            None => delta > 0,
            Some((b_edge, b_delta)) => delta > b_delta || (delta == b_delta && edge < b_edge),
        };
        if better {
            best = Some((edge, delta));
        }
    }
    best
}

/// Greedy edge blocking against a borrowed resident pool: every round
/// prices all live edges by the sole-in-edge dominator credit, deletes the
/// best one from every realisation, and re-evaluates — so the reported
/// `estimated_spread` is exact with respect to the pool, not an
/// accumulation of stale estimates.
///
/// With `seed_first` set (the GreedyReplace-flavoured variant), rounds
/// prefer edges leaving the seed set while any such edge still has positive
/// credit, mirroring Algorithm 4's out-neighbour phase.
///
/// The selection stops early when no remaining edge has positive credit
/// (deleting any edge would change nothing), so fewer than `budget` edges
/// may be returned.
///
/// Runs on this thread's [`with_pool_workspace`] scratch, so it must not
/// be called from inside that function's closure.
///
/// # Errors
/// Returns an error on a zero budget or an empty/out-of-range seed set.
pub fn pooled_edge_greedy_in(
    pool: &SamplePool,
    seeds: &[VertexId],
    budget: usize,
    threads: usize,
    seed_first: bool,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    if budget == 0 {
        return Err(IminError::ZeroBudget);
    }
    let n = pool.num_vertices();
    let theta = pool.theta();
    let mut deleted: Vec<(u32, u32)> = Vec::with_capacity(budget);
    let mut deleted_src = vec![false; n];
    let mut stats = SelectionStats::default();
    let mut estimated_spread = None;
    with_pool_workspace(|workspace| -> Result<()> {
        workspace.stage_seeds(n, seeds, None)?;
        for round in 0..budget {
            let cut = EdgeCut {
                deleted: &deleted,
                deleted_src: &deleted_src,
            };
            let (reached_total, best) =
                workspace.run(pool, &cut, threads, imin_obs::Phase::Select, |sums| {
                    (
                        sums.reached,
                        best_edge(sums.edges, sums.is_seed, seed_first),
                    )
                });
            stats.samples_drawn += theta;
            stats.samples_repriced += theta;
            let average_reached = reached_total as f64 / theta as f64;
            let Some(((src, dst), delta)) = best else {
                estimated_spread = Some(average_reached);
                break;
            };
            estimated_spread = Some(average_reached - delta as f64 / theta as f64);
            deleted.push((src, dst));
            deleted_src[src as usize] = true;
            stats.rounds = round + 1;
        }
        Ok(())
    })?;
    stats.elapsed = start.elapsed();
    Ok(BlockerSelection {
        blockers: Vec::new(),
        blocked_edges: deleted
            .into_iter()
            .map(|(src, dst)| (VertexId::from_raw(src), VertexId::from_raw(dst)))
            .collect(),
        estimated_spread,
        stats,
    })
}

/// Greedy prebunking against a borrowed resident pool: every round prices
/// candidates like [`pooled_prebunk_decrease`] under the prebunk set chosen
/// so far, adds the best one, and finishes with one full evaluation pass so
/// `estimated_spread` reflects the complete intervention (the per-round
/// vertex credits are blocking credits — an upper bound on the prebunk
/// gain whenever `alpha > 0` — so the final pass keeps the report honest).
///
/// With `replace` set (the GreedyReplace-flavoured variant), a reverse
/// replacement sweep revisits each chosen vertex, mirroring Algorithm 4's
/// phase 2 with the same early-termination rule.
///
/// Runs on this thread's [`with_pool_workspace`] scratch, so it must not
/// be called from inside that function's closure.
///
/// # Errors
/// Returns an error on a zero budget, an empty/out-of-range seed set, a
/// wrong-length forbidden mask, or an invalid `alpha`.
pub fn pooled_prebunk_greedy_in(
    pool: &SamplePool,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
    alpha: f64,
    threads: usize,
    replace: bool,
) -> Result<BlockerSelection> {
    let start = Instant::now();
    validate_pooled_query(pool, forbidden, budget)?;
    Intervention::Prebunk { alpha }.validate()?;
    let n = pool.num_vertices();
    let timed = imin_obs::span::active();
    let mut prebunked = vec![false; n];
    let mut chosen_order: Vec<VertexId> = Vec::with_capacity(budget);
    let mut stats = SelectionStats::default();
    let final_estimate = with_pool_workspace(|workspace| -> Result<DecreaseEstimate> {
        workspace.stage_seeds(n, seeds, None)?;
        let estimate = |workspace: &mut PoolWorkspace, prebunked: &[bool]| {
            workspace.decrease_estimate(pool, &PrebunkCut::new(pool, prebunked, alpha), threads)
        };
        for round in 0..budget {
            let current = estimate(workspace, &prebunked);
            stats.samples_drawn += current.samples;
            stats.samples_repriced += current.samples;
            let chosen = timed_select(timed, || {
                current.best_candidate(|v| {
                    !workspace.is_seed(v) && !prebunked[v.index()] && !forbidden[v.index()]
                })
            });
            let Some(chosen) = chosen else { break };
            prebunked[chosen.index()] = true;
            chosen_order.push(chosen);
            stats.rounds = round + 1;
        }
        if replace {
            for idx in (0..chosen_order.len()).rev() {
                let u = chosen_order[idx];
                prebunked[u.index()] = false;
                stats.rounds += 1;
                let current = estimate(workspace, &prebunked);
                stats.samples_drawn += current.samples;
                stats.samples_repriced += current.samples;
                let chosen = timed_select(timed, || {
                    current.best_candidate(|v| {
                        !workspace.is_seed(v) && !prebunked[v.index()] && !forbidden[v.index()]
                    })
                });
                let Some(chosen) = chosen else {
                    prebunked[u.index()] = true;
                    break;
                };
                prebunked[chosen.index()] = true;
                chosen_order[idx] = chosen;
                if chosen == u {
                    break;
                }
            }
        }
        // One final pass with the complete prebunk set applied: the honest
        // expected spread under the intervention, exact w.r.t. the pool+coins.
        Ok(estimate(workspace, &prebunked))
    })?;
    stats.samples_drawn += final_estimate.samples;
    stats.samples_repriced += final_estimate.samples;
    stats.elapsed = start.elapsed();
    Ok(BlockerSelection {
        blockers: chosen_order,
        blocked_edges: Vec::new(),
        estimated_spread: Some(final_estimate.average_reached),
        stats,
    })
}

/// Guard for vertex-only solvers: passes vertex-blocking requests through
/// and rejects the sibling families with the typed unsupported error.
pub(crate) fn require_vertex(
    intervention: Intervention,
    algorithm: &'static str,
    backend: &'static str,
) -> Result<()> {
    match intervention {
        Intervention::BlockVertices => Ok(()),
        other => Err(IminError::InterventionUnsupported {
            algorithm,
            backend,
            intervention: other.family(),
        }),
    }
}

/// Shared non-vertex dispatch for the pooled greedy family
/// (AdvancedGreedy and GreedyReplace): routes edge-blocking and prebunking
/// requests to the pooled selectors above, and rejects every other backend
/// with the typed unsupported error — the fresh and sketch backends answer
/// vertex requests only.
///
/// `replace_flavour` selects the GreedyReplace-shaped variants
/// (`seed_first` edge rounds, prebunk replacement sweep).
///
/// The request's forbidden set is a vertex-level constraint and is ignored
/// by edge blocking: an edge may be cut even when one of its endpoints is
/// protected from *vertex* removal.
pub(crate) fn solve_pooled_intervention(
    algorithm: &'static str,
    request: &ContainmentRequest<'_>,
    replace_flavour: bool,
) -> Result<BlockerSelection> {
    match *request.backend() {
        EvalBackend::Pooled { pool, threads } => match request.intervention() {
            Intervention::BlockEdges => pooled_edge_greedy_in(
                pool,
                request.seeds(),
                request.budget(),
                threads,
                replace_flavour,
            ),
            Intervention::Prebunk { alpha } => pooled_prebunk_greedy_in(
                pool,
                request.seeds(),
                request.forbidden().mask(),
                request.budget(),
                alpha,
                threads,
                replace_flavour,
            ),
            Intervention::BlockVertices => {
                unreachable!("vertex requests take the solver's own path")
            }
        },
        ref other => Err(IminError::InterventionUnsupported {
            algorithm,
            backend: other.label(),
            intervention: request.intervention().family(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pooled_decrease;
    use imin_graph::{generators, DiGraph};

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// 0 -> 1 -> {2, 3}, plus a shortcut 0 -> 3, all probability 1.
    fn diamond() -> DiGraph {
        DiGraph::from_edges(
            4,
            vec![
                (vid(0), vid(1), 1.0),
                (vid(1), vid(2), 1.0),
                (vid(1), vid(3), 1.0),
                (vid(0), vid(3), 1.0),
            ],
        )
        .unwrap()
    }

    fn wc_pa(n: usize, seed: u64) -> DiGraph {
        imin_diffusion::ProbabilityModel::WeightedCascade
            .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
            .unwrap()
    }

    #[test]
    fn intervention_parses_and_round_trips() {
        for (spec, expected) in [
            ("vertex", Intervention::BlockVertices),
            ("VERTEX", Intervention::BlockVertices),
            ("edges", Intervention::BlockEdges),
            ("prebunk:0.5", Intervention::Prebunk { alpha: 0.5 }),
            ("prebunk:1", Intervention::Prebunk { alpha: 1.0 }),
            ("prebunk:0", Intervention::Prebunk { alpha: 0.0 }),
        ] {
            assert_eq!(spec.parse::<Intervention>().unwrap(), expected, "{spec}");
        }
        for bad in [
            "",
            "prebunk",
            "prebunk:",
            "prebunk:x",
            "prebunk:-0.1",
            "prebunk:1.5",
            "prebunk:nan",
            "prebunk:inf",
            "edgy",
            "vertex:0.5",
        ] {
            assert!(
                matches!(
                    bad.parse::<Intervention>(),
                    Err(IminError::InvalidIntervention { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
        let display = Intervention::Prebunk { alpha: 0.125 }.to_string();
        assert_eq!(
            display.parse::<Intervention>().unwrap().to_string(),
            display
        );
    }

    #[test]
    fn edge_greedy_cuts_the_sole_feeder_edge() {
        let g = diamond();
        let pool = SamplePool::build(&g, 8, 3).unwrap();
        // Deleting (1, 2) detaches only 2; (0, 1) detaches 1 and 2 (3 stays
        // reachable via the shortcut). The greedy must take (0, 1) first.
        let sel = pooled_edge_greedy_in(&pool, &[vid(0)], 1, 1, false).unwrap();
        assert_eq!(sel.blocked_edges, vec![(vid(0), vid(1))]);
        assert!(sel.blockers.is_empty());
        // Spread 4.0 before (the seed counts); 2.0 after — seed plus vertex
        // 3, which stays reachable through the shortcut.
        assert_eq!(sel.estimated_spread, Some(2.0));
        // A larger budget keeps cutting until no edge helps any more (the
        // seed's own activation cannot be cut, so spread bottoms out at 1).
        let all = pooled_edge_greedy_in(&pool, &[vid(0)], 4, 1, false).unwrap();
        assert_eq!(all.blocked_edges, vec![(vid(0), vid(1)), (vid(0), vid(3))]);
        assert_eq!(all.estimated_spread, Some(1.0));
    }

    #[test]
    fn edge_greedy_is_thread_count_invariant() {
        let g = wc_pa(300, 11);
        let pool = SamplePool::build(&g, 64, 9).unwrap();
        for seed_first in [false, true] {
            let one = pooled_edge_greedy_in(&pool, &[vid(0), vid(5)], 4, 1, seed_first).unwrap();
            let four = pooled_edge_greedy_in(&pool, &[vid(0), vid(5)], 4, 4, seed_first).unwrap();
            assert_eq!(
                one.blocked_edges, four.blocked_edges,
                "seed_first={seed_first}"
            );
            assert_eq!(one.estimated_spread, four.estimated_spread);
        }
    }

    #[test]
    fn prebunk_alpha_one_is_byte_identical_to_no_intervention() {
        let g = wc_pa(400, 7);
        let pool = SamplePool::build(&g, 128, 21).unwrap();
        let none = vec![false; g.num_vertices()];
        let baseline = pooled_decrease(&pool, &[vid(0), vid(3)], &none, 1).unwrap();
        // Prebunk the whole graph at alpha = 1.0: the coin keeps every
        // edge, so the estimate is byte-identical to no intervention.
        let everyone = vec![true; g.num_vertices()];
        for threads in [1, 4] {
            let thinned =
                pooled_prebunk_decrease(&pool, &[vid(0), vid(3)], &everyone, 1.0, threads).unwrap();
            assert_eq!(
                thinned.average_reached.to_bits(),
                baseline.average_reached.to_bits()
            );
            assert_eq!(thinned.delta.len(), baseline.delta.len());
            for (a, b) in thinned.delta.iter().zip(&baseline.delta) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn prebunk_alpha_zero_matches_vertex_blocking_estimates() {
        let g = wc_pa(300, 5);
        let pool = SamplePool::build(&g, 64, 13).unwrap();
        // alpha = 0 never keeps an edge into the treated vertex — exactly a
        // vertex block as far as reachability is concerned.
        let mut mask = vec![false; g.num_vertices()];
        mask[7] = true;
        mask[11] = true;
        let prebunk = pooled_prebunk_decrease(&pool, &[vid(0)], &mask, 0.0, 1).unwrap();
        let blocked = pooled_decrease(&pool, &[vid(0)], &mask, 1).unwrap();
        assert_eq!(
            prebunk.average_reached.to_bits(),
            blocked.average_reached.to_bits()
        );
    }

    #[test]
    fn prebunk_greedy_respects_constraints_and_reports_honest_spread() {
        let g = wc_pa(300, 17);
        let pool = SamplePool::build(&g, 64, 29).unwrap();
        let mut forbidden = vec![false; g.num_vertices()];
        forbidden[2] = true;
        let baseline = pooled_decrease(&pool, &[vid(0)], &vec![false; g.num_vertices()], 1)
            .unwrap()
            .average_reached;
        let sel = pooled_prebunk_greedy_in(&pool, &[vid(0)], &forbidden, 3, 0.3, 1, false).unwrap();
        assert_eq!(sel.blockers.len(), 3);
        assert!(!sel.blockers.contains(&vid(0)), "never the seed");
        assert!(!sel.blockers.contains(&vid(2)), "never a forbidden vertex");
        let spread = sel.estimated_spread.unwrap();
        assert!(
            spread <= baseline,
            "prebunking must not increase the expected spread ({spread} > {baseline})"
        );
        // Thread-count invariance carries over to the full greedy.
        let four =
            pooled_prebunk_greedy_in(&pool, &[vid(0)], &forbidden, 3, 0.3, 4, false).unwrap();
        assert_eq!(four.blockers, sel.blockers);
        assert_eq!(four.estimated_spread, sel.estimated_spread);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = diamond();
        let pool = SamplePool::build(&g, 4, 1).unwrap();
        assert!(matches!(
            pooled_edge_greedy_in(&pool, &[vid(0)], 0, 1, false),
            Err(IminError::ZeroBudget)
        ));
        assert!(matches!(
            pooled_edge_greedy_in(&pool, &[], 1, 1, false),
            Err(IminError::EmptySeedSet)
        ));
        assert!(matches!(
            pooled_edge_greedy_in(&pool, &[vid(9)], 1, 1, false),
            Err(IminError::SeedOutOfRange { .. })
        ));
        assert!(matches!(
            pooled_prebunk_greedy_in(&pool, &[vid(0)], &[false; 4], 1, 1.5, 1, false),
            Err(IminError::InvalidIntervention { .. })
        ));
        assert!(matches!(
            pooled_prebunk_decrease(&pool, &[vid(0)], &[false; 3], 0.5, 1),
            Err(IminError::Diffusion(_))
        ));
    }
}
