//! The incremental pooled greedy rounds — one full kernel pass, then each
//! round re-prices only the realisations a pick touches — against the
//! algorithm they replace: a full `pooled_decrease_in` pass and a
//! `best_candidate` scan every round. Blockers, `estimated_spread` bits and
//! the round/sample counters must match exactly on every arena and at every
//! thread count.

use imin_core::pool::{pooled_advanced_greedy_in, pooled_decrease_in, pooled_greedy_replace_in};
use imin_core::snapshot::{map_snapshot, save_snapshot};
use imin_core::{ArenaKind, BlockerSelection, PoolWorkspace, SamplePool, SelectionStats};
use imin_diffusion::ProbabilityModel;
use imin_graph::{generators, DiGraph, VertexId};
use std::path::PathBuf;

fn wc_pa(n: usize, seed: u64) -> DiGraph {
    ProbabilityModel::WeightedCascade
        .apply(&generators::preferential_attachment(n, 3, true, 1.0, seed).unwrap())
        .unwrap()
}

/// Unique temp path per test; best-effort cleanup on drop.
struct TempSnap(PathBuf);

impl TempSnap {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-incremental-test-{}-{tag}.iminsnap",
            std::process::id()
        ));
        TempSnap(path)
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn selection(
    blockers: Vec<VertexId>,
    estimated_spread: Option<f64>,
    rounds: usize,
    samples_drawn: usize,
) -> BlockerSelection {
    let mut sel = BlockerSelection::new(blockers);
    sel.estimated_spread = estimated_spread;
    sel.stats = SelectionStats {
        rounds,
        samples_drawn,
        ..Default::default()
    };
    sel
}

/// Algorithm 3 as a full estimator pass per round.
fn reference_advanced(
    pool: &SamplePool,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
) -> BlockerSelection {
    let mut ws = PoolWorkspace::new();
    let mut blocked = vec![false; pool.num_vertices()];
    let (mut blockers, mut spread, mut rounds, mut samples) = (Vec::new(), None, 0, 0);
    for round in 0..budget {
        let est = pooled_decrease_in(pool, seeds, &blocked, 1, &mut ws).unwrap();
        samples += est.samples;
        let chosen = est.best_candidate(|v| {
            !seeds.contains(&v) && !blocked[v.index()] && !forbidden[v.index()]
        });
        let Some(chosen) = chosen else {
            spread = Some(est.average_reached);
            break;
        };
        spread = Some(est.average_reached - est.delta[chosen.index()]);
        blocked[chosen.index()] = true;
        blockers.push(chosen);
        rounds = round + 1;
    }
    selection(blockers, spread, rounds, samples)
}

/// Algorithm 4 as a full estimator pass per round.
fn reference_replace(
    pool: &SamplePool,
    graph: &DiGraph,
    seeds: &[VertexId],
    forbidden: &[bool],
    budget: usize,
) -> BlockerSelection {
    let mut ws = PoolWorkspace::new();
    let mut blocked = vec![false; pool.num_vertices()];
    let (mut blockers, mut spread, mut rounds, mut samples) = (Vec::new(), None, 0, 0);
    let eligible = |v: VertexId, blocked: &[bool]| {
        !seeds.contains(&v) && !blocked[v.index()] && !forbidden[v.index()]
    };
    let mut candidates: Vec<VertexId> = seeds
        .iter()
        .flat_map(|&s| {
            graph
                .out_neighbors(s)
                .iter()
                .map(|&t| VertexId::from_raw(t))
        })
        .filter(|&v| eligible(v, &blocked))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    for _ in 0..candidates.len().min(budget) {
        rounds += 1;
        let est = pooled_decrease_in(pool, seeds, &blocked, 1, &mut ws).unwrap();
        samples += est.samples;
        let chosen = est.best_candidate(|v| candidates.contains(&v) && eligible(v, &blocked));
        let Some(chosen) = chosen else { break };
        spread = Some(est.average_reached - est.delta[chosen.index()]);
        blocked[chosen.index()] = true;
        blockers.push(chosen);
        candidates.retain(|&v| v != chosen);
    }
    while blockers.len() < budget {
        rounds += 1;
        let est = pooled_decrease_in(pool, seeds, &blocked, 1, &mut ws).unwrap();
        samples += est.samples;
        let Some(chosen) = est.best_candidate(|v| eligible(v, &blocked)) else {
            break;
        };
        spread = Some(est.average_reached - est.delta[chosen.index()]);
        blocked[chosen.index()] = true;
        blockers.push(chosen);
    }
    for idx in (0..blockers.len()).rev() {
        let u = blockers[idx];
        blocked[u.index()] = false;
        rounds += 1;
        let est = pooled_decrease_in(pool, seeds, &blocked, 1, &mut ws).unwrap();
        samples += est.samples;
        let Some(chosen) = est.best_candidate(|v| eligible(v, &blocked)) else {
            blocked[u.index()] = true;
            break;
        };
        spread = Some(est.average_reached - est.delta[chosen.index()]);
        blocked[chosen.index()] = true;
        blockers[idx] = chosen;
        if chosen == u {
            break;
        }
    }
    selection(blockers, spread, rounds, samples)
}

fn assert_same(got: &BlockerSelection, want: &BlockerSelection, ctx: &str) {
    assert_eq!(got.blockers, want.blockers, "{ctx}: blockers");
    assert_eq!(
        got.estimated_spread.map(f64::to_bits),
        want.estimated_spread.map(f64::to_bits),
        "{ctx}: estimated_spread bits"
    );
    assert_eq!(got.stats.rounds, want.stats.rounds, "{ctx}: rounds");
    assert_eq!(
        got.stats.samples_drawn, want.stats.samples_drawn,
        "{ctx}: samples_drawn"
    );
    assert!(
        got.stats.samples_repriced <= 2 * got.stats.samples_drawn,
        "{ctx}: repriced {} > 2 × consulted {}",
        got.stats.samples_repriced,
        got.stats.samples_drawn
    );
}

/// The two highest-out-degree vertices, and the next two.
fn hub_pairs(graph: &DiGraph) -> [[VertexId; 2]; 2] {
    let mut by_degree: Vec<VertexId> = graph.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
    let pair = |i: usize| {
        let mut pair = [by_degree[i], by_degree[i + 1]];
        pair.sort_unstable();
        pair
    };
    [pair(0), pair(2)]
}

/// The raw pool `(graph, θ, 23)` and its compressed, mapped-raw and
/// mapped-compressed twins. The snapshot files live as long as the guards.
fn every_arena(graph: &DiGraph, theta: usize) -> (Vec<(String, SamplePool)>, [TempSnap; 2]) {
    let raw = SamplePool::build_with_threads(graph, theta, 23, 2).unwrap();
    let compressed = raw.compress(graph, 2).unwrap();
    let snaps = [
        TempSnap::new(&format!("raw-{theta}")),
        TempSnap::new(&format!("compressed-{theta}")),
    ];
    save_snapshot(&snaps[0].0, graph, &raw, "pa/wc").unwrap();
    save_snapshot(&snaps[1].0, graph, &compressed, "pa/wc").unwrap();
    let mapped_raw = map_snapshot(&snaps[0].0).unwrap().pool;
    let mapped_compressed = map_snapshot(&snaps[1].0).unwrap().pool;
    assert_eq!(mapped_raw.arena_kind(), ArenaKind::MappedRaw);
    assert_eq!(mapped_compressed.arena_kind(), ArenaKind::MappedCompressed);
    let pools = vec![
        ("raw".to_string(), raw),
        ("compressed".to_string(), compressed),
        ("mapped-raw".to_string(), mapped_raw),
        ("mapped-compressed".to_string(), mapped_compressed),
    ];
    (pools, snaps)
}

#[test]
fn incremental_rounds_match_full_passes_on_every_arena_and_thread_count() {
    let graph = wc_pa(300, 17);
    let n = graph.num_vertices();
    let mut ws = PoolWorkspace::new();
    let mut fell_back = false;
    let mut terminated_early = false;
    // θ = 120 for ordinary budgets; θ = 6 reaches few enough vertices for
    // a budget above their number.
    for theta in [120usize, 6] {
        let (pools, _snaps) = every_arena(&graph, theta);
        let raw = &pools[0].1;
        for seeds in hub_pairs(&graph) {
            let mut forbidden = vec![false; n];
            for v in (1..n).step_by(5) {
                forbidden[v] = !seeds.contains(&VertexId::new(v));
            }
            // Only vertices some realisation reaches can hold credit; a
            // budget above their number forces rounds where every eligible
            // credit is 0 and the pick falls back to the smallest eligible
            // id.
            let first = pooled_decrease_in(raw, &seeds, &vec![false; n], 1, &mut ws).unwrap();
            let credited = first.delta.iter().filter(|&&d| d > 0.0).count();
            let budgets = if theta == 6 {
                vec![credited + 3]
            } else {
                vec![4, 8]
            };
            for budget in budgets {
                let ag_ref = reference_advanced(raw, &seeds, &forbidden, budget);
                let gr_ref = reference_replace(raw, &graph, &seeds, &forbidden, budget);
                fell_back |= ag_ref.blockers.len() > credited;
                terminated_early |= gr_ref.stats.rounds < 2 * gr_ref.blockers.len();
                for (tag, pool) in &pools {
                    for threads in [1usize, 2, 8] {
                        let ctx = format!(
                            "{tag} θ={theta} seeds={seeds:?} budget={budget} threads={threads}"
                        );
                        let ag = pooled_advanced_greedy_in(
                            pool, &seeds, &forbidden, budget, threads, &mut ws,
                        )
                        .unwrap();
                        assert_same(&ag, &ag_ref, &format!("AG {ctx}"));
                        let gr = pooled_greedy_replace_in(
                            pool, &graph, &seeds, &forbidden, budget, threads, &mut ws,
                        )
                        .unwrap();
                        assert_same(&gr, &gr_ref, &format!("GR {ctx}"));
                    }
                }
            }
        }
    }
    assert!(fell_back, "no case exercised the zero-credit fallback");
    assert!(terminated_early, "no GreedyReplace case terminated early");
}

#[test]
fn incremental_rounds_reprice_a_fraction_of_the_pool() {
    let graph = wc_pa(2_000, 5);
    let pool = SamplePool::build_with_threads(&graph, 200, 3, 2).unwrap();
    let seeds = hub_pairs(&graph)[0];
    let forbidden = vec![false; graph.num_vertices()];
    let mut ws = PoolWorkspace::new();
    let sel = pooled_advanced_greedy_in(&pool, &seeds, &forbidden, 8, 1, &mut ws).unwrap();
    assert_eq!(sel.stats.samples_drawn, 8 * 200);
    // One full pass plus two evaluations per touched realisation: well
    // under the eight full passes of the per-round estimator.
    assert!(sel.stats.samples_repriced >= 200);
    assert!(
        sel.stats.samples_repriced < sel.stats.samples_drawn,
        "repriced {} of {} consulted",
        sel.stats.samples_repriced,
        sel.stats.samples_drawn
    );
}

#[test]
fn a_reused_workspace_follows_the_graph_size() {
    let mut ws = PoolWorkspace::new();
    for (n, seed) in [(400usize, 3u64), (60, 4), (250, 5)] {
        let graph = wc_pa(n, seed);
        let pool = SamplePool::build_with_threads(&graph, 50, seed, 1).unwrap();
        let seeds = hub_pairs(&graph)[0];
        let forbidden = vec![false; n];
        let want = reference_advanced(&pool, &seeds, &forbidden, 5);
        let got = pooled_advanced_greedy_in(&pool, &seeds, &forbidden, 5, 2, &mut ws).unwrap();
        assert_same(&got, &want, &format!("AG n={n}"));
        let want = reference_replace(&pool, &graph, &seeds, &forbidden, 5);
        let got =
            pooled_greedy_replace_in(&pool, &graph, &seeds, &forbidden, 5, 2, &mut ws).unwrap();
        assert_same(&got, &want, &format!("GR n={n}"));
    }
}
