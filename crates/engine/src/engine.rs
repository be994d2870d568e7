//! The engine's value types — queries, answers and pool facts — and the
//! one resident dispatch, `run_resident`, that every computed answer of
//! [`crate::SharedEngine`] goes through.

use crate::Result;
use imin_core::{
    AlgorithmKind, ArenaKind, ContainmentRequest, EvalBackend, Intervention, SamplePool, SketchPool,
};
use imin_graph::{DiGraph, VertexId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The algorithm selector of a [`Query`] — the crate-wide
/// [`imin_core::AlgorithmKind`] registry. Any registered algorithm may be
/// asked for; algorithms whose solver cannot run against a resident pool
/// (BaselineGreedy, Exact) answer with a typed
/// [`imin_core::IminError::BackendUnsupported`] error.
pub type QueryAlgorithm = AlgorithmKind;

/// One containment question: how should a budget of `budget` interventions
/// be spent to minimise the spread from `seeds`? The default
/// [`Intervention::BlockVertices`] asks the paper's question — which
/// vertices to block; `intervene=edge`/`intervene=prebunk:<alpha>` requests
/// ask for edge removals or prebunk targets instead.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Misinformation seed vertices (order and duplicates are irrelevant —
    /// the engine canonicalises).
    pub seeds: Vec<VertexId>,
    /// Maximum number of blocked vertices, removed edges or prebunked
    /// vertices, depending on `intervention`.
    pub budget: usize,
    /// Which algorithm to run (from the [`AlgorithmKind`] registry).
    pub algorithm: AlgorithmKind,
    /// Which intervention family the budget buys.
    pub intervention: Intervention,
}

/// Canonical cache key of a query: sorted deduplicated seeds + budget +
/// algorithm + intervention. The intervention is keyed by its canonical
/// protocol rendering (`vertex`, `edge`, `prebunk:<alpha>`) so the key
/// stays `Hash + Eq` despite the `f64` prebunk parameter.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    seeds: Vec<u32>,
    budget: usize,
    algorithm: AlgorithmKind,
    intervention: String,
}

impl Query {
    pub(crate) fn key(&self) -> QueryKey {
        let mut seeds: Vec<u32> = self.seeds.iter().map(|s| s.raw()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        QueryKey {
            seeds,
            budget: self.budget,
            algorithm: self.algorithm,
            intervention: self.intervention.to_string(),
        }
    }
}

/// How a query's answer was produced — surfaced in the trace suffix and
/// the access log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Disposition {
    /// A leader computed the answer against the resident pool.
    #[default]
    Computed,
    /// The answer was served from the LRU result cache.
    CacheHit,
    /// The request rode along on an identical in-flight computation.
    Coalesced,
}

impl Disposition {
    /// Stable lowercase name used in traces and access-log records.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Computed => "computed",
            Disposition::CacheHit => "cache_hit",
            Disposition::Coalesced => "coalesced",
        }
    }
}

/// The engine's answer to a [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Chosen blockers in selection order (prebunk targets for
    /// `intervene=prebunk:<alpha>` queries; empty for edge queries).
    pub blockers: Vec<VertexId>,
    /// Removed edges in selection order — filled by `intervene=edge`
    /// queries, empty otherwise.
    pub blocked_edges: Vec<(VertexId, VertexId)>,
    /// Estimated expected spread remaining after blocking, counting every
    /// seed as active (original-graph terms).
    pub estimated_spread: Option<f64>,
    /// Greedy/replacement rounds executed.
    pub rounds: usize,
    /// Pool consultations: θ per estimator round (no new samples are ever
    /// drawn — the pool is resident).
    pub samples_consulted: usize,
    /// Realisations the pooled kernel actually priced while answering:
    /// θ for the first pass, then two per realisation an incremental round
    /// re-priced (0 for the sketch backend).
    pub samples_repriced: usize,
    /// Whether the answer came from the LRU cache.
    pub from_cache: bool,
    /// Wall-clock time to produce (or fetch) the answer.
    pub elapsed: Duration,
    /// How this answer was produced (computed / cache hit / coalesced).
    pub disposition: Disposition,
    /// Per-request trace id assigned by [`crate::SharedEngine::query`].
    pub trace_id: u64,
    /// Per-phase time breakdown of the computation that produced this
    /// answer, when observability was enabled. Cache hits and coalesced
    /// answers carry the breakdown of the original leader computation.
    pub phases: Option<imin_obs::PhaseBreakdown>,
}

/// How the resident pool came to be — surfaced by `STATS` so operators can
/// tell a warm-started engine from one that resampled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolProvenance {
    /// The pool was sampled from scratch by this process.
    Built,
    /// The pool was grown in place from a smaller resident pool with
    /// [`SamplePool::extend_to`] (bit-identical to a fresh build).
    Extended {
        /// θ the resident pool had before the extension.
        from_theta: usize,
    },
    /// The pool was bulk-loaded from a snapshot file.
    Restored {
        /// Path the snapshot was read from.
        path: String,
    },
    /// The pool's arenas are served directly out of a memory-mapped
    /// snapshot file (`RESTORE … mode=map`): no bulk copy happened, pages
    /// fault in on first touch.
    Mapped {
        /// Path of the mapped snapshot file.
        path: String,
    },
}

impl PoolProvenance {
    /// Compact `STATS`-friendly rendering (`built`, `extended:<from θ>`,
    /// `restored:<path>`).
    pub fn label(&self) -> String {
        match self {
            PoolProvenance::Built => "built".into(),
            PoolProvenance::Extended { from_theta } => format!("extended:{from_theta}"),
            PoolProvenance::Restored { path } => format!("restored:{path}"),
            PoolProvenance::Mapped { path } => format!("mapped:{path}"),
        }
    }
}

/// How `RESTORE` should bring a snapshot's arenas back into the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestoreMode {
    /// Bulk-load the arenas onto the heap (the only mode before snapshot
    /// format v2). Works for every readable snapshot version.
    #[default]
    Copy,
    /// Memory-map the snapshot and serve arena slices straight from the
    /// page cache — first-query-ready in milliseconds regardless of pool
    /// size. Requires a v2 snapshot and a little-endian host; per-sample
    /// validation is deferred to first touch.
    Map,
}

impl RestoreMode {
    /// Protocol token (`copy` / `map`).
    pub fn label(self) -> &'static str {
        match self {
            RestoreMode::Copy => "copy",
            RestoreMode::Map => "map",
        }
    }
}

/// What [`crate::SharedEngine::ensure_pool`] actually did to satisfy a
/// `POOL` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolAction {
    /// A pool with the exact `(θ, seed)` was already resident — nothing
    /// changed, the result cache survives.
    Reused,
    /// The resident pool had the right seed and a smaller θ; the missing
    /// realisations were drawn in place.
    Extended,
    /// A pool was sampled from scratch.
    Built,
}

impl PoolAction {
    /// Protocol token for the `POOL` reply (`resident`, `extended`,
    /// `built`).
    pub fn label(self) -> &'static str {
        match self {
            PoolAction::Reused => "resident",
            PoolAction::Extended => "extended",
            PoolAction::Built => "built",
        }
    }
}

/// Facts about the resident pool, recorded when it was built, extended or
/// restored.
#[derive(Clone, Debug)]
pub struct PoolInfo {
    /// Number of realisations θ.
    pub theta: usize,
    /// Base pool seed.
    pub seed: u64,
    /// Worker threads used for the build.
    pub threads: usize,
    /// Wall-clock time of the build, extension, compression or restore
    /// that produced the current pool state.
    pub build_time: Duration,
    /// True resident bytes held by the pool: every owned allocation's
    /// capacity (elements, `Vec` headers and all) plus bytes served out of
    /// a mapping, as reported by [`SamplePool::memory_bytes`] and
    /// [`SamplePool::mapped_bytes`].
    pub memory_bytes: usize,
    /// Total live edges stored across all realisations.
    pub live_edges: usize,
    /// Which arena backend holds the realisations.
    pub arena: ArenaKind,
    /// `(owned + mapped) / raw-equivalent` bytes — 1.0-ish for raw arenas,
    /// well below 1 for compressed ones.
    pub compression_ratio: f64,
    /// How the pool came to be.
    pub provenance: PoolProvenance,
}

impl PoolInfo {
    /// Records the facts of `pool` as it currently stands.
    pub(crate) fn for_pool(
        pool: &SamplePool,
        threads: usize,
        build_time: Duration,
        provenance: PoolProvenance,
    ) -> Self {
        PoolInfo {
            theta: pool.theta(),
            seed: pool.pool_seed(),
            threads,
            build_time,
            memory_bytes: pool.memory_bytes() + pool.mapped_bytes(),
            live_edges: pool.total_live_edges(),
            arena: pool.arena_kind(),
            compression_ratio: pool.compression_ratio(),
            provenance,
        }
    }
}

/// Which estimator family a `POOL` request targets — the `backend=` key of
/// the protocol's `POOL` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolBackend {
    /// Forward live-edge realisations ([`SamplePool`]) — the default, and
    /// the backend every forward algorithm (AG, GR, heuristics) runs on.
    #[default]
    Forward,
    /// Reverse-reachable sketches ([`SketchPool`]) — the backend
    /// `ris-greedy` runs on.
    Sketch,
}

impl PoolBackend {
    /// Protocol token (`forward` / `sketch`).
    pub fn label(self) -> &'static str {
        match self {
            PoolBackend::Forward => "forward",
            PoolBackend::Sketch => "sketch",
        }
    }

    /// Parses a `backend=` value from the protocol (case-insensitive).
    pub fn parse(token: &str) -> Option<Self> {
        if token.eq_ignore_ascii_case("forward") {
            Some(PoolBackend::Forward)
        } else if token.eq_ignore_ascii_case("sketch") {
            Some(PoolBackend::Sketch)
        } else {
            None
        }
    }
}

/// Facts about the resident reverse-sketch pool, recorded when it was
/// built — the sketch-backend counterpart of [`PoolInfo`].
#[derive(Clone, Debug)]
pub struct SketchPoolInfo {
    /// Number of reverse sketches θ_r.
    pub theta_r: usize,
    /// Base pool seed.
    pub seed: u64,
    /// Worker threads used for the build.
    pub threads: usize,
    /// Wall-clock time of the build.
    pub build_time: Duration,
    /// Resident bytes held by the sketch pool (every owned allocation's
    /// capacity, as reported by [`SketchPool::memory_bytes`]).
    pub memory_bytes: usize,
    /// Total vertex memberships stored across all sketches.
    pub total_members: usize,
    /// Mean vertices per sketch.
    pub avg_sketch_size: f64,
    /// How the sketch pool came to be (always `Built` today — sketch pools
    /// have no snapshot format yet).
    pub provenance: PoolProvenance,
}

impl SketchPoolInfo {
    /// Records the facts of `pool` as it currently stands.
    pub(crate) fn for_pool(
        pool: &SketchPool,
        threads: usize,
        build_time: Duration,
        provenance: PoolProvenance,
    ) -> Self {
        SketchPoolInfo {
            theta_r: pool.theta_r(),
            seed: pool.pool_seed(),
            threads,
            build_time,
            memory_bytes: pool.memory_bytes(),
            total_members: pool.total_members(),
            avg_sketch_size: pool.avg_sketch_size(),
            provenance,
        }
    }
}

/// The one resident backend a query runs against: the forward sample pool
/// for every algorithm except `ris-greedy`, the reverse-sketch pool for
/// `ris-greedy`. [`crate::SharedEngine::query`] clones it out of the
/// resident state and raises the typed lifecycle error when it is absent.
pub(crate) enum ResidentBackend {
    /// Forward live-edge realisations.
    Forward(Arc<SamplePool>),
    /// Reverse-reachable sketches.
    Sketch(Arc<SketchPool>),
}

/// Runs one query against the resident backend with the given parallelism:
/// the query becomes a [`ContainmentRequest`] and is dispatched through the
/// [`AlgorithmKind`] registry — no per-algorithm `match` lives in the
/// engine.
pub(crate) fn run_resident(
    backend: &ResidentBackend,
    graph: &DiGraph,
    query: &Query,
    threads: usize,
    start: Instant,
) -> Result<QueryResult> {
    // The request builder demands canonical seeds; the engine accepts any
    // order and duplicates (they already collapse in the cache key).
    let mut seeds = query.seeds.clone();
    seeds.sort_unstable();
    seeds.dedup();
    let eval = match backend {
        ResidentBackend::Forward(pool) => EvalBackend::Pooled { pool, threads },
        ResidentBackend::Sketch(pool) => EvalBackend::SketchPooled { pool, threads },
    };
    let request = ContainmentRequest::builder(graph)
        .seeds(seeds)
        .budget(query.budget)
        .intervention(query.intervention)
        .backend(eval)
        .build()?;
    let selection = query.algorithm.solver().solve(graph, &request)?;
    Ok(QueryResult {
        blockers: selection.blockers,
        blocked_edges: selection.blocked_edges,
        estimated_spread: selection.estimated_spread,
        rounds: selection.stats.rounds,
        samples_consulted: selection.stats.samples_drawn,
        samples_repriced: selection.stats.samples_repriced,
        from_cache: false,
        elapsed: start.elapsed(),
        disposition: Disposition::Computed,
        trace_id: 0,
        phases: None,
    })
}

#[cfg(test)]
mod tests {
    //! Lifecycle tests of the engine: pool residency, cache invalidation,
    //! snapshots and registry dispatch, driven through [`SharedEngine`].

    use super::*;
    use crate::{EngineError, SharedEngine};
    use imin_core::snapshot::pool_digest;
    use imin_graph::generators;

    fn vid(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn pa_200() -> DiGraph {
        generators::preferential_attachment(200, 3, true, 0.3, 11).unwrap()
    }

    fn primed_engine() -> SharedEngine {
        let engine = SharedEngine::new().with_threads(2);
        engine.load_graph(pa_200(), "pa-200".into());
        engine.ensure_pool(300, 5).unwrap();
        engine
    }

    fn query(seed: usize, budget: usize) -> Query {
        Query {
            seeds: vec![vid(seed)],
            budget,
            algorithm: QueryAlgorithm::AdvancedGreedy,
            intervention: Intervention::BlockVertices,
        }
    }

    fn ris_query(seed: usize, budget: usize) -> Query {
        Query {
            algorithm: QueryAlgorithm::RisGreedy,
            ..query(seed, budget)
        }
    }

    #[test]
    fn lifecycle_errors_are_explicit() {
        let engine = SharedEngine::new();
        assert!(matches!(
            engine.ensure_pool(10, 1),
            Err(EngineError::NoGraph)
        ));
        assert!(matches!(
            engine.query(&query(0, 1)),
            Err(EngineError::NoGraph)
        ));
        let graph = generators::preferential_attachment(50, 2, true, 0.3, 1).unwrap();
        engine.load_graph(graph, "g".into());
        assert!(matches!(
            engine.query(&query(0, 1)),
            Err(EngineError::NoPool)
        ));
        assert!(engine.ensure_pool(0, 1).is_err(), "zero theta is rejected");
    }

    #[test]
    fn second_identical_query_is_served_from_cache() {
        let engine = primed_engine();
        let q = Query {
            seeds: vec![vid(3), vid(0)],
            ..query(0, 3)
        };
        let first = engine.query(&q).unwrap();
        assert!(!first.from_cache);
        let second = engine.query(&q).unwrap();
        assert!(second.from_cache);
        assert_eq!(first.blockers, second.blockers);
        assert_eq!(first.estimated_spread, second.estimated_spread);
        assert_eq!(engine.stats().cache_hits, 1);
        // Canonicalisation: permuted/duplicated seeds hit the same entry.
        for seeds in [vec![vid(0), vid(3)], vec![vid(3), vid(0), vid(3)]] {
            let permuted = Query { seeds, ..q.clone() };
            assert!(engine.query(&permuted).unwrap().from_cache);
        }
        assert_eq!(engine.cache_entries(), 1);
    }

    #[test]
    fn rebuilding_the_pool_invalidates_the_cache() {
        let engine = primed_engine();
        let q = query(0, 2);
        let first = engine.query(&q).unwrap();
        engine.ensure_pool(300, 6).unwrap(); // different pool seed
        assert_eq!(engine.cache_entries(), 0);
        let second = engine.query(&q).unwrap();
        assert!(!second.from_cache);
        // Same graph, different pool: answers may or may not coincide, but
        // the engine must have recomputed them.
        assert_eq!(first.samples_consulted, second.samples_consulted);
    }

    #[test]
    fn matching_pool_requests_are_noops_that_keep_the_cache() {
        let engine = primed_engine();
        let q = query(0, 2);
        engine.query(&q).unwrap();
        assert_eq!(engine.cache_entries(), 1);
        let (info, action) = engine.ensure_pool(300, 5).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert_eq!(info.provenance, PoolProvenance::Built);
        assert_eq!(engine.cache_entries(), 1, "cache must survive the no-op");
        assert!(engine.query(&q).unwrap().from_cache);
        assert_eq!(engine.stats().pool_builds, 1);
        assert_eq!(engine.stats().pool_reuses, 1);
    }

    #[test]
    fn growing_pool_requests_extend_in_place_bit_identically() {
        let engine = primed_engine(); // θ=300, seed 5
        let q = query(0, 3);
        engine.query(&q).unwrap();
        let (info, action) = engine.ensure_pool(500, 5).unwrap();
        assert_eq!(action, PoolAction::Extended);
        assert_eq!(info.theta, 500);
        assert_eq!(
            info.provenance,
            PoolProvenance::Extended { from_theta: 300 }
        );
        assert_eq!(engine.cache_entries(), 0, "answers may change with θ");
        let grown = engine.query(&q).unwrap();
        assert!(!grown.from_cache);
        assert_eq!(engine.stats().pool_extends, 1);
        assert_eq!(engine.stats().pool_builds, 1, "no from-scratch rebuild");

        // The extended pool answers exactly like a freshly built θ=500 pool.
        let scratch = SharedEngine::new().with_threads(2);
        scratch.load_graph(pa_200(), "pa-200".into());
        let (info, action) = scratch.ensure_pool(500, 5).unwrap();
        assert_eq!(action, PoolAction::Built);
        assert_eq!(info.provenance, PoolProvenance::Built);
        let reference = scratch.query(&q).unwrap();
        assert_eq!(grown.blockers, reference.blockers);
        assert_eq!(grown.estimated_spread, reference.estimated_spread);
        assert_eq!(
            pool_digest(&engine.view().pool.unwrap()),
            pool_digest(&scratch.view().pool.unwrap()),
            "arena bytes are identical after the in-place extension"
        );
    }

    #[test]
    fn shrinking_or_reseeded_pool_requests_rebuild() {
        let engine = primed_engine(); // θ=300, seed 5
        let (info, action) = engine.ensure_pool(100, 5).unwrap();
        assert_eq!(action, PoolAction::Built, "shrinking resamples exactly θ");
        assert_eq!(info.theta, 100);
        let (_, action) = engine.ensure_pool(100, 9).unwrap();
        assert_eq!(action, PoolAction::Built, "a new seed is a new pool");
        assert_eq!(engine.stats().pool_builds, 3);
        assert_eq!(engine.stats().pool_extends, 0);
    }

    #[test]
    fn save_and_restore_round_trip_through_the_engine_api() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-engine-roundtrip-{}.iminsnap",
            std::process::id()
        ));
        let engine = primed_engine();
        let q = query(2, 3);
        let before = engine.query(&q).unwrap();
        let summary = engine.save_snapshot(&path).unwrap();
        assert_eq!(summary.theta, 300);
        assert!(summary.bytes_written > 0);
        assert_eq!(engine.stats().snapshot_saves, 1);

        let warm = SharedEngine::new().with_threads(2);
        let info = warm.restore_snapshot(&path).unwrap();
        assert_eq!(info.theta, 300);
        assert_eq!(info.seed, 5);
        assert_eq!(
            info.provenance,
            PoolProvenance::Restored {
                path: path.display().to_string()
            }
        );
        assert_eq!(warm.view().graph_label, "pa-200");
        let after = warm.query(&q).unwrap();
        assert!(!after.from_cache);
        assert_eq!(before.blockers, after.blockers);
        assert_eq!(before.estimated_spread, after.estimated_spread);
        assert_eq!(warm.stats().snapshot_restores, 1);

        // A matching POOL after the restore is a no-op on the restored pool.
        let (_, action) = warm.ensure_pool(300, 5).unwrap();
        assert_eq!(action, PoolAction::Reused);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_lifecycle_errors_are_explicit() {
        let engine = SharedEngine::new();
        assert!(matches!(
            engine.save_snapshot("/tmp/never-written.iminsnap"),
            Err(EngineError::NoGraph)
        ));
        let graph = generators::preferential_attachment(50, 2, true, 0.3, 1).unwrap();
        engine.load_graph(graph, "g".into());
        assert!(matches!(
            engine.save_snapshot("/tmp/never-written.iminsnap"),
            Err(EngineError::NoPool)
        ));
        // A failed restore keeps the resident graph, label and pool.
        engine.ensure_pool(50, 1).unwrap();
        let before = engine.view();
        let err = engine.restore_snapshot("/nonexistent/nowhere.iminsnap");
        assert!(err.is_err());
        let after = engine.view();
        assert_eq!(after.graph_label, "g");
        assert_eq!(after.pool_info.unwrap().theta, 50);
        assert!(Arc::ptr_eq(&before.graph.unwrap(), &after.graph.unwrap()));
        assert!(Arc::ptr_eq(&before.pool.unwrap(), &after.pool.unwrap()));
        assert_eq!(engine.stats().snapshot_restores, 0);
    }

    #[test]
    fn any_pool_capable_registry_algorithm_answers_queries() {
        let engine = primed_engine();
        for algorithm in [
            QueryAlgorithm::AdvancedGreedy,
            QueryAlgorithm::GreedyReplace,
            QueryAlgorithm::Random,
            QueryAlgorithm::OutDegree,
            QueryAlgorithm::Degree,
            QueryAlgorithm::OutNeighbors,
            QueryAlgorithm::PageRank,
        ] {
            let q = Query {
                algorithm,
                ..query(0, 3)
            };
            let result = engine
                .query(&q)
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            assert!(result.blockers.len() <= 3, "{algorithm:?}");
            assert!(!result.blockers.contains(&vid(0)), "{algorithm:?}");
        }
    }

    #[test]
    fn simulation_only_algorithms_report_the_unsupported_backend() {
        let engine = primed_engine();
        for algorithm in [QueryAlgorithm::BaselineGreedy, QueryAlgorithm::Exact] {
            let q = Query {
                algorithm,
                ..query(0, 2)
            };
            let err = engine.query(&q).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::Core(imin_core::IminError::BackendUnsupported { .. })
                ),
                "{algorithm:?}: {err:?}"
            );
        }
    }

    #[test]
    fn compress_pool_keeps_the_cache_and_the_answers() {
        let engine = primed_engine();
        let q = query(0, 3);
        engine.query(&q).unwrap();
        assert_eq!(engine.view().pool_info.unwrap().arena, ArenaKind::Raw);
        let info = engine.compress_pool().unwrap();
        assert_eq!(info.arena, ArenaKind::Compressed);
        assert!(info.compression_ratio > 0.0);
        assert_eq!(
            info.provenance,
            PoolProvenance::Built,
            "provenance survives"
        );
        assert_eq!(
            engine.cache_entries(),
            1,
            "compressed answers are byte-identical, the cache must survive"
        );
        assert!(engine.query(&q).unwrap().from_cache);
        // Fresh questions against the compressed arena match the raw pool.
        let q2 = query(1, 2);
        let reference = primed_engine().query(&q2).unwrap();
        let compressed = engine.query(&q2).unwrap();
        assert_eq!(reference.blockers, compressed.blockers);
        assert_eq!(reference.estimated_spread, compressed.estimated_spread);
        assert_eq!(reference.samples_consulted, compressed.samples_consulted);
        assert_eq!(engine.stats().pool_compressions, 1);
        // Compressing twice is a no-op.
        engine.compress_pool().unwrap();
        assert_eq!(engine.stats().pool_compressions, 1);
    }

    #[test]
    fn ensure_pool_rebuilds_rather_than_extends_a_compressed_pool() {
        let engine = primed_engine(); // θ=300, seed 5
        engine.compress_pool().unwrap();
        let (info, action) = engine.ensure_pool(500, 5).unwrap();
        assert_eq!(
            action,
            PoolAction::Built,
            "compressed arenas cannot grow in place"
        );
        assert_eq!(info.theta, 500);
        assert_eq!(info.arena, ArenaKind::Raw);
        assert_eq!(engine.stats().pool_extends, 0);
        // A matching request still reuses the compressed pool as-is.
        let again = primed_engine();
        again.compress_pool().unwrap();
        let (info, action) = again.ensure_pool(300, 5).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert_eq!(info.arena, ArenaKind::Compressed);
    }

    #[test]
    fn mapped_restore_answers_byte_identically_to_a_copy_restore() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-engine-maprestore-{}.iminsnap",
            std::process::id()
        ));
        let engine = primed_engine();
        let q = query(2, 3);
        let before = engine.query(&q).unwrap();
        engine.save_snapshot(&path).unwrap();

        let warm = SharedEngine::new().with_threads(2);
        let info = warm.restore_snapshot_with(&path, RestoreMode::Map).unwrap();
        assert_eq!(info.theta, 300);
        assert_eq!(info.arena, ArenaKind::MappedRaw);
        assert_eq!(
            info.provenance,
            PoolProvenance::Mapped {
                path: path.display().to_string()
            }
        );
        assert_eq!(
            info.provenance.label(),
            format!("mapped:{}", path.display())
        );
        let after = warm.query(&q).unwrap();
        assert!(!after.from_cache);
        assert_eq!(before.blockers, after.blockers);
        assert_eq!(before.estimated_spread, after.estimated_spread);

        // A growing POOL on the mapped pool rebuilds into a raw arena.
        let (info, action) = warm.ensure_pool(400, 5).unwrap();
        assert_eq!(action, PoolAction::Built);
        assert_eq!(info.arena, ArenaKind::Raw);
        assert_eq!(info.provenance, PoolProvenance::Built);
        assert_eq!(warm.stats().pool_extends, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sketch_pool_residency_reuses_and_rebuilds() {
        let engine = SharedEngine::new().with_threads(2);
        engine.load_graph(pa_200(), "pa-200".into());
        // ris-greedy before any sketch pool → typed lifecycle error.
        let q = ris_query(0, 3);
        assert!(matches!(engine.query(&q), Err(EngineError::NoSketchPool)));

        let (info, action) = engine.ensure_sketch_pool(400, 7).unwrap();
        assert_eq!(action, PoolAction::Built);
        assert_eq!(info.theta_r, 400);
        assert_eq!(info.seed, 7);
        assert!(info.memory_bytes > 0);
        let first = engine.query(&q).unwrap();
        assert!(first.blockers.len() <= 3);
        assert!(!first.blockers.contains(&vid(0)));
        assert_eq!(first.samples_consulted, 400);

        // Matching request is a no-op that keeps the cache.
        let (_, action) = engine.ensure_sketch_pool(400, 7).unwrap();
        assert_eq!(action, PoolAction::Reused);
        assert!(engine.query(&q).unwrap().from_cache);
        assert_eq!(engine.stats().sketch_builds, 1);
        assert_eq!(engine.stats().sketch_reuses, 1);

        // A different (θ_r, seed) rebuilds and drops cached answers.
        let (info, action) = engine.ensure_sketch_pool(600, 7).unwrap();
        assert_eq!(action, PoolAction::Built);
        assert_eq!(info.theta_r, 600);
        assert_eq!(engine.cache_entries(), 0);
        assert_eq!(engine.stats().sketch_builds, 2);
        assert!(!engine.query(&q).unwrap().from_cache);
    }

    #[test]
    fn both_backends_serve_side_by_side() {
        let engine = primed_engine(); // forward θ=300, seed 5
        engine.ensure_sketch_pool(400, 7).unwrap();
        assert!(
            engine.view().pool.is_some(),
            "forward pool survives sketch build"
        );
        let forward = engine.query(&query(0, 3)).unwrap();
        let sketch = engine.query(&ris_query(0, 3)).unwrap();
        assert!(!forward.blockers.is_empty());
        assert!(!sketch.blockers.is_empty());
        assert_eq!(forward.samples_consulted % 300, 0);
        assert_eq!(sketch.samples_consulted, 400);
    }

    #[test]
    fn save_on_a_sketch_only_engine_is_a_typed_backend_error() {
        let engine = SharedEngine::new().with_threads(2);
        let graph = generators::preferential_attachment(100, 3, true, 0.3, 3).unwrap();
        engine.load_graph(graph, "pa-100".into());
        engine.ensure_sketch_pool(100, 1).unwrap();
        let err = engine
            .save_snapshot("/tmp/never-written-sketch.iminsnap")
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::BackendUnsupported {
                    operation: "SAVE",
                    backend: "sketch"
                }
            ),
            "got {err:?}"
        );
        assert_eq!(engine.stats().snapshot_saves, 0);
        // With a forward pool also resident, SAVE works again.
        engine.ensure_pool(50, 2).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!(
            "imin-engine-sketchsave-{}.iminsnap",
            std::process::id()
        ));
        engine.save_snapshot(&path).unwrap();
        assert_eq!(engine.stats().snapshot_saves, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loading_a_graph_drops_the_sketch_pool() {
        let engine = SharedEngine::new().with_threads(2);
        let graph = generators::preferential_attachment(100, 3, true, 0.3, 3).unwrap();
        engine.load_graph(graph, "pa-100".into());
        engine.ensure_sketch_pool(100, 1).unwrap();
        let view = engine.view();
        assert!(view.sketch.is_some());
        assert!(view.sketch_info.is_some());
        let graph = generators::preferential_attachment(80, 3, true, 0.3, 4).unwrap();
        engine.load_graph(graph, "pa-80".into());
        let view = engine.view();
        assert!(view.sketch.is_none());
        assert!(view.sketch_info.is_none());
        assert!(matches!(
            engine.query(&ris_query(0, 2)),
            Err(EngineError::NoSketchPool)
        ));
    }
}
