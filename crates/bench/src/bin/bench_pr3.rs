//! PR 3 performance trajectory: cold single-shot containment runs versus the
//! resident `imin-engine` pool, at θ = 10 000 on the 50 000-vertex WC
//! benchmark graph of `bench_pr2`.
//!
//! Four numbers tell the story:
//!
//! * `classic_single_shot_secs` — the status quo before this PR: one
//!   `advanced_greedy` call that redraws θ samples every greedy round and
//!   throws them away afterwards.
//! * `engine_cold_secs` — a fresh engine answering its first query: pool
//!   build (the one-off θ·O(m) investment) plus the first pooled query.
//! * `resident_distinct_query_secs` — a *different* question against the
//!   now-resident pool: only re-rooting + dominator trees.
//! * `resident_identical_query_secs` — the same question again: the LRU
//!   cache answers in microseconds.
//!
//! Also records pool-build scaling at 1/2/4/8 threads and asserts that
//! blocker selections are bit-identical across thread counts at full θ.
//!
//! Emits `BENCH_PR3.json` in the repository root (override the directory
//! with `IMIN_BENCH_OUT`). Run with:
//! `cargo run --release -p imin-bench --bin bench_pr3`

use imin_core::advanced_greedy::advanced_greedy;
use imin_core::{AlgorithmConfig, SamplePool};
use imin_diffusion::ProbabilityModel;
use imin_engine::{Query, QueryAlgorithm, SharedEngine};
use imin_graph::{generators, VertexId};
use std::io::Write;
use std::time::Instant;

const THETA: usize = 10_000;
const BUDGET: usize = 10;

fn main() {
    let n = 50_000usize;
    eprintln!("generating {n}-vertex preferential-attachment topology …");
    let topology =
        generators::preferential_attachment(n, 4, true, 1.0, 20230227).expect("generator");
    let graph = ProbabilityModel::WeightedCascade
        .apply(&topology)
        .expect("WC probabilities");
    // Hub seeds: the highest out-degree vertices make the hardest queries.
    let mut hubs: Vec<VertexId> = graph.vertices().collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
    let source = hubs[0];
    eprintln!(
        "graph ready: n={n}, m={}, hub source={source} (out-degree {})",
        graph.num_edges(),
        graph.out_degree(source)
    );

    // ---- Status quo: classic self-sampling AdvancedGreedy -----------------
    let classic_cfg = AlgorithmConfig::default()
        .with_theta(THETA)
        .with_threads(1)
        .with_seed(7);
    let start = Instant::now();
    let classic = advanced_greedy(&graph, source, &vec![false; n], BUDGET, &classic_cfg)
        .expect("classic advanced greedy");
    let classic_single_shot_secs = start.elapsed().as_secs_f64();
    eprintln!(
        "classic single-shot (θ={THETA}, budget={BUDGET}): {classic_single_shot_secs:.3}s, \
         spread {:.1}",
        classic.estimated_spread.unwrap_or(f64::NAN)
    );

    // ---- Engine: cold (pool build + first query) --------------------------
    let engine = SharedEngine::new().with_threads(1);
    engine.load_graph(graph.clone(), "pa-50k/WC".into());
    let hot_query = Query {
        seeds: vec![source],
        budget: BUDGET,
        algorithm: QueryAlgorithm::AdvancedGreedy,
        intervention: imin_core::Intervention::BlockVertices,
    };
    let start = Instant::now();
    let (info, _) = engine.ensure_pool(THETA, 7).expect("pool build");
    let pool_build_secs = info.build_time.as_secs_f64();
    let first = engine.query(&hot_query).expect("first query");
    let engine_cold_secs = start.elapsed().as_secs_f64();
    let first_query_secs = first.elapsed.as_secs_f64();
    eprintln!(
        "engine cold: {engine_cold_secs:.3}s (pool {pool_build_secs:.3}s + query \
         {first_query_secs:.3}s), spread {:.1}",
        first.estimated_spread.unwrap_or(f64::NAN)
    );

    // ---- Resident: distinct queries (no cache help) -----------------------
    let distinct_seeds = [hubs[1], hubs[2], hubs[3]];
    let mut resident_distinct_secs = 0.0f64;
    for &seed in &distinct_seeds {
        let q = Query {
            seeds: vec![seed],
            budget: BUDGET,
            algorithm: QueryAlgorithm::AdvancedGreedy,
            intervention: imin_core::Intervention::BlockVertices,
        };
        let result = engine.query(&q).expect("resident query");
        assert!(!result.from_cache);
        resident_distinct_secs += result.elapsed.as_secs_f64();
    }
    resident_distinct_secs /= distinct_seeds.len() as f64;
    eprintln!(
        "resident distinct query (avg of {}): {resident_distinct_secs:.3}s",
        3
    );

    // ---- Resident: the second identical query (LRU cache) -----------------
    let again = engine.query(&hot_query).expect("identical query");
    assert!(
        again.from_cache,
        "second identical query must hit the cache"
    );
    assert_eq!(again.blockers, first.blockers);
    let resident_identical_secs = again.elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "resident identical query: {:.1}µs (cache hit)",
        resident_identical_secs * 1e6
    );

    let identical_speedup = engine_cold_secs / resident_identical_secs;
    let distinct_speedup = engine_cold_secs / resident_distinct_secs;
    let distinct_vs_classic = classic_single_shot_secs / resident_distinct_secs;
    eprintln!(
        "speedups vs engine-cold: identical {identical_speedup:.0}x, distinct \
         {distinct_speedup:.2}x (vs classic single-shot: {distinct_vs_classic:.2}x)"
    );

    // ---- Bit-identical selections across thread counts at full θ ----------
    eprintln!("checking thread-count invariance at θ={THETA} …");
    let pool_t8 = SamplePool::build_with_threads(&graph, THETA, 7, 8).expect("8-thread pool");
    let sel_t8 = imin_core::advanced_greedy::advanced_greedy_with_pool(
        &pool_t8,
        &[source],
        &vec![false; n],
        BUDGET,
        8,
    )
    .expect("8-thread pooled query");
    assert_eq!(
        sel_t8.blockers, first.blockers,
        "8-thread pool+query must match the sequential engine"
    );
    assert_eq!(sel_t8.estimated_spread, first.estimated_spread);
    drop(pool_t8);
    eprintln!("thread-count invariance holds (1 vs 8 threads, bit-identical)");

    // ---- Pool-build scaling -----------------------------------------------
    let mut scaling = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let pool = SamplePool::build_with_threads(&graph, THETA, 7, threads).expect("pool");
        let secs = start.elapsed().as_secs_f64();
        eprintln!("pool build, {threads} thread(s): {secs:.3}s");
        std::hint::black_box(pool.total_live_edges());
        scaling.push((threads, secs));
    }

    // ---- Emit BENCH_PR3.json ----------------------------------------------
    let out_dir = std::env::var("IMIN_BENCH_OUT").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&out_dir).join("BENCH_PR3.json");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 3,\n");
    json.push_str("  \"benchmark\": \"resident_engine\",\n");
    json.push_str("  \"description\": \"cold single-shot containment runs vs the resident imin-engine sample pool (queries: AdvancedGreedy, hub seeds)\",\n");
    json.push_str(&format!(
        "  \"graph\": {{ \"generator\": \"preferential_attachment\", \"model\": \"WC\", \"vertices\": {n}, \"edges\": {} }},\n",
        graph.num_edges()
    ));
    json.push_str(&format!(
        "  \"theta\": {THETA},\n  \"budget\": {BUDGET},\n  \"query_threads\": 1,\n"
    ));
    json.push_str(&format!(
        "  \"classic_single_shot_secs\": {classic_single_shot_secs:.6},\n"
    ));
    json.push_str(&format!(
        "  \"engine_cold_secs\": {engine_cold_secs:.6},\n  \"pool_build_secs\": {pool_build_secs:.6},\n  \"first_query_secs\": {first_query_secs:.6},\n"
    ));
    json.push_str(&format!(
        "  \"resident_distinct_query_secs\": {resident_distinct_secs:.6},\n"
    ));
    json.push_str(&format!(
        "  \"resident_identical_query_secs\": {resident_identical_secs:.9},\n"
    ));
    json.push_str(&format!(
        "  \"resident_identical_query_speedup_vs_cold\": {identical_speedup:.1},\n"
    ));
    json.push_str(&format!(
        "  \"resident_distinct_query_speedup_vs_cold\": {distinct_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"resident_distinct_query_speedup_vs_classic\": {distinct_vs_classic:.3},\n"
    ));
    json.push_str("  \"thread_count_invariance\": { \"checked_threads\": [1, 8], \"bit_identical\": true },\n");
    json.push_str("  \"pool_build_scaling\": [\n");
    for (i, (threads, secs)) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"threads\": {threads}, \"secs\": {secs:.6} }}{}\n",
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(&path).expect("create BENCH_PR3.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_PR3.json");
    println!("wrote {}", path.display());
}
