//! PR 5 performance trajectory: snapshot warm-starts versus pool rebuilds,
//! and incremental θ-growth versus fresh builds, at θ = 10 000 on the
//! 50 000-vertex WC benchmark graph of `bench_pr2`/`bench_pr3`.
//!
//! The story in four acts:
//!
//! * `pool_build_cold_secs` / `pool_build_secs` — what a restarted
//!   `imin-serve` used to pay on every boot: resampling the full θ pool
//!   (`POOL 10000 7`), measured once on first-touch memory and once
//!   steady-state (pages recycled by the allocator).
//! * `snapshot_save_secs` / `snapshot_restore_*` — paying that cost once:
//!   `SAVE` streams the arenas to disk, `RESTORE` bulk-loads them back;
//!   `restore_speedup_vs_rebuild` (steady-state restore vs steady-state
//!   rebuild — like-for-like) is the acceptance headline (≥ 25×), with
//!   query answers asserted **byte-identical** before save and after
//!   restore.
//! * `extend` — incremental growth: a θ=1k pool extended to 10k via the
//!   per-sample indexed RNG streams, proven bit-identical (arena digest and
//!   blocker selections) to the fresh 10k build, with the timing split
//!   showing extension costs only the missing samples.
//!
//! Cold and steady-state are reported separately because first-touch of
//! multi-GB allocations is dominated by memory *provisioning* (page zeroing
//! and, on lazily-backed VMs, hypervisor faulting — wildly erratic on such
//! hosts), which both a rebuild and a restore pay identically and which a
//! long-running production server pays exactly once. The steady-state
//! numbers measure the algorithms; the cold numbers measure the machine.
//! Engines are dropped before their successors build, so peak memory stays
//! at ~one pool (≈4.6 GB at this scale) plus the page-cached snapshot.
//!
//! Emits `BENCH_PR5.json` in the repository root (override the directory
//! with `IMIN_BENCH_OUT`; the scratch snapshot goes to the system temp dir
//! or `IMIN_BENCH_SNAPSHOT`). Run with:
//! `cargo run --release -p imin-bench --bin bench_pr5`

use imin_core::snapshot::pool_digest;
use imin_core::SamplePool;
use imin_diffusion::ProbabilityModel;
use imin_engine::{PoolAction, Query, QueryAlgorithm, QueryResult, SharedEngine};
use imin_graph::{generators, VertexId};
use std::io::Write;
use std::time::Instant;

const THETA: usize = 10_000;
const BASE_THETA: usize = 1_000;
const POOL_SEED: u64 = 7;
const BUDGET: usize = 10;

fn answer_key(r: &QueryResult) -> (Vec<u32>, Option<u64>) {
    (
        r.blockers.iter().map(|b| b.raw()).collect(),
        r.estimated_spread.map(f64::to_bits),
    )
}

fn main() {
    let n = 50_000usize;
    eprintln!("generating {n}-vertex preferential-attachment topology …");
    let topology =
        generators::preferential_attachment(n, 4, true, 1.0, 20230227).expect("generator");
    let graph = ProbabilityModel::WeightedCascade
        .apply(&topology)
        .expect("WC probabilities");
    let mut hubs: Vec<VertexId> = graph.vertices().collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
    let source = hubs[0];
    eprintln!(
        "graph ready: n={n}, m={}, hub source={source} (out-degree {})",
        graph.num_edges(),
        graph.out_degree(source)
    );

    let snapshot_path = std::env::var("IMIN_BENCH_SNAPSHOT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("bench_pr5_wc50k.iminsnap"));
    let hot_query = Query {
        seeds: vec![source],
        budget: BUDGET,
        algorithm: QueryAlgorithm::AdvancedGreedy,
        intervention: imin_core::Intervention::BlockVertices,
    };

    // ---- Act 1: the cold rebuild a restarted server used to pay ----------
    let cold = SharedEngine::new().with_threads(1);
    cold.load_graph(graph.clone(), "pa-50k/WC".into());
    let (info, action) = cold.ensure_pool(THETA, POOL_SEED).expect("pool build");
    assert_eq!(action, PoolAction::Built);
    let pool_build_cold_secs = info.build_time.as_secs_f64();
    let pool_bytes = info.memory_bytes;
    eprintln!(
        "pool build, cold (θ={THETA}, 1 thread): {pool_build_cold_secs:.3}s, {pool_bytes} bytes"
    );
    let before = cold.query(&hot_query).expect("query before save");
    let query_secs = before.elapsed.as_secs_f64();
    eprintln!(
        "query before save: {query_secs:.3}s, spread {:.1}",
        before.estimated_spread.unwrap_or(f64::NAN)
    );
    let fresh_digest = pool_digest(&cold.view().pool.expect("resident pool"));

    // ---- Act 2: SAVE, "restart", RESTORE ----------------------------------
    let start = Instant::now();
    let summary = cold.save_snapshot(&snapshot_path).expect("save snapshot");
    let snapshot_save_secs = start.elapsed().as_secs_f64();
    eprintln!(
        "snapshot save: {snapshot_save_secs:.3}s, {} bytes -> {}",
        summary.bytes_written,
        snapshot_path.display()
    );
    drop(cold); // the "restart": the resident pool is gone

    // Let the save's writeback drain before timing the restore — the
    // restore should measure the RESTORE path (page-cache read + bulk
    // load), not the tail of the previous SAVE's 4 GB flush hogging the
    // disk.
    let _ = std::process::Command::new("sync").status();

    let warm = SharedEngine::new().with_threads(1);
    let info = warm
        .restore_snapshot(&snapshot_path)
        .expect("restore snapshot");
    let snapshot_restore_first_secs = info.build_time.as_secs_f64();
    eprintln!("snapshot restore, first: {snapshot_restore_first_secs:.3}s");
    assert_eq!(
        pool_digest(&warm.view().pool.expect("restored pool")),
        fresh_digest,
        "restored arenas must be byte-identical"
    );
    let after = warm.query(&hot_query).expect("query after restore");
    assert!(!after.from_cache);
    assert_eq!(
        answer_key(&before),
        answer_key(&after),
        "restored engine must answer byte-identically"
    );
    eprintln!("restored query answer is byte-identical to the pre-save answer");
    drop(warm);

    // Steady state: the pool pages just freed are recycled by the next
    // restore and the snapshot sits in the page cache — the situation a
    // production host is in from its second restart onward (and the only
    // regime where a lazily-backed VM measures the software instead of the
    // hypervisor's first-touch page provisioning). Minimum of three runs to
    // shed scheduler/hypervisor noise.
    let mut snapshot_restore_secs = f64::INFINITY;
    for round in 0..3 {
        let warm2 = SharedEngine::new().with_threads(1);
        let info = warm2
            .restore_snapshot(&snapshot_path)
            .expect("steady-state restore");
        let secs = info.build_time.as_secs_f64();
        eprintln!("snapshot restore, steady-state round {round}: {secs:.3}s");
        snapshot_restore_secs = snapshot_restore_secs.min(secs);
        assert_eq!(
            pool_digest(&warm2.view().pool.expect("restored pool")),
            fresh_digest
        );
    }
    eprintln!("snapshot restore, steady-state (min of 3): {snapshot_restore_secs:.3}s");

    // The like-for-like rebuild denominator: steady-state POOL builds in
    // the same memory regime as the steady-state restore above (minimum of
    // two, mirroring the restore's noise treatment — a *minimum* build
    // biases the headline ratio conservatively downward).
    let mut pool_build_secs = f64::INFINITY;
    for round in 0..2 {
        let rebuilt = SharedEngine::new().with_threads(1);
        rebuilt.load_graph(graph.clone(), "pa-50k/WC".into());
        let (info, _) = rebuilt.ensure_pool(THETA, POOL_SEED).expect("warm rebuild");
        let secs = info.build_time.as_secs_f64();
        eprintln!("pool build, steady-state round {round} (θ={THETA}, 1 thread): {secs:.3}s");
        pool_build_secs = pool_build_secs.min(secs);
        assert_eq!(
            pool_digest(&rebuilt.view().pool.expect("rebuilt pool")),
            fresh_digest
        );
    }
    let restore_speedup = pool_build_secs / snapshot_restore_secs;
    let restore_speedup_vs_cold = pool_build_cold_secs / snapshot_restore_secs;
    let cold_restore_speedup_vs_cold = pool_build_cold_secs / snapshot_restore_first_secs;
    eprintln!(
        "RESTORE vs POOL rebuild: steady/steady {restore_speedup:.1}x, \
         steady restore vs cold rebuild {restore_speedup_vs_cold:.1}x, \
         cold/cold {cold_restore_speedup_vs_cold:.1}x"
    );

    // ---- Act 3: incremental θ-growth vs a fresh build ---------------------
    let start = Instant::now();
    let mut pool =
        SamplePool::build_with_threads(&graph, BASE_THETA, POOL_SEED, 1).expect("base pool");
    let base_build_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let added = pool.extend_to(&graph, THETA, 1).expect("extend");
    let extend_secs = start.elapsed().as_secs_f64();
    assert_eq!(added, THETA - BASE_THETA);
    eprintln!(
        "θ growth {BASE_THETA} -> {THETA}: base {base_build_secs:.3}s + extend {extend_secs:.3}s \
         (fresh build of the same pool: {pool_build_secs:.3}s)"
    );
    assert_eq!(
        pool_digest(&pool),
        fresh_digest,
        "extended pool must be bit-identical to the fresh θ={THETA} build"
    );
    let extended_selection = imin_core::advanced_greedy::advanced_greedy_with_pool(
        &pool,
        &[source],
        &vec![false; n],
        BUDGET,
        1,
    )
    .expect("query on the extended pool");
    assert_eq!(
        extended_selection.blockers, before.blockers,
        "extended pool must select the exact same blockers"
    );
    assert_eq!(
        extended_selection.estimated_spread.map(f64::to_bits),
        before.estimated_spread.map(f64::to_bits)
    );
    eprintln!("extended pool selections match the fresh pool bit-for-bit");
    drop(pool);
    let _ = std::fs::remove_file(&snapshot_path);

    // ---- Emit BENCH_PR5.json ----------------------------------------------
    let out_dir = std::env::var("IMIN_BENCH_OUT").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&out_dir).join("BENCH_PR5.json");
    let blockers = before
        .blockers
        .iter()
        .map(|b| b.raw().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 5,\n");
    json.push_str("  \"benchmark\": \"pool_snapshots\",\n");
    json.push_str("  \"description\": \"versioned pool snapshots (SAVE/RESTORE warm-starts) and incremental theta-growth vs from-scratch pool rebuilds (queries: AdvancedGreedy, hub seed)\",\n");
    json.push_str(&format!(
        "  \"graph\": {{ \"generator\": \"preferential_attachment\", \"model\": \"WC\", \"vertices\": {n}, \"edges\": {} }},\n",
        graph.num_edges()
    ));
    json.push_str(&format!(
        "  \"theta\": {THETA},\n  \"budget\": {BUDGET},\n  \"threads\": 1,\n"
    ));
    json.push_str(&format!(
        "  \"pool_build_cold_secs\": {pool_build_cold_secs:.6},\n"
    ));
    json.push_str(&format!("  \"pool_build_secs\": {pool_build_secs:.6},\n"));
    json.push_str(&format!("  \"query_secs\": {query_secs:.6},\n"));
    json.push_str(&format!(
        "  \"snapshot_bytes\": {},\n  \"snapshot_save_secs\": {snapshot_save_secs:.6},\n",
        summary.bytes_written
    ));
    json.push_str(&format!(
        "  \"snapshot_restore_first_secs\": {snapshot_restore_first_secs:.6},\n"
    ));
    json.push_str(&format!(
        "  \"snapshot_restore_secs\": {snapshot_restore_secs:.6},\n"
    ));
    json.push_str(&format!(
        "  \"restore_speedup_vs_rebuild\": {restore_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"restore_speedup_vs_cold_rebuild\": {restore_speedup_vs_cold:.2},\n"
    ));
    json.push_str(&format!(
        "  \"cold_restore_speedup_vs_cold_rebuild\": {cold_restore_speedup_vs_cold:.2},\n"
    ));
    json.push_str(
        "  \"methodology\": \"cold = first-touch memory (dominated by page provisioning; on lazily-backed VMs by erratic hypervisor faulting); steady-state = recycled pages + warm page cache, the regime of a long-running host and the like-for-like software comparison. restore_speedup_vs_rebuild = pool_build_secs / snapshot_restore_secs, both steady-state, single thread, min over repeat runs on both sides. restore_speedup_vs_cold_rebuild is the operator-facing restart scenario: a restarted process either resamples from scratch (cold rebuild) or RESTOREs on a warm host.\",\n",
    );
    json.push_str(&format!(
        "  \"restored_answers_byte_identical\": true,\n  \"blockers\": \"{blockers}\",\n"
    ));
    json.push_str("  \"extend\": {\n");
    json.push_str(&format!(
        "    \"base_theta\": {BASE_THETA},\n    \"base_build_secs\": {base_build_secs:.6},\n"
    ));
    json.push_str(&format!(
        "    \"extend_secs\": {extend_secs:.6},\n    \"extend_total_secs\": {:.6},\n",
        base_build_secs + extend_secs
    ));
    json.push_str(&format!(
        "    \"fresh_build_secs\": {pool_build_secs:.6},\n"
    ));
    json.push_str("    \"bit_identical_to_fresh\": true,\n");
    json.push_str("    \"identical_blocker_selections\": true\n");
    json.push_str("  }\n}\n");
    let mut file = std::fs::File::create(&path).expect("create BENCH_PR5.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_PR5.json");
    println!("wrote {}", path.display());

    // Regression canary: the steady-state ratio must never collapse. The
    // absolute value is hardware-dependent — this host's sampling speed and
    // memory bandwidth fluctuate by 2-4x between runs (see `methodology`) —
    // so the hard floor is set where only a genuine restore-path regression
    // can trip it; the recorded JSON carries the full picture.
    assert!(
        restore_speedup >= 5.0,
        "regression: steady-state RESTORE should be far faster than a POOL rebuild \
         (got {restore_speedup:.1}x)"
    );
}
