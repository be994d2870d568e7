//! PR 8 observability-overhead benchmark: tracing must be near-free.
//!
//! Loads the 50 000-vertex WC reference graph into **one** in-process
//! [`SharedEngine`], primes a θ=10 000 pool, and times a batch of
//! globally-distinct two-seed questions: each question runs twice back to
//! back — once with observability on (the default: phase spans, trace
//! attachment, histogram recording), once with it off via the runtime
//! [`SharedEngine::set_observability`] toggle — alternating which goes
//! first, over several trials. Both runs hit the *same* pool in the same
//! allocation (an earlier two-engine design showed a consistent
//! few-percent bias from memory layout that had nothing to do with
//! observability), and the back-to-back pairing keeps the two
//! measurements ~150ms apart so background-load drift hits both configs
//! alike (pass-level alternation was observed crediting a quiet spell
//! entirely to one config). The result cache is disabled (capacity 0) so
//! the second run of a question recomputes; every timed answer is
//! asserted `Computed`.
//!
//! Asserts:
//!
//! * **overhead ≤ 3%** — summed per-question minima across trials,
//!   instrumented over uninstrumented (noise only ever inflates a sample,
//!   so the per-question minima approach the true costs even on a busy
//!   box). Override the bound with `IMIN_PR8_MAX_OVERHEAD` (fraction,
//!   default `0.03`).
//! * **byte identity** — every answer from the timed and untimed passes,
//!   and from a fresh single-threaded serial [`SharedEngine`], is identical:
//!   observability must never change a blocker or a spread estimate.
//! * **trace accounting** — a heavy traced query's phase times sum to
//!   within 10% of its reported elapsed time (query_threads=1, so phase
//!   CPU time and wall clock coincide).
//!
//! Emits `BENCH_PR8.json` (directory override: `IMIN_BENCH_OUT`) with the
//! timings, the overhead, and the per-phase breakdown of a computed
//! query at the benchmark θ. Knobs (env): `IMIN_PR8_N`, `IMIN_PR8_THETA`,
//! `IMIN_PR8_BATCH`, `IMIN_PR8_TRIALS`, `IMIN_PR8_SMOKE=1` (small preset).
//!
//! Run with: `cargo run --release -p imin-bench --bin bench_pr8`

use imin_diffusion::ProbabilityModel;
use imin_engine::{AlgorithmKind, Disposition, Phase, Query, SharedEngine};
use imin_graph::{generators, DiGraph, VertexId};
use std::io::Write;
use std::time::Instant;

/// The eight query phases, in reply order (mirrors `QUERY_PHASES`).
const PHASES: [Phase; 8] = [
    Phase::Clone,
    Phase::Probe,
    Phase::Sample,
    Phase::Decode,
    Phase::Bfs,
    Phase::DomTree,
    Phase::Credit,
    Phase::Select,
];

/// Blockers + spread of one answer, for the parity checks.
type Answer = (Vec<u32>, Option<f64>);

struct Cfg {
    n: usize,
    theta: usize,
    batch: usize,
    trials: usize,
    max_overhead: f64,
    smoke: bool,
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Cfg {
    fn from_env() -> Cfg {
        let smoke = std::env::var("IMIN_PR8_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
        let (n, theta, batch) = if smoke {
            (3_000, 300, 24)
        } else {
            (50_000, 10_000, 40)
        };
        // The 3% budget is defined at the benchmark scale, where a
        // question costs ~160ms. Smoke questions finish in ~2ms, so the
        // same fixed per-sample lap cost is a several-fold larger
        // fraction — the smoke preset only checks the harness end to end.
        let max_overhead = if smoke { 0.12 } else { 0.03 };
        Cfg {
            n: env_num("IMIN_PR8_N", n),
            theta: env_num("IMIN_PR8_THETA", theta),
            batch: env_num("IMIN_PR8_BATCH", batch),
            trials: env_num("IMIN_PR8_TRIALS", 9),
            max_overhead: env_num("IMIN_PR8_MAX_OVERHEAD", max_overhead),
            smoke,
        }
    }
}

/// A globally-unique two-seed budget-2 question per index — the same
/// derivation as bench_pr6's distinct workload, so every question costs
/// real pool work and none repeats.
fn distinct_query(n: usize, k: u64) -> Query {
    let id = k.wrapping_mul(1_000_000_007);
    let a = (id.wrapping_mul(2_654_435_761) % n as u64) as usize;
    let mut b = (a + 1 + (id as usize % (n - 1))) % n;
    if b == a {
        b = (a + 1) % n;
    }
    Query {
        seeds: vec![VertexId::new(a), VertexId::new(b)],
        budget: 2,
        algorithm: AlgorithmKind::AdvancedGreedy,
        intervention: imin_core::Intervention::BlockVertices,
    }
}

/// Times one question, returning the seconds and the answer. Asserts the
/// answer was freshly computed — a cache hit would time nothing.
fn timed_query(engine: &SharedEngine, query: &Query) -> (f64, Answer) {
    let start = Instant::now();
    let result = engine.query(query).expect("timed query");
    assert_eq!(
        result.disposition,
        Disposition::Computed,
        "timed answers must be computed, not cached or coalesced"
    );
    (
        start.elapsed().as_secs_f64(),
        (
            result.blockers.iter().map(|b| b.raw()).collect(),
            result.estimated_spread,
        ),
    )
}

/// Times `query` with observability set to `enabled`, folding the time
/// into its running minimum.
fn timed_with(engine: &SharedEngine, query: &Query, enabled: bool, best: &mut f64) -> Answer {
    engine.set_observability(enabled);
    let (secs, ans) = timed_query(engine, query);
    *best = best.min(secs);
    ans
}

fn main() {
    let cfg = Cfg::from_env();
    eprintln!(
        "bench_pr8: n={} theta={} batch={} trials={} max_overhead={:.1}% smoke={}",
        cfg.n,
        cfg.theta,
        cfg.batch,
        cfg.trials,
        cfg.max_overhead * 100.0,
        cfg.smoke
    );

    eprintln!("building the WC reference graph …");
    let graph: DiGraph = ProbabilityModel::WeightedCascade
        .apply(
            &generators::preferential_attachment(cfg.n, 4, true, 1.0, 20230227).expect("topology"),
        )
        .expect("WC weights");
    let edges = graph.num_edges();

    // Cache capacity 0 disables result caching outright: the same
    // question runs twice back to back — observability on, then off —
    // and both must compute (timed_query asserts it).
    let engine = SharedEngine::new()
        .with_query_threads(1)
        .with_cache_capacity(0);
    engine.load_graph(graph.clone(), "bench-pr8".into());

    eprintln!("priming the theta={} pool …", cfg.theta);
    let pool_start = Instant::now();
    engine.ensure_pool(cfg.theta, 7).expect("pool");
    let pool_build_ms = pool_start.elapsed().as_millis();
    eprintln!("pool resident in {pool_build_ms}ms");

    let batch: Vec<Query> = (0..cfg.batch as u64)
        .map(|k| distinct_query(cfg.n, k))
        .collect();
    for k in 1_000..1_000 + cfg.batch as u64 / 2 {
        let warmup = distinct_query(cfg.n, k);
        engine.set_observability(k % 2 == 0);
        timed_query(&engine, &warmup);
    }

    // ---- Timed trials ------------------------------------------------------
    // Each question runs twice back to back — observability on, then off
    // (order alternating by question and trial) — so the two
    // measurements of a pair share whatever the box was doing in that
    // ~300ms window. The per-question minimum across trials is what gets
    // summed: a background-load spike hits one question of one trial, not
    // the estimate. Coarser schemes could not resolve a 3% bound on a
    // busy box — batch-level timing varied 2.7× trial to trial, and
    // pass-level alternation let a quiet spell land entirely on one
    // config.
    let mut best_on = vec![f64::INFINITY; batch.len()];
    let mut best_off = vec![f64::INFINITY; batch.len()];
    let mut answers_on = Vec::new();
    let mut answers_off = Vec::new();
    for trial in 0..cfg.trials {
        answers_on.clear();
        answers_off.clear();
        let mut trial_on = 0.0;
        let mut trial_off = 0.0;
        for (i, query) in batch.iter().enumerate() {
            let mut secs_on = f64::INFINITY;
            let mut secs_off = f64::INFINITY;
            let (ans_on, ans_off) = if (trial + i) % 2 == 0 {
                let a = timed_with(&engine, query, true, &mut secs_on);
                let b = timed_with(&engine, query, false, &mut secs_off);
                (a, b)
            } else {
                let b = timed_with(&engine, query, false, &mut secs_off);
                let a = timed_with(&engine, query, true, &mut secs_on);
                (a, b)
            };
            best_on[i] = best_on[i].min(secs_on);
            best_off[i] = best_off[i].min(secs_off);
            trial_on += secs_on;
            trial_off += secs_off;
            answers_on.push(ans_on);
            answers_off.push(ans_off);
        }
        eprintln!(
            "trial {trial}: instrumented {:.1}ms  uninstrumented {:.1}ms  ratio {:.4}",
            trial_on * 1e3,
            trial_off * 1e3,
            trial_on / trial_off
        );
    }
    let t_on: f64 = best_on.iter().sum();
    let t_off: f64 = best_off.iter().sum();
    let overhead = t_on / t_off - 1.0;
    eprintln!(
        "overhead: best {:.1}ms vs best {:.1}ms → {:+.2}% (bound {:.1}%)",
        t_on * 1e3,
        t_off * 1e3,
        overhead * 100.0,
        cfg.max_overhead * 100.0
    );
    assert!(
        overhead <= cfg.max_overhead,
        "observability overhead {:.2}% exceeds the {:.1}% budget",
        overhead * 100.0,
        cfg.max_overhead * 100.0
    );

    // ---- Byte identity: timed vs untimed vs the serial engine --------------
    assert_eq!(
        answers_on, answers_off,
        "instrumented and uninstrumented answers must be byte-identical"
    );
    let serial = SharedEngine::new().with_threads(1);
    serial.load_graph(graph, "bench-pr8".into());
    serial.ensure_pool(cfg.theta, 7).expect("serial pool");
    let oracle_checks = batch.len().min(6);
    for (query, expect) in batch.iter().zip(&answers_on).take(oracle_checks) {
        let result = serial.query(query).expect("serial query");
        let blockers: Vec<u32> = result.blockers.iter().map(|b| b.raw()).collect();
        assert_eq!(
            (&blockers, &result.estimated_spread),
            (&expect.0, &expect.1),
            "serial oracle diverged on {query:?}"
        );
    }
    eprintln!(
        "byte identity holds: {} answers, {} re-checked against the serial engine",
        answers_on.len(),
        oracle_checks
    );

    // ---- Per-phase breakdown + trace-sum accounting ------------------------
    // One fresh heavy question (budget 4) with phases attached; its phase
    // times must sum to within 10% of its reported elapsed time.
    engine.set_observability(true);
    let mut probe = distinct_query(cfg.n, 9_999);
    probe.budget = 4;
    let traced = engine.query(&probe).expect("traced probe");
    let phases = traced.phases.expect("observability is on");
    let phase_sum_us = phases.total_us();
    let elapsed_us = traced.elapsed.as_micros() as u64;
    let ratio = phase_sum_us as f64 / elapsed_us as f64;
    eprintln!(
        "trace accounting: phases sum {phase_sum_us}µs vs elapsed {elapsed_us}µs (ratio {ratio:.3})"
    );
    assert!(
        (0.9..=1.1).contains(&ratio),
        "phase sum must be within 10% of the elapsed time (got {ratio:.3})"
    );

    // ---- Emit BENCH_PR8.json ----------------------------------------------
    let out_dir = std::env::var("IMIN_BENCH_OUT").unwrap_or_else(|_| ".".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = std::path::Path::new(&out_dir).join("BENCH_PR8.json");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 8,\n");
    json.push_str("  \"benchmark\": \"observability_overhead\",\n");
    json.push_str("  \"description\": \"distinct-query batch throughput with phase tracing + histograms on vs off (runtime set_observability toggle, one engine, one resident pool), plus the per-phase breakdown of one computed query (bench_pr8, in-process)\",\n");
    json.push_str(&format!(
        "  \"graph\": {{ \"generator\": \"preferential_attachment\", \"model\": \"WC\", \"vertices\": {}, \"edges\": {edges} }},\n",
        cfg.n
    ));
    json.push_str(&format!(
        "  \"theta\": {},\n  \"batch\": {},\n  \"trials\": {},\n  \"query_threads\": 1,\n  \"smoke\": {},\n",
        cfg.theta, cfg.batch, cfg.trials, cfg.smoke
    ));
    json.push_str(&format!("  \"pool_build_ms\": {pool_build_ms},\n"));
    json.push_str(&format!(
        "  \"instrumented_ms\": {:.3},\n  \"uninstrumented_ms\": {:.3},\n",
        t_on * 1e3,
        t_off * 1e3
    ));
    json.push_str(&format!(
        "  \"overhead_pct\": {:.3},\n  \"overhead_bound_pct\": {:.1},\n",
        overhead * 100.0,
        cfg.max_overhead * 100.0
    ));
    json.push_str(&format!(
        "  \"byte_identical\": {{ \"instrumented_vs_uninstrumented\": {}, \"vs_serial_engine\": {oracle_checks} }},\n",
        answers_on.len()
    ));
    json.push_str(&format!(
        "  \"trace_accounting\": {{ \"budget\": 4, \"phase_sum_us\": {phase_sum_us}, \"elapsed_us\": {elapsed_us}, \"ratio\": {ratio:.4} }},\n"
    ));
    json.push_str("  \"phase_breakdown_us\": {\n");
    for (i, phase) in PHASES.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {}{}\n",
            phase.name(),
            phases.get(*phase),
            if i + 1 < PHASES.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"methodology\": \"same {} globally-distinct two-seed budget-2 questions through one engine, each question timed twice back to back per trial — observability toggled on/off at runtime in alternating order, same resident pool so memory layout is identical — over {} trials, result cache disabled and every timed answer asserted computed; overhead = sum of per-question minima across trials, instrumented / uninstrumented - 1 (background-load spikes hit single samples, not the estimate); phase breakdown is one fresh budget-4 question at theta={}\"\n",
        cfg.batch, cfg.trials, cfg.theta
    ));
    json.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create BENCH_PR8.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_PR8.json");
    println!("wrote {}", path.display());
}
