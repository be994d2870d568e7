//! PR 6 load harness: qps / p50 / p99 of the concurrent serving path.
//!
//! Boots an in-process `imin-serve` (or targets a running one via
//! `IMIN_PR6_ADDR`), primes the 50 000-vertex WC pool **over the wire**,
//! and then drives it with N concurrent client threads through four
//! workloads:
//!
//! * **distinct** — every request is a never-before-seen question: pure
//!   compute throughput, the workload that must scale with clients.
//! * **identical** — every request is the same question: cache + wire
//!   throughput.
//! * **mixed** — 50% one hot question / 30% a small warm set / 20% unique,
//!   the repeated-overlapping-query profile of containment serving.
//! * **coalesce bursts** — all clients fire the *same fresh* question
//!   simultaneously (barrier), proving single-flight coalescing: one
//!   computation per round, `coalesced` counter strictly increasing.
//!
//! A 32-way stress phase then replays its mixed schedule against a fresh
//! single-threaded [`SharedEngine`] oracle, driven from one thread, and
//! asserts every `blockers=` / `spread=` pair is **byte-identical** —
//! concurrency must be invisible in the answers. Admission control is
//! asserted quiet throughout (`rejected=0` when the budget is not
//! oversubscribed).
//!
//! Emits `BENCH_PR6.json` in the repository root (override the directory
//! with `IMIN_BENCH_OUT`). Knobs (env): `IMIN_PR6_N`, `IMIN_PR6_THETA`,
//! `IMIN_PR6_BUDGET`, `IMIN_PR6_CLIENTS` (comma list), `IMIN_PR6_WARMUP_MS`,
//! `IMIN_PR6_WINDOW_MS`, `IMIN_PR6_STRESS_CLIENTS`, `IMIN_PR6_MIN_SPEEDUP`,
//! `IMIN_PR6_SMOKE=1` (small CI preset), `IMIN_PR6_ADDR` (external server).
//!
//! The 8-client ≥ 3× scaling assertion is enforced only when the host has
//! ≥ 4 cores and the run is not a smoke run — client-level parallelism
//! cannot beat 1× on a single-core box, so there the harness asserts a
//! no-collapse floor instead and records the skip in `methodology`.
//!
//! Run with: `cargo run --release -p imin-bench --bin bench_pr6`

use imin_diffusion::ProbabilityModel;
use imin_engine::protocol::{parse_request, payload_field, payload_fields, Request};
use imin_engine::{Client, Server, SharedEngine};
use imin_graph::{generators, DiGraph};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Cfg {
    n: usize,
    theta: usize,
    budget: usize,
    clients: Vec<usize>,
    warmup_ms: u64,
    window_ms: u64,
    stress_clients: usize,
    min_speedup: f64,
    smoke: bool,
    addr: Option<String>,
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Cfg {
    fn from_env() -> Cfg {
        let smoke = std::env::var("IMIN_PR6_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
        let (n, theta, warmup_ms, window_ms, clients, stress) = if smoke {
            (3_000, 300, 300, 1_200, "1,4".to_string(), 8)
        } else {
            (50_000, 2_000, 1_500, 6_000, "1,4,8,16".to_string(), 32)
        };
        let clients = std::env::var("IMIN_PR6_CLIENTS")
            .unwrap_or(clients)
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        Cfg {
            n: env_num("IMIN_PR6_N", n),
            theta: env_num("IMIN_PR6_THETA", theta),
            budget: env_num("IMIN_PR6_BUDGET", 2),
            clients,
            warmup_ms: env_num("IMIN_PR6_WARMUP_MS", warmup_ms),
            window_ms: env_num("IMIN_PR6_WINDOW_MS", window_ms),
            stress_clients: env_num("IMIN_PR6_STRESS_CLIENTS", stress),
            min_speedup: env_num("IMIN_PR6_MIN_SPEEDUP", 3.0),
            smoke,
            addr: std::env::var("IMIN_PR6_ADDR").ok(),
        }
    }
}

/// Reads the server's STATS counters into a map.
fn counters(client: &mut Client) -> HashMap<String, u64> {
    let payload = client.stats().expect("STATS");
    payload_fields(&payload)
        .into_iter()
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k, v)))
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_ms.len() as f64) * p).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// One measured load phase: `clients` threads each looping `make_line`
/// against the server, with a warmup period and then a steady measurement
/// window. Returns (qps, p50_ms, p99_ms, measured_requests).
fn load_phase(
    addr: &str,
    clients: usize,
    warmup: Duration,
    window: Duration,
    make_line: impl Fn(usize, u64) -> String + Send + Sync + 'static,
) -> (f64, f64, f64, usize) {
    let make_line = Arc::new(make_line);
    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..clients {
        let addr = addr.to_string();
        let make_line = Arc::clone(&make_line);
        let measuring = Arc::clone(&measuring);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("load client connect");
            let mut latencies_ms = Vec::new();
            let mut k = 0u64;
            while !stop.load(SeqCst) {
                let line = make_line(t, k);
                k += 1;
                let start = Instant::now();
                let reply = client.send_raw(&line).expect("load reply");
                assert!(reply.starts_with("OK"), "{line} → {reply}");
                if measuring.load(SeqCst) {
                    latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
            latencies_ms
        }));
    }
    std::thread::sleep(warmup);
    measuring.store(true, SeqCst);
    let window_start = Instant::now();
    std::thread::sleep(window);
    // Freeze collection before stopping so every recorded request completed
    // inside (or overlapping) the window.
    measuring.store(false, SeqCst);
    let measured_secs = window_start.elapsed().as_secs_f64();
    stop.store(true, SeqCst);
    let mut all_ms: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("load client thread"))
        .collect();
    all_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let qps = all_ms.len() as f64 / measured_secs;
    (
        qps,
        percentile(&all_ms, 0.50),
        percentile(&all_ms, 0.99),
        all_ms.len(),
    )
}

/// A globally-unique two-seed question per (thread, counter): the distinct
/// workload must defeat both the LRU cache and the coalescing map so every
/// request costs real pool work.
fn unique_line(n: usize, budget: usize, t: usize, k: u64) -> String {
    let id = (t as u64).wrapping_mul(1_000_000_007).wrapping_add(k);
    let a = (id.wrapping_mul(2_654_435_761) % n as u64) as usize;
    let mut b = (a + 1 + (id as usize % (n - 1))) % n;
    if b == a {
        b = (a + 1) % n;
    }
    format!("QUERY ic seeds={a},{b} budget={budget} alg=advanced")
}

/// The stress schedule of one client: a hot question everybody shares,
/// warm questions shared by a few clients, and unique ones.
fn stress_schedule(thread: usize, budget: usize) -> Vec<String> {
    (0..6)
        .map(|i| match i % 3 {
            0 => "QUERY ic seeds=1 budget=3 alg=advanced".to_string(),
            1 => format!(
                "QUERY ic seeds={},8 budget={budget} alg=advanced",
                10 + thread % 4
            ),
            _ => format!(
                "QUERY ic seeds={} budget={budget} alg=replace",
                100 + thread * 6 + i
            ),
        })
        .collect()
}

fn main() {
    let cfg = Cfg::from_env();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    eprintln!(
        "bench_pr6: n={} theta={} budget={} clients={:?} window={}ms cores={} smoke={}",
        cfg.n, cfg.theta, cfg.budget, cfg.clients, cfg.window_ms, cores, cfg.smoke
    );

    // ---- Server: external or in-process -----------------------------------
    let (addr, mode) = match &cfg.addr {
        Some(addr) => (addr.clone(), "external"),
        None => {
            let server =
                Server::with_shared("127.0.0.1:0", SharedEngine::new().with_query_threads(1))
                    .expect("bind");
            let addr = server.spawn().expect("spawn server");
            (addr.to_string(), "in-process")
        }
    };

    // ---- Prime over the wire ----------------------------------------------
    let mut admin = Client::connect(&addr).expect("admin connect");
    eprintln!("priming: LOAD pa n={} m0=4 seed=20230227 model=wc", cfg.n);
    let (_, edges) = admin.load_pa_wc(cfg.n, 4, 20230227).expect("LOAD");
    eprintln!("priming: POOL {} 7 …", cfg.theta);
    let pool_build_ms = admin.build_pool(cfg.theta, 7).expect("POOL");
    eprintln!("pool resident in {pool_build_ms}ms");
    let base = counters(&mut admin);

    // ---- Load phases: distinct + identical per client count ----------------
    let warmup = Duration::from_millis(cfg.warmup_ms);
    let window = Duration::from_millis(cfg.window_ms);
    let mut load_rows: Vec<(usize, &'static str, f64, f64, f64, usize)> = Vec::new();
    for &c in &cfg.clients {
        let (n, budget) = (cfg.n, cfg.budget);
        let (qps, p50, p99, reqs) = load_phase(&addr, c, warmup, window, move |t, k| {
            unique_line(n, budget, t, k)
        });
        eprintln!(
            "distinct  {c:>2} clients: {qps:>8.1} qps  p50 {p50:>8.2}ms  p99 {p99:>8.2}ms  ({reqs} reqs)"
        );
        load_rows.push((c, "distinct", qps, p50, p99, reqs));

        let budget = cfg.budget;
        let (qps, p50, p99, reqs) = load_phase(&addr, c, warmup, window, move |_, _| {
            format!("QUERY ic seeds=0 budget={budget} alg=advanced")
        });
        eprintln!(
            "identical {c:>2} clients: {qps:>8.1} qps  p50 {p50:>8.2}ms  p99 {p99:>8.2}ms  ({reqs} reqs)"
        );
        load_rows.push((c, "identical", qps, p50, p99, reqs));
    }

    // ---- Mixed workload at the largest client count ------------------------
    let max_clients = cfg.clients.iter().copied().max().unwrap_or(1);
    let (n, budget) = (cfg.n, cfg.budget);
    let (mixed_qps, mixed_p50, mixed_p99, mixed_reqs) =
        load_phase(&addr, max_clients, warmup, window, move |t, k| {
            match k % 10 {
                0..=4 => format!("QUERY ic seeds=0 budget={budget} alg=advanced"),
                5..=7 => format!(
                    "QUERY ic seeds={} budget={budget} alg=advanced",
                    2 + (t + k as usize) % 8
                ),
                _ => unique_line(n, budget, t, k),
            }
        });
    eprintln!(
        "mixed     {max_clients:>2} clients: {mixed_qps:>8.1} qps  p50 {mixed_p50:>8.2}ms  p99 {mixed_p99:>8.2}ms  ({mixed_reqs} reqs)"
    );

    // ---- Coalesce bursts ---------------------------------------------------
    // All clients fire the *same fresh* heavy question simultaneously; one
    // thread must lead and the rest must ride along (coalesced or, if they
    // arrive just after the leader published, cache hits). On a single core
    // the OS can serialise an entire cheap round before the second
    // connection thread ever runs, so rounds repeat (fresh question each
    // time) until a coalesce is observed, up to a cap.
    let before_burst = counters(&mut admin);
    let burst_clients = max_clients.max(2);
    const BURST_MAX_ROUNDS: usize = 64;
    let mut burst_rounds = 0usize;
    let mut coalesced_delta = 0u64;
    {
        let mut clients: Vec<Client> = (0..burst_clients)
            .map(|_| Client::connect(&addr).expect("burst connect"))
            .collect();
        while burst_rounds < BURST_MAX_ROUNDS && coalesced_delta == 0 {
            let r = burst_rounds;
            let seeds: Vec<String> = (0..6)
                .map(|j| (cfg.n - 1 - r * 6 - j).to_string())
                .collect();
            let line = format!("QUERY ic seeds={} budget=4 alg=advanced", seeds.join(","));
            let barrier = Arc::new(Barrier::new(burst_clients));
            std::thread::scope(|scope| {
                for client in &mut clients {
                    let barrier = Arc::clone(&barrier);
                    let line = line.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        let reply = client.send_raw(&line).expect("burst reply");
                        assert!(reply.starts_with("OK"), "{line} → {reply}");
                    });
                }
            });
            burst_rounds += 1;
            coalesced_delta = counters(&mut admin)["coalesced"] - before_burst["coalesced"];
        }
    }
    eprintln!(
        "coalesce bursts: {burst_clients} clients × {burst_rounds} round(s) → coalesced +{coalesced_delta}"
    );
    assert!(
        coalesced_delta > 0,
        "simultaneous identical queries must coalesce \
         (got +{coalesced_delta} after {burst_rounds} rounds)"
    );

    // ---- 32-way stress + serial-oracle byte parity -------------------------
    eprintln!(
        "stress: {} clients vs the serial oracle …",
        cfg.stress_clients
    );
    let mut handles = Vec::new();
    for t in 0..cfg.stress_clients {
        let addr = addr.clone();
        let budget = cfg.budget;
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("stress connect");
            stress_schedule(t, budget)
                .into_iter()
                .map(|line| {
                    let reply = client.send_raw(&line).expect("stress reply");
                    assert!(reply.starts_with("OK"), "{line} → {reply}");
                    let payload = reply.strip_prefix("OK ").unwrap();
                    (
                        line,
                        payload_field(payload, "blockers").expect("blockers"),
                        payload_field(payload, "spread").expect("spread"),
                    )
                })
                .collect::<Vec<_>>()
        }));
    }
    let stress_answers: Vec<(String, String, String)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("stress client"))
        .collect();

    eprintln!("building the serial oracle (same graph, same pool) …");
    let oracle_graph: DiGraph = ProbabilityModel::WeightedCascade
        .apply(
            &generators::preferential_attachment(cfg.n, 4, true, 1.0, 20230227)
                .expect("oracle topology"),
        )
        .expect("oracle WC");
    assert_eq!(
        oracle_graph.num_edges(),
        edges,
        "oracle graph must match the server's"
    );
    let oracle = SharedEngine::new().with_threads(1);
    oracle.load_graph(oracle_graph, "oracle".into());
    oracle.ensure_pool(cfg.theta, 7).expect("oracle pool");
    for (line, blockers, spread) in &stress_answers {
        let Ok(Request::Query { query, .. }) = parse_request(line) else {
            panic!("stress line must parse: {line}");
        };
        let expect = oracle.query(&query).expect("oracle query");
        let expect_blockers = expect
            .blockers
            .iter()
            .map(|b| b.raw().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let expect_spread = expect
            .estimated_spread
            .map(|s| format!("{s:.6}"))
            .unwrap_or_else(|| "nan".into());
        assert_eq!(
            (blockers.as_str(), spread.as_str()),
            (expect_blockers.as_str(), expect_spread.as_str()),
            "concurrent answer diverged from the serial oracle on {line}"
        );
    }
    eprintln!(
        "stress parity holds: {} answers byte-identical to the serial oracle",
        stress_answers.len()
    );

    // ---- End-of-run counter checks -----------------------------------------
    let end = counters(&mut admin);
    let total_queries = end["queries"] - base["queries"];
    assert_eq!(
        end["rejected"], 0,
        "nothing may be rejected when the budget is not oversubscribed"
    );
    assert_eq!(end["inflight"], 0, "in-flight gauge must return to zero");
    assert_eq!(
        end["queries"],
        end["cache_hits"] + end["coalesced"] + end["computed"] + end["rejected"],
        "hit/coalesced/computed/rejected must partition the queries"
    );

    // ---- Scaling assertion -------------------------------------------------
    let distinct_qps: HashMap<usize, f64> = load_rows
        .iter()
        .filter(|r| r.1 == "distinct")
        .map(|r| (r.0, r.2))
        .collect();
    let (speedup, asserted_min) = match (distinct_qps.get(&1), distinct_qps.get(&8)) {
        (Some(&one), Some(&eight)) if one > 0.0 => {
            let speedup = eight / one;
            if cores >= 4 && !cfg.smoke {
                assert!(
                    speedup >= cfg.min_speedup,
                    "8-client distinct throughput must be ≥{}× the 1-client baseline \
                     (got {speedup:.2}× — {eight:.1} vs {one:.1} qps)",
                    cfg.min_speedup
                );
                (Some(speedup), Some(cfg.min_speedup))
            } else {
                // One core cannot scale client-parallel compute; assert the
                // concurrency machinery at least does not collapse under it.
                assert!(
                    speedup >= 0.4,
                    "8-client throughput collapsed vs 1 client: {speedup:.2}×"
                );
                (Some(speedup), None)
            }
        }
        _ => (None, None),
    };
    if let Some(s) = speedup {
        eprintln!(
            "distinct scaling 8 vs 1 clients: {s:.2}× ({})",
            if asserted_min.is_some() {
                "asserted ≥3×"
            } else {
                "scaling assert skipped: <4 cores or smoke run"
            }
        );
    }

    let methodology = format!(
        "steady-state windows ({}ms warmup, {}ms measured) over a resident theta={} pool; \
         distinct workload uses globally-unique two-seed questions so every request computes; \
         latencies are client-observed wall clock over TCP loopback. Host has {cores} core(s): \
         the >=3x 8-vs-1-client assertion is {} (client-level parallelism cannot exceed 1x on a \
         single core; the no-collapse floor and byte-parity checks still ran).",
        cfg.warmup_ms,
        cfg.window_ms,
        cfg.theta,
        if asserted_min.is_some() {
            "enforced"
        } else {
            "recorded but not enforced"
        },
    );

    // ---- Emit BENCH_PR6.json ----------------------------------------------
    let out_dir = std::env::var("IMIN_BENCH_OUT").unwrap_or_else(|_| ".".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = std::path::Path::new(&out_dir).join("BENCH_PR6.json");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 6,\n");
    json.push_str("  \"benchmark\": \"concurrent_serving\",\n");
    json.push_str("  \"description\": \"qps/p50/p99 of shared-pool parallel queries with single-flight coalescing and admission control (bench_pr6 load generator over TCP loopback)\",\n");
    json.push_str(&format!(
        "  \"graph\": {{ \"generator\": \"preferential_attachment\", \"model\": \"WC\", \"vertices\": {}, \"edges\": {edges} }},\n",
        cfg.n
    ));
    json.push_str(&format!(
        "  \"theta\": {},\n  \"budget\": {},\n  \"query_threads\": 1,\n  \"cores\": {cores},\n  \"mode\": \"{mode}\",\n  \"smoke\": {},\n",
        cfg.theta, cfg.budget, cfg.smoke
    ));
    json.push_str(&format!("  \"pool_build_ms\": {pool_build_ms},\n"));
    json.push_str("  \"load\": [\n");
    for (i, (c, workload, qps, p50, p99, reqs)) in load_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"clients\": {c}, \"workload\": \"{workload}\", \"qps\": {qps:.2}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \"requests\": {reqs} }}{}\n",
            if i + 1 < load_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"mixed\": {{ \"clients\": {max_clients}, \"identical_pct\": 50, \"repeat_pct\": 30, \"unique_pct\": 20, \"qps\": {mixed_qps:.2}, \"p50_ms\": {mixed_p50:.3}, \"p99_ms\": {mixed_p99:.3}, \"requests\": {mixed_reqs} }},\n"
    ));
    json.push_str(&format!(
        "  \"coalesce_burst\": {{ \"clients\": {burst_clients}, \"rounds\": {burst_rounds}, \"coalesced_delta\": {coalesced_delta} }},\n"
    ));
    json.push_str(&format!(
        "  \"stress\": {{ \"clients\": {}, \"answers\": {}, \"byte_identical_to_serial_oracle\": true }},\n",
        cfg.stress_clients,
        stress_answers.len()
    ));
    json.push_str(&format!(
        "  \"counters\": {{ \"queries\": {total_queries}, \"cache_hits\": {}, \"coalesced\": {}, \"computed\": {}, \"rejected\": {} }},\n",
        end["cache_hits"], end["coalesced"], end["computed"], end["rejected"]
    ));
    json.push_str(&format!(
        "  \"distinct_scaling_8_vs_1\": {},\n",
        speedup
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "null".into())
    ));
    json.push_str(&format!(
        "  \"scaling_assert_min\": {},\n",
        asserted_min
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "null".into())
    ));
    json.push_str(&format!("  \"methodology\": \"{methodology}\"\n"));
    json.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create BENCH_PR6.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_PR6.json");
    println!("wrote {}", path.display());
}
