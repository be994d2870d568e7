//! The traced run: the check prefix replayed through five nested paths —
//! TCP untraced, TCP with `trace=1`, `answer_line`, `SharedEngine::query`
//! and `solve` — each on fresh, identical state, plus a probe of the core
//! layers the workload itself does not call. Every call is a span kept in
//! memory and written when the run ends; layer self time is the paired
//! difference between adjacent paths.

use crate::check;
use crate::exec::{
    replay_with, solve_question, timed, EnginePath, LinePath, Outcome, Plan, Record, SolvePath,
    TcpPath,
};
use crate::report::{quote, Metric};
use crate::server::{Conn, Server};
use crate::stats::{layer_self_time, mean, median, percentile};
use crate::timed::{setup_over, RunResult};
use crate::workload::{self, Op, Question, RestoreKind, Workload};
use crate::Ctx;
use imin_core::{snapshot, SamplePool, SketchPool};
use imin_diffusion::ProbabilityModel;
use imin_engine::{ResidentView, SharedEngine};
use imin_graph::DiGraph;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics, in report order, with their units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graph.generate_ms", "ms"),
    ("core.pool.build_ms", "ms"),
    ("core.pool.bytes", "bytes"),
    ("core.pool.live_edges", "count"),
    ("core.ris.build_ms", "ms"),
    ("core.ris.bytes", "bytes"),
    ("core.ris.solve_p50_us", "us"),
    ("core.solver.advanced_p50_ms", "ms"),
    ("core.solver.replace_p50_ms", "ms"),
    ("core.solver.rounds_per_query", "count"),
    ("core.solver.samples_per_query", "count"),
    ("core.phase.decode_us", "us"),
    ("core.phase.bfs_us", "us"),
    ("core.phase.domtree_us", "us"),
    ("core.phase.credit_us", "us"),
    ("core.phase.select_us", "us"),
    ("core.phase.cover_us", "us"),
    ("core.phase.unattributed_frac", "ratio"),
    ("core.intervene.edge_p50_ms", "ms"),
    ("core.intervene.prebunk_p50_ms", "ms"),
    ("core.snapshot.save_ms", "ms"),
    ("core.snapshot.load_ms", "ms"),
    ("core.snapshot.map_ms", "ms"),
    ("core.snapshot.bytes", "bytes"),
    ("engine.query_p50_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.cache_hit_frac", "ratio"),
    ("engine.coalesced", "count"),
    ("engine.computed", "count"),
    ("engine.rejected", "count"),
    ("protocol.answer_line_p50_us", "us"),
    ("protocol.overhead_us", "us"),
    ("server.wire_us", "us"),
    ("obs.trace_overhead_frac", "ratio"),
    ("layers.accounting_ratio", "ratio"),
];

/// Questions per kind the probe solves.
const PROBE_QUESTIONS: usize = 24;
/// θ of the probe's forward pool.
const PROBE_THETA: usize = 100;
/// θ_r of the probe's sketch pool.
const PROBE_SKETCH: usize = 100_000;
/// Snapshot restores per mode the probe times.
const PROBE_RESTORES: usize = 3;

struct Span {
    id: usize,
    parent: usize,
    name: String,
    start_us: f64,
    end_us: f64,
    idx: Option<usize>,
    qid: Option<u32>,
}

/// Benchmark-side spans around each call into a layer.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next: usize,
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn id(&mut self) -> usize {
        self.next += 1;
        self.next
    }

    fn push(&mut self, id: usize, parent: usize, name: &str, start_us: f64) {
        let end_us = self.now();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_us,
            end_us,
            idx: None,
            qid: None,
        });
    }

    /// Times `f` as a span named `name` under `parent`.
    fn time<T>(&mut self, parent: usize, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.id();
        let start = self.now();
        let out = f();
        self.push(id, parent, name, start);
        (out, (self.now() - start) / 1e3)
    }

    fn records(&mut self, parent: usize, records: &[Record]) {
        for r in records {
            let (name, qid) = match r.op {
                Op::Query(q) => ("op.query", Some(q)),
                Op::Rebuild(_) => ("op.rebuild", None),
                Op::Restore(_) => ("op.restore", None),
            };
            let id = self.id();
            self.spans.push(Span {
                id,
                parent,
                name: name.into(),
                start_us: r.start_us,
                end_us: r.end_us,
                idx: Some(r.idx),
                qid,
            });
        }
    }

    fn write(&self, file: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"op\": {}, \"question\": {}}}\n",
                s.id,
                s.parent,
                quote(&s.name),
                s.start_us,
                s.end_us,
                opt(s.idx.map(|i| i.to_string())),
                opt(s.qid.map(|q| q.to_string())),
            ));
        }
        std::fs::write(file, out).map_err(|e| format!("write {}: {e}", file.display()))
    }
}

/// The lanes of the traced replay, outermost first.
const LANES: [&str; 5] = ["tcp_untraced", "tcp", "answer_line", "engine", "solve"];

/// One lane's share of the interleaved replay.
struct PathRun {
    records: Vec<Record>,
}

impl PathRun {
    /// `(op index, µs, disposition)` of every answered question.
    fn answered(&self) -> Vec<(usize, f64, String)> {
        self.records
            .iter()
            .filter(|r| r.answer().is_some())
            .map(|r| {
                let d = r.disposition().unwrap_or("computed").to_string();
                (r.idx, r.latency_us(), d)
            })
            .collect()
    }

    fn query_latencies_us(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| matches!(r.op, Op::Query(_)))
            .map(Record::latency_us)
            .collect()
    }
}

/// `(operation index, µs)` per answered operation.
type Timings = Vec<(usize, f64)>;

/// The `(index, µs)` pairs of `outer` and `inner` for the operations both
/// answered with the same disposition — or, with `only`, those `outer`
/// answered with disposition `only` (the solver always computes).
fn matched(
    outer: &[(usize, f64, String)],
    inner: &[(usize, f64, String)],
    only: Option<&str>,
) -> (Timings, Timings) {
    let inner_by: HashMap<usize, (f64, &str)> = inner
        .iter()
        .map(|(i, t, d)| (*i, (*t, d.as_str())))
        .collect();
    let mut o = Vec::new();
    let mut n = Vec::new();
    for (i, t, d) in outer {
        if let Some(&(u, e)) = inner_by.get(i) {
            let paired = match only {
                Some(x) => d == x,
                None => e == d,
            };
            if paired {
                o.push((*i, *t));
                n.push((*i, u));
            }
        }
    }
    (o, n)
}

fn wc_graph(seed: u64) -> Result<(DiGraph, f64), String> {
    let start = Instant::now();
    let topology = workload::topology(seed);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let graph = ProbabilityModel::WeightedCascade
        .apply(&topology)
        .map_err(|e| format!("apply wc: {e}"))?;
    Ok((graph, ms))
}

struct Collected {
    layers: BTreeMap<&'static str, f64>,
    generate_ms: Vec<f64>,
    errors: Vec<String>,
}

impl Collected {
    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    fn has(&self, name: &str) -> bool {
        self.layers.contains_key(name)
    }

    /// Per-kind solve latencies (ms), rounds and samples from solver
    /// answers; sets the core solver/intervene/ris metrics it can.
    fn solves(&mut self, solved: &[(&'static str, f64, u64, u64)]) {
        let kind_ms = |kind: &str| -> Vec<f64> {
            solved.iter().filter(|s| s.0 == kind).map(|s| s.1).collect()
        };
        for (kind, name, scale) in [
            ("advanced", "core.solver.advanced_p50_ms", 1.0),
            ("replace", "core.solver.replace_p50_ms", 1.0),
            ("edge", "core.intervene.edge_p50_ms", 1.0),
            ("prebunk", "core.intervene.prebunk_p50_ms", 1.0),
            ("ris", "core.ris.solve_p50_us", 1e3),
        ] {
            if let Some(p) = percentile(&kind_ms(kind), 0.5) {
                self.set(name, p * scale);
            }
        }
        let greedy: Vec<&(&str, f64, u64, u64)> = solved
            .iter()
            .filter(|s| s.0 == "advanced" || s.0 == "replace")
            .collect();
        if !greedy.is_empty() && !self.has("core.solver.rounds_per_query") {
            let n = greedy.len() as f64;
            self.set(
                "core.solver.rounds_per_query",
                greedy.iter().map(|s| s.2 as f64).sum::<f64>() / n,
            );
            self.set(
                "core.solver.samples_per_query",
                greedy.iter().map(|s| s.3 as f64).sum::<f64>() / n,
            );
        }
    }
}

/// A fresh server, set up over TCP.
fn server_lane(
    ctx: &Ctx,
    w: &Workload,
    snapshot: &str,
    tr: &mut Tracer,
    parent: usize,
) -> Result<Server, String> {
    let server = Server::start(&ctx.server_bin, &ctx.server_flags)?;
    let mut conn = server.connect()?;
    let (setup, _) = tr.time(parent, "setup", || {
        setup_over(w, snapshot, |l| conn.request(l))
    });
    setup?;
    Ok(server)
}

fn fresh_engine(ctx: &Ctx) -> SharedEngine {
    SharedEngine::new()
        .with_threads(ctx.threads)
        .with_query_threads(1)
}

/// A fresh engine, set up through `answer_line`.
fn line_lane(
    ctx: &Ctx,
    w: &Workload,
    snapshot: &str,
    tr: &mut Tracer,
    parent: usize,
) -> Result<SharedEngine, String> {
    let engine = fresh_engine(ctx);
    let (setup, _) = tr.time(parent, "setup", || {
        setup_over(w, snapshot, |l| Ok(imin_engine::answer_line(l, &engine).0))
    });
    setup?;
    Ok(engine)
}

/// A fresh engine, set up through its API.
fn engine_lane(
    ctx: &Ctx,
    w: &Workload,
    snapshot: &str,
    tr: &mut Tracer,
    parent: usize,
    col: &mut Collected,
) -> Result<SharedEngine, String> {
    let engine = fresh_engine(ctx);
    let setup_id = tr.id();
    let start = tr.now();
    let (graph, gen_ms) = wc_graph(w.seed)?;
    col.generate_ms.push(gen_ms);
    engine.load_graph(graph, format!("pa(seed={})/WC", w.seed));
    if let Some(theta) = w.spec.forward_theta {
        engine
            .ensure_pool(theta, workload::pool_seed(w.seed))
            .map_err(|e| format!("engine pool: {e}"))?;
    }
    if let Some(theta_r) = w.spec.sketch_theta {
        engine
            .ensure_sketch_pool(theta_r, w.first_sketch_seed())
            .map_err(|e| format!("engine sketch: {e}"))?;
    }
    if w.spec.save {
        engine
            .save_snapshot(snapshot)
            .map_err(|e| format!("engine save: {e}"))?;
    }
    tr.push(setup_id, parent, "setup", start);
    Ok(engine)
}

/// The solve lane's set-up: the core calls behind the workload's set-up,
/// each timed, their results dropped (the solve lane then answers from
/// the engine lane's resident pools, so no fifth pool stays resident).
fn core_setup(
    ctx: &Ctx,
    w: &Workload,
    snapshot: &str,
    tr: &mut Tracer,
    parent: usize,
    col: &mut Collected,
) -> Result<(), String> {
    let setup_id = tr.id();
    let start = tr.now();
    let (graph, gen_ms) = wc_graph(w.seed)?;
    col.generate_ms.push(gen_ms);
    if let Some(theta) = w.spec.forward_theta {
        let (pool, ms) = tr.time(setup_id, "core.pool.build", || {
            SamplePool::build_with_threads(&graph, theta, workload::pool_seed(w.seed), ctx.threads)
        });
        let pool = pool.map_err(|e| format!("pool build: {e}"))?;
        col.set("core.pool.build_ms", ms);
        col.set("core.pool.bytes", pool.memory_bytes() as f64);
        col.set("core.pool.live_edges", pool.total_live_edges() as f64);
        if w.spec.save {
            let (summary, ms) = tr.time(setup_id, "core.snapshot.save", || {
                snapshot::save_snapshot(std::path::Path::new(snapshot), &graph, &pool, "perfbench")
            });
            let summary = summary.map_err(|e| format!("snapshot save: {e}"))?;
            col.set("core.snapshot.save_ms", ms);
            col.set("core.snapshot.bytes", summary.bytes_written as f64);
        }
    }
    if let Some(theta_r) = w.spec.sketch_theta {
        let (sketch, _) = tr.time(setup_id, "core.ris.build", || {
            SketchPool::build_with_threads(&graph, theta_r, w.first_sketch_seed(), ctx.threads)
        });
        let sketch = sketch.map_err(|e| format!("sketch build: {e}"))?;
        col.set("core.ris.bytes", sketch.memory_bytes() as f64);
    }
    tr.push(setup_id, parent, "setup", start);
    Ok(())
}

fn solved_kind(w: &Workload, r: &Record) -> Option<(&'static str, f64, u64, u64)> {
    match (r.op, r.answer()) {
        (Op::Query(q), Some(a)) => Some((
            w.questions[q as usize].kind(),
            r.latency_us() / 1e3,
            a.rounds,
            a.samples,
        )),
        _ => None,
    }
}

/// Solves `questions` one at a time, checking each answer.
fn probe_solves(
    graph: &DiGraph,
    pool: Option<&SamplePool>,
    sketch: Option<&SketchPool>,
    questions: &[Question],
    tr: &mut Tracer,
    parent: usize,
    col: &mut Collected,
) -> Vec<(&'static str, f64, u64, u64)> {
    let mut solved = Vec::new();
    for q in questions {
        let (outcome, ms) = tr.time(parent, &format!("probe.solve.{}", q.kind()), || {
            solve_question(graph, pool, sketch, q)
        });
        match outcome {
            Outcome::Answer { answer, .. } => {
                if let Err(e) = crate::reply::check_answer(q.asked(), &answer) {
                    col.errors.push(format!("probe {}: {e}", q.line(false)));
                }
                solved.push((q.kind(), ms, answer.rounds, answer.samples));
            }
            other => col
                .errors
                .push(format!("probe {}: {other:?}", q.line(false))),
        }
    }
    solved
}

/// Measures the core layers the workload's own schedule does not reach,
/// on the workload's graph: a θ=[`PROBE_THETA`] forward pool, a
/// θ_r=[`PROBE_SKETCH`] sketch pool and [`PROBE_QUESTIONS`] questions per
/// kind drawn from the workload's own seed pairs.
fn probe(
    ctx: &Ctx,
    w: &Workload,
    resident: &ResidentView,
    tr: &mut Tracer,
    parent: usize,
    col: &mut Collected,
) -> Result<(), String> {
    let graph = resident
        .graph
        .as_deref()
        .ok_or("probe: no resident graph")?;
    let pairs: Vec<[u32; 2]> = w
        .questions
        .iter()
        .take(PROBE_QUESTIONS)
        .map(|q| q.seeds)
        .collect();
    let ask =
        |alg: &'static str, budget: usize, intervene: Option<&'static str>| -> Vec<Question> {
            pairs
                .iter()
                .map(|&seeds| Question {
                    seeds,
                    budget,
                    alg,
                    intervene,
                })
                .collect()
        };
    let small = match &resident.pool {
        Some(pool) if pool.theta() <= PROBE_THETA => pool.clone(),
        _ => {
            let (pool, ms) = tr.time(parent, "probe.core.pool.build", || {
                SamplePool::build_with_threads(
                    graph,
                    PROBE_THETA,
                    workload::pool_seed(w.seed),
                    ctx.threads,
                )
            });
            let pool = pool.map_err(|e| format!("probe pool: {e}"))?;
            if !col.has("core.pool.build_ms") {
                col.set("core.pool.build_ms", ms);
                col.set("core.pool.bytes", pool.memory_bytes() as f64);
                col.set("core.pool.live_edges", pool.total_live_edges() as f64);
            }
            Arc::new(pool)
        }
    };
    let forward = resident.pool.clone().unwrap_or_else(|| small.clone());
    if !col.has("core.solver.advanced_p50_ms") {
        let mut questions = ask("advanced", 8, None);
        questions.extend(ask("replace", 8, None));
        let solved = probe_solves(graph, Some(&forward), None, &questions, tr, parent, col);
        col.solves(&solved);
    }
    if !col.has("core.intervene.edge_p50_ms") {
        let mut questions = ask("advanced", 2, Some("edge"));
        questions.extend(ask("advanced", 2, Some("prebunk:0.2")));
        let solved = probe_solves(graph, Some(&small), None, &questions, tr, parent, col);
        col.solves(&solved);
    }
    if !col.has("core.ris.build_ms") {
        let (sketch, ms) = tr.time(parent, "probe.core.ris.build", || {
            SketchPool::build_with_threads(graph, PROBE_SKETCH, w.first_sketch_seed(), ctx.threads)
        });
        let sketch = sketch.map_err(|e| format!("probe sketch: {e}"))?;
        col.set("core.ris.build_ms", ms);
        col.set("core.ris.bytes", sketch.memory_bytes() as f64);
        let solved = probe_solves(
            graph,
            None,
            Some(&sketch),
            &ask("ris", 8, None),
            tr,
            parent,
            col,
        );
        col.solves(&solved);
    }
    if !col.has("core.snapshot.save_ms") {
        let file = ctx.out.join(format!("probe-{}.snap", std::process::id()));
        let (summary, ms) = tr.time(parent, "probe.core.snapshot.save", || {
            snapshot::save_snapshot(&file, graph, &forward, "perfbench")
        });
        let summary = summary.map_err(|e| format!("probe save: {e}"))?;
        col.set("core.snapshot.save_ms", ms);
        col.set("core.snapshot.bytes", summary.bytes_written as f64);
        let mut loads = Vec::new();
        let mut maps = Vec::new();
        for _ in 0..PROBE_RESTORES {
            let (restored, ms) = tr.time(parent, "probe.core.snapshot.load", || {
                snapshot::load_snapshot(&file)
            });
            drop(restored.map_err(|e| format!("probe load: {e}"))?);
            loads.push(ms);
            let (restored, ms) = tr.time(parent, "probe.core.snapshot.map", || {
                snapshot::map_snapshot(&file)
            });
            drop(restored.map_err(|e| format!("probe map: {e}"))?);
            maps.push(ms);
        }
        let _ = std::fs::remove_file(&file);
        col.set(
            "core.snapshot.load_ms",
            median(&loads).expect("restores ran"),
        );
        col.set("core.snapshot.map_ms", median(&maps).expect("restores ran"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, w: &Workload, question_gen_ms: f64) -> Result<RunResult, String> {
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        next: 0,
    };
    let root = tr.id();
    let root_start = tr.now();
    let mut col = Collected {
        layers: BTreeMap::new(),
        generate_ms: vec![question_gen_ms],
        errors: Vec::new(),
    };
    let snapshot = ctx.snapshot_path(w);
    let lane_ids: Vec<usize> = LANES.iter().map(|_| tr.id()).collect();
    let lane_start = tr.now();

    // Set-ups, each on fresh state; the core one first, so that its
    // throw-away pool is gone before the four resident ones exist.
    core_setup(ctx, w, &snapshot, &mut tr, lane_ids[4], &mut col)?;
    let untraced_server = server_lane(ctx, w, &snapshot, &mut tr, lane_ids[0])?;
    let traced_server = server_lane(ctx, w, &snapshot, &mut tr, lane_ids[1])?;
    let line_engine = line_lane(ctx, w, &snapshot, &mut tr, lane_ids[2])?;
    let engine = engine_lane(ctx, w, &snapshot, &mut tr, lane_ids[3], &mut col)?;

    // The check prefix, each operation through all five lanes back to
    // back — in an order rotating with the operation — so every pair of
    // lanes is timed under the same machine conditions.
    let untraced = TcpPath {
        server: &untraced_server,
        workload: w,
        trace: false,
        snapshot: &snapshot,
    };
    let tcp = TcpPath {
        server: &traced_server,
        workload: w,
        trace: true,
        snapshot: &snapshot,
    };
    let line = LinePath {
        engine: &line_engine,
        workload: w,
        trace: true,
        snapshot: &snapshot,
    };
    let direct = EnginePath {
        engine: &engine,
        workload: w,
        snapshot: &snapshot,
    };
    let solve = SolvePath {
        engine: &engine,
        workload: w,
        snapshot: &snapshot,
        threads: ctx.threads,
    };
    let clients: Vec<(Conn, Conn)> = (0..ctx.threads)
        .map(|_| Ok((untraced_server.connect()?, traced_server.connect()?)))
        .collect::<Result<_, String>>()?;
    let origin = tr.origin;
    let plan = Plan {
        clients: ctx.threads,
        min_ops: w.spec.check_ops,
        duration: None,
    };
    let replayed = replay_with(w, &plan, clients, &|conns, idx, op| {
        (0..LANES.len())
            .map(|k| match (idx + k) % LANES.len() {
                0 => timed(&untraced, &mut conns.0, idx, op, origin, 0),
                1 => timed(&tcp, &mut conns.1, idx, op, origin, 1),
                2 => timed(&line, &mut (), idx, op, origin, 2),
                3 => timed(&direct, &mut (), idx, op, origin, 3),
                _ => timed(&solve, &mut (), idx, op, origin, 4),
            })
            .collect()
    })?;
    let stats = engine.stats();
    drop((untraced_server, traced_server, line_engine));
    let lanes: Vec<PathRun> = (0..LANES.len())
        .map(|lane| PathRun {
            records: replayed
                .records
                .iter()
                .filter(|r| r.lane == lane)
                .cloned()
                .collect(),
        })
        .collect();
    for (lane, run) in lanes.iter().enumerate() {
        tr.records(lane_ids[lane], &run.records);
    }

    // Correctness: every lane checks out and answers every question of
    // the prefix identically, traced or not, over TCP or in process.
    let digest = check::digest(w, &lanes[0].records);
    for (name, run) in LANES.iter().zip(&lanes) {
        for e in check::check_records(w, &run.records) {
            col.errors.push(format!("{name}: {e}"));
        }
        if check::digest(w, &run.records) != digest {
            col.errors
                .push(format!("{name}: answers digest differs from tcp_untraced"));
        }
    }
    if let Some(d) = digest {
        col.errors.extend(check::check_digest_store(
            &ctx.digest_store(),
            w.spec.name,
            w.seed,
            d,
        ));
    }

    // Core figures from the solve lane.
    let solve_run = &lanes[4];
    let solved: Vec<_> = solve_run
        .records
        .iter()
        .filter_map(|r| solved_kind(w, r))
        .collect();
    col.solves(&solved);
    let write_ms = |pred: &dyn Fn(Op) -> bool| -> Vec<f64> {
        solve_run
            .records
            .iter()
            .filter(|r| pred(r.op))
            .map(|r| r.latency_us() / 1e3)
            .collect()
    };
    if w.spec.sketch_theta.is_some() {
        // The set-up build is span `core.ris.build`; rebuilds are ops.
        let mut builds = write_ms(&|op| matches!(op, Op::Rebuild(_)));
        builds.extend(
            tr.spans
                .iter()
                .filter(|s| s.name == "core.ris.build")
                .map(|s| (s.end_us - s.start_us) / 1e3),
        );
        col.set(
            "core.ris.build_ms",
            median(&builds).expect("set-up built a sketch"),
        );
    }
    if let Some(m) = median(&write_ms(&|op| op == Op::Restore(RestoreKind::Copy))) {
        col.set("core.snapshot.load_ms", m);
    }
    if let Some(m) = median(&write_ms(&|op| op == Op::Restore(RestoreKind::Map))) {
        col.set("core.snapshot.map_ms", m);
    }
    for (lane, name) in LANES.iter().enumerate() {
        tr.push(lane_ids[lane], root, &format!("path.{name}"), lane_start);
    }
    let probe_id = tr.id();
    let probe_start = tr.now();
    probe(ctx, w, &engine.view(), &mut tr, probe_id, &mut col)?;
    drop(engine);
    tr.push(probe_id, root, "probe", probe_start);
    let _ = std::fs::remove_file(&snapshot);
    col.set(
        "graph.generate_ms",
        median(&col.generate_ms).expect("graphs were generated"),
    );

    // Phases, from the traced TCP replies of computed answers.
    let computed: Vec<&crate::reply::Answer> = lanes[1]
        .records
        .iter()
        .filter(|r| r.disposition() == Some("computed"))
        .filter_map(Record::answer)
        .collect();
    let phase_total = |name: &str| -> f64 {
        computed
            .iter()
            .flat_map(|a| a.trace.iter().flat_map(|t| t.phases.iter()))
            .filter(|(p, _)| name.is_empty() || p == name)
            .map(|(_, us)| *us as f64)
            .sum()
    };
    let n_computed = computed.len().max(1) as f64;
    for (phase, name) in [
        ("decode", "core.phase.decode_us"),
        ("bfs", "core.phase.bfs_us"),
        ("domtree", "core.phase.domtree_us"),
        ("credit", "core.phase.credit_us"),
        ("select", "core.phase.select_us"),
        ("cover", "core.phase.cover_us"),
    ] {
        col.set(name, phase_total(phase) / n_computed);
    }
    let elapsed: f64 = computed.iter().map(|a| a.elapsed_us as f64).sum();
    col.set(
        "core.phase.unattributed_frac",
        if elapsed > 0.0 {
            1.0 - phase_total("") / elapsed
        } else {
            0.0
        },
    );

    // Layer self times, paired per operation between adjacent paths.
    let (t_b, t_c, t_d, t_e) = (
        lanes[1].answered(),
        lanes[2].answered(),
        lanes[3].answered(),
        lanes[4].answered(),
    );
    let lat = |v: &[(usize, f64, String)]| -> Vec<f64> { v.iter().map(|x| x.1).collect() };
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("too few samples for {what}"));
    col.set(
        "engine.query_p50_us",
        need(percentile(&lat(&t_d), 0.5), "engine p50")?,
    );
    col.set(
        "protocol.answer_line_p50_us",
        need(percentile(&lat(&t_c), 0.5), "answer_line p50")?,
    );
    let (o, i) = matched(&t_b, &t_c, None);
    let wire = need(layer_self_time(&o, &i), "server.wire_us")?;
    col.set("server.wire_us", wire);
    let (o, i) = matched(&t_c, &t_d, None);
    let protocol = need(layer_self_time(&o, &i), "protocol.overhead_us")?;
    col.set("protocol.overhead_us", protocol);
    let (o, i) = matched(&t_d, &t_e, Some("computed"));
    let engine_self = need(layer_self_time(&o, &i), "engine.overhead_us")?;
    col.set("engine.overhead_us", engine_self);
    // Accounting over the operations every path computed.
    let all_computed: Vec<usize> = {
        let computed_in = |v: &[(usize, f64, String)]| -> std::collections::HashSet<usize> {
            v.iter()
                .filter(|x| x.2 == "computed")
                .map(|x| x.0)
                .collect()
        };
        let (c, d) = (computed_in(&t_c), computed_in(&t_d));
        computed_in(&t_b)
            .into_iter()
            .filter(|i| c.contains(i) && d.contains(i))
            .collect()
    };
    let keyed = |v: &[(usize, f64, String)]| -> Vec<(usize, f64)> {
        v.iter()
            .filter(|x| all_computed.contains(&x.0))
            .map(|x| (x.0, x.1))
            .collect()
    };
    let (kb, kc, kd, ke) = (keyed(&t_b), keyed(&t_c), keyed(&t_d), keyed(&t_e));
    let sum_self = median(&ke.iter().map(|x| x.1).collect::<Vec<_>>())
        .zip(layer_self_time(&kd, &ke))
        .zip(layer_self_time(&kc, &kd))
        .zip(layer_self_time(&kb, &kc))
        .map(|(((core, eng), proto), wire)| core + eng + proto + wire);
    let tcp_median = median(&kb.iter().map(|x| x.1).collect::<Vec<_>>());
    col.set(
        "layers.accounting_ratio",
        need(sum_self.zip(tcp_median).map(|(s, t)| s / t), "accounting")?,
    );
    // Closed loop: throughput is the inverse of mean latency, so the
    // traced/untraced qps ratio is the untraced/traced mean-latency ratio.
    let mean_untraced = mean(&lanes[0].query_latencies_us()).unwrap_or(0.0);
    let mean_traced = mean(&lanes[1].query_latencies_us()).unwrap_or(0.0);
    col.set("obs.trace_overhead_frac", 1.0 - mean_untraced / mean_traced);
    col.set(
        "engine.cache_hit_frac",
        stats.cache_hits as f64 / stats.queries.max(1) as f64,
    );
    col.set("engine.coalesced", stats.coalesced as f64);
    col.set("engine.computed", stats.computed as f64);
    col.set("engine.rejected", stats.rejected as f64);

    tr.push(root, 0, "run", root_start);
    tr.write(
        &ctx.out
            .join(format!("{}-seed{}-spans.jsonl", w.spec.name, w.seed)),
    )?;

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = *col
            .layers
            .get(name)
            .ok_or(format!("traced run did not measure {name}"))?;
        metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }
    let n_queries = lanes[1].query_latencies_us().len();
    let extras = vec![
        Metric {
            name: "tcp_untraced_mean_ms".into(),
            value: mean_untraced / 1e3,
            unit: "ms",
            samples: Some(n_queries),
        },
        Metric {
            name: "tcp_traced_mean_ms".into(),
            value: mean_traced / 1e3,
            unit: "ms",
            samples: Some(n_queries),
        },
        Metric {
            name: "solve_mean_ms".into(),
            value: mean(&lat(&t_e)).unwrap_or(0.0) / 1e3,
            unit: "ms",
            samples: Some(t_e.len()),
        },
    ];
    let failed = lanes[1]
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Failed { .. }))
        .count();
    Ok(RunResult {
        errors: col.errors,
        attempted: n_queries as u64,
        failed: failed as u64,
        metrics,
        extras,
        digest,
    })
}
