//! Replaying a schedule through one path — TCP, `answer_line`, the engine
//! or the solver — with a closed loop of client threads.

use crate::reply::{parse_answer, parse_reply, Answer, Reply};
use crate::server::{Conn, Server};
use crate::workload::{Op, RestoreKind, Workload};
use imin_core::{snapshot, ContainmentRequest, SamplePool, SketchPool};
use imin_engine::{answer_line, EngineError, Query, QueryResult, RestoreMode, SharedEngine};
use imin_graph::DiGraph;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How one operation ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A question answered; `disposition` is `computed`, `cache_hit` or
    /// `coalesced` where the path reports it.
    Answer {
        answer: Answer,
        disposition: Option<String>,
    },
    /// An `ERR` reply (or engine error); `busy` for admission rejections.
    Failed { reason: String, busy: bool },
    /// A write (`POOL` rebuild, `RESTORE`) that succeeded.
    Done,
}

/// One executed operation, timed from the run's origin.
#[derive(Clone, Debug)]
pub struct Record {
    pub idx: usize,
    /// Which path ran it, when several replay one schedule side by side.
    pub lane: usize,
    pub op: Op,
    pub start_us: f64,
    pub end_us: f64,
    pub outcome: Outcome,
}

impl Record {
    pub fn latency_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    pub fn answer(&self) -> Option<&Answer> {
        match &self.outcome {
            Outcome::Answer { answer, .. } => Some(answer),
            _ => None,
        }
    }

    pub fn disposition(&self) -> Option<&str> {
        match &self.outcome {
            Outcome::Answer { disposition, .. } => disposition.as_deref(),
            _ => None,
        }
    }
}

/// A layer the schedule can be replayed through. `exec` errors are fatal
/// (I/O failure, unparsable reply); `ERR` replies are [`Outcome::Failed`].
pub trait Path: Sync {
    type Client: Send;
    fn client(&self) -> Result<Self::Client, String>;
    fn exec(&self, client: &mut Self::Client, op: Op) -> Result<Outcome, String>;
}

/// When a replay stops taking new operations.
pub struct Plan {
    pub clients: usize,
    /// Operations `0..min_ops` always run.
    pub min_ops: usize,
    /// Past `min_ops`, keep going until this much time has passed
    /// (`None`: stop at `min_ops`).
    pub duration: Option<Duration>,
}

/// A finished replay: its records in schedule order and its wall time.
pub struct Replay {
    pub records: Vec<Record>,
    pub wall_s: f64,
}

struct Gate {
    next: usize,
    closed: bool,
    completed: usize,
    writes_done: usize,
}

/// Times one operation on one path.
pub fn timed<P: Path>(
    path: &P,
    client: &mut P::Client,
    idx: usize,
    op: Op,
    origin: Instant,
    lane: usize,
) -> Result<Record, String> {
    let start_us = origin.elapsed().as_secs_f64() * 1e6;
    let outcome = path.exec(client, op)?;
    let end_us = origin.elapsed().as_secs_f64() * 1e6;
    Ok(Record {
        idx,
        lane,
        op,
        start_us,
        end_us,
        outcome,
    })
}

/// Replays `workload.ops` through `path` with `plan.clients` closed-loop
/// clients (see [`replay_with`]).
pub fn replay<P: Path>(
    path: &P,
    workload: &Workload,
    plan: &Plan,
    origin: Instant,
) -> Result<Replay, String> {
    let clients: Vec<P::Client> = (0..plan.clients.max(1))
        .map(|_| path.client())
        .collect::<Result<_, _>>()?;
    replay_with(workload, plan, clients, &|client, idx, op| {
        Ok(vec![timed(path, client, idx, op, origin, 0)?])
    })
}

/// Runs operation `idx` for one client, returning its records.
pub type OpExec<'a, C> = dyn Fn(&mut C, usize, Op) -> Result<Vec<Record>, String> + Sync + 'a;

/// Replays `workload.ops` with one thread per client: each takes the next
/// operation, runs it through `exec` and takes the next. Writes are
/// barriers (see [`Op`]); operations are handed out in schedule order, so
/// a replay always covers a prefix of the schedule.
pub fn replay_with<C: Send>(
    workload: &Workload,
    plan: &Plan,
    clients: Vec<C>,
    exec: &OpExec<'_, C>,
) -> Result<Replay, String> {
    let ops = &workload.ops;
    // writes_before[i]: how many writes precede operation i.
    let mut writes_before = Vec::with_capacity(ops.len());
    let mut writes = 0usize;
    for op in ops {
        writes_before.push(writes);
        writes += usize::from(!matches!(op, Op::Query(_)));
    }
    let limit = match plan.duration {
        Some(_) => ops.len(),
        None => plan.min_ops.min(ops.len()),
    };
    let gate = Mutex::new(Gate {
        next: 0,
        closed: false,
        completed: 0,
        writes_done: 0,
    });
    let changed = Condvar::new();
    let aborted = AtomicBool::new(false);
    let start = Instant::now();
    let take = || -> Option<usize> {
        let mut g = gate.lock().expect("gate lock");
        let over = plan.duration.is_some_and(|d| start.elapsed() >= d);
        if g.closed || g.next >= limit || (g.next >= plan.min_ops && over) {
            g.closed = true;
            return None;
        }
        g.next += 1;
        Some(g.next - 1)
    };
    let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (take, gate, changed, aborted) = (&take, &gate, &changed, &aborted);
                let writes_before = &writes_before;
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut records = Vec::new();
                    while let Some(idx) = take() {
                        let op = ops[idx];
                        let is_write = !matches!(op, Op::Query(_));
                        {
                            let mut g = gate.lock().expect("gate lock");
                            while !aborted.load(Ordering::SeqCst)
                                && if is_write {
                                    g.completed < idx
                                } else {
                                    g.writes_done < writes_before[idx]
                                }
                            {
                                g = changed.wait(g).expect("gate lock");
                            }
                        }
                        if aborted.load(Ordering::SeqCst) {
                            break;
                        }
                        let outcome = exec(&mut client, idx, op);
                        let mut g = gate.lock().expect("gate lock");
                        g.completed += 1;
                        g.writes_done += usize::from(is_write);
                        changed.notify_all();
                        match outcome {
                            Ok(done) => records.extend(done),
                            Err(e) => {
                                aborted.store(true, Ordering::SeqCst);
                                g.closed = true;
                                return Err(e);
                            }
                        }
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    records.sort_by_key(|r| (r.idx, r.lane));
    Ok(Replay { records, wall_s })
}

/// Maps one schedule operation to its protocol line.
pub fn op_line(workload: &Workload, op: Op, trace: bool, snapshot: &str) -> String {
    match op {
        Op::Query(q) => workload.questions[q as usize].line(trace),
        Op::Rebuild(seed) => format!(
            "POOL {} {seed} backend=sketch",
            workload
                .spec
                .sketch_theta
                .expect("rebuilds need a sketch pool")
        ),
        Op::Restore(kind) => format!("RESTORE {snapshot} mode={}", kind.label()),
    }
}

/// Turns the reply to `op`'s line into an [`Outcome`]. A reply that does
/// not parse is fatal.
pub fn line_outcome(op: Op, reply: &str) -> Result<Outcome, String> {
    let parsed = parse_reply(reply)?;
    Ok(match (&parsed, op) {
        (
            Reply::Err {
                reason,
                busy_retry_ms,
            },
            _,
        ) => Outcome::Failed {
            reason: reason.clone(),
            busy: busy_retry_ms.is_some(),
        },
        (Reply::Ok { .. }, Op::Query(_)) => {
            let answer = parse_answer(&parsed)?;
            let disposition = answer.trace.as_ref().map(|t| t.disposition.clone());
            Outcome::Answer {
                answer,
                disposition,
            }
        }
        (Reply::Ok { .. }, _) => Outcome::Done,
    })
}

/// Demands that `reply`, the answer to `line`, is `OK`.
pub fn expect_ok(reply: &str, line: &str) -> Result<(), String> {
    match parse_reply(reply)? {
        Reply::Ok { .. } => Ok(()),
        Reply::Err { reason, .. } => Err(format!("{line:?} failed: ERR {reason}")),
    }
}

/// The workload over TCP against a running server.
pub struct TcpPath<'a> {
    pub server: &'a Server,
    pub workload: &'a Workload,
    pub trace: bool,
    pub snapshot: &'a str,
}

impl Path for TcpPath<'_> {
    type Client = Conn;

    fn client(&self) -> Result<Conn, String> {
        self.server.connect()
    }

    fn exec(&self, conn: &mut Conn, op: Op) -> Result<Outcome, String> {
        let reply = conn.request(&op_line(self.workload, op, self.trace, self.snapshot))?;
        line_outcome(op, &reply)
    }
}

/// The same request lines, answered in process by `answer_line`.
pub struct LinePath<'a> {
    pub engine: &'a SharedEngine,
    pub workload: &'a Workload,
    pub trace: bool,
    pub snapshot: &'a str,
}

impl Path for LinePath<'_> {
    type Client = ();

    fn client(&self) -> Result<(), String> {
        Ok(())
    }

    fn exec(&self, _: &mut (), op: Op) -> Result<Outcome, String> {
        let line = op_line(self.workload, op, self.trace, self.snapshot);
        let (reply, _) = answer_line(&line, self.engine);
        line_outcome(op, &reply)
    }
}

/// An engine or solver answer in the reply's terms.
fn answer_of(
    blockers: &[imin_graph::VertexId],
    edges: &[(imin_graph::VertexId, imin_graph::VertexId)],
    spread: Option<f64>,
    rounds: usize,
    samples: usize,
) -> Answer {
    Answer {
        blockers: blockers.iter().map(|b| b.raw()).collect(),
        edges: (!edges.is_empty()).then(|| edges.iter().map(|(u, v)| (u.raw(), v.raw())).collect()),
        spread: spread.map_or_else(|| "nan".to_string(), |s| format!("{s:.6}")),
        rounds: rounds as u64,
        samples: samples as u64,
        ..Answer::default()
    }
}

fn restore_mode(kind: RestoreKind) -> RestoreMode {
    match kind {
        RestoreKind::Copy => RestoreMode::Copy,
        RestoreKind::Map => RestoreMode::Map,
    }
}

/// `SharedEngine` calls, bypassing the protocol.
pub struct EnginePath<'a> {
    pub engine: &'a SharedEngine,
    pub workload: &'a Workload,
    pub snapshot: &'a str,
}

impl Path for EnginePath<'_> {
    type Client = ();

    fn client(&self) -> Result<(), String> {
        Ok(())
    }

    fn exec(&self, _: &mut (), op: Op) -> Result<Outcome, String> {
        let failed = |e: EngineError| Outcome::Failed {
            busy: matches!(e, EngineError::Busy { .. }),
            reason: e.to_string(),
        };
        Ok(match op {
            Op::Query(q) => {
                let q = &self.workload.questions[q as usize];
                let query = Query {
                    seeds: q.seed_vertices(),
                    budget: q.budget,
                    algorithm: q.algorithm(),
                    intervention: q.intervention(),
                };
                match self.engine.query(&query) {
                    Ok(r) => engine_outcome(&r),
                    Err(e) => failed(e),
                }
            }
            Op::Rebuild(seed) => {
                let theta_r = self.workload.spec.sketch_theta.expect("sketch workload");
                match self.engine.ensure_sketch_pool(theta_r, seed) {
                    Ok(_) => Outcome::Done,
                    Err(e) => failed(e),
                }
            }
            Op::Restore(kind) => {
                match self
                    .engine
                    .restore_snapshot_with(self.snapshot, restore_mode(kind))
                {
                    Ok(_) => Outcome::Done,
                    Err(e) => failed(e),
                }
            }
        })
    }
}

fn engine_outcome(r: &QueryResult) -> Outcome {
    let mut answer = answer_of(
        &r.blockers,
        &r.blocked_edges,
        r.estimated_spread,
        r.rounds,
        r.samples_consulted,
    );
    answer.cached = r.from_cache;
    answer.elapsed_us = r.elapsed.as_micros() as u64;
    Outcome::Answer {
        answer,
        disposition: Some(r.disposition.as_str().to_string()),
    }
}

/// `AlgorithmKind::solver().solve` on an engine's resident pools: the core
/// alone. Writes time the core call they stand for (a sketch build, a
/// snapshot load or map) and drop its result; questions always read the
/// engine's current pools.
pub struct SolvePath<'a> {
    pub engine: &'a SharedEngine,
    pub workload: &'a Workload,
    pub snapshot: &'a str,
    pub threads: usize,
}

impl Path for SolvePath<'_> {
    type Client = ();

    fn client(&self) -> Result<(), String> {
        Ok(())
    }

    fn exec(&self, _: &mut (), op: Op) -> Result<Outcome, String> {
        let view = self.engine.view();
        let graph = view.graph.ok_or("solve path: engine has no graph")?;
        match op {
            Op::Query(q) => {
                let q = &self.workload.questions[q as usize];
                Ok(solve_question(
                    &graph,
                    view.pool.as_deref(),
                    view.sketch.as_deref(),
                    q,
                ))
            }
            Op::Rebuild(seed) => {
                let theta_r = self.workload.spec.sketch_theta.expect("sketch workload");
                SketchPool::build_with_threads(&graph, theta_r, seed, self.threads)
                    .map_err(|e| format!("sketch rebuild: {e}"))?;
                Ok(Outcome::Done)
            }
            Op::Restore(kind) => {
                let path = std::path::Path::new(self.snapshot);
                match kind {
                    RestoreKind::Copy => snapshot::load_snapshot(path),
                    RestoreKind::Map => snapshot::map_snapshot(path),
                }
                .map_err(|e| format!("restore: {e}"))?;
                Ok(Outcome::Done)
            }
        }
    }
}

/// Solves one question single-threaded on the given pools, as the engine
/// would with `--query-threads 1`.
pub fn solve_question(
    graph: &DiGraph,
    pool: Option<&SamplePool>,
    sketch: Option<&SketchPool>,
    q: &crate::workload::Question,
) -> Outcome {
    let builder = ContainmentRequest::builder(graph)
        .seeds(q.seed_vertices())
        .budget(q.budget)
        .intervention(q.intervention());
    let builder = match (q.alg, pool, sketch) {
        ("ris", _, Some(sketch)) => builder.sketch_pooled(sketch, 1),
        (_, Some(pool), _) => builder.pooled_with_threads(pool, 1),
        _ => {
            return Outcome::Failed {
                reason: "no resident pool for this question".into(),
                busy: false,
            }
        }
    };
    let result = builder
        .build()
        .and_then(|request| q.algorithm().solver().solve(graph, &request));
    match result {
        Ok(sel) => Outcome::Answer {
            answer: answer_of(
                &sel.blockers,
                &sel.blocked_edges,
                sel.estimated_spread,
                sel.stats.rounds,
                sel.stats.samples_drawn,
            ),
            disposition: Some("computed".into()),
        },
        Err(e) => Outcome::Failed {
            reason: e.to_string(),
            busy: false,
        },
    }
}
