//! The newline-delimited text protocol spoken by `imin-serve`.
//!
//! Every request is one line; every reply is one line starting with `OK `
//! or `ERR `. Parse errors never drop the connection — the server answers
//! `ERR <reason>` and keeps reading. Verbs are case-insensitive. The one
//! multi-line exception is `METRICS`: its `OK lines=<n>` header announces
//! exactly `n` further lines of Prometheus text-format exposition, so
//! line-oriented clients know precisely how much to read.
//!
//! ```text
//! LOAD pa n=5000 m0=4 seed=7 model=wc        load a preferential-attachment graph
//! LOAD er n=500 p=0.01 seed=3 model=const:0.1  load an Erdős–Rényi graph
//! LOAD file /path/to/edges.txt model=wc      load an edge list from disk
//! POOL 10000 42                              make θ=10000 realisations (seed 42) resident
//! POOL 20000 42 backend=sketch               make θ_r=20000 reverse sketches resident
//! QUERY ic seeds=1,2,3 budget=10 alg=advanced  answer one containment question
//! QUERY ic seeds=1,2 budget=5 trace=1        same, with a per-phase trace in the reply
//! QUERY ic seeds=1 budget=5 intervene=edge   spend the budget on edge removals
//! QUERY ic seeds=1 budget=5 intervene=prebunk:0.25  prebunk vertices to accept with p*0.25
//! SAVE /var/lib/imin/wc50k.iminsnap          snapshot the graph + resident pool to disk
//! RESTORE /var/lib/imin/wc50k.iminsnap       warm-start from a snapshot file (bulk copy)
//! RESTORE /var/lib/imin/wc50k.iminsnap mode=map  warm-start zero-copy via mmap
//! COMPRESS                                   re-encode the resident pool in place
//! STATS                                      engine counters, pool facts and provenance
//! METRICS                                    Prometheus text exposition (multi-line reply)
//! PING                                       liveness probe
//! QUIT                                       close this connection
//! ```
//!
//! `POOL` is idempotent and incremental: when the resident pool already has
//! the requested `(θ, seed)` the request is a no-op (`source=resident`, the
//! result cache survives), and when it has the same seed but a smaller θ
//! the pool is grown in place (`source=extended`) — bit-identical to a
//! fresh θ build — so only genuinely different pools are resampled
//! (`source=built`). `POOL` additionally accepts `backend=forward|sketch`
//! (default `forward`): `backend=sketch` makes a pool of θ_r
//! reverse-reachable sketches resident instead, the estimator `ris-greedy`
//! queries run on. The two backends are independently resident — building
//! one never evicts the other — and the sketch reply carries `backend=sketch`
//! plus sketch facts (`members=`, `avg_size=`) so clients can tell them
//! apart. Sketch pools never extend in place: a changed `(θ_r, seed)`
//! always rebuilds (`source=built`). `SAVE`/`RESTORE` persist the *forward*
//! pool in the versioned
//! binary snapshot format of [`imin_core::snapshot`]; a restored engine
//! answers queries byte-identically to the engine that saved it. Both take
//! exactly one whitespace-free path argument; `RESTORE` additionally
//! accepts `mode=copy` (default: bulk-read the file into owned arenas) or
//! `mode=map` (serve sample data zero-copy out of a memory-mapped v2
//! snapshot — pages fault in lazily, so the first query is ready long
//! before a bulk read would finish). `COMPRESS` re-encodes the resident
//! pool into the delta-varint/bitset arena without touching the result
//! cache — compressed pools answer byte-identically. Sketch pools have no
//! snapshot format: `SAVE` while only a sketch pool is resident answers
//! `ERR backend unsupported: …`.
//!
//! `model=` accepts `wc` (weighted cascade), `tri` / `tri:<seed>`
//! (trivalency), `const:<p>`, and `keep` (use probabilities as loaded;
//! generator graphs carry the generator's uniform probability). The
//! `QUERY` model token must be `ic` — the resident pool stores IC
//! live-edge realisations. `alg=` accepts any name, label or alias of the
//! [`imin_core::AlgorithmKind`] registry (`advanced`/`ag`, `replace`/`gr`,
//! `outdegree`/`od`, `random`/`ra`, …); algorithms that cannot run against
//! a resident pool (`baseline`, `exact`) parse fine and answer with an
//! `ERR` explaining the unsupported backend.
//!
//! `intervene=` selects the intervention family the budget buys:
//! `vertex` (the default — block vertices, the paper's question), `edge`
//! (remove edges), or `prebunk:<alpha>` (prebunked vertices accept
//! incoming activations with probability scaled by `alpha ∈ [0, 1]`).
//! Edge replies carry `edges=u-v,…` instead of `blockers=`. Not every
//! algorithm×backend combination supports every family — `ris-greedy`
//! (and the sketch backend generally) answers vertex requests only — and
//! unsupported combinations answer a typed
//! `ERR intervention unsupported: …` naming the algorithm, backend and
//! family. `docs/protocol.md` tables the full support matrix.
//!
//! ## Serving under load
//!
//! Queries from different connections execute concurrently against the
//! shared pool (see [`crate::shared`]); the protocol surface grows two
//! things with that:
//!
//! * **`ERR busy retry_after_ms=<hint>`** — the admission budget
//!   (`max_inflight` concurrently *computing* queries) is exhausted. The
//!   request itself is fine; back off roughly `<hint>` milliseconds (the
//!   p95 of the server's compute-latency histogram — robust against a
//!   single pathological query, unlike a running mean) and resend. Cache
//!   hits and coalesced duplicates are never rejected.
//! * **`STATS` serving counters** — beyond the original fields, the reply
//!   carries `query_threads=` and `max_inflight=` (configuration),
//!   `inflight=` (gauge: queries computing right now), `coalesced=`
//!   (queries answered by waiting on an identical in-flight computation),
//!   `rejected=` (busy rejections), `computed=` (queries that actually
//!   consulted the pool; `queries = cache_hits + coalesced + rejected +
//!   computed + failed`), and per-verb latency sums `lat_load_us=`,
//!   `lat_pool_us=`, `lat_query_us=`, `lat_save_us=`, `lat_restore_us=`
//!   (each the sum of the corresponding `METRICS` latency histogram).
//!   The line ends with `samples_consulted=` (θ per greedy round over all
//!   computed queries) and `samples_repriced=` (realisations the kernel
//!   actually evaluated), mirrored by the `METRICS` counters
//!   `imin_query_samples_consulted_total` and
//!   `imin_query_samples_repriced_total`.
//!
//! ## Observability
//!
//! * **`QUERY … trace=1`** — the `OK` reply additionally carries
//!   `trace_id=<id>` (the engine-assigned request id, also written to the
//!   access log), `disposition=<computed|cache_hit|coalesced>`, and
//!   `phases=<name>:<µs>,…` — the per-phase wall-clock breakdown of the
//!   computation that produced the answer (`phases=none` when the server
//!   runs with `--no-obs`). Cache hits and coalesced answers report the
//!   breakdown of the original computation.
//! * **`METRICS`** — the full Prometheus text-format exposition: serving
//!   counters, resident graph/pool gauges, and latency histograms per
//!   verb, per algorithm and per query/snapshot phase. The reply is
//!   `OK lines=<n>` followed by exactly `n` exposition lines.
//!
//! `ERR internal: <reason>` reports a panicking request handler: the
//! engine recovers (no lock stays poisoned) and the connection stays open.

use crate::engine::{PoolBackend, Query, RestoreMode};
use imin_core::{AlgorithmKind, Intervention};
use imin_graph::VertexId;

/// Every verb the parser accepts, in documentation order. The normative
/// protocol reference (`docs/protocol.md`) must carry one section heading
/// per entry — a test enumerates this table against the doc.
pub const VERBS: &[&str] = &[
    "LOAD", "POOL", "QUERY", "SAVE", "RESTORE", "COMPRESS", "STATS", "METRICS", "PING", "QUIT",
];

/// Probability model applied to a freshly loaded topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelSpec {
    /// Weighted cascade: `p(u, v) = 1 / d_in(v)`.
    WeightedCascade,
    /// Trivalency: each edge uniformly picks 0.1 / 0.01 / 0.001.
    Trivalency {
        /// RNG seed for the per-edge draws.
        seed: u64,
    },
    /// Every edge gets the same probability.
    Constant(f64),
    /// Keep the probabilities the graph already carries.
    Keep,
}

/// What graph to load.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadSpec {
    /// `LOAD pa n=.. m0=.. [bidir=true|false] seed=.. model=..`
    PreferentialAttachment {
        /// Number of vertices.
        n: usize,
        /// Edges attached per arriving vertex.
        m0: usize,
        /// Whether each attachment adds both directions.
        bidirectional: bool,
        /// Generator seed.
        seed: u64,
        /// Probability model applied after generation.
        model: ModelSpec,
    },
    /// `LOAD er n=.. p=.. seed=.. model=..`
    ErdosRenyi {
        /// Number of vertices.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator seed.
        seed: u64,
        /// Probability model applied after generation.
        model: ModelSpec,
    },
    /// `LOAD file <path> model=..`
    File {
        /// Path to a whitespace-separated edge list.
        path: String,
        /// Probability model applied after loading.
        model: ModelSpec,
    },
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load a graph, dropping any pool and cached results.
    Load(LoadSpec),
    /// Build the resident sample pool (forward realisations or reverse
    /// sketches, per `backend=`).
    Pool {
        /// Number of realisations θ (forward) or sketches θ_r (sketch).
        theta: usize,
        /// Base pool seed.
        seed: u64,
        /// Which estimator family to make resident (`backend=forward`,
        /// the default, or `backend=sketch`).
        backend: PoolBackend,
    },
    /// Answer one containment question.
    Query {
        /// The parsed question.
        query: Query,
        /// Whether the reply should carry a per-phase trace (`trace=1`).
        trace: bool,
    },
    /// Snapshot the loaded graph and resident pool to a file.
    Save {
        /// Destination path (single whitespace-free token).
        path: String,
    },
    /// Warm-start the engine from a snapshot file.
    Restore {
        /// Source path (single whitespace-free token).
        path: String,
        /// Bulk copy (default) or zero-copy mmap.
        mode: RestoreMode,
    },
    /// Re-encode the resident pool into the compressed arena.
    Compress,
    /// Report engine counters and pool facts.
    Stats,
    /// Emit the Prometheus text-format exposition (multi-line reply).
    Metrics,
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

fn parse_kv(token: &str) -> Result<(&str, &str), String> {
    token
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got '{token}'"))
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}' for {key}"))
}

fn parse_model(value: &str) -> Result<ModelSpec, String> {
    let lower = value.to_ascii_lowercase();
    if lower == "wc" {
        return Ok(ModelSpec::WeightedCascade);
    }
    if lower == "keep" {
        return Ok(ModelSpec::Keep);
    }
    if lower == "tri" {
        return Ok(ModelSpec::Trivalency { seed: 0 });
    }
    if let Some(seed) = lower.strip_prefix("tri:") {
        return Ok(ModelSpec::Trivalency {
            seed: parse_num("tri seed", seed)?,
        });
    }
    if let Some(p) = lower.strip_prefix("const:") {
        return Ok(ModelSpec::Constant(parse_num("const probability", p)?));
    }
    Err(format!(
        "unknown model '{value}' (expected wc, tri[:seed], const:<p> or keep)"
    ))
}

fn parse_seeds(value: &str) -> Result<Vec<VertexId>, String> {
    if value.is_empty() {
        return Err("seeds= must list at least one vertex".into());
    }
    value
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map(VertexId::from_raw)
                .map_err(|_| format!("invalid seed vertex '{tok}'"))
        })
        .collect()
}

/// Algorithm names resolve through the one [`AlgorithmKind`] registry —
/// the protocol has no name table of its own.
fn parse_algorithm(value: &str) -> Result<AlgorithmKind, String> {
    value
        .parse()
        .map_err(|err: imin_core::IminError| err.to_string())
}

fn parse_load(tokens: &[&str]) -> Result<LoadSpec, String> {
    let kind = tokens
        .first()
        .ok_or("LOAD requires a graph kind (pa, er or file)")?
        .to_ascii_lowercase();
    match kind.as_str() {
        "pa" | "er" => {
            let mut n: Option<usize> = None;
            let mut m0: Option<usize> = None;
            let mut p: Option<f64> = None;
            let mut bidirectional = true;
            let mut seed: u64 = 0;
            let mut model = ModelSpec::WeightedCascade;
            for token in &tokens[1..] {
                let (key, value) = parse_kv(token)?;
                match key.to_ascii_lowercase().as_str() {
                    "n" => n = Some(parse_num("n", value)?),
                    "m0" => m0 = Some(parse_num("m0", value)?),
                    "p" => p = Some(parse_num("p", value)?),
                    "bidir" => bidirectional = parse_num("bidir", value)?,
                    "seed" => seed = parse_num("seed", value)?,
                    "model" => model = parse_model(value)?,
                    other => return Err(format!("unknown LOAD argument '{other}'")),
                }
            }
            let n = n.ok_or("LOAD requires n=<vertices>")?;
            if kind == "pa" {
                Ok(LoadSpec::PreferentialAttachment {
                    n,
                    m0: m0.ok_or("LOAD pa requires m0=<edges per vertex>")?,
                    bidirectional,
                    seed,
                    model,
                })
            } else {
                Ok(LoadSpec::ErdosRenyi {
                    n,
                    p: p.ok_or("LOAD er requires p=<edge probability>")?,
                    seed,
                    model,
                })
            }
        }
        "file" => {
            let path = tokens
                .get(1)
                .ok_or("LOAD file requires a path")?
                .to_string();
            let mut model = ModelSpec::Keep;
            for token in &tokens[2..] {
                let (key, value) = parse_kv(token)?;
                match key.to_ascii_lowercase().as_str() {
                    "model" => model = parse_model(value)?,
                    other => return Err(format!("unknown LOAD argument '{other}'")),
                }
            }
            Ok(LoadSpec::File { path, model })
        }
        other => Err(format!(
            "unknown graph kind '{other}' (expected pa, er or file)"
        )),
    }
}

fn parse_query(tokens: &[&str]) -> Result<(Query, bool), String> {
    let model = tokens
        .first()
        .ok_or("QUERY requires a diffusion model token (ic)")?;
    if !model.eq_ignore_ascii_case("ic") {
        return Err(format!(
            "unsupported diffusion model '{model}': the resident pool stores IC live-edge samples"
        ));
    }
    let mut seeds: Option<Vec<VertexId>> = None;
    let mut budget: Option<usize> = None;
    let mut algorithm = AlgorithmKind::AdvancedGreedy;
    let mut intervention = Intervention::BlockVertices;
    let mut trace = false;
    for token in &tokens[1..] {
        let (key, value) = parse_kv(token)?;
        match key.to_ascii_lowercase().as_str() {
            "seeds" => seeds = Some(parse_seeds(value)?),
            "budget" => budget = Some(parse_num("budget", value)?),
            "alg" => algorithm = parse_algorithm(value)?,
            "intervene" => {
                intervention = value
                    .parse::<Intervention>()
                    .map_err(|err: imin_core::IminError| err.to_string())?
            }
            "trace" => {
                trace = match value.to_ascii_lowercase().as_str() {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => {
                        return Err(format!(
                            "invalid trace value '{other}' (expected 0, 1, true or false)"
                        ))
                    }
                }
            }
            other => return Err(format!("unknown QUERY argument '{other}'")),
        }
    }
    let query = Query {
        seeds: seeds.ok_or("QUERY requires seeds=<v1,v2,...>")?,
        budget: budget.ok_or("QUERY requires budget=<b>")?,
        algorithm,
        intervention,
    };
    Ok((query, trace))
}

/// Parses one request line.
///
/// # Errors
/// Returns the human-readable reason to send back as `ERR <reason>`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let verb = tokens.first().ok_or("empty request")?.to_ascii_uppercase();
    match verb.as_str() {
        "LOAD" => Ok(Request::Load(parse_load(&tokens[1..])?)),
        "POOL" => {
            let theta = tokens.get(1).ok_or("POOL requires <theta> <seed>")?;
            let seed = tokens.get(2).ok_or("POOL requires <theta> <seed>")?;
            let mut backend = PoolBackend::Forward;
            for token in &tokens[3..] {
                let (key, value) = parse_kv(token).map_err(|_| {
                    "POOL takes <theta> <seed> plus an optional backend=forward|sketch".to_string()
                })?;
                match key.to_ascii_lowercase().as_str() {
                    "backend" => {
                        backend = PoolBackend::parse(value).ok_or_else(|| {
                            format!("unknown POOL backend '{value}' (expected forward or sketch)")
                        })?
                    }
                    other => return Err(format!("unknown POOL argument '{other}'")),
                }
            }
            Ok(Request::Pool {
                theta: parse_num("theta", theta)?,
                seed: parse_num("seed", seed)?,
                backend,
            })
        }
        "QUERY" => {
            let (query, trace) = parse_query(&tokens[1..])?;
            Ok(Request::Query { query, trace })
        }
        "SAVE" | "RESTORE" => {
            let path = tokens
                .get(1)
                .ok_or_else(|| format!("{verb} requires a snapshot path"))?;
            let path = path.to_string();
            if verb == "SAVE" {
                if tokens.len() > 2 {
                    return Err(
                        "SAVE takes exactly one path (whitespace in paths is not supported)".into(),
                    );
                }
                return Ok(Request::Save { path });
            }
            let mut mode = RestoreMode::Copy;
            for token in &tokens[2..] {
                let (key, value) = parse_kv(token).map_err(|_| {
                    "RESTORE takes exactly one path (whitespace in paths is not supported) \
                     plus an optional mode=copy|map"
                        .to_string()
                })?;
                match key.to_ascii_lowercase().as_str() {
                    "mode" => {
                        mode = match value.to_ascii_lowercase().as_str() {
                            "copy" => RestoreMode::Copy,
                            "map" => RestoreMode::Map,
                            other => {
                                return Err(format!(
                                    "unknown RESTORE mode '{other}' (expected copy or map)"
                                ))
                            }
                        }
                    }
                    other => return Err(format!("unknown RESTORE argument '{other}'")),
                }
            }
            Ok(Request::Restore { path, mode })
        }
        "COMPRESS" => {
            if tokens.len() > 1 {
                return Err("COMPRESS takes no arguments".into());
            }
            Ok(Request::Compress)
        }
        "STATS" => Ok(Request::Stats),
        "METRICS" => {
            if tokens.len() > 1 {
                return Err("METRICS takes no arguments".into());
            }
            Ok(Request::Metrics)
        }
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Splits a reply line into `Ok(payload)` for `OK …` or `Err(reason)` for
/// `ERR …`; anything else is an error about the malformed reply itself.
pub fn parse_reply(line: &str) -> Result<String, String> {
    if let Some(payload) = line.strip_prefix("OK") {
        return Ok(payload.trim_start().to_string());
    }
    if let Some(reason) = line.strip_prefix("ERR") {
        return Err(reason.trim_start().to_string());
    }
    Err(format!("malformed reply line: '{line}'"))
}

/// Extracts `key=value` fields of an `OK` payload into pairs, in order.
pub fn payload_fields(payload: &str) -> Vec<(String, String)> {
    payload
        .split_whitespace()
        .filter_map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// Looks up one field of an `OK` payload.
pub fn payload_field(payload: &str, key: &str) -> Option<String> {
    payload_fields(payload)
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_forms() {
        let req = parse_request("LOAD pa n=5000 m0=4 seed=7 model=wc").unwrap();
        assert_eq!(
            req,
            Request::Load(LoadSpec::PreferentialAttachment {
                n: 5000,
                m0: 4,
                bidirectional: true,
                seed: 7,
                model: ModelSpec::WeightedCascade,
            })
        );
        let req = parse_request("load er n=500 p=0.01 seed=3 model=const:0.1").unwrap();
        assert_eq!(
            req,
            Request::Load(LoadSpec::ErdosRenyi {
                n: 500,
                p: 0.01,
                seed: 3,
                model: ModelSpec::Constant(0.1),
            })
        );
        let req = parse_request("LOAD file /tmp/x.txt model=tri:9").unwrap();
        assert_eq!(
            req,
            Request::Load(LoadSpec::File {
                path: "/tmp/x.txt".into(),
                model: ModelSpec::Trivalency { seed: 9 },
            })
        );
        assert_eq!(
            parse_request("POOL 10000 42").unwrap(),
            Request::Pool {
                theta: 10000,
                seed: 42,
                backend: PoolBackend::Forward,
            }
        );
        assert_eq!(
            parse_request("POOL 20000 42 backend=sketch").unwrap(),
            Request::Pool {
                theta: 20000,
                seed: 42,
                backend: PoolBackend::Sketch,
            }
        );
        assert_eq!(
            parse_request("pool 100 1 BACKEND=Forward").unwrap(),
            Request::Pool {
                theta: 100,
                seed: 1,
                backend: PoolBackend::Forward,
            }
        );
        let req = parse_request("QUERY ic seeds=1,2,3 budget=10 alg=replace").unwrap();
        let Request::Query { query: q, trace } = req else {
            panic!("expected a query")
        };
        assert_eq!(q.seeds.len(), 3);
        assert_eq!(q.budget, 10);
        assert_eq!(q.algorithm, AlgorithmKind::GreedyReplace);
        assert!(!trace, "trace defaults to off");
        // Any registry spelling is accepted — one dispatch table for all.
        let req = parse_request("QUERY ic seeds=4 budget=2 alg=od trace=1").unwrap();
        let Request::Query { query: q, trace } = req else {
            panic!("expected a query")
        };
        assert_eq!(q.algorithm, AlgorithmKind::OutDegree);
        assert!(trace);
        let req = parse_request("QUERY ic seeds=4 budget=2 trace=false").unwrap();
        assert!(matches!(req, Request::Query { trace: false, .. }));
        // The intervention family defaults to vertex blocking and accepts
        // the three documented spellings.
        let Request::Query { query: q, .. } = parse_request("QUERY ic seeds=4 budget=2").unwrap()
        else {
            panic!("expected a query")
        };
        assert_eq!(q.intervention, imin_core::Intervention::BlockVertices);
        let Request::Query { query: q, .. } =
            parse_request("QUERY ic seeds=4 budget=2 intervene=edge").unwrap()
        else {
            panic!("expected a query")
        };
        assert_eq!(q.intervention, imin_core::Intervention::BlockEdges);
        let Request::Query { query: q, .. } =
            parse_request("QUERY ic seeds=4 budget=2 INTERVENE=prebunk:0.25").unwrap()
        else {
            panic!("expected a query")
        };
        assert_eq!(
            q.intervention,
            imin_core::Intervention::Prebunk { alpha: 0.25 }
        );
        assert_eq!(
            parse_request("SAVE /tmp/pool.iminsnap").unwrap(),
            Request::Save {
                path: "/tmp/pool.iminsnap".into()
            }
        );
        assert_eq!(
            parse_request("restore /tmp/pool.iminsnap").unwrap(),
            Request::Restore {
                path: "/tmp/pool.iminsnap".into(),
                mode: RestoreMode::Copy,
            }
        );
        assert_eq!(
            parse_request("RESTORE /tmp/pool.iminsnap mode=map").unwrap(),
            Request::Restore {
                path: "/tmp/pool.iminsnap".into(),
                mode: RestoreMode::Map,
            }
        );
        assert_eq!(
            parse_request("restore /tmp/pool.iminsnap MODE=COPY").unwrap(),
            Request::Restore {
                path: "/tmp/pool.iminsnap".into(),
                mode: RestoreMode::Copy,
            }
        );
        assert_eq!(parse_request("compress").unwrap(), Request::Compress);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("", "empty"),
            ("FROB", "unknown command"),
            ("LOAD", "graph kind"),
            ("LOAD pa m0=4", "requires n="),
            ("LOAD pa n=10", "m0="),
            ("LOAD er n=10", "p="),
            ("LOAD pa n=ten m0=4", "invalid value"),
            ("LOAD pa n=10 m0=4 model=quantum", "unknown model"),
            ("LOAD pa n=10 m0=4 frob=1", "unknown LOAD argument"),
            ("POOL", "requires"),
            ("POOL 10", "requires"),
            ("POOL 10 1 2", "backend=forward|sketch"),
            ("POOL 10 1 backend=quantum", "unknown POOL backend"),
            ("POOL 10 1 frob=2", "unknown POOL argument"),
            ("QUERY", "model token"),
            ("QUERY lt seeds=1 budget=1", "unsupported diffusion model"),
            ("QUERY ic budget=1", "seeds="),
            ("QUERY ic seeds=1", "budget="),
            ("QUERY ic seeds= budget=1", "at least one"),
            ("QUERY ic seeds=1,x budget=1", "invalid seed"),
            ("QUERY ic seeds=1 budget=1 alg=magic", "unknown algorithm"),
            ("QUERY ic seeds=1 budget=1 frob=2", "unknown QUERY argument"),
            (
                "QUERY ic seeds=1 budget=1 trace=maybe",
                "invalid trace value",
            ),
            (
                "QUERY ic seeds=1 budget=1 intervene=quantum",
                "invalid intervention",
            ),
            (
                "QUERY ic seeds=1 budget=1 intervene=prebunk:1.5",
                "invalid intervention",
            ),
            (
                "QUERY ic seeds=1 budget=1 intervene=prebunk:",
                "invalid intervention",
            ),
            ("METRICS now", "no arguments"),
            ("SAVE", "requires a snapshot path"),
            ("RESTORE", "requires a snapshot path"),
            ("SAVE /a/b /c/d", "exactly one path"),
            ("RESTORE a b", "exactly one path"),
            ("RESTORE a mode=zerocopy", "unknown RESTORE mode"),
            ("RESTORE a frob=1", "unknown RESTORE argument"),
            ("COMPRESS now", "no arguments"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.contains(needle),
                "'{line}' should mention '{needle}', got '{err}'"
            );
        }
    }

    #[test]
    fn reply_parsing_and_payload_fields() {
        assert_eq!(parse_reply("OK pong").unwrap(), "pong");
        assert_eq!(parse_reply("OK").unwrap(), "");
        assert_eq!(parse_reply("ERR nope").unwrap_err(), "nope");
        assert!(parse_reply("banana").unwrap_err().contains("malformed"));
        let payload = "blockers=1,2 spread=3.5 cached=false";
        assert_eq!(payload_field(payload, "spread").as_deref(), Some("3.5"));
        assert_eq!(payload_field(payload, "missing"), None);
        assert_eq!(payload_fields(payload).len(), 3);
    }
}
