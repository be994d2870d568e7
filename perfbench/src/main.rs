//! `imin-perfbench` — the containment server's benchmark.
//!
//! ```text
//! imin-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                --server <path to imin-serve>
//! ```
//!
//! Starts the release `imin-serve` as a child process, drives one workload
//! over TCP from a closed loop of client threads, checks every answer and
//! prints its metrics: a table on stderr, a result file under `.bench_out/`, and
//! one JSON result line last on stdout. `--trace 1` runs the traced
//! per-layer replay instead (see `traced.rs`). `perfbench/run.py` builds
//! both programs and calls this one; `perfbench/README.md` defines every
//! metric and workload.

mod check;
mod exec;
mod host;
mod reply;
mod report;
mod server;
mod stats;
mod timed;
mod traced;
mod workload;

use report::{metrics_object, number, object, quote, result_line, table, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use timed::RunResult;
use workload::{Spec, Workload};

const USAGE: &str = "usage: imin-perfbench --workload <name|all> --seed <n> --seconds <s> \
                     --trace <0|1> --server <imin-serve>";

/// Where results, spans, snapshots and the digest store go, relative to
/// the working directory (the repository root).
const OUT_DIR: &str = ".bench_out";

/// What every run of one invocation shares.
pub struct Ctx {
    pub server_bin: PathBuf,
    pub server_flags: Vec<String>,
    pub out: PathBuf,
    /// Server worker threads, and load-generator clients.
    pub threads: usize,
    pub seconds: f64,
}

impl Ctx {
    /// The snapshot file a workload saves and restores (relative to the
    /// working directory, which the server shares).
    pub fn snapshot_path(&self, w: &Workload) -> String {
        self.out
            .join(format!("{}-{}.snap", w.spec.name, std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Answers digests of earlier runs, per workload and seed.
    pub fn digest_store(&self) -> PathBuf {
        self.out.join("digests.txt")
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
    })
}

/// Runs one workload and writes its result file.
fn run_one(ctx: &Ctx, host: &host::Host, name: &str, args: &Args) -> Result<RunResult, String> {
    let spec = Spec::by_name(name).ok_or(format!(
        "unknown workload {name:?} (expected one of {} or all)",
        workload::NAMES.join(", ")
    ))?;
    let start = Instant::now();
    let graph = workload::topology(args.seed);
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let w = Workload::generate(spec, args.seed, args.seconds, &graph);
    drop(graph);
    let result = if args.trace {
        traced::run(ctx, &w, generate_ms)?
    } else {
        timed::run(ctx, &w)?
    };
    eprintln!(
        "== {name} seed={} trace={} correct={} attempted={} failed={}",
        args.seed,
        u8::from(args.trace),
        result.errors.is_empty(),
        result.attempted,
        result.failed
    );
    eprintln!("{}", table(&result.metrics));
    eprintln!("  -- reported, not gated --\n{}", table(&result.extras));
    if let Some(d) = result.digest {
        eprintln!("  answers digest {d:016x}");
    }
    for e in result.errors.iter().take(20) {
        eprintln!("  CORRECTNESS: {e}");
    }
    let file = ctx.out.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let body = object(&[
        ("workload".into(), quote(name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), number(args.seconds)),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("host".into(), object(&host.json_fields())),
        ("correct".into(), result.errors.is_empty().to_string()),
        (
            "errors".into(),
            format!(
                "[{}]",
                result
                    .errors
                    .iter()
                    .map(|e| quote(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("attempted".into(), result.attempted.to_string()),
        ("failed".into(), result.failed.to_string()),
        (
            "digest".into(),
            quote(&result.digest.map_or("none".into(), |d| format!("{d:016x}"))),
        ),
        ("metrics".into(), metrics_object(&result.metrics, true)),
        ("extras".into(), metrics_object(&result.extras, true)),
    ]);
    std::fs::write(&file, body + "\n").map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.server.is_file() {
        eprintln!("server binary {} not found", args.server.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let nproc = host::nproc();
    // Never more threads than cores: two where the host has them.
    let threads = nproc.min(2);
    let server_flags: Vec<String> = ["--threads", &threads.to_string(), "--query-threads", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let host = host::Host::probe(&server_flags);
    eprintln!(
        "host: nproc={} cpu={:?} mem={}MB {} commit={} server flags: {}",
        host.nproc,
        host.cpu_model,
        host.mem_total_mb,
        host.rustc,
        host.git_commit,
        host.server_flags
    );
    let ctx = Ctx {
        server_bin: args.server.clone(),
        server_flags,
        out: PathBuf::from(OUT_DIR),
        threads,
        seconds: args.seconds,
    };
    let names: Vec<&str> = if args.workload == "all" {
        workload::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<Metric> = Vec::new();
    for name in &names {
        match run_one(&ctx, &host, name, &args) {
            Ok(r) => {
                correct &= r.errors.is_empty();
                attempted += r.attempted;
                failed += r.failed;
                let prefix = if names.len() > 1 {
                    format!("{name}.")
                } else {
                    String::new()
                };
                metrics.extend(r.metrics.into_iter().map(|m| Metric {
                    name: format!("{prefix}{}", m.name),
                    ..m
                }));
            }
            Err(e) => {
                eprintln!("{name}: benchmark failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        println!("{}", result_line(true, attempted, failed, &metrics));
        ExitCode::SUCCESS
    } else {
        // A run that breaks correctness reports no numbers.
        println!("{}", result_line(false, attempted, failed, &[]));
        ExitCode::FAILURE
    }
}
