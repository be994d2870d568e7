//! The end-to-end run: the release server under a closed loop of TCP
//! clients, tracing off.

use crate::check;
use crate::exec::{expect_ok, replay, Outcome, Plan, Record, TcpPath};
use crate::report::Metric;
use crate::server::Server;
use crate::stats::{median, percentile};
use crate::workload::{Op, RestoreKind, Workload};
use crate::Ctx;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Questions every run answers at least, so that `query_p90_ms` always has
/// ten samples beyond it.
pub const MIN_QUERIES: usize = 100;

/// The outcome of one run, end-to-end or traced.
pub struct RunResult {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further figures, reported but not gated.
    pub extras: Vec<Metric>,
    pub digest: Option<u64>,
}

/// Runs the set-up lines in order through `send`, demanding `OK` for
/// each. Returns the whole set-up's seconds and each line's milliseconds.
pub fn setup_over(
    workload: &Workload,
    snapshot: &str,
    mut send: impl FnMut(&str) -> Result<String, String>,
) -> Result<(f64, Vec<(String, f64)>), String> {
    let start = Instant::now();
    let mut steps = Vec::new();
    for line in workload.setup_lines(snapshot) {
        let t = Instant::now();
        let reply = send(&line)?;
        expect_ok(&reply, &line)?;
        steps.push((line, t.elapsed().as_secs_f64() * 1e3));
    }
    Ok((start.elapsed().as_secs_f64(), steps))
}

/// The schedule prefix a run always completes: the check prefix and at
/// least [`MIN_QUERIES`] questions.
fn min_ops(workload: &Workload) -> usize {
    let hundredth = workload
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Query(_)))
        .nth(MIN_QUERIES - 1)
        .map_or(workload.ops.len(), |(i, _)| i + 1);
    workload.spec.check_ops.max(hundredth)
}

fn ms(r: &Record) -> f64 {
    r.latency_us() / 1e3
}

fn metric(name: &str, value: f64, unit: &'static str, samples: Option<usize>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

pub fn run(ctx: &Ctx, workload: &Workload) -> Result<RunResult, String> {
    let snapshot = ctx.snapshot_path(workload);
    let server = Server::start(&ctx.server_bin, &ctx.server_flags)?;
    let mut conn = server.connect()?;
    let mut setups = Vec::new();
    let mut builds_ms = Vec::new();
    let mut setup_kib = 0;
    for repeat in 0..SETUP_REPEATS {
        let (total, steps) = setup_over(workload, &snapshot, |l| conn.request(l))?;
        if repeat == 0 {
            // Later set-ups drop and rebuild the pools, and the allocator's
            // reuse of the freed memory varies from run to run.
            setup_kib = server.peak_rss_kib()?;
        }
        setups.push(total);
        builds_ms.extend(
            steps
                .iter()
                .filter(|(line, _)| line.starts_with("POOL"))
                .map(|(_, ms)| *ms),
        );
    }
    drop(conn);
    if workload.spec.save {
        // Flush the snapshot the set-ups wrote, so that its writeback does
        // not run inside the measured loop.
        std::fs::File::open(&snapshot)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {snapshot}: {e}"))?;
    }
    let path = TcpPath {
        server: &server,
        workload,
        trace: false,
        snapshot: &snapshot,
    };
    let plan = Plan {
        clients: ctx.threads,
        min_ops: min_ops(workload),
        duration: Some(Duration::from_secs_f64(ctx.seconds)),
    };
    let replayed = replay(&path, workload, &plan, Instant::now())?;
    let peak_kib = server.peak_rss_kib()?;
    drop(server);
    let _ = std::fs::remove_file(&snapshot);

    let records = &replayed.records;
    let mut errors = check::check_records(workload, records);
    let queries: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.op, Op::Query(_)))
        .collect();
    let latencies: Vec<f64> = queries
        .iter()
        .filter(|r| r.answer().is_some())
        .map(|r| ms(r))
        .collect();
    let failed = queries
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Failed { .. }))
        .count();
    builds_ms.extend(
        records
            .iter()
            .filter(|r| matches!(r.op, Op::Rebuild(_)))
            .map(ms),
    );
    let restores = |kind| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.op == Op::Restore(kind))
            .map(ms)
            .collect()
    };
    // A mapped restore plus the question right after it.
    let first_answers: Vec<f64> = records
        .windows(2)
        .filter(|w| w[0].op == Op::Restore(RestoreKind::Map) && w[1].answer().is_some())
        .filter(|w| w[1].idx == w[0].idx + 1)
        .map(|w| ms(&w[0]) + ms(&w[1]))
        .collect();

    let need = |v: Option<f64>, what: &str| v.ok_or(format!("too few samples for {what}"));
    let digest = check::digest(workload, records);
    match digest {
        None => errors.push("check prefix incomplete".into()),
        Some(d) => errors.extend(check::check_digest_store(
            &ctx.digest_store(),
            workload.spec.name,
            workload.seed,
            d,
        )),
    }
    let n = latencies.len();
    let metrics = vec![
        metric(
            "setup_s",
            need(median(&setups), "setup_s")?,
            "s",
            Some(setups.len()),
        ),
        metric(
            "query_p50_ms",
            need(percentile(&latencies, 0.5), "p50")?,
            "ms",
            Some(n),
        ),
        metric(
            "query_p90_ms",
            need(percentile(&latencies, 0.9), "p90")?,
            "ms",
            Some(n),
        ),
        metric("qps", n as f64 / replayed.wall_s, "1/s", Some(n)),
        metric(
            "mean_spread",
            need(check::mean_spread(workload, records), "mean_spread")?,
            "vertices",
            None,
        ),
        metric("setup_rss_mb", setup_kib as f64 / 1024.0, "MiB", None),
    ];
    let mut extras = vec![
        metric(
            "rebuild_ms",
            need(median(&builds_ms), "rebuild_ms")?,
            "ms",
            Some(builds_ms.len()),
        ),
        metric(
            "failed_frac",
            failed as f64 / queries.len().max(1) as f64,
            "ratio",
            Some(queries.len()),
        ),
        metric("run_wall_s", replayed.wall_s, "s", None),
        metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB", None),
    ];
    if let Some(p99) = percentile(&latencies, 0.99) {
        extras.push(metric("query_p99_ms", p99, "ms", Some(n)));
    }
    for (name, samples) in [
        ("restore_copy_ms", restores(RestoreKind::Copy)),
        ("restore_map_ms", restores(RestoreKind::Map)),
        ("first_answer_ms", first_answers),
    ] {
        if let Some(m) = median(&samples) {
            extras.push(metric(name, m, "ms", Some(samples.len())));
        }
    }
    Ok(RunResult {
        errors,
        attempted: queries.len() as u64,
        failed: failed as u64,
        metrics,
        extras,
        digest,
    })
}
