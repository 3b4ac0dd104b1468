//! `servebench`: the repository's benchmark. It builds and starts the
//! shipping `csqp serve`, drives it over loopback TCP with one of three
//! seeded workloads, checks every answer against an oracle, and prints the
//! end-to-end metrics; with `--trace 1` it also replays the workload
//! in-process with a span around each layer's public entry point and
//! prints the per-layer metrics instead. See `README.md` beside this
//! package.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload warm_repeat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod client;
mod server;
mod traced;
mod workload;

use server::{Metrics, Server};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use traced::quantile;

/// Closed-loop client connections in the timed phase.
const CLIENTS: usize = 2;
/// Server start-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Where generated inputs, server logs and spans go, under the current
/// directory.
const WORK_DIR: &str = "servebench/work";

/// End-to-end metrics: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("source_cost_per_query", "cost"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name, unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.overhead_ms_p50", "ms"),
    ("serve.bytes_per_row", "bytes/row"),
    ("serve.rss_kib_per_kquery", "KiB/kquery"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("expr.parse_us_p50", "us"),
    ("capindex.select_us_p50", "us"),
    ("capindex.candidates_frac", "ratio"),
    ("capindex.build_ms", "ms"),
    ("plancache.hit_rate", "ratio"),
    ("plancache.lookup_us_p50", "us"),
    ("plancache.insert_us_p50", "us"),
    ("planner.plan_ms_p50", "ms"),
    ("planner.plan_ms_tail", "ms"),
    ("planner.member_plan_ms_p50", "ms"),
    ("planner.checks_per_query", "count"),
    ("planner.cts_per_query", "count"),
    ("planner.plans_considered_per_query", "count"),
    ("planner.max_q", "count"),
    ("exec.run_ms_p50", "ms"),
    ("exec.rows_per_s", "rows/s"),
    ("exec.shipped_per_row", "ratio"),
    ("exec.source_queries_per_query", "count"),
    ("exec.peak_resident_tuples", "count"),
    ("exec.splices", "count"),
    ("setup.load_ms", "ms"),
    ("pipeline.total_ms_p50", "ms"),
    ("pipeline.total_ms_mean", "ms"),
    ("expr.self_ms_mean", "ms"),
    ("capindex.self_ms_mean", "ms"),
    ("plancache.self_ms_mean", "ms"),
    ("planner.self_ms_mean", "ms"),
    ("exec.self_ms_mean", "ms"),
    ("pipeline.glue_ms_mean", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <warm_repeat|cold_shapes|scan_heavy> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run; returns the JSON result line. An `Err` means nothing was
/// measured (the build, the inputs, or the first server start failed).
fn run(args: &Args) -> Result<String, String> {
    let exe = server::build()?;
    let wl = workload::build(&args.workload, args.seed).expect("workload name was checked");
    let dir = PathBuf::from(WORK_DIR).join(&args.workload);
    let _ = std::fs::remove_dir_all(&dir);
    let members = wl.write_files(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!("servebench: {}, seed {}", wl.describe(), args.seed);
    let log = dir.join("server.log");
    let mut problems: Vec<String> = Vec::new();

    // Set-up: spawn to first answer, several times; the last server stays up.
    let mut setups = Vec::new();
    let mut server = None;
    let n_setups = if args.trace { 1 } else { SETUPS };
    for k in 0..n_setups {
        let t0 = Instant::now();
        let s = Server::start(&exe, &members, &log)?;
        let probe = client::run_sequential(s.addr, wl.warmup.iter().take(1));
        setups.push(t0.elapsed().as_secs_f64());
        problems.extend(probe.reasons.iter().map(|r| format!("set-up probe: {r}")));
        if k + 1 < n_setups {
            if let Err(e) = s.shutdown() {
                problems.push(e);
            }
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let warm = client::run_sequential(server.addr, wl.warmup.iter().skip(1));
    problems.extend(warm.reasons.iter().map(|r| format!("warm-up: {r}")));
    // The footprint of the loaded, warmed-up federation. The seed server's
    // memory also grows with every query served, so a high-water mark read
    // after the timed phase would mostly count the queries the run managed;
    // that growth is the per-layer `serve.rss_kib_per_kquery`.
    let rss_warm_kib = server.peak_rss_kib();

    // The timed phase, between two scrapes.
    let before = server.scrape();
    let load = client::run_closed_loop(server.addr, &wl, CLIENTS, args.seconds, &|| server.alive());
    let after = server.scrape();
    let rss_end_kib = server.peak_rss_kib();
    if let Err(e) = server.shutdown() {
        problems.push(e);
    }
    problems.extend(load.reasons.iter().map(|r| format!("timed phase: {r}")));

    let mut lat = load.latencies_ns.clone();
    lat.sort_unstable();
    let wall = load.wall.as_secs_f64();
    let answered = load.answered();
    let p50_ms = quantile(&lat, 0.5) / 1e6;
    let mut e2e = vec![
        ("setup_s", median(&setups)),
        ("qps", answered as f64 / wall),
        ("latency_p50_ms", p50_ms),
        ("latency_tail_ms", quantile(&lat, wl.tail_pct / 100.0) / 1e6),
        ("rows_per_s", load.rows as f64 / wall),
        ("source_cost_per_query", load.cost_sum / answered.max(1) as f64),
        ("peak_rss_mb", rss_warm_kib.map_or(f64::NAN, |k| k as f64 / 1024.0)),
    ];
    let failed_frac = load.failed as f64 / load.attempted.max(1) as f64;
    let rss_growth = match (rss_warm_kib, rss_end_kib) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / (load.attempted.max(1) as f64 / 1000.0),
        _ => f64::NAN,
    };

    // Self-checks: the workload still exercises the layer it was built for.
    let (hit_rate, shed, errors) = match (&before, &after) {
        (Ok(b), Ok(a)) => scrape_checks(b, a, &load, &mut problems),
        (Err(e), _) | (_, Err(e)) => {
            problems.push(format!("scrape: {e}"));
            (f64::NAN, f64::NAN, f64::NAN)
        }
    };
    match wl.name {
        "cold_shapes" if hit_rate != 0.0 => {
            problems.push(format!("plan-cache hit rate {hit_rate} on cold_shapes, want 0"))
        }
        "cold_shapes" if load.max_candidates >= load.max_members => problems.push(format!(
            "capability index kept {} of {} members",
            load.max_candidates, load.max_members
        )),
        "warm_repeat" | "scan_heavy" if hit_rate.is_nan() || hit_rate < 0.99 => {
            problems.push(format!("plan-cache hit rate {hit_rate} on {}, want >= 0.99", wl.name))
        }
        _ => {}
    }
    if load.splices != 0 {
        problems.push(format!(
            "{} adaptive splices in the timed phase, want 0; first on {}",
            load.splices,
            load.spliced.as_deref().unwrap_or("?")
        ));
    }
    if load.attempted == 0 {
        problems.push("no query was sent".to_string());
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "end to end ({} clients, {:.1} s timed, {} sent, {} failed, failed_frac {failed_frac}):",
        CLIENTS, wall, load.attempted, load.failed
    );
    for (name, v) in &e2e {
        let _ = writeln!(report, "  {name:<24} {v:>14.4} {}", unit(name));
    }
    let pct: Vec<String> = [50.0, 90.0, 95.0, 99.0, 99.9, 100.0]
        .iter()
        .map(|p| format!("p{p} {:.3}", quantile(&lat, p / 100.0) / 1e6))
        .collect();
    let _ = writeln!(report, "  latency ms: {}", pct.join(", "));
    let _ = writeln!(report, "  answers per second: {:?}", load.per_second);
    let _ = writeln!(
        report,
        "  server VmHWM after warm-up {} KiB, after the timed phase {} KiB",
        rss_warm_kib.unwrap_or(0),
        rss_end_kib.unwrap_or(0)
    );

    let metrics: Vec<(&str, f64)> = if args.trace {
        let spans = dir.join("spans.jsonl");
        let t = traced::run(&wl, &members, args.seconds, &spans)?;
        problems.extend(t.wrong.iter().map(|w| format!("traced run: {w}")));
        let get = |name: &str| t.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |m| m.1);
        if get("exec.splices") != 0.0 {
            problems.push("the traced run spliced re-planned sub-plans".to_string());
        }
        let mut m = vec![
            ("serve.overhead_ms_p50", p50_ms - get("pipeline.total_ms_p50")),
            ("serve.bytes_per_row", load.wire_bytes as f64 / load.rows.max(1) as f64),
            ("serve.rss_kib_per_kquery", rss_growth),
            ("serve.shed", shed),
            ("serve.errors", errors),
            ("plancache.hit_rate", hit_rate),
        ];
        m.extend(t.metrics.iter().copied());
        let _ = writeln!(
            report,
            "traced run ({} queries, spans in {}); mean self time per query:",
            t.queries,
            spans.display()
        );
        let total: f64 = t.self_ms.iter().map(|s| s.1).sum();
        for (layer, ms) in &t.self_ms {
            let _ = writeln!(report, "  {layer:<10} {ms:>10.4} ms  {:>5.1}%", 100.0 * ms / total);
        }
        let _ = writeln!(report, "per layer:");
        for (name, v) in &m {
            let _ = writeln!(report, "  {name:<36} {v:>14.4} {}", unit(name));
        }
        m
    } else {
        std::mem::take(&mut e2e)
    };
    let wanted: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (name, unit) in wanted {
        let v = metrics.iter().find(|(n, _)| n == name).map_or(f64::NAN, |m| m.1);
        // JSON has no NaN: a metric that could not be measured reads 0 and
        // the run is marked incorrect.
        let v = if v.is_finite() {
            v
        } else {
            problems.push(format!("{name} could not be measured"));
            0.0
        };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    eprint!("{report}");
    for p in &problems {
        eprintln!("servebench: CHECK FAILED: {p}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        problems.is_empty(),
        load.attempted.max(1),
        load.failed,
    ))
}

/// Checks the scraped `serve.*` counters against the client's tally and
/// returns the timed phase's plan-cache hit rate, admission sheds and
/// serve errors.
fn scrape_checks(
    before: &Metrics,
    after: &Metrics,
    load: &client::LoadReport,
    problems: &mut Vec<String>,
) -> (f64, f64, f64) {
    let d = |name: &str| before.delta(after, name);
    let probes = d("csqp_plancache_hits_total")
        + d("csqp_plancache_misses_total")
        + d("csqp_plancache_rejected_total");
    let hit_rate = d("csqp_plancache_hits_total") / probes.max(1.0);
    let shed = d("csqp_admission_shed_overload_total") + d("csqp_admission_shed_quota_total");
    let errors = d("csqp_serve_errors_total");
    if load.failed == 0 {
        let sent = load.attempted as f64;
        for (what, server, client) in [
            ("admitted", d("csqp_admission_admitted_total") + shed, sent),
            ("answered", d("csqp_serve_queries_total"), sent),
            ("plan-cache hits", d("csqp_plancache_hits_total"), load.cache_hits as f64),
        ] {
            if server != client {
                problems.push(format!("server counted {server} {what}, the client saw {client}"));
            }
        }
    }
    (hit_rate, shed, errors)
}

fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map_or("", |m| m.1)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
