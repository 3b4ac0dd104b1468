//! The traced run: in-process and single-threaded, it loads the same
//! generated files, builds the federation the way `Server::bind_federation`
//! does, and replays the workload's query stream in serve's order with a
//! span around each public call:
//!
//! parse → capability-index select → plan-cache lookup → on a miss,
//! `Federation::plan` then insert → `run_adaptive_each_planned` into a
//! counting sink.
//!
//! Spans live in memory and are written out as JSON lines at the end. A
//! span's self time is its duration minus its children's; where one public
//! call covers two layers (`Federation::plan` selects candidates before it
//! plans), the inner layer is timed through its own public call and shown
//! as a child span of that length.

use crate::workload::Workload;
use csqp::core::federation::Federation;
use csqp::core::mediator::{AdaptiveConfig, CardKind, Mediator, Scheme};
use csqp::core::plancache::{Lookup, PlanCache};
use csqp::core::types::TargetQuery;
use csqp::core::CapabilityIndex;
use csqp::obs::{FlightRecorder, Obs};
use csqp::plan::exec_stream::StreamConfig;
use csqp::relation::csv::load_csv;
use csqp::source::{CostParams, Source};
use csqp::ssdl::parse_ssdl;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The pipeline's layers in call order, with the metric carrying each
/// one's mean self time; `pipeline` is the harness's own time between
/// calls.
const LAYERS: [(&str, &str); 6] = [
    ("expr", "expr.self_ms_mean"),
    ("capindex", "capindex.self_ms_mean"),
    ("plancache", "plancache.self_ms_mean"),
    ("planner", "planner.self_ms_mean"),
    ("exec", "exec.self_ms_mean"),
    ("pipeline", "pipeline.glue_ms_mean"),
];

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The query the call served; set-up spans carry `u64::MAX`.
    pub query: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder; spans nest by call order.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, query: u64) -> usize {
        let start_ns = self.now();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in call order");
    }

    fn time<R>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, query);
        let out = f();
        self.close(id);
        out
    }

    /// Records work that ran inside the call of span `parent`, measured by
    /// timing the same work through its own public call.
    fn inner(&mut self, name: &'static str, parent: usize, dur_ns: u64) {
        let p = &self.spans[parent];
        let (start_ns, query) = (p.start_ns, p.query);
        let end_ns = (start_ns + dur_ns).min(p.end_ns);
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), query });
    }

    /// Each span's duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur().saturating_sub(c)).collect()
    }

    /// Durations of the spans called `name` of queries `first..`.
    fn durations(&self, name: &str, first: u64) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name && s.query >= first).map(Span::dur).collect()
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = if s.query == u64::MAX { "null".to_string() } else { s.query.to_string() };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"query\":{query},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The traced run's per-layer figures (names as in `BENCHMARK.json`).
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    /// Queries replayed.
    pub queries: u64,
    /// Answers whose row count differed from the oracle's.
    pub wrong: Vec<String>,
    /// Mean self time per query by layer, milliseconds, in pipeline order.
    pub self_ms: Vec<(&'static str, f64)>,
}

/// Median (`q = 0.5`) or other quantile by nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Runs the traced replay over the files `members` for at most
/// `budget_s` seconds of replay, and writes the spans to `spans_out`.
pub fn run(
    wl: &Workload,
    members: &[(PathBuf, PathBuf)],
    budget_s: f64,
    spans_out: &Path,
) -> Result<Traced, String> {
    let mut tr = Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() };
    const SETUP: u64 = u64::MAX;

    // 1. Load, as the CLI does for each --ssdl/--csv pair.
    let load = tr.open("setup.load", SETUP);
    let mut sources = Vec::with_capacity(members.len());
    for (ssdl, csv) in members {
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let desc = parse_ssdl(&read(ssdl)?).map_err(|e| format!("{}: {e}", ssdl.display()))?;
        let rel = load_csv(&desc.name.clone(), &read(csv)?, &["id"])
            .map_err(|e| format!("{}: {e}", csv.display()))?;
        // The CLI's default cost constants (`--k1 50 --k2 1`).
        sources.push(Arc::new(Source::new(rel, desc, CostParams::new(50.0, 1.0))));
    }
    tr.close(load);

    // 2. Build as `Server::bind_federation` does with shipping defaults.
    let obs = Arc::new(Obs::new());
    let cache = Arc::new(PlanCache::with_capacity(256));
    let fed = sources
        .iter()
        .fold(Federation::new(), |f, m| f.with_member(m.clone()))
        .with_obs(obs.clone())
        .with_flight_recorder(Arc::new(FlightRecorder::new()))
        .with_plan_cache(cache.clone());
    let mediators: Vec<Mediator> = sources
        .iter()
        .map(|m| {
            Mediator::new(m.clone())
                .with_scheme(Scheme::GenCompact)
                .with_obs(obs.clone())
                .with_plan_cache(cache.clone())
        })
        .collect();
    tr.time("capindex.build", SETUP, || std::hint::black_box(CapabilityIndex::build(&sources)));
    // The federation builds its own index lazily on first use; build it
    // here so no query span pays for it.
    let idx = fed.capability_index().ok_or("the capability index is disabled")?;

    // 3. Replay: warm-up, then the timed stream, in serve's order.
    let mut wrong = Vec::new();
    let mut candidates_frac = Vec::new();
    let (mut planned_queries, mut checks, mut cts, mut considered, mut max_q) = (0u64, 0, 0, 0, 0);
    let (mut rows_total, mut shipped, mut source_queries, mut peak, mut splices) =
        (0u64, 0, 0, 0, 0);
    let replay_start = Instant::now();
    let stream = wl.warmup.iter().chain((0..wl.traced_queries).map_while(|i| wl.stream(i)));
    let mut qid = 0u64;
    for q in stream {
        if qid as usize >= wl.warmup.len() && replay_start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let root = tr.open("pipeline", qid);
        let attr_refs: Vec<&str> = q.attrs.iter().map(String::as_str).collect();
        let query = tr
            .time("expr.parse", qid, || TargetQuery::parse(&q.cond, &attr_refs))
            .map_err(|e| format!("parse {}: {e}", q.cond))?;
        let sel = tr.open("capindex.select", qid);
        let decision = idx.candidates(&query);
        tr.close(sel);
        let select_ns = tr.spans[sel].dur();
        candidates_frac.push(decision.candidates.len() as f64 / decision.total as f64);
        let lookup = tr.time("plancache.lookup", qid, || cache.lookup(&query, fed.members()));
        let (member, planned, missed) = match lookup {
            Lookup::Hit { member, planned } => (member, *planned, false),
            Lookup::Miss | Lookup::Rejected(_) => {
                let plan = tr.open("planner.plan", qid);
                let fp = fed.plan(&query);
                tr.close(plan);
                tr.inner("capindex.select", plan, select_ns);
                let fp = fp.map_err(|e| format!("plan {}: {e}", q.cond))?;
                let member = fed
                    .members()
                    .iter()
                    .position(|m| Arc::ptr_eq(m, &fp.source))
                    .expect("the winner is a member");
                tr.time("plancache.insert", qid, || {
                    cache.insert(&query, member, fp.planned.clone())
                });
                (member, fp.planned, true)
            }
        };
        let stream_cfg = match q.limit {
            Some(n) => StreamConfig::default().with_limit(n),
            None => StreamConfig::default(),
        };
        let acfg = AdaptiveConfig { stream: stream_cfg, ..Default::default() };
        let mut rows = 0u64;
        let out = tr
            .time("exec.run", qid, || {
                mediators[member].run_adaptive_each_planned(&query, planned, &acfg, &mut |b| {
                    rows += b.len() as u64;
                    true
                })
            })
            .map_err(|e| format!("run {}: {e}", q.cond))?;
        tr.close(root);
        if rows as usize != q.expected_rows() {
            wrong.push(format!("{rows} rows, oracle expects {}: {}", q.expected_rows(), q.cond));
        }
        rows_total += rows;
        shipped += out.outcome.meter.tuples_shipped;
        source_queries += out.outcome.meter.queries;
        peak = peak.max(out.stats.peak_resident_tuples);
        splices += out.splices;
        if missed {
            // Outside the pipeline span: plan each candidate alone, as the
            // federation's fan-out does, for per-member times and counts.
            planned_queries += 1;
            let mut q_max = 0;
            for i in (0..fed.members().len()).filter(|&i| decision.is_candidate(i)) {
                let m = Mediator::new(fed.members()[i].clone()).with_cardinality(CardKind::Stats);
                if let Ok(p) = tr.time("planner.member_plan", qid, || m.plan(&query)) {
                    checks += p.report.checks as u64;
                    cts += p.report.cts_processed as u64;
                    considered += p.report.plans_considered;
                    q_max = q_max.max(p.report.max_q as u64);
                }
            }
            max_q = max_q.max(q_max);
        }
        qid += 1;
    }
    tr.write_jsonl(spans_out).map_err(|e| format!("{}: {e}", spans_out.display()))?;

    let selftimes = tr.self_times();
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut pipeline_ns = 0u64;
    let in_pipeline = |mut i: usize| loop {
        match tr.spans[i].parent {
            Some(p) => i = p,
            None => return tr.spans[i].name == "pipeline",
        }
    };
    // Self times are means over every replayed query, warm-up included:
    // the warm-up's cold plans are what a cached workload's planner costs.
    for (i, s) in tr.spans.iter().enumerate() {
        if in_pipeline(i) {
            *by_layer.entry(s.layer()).or_default() += selftimes[i];
            if s.name == "pipeline" {
                pipeline_ns += s.dur();
            }
        }
    }
    let n = qid.max(1) as f64;
    let per_query_ms = |ns: u64| ns as f64 / n / 1e6;
    let self_ms: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&(layer, _)| (layer, per_query_ms(by_layer.get(layer).copied().unwrap_or(0))))
        .collect();

    // Per-call figures of the timed stream, except for the calls a cache
    // hit skips (planning, insert), which use every query that made them.
    let warm = wl.warmup.len() as u64;
    let us = |name: &str, first| quantile(&sorted(tr.durations(name, first)), 0.5) / 1e3;
    let ms_at = |name: &str, first, q: f64| quantile(&sorted(tr.durations(name, first)), q) / 1e6;
    let exec_ns: u64 = tr.durations("exec.run", 0).iter().sum();
    let planned_n = planned_queries.max(1) as f64;
    let mut metrics = vec![
        ("setup.load_ms", ms_at("setup.load", 0, 0.5)),
        ("capindex.build_ms", ms_at("capindex.build", 0, 0.5)),
        ("expr.parse_us_p50", us("expr.parse", warm)),
        ("capindex.select_us_p50", us("capindex.select", warm)),
        (
            "capindex.candidates_frac",
            candidates_frac.iter().sum::<f64>() / candidates_frac.len().max(1) as f64,
        ),
        ("plancache.lookup_us_p50", us("plancache.lookup", warm)),
        ("plancache.insert_us_p50", us("plancache.insert", 0)),
        ("planner.plan_ms_p50", ms_at("planner.plan", 0, 0.5)),
        ("planner.plan_ms_tail", ms_at("planner.plan", 0, 0.9)),
        ("planner.member_plan_ms_p50", ms_at("planner.member_plan", 0, 0.5)),
        ("planner.checks_per_query", checks as f64 / planned_n),
        ("planner.cts_per_query", cts as f64 / planned_n),
        ("planner.plans_considered_per_query", considered as f64 / planned_n),
        ("planner.max_q", max_q as f64),
        ("exec.run_ms_p50", ms_at("exec.run", warm, 0.5)),
        ("exec.rows_per_s", rows_total as f64 / (exec_ns.max(1) as f64 / 1e9)),
        ("exec.shipped_per_row", shipped as f64 / rows_total.max(1) as f64),
        ("exec.source_queries_per_query", source_queries as f64 / n),
        ("exec.peak_resident_tuples", peak as f64),
        ("exec.splices", splices as f64),
        ("pipeline.total_ms_p50", ms_at("pipeline", warm, 0.5)),
        ("pipeline.total_ms_mean", per_query_ms(pipeline_ns)),
    ];
    metrics.extend(LAYERS.iter().zip(&self_ms).map(|(&(_, name), &(_, v))| (name, v)));
    Ok(Traced { metrics, queries: qid, wrong, self_ms })
}
