//! The mediator façade: pick a scheme, plan a target query, execute it.
//!
//! This is also the wrapper-construction recipe of §2/§6: "if wrappers are
//! to provide generic relational capabilities for Internet sources, then
//! they need to implement a scheme like the one we describe" — a
//! [`Mediator`] over a single source *is* such a wrapper.

use crate::baselines::{
    plan_cnf_with_model, plan_disco_with_model, plan_dnf_with_model, plan_naive_with_model,
};
use crate::calibrate::{CalibratedCard, CalibratingCostModel};
use crate::gencompact::{plan_compact_traced, GenCompactConfig};
use crate::genmodular::{plan_modular_traced, GenModularConfig};
use crate::plancache::PlanCache;
use crate::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_obs::{
    names, CardRow, FlightRecorder, LatencyKey, Obs, PlanEvent, QueryFlight, QueryProfile,
};
use csqp_plan::analyze::{execute_analyzed, PlanAnalysis};
use csqp_plan::cost::{Cardinality, OracleCard, StatsCard, UniformCard};
use csqp_plan::exec::{execute_measured, execute_resilient, ExecError, RetryPolicy};
use csqp_plan::exec_stream::{
    execute_stream_adaptive_each_traced, execute_stream_adaptive_traced,
    execute_stream_analyzed_traced, execute_stream_each_traced, execute_stream_measured_traced,
    execute_stream_resilient_traced, ReplanController, ReplanProbe, SpliceAction, StreamConfig,
    StreamStats,
};
use csqp_plan::model::CostModel;
use csqp_plan::AttrSet;
use csqp_relation::stream::TupleBatch;
use csqp_relation::Relation;
use csqp_source::{EstimatorInput, Meter, ResilienceMeter, Source};
use csqp_ssdl::linearize::{cond_fingerprint, Fingerprint};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The planning scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// GenCompact (§6) — the paper's contribution.
    GenCompact,
    /// GenModular (§5) — the naive exhaustive scheme.
    GenModular,
    /// Garlic-style CNF clause pushdown.
    Cnf,
    /// DNF term pushdown.
    Dnf,
    /// DISCO all-or-nothing.
    Disco,
    /// Naive full-relational pushdown.
    NaivePush,
}

impl Scheme {
    /// All schemes, GenCompact first (experiment table order).
    pub const ALL: [Scheme; 6] = [
        Scheme::GenCompact,
        Scheme::GenModular,
        Scheme::Cnf,
        Scheme::Dnf,
        Scheme::Disco,
        Scheme::NaivePush,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::GenCompact => "GenCompact",
            Scheme::GenModular => "GenModular",
            Scheme::Cnf => "CNF (Garlic)",
            Scheme::Dnf => "DNF",
            Scheme::Disco => "DISCO",
            Scheme::NaivePush => "NaivePush",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which cardinality estimator the cost model uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CardKind {
    /// Single-column statistics with independence (default).
    Stats,
    /// Exact sizes by executing selections against the relation (experiment
    /// oracle).
    Oracle,
    /// Fixed per-atom selectivity.
    Uniform {
        /// Assumed per-atom selectivity.
        atom_selectivity: f64,
    },
}

impl CardKind {
    /// What this estimator reads from a source (kept in step with
    /// `Mediator::with_card`, which builds the estimator from it).
    pub fn input(&self) -> EstimatorInput {
        match self {
            CardKind::Stats => EstimatorInput::Stats,
            CardKind::Oracle => EstimatorInput::Relation,
            CardKind::Uniform { .. } => EstimatorInput::RowCount,
        }
    }
}

/// The outcome of planning + executing a target query.
#[derive(Debug)]
pub struct RunOutcome {
    /// The chosen plan and its estimated cost.
    pub planned: PlannedQuery,
    /// The query answer.
    pub rows: Relation,
    /// Transfer caused by this run (meter delta).
    pub meter: Meter,
    /// Measured cost of the run under the source's §6.2 constants.
    pub measured_cost: f64,
}

/// The outcome of a streaming run ([`Mediator::run_streamed`] and
/// friends): the plain outcome plus the pipeline's batch/memory stats.
#[derive(Debug)]
pub struct StreamedOutcome {
    /// The plan-and-execute outcome. For [`Mediator::run_streamed_each`]
    /// `rows` holds only what the sink did not consume — an empty relation
    /// when the sink accepted every batch.
    pub outcome: RunOutcome,
    /// Batch count, peak pipeline-resident tuples, overlap ticks.
    pub stats: StreamStats,
}

/// The outcome of an analyzed streaming run
/// ([`Mediator::run_streamed_analyzed`]).
#[derive(Debug)]
pub struct AnalyzedStreamOutcome {
    /// The plan-and-execute outcome.
    pub outcome: RunOutcome,
    /// Per-source-query observations, pre-order over the plan tree
    /// (leaves the run never opened are absent — early termination).
    pub analysis: PlanAnalysis,
    /// Batch/memory stats for the `EXPLAIN ANALYZE` streaming footer.
    pub stats: StreamStats,
}

impl AnalyzedStreamOutcome {
    /// Renders `EXPLAIN ANALYZE` with the streaming footer (batches and
    /// peak resident tuples).
    pub fn explain(&self) -> String {
        csqp_plan::exec_stream::explain_analyze_streamed(
            &self.outcome.planned.plan,
            &self.analysis,
            &self.stats,
        )
    }
}

/// The outcome of an analyzed run ([`Mediator::run_analyzed`]): the plain
/// outcome plus the per-source-query estimated-vs-observed record that
/// feeds `EXPLAIN ANALYZE` and the cost-model drift warnings.
#[derive(Debug)]
pub struct AnalyzedOutcome {
    /// The plan-and-execute outcome.
    pub outcome: RunOutcome,
    /// Per-source-query observations, pre-order over the plan tree.
    pub analysis: PlanAnalysis,
}

/// Knobs for an adaptive run ([`Mediator::run_adaptive`]).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Streaming knobs (batch size, limit). Adaptive runs are forced
    /// serial by the engine regardless of the overlap setting.
    pub stream: StreamConfig,
    /// Per-batch retry policy applied *before* a leaf failure would reach
    /// the controller. `None` means any leaf fault is terminal.
    pub policy: Option<RetryPolicy>,
    /// Upper bound on drift-triggered splices for one run (the engine
    /// additionally enforces its own global cap).
    pub max_splices: u64,
    /// Drift band half-width: a subquery drifts when its observed
    /// cardinality exits `[est/factor, est·factor]` (the paper-motivated
    /// default of 2.0 gives the `[½, 2]×` band). Values below 1.0 clamp
    /// to 1.0.
    pub drift_factor: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            stream: StreamConfig::serial(),
            policy: None,
            max_splices: 4,
            drift_factor: 2.0,
        }
    }
}

/// The outcome of an adaptive run ([`Mediator::run_adaptive`]).
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// The plan-and-execute outcome. `planned` holds the *original*
    /// chosen plan; when splices fired, the served pipeline diverged from
    /// it mid-flight (see the flight record's `[replan]` events). For
    /// [`Mediator::run_adaptive_each`] `rows` is empty (the sink consumed
    /// the answer).
    pub outcome: RunOutcome,
    /// Batch/memory stats accumulated across every pipeline segment.
    pub stats: StreamStats,
    /// Retry/fault metrics accumulated across the run.
    pub resilience: ResilienceMeter,
    /// How many re-planned sub-plans were spliced into the pipeline.
    pub splices: u64,
    /// How many times the drift detector fired (a trigger re-plans, but
    /// only splices when the re-planned residual structurally differs).
    pub drift_triggers: u64,
}

/// The drift-triggered [`ReplanController`]: watches per-leaf observed
/// cardinality against the planner's estimates at every batch boundary,
/// and when a subquery exits the drift band, re-runs the planner over the
/// residual condition with estimates floored at the observed counts.
struct DriftController<'a> {
    med: &'a Mediator,
    attrs: AttrSet,
    drift_factor: f64,
    max_splices: u64,
    /// Observed-cardinality floors, monotonically raised — a re-plan can
    /// only get better-informed, so splice loops cannot oscillate.
    floors: BTreeMap<Fingerprint, f64>,
    /// Planner estimates per leaf condition, memoized for the run: the
    /// estimate of a fixed condition never changes mid-query, and an
    /// oracle-backed estimator rescans the relation per call — without the
    /// cache every batch boundary would pay that scan for every leaf.
    est_cache: BTreeMap<Fingerprint, f64>,
    splices: u64,
    drift_triggers: u64,
    /// Next `probe.batches` value worth checking at; doubles after each
    /// trigger so a persistently drifting pipeline is not re-planned at
    /// every single batch.
    next_check: u64,
}

impl<'a> DriftController<'a> {
    fn new(med: &'a Mediator, query: &TargetQuery, cfg: &AdaptiveConfig) -> Self {
        DriftController {
            med,
            attrs: query.attrs.clone(),
            drift_factor: cfg.drift_factor.max(1.0),
            max_splices: cfg.max_splices,
            floors: BTreeMap::new(),
            est_cache: BTreeMap::new(),
            splices: 0,
            drift_triggers: 0,
            next_check: 1,
        }
    }
}

impl ReplanController for DriftController<'_> {
    fn on_batch(&mut self, probe: &ReplanProbe<'_>) -> Option<SpliceAction> {
        if self.splices >= self.max_splices || probe.batches < self.next_check {
            return None;
        }
        let med = self.med;
        let factor = self.drift_factor;
        // Scan the open leaves: raise floors where a source shipped past
        // the band's upper edge (mid-flight counts only grow, so upward
        // drift is provable before the leaf finishes); note low-side
        // drift on exhausted leaves (their exact cardinality is known).
        let mut raised = false;
        let mut low_drift = false;
        let mut detail: Option<String> = None;
        med.with_card(|card| {
            for leaf in probe.leaves {
                let fp = cond_fingerprint(leaf.cond.as_ref());
                let est = *self.est_cache.entry(fp).or_insert_with(|| {
                    let e = card.estimate(leaf.cond.as_ref());
                    if e.is_finite() {
                        e.max(0.0)
                    } else {
                        0.0
                    }
                });
                let obs = leaf.rows_out as f64;
                if (obs + 1.0) > factor * (est + 1.0) {
                    let floor = self.floors.entry(fp).or_insert(0.0);
                    if obs > *floor {
                        *floor = obs;
                        raised = true;
                        detail.get_or_insert_with(|| {
                            format!("{} shipped {obs:.0} rows against est {est:.1}", leaf.rendered)
                        });
                    }
                } else if leaf.done && (obs + 1.0) * factor < (est + 1.0) {
                    low_drift = true;
                    detail.get_or_insert_with(|| {
                        format!("{} finished at {obs:.0} rows against est {est:.1}", leaf.rendered)
                    });
                }
            }
        });
        if !raised && !low_drift {
            self.next_check = probe.batches + 1;
            return None;
        }
        self.drift_triggers += 1;
        med.obs.metrics.inc(names::REPLAN_TRIGGERED);
        med.obs.metrics.inc(names::REPLAN_DRIFT_TRIGGERS);
        self.next_check = probe.batches.max(1) * 2;
        if !raised {
            // A pure overestimate: floors cannot lower an estimate, so a
            // re-plan would reproduce the same plan. Count the trigger
            // (the calibration layer still learns from the finished run)
            // and keep streaming.
            return None;
        }
        let remaining = probe.remaining_plan()?;
        let residual = probe.residual_condition()?;
        let planned =
            med.replan_with_floors(&TargetQuery::new(residual, self.attrs.clone()), &self.floors)?;
        if planned.plan == remaining {
            // Better-informed MCSC stands by the running pipeline: no
            // structural change, nothing to splice.
            return None;
        }
        self.splices += 1;
        med.obs.metrics.inc(names::REPLAN_SPLICES);
        let detail = detail.unwrap_or_else(|| "cardinality drift".to_string());
        med.flight.note_latest(|| PlanEvent::Replan {
            trigger: "drift",
            detail: detail.clone(),
            batch: probe.batches,
            emitted: probe.emitted,
            old_plan: remaining.to_string(),
            new_plan: planned.plan.to_string(),
        });
        med.obs.tracer.event_with(|| {
            format!(
                "replan (drift) at batch {} after {} rows: {detail}",
                probe.batches, probe.emitted
            )
        });
        Some(SpliceAction { plan: planned.plan, source: med.source.clone() })
    }

    fn on_leaf_error(
        &mut self,
        _probe: &ReplanProbe<'_>,
        _err: &ExecError,
    ) -> Option<SpliceAction> {
        // A single-source mediator has nowhere else to send the residual;
        // member-level recovery lives in `Federation::run_adaptive`.
        None
    }
}

/// The outcome of a resilient run ([`Mediator::run_resilient`]).
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The plan-and-execute outcome. `planned` holds the *primary* plan and
    /// its ranked alternatives; `rows`/`meter` come from the plan that
    /// actually served the answer.
    pub outcome: RunOutcome,
    /// Rank of the serving plan: 0 = primary, `i` = `i`-th alternative.
    pub plan_rank: usize,
    /// Cumulative resilience metrics across every plan tried.
    pub resilience: ResilienceMeter,
    /// `(rank, error)` for each plan that failed before the winner.
    pub failures: Vec<(usize, ExecError)>,
}

/// The error trail of a failed failover chain: `(plan rank, error)` per
/// candidate tried.
pub(crate) type FailureTrail = Vec<(usize, ExecError)>;

/// A failover win: the serving rank, its answer and transfer meter, plus
/// the trail of candidates that failed before it.
pub(crate) type FailoverWin = (usize, Relation, Meter, FailureTrail);

/// Tries `planned.plan` then each ranked alternative in cost order under
/// `policy`, accumulating resilience metrics (including one failover per
/// plan switch) into `res`. Returns the winning rank, its answer, and the
/// transfer it caused — or the error trail if every candidate failed.
///
/// Plan-construction bugs ([`ExecError::Unresolved`]/
/// [`ExecError::Malformed`]) abort immediately: every sibling plan came
/// from the same planner, and masking a bug with a fallback would hide it.
pub(crate) fn execute_with_failover(
    planned: &PlannedQuery,
    source: &Source,
    policy: &RetryPolicy,
    res: &mut ResilienceMeter,
) -> Result<FailoverWin, FailureTrail> {
    let mut failures: FailureTrail = Vec::new();
    let alternatives = planned.alternatives.iter().map(|a| &a.plan);
    for (rank, plan) in std::iter::once(&planned.plan).chain(alternatives).enumerate() {
        if rank > 0 {
            res.failovers += 1;
        }
        match execute_resilient(plan, source, policy, res) {
            Ok((rows, meter)) => return Ok((rank, rows, meter, failures)),
            Err(e @ (ExecError::Unresolved | ExecError::Malformed(_))) => {
                failures.push((rank, e));
                return Err(failures);
            }
            Err(e) => failures.push((rank, e)),
        }
    }
    Err(failures)
}

/// Execution-stage errors surfaced by [`Mediator::run`].
#[derive(Debug)]
pub enum MediatorError {
    /// Planning failed.
    Plan(PlanError),
    /// Execution failed (should not happen for feasible plans).
    Exec(ExecError),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::Plan(e) => write!(f, "{e}"),
            MediatorError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<PlanError> for MediatorError {
    fn from(e: PlanError) -> Self {
        MediatorError::Plan(e)
    }
}

impl From<ExecError> for MediatorError {
    fn from(e: ExecError) -> Self {
        MediatorError::Exec(e)
    }
}

/// A mediator over one capability-limited source.
pub struct Mediator {
    source: Arc<Source>,
    scheme: Scheme,
    card: CardKind,
    compact_cfg: GenCompactConfig,
    modular_cfg: GenModularConfig,
    model: Option<Arc<dyn CostModel + Send + Sync>>,
    calibration: Option<Arc<CalibratingCostModel>>,
    obs: Arc<Obs>,
    flight: Arc<FlightRecorder>,
    plan_cache: Option<Arc<PlanCache>>,
}

impl fmt::Debug for Mediator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mediator")
            .field("source", &self.source.name)
            .field("scheme", &self.scheme)
            .field("card", &self.card)
            .field("custom_model", &self.model.is_some())
            .finish()
    }
}

impl Mediator {
    /// A GenCompact mediator with statistics-based costing.
    pub fn new(source: Arc<Source>) -> Self {
        Mediator {
            source,
            scheme: Scheme::GenCompact,
            card: CardKind::Stats,
            compact_cfg: GenCompactConfig::default(),
            modular_cfg: GenModularConfig::default(),
            model: None,
            calibration: None,
            obs: Arc::new(Obs::new()),
            // Disarmed by default: the planning hot path stays
            // provenance-free until a caller explicitly arms a recorder.
            flight: Arc::new(FlightRecorder::off()),
            plan_cache: None,
        }
    }

    /// Shares an observability handle (metrics registry + tracer) with this
    /// mediator. Several mediators can share one handle; their counters
    /// accumulate into the same registry.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle: every planner/executor counter this
    /// mediator records, plus its deterministic trace.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// A point-in-time snapshot of every metric this mediator has recorded
    /// (empty when the `obs` feature is off — the no-op recorder drops
    /// everything at compile time).
    pub fn metrics_snapshot(&self) -> csqp_obs::MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// Arms this mediator with a flight recorder: every subsequent
    /// [`Mediator::plan`] call leaves a per-query decision trail
    /// (admissions, PR1/PR2/PR3 prunes, MCSC covers, ranking) replayable
    /// via [`Mediator::explain_why`]. Several mediators can share one
    /// recorder; records stay per-query. The default recorder is disarmed
    /// ([`FlightRecorder::off`]) and costs nothing on the planning path.
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = recorder;
        self
    }

    /// The flight recorder (disarmed unless one was installed with
    /// [`Mediator::with_flight_recorder`]).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Renders the `EXPLAIN WHY` report for the most recently planned
    /// query: the winner's decision trail plus the eliminating rule for
    /// every losing candidate. Returns a "recorder disabled" notice when no
    /// armed recorder has captured a flight (including every `obs`-off
    /// build, where the recorder is compiled to a no-op).
    pub fn explain_why(&self) -> String {
        csqp_plan::why::explain_why(self.flight.latest().as_ref())
    }

    /// Overrides the cost model used for planning (§7 flexibility). The
    /// default is the source's §6.2 affine constants. Note that
    /// [`RunOutcome::measured_cost`] always reports in the §6.2 affine units
    /// (the meter records queries and tuples, not byte widths).
    pub fn with_cost_model(mut self, model: Arc<dyn CostModel + Send + Sync>) -> Self {
        self.model = Some(model);
        self
    }

    /// Installs a [`CalibratingCostModel`]: the mediator plans with it
    /// (initially delegating to the model it wraps) and feeds every
    /// finished adaptive run's transfer meter and measured cost back into
    /// its `k1`/`k2` fit — so estimates converge toward the source's real
    /// §6.2 constants across runs.
    pub fn with_calibration(mut self, model: Arc<CalibratingCostModel>) -> Self {
        self.calibration = Some(model.clone());
        self.model = Some(model);
        self
    }

    /// The installed calibration layer, if any.
    pub fn calibration(&self) -> Option<&Arc<CalibratingCostModel>> {
        self.calibration.as_ref()
    }

    /// Ties a shared [`PlanCache`] to this mediator's calibration layer:
    /// when an observed run *changes* the fitted `(k1, k2)` — i.e. the cost
    /// model the cached plans were ranked under is no longer the cost model
    /// in force — every prepared plan is invalidated. Install the same
    /// cache handle on the [`crate::Federation`] that serves lookups.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Selects the planning scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Selects the cardinality estimator.
    pub fn with_cardinality(mut self, card: CardKind) -> Self {
        self.card = card;
        self
    }

    /// Overrides the GenCompact configuration.
    pub fn with_compact_config(mut self, cfg: GenCompactConfig) -> Self {
        self.compact_cfg = cfg;
        self
    }

    /// Overrides the GenModular configuration.
    pub fn with_modular_config(mut self, cfg: GenModularConfig) -> Self {
        self.modular_cfg = cfg;
        self
    }

    /// The source this mediator fronts.
    pub fn source(&self) -> &Arc<Source> {
        &self.source
    }

    /// The active scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Runs `f` with the cardinality estimator selected by
    /// [`Mediator::with_cardinality`].
    fn with_card<T>(&self, f: impl FnOnce(&dyn Cardinality) -> T) -> T {
        let s = &self.source;
        match self.card {
            CardKind::Stats => f(&StatsCard::new(s.stats())),
            CardKind::Oracle => f(&OracleCard::new(s.relation())),
            CardKind::Uniform { atom_selectivity } => {
                f(&UniformCard { rows: s.relation().len() as f64, atom_selectivity })
            }
        }
    }

    /// The active cost model: the caller's override, or the source's §6.2
    /// affine constants.
    fn active_model(&self) -> &dyn CostModel {
        match &self.model {
            Some(m) => m.as_ref(),
            None => self.source.cost_params(),
        }
    }

    /// Plans a target query without executing it.
    pub fn plan(&self, query: &TargetQuery) -> Result<PlannedQuery, PlanError> {
        let span = self.obs.tracer.span("plan");
        self.obs
            .tracer
            .event_with(|| format!("scheme {} on source {}", self.scheme, self.source.name));
        let flight = self.flight.begin_with(|| (query.to_string(), self.scheme.name().to_string()));
        let planned =
            self.with_card(|card| self.dispatch(query, card, flight, Some(&self.obs.tracer)));
        match &planned {
            Ok(p) => {
                // Flush the planner's deterministic counters into the
                // registry and leave a replayable summary in the trace
                // (`elapsed` stays out of both — wall clock is not
                // deterministic).
                p.report.record_into(&self.obs.metrics);
                self.obs.tracer.event_with(|| {
                    format!(
                        "planned: est cost {:.2}, {} alternatives, {} checks, {} plans considered",
                        p.est_cost,
                        p.alternatives.len(),
                        p.report.checks,
                        p.report.plans_considered
                    )
                });
            }
            Err(e) => self.obs.tracer.event_with(|| format!("plan failed: {e}")),
        }
        span.close();
        planned
    }

    fn dispatch(
        &self,
        query: &TargetQuery,
        card: &dyn csqp_plan::cost::Cardinality,
        flight: QueryFlight<'_>,
        tracer: Option<&csqp_obs::Tracer>,
    ) -> Result<PlannedQuery, PlanError> {
        let s = &self.source;
        let model = self.active_model();
        match self.scheme {
            Scheme::GenCompact => {
                plan_compact_traced(query, s, card, &self.compact_cfg, model, flight, tracer)
            }
            Scheme::GenModular => {
                plan_modular_traced(query, s, card, &self.modular_cfg, model, flight, tracer)
            }
            baseline => {
                let planned = match baseline {
                    Scheme::Cnf => plan_cnf_with_model(query, s, card, model),
                    Scheme::Dnf => plan_dnf_with_model(query, s, card, model),
                    Scheme::Disco => plan_disco_with_model(query, s, card, model),
                    _ => plan_naive_with_model(query, s, card, model),
                };
                // The baselines are single-shot translations with no search
                // to narrate; record the outcome so EXPLAIN WHY still names
                // the winner (or the failure) for these schemes.
                match &planned {
                    Ok(p) => {
                        flight.event_with(|| PlanEvent::Note {
                            text: format!(
                                "{} is a single-shot baseline: no per-decision provenance",
                                baseline.name()
                            ),
                        });
                        flight.event_with(|| PlanEvent::Winner {
                            cost: p.est_cost,
                            plan: p.plan.to_string(),
                        });
                    }
                    Err(e) => {
                        flight.event_with(|| PlanEvent::Note { text: format!("plan failed: {e}") })
                    }
                }
                planned
            }
        }
    }

    /// Plans and executes a target query, reporting the answer and the
    /// transfer it caused.
    pub fn run(&self, query: &TargetQuery) -> Result<RunOutcome, MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute");
        let (rows, meter) = execute_measured(&planned.plan, &self.source)?;
        let measured_cost = meter.cost(self.source.cost_params());
        self.record_run(&planned, &rows, &meter, measured_cost);
        span.close();
        Ok(RunOutcome { planned, rows, meter, measured_cost })
    }

    /// Records one executed run's transfer and cost into the registry and
    /// the trace.
    fn record_run(&self, planned: &PlannedQuery, rows: &Relation, meter: &Meter, cost: f64) {
        meter.record_into(&self.obs.metrics);
        self.obs.metrics.gauge_set(names::EXEC_EST_COST, planned.est_cost);
        self.obs.metrics.gauge_set(names::EXEC_OBSERVED_COST, cost);
        self.obs.tracer.event_with(|| {
            format!(
                "answered: {} rows, {} source queries, measured cost {:.2} (est {:.2})",
                rows.len(),
                meter.queries,
                cost,
                planned.est_cost
            )
        });
    }

    /// Plans and executes with per-source-query observation: every leaf
    /// fetch records its observed row count and §6.2 cost next to the
    /// planner's estimate, feeding `EXPLAIN ANALYZE`
    /// ([`csqp_plan::analyze::explain_analyze`]) and the cost-model drift
    /// warnings.
    pub fn run_analyzed(&self, query: &TargetQuery) -> Result<AnalyzedOutcome, MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute (analyzed)");
        let (rows, meter, analysis) = self.with_card(|card| {
            execute_analyzed(&planned.plan, &self.source, self.active_model(), card)
        })?;
        let measured_cost = meter.cost(self.source.cost_params());
        self.record_run(&planned, &rows, &meter, measured_cost);
        analysis.record_into(&self.obs.metrics);
        for w in analysis.drift_warnings() {
            self.obs.tracer.event_with(|| w.clone());
        }
        span.close();
        Ok(AnalyzedOutcome {
            outcome: RunOutcome { planned, rows, meter, measured_cost },
            analysis,
        })
    }

    /// Plans and executes with resilience: source queries retry with
    /// backoff per `policy`, and when the chosen plan still fails the
    /// mediator degrades gracefully to the next-cheapest ranked alternative
    /// instead of erroring. The error of every failed candidate is kept in
    /// [`ResilientOutcome::failures`] for explainability.
    pub fn run_resilient(
        &self,
        query: &TargetQuery,
        policy: &RetryPolicy,
    ) -> Result<ResilientOutcome, MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute (resilient)");
        let mut resilience = ResilienceMeter::default();
        let result = execute_with_failover(&planned, &self.source, policy, &mut resilience);
        // Resilience events always reach the registry — a failed run is
        // exactly when the retry/breaker counters matter most.
        resilience.record_into(&self.obs.metrics);
        match result {
            Ok((plan_rank, rows, meter, failures)) => {
                let measured_cost = meter.cost(self.source.cost_params());
                self.record_run(&planned, &rows, &meter, measured_cost);
                // Failover is part of the query's story: append it to the
                // flight record begun at plan time so EXPLAIN WHY shows the
                // plan that actually served alongside the one that won.
                for (rank, err) in &failures {
                    self.flight.note_latest(|| PlanEvent::Failover {
                        rank: *rank,
                        detail: err.to_string(),
                    });
                }
                if plan_rank > 0 {
                    self.flight.note_latest(|| PlanEvent::Note {
                        text: format!("served by ranked alternative #{plan_rank}"),
                    });
                }
                self.obs.tracer.event_with(|| {
                    format!(
                        "served by plan rank {plan_rank} after {} failover(s), {} retries",
                        resilience.failovers, resilience.retries
                    )
                });
                span.close();
                Ok(ResilientOutcome {
                    outcome: RunOutcome { planned, rows, meter, measured_cost },
                    plan_rank,
                    resilience,
                    failures,
                })
            }
            Err(mut failures) => {
                for (rank, err) in &failures {
                    self.flight.note_latest(|| PlanEvent::Failover {
                        rank: *rank,
                        detail: err.to_string(),
                    });
                }
                let (_, last) = failures.pop().expect("at least the primary plan was tried");
                self.obs.tracer.event_with(|| format!("every plan died: {last}"));
                span.close();
                Err(MediatorError::Exec(last))
            }
        }
    }

    /// Records one streaming run's stats into the registry, the trace, and
    /// the query's flight record. `exec.overlap_ticks` reaches metrics only
    /// (nondeterministic under `parallel`); the flight note sticks to the
    /// deterministic pair so EXPLAIN WHY stays golden-testable.
    fn record_stream(&self, stats: &StreamStats) {
        stats.record_into(&self.obs.metrics);
        self.obs.tracer.event_with(|| {
            format!(
                "streamed: {} batches, peak resident {} tuples",
                stats.batches, stats.peak_resident_tuples
            )
        });
        self.flight.note_latest(|| PlanEvent::Note {
            text: format!(
                "streamed: {} batches, peak resident {} tuples",
                stats.batches, stats.peak_resident_tuples
            ),
        });
    }

    /// Plans and executes a target query on the streaming engine: batches
    /// pull through the pipeline under bounded memory, accumulate into the
    /// answer relation, and the run's [`StreamStats`] land in the `exec.*`
    /// metrics. Honors [`StreamConfig::limit`] for early termination.
    pub fn run_streamed(
        &self,
        query: &TargetQuery,
        cfg: &StreamConfig,
    ) -> Result<StreamedOutcome, MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute (streamed)");
        let (rows, meter, stats) = execute_stream_measured_traced(
            &planned.plan,
            &self.source,
            cfg,
            Some(&self.obs.tracer),
        )?;
        let measured_cost = meter.cost(self.source.cost_params());
        self.record_run(&planned, &rows, &meter, measured_cost);
        self.record_stream(&stats);
        span.close();
        Ok(StreamedOutcome { outcome: RunOutcome { planned, rows, meter, measured_cost }, stats })
    }

    /// Plans and streams a target query, handing each deduplicated answer
    /// batch to `sink` as it is produced (return `false` to stop early) —
    /// the incremental entry point `csqp serve` uses for chunked responses.
    /// The returned outcome's `rows` is empty (the sink consumed the
    /// answer); `meter`/`measured_cost`/`stats` cover the whole run.
    pub fn run_streamed_each(
        &self,
        query: &TargetQuery,
        cfg: &StreamConfig,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<StreamedOutcome, MediatorError> {
        let planned = self.plan(query)?;
        self.run_streamed_each_planned(planned, cfg, sink)
    }

    /// [`Mediator::run_streamed_each`] with planning already done — the
    /// executor for prepared plans served out of a
    /// [`PlanCache`]: the rebound plan goes straight to
    /// the streaming engine without touching the planner.
    pub fn run_streamed_each_planned(
        &self,
        planned: PlannedQuery,
        cfg: &StreamConfig,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<StreamedOutcome, MediatorError> {
        let span = self.obs.tracer.span("execute (streamed)");
        let before = self.source.meter();
        let mut emitted = 0u64;
        let mut schema = None;
        let (_, stats) = execute_stream_each_traced(
            &planned.plan,
            &self.source,
            cfg,
            Some(&self.obs.tracer),
            &mut |b| {
                emitted += b.len() as u64;
                schema.get_or_insert_with(|| b.schema().clone());
                sink(b)
            },
        )?;
        let after = self.source.meter();
        let meter = Meter {
            queries: after.queries - before.queries,
            tuples_shipped: after.tuples_shipped - before.tuples_shipped,
            rejected: after.rejected - before.rejected,
        };
        let measured_cost = meter.cost(self.source.cost_params());
        let rows = Relation::empty(match schema {
            Some(s) => s,
            None => {
                let attrs: Vec<&str> =
                    planned.plan.output_attrs().iter().map(String::as_str).collect();
                self.source
                    .relation()
                    .schema()
                    .project(&attrs)
                    .map_err(|e| MediatorError::Exec(ExecError::Schema(e.to_string())))?
            }
        });
        self.obs.tracer.event_with(|| format!("streamed {emitted} rows to sink"));
        self.record_run(&planned, &rows, &meter, measured_cost);
        self.record_stream(&stats);
        span.close();
        Ok(StreamedOutcome { outcome: RunOutcome { planned, rows, meter, measured_cost }, stats })
    }

    /// Streaming twin of [`Mediator::run_resilient`]: per-batch retries
    /// (a mid-stream fault repeats only the failed round-trip), then
    /// failover to the next-cheapest ranked alternative when a plan still
    /// dies mid-stream.
    pub fn run_streamed_resilient(
        &self,
        query: &TargetQuery,
        policy: &RetryPolicy,
        cfg: &StreamConfig,
    ) -> Result<(StreamedOutcome, ResilienceMeter), MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute (streamed, resilient)");
        let mut resilience = ResilienceMeter::default();
        let mut failures: Vec<(usize, ExecError)> = Vec::new();
        let alternatives = planned.alternatives.iter().map(|a| &a.plan);
        let mut win = None;
        for (rank, plan) in std::iter::once(&planned.plan).chain(alternatives).enumerate() {
            if rank > 0 {
                resilience.failovers += 1;
            }
            match execute_stream_resilient_traced(
                plan,
                &self.source,
                policy,
                &mut resilience,
                cfg,
                Some(&self.obs.tracer),
            ) {
                Ok((rows, meter, stats)) => {
                    win = Some((rank, rows, meter, stats));
                    break;
                }
                Err(e @ (ExecError::Unresolved | ExecError::Malformed(_))) => {
                    failures.push((rank, e));
                    break;
                }
                Err(e) => failures.push((rank, e)),
            }
        }
        resilience.record_into(&self.obs.metrics);
        for (rank, err) in &failures {
            self.flight
                .note_latest(|| PlanEvent::Failover { rank: *rank, detail: err.to_string() });
        }
        match win {
            Some((rank, rows, meter, stats)) => {
                let measured_cost = meter.cost(self.source.cost_params());
                self.record_run(&planned, &rows, &meter, measured_cost);
                self.record_stream(&stats);
                if rank > 0 {
                    self.flight.note_latest(|| PlanEvent::Note {
                        text: format!("served by ranked alternative #{rank}"),
                    });
                }
                span.close();
                Ok((
                    StreamedOutcome {
                        outcome: RunOutcome { planned, rows, meter, measured_cost },
                        stats,
                    },
                    resilience,
                ))
            }
            None => {
                let (_, last) = failures.pop().expect("at least the primary plan was tried");
                self.obs.tracer.event_with(|| format!("every plan died: {last}"));
                span.close();
                Err(MediatorError::Exec(last))
            }
        }
    }

    /// Streaming twin of [`Mediator::run_analyzed`]: per-source-query
    /// estimated-vs-observed observation plus the pipeline's batch/memory
    /// stats, rendered by [`AnalyzedStreamOutcome::explain`] as `EXPLAIN
    /// ANALYZE` with a streaming footer.
    pub fn run_streamed_analyzed(
        &self,
        query: &TargetQuery,
        cfg: &StreamConfig,
    ) -> Result<AnalyzedStreamOutcome, MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute (streamed, analyzed)");
        let (rows, meter, analysis, stats) = self.with_card(|card| {
            execute_stream_analyzed_traced(
                &planned.plan,
                &self.source,
                self.active_model(),
                card,
                cfg,
                Some(&self.obs.tracer),
            )
        })?;
        let measured_cost = meter.cost(self.source.cost_params());
        self.record_run(&planned, &rows, &meter, measured_cost);
        self.record_stream(&stats);
        analysis.record_into(&self.obs.metrics);
        for w in analysis.drift_warnings() {
            self.obs.tracer.event_with(|| w.clone());
        }
        span.close();
        Ok(AnalyzedStreamOutcome {
            outcome: RunOutcome { planned, rows, meter, measured_cost },
            analysis,
            stats,
        })
    }

    /// Re-plans a (residual) query with cardinality estimates floored at
    /// the observed per-condition counts in `floors`. Used mid-flight by
    /// the adaptive controllers; the planner's search runs disarmed (no
    /// flight record of its own — the splice is narrated as a `Replan`
    /// event on the original query's record) but its deterministic work
    /// counters still land in the registry. `None` when the residual is
    /// infeasible — the caller keeps the running pipeline.
    pub(crate) fn replan_with_floors(
        &self,
        query: &TargetQuery,
        floors: &BTreeMap<Fingerprint, f64>,
    ) -> Option<PlannedQuery> {
        let off = FlightRecorder::off();
        let flight = off.begin_with(|| (query.to_string(), self.scheme.name().to_string()));
        // Replans run from sequential pause points (batch boundaries), so
        // their search legitimately nests a `replan` span under the running
        // execute span.
        let _replan_span = self.obs.tracer.span("replan");
        let planned = self.with_card(|card| {
            let cal = CalibratedCard::new(card, floors);
            self.dispatch(query, &cal, flight, Some(&self.obs.tracer))
        });
        match planned {
            Ok(p) => {
                p.report.record_into(&self.obs.metrics);
                Some(p)
            }
            Err(e) => {
                self.obs.tracer.event_with(|| format!("replan infeasible: {e}"));
                None
            }
        }
    }

    /// Feeds a finished run's transfer meter and measured cost into the
    /// calibration layer, when one is installed.
    fn record_calibration(&self, meter: &Meter, measured_cost: f64) {
        if let Some(cal) = &self.calibration {
            let before = cal.fitted();
            cal.observe_run(meter.queries, meter.tuples_shipped, measured_cost);
            let after = cal.fitted();
            self.obs.tracer.event_with(|| {
                format!("calibration: {} run(s) observed, fitted {after:?}", cal.samples())
            });
            // A refit means cached plans were ranked under a cost model
            // that is no longer in force: drop them.
            if before != after {
                if let Some(cache) = &self.plan_cache {
                    let dropped = cache.invalidate_all();
                    self.obs.metrics.inc(names::PLANCACHE_INVALIDATIONS);
                    self.obs.tracer.event_with(|| {
                        format!(
                            "plan cache invalidated (cost-model refit {before:?} -> {after:?}): \
                             {dropped} entries dropped"
                        )
                    });
                }
            }
        }
    }

    /// Plans and executes on the streaming engine with mid-query adaptive
    /// re-planning: after every emitted batch a drift detector compares
    /// each source query's observed cardinality against its estimate, and
    /// when one exits the `[est/f, est·f]` band the pipeline pauses at the
    /// batch boundary, MCSC re-runs over the *residual* condition with
    /// estimates floored at the observed counts, and a structurally
    /// different winner is spliced in. Cross-segment deduplication keeps
    /// the answer set-identical to a non-adaptive run; with the `adaptive`
    /// feature off this delegates to plain streaming (splices always 0).
    pub fn run_adaptive(
        &self,
        query: &TargetQuery,
        cfg: &AdaptiveConfig,
    ) -> Result<AdaptiveOutcome, MediatorError> {
        let planned = self.plan(query)?;
        let span = self.obs.tracer.span("execute (adaptive)");
        let before = self.source.meter();
        let mut resilience = ResilienceMeter::default();
        let mut ctl = DriftController::new(self, query, cfg);
        let result = execute_stream_adaptive_traced(
            &planned.plan,
            &self.source,
            cfg.policy.as_ref(),
            &mut resilience,
            &cfg.stream,
            &mut ctl,
            Some(&self.obs.tracer),
        );
        let drift_triggers = ctl.drift_triggers;
        resilience.record_into(&self.obs.metrics);
        let (rows, stats, splices) = match result {
            Ok(ok) => ok,
            Err(e) => {
                self.obs.tracer.event_with(|| format!("adaptive run died: {e}"));
                span.close();
                return Err(MediatorError::Exec(e));
            }
        };
        let after = self.source.meter();
        let meter = Meter {
            queries: after.queries - before.queries,
            tuples_shipped: after.tuples_shipped - before.tuples_shipped,
            rejected: after.rejected - before.rejected,
        };
        let measured_cost = meter.cost(self.source.cost_params());
        self.record_run(&planned, &rows, &meter, measured_cost);
        self.record_stream(&stats);
        self.record_calibration(&meter, measured_cost);
        if splices > 0 {
            self.obs.tracer.event_with(|| {
                format!("adaptive: {splices} splice(s) from {drift_triggers} drift trigger(s)")
            });
        }
        span.close();
        Ok(AdaptiveOutcome {
            outcome: RunOutcome { planned, rows, meter, measured_cost },
            stats,
            resilience,
            splices,
            drift_triggers,
        })
    }

    /// Sink-driven twin of [`Mediator::run_adaptive`]: each deduplicated
    /// answer batch goes to `sink` as it is produced (return `false` to
    /// stop early) — the adaptive entry point `csqp serve` streams chunked
    /// responses through. The returned outcome's `rows` is empty.
    pub fn run_adaptive_each(
        &self,
        query: &TargetQuery,
        cfg: &AdaptiveConfig,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<AdaptiveOutcome, MediatorError> {
        let planned = self.plan(query)?;
        self.run_adaptive_each_planned(query, planned, cfg, sink)
    }

    /// [`Mediator::run_adaptive_each`] with planning already done — the
    /// executor for prepared plans served out of a
    /// [`PlanCache`]. `query` is still needed: the drift
    /// controller re-plans the *residual* condition when a splice fires.
    pub fn run_adaptive_each_planned(
        &self,
        query: &TargetQuery,
        planned: PlannedQuery,
        cfg: &AdaptiveConfig,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<AdaptiveOutcome, MediatorError> {
        let span = self.obs.tracer.span("execute (adaptive)");
        let before = self.source.meter();
        let mut resilience = ResilienceMeter::default();
        let mut ctl = DriftController::new(self, query, cfg);
        let mut emitted = 0u64;
        let mut schema = None;
        let result = execute_stream_adaptive_each_traced(
            &planned.plan,
            &self.source,
            cfg.policy.as_ref(),
            &mut resilience,
            &cfg.stream,
            &mut ctl,
            Some(&self.obs.tracer),
            &mut |b| {
                emitted += b.len() as u64;
                schema.get_or_insert_with(|| b.schema().clone());
                sink(b)
            },
        );
        let drift_triggers = ctl.drift_triggers;
        resilience.record_into(&self.obs.metrics);
        let (_, stats, splices) = match result {
            Ok(ok) => ok,
            Err(e) => {
                self.obs.tracer.event_with(|| format!("adaptive run died: {e}"));
                span.close();
                return Err(MediatorError::Exec(e));
            }
        };
        let after = self.source.meter();
        let meter = Meter {
            queries: after.queries - before.queries,
            tuples_shipped: after.tuples_shipped - before.tuples_shipped,
            rejected: after.rejected - before.rejected,
        };
        let measured_cost = meter.cost(self.source.cost_params());
        let rows = Relation::empty(match schema {
            Some(s) => s,
            None => {
                let attrs: Vec<&str> =
                    planned.plan.output_attrs().iter().map(String::as_str).collect();
                self.source
                    .relation()
                    .schema()
                    .project(&attrs)
                    .map_err(|e| MediatorError::Exec(ExecError::Schema(e.to_string())))?
            }
        });
        self.obs.tracer.event_with(|| format!("streamed {emitted} rows to sink"));
        self.record_run(&planned, &rows, &meter, measured_cost);
        self.record_stream(&stats);
        self.record_calibration(&meter, measured_cost);
        span.close();
        Ok(AdaptiveOutcome {
            outcome: RunOutcome { planned, rows, meter, measured_cost },
            stats,
            resilience,
            splices,
            drift_triggers,
        })
    }

    /// Plans a query and captures a [`QueryProfile`] of the planning work:
    /// the span tree under `plan`, the registry delta, and the flight
    /// trail. `rows`/cardinalities stay empty — nothing executed.
    pub fn plan_profiled(
        &self,
        query: &TargetQuery,
    ) -> Result<(PlannedQuery, QueryProfile), PlanError> {
        let capture = self.begin_profile();
        let planned = self.plan(query)?;
        let mut profile = self.finish_profile(capture, query);
        profile.est_cost = planned.est_cost;
        Ok((planned, profile))
    }

    /// Plans and executes with per-source-query observation
    /// ([`Mediator::run_analyzed`]) and captures the full [`QueryProfile`]:
    /// span tree, metrics delta, flight trail, and est-vs-observed
    /// cardinalities per subquery. This is what `--explain=profile` renders.
    pub fn run_profiled(
        &self,
        query: &TargetQuery,
    ) -> Result<(AnalyzedOutcome, QueryProfile), MediatorError> {
        let capture = self.begin_profile();
        let outcome = self.run_analyzed(query)?;
        let mut profile = self.finish_profile(capture, query);
        profile.rows = outcome.outcome.rows.len() as u64;
        profile.est_cost = outcome.outcome.planned.est_cost;
        profile.observed_cost = outcome.outcome.measured_cost;
        profile.cardinalities = outcome
            .analysis
            .subqueries
            .iter()
            .map(|sq| CardRow {
                label: sq.rendered.clone(),
                est_rows: sq.est_rows,
                observed_rows: sq.observed_rows,
            })
            .collect();
        Ok((outcome, profile))
    }

    /// Marks the start of a profile capture window on the shared registry,
    /// tracer, and clock.
    fn begin_profile(&self) -> ProfileCapture {
        ProfileCapture {
            metrics_before: self.obs.metrics.snapshot(),
            span_mark: self.obs.tracer.span_mark(),
            tick0: self.obs.tracer.tick(),
        }
    }

    /// Assembles the profile skeleton for everything recorded since
    /// `capture`: spans, metrics delta, flight trail, virtual-tick latency.
    /// The caller fills in outcome-specific fields (rows, costs,
    /// cardinalities).
    fn finish_profile(&self, capture: ProfileCapture, query: &TargetQuery) -> QueryProfile {
        self.obs.metrics.inc(names::PROFILE_CAPTURED);
        let (id, flight) = match self.flight.latest() {
            Some(rec) => (rec.id, rec.events.iter().map(|e| e.to_string()).collect()),
            None => (0, Vec::new()),
        };
        QueryProfile {
            id,
            query: query.to_string(),
            scheme: self.scheme.name().to_string(),
            latency: Some(LatencyKey {
                wall_us: None,
                ticks: self.obs.tracer.tick().saturating_sub(capture.tick0),
            }),
            spans: self.obs.tracer.spans_from(capture.span_mark),
            flight,
            metrics: self.obs.metrics.snapshot().diff(&capture.metrics_before),
            ..Default::default()
        }
    }
}

/// The "before" edge of a profile capture window (see
/// [`Mediator::begin_profile`]).
struct ProfileCapture {
    metrics_before: csqp_obs::MetricsSnapshot,
    span_mark: usize,
    tick0: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_relation::ops::{project, select};
    use csqp_source::Catalog;

    const EX11: &str = "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ \
                        title contains \"dreams\"";

    #[test]
    fn run_example_1_1_across_schemes() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();

        let mut costs = std::collections::HashMap::new();
        for scheme in [Scheme::GenCompact, Scheme::Dnf, Scheme::Cnf] {
            let m = Mediator::new(source.clone()).with_scheme(scheme);
            let out = m.run(&q).unwrap();
            assert_eq!(out.rows, want, "{scheme} returned a wrong answer");
            costs.insert(scheme, out.measured_cost);
        }
        // GenCompact ≤ DNF < CNF in measured cost on Example 1.1.
        assert!(costs[&Scheme::GenCompact] <= costs[&Scheme::Dnf] + 1e-9);
        assert!(costs[&Scheme::Dnf] < costs[&Scheme::Cnf]);
        // DISCO and naive pushdown are infeasible.
        for scheme in [Scheme::Disco, Scheme::NaivePush] {
            let m = Mediator::new(source.clone()).with_scheme(scheme);
            assert!(matches!(m.run(&q), Err(MediatorError::Plan(_))), "{scheme}");
        }
    }

    #[test]
    fn gencompact_and_genmodular_agree_on_cost() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("car_dealer").unwrap().clone();
        let q = TargetQuery::parse(
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
        )
        .unwrap();
        let compact = Mediator::new(source.clone()).plan(&q).unwrap();
        let modular =
            Mediator::new(source.clone()).with_scheme(Scheme::GenModular).plan(&q).unwrap();
        assert!(
            (compact.est_cost - modular.est_cost).abs() < 1e-6,
            "optimality preserved: compact {} vs modular {}",
            compact.est_cost,
            modular.est_cost
        );
    }

    #[test]
    fn cardinality_kinds_all_plan() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("car_guide").unwrap().clone();
        let q = TargetQuery::parse(
            "style = \"sedan\" ^ make = \"Toyota\" ^ price <= 20000",
            &["listing_id", "model"],
        )
        .unwrap();
        for kind in [CardKind::Stats, CardKind::Oracle, CardKind::Uniform { atom_selectivity: 0.2 }]
        {
            let m = Mediator::new(source.clone()).with_cardinality(kind);
            let planned = m.plan(&q).unwrap();
            assert!(planned.plan.is_concrete());
        }
    }

    #[test]
    fn custom_cost_model_planning() {
        use csqp_plan::model::LatencyBandwidthCost;
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("car_dealer").unwrap().clone();
        let q = TargetQuery::parse(
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
        )
        .unwrap();
        let affine = Mediator::new(source.clone()).plan(&q).unwrap();
        let lbc = Mediator::new(source.clone())
            .with_cost_model(Arc::new(LatencyBandwidthCost::default()))
            .plan(&q)
            .unwrap();
        // Same feasibility, different units; both concrete and executable.
        assert!(lbc.plan.is_concrete());
        assert!((lbc.est_cost - affine.est_cost).abs() > 1e-9, "models differ in units");
        let out = Mediator::new(source.clone())
            .with_cost_model(Arc::new(LatencyBandwidthCost::default()))
            .run(&q)
            .unwrap();
        assert!(!out.rows.is_empty());
    }

    #[test]
    fn width_aware_model_prefers_narrow_fetches() {
        use csqp_plan::model::LatencyBandwidthCost;
        use csqp_plan::resolve::resolve;
        use csqp_plan::{attrs, Plan, UniformCard};
        // Two alternatives with identical row counts: a narrow direct query
        // vs a wide over-fetching nested plan. The width-aware model must
        // pick the narrow one when the width penalty exceeds the round trip.
        let cond = |s: &str| Some(csqp_expr::parse::parse_condition(s).unwrap());
        let wide = Plan::local(
            cond("b = 2"),
            attrs(["k"]),
            Plan::source(cond("a = 1"), attrs(["k", "b", "x", "y", "z", "w", "v", "u"])),
        );
        let narrow = Plan::source(cond("a = 1 ^ b = 2"), attrs(["k"]));
        let space = Plan::Choice(vec![wide.clone(), narrow.clone()]);
        let card = UniformCard { rows: 1000.0, atom_selectivity: 0.5 };
        let model = LatencyBandwidthCost {
            latency: 1.0,
            bytes_per_attr: 16.0,
            tuple_overhead: 0.0,
            bandwidth: 16.0,
        };
        let picked = resolve(&space, &model, &card);
        assert_eq!(picked, narrow, "width-aware model avoids the 8-attribute fetch");
    }

    #[test]
    fn gencompact_keeps_ranked_alternatives() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let planned = Mediator::new(source).plan(&q).unwrap();
        assert!(!planned.alternatives.is_empty(), "losers survive as ranked alternatives");
        let mut prev = planned.est_cost;
        for alt in &planned.alternatives {
            assert!(alt.est_cost >= prev - 1e-9, "alternatives ranked cheapest-first");
            assert!(alt.plan != planned.plan, "the winner is not duplicated");
            assert!(alt.plan.is_concrete());
            prev = alt.est_cost;
        }
    }

    #[test]
    fn run_resilient_retries_through_transient_faults() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(4).with_transient(0.5)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();
        let m = Mediator::new(source);
        let policy = RetryPolicy { max_retries: 20, ..Default::default() };
        let out = m.run_resilient(&q, &policy).unwrap();
        assert_eq!(out.outcome.rows, want, "answer exact despite the storm");
        assert!(out.resilience.retries > 0, "seed 4 at p=0.5 injects faults");
        assert_eq!(out.plan_rank, 0, "retries alone salvaged the primary plan");
    }

    #[test]
    fn run_resilient_fails_over_to_alternative_plan() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        // The first attempt is an outage and retries are disabled: the
        // primary plan dies, the mediator degrades to the next-ranked
        // alternative, which starts past the outage window and succeeds.
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(0).with_outage(0, 1)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();
        let m = Mediator::new(source);
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let out = m.run_resilient(&q, &policy).unwrap();
        assert_eq!(out.outcome.rows, want, "the fallback plan is exact too");
        assert!(out.plan_rank >= 1, "served by an alternative, not the primary");
        assert_eq!(out.resilience.failovers as usize, out.plan_rank);
        assert_eq!(out.failures.len(), out.plan_rank, "one recorded failure per dead plan");
        assert!(matches!(out.failures[0].1, ExecError::Exhausted { .. }));
    }

    #[test]
    fn run_resilient_errors_when_every_plan_dies() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(0).with_transient(1.0)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let m = Mediator::new(source);
        let err = m.run_resilient(&q, &RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, MediatorError::Exec(ExecError::Exhausted { .. })), "{err}");
    }

    #[test]
    fn metrics_snapshot_counts_planner_and_exec_work() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let m = Mediator::new(source);
        let out = m.run(&q).unwrap();
        let snap = m.metrics_snapshot();
        if m.obs().enabled() {
            assert!(snap.counter(names::PLANNER_CHECK_CALLS) > 0, "planner counters flushed");
            assert_eq!(
                snap.counter(names::SOURCE_QUERIES),
                out.meter.queries,
                "meter routed through"
            );
            let trace = m.obs().tracer.render();
            assert!(trace.contains("> plan"), "trace records the planning span:\n{trace}");
            assert!(trace.contains("> execute"), "trace records the execution span:\n{trace}");
            // A second identical mediator produces a byte-identical trace:
            // virtual ticks, not wall clock.
            let m2 = Mediator::new(catalog.get("bookstore").unwrap().clone());
            m2.run(&q).unwrap();
            assert_eq!(m2.obs().tracer.render(), trace, "trace is deterministic");
        } else {
            assert_eq!(snap.counter(names::PLANNER_CHECK_CALLS), 0, "no-op recorder stays empty");
            assert!(m.obs().tracer.render().is_empty());
        }
    }

    #[test]
    fn run_analyzed_matches_run_and_sees_every_fetch() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let plain = Mediator::new(source.clone()).run(&q).unwrap();
        let m = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let analyzed = m.run_analyzed(&q).unwrap();
        assert_eq!(analyzed.outcome.rows, plain.rows, "analysis is observation-only");
        assert_eq!(
            analyzed.analysis.subqueries.len(),
            analyzed.outcome.planned.plan.source_queries().len(),
            "one observation per source query"
        );
        // The oracle estimator knows exact sizes, so nothing drifts.
        assert!(analyzed.analysis.drift_warnings().is_empty());
    }

    #[test]
    fn shared_obs_handle_accumulates_across_mediators() {
        use csqp_obs::Obs;
        let catalog = Catalog::demo_small(7);
        let obs = Arc::new(Obs::new());
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let m1 = Mediator::new(catalog.get("bookstore").unwrap().clone()).with_obs(obs.clone());
        m1.run(&q).unwrap();
        let after_one = m1.metrics_snapshot().counter(names::SOURCE_QUERIES);
        let m2 = Mediator::new(catalog.get("bookstore").unwrap().clone()).with_obs(obs);
        m2.run(&q).unwrap();
        let after_two = m2.metrics_snapshot().counter(names::SOURCE_QUERIES);
        if m1.obs().enabled() {
            assert_eq!(after_two, after_one * 2, "two identical runs, one shared registry");
        } else {
            assert_eq!(after_two, 0);
        }
    }

    #[test]
    fn wrapper_usage_shape() {
        // A mediator as a per-source wrapper: callers just ask SP queries.
        let catalog = Catalog::demo_small(7);
        let bank = catalog.get("bank").unwrap().clone();
        let wrapper = Mediator::new(bank);
        let q = TargetQuery::parse(
            "acct_no = \"acct-00007\" ^ pin = \"pin-00007\"",
            &["owner", "balance"],
        )
        .unwrap();
        let out = wrapper.run(&q).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.meter.queries >= 1);
        assert!(out.measured_cost > 0.0);
    }

    #[test]
    fn run_streamed_matches_run() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let plain = Mediator::new(source.clone()).run(&q).unwrap();
        let m = Mediator::new(source);
        let streamed = m.run_streamed(&q, &StreamConfig::serial()).unwrap();
        assert_eq!(streamed.outcome.rows, plain.rows, "streaming is a pure execution change");
        assert_eq!(streamed.outcome.meter, plain.meter, "identical transfer");
        assert_eq!(streamed.outcome.measured_cost, plain.measured_cost);
        let snap = m.metrics_snapshot();
        if m.obs().enabled() && cfg!(feature = "stream") {
            assert_eq!(snap.counter(names::EXEC_BATCHES), streamed.stats.batches);
            assert!(streamed.stats.batches > 0);
        }
    }

    #[test]
    fn run_streamed_each_feeds_the_sink_incrementally() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = Mediator::new(source.clone()).run(&q).unwrap().rows;
        let m = Mediator::new(source);
        let mut got: Vec<csqp_relation::tuple::Tuple> = Vec::new();
        let out = m
            .run_streamed_each(&q, &StreamConfig::serial(), &mut |b| {
                got.extend(b.into_tuples());
                true
            })
            .unwrap();
        assert!(out.outcome.rows.is_empty(), "the sink consumed the answer");
        assert_eq!(Relation::from_tuples(want.schema().clone(), got), want);
        assert_eq!(
            out.outcome.meter,
            Mediator::new(catalog.get("bookstore").unwrap().clone()).run(&q).unwrap().meter
        );
    }

    #[test]
    fn run_streamed_limit_stops_early() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let full = Mediator::new(source.clone()).run(&q).unwrap().rows;
        assert!(full.len() > 1, "need more than one row for the limit to bite");
        let m = Mediator::new(source);
        let limited = m.run_streamed(&q, &StreamConfig::serial().with_limit(1)).unwrap();
        assert_eq!(limited.outcome.rows.len(), 1);
        assert!(full.contains(&limited.outcome.rows.tuples()[0]));
    }

    #[test]
    fn run_streamed_resilient_survives_transient_faults() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(4).with_transient(0.5)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();
        let m = Mediator::new(source);
        let policy = RetryPolicy { max_retries: 20, ..Default::default() };
        let (out, res) = m.run_streamed_resilient(&q, &policy, &StreamConfig::serial()).unwrap();
        assert_eq!(out.outcome.rows, want, "answer exact despite the storm");
        assert!(res.retries > 0, "seed 4 at p=0.5 injects faults");
    }

    #[test]
    fn run_streamed_analyzed_renders_the_memory_footer() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = Mediator::new(source.clone()).run(&q).unwrap().rows;
        let m = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let out = m.run_streamed_analyzed(&q, &StreamConfig::serial()).unwrap();
        assert_eq!(out.outcome.rows, want);
        let text = out.explain();
        assert!(text.contains("peak resident"), "{text}");
        assert_eq!(
            out.analysis.subqueries.len(),
            out.outcome.planned.plan.source_queries().len(),
            "no early termination: every source query observed"
        );
    }

    /// A source whose real data contradicts a uniform estimator: the
    /// `a ^ b` form looks vanishingly selective but actually matches 150
    /// of 200 rows, while the `c` form looks expensive but matches 5.
    fn drifty_source() -> Arc<Source> {
        use csqp_expr::{Value, ValueType};
        use csqp_relation::Schema;
        use csqp_ssdl::parse_ssdl;
        let schema = Schema::new(
            "t",
            vec![
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
            ],
            &["k"],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..200i64)
            .map(|i| {
                let ab = i64::from(i < 150);
                let c = i64::from(i < 150 && i % 40 == 0);
                vec![Value::Int(i), Value::Int(ab), Value::Int(ab), Value::Int(c)]
            })
            .collect();
        let desc = parse_ssdl(
            "source drifty {\n\
             s1 -> a = $int ^ b = $int ;\n\
             s2 -> c = $int ;\n\
             attributes :: s1 : { k, a, b, c } ;\n\
             attributes :: s2 : { k, a, b, c } ;\n\
             }",
        )
        .unwrap();
        Arc::new(Source::new(
            Relation::from_rows(schema, rows),
            desc,
            csqp_source::CostParams::new(10.0, 1.0),
        ))
    }

    #[test]
    fn run_adaptive_matches_run_when_nothing_drifts() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let plain = Mediator::new(source.clone()).run(&q).unwrap();
        // The oracle estimator is exact, so the drift band never trips.
        let m = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let out = m.run_adaptive(&q, &AdaptiveConfig::default()).unwrap();
        assert_eq!(out.outcome.rows, plain.rows, "adaptive execution is answer-preserving");
        assert_eq!(out.splices, 0, "exact estimates leave nothing to re-plan");
        assert_eq!(out.outcome.meter, plain.meter, "no splice: identical transfer");
    }

    #[test]
    fn run_adaptive_splices_on_cardinality_drift() {
        use csqp_obs::FlightRecorder;
        let source = drifty_source();
        let q = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["k"]).unwrap();
        assert_eq!(want.len(), 4, "rows 0, 40, 80, 120 match all three atoms");
        // The uniform estimator prices `a ^ b` at 200·0.05² = 0.5 rows and
        // `c` at 10, so planning picks the a^b form — which actually ships
        // 150 tuples.
        let recorder = Arc::new(FlightRecorder::new());
        let m = Mediator::new(source.clone())
            .with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 })
            .with_flight_recorder(recorder);
        let cfg = AdaptiveConfig {
            stream: StreamConfig::serial().with_batch_size(2),
            ..Default::default()
        };
        let out = m.run_adaptive(&q, &cfg).unwrap();
        assert_eq!(out.outcome.rows, want, "splicing never changes the answer set");
        if cfg!(all(feature = "stream", feature = "adaptive")) {
            assert!(out.drift_triggers >= 1, "the a^b leaf exits the [½,2]× band");
            assert!(out.splices >= 1, "floored re-plan switches to the c form");
            let snap = m.metrics_snapshot();
            if m.obs().enabled() {
                assert_eq!(snap.counter(names::REPLAN_SPLICES), out.splices);
                assert!(snap.counter(names::REPLAN_DRIFT_TRIGGERS) >= out.drift_triggers);
                let why = m.explain_why();
                assert!(why.contains("[replan] drift"), "EXPLAIN WHY renders the splice:\n{why}");
            }
        } else {
            assert_eq!(out.splices, 0, "fallback path never consults the controller");
        }
        // Determinism: a second identical run takes the same decisions.
        let m2 = Mediator::new(drifty_source())
            .with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 });
        let out2 = m2.run_adaptive(&q, &cfg).unwrap();
        assert_eq!(out2.outcome.rows, want);
        assert_eq!(out2.splices, out.splices);
        assert_eq!(out2.drift_triggers, out.drift_triggers);
        assert_eq!(out2.outcome.meter, out.outcome.meter);
    }

    #[test]
    fn run_adaptive_each_streams_the_same_answer() {
        let source = drifty_source();
        let q = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["k"]).unwrap();
        let m =
            Mediator::new(source).with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 });
        let cfg = AdaptiveConfig {
            stream: StreamConfig::serial().with_batch_size(2),
            ..Default::default()
        };
        let mut got: Vec<csqp_relation::tuple::Tuple> = Vec::new();
        let out = m
            .run_adaptive_each(&q, &cfg, &mut |b| {
                got.extend(b.into_tuples());
                true
            })
            .unwrap();
        assert!(out.outcome.rows.is_empty(), "the sink consumed the answer");
        assert_eq!(Relation::from_tuples(want.schema().clone(), got), want);
    }

    #[test]
    fn calibration_learns_the_real_cost_constants() {
        use crate::calibrate::CalibratingCostModel;
        use csqp_plan::model::LatencyBandwidthCost;
        let source = drifty_source();
        // Start from a wildly wrong inner model; the source's real §6.2
        // constants are (10, 1) and measured cost is exact in them.
        let cal = Arc::new(CalibratingCostModel::new(Arc::new(LatencyBandwidthCost::default())));
        let m = Mediator::new(source)
            .with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 })
            .with_calibration(cal.clone());
        let q1 = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let q2 = TargetQuery::parse("c = 1", &["k"]).unwrap();
        m.run_adaptive(&q1, &AdaptiveConfig::default()).unwrap();
        m.run_adaptive(&q2, &AdaptiveConfig::default()).unwrap();
        assert_eq!(cal.samples(), 2, "every finished adaptive run feeds the fit");
        let (k1, k2) = cal.fitted().expect("two independent runs pin the constants");
        assert!((k1 - 10.0).abs() < 1e-6, "k1 converged: {k1}");
        assert!((k2 - 1.0).abs() < 1e-6, "k2 converged: {k2}");
        assert!(m.calibration().is_some());
    }

    #[test]
    fn federation_run_streamed_matches_run() {
        use crate::federation::Federation;
        let catalog = Catalog::demo_small(7);
        let fed = Federation::new()
            .with_member(catalog.get("bookstore").unwrap().clone())
            .with_member(catalog.get("car_dealer").unwrap().clone());
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let (_, plain) = fed.run(&q).unwrap();
        let (fp, streamed, stats) = fed.run_streamed(&q, &StreamConfig::serial()).unwrap();
        assert_eq!(streamed.rows, plain.rows, "federation streaming is execution-only");
        assert_eq!(fp.planned.plan, plain.planned.plan, "same chosen member plan");
        if cfg!(feature = "stream") {
            assert!(stats.batches > 0);
        }
    }
}
