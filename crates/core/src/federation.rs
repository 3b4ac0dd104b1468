//! Source selection across mirrors: the same logical data offered by
//! several Internet sources with *different* capabilities and cost
//! constants (e.g. two bookstores, one searchable by author only, one
//! downloadable but slow).
//!
//! The federation plans the target query against every member and executes
//! the cheapest feasible plan — capability-sensitivity applied one level up
//! from [`crate::mediator::Mediator`].
//!
//! Two filters keep that fan-out proportional to the distinct work. The
//! compiled capability index ([`crate::capindex`]) drops members that cannot
//! answer the query's shape before any planning. Planning classes
//! ([`Federation::planning_classes`]) group members with identical planning
//! inputs ([`Source::plans_like`]): GenCompact runs once per class, the
//! class's other candidates share the outcome, and the earliest member still
//! wins ties, so every choice equals planning each member alone.

use crate::capindex::{CapabilityIndex, IndexDecision};
use crate::mediator::{execute_with_failover, CardKind, Mediator, MediatorError, RunOutcome};
use crate::plancache::{CacheDecision, Lookup, PlanCache};
use crate::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_obs::{names, FlightRecorder, Obs, PlanEvent, QueryFlight};
use csqp_plan::exec::{execute_measured, ExecError, RetryPolicy};
use csqp_plan::exec_stream::{
    execute_stream_adaptive_traced, execute_stream_measured_traced, plan_condition,
    ReplanController, ReplanProbe, SpliceAction, StreamConfig, StreamStats,
};
use csqp_plan::AttrSet;
use csqp_source::{Meter, ResilienceMeter, Source};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Circuit-breaker policy for federation members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreakerConfig {
    /// Consecutive execution failures that open the breaker (quarantine).
    pub failure_threshold: u32,
    /// Federated runs the member sits out once quarantined; afterwards it
    /// is *half-open* — offered one probe, closing on success and
    /// re-opening on failure.
    pub cooldown_ticks: u64,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        CircuitBreakerConfig { failure_threshold: 3, cooldown_ticks: 2 }
    }
}

/// Per-member breaker state. The clock is the federation's own run counter
/// (one tick per [`Federation::run_resilient`] call) — no wall-clock, so
/// quarantine windows replay deterministically.
#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: AtomicU32,
    /// 0 = closed; otherwise the tick at which the member turns half-open.
    half_open_at: AtomicU64,
}

/// What the breaker allows a member to do in the current run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerGate {
    Closed,
    Quarantined,
    HalfOpen,
}

impl BreakerState {
    fn gate(&self, now: u64) -> BreakerGate {
        let at = self.half_open_at.load(Ordering::Relaxed);
        if at == 0 {
            BreakerGate::Closed
        } else if now < at {
            BreakerGate::Quarantined
        } else {
            BreakerGate::HalfOpen
        }
    }

    /// Resets the breaker; returns `true` when this actually closed an
    /// open/half-open breaker (a state transition worth counting).
    fn record_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.half_open_at.swap(0, Ordering::Relaxed) != 0
    }

    /// Registers a failed run; returns `true` when this opened (or
    /// re-opened) the breaker.
    fn record_failure(&self, now: u64, cfg: &CircuitBreakerConfig) -> bool {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let half_open = self.half_open_at.load(Ordering::Relaxed);
        // A failed half-open probe re-opens immediately; otherwise open
        // once the threshold is crossed.
        if half_open != 0 || failures >= cfg.failure_threshold {
            self.half_open_at.store(now + cfg.cooldown_ticks + 1, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// A set of interchangeable sources for one logical relation.
#[derive(Debug)]
pub struct Federation {
    members: Vec<Arc<Source>>,
    breakers: Vec<BreakerState>,
    card: CardKind,
    breaker_cfg: CircuitBreakerConfig,
    /// Virtual clock: one tick per resilient run.
    clock: AtomicU64,
    obs: Arc<Obs>,
    flight: Arc<FlightRecorder>,
    /// Compiled capability index over the members (source pre-selection).
    /// Built lazily on first plan; invalidated by membership changes.
    capindex: OnceLock<CapabilityIndex>,
    /// Member → planning class (see [`Federation::planning_classes`]).
    /// Built lazily on first plan; reset by membership and estimator
    /// changes.
    classes: OnceLock<Vec<usize>>,
    use_capindex: bool,
    /// Prepared-plan cache consulted by [`Federation::prepare`]; absent by
    /// default (every prepare bypasses to cold planning).
    plan_cache: Option<Arc<PlanCache>>,
}

impl Default for Federation {
    fn default() -> Self {
        Federation::new()
    }
}

/// One entry of a federated failover trace: what happened to a member
/// during a resilient run, in the order members were considered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberEvent {
    /// Skipped: the circuit breaker is open.
    Quarantined,
    /// Planning failed (the member cannot answer this query).
    Infeasible,
    /// The breaker was half-open and this attempt was its probe.
    Probed,
    /// Every plan (primary + alternatives) failed at execution; the last
    /// error, rendered.
    ExecFailed(String),
    /// This member was spliced into a running adaptive pipeline to serve
    /// the residual of the named member, which failed mid-stream.
    Spliced(String),
    /// This member served the answer.
    Served,
}

/// Externally observable health of one member's circuit breaker, as
/// exposed by [`Federation::breaker_states`] and the `breaker.state.*`
/// gauges: what the breaker would allow the *next* federated run to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerHealth {
    /// Healthy: the member participates normally.
    Closed,
    /// Cooling down: the member sits runs out.
    Open,
    /// Cooldown elapsed: the member gets one probe attempt.
    HalfOpen,
}

impl BreakerHealth {
    /// Stable gauge encoding: 0 closed, 1 half-open, 2 open.
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerHealth::Closed => 0.0,
            BreakerHealth::HalfOpen => 1.0,
            BreakerHealth::Open => 2.0,
        }
    }

    /// Human-readable label (`closed` / `half-open` / `open`), used by the
    /// serve trailer.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerHealth::Closed => "closed",
            BreakerHealth::HalfOpen => "half-open",
            BreakerHealth::Open => "open",
        }
    }
}

/// A member-ordered failover trace (member name, event). A member can
/// appear twice: once `Probed`, then `Served`/`ExecFailed`.
pub type FailoverTrace = Vec<(String, MemberEvent)>;

/// The outcome of a resilient federated run.
#[derive(Debug)]
pub struct FederatedRun {
    /// The plan-and-execute outcome on the serving member.
    pub outcome: RunOutcome,
    /// Name of the member that served the answer.
    pub source_name: String,
    /// Rank of the serving plan on that member (0 = its primary plan).
    pub plan_rank: usize,
    /// Cumulative resilience metrics across every member and plan tried
    /// (member switches count as failovers, on top of plan switches).
    pub resilience: ResilienceMeter,
    /// The failover trace, for explainability and determinism checks.
    pub trace: FailoverTrace,
}

/// The outcome of an adaptive federated run
/// ([`Federation::run_adaptive`]).
#[derive(Debug)]
pub struct FederatedAdaptiveRun {
    /// The resilient-run outcome. `outcome.planned` is the *primary*
    /// member's plan; `source_name` names the member that finished the
    /// stream (the last splice target when splices fired); `outcome.meter`
    /// and `measured_cost` aggregate over every member that shipped
    /// tuples, each charged at its own §6.2 constants.
    pub run: FederatedRun,
    /// Batch/memory stats accumulated across every pipeline segment.
    pub stats: StreamStats,
    /// How many mid-stream member splices the breaker controller made.
    pub splices: u64,
}

impl FederatedAdaptiveRun {
    /// The per-member event trace, in the order events happened.
    pub fn trace(&self) -> &FailoverTrace {
        &self.run.trace
    }
}

/// Outcome of [`Federation::prepare`]: the member to execute on, the plan
/// (rebound from the prepared-plan cache, or cold-planned), and how the
/// cache answered.
#[derive(Debug)]
pub struct PreparedFederated {
    /// Index of the winning member in [`Federation::members`].
    pub member: usize,
    /// The plan to execute on that member.
    pub planned: PlannedQuery,
    /// How the prepared-plan cache probe went.
    pub decision: CacheDecision,
    /// Per-member planning outcomes — empty on a cache hit, where no
    /// fan-out ran.
    pub considered: Vec<(String, Result<f64, PlanError>)>,
    /// The flight record narrating this prepare (0 with a disarmed
    /// recorder). Captured from the begin handle itself, so it stays
    /// correct when concurrent queries interleave their flights.
    pub flight_id: u64,
}

/// A federation planning decision.
#[derive(Debug)]
pub struct FederatedPlan {
    /// The chosen source.
    pub source: Arc<Source>,
    /// Its plan.
    pub planned: PlannedQuery,
    /// Per-member outcomes (member name, estimated cost or the error),
    /// for explainability.
    pub considered: Vec<(String, Result<f64, PlanError>)>,
    /// The flight record narrating this plan (0 with a disarmed recorder).
    pub flight_id: u64,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Federation {
            members: Vec::new(),
            breakers: Vec::new(),
            card: CardKind::Stats,
            breaker_cfg: CircuitBreakerConfig::default(),
            clock: AtomicU64::new(0),
            obs: Arc::new(Obs::new()),
            flight: Arc::new(FlightRecorder::off()),
            capindex: OnceLock::new(),
            classes: OnceLock::new(),
            use_capindex: true,
            plan_cache: None,
        }
    }

    /// Arms this federation with a flight recorder: every `plan` /
    /// `run_resilient` call leaves a per-query record of member selection,
    /// breaker transitions, and failovers, replayable via
    /// [`Federation::explain_why`]. Events are only recorded in the
    /// sequential merge sections, so records are identical with the
    /// `parallel` feature on or off.
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = recorder;
        self
    }

    /// The flight recorder (disarmed by default).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Renders the `EXPLAIN WHY` report for the most recent federated
    /// query (see [`csqp_plan::why::explain_why`]).
    pub fn explain_why(&self) -> String {
        csqp_plan::why::explain_why(self.flight.latest().as_ref())
    }

    /// Shares an observability handle with this federation. Member
    /// mediators used for the planning fan-out keep private handles — the
    /// federation flushes their reports into this registry *after* the
    /// order-preserving merge, so counters and trace stay deterministic
    /// with the `parallel` feature on or off.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Member-attributed health-tap counter: `<prefix><member>` += 1. The
    /// suffix-named `member.*` families feed the windowed health scorer
    /// (`csqp_obs::health::signals_from_window`). Gated on the recording
    /// build so obs-off pays for neither the formatting nor the lock.
    fn tap(&self, prefix: &str, member: &str) {
        self.tap_add(prefix, member, 1);
    }

    /// Like [`Federation::tap`] with an explicit delta; zero deltas are
    /// skipped so windows only carry members with activity.
    fn tap_add(&self, prefix: &str, member: &str, delta: u64) {
        if self.obs.enabled() && delta > 0 {
            self.obs.metrics.add(&format!("{prefix}{member}"), delta);
        }
    }

    /// Cost tap: both cost signals are kept in integral millis so they ride
    /// the counter machinery (and its windowed deltas) unchanged.
    fn tap_costs(&self, member: &str, est_cost: f64, observed_cost: f64) {
        self.tap_add(names::MEMBER_EST_COST_MILLI_PREFIX, member, to_milli(est_cost));
        self.tap_add(names::MEMBER_OBS_COST_MILLI_PREFIX, member, to_milli(observed_cost));
    }

    /// A point-in-time snapshot of every metric this federation recorded.
    /// The per-member `breaker.state.<member>` gauges are refreshed from
    /// the live breakers first, so `/metrics` always shows current health
    /// (the refresh is a pure function of the deterministic run clock).
    pub fn metrics_snapshot(&self) -> csqp_obs::MetricsSnapshot {
        for (name, health) in self.breaker_states() {
            self.obs
                .metrics
                .gauge_set(&format!("{}{name}", names::BREAKER_STATE_PREFIX), health.as_gauge());
        }
        self.obs.metrics.snapshot()
    }

    /// Live per-member breaker health, in member order: what the breaker
    /// would allow each member to do in the next federated run. Reads the
    /// run clock without advancing it.
    pub fn breaker_states(&self) -> Vec<(String, BreakerHealth)> {
        let next = self.clock.load(Ordering::Relaxed) + 1;
        self.members
            .iter()
            .zip(&self.breakers)
            .map(|(m, b)| {
                let health = match b.gate(next) {
                    BreakerGate::Closed => BreakerHealth::Closed,
                    BreakerGate::Quarantined => BreakerHealth::Open,
                    BreakerGate::HalfOpen => BreakerHealth::HalfOpen,
                };
                (m.name.clone(), health)
            })
            .collect()
    }

    /// Adds a member source.
    pub fn with_member(mut self, source: Arc<Source>) -> Self {
        self.members.push(source);
        self.breakers.push(BreakerState::default());
        // Membership changed: any compiled index is stale, and cached
        // prepared plans chose their winner against the old member set.
        self.capindex = OnceLock::new();
        self.classes = OnceLock::new();
        self.plancache_invalidate("membership change");
        self
    }

    /// Installs a prepared-plan cache: [`Federation::prepare`] serves
    /// repeat query *shapes* out of it instead of re-running the planning
    /// fan-out, and every breaker transition or membership change wipes it
    /// (the cached winners were chosen against a world that no longer
    /// holds). Share the same handle with the member mediators
    /// ([`Mediator::with_plan_cache`]) so cost-model recalibration wipes
    /// it too.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The installed prepared-plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Wipes the prepared-plan cache (no-op without one): the world the
    /// cached winners were ranked against changed.
    fn plancache_invalidate(&self, why: &str) {
        if let Some(cache) = &self.plan_cache {
            let dropped = cache.invalidate_all();
            self.obs.metrics.inc(names::PLANCACHE_INVALIDATIONS);
            self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, 0.0);
            self.obs.tracer.event_with(|| {
                format!("plan cache invalidated ({why}): {dropped} entries dropped")
            });
        }
    }

    /// Enables or disables the compiled capability index pre-filter
    /// (enabled by default). With the index off every member is planned in
    /// full — the reference behaviour the differential suite compares
    /// against; plans and answers are identical either way.
    pub fn with_capability_index(mut self, on: bool) -> Self {
        self.use_capindex = on;
        self
    }

    /// The compiled capability index, building it on first use. `None`
    /// when the pre-filter is disabled.
    pub fn capability_index(&self) -> Option<&CapabilityIndex> {
        if !self.use_capindex {
            return None;
        }
        Some(self.capindex.get_or_init(|| {
            let idx = CapabilityIndex::build(&self.members);
            // One virtual tick per member's facts compilation —
            // deterministic, so it is safe under golden snapshots.
            self.obs.metrics.add(names::CAPINDEX_BUILD_TICKS, idx.len() as u64);
            idx
        }))
    }

    /// Runs the capability-index pre-filter for one query (when enabled)
    /// and records the candidate/pruned counters.
    fn index_decision(&self, query: &TargetQuery) -> Option<IndexDecision> {
        let idx = self.capability_index()?;
        let _span = self.obs.tracer.span("capindex select");
        let decision = idx.candidates(query);
        self.obs.metrics.add(names::CAPINDEX_CANDIDATES, decision.candidates.len() as u64);
        self.obs.metrics.add(names::CAPINDEX_PRUNED, decision.pruned as u64);
        Some(decision)
    }

    /// The planning classes: entry `i` is the lowest index of a member
    /// that plans like member `i` ([`Source::plans_like`] under this
    /// federation's estimator), so it is `i` itself for a member with no
    /// earlier twin. Built once in O(members): each member's
    /// [`Source::planning_key`] picks a bucket, and an exact `plans_like`
    /// against the bucket's classes settles it.
    pub fn planning_classes(&self) -> &[usize] {
        self.classes.get_or_init(|| {
            let input = self.card.input();
            let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut class = Vec::with_capacity(self.members.len());
            for (i, m) in self.members.iter().enumerate() {
                let firsts = buckets.entry(m.planning_key(input)).or_default();
                match firsts.iter().find(|&&f| self.members[f].plans_like(m, input)) {
                    Some(&f) => class.push(f),
                    None => {
                        firsts.push(i);
                        class.push(i);
                    }
                }
            }
            class
        })
    }

    /// Fans full planning out over the members that survive `decision`
    /// (all members when `decision` is `None`), returning one entry per
    /// candidate in member order — pruned members are absent, so the
    /// planning cost and the result size scale with the candidate set, not
    /// the federation.
    ///
    /// Planning runs once per planning class: the first candidate of each
    /// class (in member order) is planned, and its outcome is handed to
    /// the class's other candidates. Planning is a pure function of the
    /// inputs the class shares, so each entry equals what planning that
    /// member alone returns (apart from its search report).
    fn plan_candidates(
        &self,
        query: &TargetQuery,
        decision: Option<&IndexDecision>,
    ) -> Vec<CandidatePlan> {
        let classes = self.planning_classes();
        let work: Vec<usize> = (0..self.members.len())
            .filter(|&i| decision.is_none_or(|d| d.is_candidate(i)))
            .collect();
        // `planned[slot[k]]` is the member whose planner run `work[k]` uses.
        let mut slot_of_class: HashMap<usize, usize> = HashMap::with_capacity(work.len());
        let mut planned: Vec<usize> = Vec::new();
        let slot: Vec<usize> = work
            .iter()
            .map(|&i| {
                *slot_of_class.entry(classes[i]).or_insert_with(|| {
                    planned.push(i);
                    planned.len() - 1
                })
            })
            .collect();
        let card = self.card;
        let outcomes = crate::par::par_map(&planned, |&i| {
            Mediator::new(self.members[i].clone()).with_cardinality(card).plan(query)
        });
        // Slots first appear in increasing order, each at its planned member;
        // later candidates of the class clone that member's entry.
        let mut outcomes = outcomes.into_iter();
        let mut first_at: Vec<usize> = Vec::with_capacity(planned.len());
        let mut out: Vec<CandidatePlan> = Vec::with_capacity(work.len());
        for (member, s) in work.into_iter().zip(slot) {
            let outcome = if s == first_at.len() {
                first_at.push(out.len());
                outcomes.next().expect("one outcome per planned member")
            } else {
                out[first_at[s]].outcome.clone()
            };
            out.push(CandidatePlan {
                member,
                shared_from: (planned[s] != member).then_some(planned[s]),
                outcome,
            });
        }
        out
    }

    /// Takes one candidate's outcome in the sequential merge, recording
    /// what its planning cost: the planner report of a member planned
    /// itself, or — for a member served by a sibling's plan — a flight note
    /// naming the sibling and one more count in `shared`.
    fn merge_outcome(
        &self,
        c: CandidatePlan,
        flight: QueryFlight<'_>,
        shared: &mut u64,
    ) -> Result<PlannedQuery, PlanError> {
        match c.shared_from {
            Some(from) => {
                *shared += 1;
                flight.event_with(|| PlanEvent::Note {
                    text: format!(
                        "member {}: plan shared with {}",
                        self.members[c.member].name, self.members[from].name
                    ),
                });
            }
            None => {
                if let Ok(planned) = &c.outcome {
                    planned.report.record_into(&self.obs.metrics);
                }
            }
        }
        c.outcome
    }

    /// Adds the members served by a sibling's plan to
    /// `federation.plans_shared` (skipped when none were).
    fn count_shared(&self, shared: u64) {
        if shared > 0 {
            self.obs.metrics.add(names::FEDERATION_PLANS_SHARED, shared);
        }
    }

    /// Selects the cardinality estimator used for every member.
    pub fn with_cardinality(mut self, card: CardKind) -> Self {
        self.card = card;
        // Which source fields a plan depends on follows the estimator.
        self.classes = OnceLock::new();
        self
    }

    /// Overrides the circuit-breaker policy used by
    /// [`run_resilient`](Federation::run_resilient).
    pub fn with_breaker(mut self, cfg: CircuitBreakerConfig) -> Self {
        self.breaker_cfg = cfg;
        self
    }

    /// The member sources.
    pub fn members(&self) -> &[Arc<Source>] {
        &self.members
    }

    /// Plans `query` against every member and picks the cheapest feasible
    /// plan (estimated cost under each member's own cost constants).
    ///
    /// Members are planned concurrently when the `parallel` feature is on
    /// (each mediator is self-contained — no shared planner state). The
    /// reduce runs left-to-right over results in member order, keeping the
    /// earliest member on cost ties, so the choice is identical to the
    /// sequential loop regardless of thread scheduling.
    pub fn plan(&self, query: &TargetQuery) -> Result<FederatedPlan, PlanError> {
        let span = self.obs.tracer.span("federation plan");
        let flight = self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
        let decision = self.index_decision(query);
        let outcomes = self.plan_candidates(query, decision.as_ref());
        let mut best: Option<(Arc<Source>, PlannedQuery)> = None;
        let mut considered = Vec::with_capacity(self.members.len());
        // Member plans retained for provenance (name, cost, rendered plan);
        // only captured when a recorder is armed.
        let mut member_plans: Vec<(String, f64, String)> = Vec::new();
        // Sequential, member-ordered merge: the only place planner counters
        // and trace events are recorded, so the output is identical with
        // the `parallel` feature on or off.
        if let Some(d) = &decision {
            // Pruned members are aggregated — one metric add, one trace
            // event, one flight event — so the per-query bookkeeping cost
            // scales with the candidate set, not the federation.
            self.obs.metrics.add(names::FEDERATION_INFEASIBLE, d.pruned as u64);
            self.obs.tracer.event_with(|| {
                format!(
                    "capability index: {} of {} members remain ({} pruned)",
                    d.candidates.len(),
                    d.total,
                    d.pruned
                )
            });
            flight.event_with(|| PlanEvent::IndexPrune {
                total: d.total,
                candidates: d.candidates.len(),
                pruned: d.pruned,
            });
        }
        // One pre-rendered query string shared by every pruned member's
        // `considered` entry (cloning beats re-rendering 10k times).
        let pruned_query = if decision.as_ref().is_some_and(|d| d.pruned > 0) {
            query.to_string()
        } else {
            String::new()
        };
        let mut shared = 0;
        let mut next = outcomes.into_iter().peekable();
        for (idx, member) in self.members.iter().enumerate() {
            let outcome = if next.peek().is_some_and(|c| c.member == idx) {
                self.merge_outcome(next.next().expect("peeked entry exists"), flight, &mut shared)
            } else {
                // Pruned by the capability index: infeasible with
                // certainty, no full planning was spent on it.
                considered.push((
                    member.name.clone(),
                    Err(PlanError::NoFeasiblePlan {
                        query: pruned_query.clone(),
                        scheme: "CapIndex",
                    }),
                ));
                continue;
            };
            // One span per *planned* candidate; pruned members keep their
            // O(1) aggregated bookkeeping above. Guarded so a disabled
            // tracer skips the label formatting entirely.
            let _member_span = self
                .obs
                .tracer
                .is_enabled()
                .then(|| self.obs.tracer.span(&format!("member {}", member.name)));
            match outcome {
                Ok(planned) => {
                    self.obs.tracer.event_with(|| {
                        format!("member {}: est cost {:.2}", member.name, planned.est_cost)
                    });
                    if flight.active() {
                        member_plans.push((
                            member.name.clone(),
                            planned.est_cost,
                            planned.plan.to_string(),
                        ));
                    }
                    considered.push((member.name.clone(), Ok(planned.est_cost)));
                    if best.as_ref().is_none_or(|(_, b)| planned.est_cost < b.est_cost) {
                        best = Some((member.clone(), planned));
                    }
                }
                Err(e) => {
                    self.obs.metrics.inc(names::FEDERATION_INFEASIBLE);
                    self.obs
                        .tracer
                        .event_with(|| format!("member {}: infeasible ({e})", member.name));
                    flight.event_with(|| PlanEvent::Note {
                        text: format!("member {}: infeasible ({e})", member.name),
                    });
                    considered.push((member.name.clone(), Err(e)));
                }
            }
        }
        self.count_shared(shared);
        if let Some((source, planned)) = &best {
            self.obs.tracer.event_with(|| {
                format!("chose {} at est cost {:.2}", source.name, planned.est_cost)
            });
            flight.event_with(|| PlanEvent::Winner {
                cost: planned.est_cost,
                plan: planned.plan.to_string(),
            });
            // Every losing member gets an elimination reason: the winner
            // undercut its estimated cost (earliest member wins ties).
            let mut winner_seen = false;
            for (name, cost, plan) in &member_plans {
                if !winner_seen && name == &source.name && *cost == planned.est_cost {
                    winner_seen = true;
                    continue;
                }
                flight.event_with(|| PlanEvent::Eliminated {
                    rule: "cost",
                    cost: *cost,
                    plan: plan.clone(),
                    detail: format!(
                        "member {name}: est cost {cost:.2} vs winner {:.2} on {}",
                        planned.est_cost, source.name
                    ),
                });
            }
        }
        span.close();
        match best {
            Some((source, planned)) => {
                Ok(FederatedPlan { source, planned, considered, flight_id: flight.id() })
            }
            None => {
                Err(PlanError::NoFeasiblePlan { query: query.to_string(), scheme: "Federation" })
            }
        }
    }

    /// Plans `query`, consulting the prepared-plan cache first (when one
    /// is installed with [`Federation::with_plan_cache`]).
    ///
    /// - **Hit**: the query's parameterized shape matched a cached entry
    ///   and its constants rebound cleanly — the planning fan-out is
    ///   skipped entirely. A fresh flight record still narrates the hit so
    ///   journal/profile ids stay unique per query.
    /// - **Miss / rejected**: falls back to [`Federation::plan`]
    ///   (byte-identical behaviour to calling it directly) and stores the
    ///   winner for the next query of this shape.
    pub fn prepare(&self, query: &TargetQuery) -> Result<PreparedFederated, PlanError> {
        let decision = match &self.plan_cache {
            None => CacheDecision::Bypass,
            Some(cache) => match cache.lookup(query, &self.members) {
                Lookup::Hit { member, planned } => {
                    self.obs.metrics.inc(names::PLANCACHE_HITS);
                    self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, cache.len() as f64);
                    let flight =
                        self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
                    let name = &self.members[member].name;
                    self.obs.tracer.event_with(|| {
                        format!(
                            "plan cache hit: member {name}, prepared est cost {:.2}",
                            planned.est_cost
                        )
                    });
                    flight.event_with(|| PlanEvent::Note {
                        text: format!(
                            "prepared-plan cache hit on member {name}: constants rebound, \
                             planner skipped"
                        ),
                    });
                    flight.event_with(|| PlanEvent::Winner {
                        cost: planned.est_cost,
                        plan: planned.plan.to_string(),
                    });
                    return Ok(PreparedFederated {
                        member,
                        planned: *planned,
                        decision: CacheDecision::Hit,
                        considered: Vec::new(),
                        flight_id: flight.id(),
                    });
                }
                Lookup::Miss => {
                    self.obs.metrics.inc(names::PLANCACHE_MISSES);
                    CacheDecision::Miss
                }
                Lookup::Rejected(reason) => {
                    self.obs.metrics.inc(names::PLANCACHE_REJECTED);
                    self.obs.tracer.event_with(|| {
                        format!("plan cache entry rejected ({reason}); planning cold")
                    });
                    CacheDecision::Rejected(reason)
                }
            },
        };
        let fp = self.plan(query)?;
        let member = self
            .members
            .iter()
            .position(|m| Arc::ptr_eq(m, &fp.source))
            .expect("federated winner is a member");
        if let Some(cache) = &self.plan_cache {
            cache.insert(query, member, fp.planned.clone());
            self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, cache.len() as f64);
        }
        Ok(PreparedFederated {
            member,
            planned: fp.planned,
            decision,
            considered: fp.considered,
            flight_id: fp.flight_id,
        })
    }

    /// Plans and executes on the chosen member. The already-chosen plan is
    /// executed directly — the query is *not* re-planned.
    pub fn run(&self, query: &TargetQuery) -> Result<(FederatedPlan, RunOutcome), MediatorError> {
        let fp = self.plan(query)?;
        let (rows, meter) = execute_measured(&fp.planned.plan, &fp.source)?;
        let measured_cost = meter.cost(fp.source.cost_params());
        meter.record_into(&self.obs.metrics);
        self.obs.metrics.inc(names::FEDERATION_SERVED);
        self.tap(names::MEMBER_QUERIES_PREFIX, &fp.source.name);
        self.tap_costs(&fp.source.name, fp.planned.est_cost, measured_cost);
        let outcome = RunOutcome { planned: fp.planned.clone(), rows, meter, measured_cost };
        Ok((fp, outcome))
    }

    /// Plans and executes on the chosen member through the streaming
    /// engine: the member's answer pulls through a bounded batch pipeline
    /// (honoring [`StreamConfig::limit`] for early termination) instead of
    /// materializing at once, and the run's [`StreamStats`] land in the
    /// `exec.*` metrics.
    pub fn run_streamed(
        &self,
        query: &TargetQuery,
        cfg: &StreamConfig,
    ) -> Result<(FederatedPlan, RunOutcome, StreamStats), MediatorError> {
        let fp = self.plan(query)?;
        let (rows, meter, stats) = execute_stream_measured_traced(
            &fp.planned.plan,
            &fp.source,
            cfg,
            Some(&self.obs.tracer),
        )?;
        let measured_cost = meter.cost(fp.source.cost_params());
        meter.record_into(&self.obs.metrics);
        stats.record_into(&self.obs.metrics);
        self.obs.metrics.inc(names::FEDERATION_SERVED);
        self.tap(names::MEMBER_QUERIES_PREFIX, &fp.source.name);
        self.tap_costs(&fp.source.name, fp.planned.est_cost, measured_cost);
        let outcome = RunOutcome { planned: fp.planned.clone(), rows, meter, measured_cost };
        Ok((fp, outcome, stats))
    }

    /// Snapshots the breaker gates at tick `now`, fans planning out over
    /// the capability-index survivors, and merges the results into a
    /// cheapest-first candidate list (stable: earliest member wins ties).
    /// Pruned, infeasible and quarantined members are traced and counted
    /// here — [`Federation::run_resilient`] and
    /// [`Federation::run_adaptive`] record identical selection events.
    /// Metrics/trace only from the sequential merge — deterministic across
    /// the `parallel` feature.
    #[allow(clippy::type_complexity)]
    fn gated_candidates(
        &self,
        query: &TargetQuery,
        now: u64,
        flight: QueryFlight<'_>,
        trace: &mut FailoverTrace,
    ) -> (Vec<(usize, PlannedQuery)>, Vec<BreakerGate>, bool) {
        // Gate decisions are snapshotted up front so the planning fan-out
        // below cannot interleave with breaker updates.
        let gates: Vec<BreakerGate> = self.breakers.iter().map(|b| b.gate(now)).collect();
        let decision = self.index_decision(query);
        let outcomes = self.plan_candidates(query, decision.as_ref());

        if let Some(d) = &decision {
            // Aggregated like in `plan`: pruned-member bookkeeping must not
            // scale with the federation.
            self.obs.metrics.add(names::FEDERATION_INFEASIBLE, d.pruned as u64);
            flight.event_with(|| PlanEvent::IndexPrune {
                total: d.total,
                candidates: d.candidates.len(),
                pruned: d.pruned,
            });
        }
        let mut candidates: Vec<(usize, PlannedQuery)> = Vec::new();
        let mut any_feasible = false;
        let mut shared = 0;
        let mut next = outcomes.into_iter().peekable();
        for (idx, gate) in gates.iter().enumerate() {
            let outcome = if next.peek().is_some_and(|c| c.member == idx) {
                self.merge_outcome(next.next().expect("peeked entry exists"), flight, &mut shared)
            } else {
                // Pruned by the capability index without planning: the
                // member is infeasible with certainty, so the trace entry
                // is identical to a planning failure's.
                trace.push((self.members[idx].name.clone(), MemberEvent::Infeasible));
                continue;
            };
            // Planned candidates get a span each; pruned members stay O(1).
            let _member_span = self
                .obs
                .tracer
                .is_enabled()
                .then(|| self.obs.tracer.span(&format!("member {}", self.members[idx].name)));
            match outcome {
                Ok(planned) => {
                    any_feasible = true;
                    if *gate == BreakerGate::Quarantined {
                        self.obs.metrics.inc(names::FEDERATION_QUARANTINED);
                        self.tap(names::MEMBER_QUARANTINED_PREFIX, &self.members[idx].name);
                        self.obs.tracer.event_with(|| {
                            format!("member {}: quarantined (breaker open)", self.members[idx].name)
                        });
                        flight.event_with(|| PlanEvent::Breaker {
                            member: self.members[idx].name.clone(),
                            transition: "quarantined",
                        });
                        trace.push((self.members[idx].name.clone(), MemberEvent::Quarantined));
                    } else {
                        candidates.push((idx, planned));
                    }
                }
                Err(_) => {
                    self.obs.metrics.inc(names::FEDERATION_INFEASIBLE);
                    self.obs
                        .tracer
                        .event_with(|| format!("member {}: infeasible", self.members[idx].name));
                    flight.event_with(|| PlanEvent::Note {
                        text: format!("member {}: infeasible", self.members[idx].name),
                    });
                    trace.push((self.members[idx].name.clone(), MemberEvent::Infeasible));
                }
            }
        }
        self.count_shared(shared);
        candidates
            .sort_by(|a, b| a.1.est_cost.partial_cmp(&b.1.est_cost).expect("finite plan costs"));
        (candidates, gates, any_feasible)
    }

    /// Plans against every non-quarantined member and executes with full
    /// resilience: members are tried cheapest-first; within a member the
    /// mediator-level failover applies (retry/backoff per `policy`, then
    /// ranked plan alternatives); when a member still fails the federation
    /// fails over to the next-cheapest member. A member that fails
    /// [`CircuitBreakerConfig::failure_threshold`] consecutive runs is
    /// quarantined for `cooldown_ticks` runs, then offered a half-open
    /// probe.
    ///
    /// The whole decision sequence is deterministic: planning fans out via
    /// [`crate::par::par_map`] (order-preserving), execution visits members
    /// in a cost-sorted order with member index as tie-break, and the
    /// breaker clock counts runs, not wall time — the same seed yields the
    /// same [`FederatedRun::trace`] with the `parallel` feature on or off.
    pub fn run_resilient(
        &self,
        query: &TargetQuery,
        policy: &RetryPolicy,
    ) -> Result<FederatedRun, MediatorError> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let span = self.obs.tracer.span("federation run");
        let flight = self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
        let mut trace: FailoverTrace = Vec::new();
        let (candidates, gates, any_feasible) =
            self.gated_candidates(query, now, flight, &mut trace);

        let mut resilience = ResilienceMeter::default();
        let mut last_error: Option<ExecError> = None;
        let mut tried_any = false;
        for (idx, planned) in candidates {
            let member = &self.members[idx];
            if gates[idx] == BreakerGate::HalfOpen {
                self.obs.metrics.inc(names::BREAKER_HALF_OPENED);
                self.obs.tracer.event_with(|| format!("member {}: half-open probe", member.name));
                flight.event_with(|| PlanEvent::Breaker {
                    member: member.name.clone(),
                    transition: "half-open",
                });
                trace.push((member.name.clone(), MemberEvent::Probed));
            }
            if tried_any {
                resilience.failovers += 1;
            }
            tried_any = true;
            let retries_before = resilience.retries;
            match execute_with_failover(&planned, member, policy, &mut resilience) {
                Ok((plan_rank, rows, meter, _failures)) => {
                    if self.breakers[idx].record_success() {
                        self.obs.metrics.inc(names::BREAKER_CLOSED);
                        flight.event_with(|| PlanEvent::Breaker {
                            member: member.name.clone(),
                            transition: "closed",
                        });
                        self.plancache_invalidate("breaker closed");
                    }
                    self.obs.metrics.inc(names::FEDERATION_SERVED);
                    self.tap(names::MEMBER_QUERIES_PREFIX, &member.name);
                    self.tap_add(
                        names::MEMBER_RETRIES_PREFIX,
                        &member.name,
                        resilience.retries - retries_before,
                    );
                    meter.record_into(&self.obs.metrics);
                    resilience.record_into(&self.obs.metrics);
                    self.obs.tracer.event_with(|| {
                        format!(
                            "member {}: served (plan rank {plan_rank}, {} rows)",
                            member.name,
                            rows.len()
                        )
                    });
                    flight.event_with(|| PlanEvent::Winner {
                        cost: planned.est_cost,
                        plan: planned.plan.to_string(),
                    });
                    flight.event_with(|| PlanEvent::Note {
                        text: format!("served by member {} (plan rank {plan_rank})", member.name),
                    });
                    trace.push((member.name.clone(), MemberEvent::Served));
                    span.close();
                    let measured_cost = meter.cost(member.cost_params());
                    self.tap_costs(&member.name, planned.est_cost, measured_cost);
                    return Ok(FederatedRun {
                        outcome: RunOutcome { planned, rows, meter, measured_cost },
                        source_name: member.name.clone(),
                        plan_rank,
                        resilience,
                        trace,
                    });
                }
                Err(mut failures) => {
                    if self.breakers[idx].record_failure(now, &self.breaker_cfg) {
                        self.obs.metrics.inc(names::BREAKER_OPENED);
                        self.tap(names::BREAKER_OPENED_PREFIX, &member.name);
                        self.obs
                            .tracer
                            .event_with(|| format!("member {}: breaker opened", member.name));
                        flight.event_with(|| PlanEvent::Breaker {
                            member: member.name.clone(),
                            transition: "opened",
                        });
                        self.plancache_invalidate("breaker opened");
                    }
                    self.obs.metrics.inc(names::FEDERATION_EXEC_FAILED);
                    self.tap(names::MEMBER_ERRORS_PREFIX, &member.name);
                    self.tap_add(
                        names::MEMBER_RETRIES_PREFIX,
                        &member.name,
                        resilience.retries - retries_before,
                    );
                    let (_, err) = failures.pop().expect("at least one plan was tried");
                    self.obs
                        .tracer
                        .event_with(|| format!("member {}: execution failed ({err})", member.name));
                    flight.event_with(|| PlanEvent::Failover {
                        rank: idx,
                        detail: format!("member {}: {err}", member.name),
                    });
                    trace.push((member.name.clone(), MemberEvent::ExecFailed(err.to_string())));
                    last_error = Some(err);
                }
            }
        }

        // Every candidate failed (or none was tried): the retry/breaker
        // counters still reach the registry.
        resilience.record_into(&self.obs.metrics);
        span.close();
        match last_error {
            Some(err) => Err(MediatorError::Exec(err)),
            // No member was even tried: everything was infeasible or
            // quarantined.
            None if any_feasible => Err(MediatorError::Plan(PlanError::NoFeasiblePlan {
                query: query.to_string(),
                scheme: "Federation (all capable members quarantined)",
            })),
            None => Err(MediatorError::Plan(PlanError::NoFeasiblePlan {
                query: query.to_string(),
                scheme: "Federation",
            })),
        }
    }

    /// Streams the cheapest member's plan adaptively: when the serving
    /// member dies *mid-pipeline* (per-batch retries exhausted), its
    /// breaker opens, the residual condition of the paused pipeline is
    /// re-planned on the next-cheapest gated candidate, and that member's
    /// plan is spliced into the running stream — already-emitted tuples
    /// are deduplicated away, so the answer matches a fault-free run.
    /// Unlike [`Federation::run_resilient`], work done before the fault is
    /// not thrown away and the failed member's whole plan is not re-run.
    ///
    /// With the `adaptive` (or `stream`) feature off this degrades to
    /// resilient streaming on the primary member only (splices stay 0).
    pub fn run_adaptive(
        &self,
        query: &TargetQuery,
        policy: &RetryPolicy,
        cfg: &StreamConfig,
    ) -> Result<FederatedAdaptiveRun, MediatorError> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let span = self.obs.tracer.span("federation run (adaptive)");
        let flight = self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
        let mut trace: FailoverTrace = Vec::new();
        let (mut candidates, gates, any_feasible) =
            self.gated_candidates(query, now, flight, &mut trace);

        if candidates.is_empty() {
            span.close();
            let scheme = if any_feasible {
                "Federation (all capable members quarantined)"
            } else {
                "Federation"
            };
            return Err(MediatorError::Plan(PlanError::NoFeasiblePlan {
                query: query.to_string(),
                scheme,
            }));
        }
        let (primary_idx, primary) = candidates.remove(0);
        let primary_member = &self.members[primary_idx];
        if gates[primary_idx] == BreakerGate::HalfOpen {
            self.obs.metrics.inc(names::BREAKER_HALF_OPENED);
            self.obs
                .tracer
                .event_with(|| format!("member {}: half-open probe", primary_member.name));
            flight.event_with(|| PlanEvent::Breaker {
                member: primary_member.name.clone(),
                transition: "half-open",
            });
            trace.push((primary_member.name.clone(), MemberEvent::Probed));
        }

        // Transfer is metered per member and summed afterwards — a spliced
        // run legitimately ships tuples from several members, each charged
        // at its own cost constants.
        let before: Vec<Meter> = self.members.iter().map(|m| m.meter()).collect();
        let mut resilience = ResilienceMeter::default();
        let mut ctl = BreakerSpliceController {
            fed: self,
            now,
            flight,
            queue: candidates.into_iter().collect(),
            current: primary_idx,
            attrs: query.attrs.clone(),
            trace: &mut trace,
            gates,
            splices: 0,
        };
        let result = execute_stream_adaptive_traced(
            &primary.plan,
            primary_member,
            Some(policy),
            &mut resilience,
            cfg,
            &mut ctl,
            Some(&self.obs.tracer),
        );
        let serving_idx = ctl.current;
        let (rows, stats, splices) = match result {
            Ok(ok) => ok,
            Err(e) => {
                // The controller already opened breakers and traced every
                // member that died; nobody was left to splice to.
                resilience.record_into(&self.obs.metrics);
                self.obs.tracer.event_with(|| format!("adaptive run died: {e}"));
                span.close();
                return Err(MediatorError::Exec(e));
            }
        };

        let member = &self.members[serving_idx];
        if self.breakers[serving_idx].record_success() {
            self.obs.metrics.inc(names::BREAKER_CLOSED);
            flight.event_with(|| PlanEvent::Breaker {
                member: member.name.clone(),
                transition: "closed",
            });
            self.plancache_invalidate("breaker closed");
        }
        self.obs.metrics.inc(names::FEDERATION_SERVED);
        let mut meter = Meter::default();
        let mut measured_cost = 0.0;
        for (i, m) in self.members.iter().enumerate() {
            let after = m.meter();
            let delta = Meter {
                queries: after.queries - before[i].queries,
                tuples_shipped: after.tuples_shipped - before[i].tuples_shipped,
                rejected: after.rejected - before[i].rejected,
            };
            measured_cost += delta.cost(m.cost_params());
            meter.queries += delta.queries;
            meter.tuples_shipped += delta.tuples_shipped;
            meter.rejected += delta.rejected;
        }
        self.tap(names::MEMBER_QUERIES_PREFIX, &member.name);
        self.tap_costs(&member.name, primary.est_cost, measured_cost);
        meter.record_into(&self.obs.metrics);
        stats.record_into(&self.obs.metrics);
        // A mid-stream member switch is a failover, just a cheaper one.
        resilience.failovers += splices;
        resilience.record_into(&self.obs.metrics);
        self.obs.tracer.event_with(|| {
            format!(
                "member {}: served adaptively ({} rows, {splices} splice(s))",
                member.name,
                rows.len()
            )
        });
        flight.event_with(|| PlanEvent::Winner {
            cost: primary.est_cost,
            plan: primary.plan.to_string(),
        });
        flight.event_with(|| PlanEvent::Note {
            text: format!("served by member {} after {splices} splice(s)", member.name),
        });
        trace.push((member.name.clone(), MemberEvent::Served));
        span.close();
        Ok(FederatedAdaptiveRun {
            run: FederatedRun {
                outcome: RunOutcome { planned: primary, rows, meter, measured_cost },
                source_name: member.name.clone(),
                plan_rank: 0,
                resilience,
                trace,
            },
            stats,
            splices,
        })
    }
}

/// One candidate member's planning outcome, from
/// [`Federation::plan_candidates`].
struct CandidatePlan {
    /// Index of the member in [`Federation::members`].
    member: usize,
    /// The class sibling whose planner run produced `outcome`; `None` when
    /// the member was planned itself.
    shared_from: Option<usize>,
    outcome: Result<PlannedQuery, PlanError>,
}

/// Cost-to-counter conversion for the `member.*_cost_milli.*` taps.
fn to_milli(cost: f64) -> u64 {
    if cost.is_finite() && cost > 0.0 {
        (cost * 1000.0).round() as u64
    } else {
        0
    }
}

/// The breaker-triggered [`ReplanController`] of
/// [`Federation::run_adaptive`]: on a terminal mid-stream leaf failure it
/// opens the serving member's breaker, re-plans the pipeline's residual
/// condition on the next-cheapest gated candidate, and splices that
/// member in. Batch boundaries are left alone — cardinality drift is the
/// mediator-level controller's job.
struct BreakerSpliceController<'a> {
    fed: &'a Federation,
    now: u64,
    flight: QueryFlight<'a>,
    /// Remaining gated candidates, cheapest-first.
    queue: VecDeque<(usize, PlannedQuery)>,
    /// Index of the member currently feeding the pipeline.
    current: usize,
    attrs: AttrSet,
    trace: &'a mut FailoverTrace,
    gates: Vec<BreakerGate>,
    splices: u64,
}

impl ReplanController for BreakerSpliceController<'_> {
    fn on_batch(&mut self, _probe: &ReplanProbe<'_>) -> Option<SpliceAction> {
        None
    }

    fn on_leaf_error(&mut self, probe: &ReplanProbe<'_>, err: &ExecError) -> Option<SpliceAction> {
        let fed = self.fed;
        let failed = &fed.members[self.current];
        if fed.breakers[self.current].record_failure(self.now, &fed.breaker_cfg) {
            fed.obs.metrics.inc(names::BREAKER_OPENED);
            fed.tap(names::BREAKER_OPENED_PREFIX, &failed.name);
            fed.obs.tracer.event_with(|| format!("member {}: breaker opened", failed.name));
            self.flight.event_with(|| PlanEvent::Breaker {
                member: failed.name.clone(),
                transition: "opened",
            });
            fed.plancache_invalidate("breaker opened");
        }
        fed.obs.metrics.inc(names::FEDERATION_EXEC_FAILED);
        fed.tap(names::MEMBER_ERRORS_PREFIX, &failed.name);
        fed.obs.metrics.inc(names::REPLAN_TRIGGERED);
        fed.obs.metrics.inc(names::REPLAN_BREAKER_TRIGGERS);
        fed.obs.tracer.event_with(|| format!("member {}: died mid-stream ({err})", failed.name));
        self.trace.push((failed.name.clone(), MemberEvent::ExecFailed(err.to_string())));

        let remaining = probe.remaining_plan()?;
        let residual = plan_condition(&remaining)?;
        while let Some((idx, _)) = self.queue.pop_front() {
            let next = &fed.members[idx];
            if self.gates[idx] == BreakerGate::HalfOpen {
                fed.obs.metrics.inc(names::BREAKER_HALF_OPENED);
                fed.obs.tracer.event_with(|| format!("member {}: half-open probe", next.name));
                self.flight.event_with(|| PlanEvent::Breaker {
                    member: next.name.clone(),
                    transition: "half-open",
                });
                self.trace.push((next.name.clone(), MemberEvent::Probed));
            }
            // Re-plan the *residual* on the splice target — its
            // capabilities may shape the cover differently than the dead
            // member's did. The fan-out plan for the full query is not
            // reused: the pipeline only needs what has not been emitted.
            let q = TargetQuery::new(residual.clone(), self.attrs.clone());
            let planned = Mediator::new(next.clone()).with_cardinality(fed.card).plan(&q);
            match planned {
                Ok(p) => {
                    p.report.record_into(&fed.obs.metrics);
                    self.splices += 1;
                    fed.obs.metrics.inc(names::REPLAN_SPLICES);
                    // The splice is charged to the member that died — it is
                    // the health signal, not the rescuer.
                    fed.tap(names::MEMBER_SPLICES_PREFIX, &failed.name);
                    self.flight.event_with(|| PlanEvent::Replan {
                        trigger: "breaker-open",
                        detail: format!("member {} died mid-stream: {err}", failed.name),
                        batch: probe.batches,
                        emitted: probe.emitted,
                        old_plan: remaining.to_string(),
                        new_plan: p.plan.to_string(),
                    });
                    fed.obs.tracer.event_with(|| {
                        format!(
                            "replan (breaker): splice to member {} at batch {} after {} rows",
                            next.name, probe.batches, probe.emitted
                        )
                    });
                    self.trace.push((next.name.clone(), MemberEvent::Spliced(failed.name.clone())));
                    self.current = idx;
                    return Some(SpliceAction { plan: p.plan, source: next.clone() });
                }
                Err(_) => {
                    // The residual may be narrower than the original query,
                    // so a member that was feasible for the whole query can
                    // still fail here (and vice versa never happens — the
                    // residual only drops satisfied disjuncts).
                    fed.obs.metrics.inc(names::FEDERATION_INFEASIBLE);
                    fed.obs
                        .tracer
                        .event_with(|| format!("member {}: residual infeasible", next.name));
                    self.flight.event_with(|| PlanEvent::Note {
                        text: format!("member {}: residual infeasible", next.name),
                    });
                    self.trace.push((next.name.clone(), MemberEvent::Infeasible));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::ValueType;
    use csqp_relation::datagen;
    use csqp_source::CostParams;
    use csqp_ssdl::{parse_ssdl, templates};

    /// Three mirrors of the same car data: a form-limited fast one, a
    /// download-only slow one, and one that cannot answer price queries at
    /// all.
    fn mirrors() -> Federation {
        let data = datagen::cars(3, 400);
        let fast_form = Arc::new(Source::new(
            data.clone(),
            templates::car_dealer(), // make+price / make+color forms
            CostParams::new(10.0, 1.0),
        ));
        let slow_dump = Arc::new(Source::new(
            data.clone(),
            templates::download_only(
                "dump",
                &[
                    ("make", ValueType::Str),
                    ("model", ValueType::Str),
                    ("year", ValueType::Int),
                    ("color", ValueType::Str),
                    ("price", ValueType::Int),
                ],
            ),
            CostParams::new(200.0, 5.0),
        ));
        let color_only = Arc::new(Source::new(
            data,
            parse_ssdl(
                "source color_only {\n\
                 s1 -> color = $str ;\n\
                 attributes :: s1 : { make, model, year, color } ;\n}",
            )
            .unwrap(),
            CostParams::new(10.0, 1.0),
        ));
        Federation::new().with_member(fast_form).with_member(slow_dump).with_member(color_only)
    }

    #[test]
    fn picks_the_cheapest_capable_member() {
        let f = mirrors();
        // Form query: the fast form source wins over the expensive dump.
        let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        let fp = f.plan(&q).unwrap();
        assert_eq!(fp.source.name, "car_dealer");
        assert_eq!(fp.considered.len(), 3);
        // The dump could also answer (download + filter) but at higher cost.
        let dump = fp.considered.iter().find(|(n, _)| n == "dump").unwrap();
        assert!(matches!(&dump.1, Ok(c) if *c > fp.planned.est_cost));
        // color_only cannot answer a price query.
        let co = fp.considered.iter().find(|(n, _)| n == "color_only").unwrap();
        assert!(co.1.is_err());
    }

    #[test]
    fn prepare_hits_on_repeat_shapes_and_breaker_transitions_invalidate() {
        let f = mirrors().with_plan_cache(Arc::new(PlanCache::new()));
        let q1 = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        let q2 = TargetQuery::parse("make = \"Audi\" ^ price < 25000", &["model", "year"]).unwrap();
        let cold = f.prepare(&q1).unwrap();
        assert_eq!(cold.decision, CacheDecision::Miss);
        assert_eq!(f.members()[cold.member].name, "car_dealer");
        assert_eq!(cold.considered.len(), 3, "miss runs the full fan-out");
        let warm = f.prepare(&q2).unwrap();
        assert_eq!(warm.decision, CacheDecision::Hit);
        assert_eq!(warm.member, cold.member);
        assert!(warm.considered.is_empty(), "hit skips the fan-out");
        // The rebound plan equals what cold planning would have produced.
        assert_eq!(warm.planned.plan, f.plan(&q2).unwrap().planned.plan);
        // A breaker transition wipes the cache: the next prepare is cold.
        f.plancache_invalidate("test");
        assert_eq!(f.prepare(&q2).unwrap().decision, CacheDecision::Miss);
        let stats = f.plan_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.invalidations), (1, 1));
    }

    #[test]
    fn prepare_without_a_cache_bypasses() {
        let f = mirrors();
        let q = TargetQuery::parse("color = \"red\"", &["make", "model"]).unwrap();
        let p = f.prepare(&q).unwrap();
        assert_eq!(p.decision, CacheDecision::Bypass);
        assert_eq!(f.members()[p.member].name, "color_only");
    }

    #[test]
    fn routes_queries_by_capability() {
        let f = mirrors();
        // A bare color query: only color_only answers it natively; the form
        // source has no color-only form, the dump can but costs more.
        let q = TargetQuery::parse("color = \"red\"", &["make", "model"]).unwrap();
        let fp = f.plan(&q).unwrap();
        assert_eq!(fp.source.name, "color_only", "{:?}", fp.considered);
    }

    #[test]
    fn download_only_member_is_the_last_resort() {
        let f = mirrors();
        // year-only queries: no form anywhere — only the dump survives.
        let q = TargetQuery::parse("year = 1995", &["make", "model"]).unwrap();
        let fp = f.plan(&q).unwrap();
        assert_eq!(fp.source.name, "dump");
        // Executing it returns the exact answer.
        let (fp2, out) = f.run(&q).unwrap();
        assert_eq!(fp2.source.name, "dump");
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(fp2.source.relation(), Some(&q.cond)),
            &["make", "model"],
        )
        .unwrap();
        assert_eq!(out.rows, want);
    }

    /// Two mirrors: a cheap member with injected faults and an expensive,
    /// reliable dump.
    fn faulty_pair(profile: csqp_source::FaultProfile, cfg: CircuitBreakerConfig) -> Federation {
        let data = datagen::cars(3, 400);
        let flaky = Arc::new(
            Source::new(data.clone(), templates::car_dealer(), CostParams::new(10.0, 1.0))
                .with_fault_profile(profile),
        );
        let dump = Arc::new(Source::new(
            data,
            templates::download_only(
                "dump",
                &[
                    ("make", ValueType::Str),
                    ("model", ValueType::Str),
                    ("year", ValueType::Int),
                    ("color", ValueType::Str),
                    ("price", ValueType::Int),
                ],
            ),
            CostParams::new(200.0, 5.0),
        ));
        Federation::new().with_member(flaky).with_member(dump).with_breaker(cfg)
    }

    fn car_query() -> TargetQuery {
        TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap()
    }

    #[test]
    fn exec_failure_fails_over_to_next_member() {
        use csqp_source::FaultProfile;
        // The cheap member is hard-down; retries are off so it dies fast.
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, u64::MAX),
            CircuitBreakerConfig::default(),
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let run = f.run_resilient(&q, &policy).unwrap();
        assert_eq!(run.source_name, "dump", "failed over to the expensive mirror");
        assert!(run.resilience.failovers >= 1);
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(f.members()[1].relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(run.outcome.rows, want, "the failover answer is exact");
        // Trace: the dealer failed, then the dump served.
        assert!(run
            .trace
            .iter()
            .any(|(n, e)| n == "car_dealer" && matches!(e, MemberEvent::ExecFailed(_))));
        assert_eq!(run.trace.last().unwrap(), &("dump".to_string(), MemberEvent::Served));
    }

    #[test]
    fn breaker_quarantines_then_probes_then_closes() {
        use csqp_source::FaultProfile;
        // Attempts 0 and 1 are outages, everything after succeeds. With
        // threshold 2 / cooldown 2 the member: fails (run 1), fails + opens
        // (run 2), sits out runs 3–4, probes successfully at run 5, and is
        // fully closed again at run 6.
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, 2),
            CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let event_for = |run: &FederatedRun, name: &str| -> Vec<MemberEvent> {
            run.trace.iter().filter(|(n, _)| n == name).map(|(_, e)| e.clone()).collect()
        };

        let r1 = f.run_resilient(&q, &policy).unwrap();
        assert!(matches!(event_for(&r1, "car_dealer")[..], [MemberEvent::ExecFailed(_)]));
        let r2 = f.run_resilient(&q, &policy).unwrap();
        assert!(matches!(event_for(&r2, "car_dealer")[..], [MemberEvent::ExecFailed(_)]));
        for _ in 0..2 {
            let r = f.run_resilient(&q, &policy).unwrap();
            assert_eq!(event_for(&r, "car_dealer"), vec![MemberEvent::Quarantined]);
            assert_eq!(r.source_name, "dump", "quarantine shields the run from the dealer");
        }
        let r5 = f.run_resilient(&q, &policy).unwrap();
        assert_eq!(
            event_for(&r5, "car_dealer"),
            vec![MemberEvent::Probed, MemberEvent::Served],
            "half-open probe succeeds"
        );
        assert_eq!(r5.source_name, "car_dealer");
        let r6 = f.run_resilient(&q, &policy).unwrap();
        assert_eq!(
            event_for(&r6, "car_dealer"),
            vec![MemberEvent::Served],
            "breaker closed after the successful probe"
        );
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        use csqp_source::FaultProfile;
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, u64::MAX),
            CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 1 },
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let r1 = f.run_resilient(&q, &policy).unwrap(); // fails, opens
        assert!(r1.trace.iter().any(|(_, e)| matches!(e, MemberEvent::ExecFailed(_))));
        let r2 = f.run_resilient(&q, &policy).unwrap(); // quarantined
        assert!(r2.trace.iter().any(|(_, e)| *e == MemberEvent::Quarantined));
        let r3 = f.run_resilient(&q, &policy).unwrap(); // probe fails, reopens
        assert!(r3.trace.iter().any(|(_, e)| *e == MemberEvent::Probed));
        let r4 = f.run_resilient(&q, &policy).unwrap(); // quarantined again
        assert!(r4.trace.iter().any(|(_, e)| *e == MemberEvent::Quarantined));
    }

    #[test]
    fn metrics_count_breaker_transitions_and_member_events() {
        use csqp_source::FaultProfile;
        // Same schedule as `breaker_quarantines_then_probes_then_closes`:
        // fail, fail+open, 2×quarantine, successful probe (close), serve.
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, 2),
            CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        for _ in 0..6 {
            f.run_resilient(&q, &policy).unwrap();
        }
        let snap = f.metrics_snapshot();
        if f.obs().enabled() {
            assert_eq!(snap.counter(names::BREAKER_OPENED), 1, "{}", snap.to_json());
            assert_eq!(snap.counter(names::BREAKER_HALF_OPENED), 1, "{}", snap.to_json());
            assert_eq!(snap.counter(names::BREAKER_CLOSED), 1, "{}", snap.to_json());
            assert_eq!(snap.counter(names::FEDERATION_QUARANTINED), 2);
            assert_eq!(snap.counter(names::FEDERATION_EXEC_FAILED), 2);
            assert_eq!(snap.counter(names::FEDERATION_SERVED), 6);
            assert_eq!(snap.counter(names::RESILIENCE_FAILOVERS), 2, "dealer→dump twice");
            assert!(snap.counter(names::PLANNER_CHECK_CALLS) > 0, "planning fan-out recorded");
            // The decision trace replays deterministically: a fresh
            // federation with the same schedule produces the same trace.
            let f2 = faulty_pair(
                FaultProfile::new(0).with_outage(0, 2),
                CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
            );
            for _ in 0..6 {
                f2.run_resilient(&q, &policy).unwrap();
            }
            assert_eq!(f2.obs().tracer.render(), f.obs().tracer.render());
            assert_eq!(f2.metrics_snapshot(), snap);
        } else {
            assert_eq!(snap.counter(names::FEDERATION_SERVED), 0, "no-op recorder stays empty");
        }
    }

    #[test]
    fn all_members_down_reports_exec_error() {
        use csqp_source::FaultProfile;
        let data = datagen::cars(3, 100);
        let down = |name_seed: u64| {
            Arc::new(
                Source::new(data.clone(), templates::car_dealer(), CostParams::default())
                    .with_fault_profile(FaultProfile::new(name_seed).with_outage(0, u64::MAX)),
            )
        };
        let f = Federation::new().with_member(down(1)).with_member(down(2));
        let policy = RetryPolicy { max_retries: 1, ..Default::default() };
        match f.run_resilient(&car_query(), &policy) {
            Err(MediatorError::Exec(e)) => {
                assert!(e.to_string().contains("unavailable") || e.to_string().contains("retries"))
            }
            other => panic!("expected Exec error, got {other:?}"),
        }
    }

    #[test]
    fn run_executes_the_already_chosen_plan() {
        let f = mirrors();
        let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        let (fp, out) = f.run(&q).unwrap();
        // The outcome's plan IS the federated choice — no re-planning.
        assert_eq!(out.planned.plan, fp.planned.plan);
        assert_eq!(out.planned.est_cost, fp.planned.est_cost);
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(fp.source.relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(out.rows, want);
    }

    #[test]
    fn all_infeasible_reports_federation_error() {
        let f = Federation::new().with_member(Arc::new(Source::new(
            datagen::cars(3, 50),
            templates::car_dealer(),
            CostParams::default(),
        )));
        let q = TargetQuery::parse("year = 1995", &["model"]).unwrap();
        match f.plan(&q) {
            Err(PlanError::NoFeasiblePlan { scheme, .. }) => {
                assert_eq!(scheme, "Federation")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_federation_is_infeasible() {
        let f = Federation::new();
        let q = TargetQuery::parse("a = 1", &["k"]).unwrap();
        assert!(f.plan(&q).is_err());
    }

    #[test]
    fn breaker_states_report_live_health() {
        use csqp_source::FaultProfile;
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, 2),
            CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
        );
        let states = f.breaker_states();
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|(_, h)| *h == BreakerHealth::Closed), "fresh: all closed");
        assert_eq!(BreakerHealth::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerHealth::Open.as_gauge(), 2.0);
        assert_eq!(BreakerHealth::HalfOpen.as_gauge(), 1.0);
        assert_eq!(BreakerHealth::Open.label(), "open");

        // Two failed runs trip the dealer's breaker; the gauge follows.
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        f.run_resilient(&q, &policy).unwrap();
        f.run_resilient(&q, &policy).unwrap();
        let states = f.breaker_states();
        assert_eq!(states.iter().find(|(n, _)| n == "car_dealer").unwrap().1, BreakerHealth::Open);
        assert_eq!(states.iter().find(|(n, _)| n == "dump").unwrap().1, BreakerHealth::Closed);
        // The exported gauge needs a live registry; the noop registry of an
        // obs-off build scrapes empty.
        #[cfg(feature = "obs")]
        {
            let snap = f.metrics_snapshot();
            assert!(
                snap.gauges.contains_key(&format!("{}car_dealer", names::BREAKER_STATE_PREFIX)),
                "breaker gauge exported"
            );
            assert_eq!(
                snap.gauge(&format!("{}car_dealer", names::BREAKER_STATE_PREFIX)),
                BreakerHealth::Open.as_gauge()
            );
        }
    }

    #[test]
    fn run_adaptive_matches_resilient_when_healthy() {
        let f = mirrors();
        let q = car_query();
        let policy = RetryPolicy::default();
        let run = f.run_adaptive(&q, &policy, &StreamConfig::serial()).unwrap();
        assert_eq!(run.splices, 0, "healthy federation never splices");
        assert_eq!(run.run.source_name, "car_dealer");
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(f.members()[0].relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(run.run.outcome.rows, want);
        assert_eq!(run.run.trace.last().unwrap(), &("car_dealer".to_string(), MemberEvent::Served));
    }

    #[cfg(all(feature = "stream", feature = "adaptive"))]
    #[test]
    fn mid_stream_outage_splices_to_the_dump() {
        use csqp_source::FaultProfile;
        // The first source-query attempt on the dealer succeeds, every later
        // one is an outage: the first union branch streams its rows, then
        // the second branch dies mid-pipeline.
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(1, u64::MAX),
            CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 4 },
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = TargetQuery::parse(
            "(make = \"BMW\" _ make = \"Audi\") ^ price < 40000",
            &["model", "year"],
        )
        .unwrap();
        let cfg = StreamConfig { batch_size: 16, ..StreamConfig::serial() };
        let run = f.run_adaptive(&q, &policy, &cfg).unwrap();
        assert!(run.splices >= 1, "the breaker-open must splice, not fail over from scratch");
        assert_eq!(run.run.source_name, "dump", "the dump finishes the stream");
        // Despite the mid-stream member switch the answer is exact.
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(f.members()[1].relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(run.run.outcome.rows, want);
        // The trace shows the dealer dying and the dump splicing in for it.
        assert!(run
            .trace()
            .iter()
            .any(|(n, e)| n == "car_dealer" && matches!(e, MemberEvent::ExecFailed(_))));
        assert!(run
            .trace()
            .iter()
            .any(|(n, e)| n == "dump"
                && matches!(e, MemberEvent::Spliced(from) if from == "car_dealer")));
        // The dealer's breaker opened (threshold 1) and the gauges agree.
        let states = f.breaker_states();
        assert_eq!(states.iter().find(|(n, _)| n == "car_dealer").unwrap().1, BreakerHealth::Open);
        let snap = f.metrics_snapshot();
        assert_eq!(snap.counter(names::REPLAN_BREAKER_TRIGGERS), 1);
        assert_eq!(snap.counter(names::REPLAN_SPLICES), run.splices);
        assert_eq!(snap.counter(names::BREAKER_OPENED), 1);
        // A mid-stream splice counts as a failover in the resilience meter.
        assert!(run.run.resilience.failovers >= run.splices);
    }

    #[cfg(all(feature = "stream", feature = "adaptive"))]
    #[test]
    fn adaptive_with_no_splice_target_reports_exec_error() {
        use csqp_source::FaultProfile;
        let data = datagen::cars(3, 100);
        let down = |seed: u64| {
            Arc::new(
                Source::new(data.clone(), templates::car_dealer(), CostParams::default())
                    .with_fault_profile(FaultProfile::new(seed).with_outage(0, u64::MAX)),
            )
        };
        let f = Federation::new().with_member(down(1)).with_member(down(2));
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        match f.run_adaptive(&car_query(), &policy, &StreamConfig::serial()) {
            Err(MediatorError::Exec(_)) => {}
            other => panic!("expected Exec error, got {other:?}"),
        }
    }
}
