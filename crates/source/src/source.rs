//! Simulated Internet sources: a relation behind an SSDL capability gate.
//!
//! A [`Source`] substitutes for the paper's live 1999 web sources. The
//! planners only observe (a) which queries the SSDL description accepts and
//! (b) result cardinalities — both of which the gate reproduces faithfully.
//!
//! Two views of the capability description coexist (§6.1):
//!
//! - the **gate** enforces the *original* description — the source really is
//!   order-sensitive if its grammar says so;
//! - the **planning view** is the permutation-closed description, letting
//!   GenCompact drop the commutativity rewrite rule. Before execution the
//!   mediator *fixes* each source query back to an accepted order
//!   ([`Source::fix_and_answer`]).

use crate::cost::CostParams;
use crate::fault::{Fault, FaultProfile, ResilienceMeter};
use csqp_expr::semantics::eval;
use csqp_expr::CondTree;
use csqp_relation::ops::{project, select};
use csqp_relation::schema::Schema;
use csqp_relation::stream::{project_indices, DedupSketch, TupleBatch};
use csqp_relation::tuple::Row;
use csqp_relation::{Relation, TableStats};
use csqp_ssdl::check::{CompiledSource, ExportSet, SharedCheckCache};
use csqp_ssdl::closure::{fix_order, permutation_closure, DEFAULT_MAX_SEGMENTS};
use csqp_ssdl::facts::CapabilityFacts;
use csqp_ssdl::linearize::{cond_fingerprint, Fingerprint};
use csqp_ssdl::SsdlDesc;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Errors raised when querying a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The source's capability description rejects the query.
    Unsupported {
        /// Source name.
        source: String,
        /// Rendered condition (`"true"` for downloads).
        condition: String,
        /// Requested projection.
        attrs: Vec<String>,
    },
    /// The query references attributes outside the source schema.
    Schema(String),
    /// Injected fault: a momentary network-style failure; retry-worthy.
    Transient {
        /// Source name.
        source: String,
    },
    /// Injected fault: the attempt timed out after `ticks` of simulated
    /// latency.
    Timeout {
        /// Source name.
        source: String,
        /// Virtual ticks the attempt burned before giving up.
        ticks: u64,
    },
    /// Injected fault: the source shed load (rate limit) without doing
    /// work.
    RateLimited {
        /// Source name.
        source: String,
    },
    /// Injected fault: the source is hard-down (outage window).
    Unavailable {
        /// Source name.
        source: String,
    },
}

impl SourceError {
    /// Is this failure worth retrying? Injected faults are; capability
    /// rejections and schema errors are deterministic and never are.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SourceError::Transient { .. }
                | SourceError::Timeout { .. }
                | SourceError::RateLimited { .. }
                | SourceError::Unavailable { .. }
        )
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Unsupported { source, condition, attrs } => write!(
                f,
                "source `{source}` does not support SP({condition}, {{{}}})",
                attrs.join(", ")
            ),
            SourceError::Schema(msg) => write!(f, "schema error: {msg}"),
            SourceError::Transient { source } => {
                write!(f, "source `{source}`: transient failure")
            }
            SourceError::Timeout { source, ticks } => {
                write!(f, "source `{source}`: timed out after {ticks} ticks")
            }
            SourceError::RateLimited { source } => {
                write!(f, "source `{source}`: rate limited")
            }
            SourceError::Unavailable { source } => {
                write!(f, "source `{source}`: unavailable (outage)")
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// The part of a source a cardinality estimator reads, for
/// [`Source::plans_like`]: each estimator a mediator can select reads one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorInput {
    /// Single-column statistics ([`TableStats`]).
    Stats,
    /// The row count alone (fixed per-atom selectivity).
    RowCount,
    /// The relation itself (exact result sizes).
    Relation,
}

/// Cumulative transfer metrics for one source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Meter {
    /// Source queries answered.
    pub queries: u64,
    /// Tuples shipped back to the mediator.
    pub tuples_shipped: u64,
    /// Queries rejected by the capability gate.
    pub rejected: u64,
}

impl Meter {
    /// Measured cost under the §6.2 model.
    pub fn cost(&self, params: &CostParams) -> f64 {
        self.queries as f64 * params.k1 + self.tuples_shipped as f64 * params.k2
    }

    /// Adds this meter's counters to `metrics` under the canonical
    /// `source.*` names.
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::SOURCE_QUERIES, self.queries);
        metrics.add(names::SOURCE_TUPLES_SHIPPED, self.tuples_shipped);
        metrics.add(names::SOURCE_REJECTED, self.rejected);
    }
}

/// A capability-gated, metered, simulated Internet source.
///
/// The fields a planner reads — `original` (and `planning`, derived from
/// it), `stats`/`relation` and `cost` — are exactly what
/// [`Source::plans_like`] compares; a field that starts to feed planning
/// must join it.
#[derive(Debug)]
pub struct Source {
    /// Source name.
    pub name: String,
    relation: Relation,
    /// The gate: the source's true capability.
    original: CompiledSource,
    /// The permutation-closed planning view.
    planning: CompiledSource,
    /// Cross-plan `Check` memo for the planning view (the gate view stays
    /// uncached: execution must exercise the real order-sensitive parser).
    planning_check_cache: SharedCheckCache,
    /// Capability facts of the planning view, compiled on first use (the
    /// federation capability index is built from these).
    facts: OnceLock<CapabilityFacts>,
    stats: TableStats,
    cost: CostParams,
    queries: AtomicU64,
    tuples_shipped: AtomicU64,
    rejected: AtomicU64,
    /// Observed result cardinalities by condition fingerprint: the largest
    /// deduplicated result size ever shipped for each distinct condition.
    /// Exposed through [`Source::observed_cardinalities`]; no planner reads
    /// it, so it is not a planning input (see [`Source::plans_like`]).
    observed_cards: Mutex<BTreeMap<Fingerprint, u64>>,
    /// Unreliability model; `None` (the default) keeps the fault path at a
    /// single branch per query.
    fault: Option<FaultProfile>,
    fault_attempts: AtomicU64,
    res_transients: AtomicU64,
    res_timeouts: AtomicU64,
    res_rate_limited: AtomicU64,
    res_outages: AtomicU64,
    res_ticks: AtomicU64,
}

impl Source {
    /// Builds a source. The planning view is the permutation closure of
    /// `desc` (pass an already-symmetric description to make this a no-op).
    pub fn new(relation: Relation, desc: SsdlDesc, cost: CostParams) -> Self {
        let name = desc.name.clone();
        let closed = permutation_closure(&desc, DEFAULT_MAX_SEGMENTS);
        let stats = TableStats::build(&relation);
        Source {
            name,
            relation,
            original: CompiledSource::new(desc),
            planning: CompiledSource::new(closed.desc),
            planning_check_cache: SharedCheckCache::new(),
            facts: OnceLock::new(),
            stats,
            cost,
            queries: AtomicU64::new(0),
            tuples_shipped: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            observed_cards: Mutex::new(BTreeMap::new()),
            fault: None,
            fault_attempts: AtomicU64::new(0),
            res_transients: AtomicU64::new(0),
            res_timeouts: AtomicU64::new(0),
            res_rate_limited: AtomicU64::new(0),
            res_outages: AtomicU64::new(0),
            res_ticks: AtomicU64::new(0),
        }
    }

    /// Attaches a seeded unreliability model. Subsequent query attempts
    /// draw from the profile's deterministic fault stream.
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// The attached unreliability model, if any.
    pub fn fault_profile(&self) -> Option<&FaultProfile> {
        self.fault.as_ref()
    }

    /// The underlying relation (test/experiment oracle access — a real
    /// Internet source would not expose this).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Table statistics for cost estimation.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The §6.2 cost constants of this source.
    pub fn cost_params(&self) -> &CostParams {
        &self.cost
    }

    /// The order-insensitive planning view (what planners call `Check` on).
    pub fn planning_view(&self) -> &CompiledSource {
        &self.planning
    }

    /// The original (gate) description.
    pub fn gate_view(&self) -> &CompiledSource {
        &self.original
    }

    /// The cross-plan `Check` memo for the planning view. Planners layer
    /// their per-plan cache over this, so repeated identical conditions —
    /// e.g. a federation planning the same query again — skip the Earley
    /// parse entirely.
    pub fn planning_check_cache(&self) -> &SharedCheckCache {
        &self.planning_check_cache
    }

    /// Capability facts of the planning view, compiled once on first use.
    /// These feed the federation capability index (source pre-selection).
    pub fn capability_facts(&self) -> &CapabilityFacts {
        self.facts.get_or_init(|| CapabilityFacts::compile(&self.planning))
    }

    /// Do `self` and `other` plan alike? A planner reads exactly these
    /// inputs from a source, and this compares every one of them:
    ///
    /// 1. the **original** SSDL description — its rules and exports, not
    ///    its name. The planning view is the permutation closure of the
    ///    original, a pure function of it, so equal originals give equal
    ///    planning views. Twins whose rules are merely permuted compare
    ///    unequal: conservative, on purpose;
    /// 2. the §6.2 cost constants ([`CostParams`]);
    /// 3. the estimator input `card` names: the [`TableStats`], the row
    ///    count, or the relation itself.
    ///
    /// Nothing else reaches a planner. The name is informational, the
    /// fault profile and the meters only act at execution, the `Check`
    /// memo only changes how fast `Check` answers, and no planner reads
    /// the observed cardinalities. Two sources for which this holds get the
    /// same plan, cost and alternatives for every query, so a federation
    /// plans one of them and hands the outcome to the other. A new
    /// planning input must join this list and [`Source::planning_key`].
    pub fn plans_like(&self, other: &Source, card: EstimatorInput) -> bool {
        let (a, b) = (&self.original.desc, &other.original.desc);
        a.rules == b.rules
            && a.exports == b.exports
            && self.cost == other.cost
            && match card {
                EstimatorInput::Stats => self.stats == other.stats,
                EstimatorInput::RowCount => self.relation.len() == other.relation.len(),
                EstimatorInput::Relation => self.relation == other.relation,
            }
    }

    /// A bucket key for [`Source::plans_like`]: sources that plan alike
    /// have equal keys. It hashes the rules, exports, cost constants, row
    /// count and — unless only the row count is read — each column's
    /// distinct count and histogram boundaries (equal relations have equal
    /// statistics too). That costs O(grammar + columns × buckets), not
    /// O(data); callers confirm with `plans_like`.
    pub fn planning_key(&self, card: EstimatorInput) -> u64 {
        let mut h = DefaultHasher::new();
        self.original.desc.rules.hash(&mut h);
        self.original.desc.exports.hash(&mut h);
        self.cost.k1.to_bits().hash(&mut h);
        self.cost.k2.to_bits().hash(&mut h);
        self.relation.len().hash(&mut h);
        if card != EstimatorInput::RowCount {
            // Statistics are keyed by column name, so combine the columns
            // order-independently.
            let columns = self.relation.schema().columns.iter().fold(0u64, |acc, c| {
                let mut ch = DefaultHasher::new();
                c.name.hash(&mut ch);
                if let Some(col) = self.stats.column(&c.name) {
                    col.ndv.hash(&mut ch);
                    col.boundaries.hash(&mut ch);
                }
                acc.wrapping_add(ch.finish())
            });
            columns.hash(&mut h);
        }
        h.finish()
    }

    /// `Check(C, R)` against the planning view.
    pub fn check(&self, cond: Option<&CondTree>) -> ExportSet {
        self.planning.check(cond)
    }

    /// Does either capability view match literal constants? When `true`,
    /// feasibility depends on constant *values*, so a prepared plan keyed
    /// on the parameterized shape must re-run `Check` on the rebound
    /// source conditions before reuse (the plan cache does this).
    pub fn has_const_literals(&self) -> bool {
        self.planning.has_const_literals() || self.original.has_const_literals()
    }

    /// Is `SP(C, A, R)` supported (planning view)?
    pub fn supports(&self, cond: Option<&CondTree>, attrs: &BTreeSet<String>) -> bool {
        self.planning.supports(cond, attrs)
    }

    /// Answers a source query, enforcing the **original** capability gate.
    /// Meters the query and the shipped tuples.
    pub fn answer(
        &self,
        cond: Option<&CondTree>,
        attrs: &BTreeSet<String>,
    ) -> Result<Relation, SourceError> {
        self.fault_gate()?;
        if !self.original.supports(cond, attrs) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SourceError::Unsupported {
                source: self.name.clone(),
                condition: cond.map(|c| c.to_string()).unwrap_or_else(|| "true".into()),
                attrs: attrs.iter().cloned().collect(),
            });
        }
        let selected = select(&self.relation, cond);
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let result =
            project(&selected, &attr_refs).map_err(|e| SourceError::Schema(e.to_string()))?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.tuples_shipped.fetch_add(result.len() as u64, Ordering::Relaxed);
        self.record_observed(cond_fingerprint(cond), result.len() as u64);
        Ok(result)
    }

    /// Records an observed result cardinality under a condition
    /// fingerprint. Floors are monotonic: the map keeps the largest result
    /// ever seen per condition, so a partially drained stream can never
    /// *lower* a previously recorded full-scan observation.
    fn record_observed(&self, fp: Fingerprint, rows: u64) {
        let mut map = self.observed_cards.lock().expect("observed-cards lock");
        let entry = map.entry(fp).or_insert(0);
        *entry = (*entry).max(rows);
    }

    /// A snapshot of every observed result cardinality, keyed by condition
    /// fingerprint ([`cond_fingerprint`]). Materialized answers record on
    /// completion; streamed answers record at exhaustion (a stream
    /// abandoned mid-scan records nothing — its count would be a lower
    /// bound, not a cardinality). [`Source::fix_and_answer`] records under
    /// the caller's original condition ordering as well as the fixed one,
    /// so planning-view lookups hit.
    pub fn observed_cardinalities(&self) -> BTreeMap<Fingerprint, u64> {
        self.observed_cards.lock().expect("observed-cards lock").clone()
    }

    /// The observed result cardinality for one condition, if any query with
    /// that condition has completed against this source.
    pub fn observed_cardinality(&self, cond: Option<&CondTree>) -> Option<u64> {
        self.observed_cards
            .lock()
            .expect("observed-cards lock")
            .get(&cond_fingerprint(cond))
            .copied()
    }

    /// Answers a source query phrased against the planning view: first fixes
    /// the condition's ordering to one the gate accepts (§6.1), then answers.
    pub fn fix_and_answer(
        &self,
        cond: Option<&CondTree>,
        attrs: &BTreeSet<String>,
    ) -> Result<Relation, SourceError> {
        match cond {
            None => self.answer(None, attrs),
            Some(c) => {
                let fixed = fix_order(&self.original, c, attrs).ok_or_else(|| {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    SourceError::Unsupported {
                        source: self.name.clone(),
                        condition: c.to_string(),
                        attrs: attrs.iter().cloned().collect(),
                    }
                })?;
                let result = self.answer(Some(&fixed), attrs)?;
                // Key the observation under the caller's ordering too, so
                // planning-view conditions (which may differ from the fixed
                // order) find their floor.
                self.record_observed(cond_fingerprint(Some(c)), result.len() as u64);
                Ok(result)
            }
        }
    }

    /// Fault gate: a real Internet source fails before its query engine
    /// ever sees the request, so faults fire ahead of the capability
    /// check. Zero-cost when no profile is attached (one `None` branch).
    /// The streaming path draws once per batch pull, so every network
    /// round-trip faces the same weather.
    fn fault_gate(&self) -> Result<(), SourceError> {
        if let Some(profile) = &self.fault {
            let idx = self.fault_attempts.fetch_add(1, Ordering::Relaxed);
            let fault = profile.decide(idx);
            self.res_ticks.fetch_add(profile.ticks_for(fault), Ordering::Relaxed);
            match fault {
                None => {}
                Some(Fault::Transient) => {
                    self.res_transients.fetch_add(1, Ordering::Relaxed);
                    return Err(SourceError::Transient { source: self.name.clone() });
                }
                Some(Fault::Timeout) => {
                    self.res_timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(SourceError::Timeout {
                        source: self.name.clone(),
                        ticks: profile.timeout_ticks,
                    });
                }
                Some(Fault::RateLimited) => {
                    self.res_rate_limited.fetch_add(1, Ordering::Relaxed);
                    return Err(SourceError::RateLimited { source: self.name.clone() });
                }
                Some(Fault::Outage) => {
                    self.res_outages.fetch_add(1, Ordering::Relaxed);
                    return Err(SourceError::Unavailable { source: self.name.clone() });
                }
            }
        }
        Ok(())
    }

    /// Opens a **streaming** answer to a source query: the capability gate
    /// runs up front (enforcing the original description, metering
    /// rejections), then tuples ship in batches of at most `batch_size` as
    /// the consumer pulls.
    ///
    /// Metering parity with [`Source::answer`]: `queries` increments once at
    /// open, `tuples_shipped` per batch as tuples actually ship (atomics, so
    /// overlapped consumers account correctly), and the stream dedups its
    /// output exactly like the materialized projection — a fully drained
    /// stream leaves the meter exactly where `answer` would have.
    ///
    /// Fault injection is per *pull*: the gate draws once at open and once
    /// per subsequent batch, so a mid-stream fault surfaces on that pull
    /// while the scan cursor stays put — the consumer can retry the same
    /// pull without re-shipping earlier tuples.
    pub fn answer_stream(
        &self,
        cond: Option<&CondTree>,
        attrs: &BTreeSet<String>,
        batch_size: usize,
    ) -> Result<SourceStream<'_>, SourceError> {
        assert!(batch_size > 0, "batch size must be non-zero");
        self.fault_gate()?;
        if !self.original.supports(cond, attrs) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SourceError::Unsupported {
                source: self.name.clone(),
                condition: cond.map(|c| c.to_string()).unwrap_or_else(|| "true".into()),
                attrs: attrs.iter().cloned().collect(),
            });
        }
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let (out_schema, indices) = project_indices(self.relation.schema(), &attr_refs)
            .map_err(|e| SourceError::Schema(e.to_string()))?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(SourceStream {
            source: self,
            fp: cond_fingerprint(cond),
            cond: cond.cloned(),
            out_schema,
            indices,
            batch_size,
            cursor: 0,
            shipped: 0,
            recorded: false,
            sketch: DedupSketch::new(),
        })
    }

    /// Streaming twin of [`Source::fix_and_answer`]: fixes the condition's
    /// ordering to one the gate accepts (§6.1), then opens the stream.
    pub fn fix_and_answer_stream(
        &self,
        cond: Option<&CondTree>,
        attrs: &BTreeSet<String>,
        batch_size: usize,
    ) -> Result<SourceStream<'_>, SourceError> {
        match cond {
            None => self.answer_stream(None, attrs, batch_size),
            Some(c) => {
                let fixed = fix_order(&self.original, c, attrs).ok_or_else(|| {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    SourceError::Unsupported {
                        source: self.name.clone(),
                        condition: c.to_string(),
                        attrs: attrs.iter().cloned().collect(),
                    }
                })?;
                let mut stream = self.answer_stream(Some(&fixed), attrs, batch_size)?;
                // Record the exhaustion observation under the caller's
                // ordering (see `fix_and_answer`).
                stream.fp = cond_fingerprint(Some(c));
                Ok(stream)
            }
        }
    }

    /// Current transfer metrics.
    pub fn meter(&self) -> Meter {
        Meter {
            queries: self.queries.load(Ordering::Relaxed),
            tuples_shipped: self.tuples_shipped.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Resets the meter (between experiment runs).
    pub fn reset_meter(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.tuples_shipped.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
    }

    /// Source-side resilience metrics: attempts seen by the fault gate,
    /// faults injected by kind, and virtual ticks of simulated latency.
    /// All-zero when no [`FaultProfile`] is attached (`retries` and
    /// `failovers` belong to the executor/federation layers and stay zero
    /// here).
    pub fn resilience_meter(&self) -> ResilienceMeter {
        ResilienceMeter {
            attempts: self.fault_attempts.load(Ordering::Relaxed),
            retries: 0,
            transients: self.res_transients.load(Ordering::Relaxed),
            timeouts: self.res_timeouts.load(Ordering::Relaxed),
            rate_limited: self.res_rate_limited.load(Ordering::Relaxed),
            outages: self.res_outages.load(Ordering::Relaxed),
            failovers: 0,
            ticks: self.res_ticks.load(Ordering::Relaxed),
        }
    }

    /// Resets the resilience counters. Does **not** rewind the fault
    /// stream: attempt indices keep advancing so replays stay unique
    /// per-attempt (rebuild the source to replay a storm).
    pub fn reset_resilience_meter(&self) {
        self.res_transients.store(0, Ordering::Relaxed);
        self.res_timeouts.store(0, Ordering::Relaxed);
        self.res_rate_limited.store(0, Ordering::Relaxed);
        self.res_outages.store(0, Ordering::Relaxed);
        self.res_ticks.store(0, Ordering::Relaxed);
    }
}

/// An open streaming answer: a batched scan over one source query's result.
///
/// Created by [`Source::answer_stream`]. Each [`SourceStream::next_batch`]
/// is one simulated network round-trip: the fault gate draws, then up to
/// `batch_size` fresh (selected, projected, deduplicated) tuples ship and
/// are metered. A fault leaves the cursor untouched, so retrying the pull
/// resumes the scan without double-shipping.
#[derive(Debug)]
pub struct SourceStream<'a> {
    source: &'a Source,
    /// Fingerprint the exhaustion observation is recorded under (the
    /// caller's condition ordering, not the gate-fixed one).
    fp: Fingerprint,
    cond: Option<CondTree>,
    out_schema: Arc<Schema>,
    indices: Vec<usize>,
    batch_size: usize,
    cursor: usize,
    shipped: u64,
    recorded: bool,
    sketch: DedupSketch,
}

impl SourceStream<'_> {
    /// The schema of every shipped batch (the projected attributes).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    /// Pulls the next batch; `Ok(None)` once the scan is exhausted.
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>, SourceError> {
        let tuples = self.source.relation.tuples();
        if self.cursor >= tuples.len() {
            self.record_exhausted();
            return Ok(None);
        }
        self.source.fault_gate()?;
        let schema = self.source.relation.schema();
        let mut fresh = Vec::new();
        while self.cursor < tuples.len() && fresh.len() < self.batch_size {
            let t = &tuples[self.cursor];
            self.cursor += 1;
            let keep = match &self.cond {
                None => true,
                Some(c) => eval(c, &Row { schema, tuple: t }),
            };
            if keep {
                let p = t.project(&self.indices);
                if self.sketch.insert(&p) {
                    fresh.push(p);
                }
            }
        }
        if fresh.is_empty() && self.cursor >= tuples.len() {
            self.record_exhausted();
            return Ok(None);
        }
        self.source.tuples_shipped.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        self.shipped += fresh.len() as u64;
        if self.cursor >= tuples.len() {
            // The scan just drained: the shipped count is now the full
            // deduplicated cardinality, record it without waiting for the
            // consumer to pull the trailing `None`.
            self.record_exhausted();
        }
        Ok(Some(TupleBatch::new(self.out_schema.clone(), fresh)))
    }

    /// Records the full observed cardinality once the scan is exhausted
    /// (idempotent).
    fn record_exhausted(&mut self) {
        if !self.recorded {
            self.recorded = true;
            self.source.record_observed(self.fp, self.shipped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::parse::parse_condition;
    use csqp_relation::datagen;
    use csqp_ssdl::templates;

    fn attrs(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn dealer() -> Source {
        Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
    }

    #[test]
    fn gate_enforces_original_order() {
        let s = dealer();
        let ok = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let swapped = parse_condition("price < 40000 ^ make = \"BMW\"").unwrap();
        assert!(s.answer(Some(&ok), &attrs(&["model", "year"])).is_ok());
        // The gate rejects the swapped order even though planning accepts it.
        assert!(s.supports(Some(&swapped), &attrs(&["model", "year"])));
        let err = s.answer(Some(&swapped), &attrs(&["model", "year"])).unwrap_err();
        assert!(matches!(err, SourceError::Unsupported { .. }));
        // fix_and_answer repairs the order.
        assert!(s.fix_and_answer(Some(&swapped), &attrs(&["model", "year"])).is_ok());
    }

    #[test]
    fn answers_are_selected_and_projected() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let r = s.answer(Some(&c), &attrs(&["model", "year"])).unwrap();
        assert_eq!(r.schema().columns.len(), 2);
        let oracle = csqp_relation::ops::select(s.relation(), Some(&c));
        // Projection may collapse duplicates but never invent rows.
        assert!(r.len() <= oracle.len());
        assert!(!r.is_empty());
    }

    #[test]
    fn projection_beyond_exports_rejected() {
        let s = dealer();
        // s2 (make ^ color) exports {make, model, year}: price refused.
        let c = parse_condition("make = \"BMW\" ^ color = \"red\"").unwrap();
        assert!(s.answer(Some(&c), &attrs(&["model"])).is_ok());
        assert!(s.answer(Some(&c), &attrs(&["price"])).is_err());
    }

    #[test]
    fn metering_counts_queries_and_tuples() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let r1 = s.answer(Some(&c), &attrs(&["make", "model"])).unwrap();
        let r2 = s.answer(Some(&c), &attrs(&["make", "model"])).unwrap();
        let m = s.meter();
        assert_eq!(m.queries, 2);
        assert_eq!(m.tuples_shipped, (r1.len() + r2.len()) as u64);
        assert_eq!(m.rejected, 0);
        assert_eq!(m.cost(&CostParams::new(50.0, 1.0)), 100.0 + m.tuples_shipped as f64);
        s.reset_meter();
        assert_eq!(s.meter(), Meter::default());
    }

    #[test]
    fn rejected_queries_are_metered() {
        let s = dealer();
        let bad = parse_condition("year = 1995").unwrap();
        assert!(s.answer(Some(&bad), &attrs(&["make"])).is_err());
        assert_eq!(s.meter().rejected, 1);
        assert_eq!(s.meter().queries, 0);
    }

    #[test]
    fn download_refused_without_true_rule() {
        let s = dealer();
        assert!(s.answer(None, &attrs(&["make"])).is_err());
        // A download-only source accepts it.
        let dl = Source::new(
            datagen::cars(3, 50),
            templates::download_only(
                "dl",
                &[("make", csqp_expr::ValueType::Str), ("price", csqp_expr::ValueType::Int)],
            ),
            CostParams::default(),
        );
        let r = dl.answer(None, &attrs(&["make", "price"])).unwrap();
        assert!(!r.is_empty());
        assert!(dl.fix_and_answer(None, &attrs(&["make"])).is_ok());
    }

    #[test]
    fn fault_gate_fires_before_capability_gate() {
        // 100% transient: even a gate-rejected query surfaces the fault
        // (the network fails before the source sees the query).
        let s = Source::new(datagen::cars(3, 50), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(1).with_transient(1.0));
        let bad = parse_condition("year = 1995").unwrap();
        let err = s.answer(Some(&bad), &attrs(&["make"])).unwrap_err();
        assert!(matches!(err, SourceError::Transient { .. }));
        assert!(err.is_retryable());
        assert_eq!(s.meter().rejected, 0, "gate never consulted");
        let rm = s.resilience_meter();
        assert_eq!(rm.attempts, 1);
        assert_eq!(rm.transients, 1);
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let profile = FaultProfile::storm(99, 0.7);
        let run = |profile: FaultProfile| -> Vec<bool> {
            let s =
                Source::new(datagen::cars(3, 100), templates::car_dealer(), CostParams::default())
                    .with_fault_profile(profile);
            let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
            (0..40).map(|_| s.answer(Some(&c), &attrs(&["model"])).is_ok()).collect()
        };
        let a = run(profile.clone());
        let b = run(profile);
        assert_eq!(a, b, "same seed replays the same outcome sequence");
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !ok), "storm mixes outcomes");
    }

    #[test]
    fn outage_window_downs_then_recovers() {
        let s = Source::new(datagen::cars(3, 50), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(0).with_outage(0, 3));
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        for _ in 0..3 {
            let err = s.answer(Some(&c), &attrs(&["model"])).unwrap_err();
            assert!(matches!(err, SourceError::Unavailable { .. }));
        }
        assert!(s.answer(Some(&c), &attrs(&["model"])).is_ok(), "outage window passed");
        assert_eq!(s.resilience_meter().outages, 3);
    }

    #[test]
    fn no_profile_keeps_resilience_meter_zero() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        s.answer(Some(&c), &attrs(&["model"])).unwrap();
        assert_eq!(s.resilience_meter(), ResilienceMeter::default());
        assert!(s.fault_profile().is_none());
    }

    #[test]
    fn timeout_burns_ticks() {
        let s = Source::new(datagen::cars(3, 50), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(3).with_timeout(1.0, 25));
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let err = s.answer(Some(&c), &attrs(&["model"])).unwrap_err();
        assert!(matches!(err, SourceError::Timeout { ticks: 25, .. }));
        let rm = s.resilience_meter();
        assert_eq!(rm.timeouts, 1);
        assert_eq!(rm.ticks, 25);
        s.reset_resilience_meter();
        assert_eq!(s.resilience_meter().ticks, 0);
    }

    #[test]
    fn stream_matches_materialized_answer_and_meter() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["make", "model"]);
        let oracle = s.answer(Some(&c), &a).unwrap();
        let oracle_meter = s.meter();
        s.reset_meter();

        let mut stream = s.answer_stream(Some(&c), &a, 7).unwrap();
        let mut got = Relation::empty(stream.schema().clone());
        let mut max_batch = 0;
        while let Some(b) = stream.next_batch().unwrap() {
            max_batch = max_batch.max(b.len());
            for t in b.into_tuples() {
                assert!(got.insert(t), "stream output is already deduplicated");
            }
        }
        assert!(max_batch <= 7);
        assert_eq!(got, oracle);
        assert_eq!(s.meter(), oracle_meter, "drained stream meters like answer");
    }

    #[test]
    fn stream_gate_rejects_at_open() {
        let s = dealer();
        let bad = parse_condition("year = 1995").unwrap();
        assert!(s.answer_stream(Some(&bad), &attrs(&["make"]), 8).is_err());
        assert_eq!(s.meter().rejected, 1);
        assert_eq!(s.meter().queries, 0);
        // fix_and_answer_stream repairs orderings like fix_and_answer.
        let swapped = parse_condition("price < 40000 ^ make = \"BMW\"").unwrap();
        assert!(s.answer_stream(Some(&swapped), &attrs(&["model"]), 8).is_err());
        assert!(s.fix_and_answer_stream(Some(&swapped), &attrs(&["model"]), 8).is_ok());
    }

    #[test]
    fn mid_stream_fault_is_resumable() {
        // Outage covers attempts 1..4: the open succeeds (attempt 0), then
        // three pulls fault, then the scan resumes where it left off.
        let s = Source::new(datagen::cars(3, 200), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(0).with_outage(1, 3));
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["make", "model"]);
        let mut stream = s.answer_stream(Some(&c), &a, 4).unwrap();
        let mut rows = Relation::empty(stream.schema().clone());
        let mut faults = 0;
        loop {
            match stream.next_batch() {
                Ok(Some(b)) => {
                    for t in b.into_tuples() {
                        assert!(rows.insert(t), "no tuple ships twice across retries");
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    assert!(e.is_retryable());
                    faults += 1;
                    assert!(faults < 100, "outage must end");
                }
            }
        }
        assert_eq!(faults, 3);
        let oracle =
            Source::new(datagen::cars(3, 200), templates::car_dealer(), CostParams::default());
        assert_eq!(rows, oracle.answer(Some(&c), &a).unwrap());
        assert_eq!(s.meter().tuples_shipped, rows.len() as u64);
    }

    #[test]
    fn observed_cardinalities_track_completed_queries() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["make", "model"]);
        assert!(s.observed_cardinality(Some(&c)).is_none(), "nothing observed yet");

        let r = s.answer(Some(&c), &a).unwrap();
        assert_eq!(s.observed_cardinality(Some(&c)), Some(r.len() as u64));

        // A swapped ordering records under the caller's fingerprint too.
        let swapped = parse_condition("price < 90000 ^ make = \"BMW\"").unwrap();
        let r2 = s.fix_and_answer(Some(&swapped), &a).unwrap();
        assert_eq!(s.observed_cardinality(Some(&swapped)), Some(r2.len() as u64));

        // A drained stream records the same cardinality as the
        // materialized answer; an abandoned stream records nothing new.
        let s2 = dealer();
        let mut half = s2.answer_stream(Some(&c), &a, 4).unwrap();
        let _ = half.next_batch().unwrap();
        drop(half);
        assert!(s2.observed_cardinality(Some(&c)).is_none(), "partial scans don't record");
        let mut full = s2.answer_stream(Some(&c), &a, 4).unwrap();
        while full.next_batch().unwrap().is_some() {}
        assert_eq!(s2.observed_cardinality(Some(&c)), Some(r.len() as u64));
        assert!(s2.observed_cardinalities().len() == 1);
    }

    const CARS_CSV: &str = "vin,make,model,year,price\n\
                            1,BMW,330i,2020,39000\n\
                            2,BMW,X5,2021,61000\n\
                            3,Toyota,Camry,2019,24000\n\
                            4,BMW,320i,2018,28000\n";

    const DEALER_BODY: &str = "s1 -> make = $str ^ price <= $int ;\n\
                               s2 -> year > $int ;\n\
                               attributes :: s1 : { make, model, year, price } ;\n\
                               attributes :: s2 : { make, model, year } ;";

    /// A source named `name` over `csv` with the grammar `body`.
    fn from_text(name: &str, csv: &str, body: &str, k1: f64) -> Source {
        let relation = csqp_relation::csv::load_csv("cars", csv, &["vin"]).unwrap();
        let desc = csqp_ssdl::parse_ssdl(&format!("source {name} {{\n{body}\n}}")).unwrap();
        Source::new(relation, desc, CostParams::new(k1, 1.0))
    }

    #[test]
    fn plans_like_ignores_the_name_only() {
        let a = from_text("mirror_a", CARS_CSV, DEALER_BODY, 50.0);
        let b = from_text("mirror_b", CARS_CSV, DEALER_BODY, 50.0);
        for input in [EstimatorInput::Stats, EstimatorInput::RowCount, EstimatorInput::Relation] {
            assert!(a.plans_like(&b, input), "{input:?}");
            assert_eq!(a.planning_key(input), b.planning_key(input), "{input:?}");
        }
    }

    #[test]
    fn plans_like_sees_every_planning_input() {
        let base = from_text("base", CARS_CSV, DEALER_BODY, 50.0);
        let unlike = |other: &Source, input: EstimatorInput| !base.plans_like(other, input);
        // One changed cell: other statistics and another relation, but the
        // same row count.
        let cell = from_text("cell", &CARS_CSV.replace("X5", "X6"), DEALER_BODY, 50.0);
        assert!(unlike(&cell, EstimatorInput::Stats));
        assert!(unlike(&cell, EstimatorInput::Relation));
        assert!(!unlike(&cell, EstimatorInput::RowCount), "Uniform reads the row count only");
        let dearer = from_text("dearer", CARS_CSV, DEALER_BODY, 51.0);
        let fewer = from_text(
            "fewer",
            CARS_CSV,
            &DEALER_BODY.replace("{ make, model, year } ;", "{ make, model } ;"),
            50.0,
        );
        // The same forms, with one form's atoms swapped or the rules
        // listed in another order: the permutation-closed planning views
        // accept the same conditions, but the comparison is on the original
        // grammar — conservative on purpose.
        let permuted = from_text(
            "permuted",
            CARS_CSV,
            &DEALER_BODY.replace("make = $str ^ price <= $int", "price <= $int ^ make = $str"),
            50.0,
        );
        let reordered = from_text(
            "reordered",
            CARS_CSV,
            "s2 -> year > $int ;\n\
             s1 -> make = $str ^ price <= $int ;\n\
             attributes :: s1 : { make, model, year, price } ;\n\
             attributes :: s2 : { make, model, year } ;",
            50.0,
        );
        for input in [EstimatorInput::Stats, EstimatorInput::RowCount, EstimatorInput::Relation] {
            for other in [&dearer, &fewer, &permuted, &reordered] {
                assert!(unlike(other, input), "{} vs base under {input:?}", other.name);
                assert!(!other.plans_like(&base, input), "symmetric");
            }
        }
    }

    #[test]
    fn stats_available_for_costing() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\"").unwrap();
        let est = s.stats().estimate_rows(Some(&c));
        let actual = csqp_relation::ops::select(s.relation(), Some(&c)).len() as f64;
        assert!((est - actual).abs() < 1.0, "exact frequencies: est {est} vs {actual}");
    }
}
