//! The federation capability index: compiled source pre-selection.
//!
//! A federation walking N members re-runs full `Check()`-based planning on
//! every member for every query — O(N × parse), fatal at thousands of
//! sources. This module denormalizes each member's compiled
//! [`CapabilityFacts`](csqp_ssdl::facts::CapabilityFacts) into
//! federation-wide inverted bitset postings over dense member ids, so
//! "which sources could possibly answer this condition shape?" resolves by
//! a handful of [`SymSet`] intersections (one more per DNF term of a
//! disjunctive query) — no grammar is parsed for members the index rules
//! out.
//!
//! ## Layout
//!
//! One federation-level [`Interner`] maps namespaced keys to dense symbols:
//!
//! - `x:{attr}` — *export postings*: members with `attr` in some form's
//!   export set;
//! - `m:{attr}:{op}` / `m:{attr}:*` — *may postings*: members whose grammar
//!   can accept an atom of that class (`*` = operator unknown/any);
//! - `c:{attr}:{op}` / `c:{attr}:*` — *required-class keys*: the alphabet of
//!   per-form required-class sets. Forms sharing a required set collapse
//!   into one *required group* (`SymSet` of class keys → `SymSet` of member
//!   ids), so the per-query scan is over distinct requirement shapes, not
//!   over members.
//!
//! ## Soundness
//!
//! Candidates are a **superset** of the truly feasible members — full
//! `Check`-based planning remains the oracle and answers stay
//! byte-identical (the differential suite in
//! `tests/capindex_differential.rs` enforces this). Four pruning rules,
//! each justified by "rewritings never invent atoms absent from the query":
//!
//! 1. **Projection** — every requested attribute must be in the member's
//!    export union.
//! 2. **Entry** — the member is downloadable, or some form's required
//!    classes are contained in the query's atom classes.
//! 3. **Enforcement** — each query atom's class is accepted somewhere in
//!    the grammar, or its attribute is exportable (locally filterable).
//!    Applied **only when the query's atoms are pairwise distinct**: with
//!    duplicated atoms the absorption rewrite `a _ (a ^ y) ≡ a` can drop an
//!    atom entirely, and the rule would over-prune.
//! 4. **Per-term entry** — expand the query condition into DNF terms over
//!    its distinct atoms (a repeated atom is one variable). For *every*
//!    term, the member must be downloadable, own an always-enterable form,
//!    have a grammar that is not `_`-free, or own a form whose required
//!    classes are all among that term's atom classes. Past
//!    [`MAX_ENTRY_TERMS`](csqp_ssdl::facts::MAX_ENTRY_TERMS) terms (or 64
//!    distinct atoms) the rule is skipped, never guessed.
//!
//!    Why it is sound: every leaf of an IPG/GenModular plan is `SP(C)`,
//!    with `C` built from query atoms only. On a `_`-free grammar every
//!    accepted `C` is a conjunction. Plans combine their leaves with ∪, ∩
//!    and local filters, all monotone, and the plan is propositionally
//!    equivalent to the query (every rewrite is a propositional identity).
//!    Take the truth assignment that makes exactly one DNF term's atoms
//!    true. The query is true under it, so some leaf `C` must be true, so
//!    `atoms(C)` ⊆ that term, so the form accepting `C` has its required
//!    classes inside that term's classes. Rule 2 is the same test on the
//!    union of all terms, so it still decides for `_`-grammar members.
//!
//! Rule 4 runs on the interned class keys rule 2 already resolved: each
//! class key maps to the bitmask of the query atoms carrying it, and a term
//! (an atom bitmask) contains a key iff the two masks intersect. Rule 2
//! records those masks for every group it enters, so rule 4 tests a term
//! with bit operations alone — no key is formatted or looked up per term.

use crate::types::TargetQuery;
use csqp_expr::{Interner, Sym, SymSet};
use csqp_source::Source;
use csqp_ssdl::facts::{AtomTerms, CapabilityFacts};
use std::collections::HashMap;
use std::sync::Arc;

/// The outcome of an index probe for one query: the surviving member ids
/// plus the counts the observability layer reports.
#[derive(Debug, Clone)]
pub struct IndexDecision {
    /// Members in the federation.
    pub total: usize,
    /// Surviving member ids (dense, in federation member order).
    pub candidates: SymSet,
    /// `total - |candidates|`.
    pub pruned: usize,
}

impl IndexDecision {
    /// Is the member a candidate?
    pub fn is_candidate(&self, member_idx: usize) -> bool {
        self.candidates.contains(member_idx as Sym)
    }
}

/// A federation-wide inverted/bitset index over member capability facts.
#[derive(Debug, Default)]
pub struct CapabilityIndex {
    interner: Interner,
    /// Postings per interned key (`x:`/`m:` namespaces), indexed by symbol.
    postings: Vec<SymSet>,
    /// Distinct per-form required-class sets → members owning such a form.
    /// Keys are sorted symbol lists, not bitsets: class symbols are sparse
    /// in the federation-wide interner space, so a bitset key would cost
    /// O(interner size) to build and hash per form.
    required_groups: Vec<(Box<[Sym]>, SymSet)>,
    group_ids: HashMap<Box<[Sym]>, usize>,
    /// Group ids keyed by a representative class key (the group's minimum
    /// symbol): a group's required set can only be contained in the query's
    /// class keys if its representative is one of them, so the per-query
    /// scan touches O(query atoms) groups instead of all of them.
    groups_by_rep: HashMap<Sym, Vec<usize>>,
    /// Members owning a form with an empty required set (always enterable).
    always_entry: SymSet,
    /// Members with a download (`true`) rule.
    downloadables: SymSet,
    /// Members rule 4 never prunes: downloadable, always enterable, or
    /// with a grammar that is not `_`-free.
    term_exempt: SymSet,
    /// All member ids.
    all: SymSet,
    n_sources: usize,
}

impl CapabilityIndex {
    /// An empty index.
    pub fn new() -> Self {
        CapabilityIndex::default()
    }

    /// Builds the index over a federation's members, in member order (the
    /// dense member ids are the `members` indices).
    pub fn build(members: &[Arc<Source>]) -> Self {
        let mut idx = CapabilityIndex::new();
        for m in members {
            idx.add_source(m.capability_facts());
        }
        idx
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.n_sources
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.n_sources == 0
    }

    fn posting_mut(&mut self, key: &str) -> &mut SymSet {
        let sym = self.interner.intern(key) as usize;
        if self.postings.len() <= sym {
            self.postings.resize(sym + 1, SymSet::new());
        }
        &mut self.postings[sym]
    }

    fn posting(&self, key: &str) -> Option<&SymSet> {
        self.interner.lookup(key).and_then(|sym| self.postings.get(sym as usize))
    }

    /// Indexes one member's facts; returns its dense member id.
    pub fn add_source(&mut self, facts: &CapabilityFacts) -> usize {
        let id = self.n_sources as Sym;
        self.n_sources += 1;
        self.all.insert(id);

        for attr in &facts.exports_union {
            self.posting_mut(&format!("x:{attr}")).insert(id);
        }
        for class in &facts.may {
            let key = match class.op {
                Some(op) => format!("m:{}:{}", class.attr, op),
                None => format!("m:{}:*", class.attr),
            };
            self.posting_mut(&key).insert(id);
        }
        if facts.downloadable {
            self.downloadables.insert(id);
        }
        if facts.downloadable || !facts.conjunctive {
            self.term_exempt.insert(id);
        }
        for form in &facts.forms {
            // ⊤ (non-productive) forms can never match — not indexed.
            let Some(required) = &form.required else { continue };
            let mut keys: Vec<Sym> = required
                .iter()
                .map(|class| {
                    let key = match class.op {
                        Some(op) => format!("c:{}:{}", class.attr, op),
                        None => format!("c:{}:*", class.attr),
                    };
                    self.interner.intern(&key)
                })
                .collect();
            keys.sort_unstable();
            if keys.is_empty() {
                self.always_entry.insert(id);
                self.term_exempt.insert(id);
                continue;
            }
            let keys: Box<[Sym]> = keys.into();
            let gid = match self.group_ids.get(&keys) {
                Some(&gid) => gid,
                None => {
                    let gid = self.required_groups.len();
                    let rep = keys[0];
                    self.required_groups.push((keys.clone(), SymSet::new()));
                    self.group_ids.insert(keys, gid);
                    self.groups_by_rep.entry(rep).or_default().push(gid);
                    gid
                }
            };
            self.required_groups[gid].1.insert(id);
        }
        id as usize
    }

    /// Resolves the candidate member set for a query by set intersections.
    /// The result is a superset of the members for which full planning is
    /// feasible; everything outside it is infeasible with certainty.
    pub fn candidates(&self, query: &TargetQuery) -> IndexDecision {
        let done = |candidates: SymSet| {
            let pruned = self.n_sources - candidates.len();
            IndexDecision { total: self.n_sources, candidates, pruned }
        };
        let mut cand = self.all.clone();

        // Rule 1 — projection: intersect export postings over requested
        // attributes. An attribute no member exports empties the result.
        for attr in &query.attrs {
            match self.posting(&format!("x:{attr}")) {
                Some(p) => cand.intersect_with(p),
                None => return done(SymSet::new()),
            }
            if cand.is_empty() {
                return done(cand);
            }
        }

        // Each distinct atom's class keys, resolved once per query, as a map
        // from class-key symbol to the bitmask of atoms carrying that key.
        // An atom satisfies both its exact class key and the wildcard key.
        // (A hash map, not a SymSet: class symbols are sparse in the
        // federation-wide interner space.)
        let terms = AtomTerms::of(&query.cond);
        let mut class_atoms: HashMap<Sym, u64> = HashMap::new();
        for (i, a) in terms.atoms.iter().enumerate() {
            // Atoms past the 64th share bit 63; only rule 4 reads the bits,
            // and it is skipped for such queries.
            let bit = 1u64 << i.min(63);
            for key in [format!("c:{}:{}", a.attr, a.op), format!("c:{}:*", a.attr)] {
                if let Some(sym) = self.interner.lookup(&key) {
                    *class_atoms.entry(sym).or_default() |= bit;
                }
            }
        }

        // Rule 2 — entry: downloadable/always-enterable members plus
        // members owning a form whose required classes the query contains.
        // Only groups whose representative key is among the query's class
        // keys can match, so the scan is O(query atoms), not O(groups).
        // (Union order over an unordered set is irrelevant: the result set
        // is the same whichever way the unions associate.)
        let mut entry = self.downloadables.union(&self.always_entry);
        // Each entered group keeps its required keys' atom masks (a range of
        // `needs`) for rule 4, so no key is looked up per term.
        let mut entered: Vec<(usize, usize, usize)> = Vec::new();
        let mut needs: Vec<u64> = Vec::new();
        for key in class_atoms.keys() {
            for &gid in self.groups_by_rep.get(key).map_or(&[][..], Vec::as_slice) {
                let (required, members) = &self.required_groups[gid];
                let start = needs.len();
                let contained = required.iter().all(|k| match class_atoms.get(k) {
                    Some(&atoms) => {
                        needs.push(atoms);
                        true
                    }
                    None => false,
                });
                if contained {
                    entry.union_with(members);
                    entered.push((gid, start, needs.len()));
                } else {
                    needs.truncate(start);
                }
            }
        }
        cand.intersect_with(&entry);
        if cand.is_empty() {
            return done(cand);
        }

        // Rule 3 — enforcement, only under pairwise-distinct atoms (see
        // module docs: absorption can drop duplicated atoms).
        if terms.atoms_distinct {
            for a in &terms.atoms {
                let mut ok = SymSet::new();
                if let Some(p) = self.posting(&format!("m:{}:{}", a.attr, a.op)) {
                    ok.union_with(p);
                }
                if let Some(p) = self.posting(&format!("m:{}:*", a.attr)) {
                    ok.union_with(p);
                }
                if let Some(p) = self.posting(&format!("x:{}", a.attr)) {
                    ok.union_with(p);
                }
                cand.intersect_with(&ok);
                if cand.is_empty() {
                    return done(cand);
                }
            }
        }

        // Rule 4 — per-term entry (see module docs for the soundness
        // argument). Only the groups rule 2 entered can enter a term, since
        // a term's classes are a subset of the query's.
        for term in terms.terms.into_iter().flatten() {
            if cand.is_subset(&self.term_exempt) {
                break;
            }
            let mut ok = self.term_exempt.clone();
            for &(gid, start, end) in &entered {
                if needs[start..end].iter().all(|atoms| atoms & term != 0) {
                    ok.union_with(&self.required_groups[gid].1);
                }
            }
            cand.intersect_with(&ok);
        }
        done(cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::Mediator;
    use csqp_expr::ValueType;
    use csqp_relation::datagen;
    use csqp_source::CostParams;
    use csqp_ssdl::{parse_ssdl, templates};
    use std::collections::BTreeSet;

    fn mirrors() -> Vec<Arc<Source>> {
        let data = datagen::cars(3, 60);
        vec![
            Arc::new(Source::new(
                data.clone(),
                templates::car_dealer(),
                CostParams::new(10.0, 1.0),
            )),
            Arc::new(Source::new(
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
            )),
            Arc::new(Source::new(
                data,
                parse_ssdl(
                    "source color_only {\n\
                     s1 -> color = $str ;\n\
                     attributes :: s1 : { make, model, year, color } ;\n}",
                )
                .unwrap(),
                CostParams::new(10.0, 1.0),
            )),
        ]
    }

    fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
        TargetQuery::parse(cond, attrs).unwrap()
    }

    fn ids(d: &IndexDecision) -> Vec<u32> {
        d.candidates.iter().collect()
    }

    #[test]
    fn routes_by_capability_shape() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        assert_eq!(idx.len(), 3);
        // make+price form: dealer and dump qualify; color_only lacks both
        // an entry form and the price export.
        let d = idx.candidates(&q("make = \"BMW\" ^ price < 40000", &["model", "year"]));
        assert_eq!(ids(&d), vec![0, 1]);
        assert_eq!((d.total, d.pruned), (3, 1));
        // Bare color query: the dealer has no color-only form.
        let d = idx.candidates(&q("color = \"red\"", &["make", "model"]));
        assert_eq!(ids(&d), vec![1, 2]);
        // year-only: only the dump can enter.
        let d = idx.candidates(&q("year = 1995", &["make"]));
        assert_eq!(ids(&d), vec![1]);
    }

    #[test]
    fn unexported_attribute_empties_candidates() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        let d = idx.candidates(&q("make = \"BMW\"", &["mileage"]));
        assert!(d.candidates.is_empty());
        assert_eq!(d.pruned, 3);
    }

    #[test]
    fn duplicate_atoms_disable_rule_three_only() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        // Duplicated atom (absorption territory): rule 3 must not fire, but
        // rules 1–2 still prune the form-only members.
        let d = idx.candidates(&q("year = 1995 _ (year = 1995 ^ make = \"BMW\")", &["make"]));
        assert_eq!(ids(&d), vec![1], "entry rule still applies");
    }

    fn source(ssdl: &str) -> Arc<Source> {
        Arc::new(Source::new(
            datagen::cars(3, 60),
            parse_ssdl(ssdl).unwrap(),
            CostParams::new(10.0, 1.0),
        ))
    }

    /// `mirrors()` plus members spanning rule 4's cases: single-form
    /// conjunctive mirrors, a `_`-grammar member, and a member with an
    /// always-enterable form.
    fn rule_four_members() -> Vec<Arc<Source>> {
        let mut members = mirrors();
        members.extend([
            // 3: make ^ price only.
            source(
                "source mp {\n s1 -> make = $str ^ price < $int ;\n\
                 attributes :: s1 : { make, model, year, color, price } ;\n}",
            ),
            // 4: make ^ color only.
            source(
                "source mc {\n s1 -> make = $str ^ color = $str ;\n\
                 attributes :: s1 : { make, model, year, color, price } ;\n}",
            ),
            // 5: a make ^ price form plus a make value list (`_` grammar).
            source(
                "source ml {\n s1 -> make = $str ^ price < $int ;\n\
                 s2 -> makes ;\n makes -> make = $str | make = $str _ makes ;\n\
                 attributes :: s1 : { make, model, year, color, price } ;\n\
                 attributes :: s2 : { make, model, year } ;\n}",
            ),
            // 6: make ^ price plus an optional-only (always enterable) form.
            source(
                "source mo {\n s1 -> make = $str ^ price < $int ;\n\
                 s2 -> opt ;\n opt -> year = $int | ;\n\
                 attributes :: s1 : { make, model, year, color, price } ;\n\
                 attributes :: s2 : { make, model, year } ;\n}",
            ),
        ]);
        members
    }

    /// Candidates under rules 1–3 alone: the per-source facts oracle with
    /// every member treated as not `_`-free.
    fn rules_one_to_three(members: &[Arc<Source>], query: &TargetQuery) -> Vec<u32> {
        let attrs: BTreeSet<String> = query.attrs.iter().cloned().collect();
        (0..members.len() as u32)
            .filter(|&i| {
                let facts = CapabilityFacts {
                    conjunctive: false,
                    ..members[i as usize].capability_facts().clone()
                };
                facts.may_support(&query.cond, &attrs)
            })
            .collect()
    }

    #[test]
    fn per_term_entry_prunes_mirror_lacking_a_disjuncts_form() {
        let members = rule_four_members();
        let idx = CapabilityIndex::build(&members);
        // Disjuncts need make^price and make^color: the single-form
        // mirrors each lack one; the dealer holds both.
        let query =
            q("(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ color = \"red\")", &["model"]);
        let d = idx.candidates(&query);
        assert_eq!(ids(&d), vec![0, 1, 5, 6]);
        assert_eq!(rules_one_to_three(&members, &query), vec![0, 1, 3, 4, 5, 6]);
        // A pure conjunction: rule 4 is rule 2 again.
        let d = idx.candidates(&q("make = \"BMW\" ^ price < 40000", &["model"]));
        assert_eq!(ids(&d), vec![0, 1, 3, 5, 6]);
    }

    #[test]
    fn per_term_entry_exempts_download_list_and_optional_members() {
        let members = rule_four_members();
        let idx = CapabilityIndex::build(&members);
        // The second disjunct holds no member's form: every conjunctive
        // member without an escape is pruned, the exempt ones stay.
        let d = idx.candidates(&q(
            "(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ year > 2018)",
            &["model"],
        ));
        assert_eq!(ids(&d), vec![1, 5, 6], "download-only, `_` grammar, always enterable");
        assert!(!members[5].capability_facts().conjunctive);
        assert!(members[3].capability_facts().conjunctive);
    }

    #[test]
    fn per_term_entry_is_skipped_past_the_term_cap() {
        let members = rule_four_members();
        let idx = CapabilityIndex::build(&members);
        // (mp-disjunct _ year) ^ (p0 _ p1) ^ … : 2 × 2^6 = 128 DNF terms,
        // past the cap. Half the terms hold no make ^ price, so rule 4
        // would prune mp if it ran.
        let filler = (0..6).map(|i| format!(" ^ (price < {i} _ price > {i})")).collect::<String>();
        let cond = format!("((make = \"BMW\" ^ price < 40000) _ year > 2018){filler}");
        let query = q(&cond, &["model"]);
        assert!(AtomTerms::of(&query.cond).terms.is_none());
        let d = idx.candidates(&query);
        assert!(d.is_candidate(3), "skipped rule must not prune mp");
        assert_eq!(ids(&d), rules_one_to_three(&members, &query));
        // Under the cap (one filler pair: 4 terms) it prunes mp.
        let query = q(
            "((make = \"BMW\" ^ price < 40000) _ year > 2018) ^ (price < 0 _ price > 0)",
            &["model"],
        );
        assert!(!idx.candidates(&query).is_candidate(3));
    }

    #[test]
    fn per_term_entry_stays_sound_with_duplicate_atoms() {
        let members = rule_four_members();
        let idx = CapabilityIndex::build(&members);
        // Absorption: `p _ (p ^ c)` ≡ `p`, so mp can answer it with one
        // source query. The repeated atom is one DNF variable, and the
        // term `p ^ c` contains mp's form.
        let query = q(
            "(make = \"BMW\" ^ price < 40000) _ \
             (make = \"BMW\" ^ price < 40000 ^ color = \"red\")",
            &["model"],
        );
        assert!(Mediator::new(members[3].clone()).plan(&query).is_ok());
        let d = idx.candidates(&query);
        assert!(d.is_candidate(3));
        // A duplicated atom in a disjunct lacking the form still prunes:
        // the term `m ^ c` (make = "BMW" twice) holds no make ^ price.
        let query =
            q("(make = \"BMW\" ^ price < 40000) _ (make = \"BMW\" ^ color = \"red\")", &["model"]);
        assert!(Mediator::new(members[3].clone()).plan(&query).is_err());
        assert!(!idx.candidates(&query).is_candidate(3));
    }

    #[test]
    fn agrees_with_per_source_facts_oracle() {
        let members = rule_four_members();
        let idx = CapabilityIndex::build(&members);
        let queries = [
            q("make = \"BMW\" ^ price < 40000", &["model", "year"]),
            q("color = \"red\"", &["make", "model"]),
            q("year = 1995", &["make", "model"]),
            q("make = \"BMW\" ^ color = \"red\"", &["year"]),
            q("price < 10000", &["price"]),
            q("make = \"BMW\"", &["mileage"]),
            // OR-of-forms queries (rule 4).
            q("(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ color = \"red\")", &["model"]),
            q(
                "(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ price < 30000)",
                &["model", "year"],
            ),
            q("(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ year > 2018)", &["model"]),
            q("make = \"BMW\" _ make = \"Audi\"", &["model"]),
            q("make = \"BMW\" ^ (price < 40000 _ color = \"red\")", &["model", "year"]),
            q("color = \"red\" _ color = \"blue\"", &["make"]),
        ];
        for query in &queries {
            let d = idx.candidates(query);
            let attrs: BTreeSet<String> = query.attrs.iter().cloned().collect();
            for (i, m) in members.iter().enumerate() {
                assert_eq!(
                    d.is_candidate(i),
                    m.capability_facts().may_support(&query.cond, &attrs),
                    "index and facts oracle disagree on member {i} for {query}"
                );
            }
        }
    }

    #[test]
    fn empty_index_prunes_nothing_nonexistent() {
        let idx = CapabilityIndex::new();
        let d = idx.candidates(&q("a = 1", &["k"]));
        assert_eq!((d.total, d.pruned), (0, 0));
        assert!(d.candidates.is_empty());
    }
}
