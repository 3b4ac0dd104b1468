//! Capability-fact compilation — the static summary behind the federation
//! capability index.
//!
//! A [`CompiledSource`] answers `Check(C, R)` exactly, but only by parsing.
//! For federation-scale source selection ("which of 10,000 sources could
//! possibly answer this condition shape?") we precompile each grammar into
//! *capability facts* — small, set-shaped over/under-approximations of what
//! the grammar accepts:
//!
//! - **may classes** (over-approximation): every atom class
//!   ([`AtomClass`] = attribute × optional operator) that *can* appear in any
//!   accepted condition. If a query atom's class is outside this set and its
//!   attribute is not exportable (hence not locally filterable), no plan for
//!   the query can use this source.
//! - **required classes** (under-approximation, per form): atom classes that
//!   *must* appear in every condition the form accepts, computed by a
//!   greatest-fixpoint over the grammar. If no form's required set is
//!   contained in the query's class set — and the source has no download
//!   rule — the source cannot accept any rewriting of the query, because
//!   rewritings never introduce atoms absent from the query.
//! - **exports**: per-form exportable attributes and their union. A
//!   requested attribute outside every export set can never be retrieved.
//! - **downloadable**: does some form accept the trivially-true condition
//!   (`Check(true, R)` non-empty), i.e. can the source be bulk-downloaded?
//! - **conjunctive**: no grammar rule contains the `_` terminal, so every
//!   condition the source accepts is a conjunction. Such a source can only
//!   serve a disjunctive query disjunct by disjunct: each DNF term of the
//!   query must, on its own, contain some form's required classes (the
//!   per-term entry rule of [`CapabilityFacts::may_support`]).
//!
//! The facts are *sound for pruning*: whenever a fact rules a source out,
//! full `Check`-based planning is guaranteed infeasible. The converse does
//! not hold — facts ignore most condition structure (nesting, constant
//! types; connectors only through the per-term rule's DNF), so surviving
//! sources still go through the real planner. See DESIGN.md §5e.

use crate::check::CompiledSource;
use crate::grammar::{GSym, NtId};
use crate::token::Term;
use csqp_expr::{Atom, CmpOp, CondTree, Connector};
use std::collections::BTreeSet;

/// Most DNF terms the per-term entry rule expands a condition into. A
/// condition whose DNF is larger (or that has more than 64 distinct atoms)
/// skips the rule rather than guess.
pub const MAX_ENTRY_TERMS: usize = 64;

/// An atom *class*: the capability-relevant shape of an atomic condition,
/// ignoring the constant. `op = None` is a wildcard — the grammar position
/// constrains the attribute but (as far as the facts can see) any operator.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomClass {
    /// Attribute name.
    pub attr: String,
    /// Operator, or `None` for "any operator".
    pub op: Option<CmpOp>,
}

impl AtomClass {
    /// An exact attribute × operator class.
    pub fn exact(attr: impl Into<String>, op: CmpOp) -> Self {
        AtomClass { attr: attr.into(), op: Some(op) }
    }

    /// An any-operator class for an attribute.
    pub fn wildcard(attr: impl Into<String>) -> Self {
        AtomClass { attr: attr.into(), op: None }
    }
}

impl std::fmt::Display for AtomClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            Some(op) => write!(f, "{} {}", self.attr, op),
            None => write!(f, "{} *", self.attr),
        }
    }
}

/// Facts about one condition form (one condition nonterminal).
#[derive(Debug, Clone)]
pub struct FormFacts {
    /// Form (condition nonterminal) name.
    pub name: String,
    /// Classes every accepted condition must contain, or `None` when the
    /// form is non-productive (derives no finite string — never usable).
    pub required: Option<BTreeSet<AtomClass>>,
    /// Attributes exported when this form matches.
    pub exports: BTreeSet<String>,
}

/// The compiled capability facts of one source.
#[derive(Debug, Clone)]
pub struct CapabilityFacts {
    /// Per condition-nonterminal facts, in grammar declaration order.
    pub forms: Vec<FormFacts>,
    /// Over-approximation of atom classes appearing in any accepted
    /// condition, source-wide.
    pub may: BTreeSet<AtomClass>,
    /// Union of all form export sets.
    pub exports_union: BTreeSet<String>,
    /// Does `Check(true, R)` succeed (a `f -> true` download rule)?
    pub downloadable: bool,
    /// Is the grammar `_`-free (no rule contains the `_` terminal)? Then
    /// every accepted condition is a conjunction of atoms.
    pub conjunctive: bool,
}

/// A condition's distinct atoms and its DNF over them, for the per-term
/// entry rule. Atoms are identified by structural equality, so a repeated
/// atom is one propositional variable.
#[derive(Debug, Clone)]
pub struct AtomTerms<'a> {
    /// Distinct atoms, in first-occurrence order.
    pub atoms: Vec<&'a Atom>,
    /// Were the condition's atom occurrences pairwise distinct?
    pub atoms_distinct: bool,
    /// DNF terms as bitmasks over `atoms` (bit `i` = `atoms[i]`), sorted
    /// and deduplicated; `None` when the DNF exceeds [`MAX_ENTRY_TERMS`]
    /// terms or the condition has more than 64 distinct atoms.
    pub terms: Option<Vec<u64>>,
}

impl<'a> AtomTerms<'a> {
    /// Collects the atoms of `cond` and expands its DNF.
    pub fn of(cond: &'a CondTree) -> AtomTerms<'a> {
        let mut atoms: Vec<&Atom> = Vec::new();
        let mut occurrences = 0;
        collect_distinct(cond, &mut atoms, &mut occurrences);
        let mut terms = Vec::new();
        let expanded = atoms.len() <= 64 && dnf_masks(cond, &atoms, &mut terms).is_some();
        terms.sort_unstable();
        terms.dedup();
        AtomTerms {
            atoms_distinct: atoms.len() == occurrences,
            atoms,
            terms: expanded.then_some(terms),
        }
    }
}

fn collect_distinct<'a>(t: &'a CondTree, atoms: &mut Vec<&'a Atom>, occurrences: &mut usize) {
    match t {
        CondTree::Leaf(a) => {
            *occurrences += 1;
            if !atoms.contains(&a) {
                atoms.push(a);
            }
        }
        CondTree::Node(_, children) => {
            for c in children {
                collect_distinct(c, atoms, occurrences);
            }
        }
    }
}

/// Appends the DNF terms of `t`, as bitmasks over `atoms`, to `out` (one
/// buffer for the whole expansion: an `And` multiplies its accumulated
/// terms with each child's in place). `None` once any node would exceed
/// [`MAX_ENTRY_TERMS`] terms.
fn dnf_masks(t: &CondTree, atoms: &[&Atom], out: &mut Vec<u64>) -> Option<()> {
    let start = out.len();
    match t {
        CondTree::Leaf(a) => {
            // A first occurrence is found by address; a repeat by value.
            let id = atoms.iter().position(|b| std::ptr::eq(*b, a));
            out.push(1u64 << id.or_else(|| atoms.iter().position(|b| *b == a))?);
        }
        CondTree::Node(Connector::Or, children) => {
            for c in children {
                dnf_masks(c, atoms, out)?;
                if out.len() - start > MAX_ENTRY_TERMS {
                    return None;
                }
            }
        }
        CondTree::Node(Connector::And, children) => {
            out.push(0);
            for c in children {
                let mid = out.len();
                dnf_masks(c, atoms, out)?;
                let end = out.len();
                if (mid - start) * (end - mid) > MAX_ENTRY_TERMS {
                    return None;
                }
                for i in start..mid {
                    for j in mid..end {
                        let term = out[i] | out[j];
                        out.push(term);
                    }
                }
                out.drain(start..end);
            }
        }
    }
    Some(())
}

/// The class-set ceiling used by the greatest fixpoint: `None` means ⊤
/// ("requires everything" — a non-productive nonterminal).
type MustSet = Option<BTreeSet<AtomClass>>;

fn intersect(a: MustSet, b: &BTreeSet<AtomClass>) -> MustSet {
    match a {
        None => Some(b.clone()),
        Some(prev) => Some(prev.intersection(b).cloned().collect()),
    }
}

/// Atom classes syntactically present in a rule RHS: each `Attr` terminal
/// contributes one class, exact when an `Op` terminal immediately follows,
/// wildcard otherwise.
fn rhs_classes(rhs: &[GSym]) -> Vec<AtomClass> {
    let mut out = Vec::new();
    for (i, sym) in rhs.iter().enumerate() {
        if let GSym::T(Term::Attr(a)) = sym {
            let op = match rhs.get(i + 1) {
                Some(GSym::T(Term::Op(op))) => Some(*op),
                _ => None,
            };
            out.push(AtomClass { attr: a.clone(), op });
        }
    }
    out
}

impl CapabilityFacts {
    /// Compiles the facts for a source.
    ///
    /// Call this on the *planning view* (permutation closure): the closure
    /// only adds reordered rules, so the facts agree with the gate view,
    /// but keeping the convention uniform avoids surprises.
    pub fn compile(source: &CompiledSource) -> CapabilityFacts {
        let grammar = source.grammar();
        let n = grammar.nt_names.len();

        // may(nt): union of classes over every rule (reachability ignored —
        // a superset is still sound for pruning).
        let mut may: BTreeSet<AtomClass> = BTreeSet::new();
        for rule in &grammar.rules {
            may.extend(rhs_classes(&rule.rhs));
        }

        // must(nt): greatest fixpoint. Start at ⊤; each pass intersects,
        // over the nonterminal's alternatives, the union of the RHS
        // symbols' requirements. Nonterminals with no rules (or only
        // self-blocking recursion) stay ⊤ = non-productive.
        let mut must: Vec<MustSet> = vec![None; n];
        loop {
            let mut changed = false;
            for nt in 0..n {
                let mut acc: MustSet = None;
                let mut any_rule = false;
                for &ri in &grammar.rules_by_lhs[nt] {
                    let rule = &grammar.rules[ri];
                    // Union of requirements across the RHS; ⊤ if any
                    // nonterminal in the RHS is itself ⊤.
                    let mut rhs_req: BTreeSet<AtomClass> =
                        rhs_classes(&rule.rhs).into_iter().collect();
                    let mut top = false;
                    for sym in &rule.rhs {
                        if let GSym::Nt(m) = sym {
                            match &must[*m as usize] {
                                None => {
                                    top = true;
                                    break;
                                }
                                Some(req) => rhs_req.extend(req.iter().cloned()),
                            }
                        }
                    }
                    if top {
                        continue; // this alternative contributes ⊤
                    }
                    any_rule = true;
                    acc = intersect(acc, &rhs_req);
                }
                if any_rule && acc != must[nt] {
                    must[nt] = acc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let forms: Vec<FormFacts> = grammar
            .condition_nts
            .iter()
            .map(|&nt: &NtId| {
                let name = grammar.nt_name(nt).to_string();
                let exports = source.desc.exports.get(&name).cloned().unwrap_or_default();
                FormFacts { name, required: must[nt as usize].clone(), exports }
            })
            .collect();

        let exports_union: BTreeSet<String> =
            forms.iter().flat_map(|f| f.exports.iter().cloned()).collect();

        let downloadable = !source.check(None).is_empty();
        let conjunctive = !grammar
            .rules
            .iter()
            .any(|rule| rule.rhs.iter().any(|sym| matches!(sym, GSym::T(Term::OrSym))));

        CapabilityFacts { forms, may, exports_union, downloadable, conjunctive }
    }

    /// The class set of a query condition: one exact class per atom. A
    /// wildcard grammar requirement `attr *` is satisfied by any atom on
    /// `attr`; callers comparing against facts should treat a query atom
    /// `(a, op)` as satisfying both `(a, Some(op))` and `(a, None)`.
    pub fn query_classes(cond: &CondTree) -> BTreeSet<AtomClass> {
        cond.atoms().into_iter().map(|a| AtomClass::exact(a.attr.clone(), a.op)).collect()
    }

    /// Does a query class set satisfy a required set? (Every requirement is
    /// met by some query atom; wildcards match any operator.)
    pub fn satisfies(required: &BTreeSet<AtomClass>, query: &BTreeSet<AtomClass>) -> bool {
        required.iter().all(|req| match req.op {
            Some(_) => query.contains(req),
            None => query.iter().any(|q| q.attr == req.attr),
        })
    }

    /// Does some form's required set fit inside `classes` (or is the
    /// source downloadable)?
    fn enterable(&self, classes: &BTreeSet<AtomClass>) -> bool {
        self.downloadable
            || self
                .forms
                .iter()
                .any(|f| f.required.as_ref().is_some_and(|req| Self::satisfies(req, classes)))
    }

    /// Sound feasibility pre-filter: could *any* rewriting of a query with
    /// this condition and requested attributes be answerable by the source?
    /// `false` guarantees full planning fails; `true` promises nothing.
    ///
    /// This is the per-source oracle of the federation capability index
    /// (`csqp_core::capindex`): both apply the same four rules and agree
    /// member by member.
    pub fn may_support(&self, cond: &CondTree, requested: &BTreeSet<String>) -> bool {
        // Rule 1 — projection: every requested attribute must be exportable.
        if !requested.iter().all(|a| self.exports_union.contains(a)) {
            return false;
        }
        // Rule 2 — entry: some form's required classes are contained in the
        // query's classes, or the source is downloadable.
        let query_classes = Self::query_classes(cond);
        if !self.enterable(&query_classes) {
            return false;
        }
        // Rule 3 — enforcement: each query atom is either enforceable at the
        // source (its class may appear in an accepted condition) or locally
        // filterable (its attribute is exportable). Only sound when atoms
        // are pairwise distinct: duplicated atoms enable absorption
        // rewrites that drop atoms entirely.
        let terms = AtomTerms::of(cond);
        if terms.atoms_distinct {
            for q in &query_classes {
                let enforceable =
                    self.may.contains(q) || self.may.contains(&AtomClass::wildcard(q.attr.clone()));
                if !enforceable && !self.exports_union.contains(&q.attr) {
                    return false;
                }
            }
        }
        // Rule 4 — per-term entry: a `_`-free grammar only accepts
        // conjunctions, so every DNF term of the query must on its own
        // contain some form's required classes (soundness argument in
        // `csqp_core::capindex`). Skipped past the DNF term cap.
        if self.conjunctive {
            for &term in terms.terms.iter().flatten() {
                let term_classes: BTreeSet<AtomClass> = (terms.atoms.iter().enumerate())
                    .filter(|(i, _)| term & (1 << i) != 0)
                    .map(|(_, a)| AtomClass::exact(a.attr.clone(), a.op))
                    .collect();
                if !self.enterable(&term_classes) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ssdl;
    use csqp_expr::parse::parse_condition;

    fn facts(text: &str) -> CapabilityFacts {
        CapabilityFacts::compile(&CompiledSource::new(parse_ssdl(text).unwrap()))
    }

    fn car_dealer() -> CapabilityFacts {
        facts(
            "source car_dealer {\n\
             s1 -> make = $str ^ price < $int ;\n\
             s2 -> make = $str ^ color = $str ;\n\
             attributes :: s1 : { make, model, year, color } ;\n\
             attributes :: s2 : { make, model, year } ;\n}",
        )
    }

    fn cond(text: &str) -> CondTree {
        parse_condition(text).unwrap()
    }

    fn classes(text: &str) -> BTreeSet<AtomClass> {
        CapabilityFacts::query_classes(&cond(text))
    }

    fn names(xs: &[&str]) -> BTreeSet<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn compiles_required_and_may() {
        let f = car_dealer();
        assert!(!f.downloadable);
        assert_eq!(f.forms.len(), 2);
        let s1 = &f.forms[0];
        assert_eq!(
            s1.required.as_ref().unwrap(),
            &[AtomClass::exact("make", CmpOp::Eq), AtomClass::exact("price", CmpOp::Lt)]
                .into_iter()
                .collect()
        );
        assert!(f.may.contains(&AtomClass::exact("color", CmpOp::Eq)));
        assert!(!f.may.contains(&AtomClass::exact("color", CmpOp::Lt)));
        assert_eq!(f.exports_union, names(&["make", "model", "year", "color"]));
    }

    #[test]
    fn alternatives_intersect_requirements() {
        // Two alternatives for one form: only the shared atom is required.
        let f = facts(
            "s1 -> make = $str ^ price < $int | make = $str ;\n\
             attributes :: s1 : { make, price } ;",
        );
        assert_eq!(
            f.forms[0].required.as_ref().unwrap(),
            &[AtomClass::exact("make", CmpOp::Eq)].into_iter().collect()
        );
    }

    #[test]
    fn optional_suffix_is_not_required() {
        let f = facts(
            "s1 -> a = $int opt ;\n\
             opt -> ^ b = $int | ;\n\
             attributes :: s1 : { a, b } ;",
        );
        let req = f.forms[0].required.as_ref().unwrap();
        assert!(req.contains(&AtomClass::exact("a", CmpOp::Eq)));
        assert!(!req.iter().any(|c| c.attr == "b"), "optional atom must not be required");
        assert!(f.may.contains(&AtomClass::exact("b", CmpOp::Eq)));
    }

    #[test]
    fn recursive_list_forms_require_one_item() {
        let f = facts(
            "s1 -> ( sizes ) ;\n\
             sizes -> size = $str | size = $str _ sizes ;\n\
             attributes :: s1 : { size } ;",
        );
        assert_eq!(
            f.forms[0].required.as_ref().unwrap(),
            &[AtomClass::exact("size", CmpOp::Eq)].into_iter().collect()
        );
    }

    #[test]
    fn non_productive_form_is_top() {
        // `loop` only derives itself: no finite string, required = ⊤.
        let f = facts(
            "s1 -> a = $int loopnt ;\n\
             loopnt -> ^ b = $int loopnt ;\n\
             attributes :: s1 : { a, b } ;",
        );
        assert!(f.forms[0].required.is_none());
    }

    #[test]
    fn download_rule_sets_downloadable() {
        let f = facts("s_dl -> true ;\nattributes :: s_dl : { a } ;");
        assert!(f.downloadable);
        assert!(f.forms[0].required.as_ref().unwrap().is_empty());
    }

    #[test]
    fn may_support_projection_rule() {
        let f = car_dealer();
        let q = cond("make = \"BMW\" ^ price < 40000");
        assert!(f.may_support(&q, &names(&["model", "year"])));
        assert!(!f.may_support(&q, &names(&["mileage"])), "unexported attribute");
    }

    #[test]
    fn may_support_entry_rule() {
        let f = car_dealer();
        // No form's requirements are met by a color-only query… except via
        // wildcard-free exactness: s2 requires make=; color alone fails.
        let q = cond("color = \"red\"");
        assert!(!f.may_support(&q, &names(&["model"])));
        // Adding make= satisfies s2.
        let q2 = cond("make = \"BMW\" ^ color = \"red\"");
        assert!(f.may_support(&q2, &names(&["model"])));
    }

    #[test]
    fn may_support_enforcement_rule() {
        let f = car_dealer();
        // year > 1999: not enforceable (no grammar position), but `year` is
        // exported, so it is locally filterable — stays a candidate.
        let q = cond("make = \"BMW\" ^ color = \"red\" ^ year > 1999");
        assert!(f.may_support(&q, &names(&["model"])));
        // mileage < 10000: not enforceable and not exportable — pruned.
        let q2 = cond("make = \"BMW\" ^ color = \"red\" ^ mileage < 10000");
        assert!(!f.may_support(&q2, &names(&["model"])));
        // …but with a duplicated atom (absorption territory), rule 3 must
        // not fire.
        let q3 = cond("make = \"BMW\" ^ color = \"red\" ^ (mileage < 10000 _ mileage < 10000)");
        assert!(f.may_support(&q3, &names(&["model"])));
    }

    #[test]
    fn may_support_per_term_entry_rule() {
        let f = car_dealer();
        assert!(f.conjunctive);
        // Each disjunct holds one of the dealer's forms: a candidate.
        let both = cond("(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ color = \"red\")");
        assert!(f.may_support(&both, &names(&["model"])));
        // The second disjunct holds no form, though the query's classes as
        // one set contain s1's: rule 2 keeps the dealer, rule 4 prunes it.
        let one = cond("(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ year > 2018)");
        assert!(f.enterable(&CapabilityFacts::query_classes(&one)));
        assert!(!f.may_support(&one, &names(&["model"])));
        // A `_`-grammar source is exempt.
        let list = facts(
            "s1 -> make = $str ^ price < $int | make = $str _ make = $str ;\n\
             attributes :: s1 : { make, model, price, year } ;",
        );
        assert!(!list.conjunctive);
        assert!(list.may_support(&one, &names(&["model"])));
    }

    #[test]
    fn atom_terms_expand_dnf_over_distinct_atoms() {
        let c = cond("a = 1 ^ (b = 2 _ c = 3) ^ (a = 1 _ d = 4)");
        let t = AtomTerms::of(&c);
        assert_eq!(t.atoms.len(), 4, "the repeated a = 1 is one atom");
        assert!(!t.atoms_distinct);
        // a^b, a^b^d, a^c, a^c^d over atoms [a, b, c, d].
        assert_eq!(t.terms, Some(vec![0b0011, 0b0101, 0b1011, 0b1101]));
        // 7 two-way disjunctions conjoined: 2^7 = 128 terms, past the cap.
        let wide = (0..7).map(|i| format!("(x{i} = 1 _ y{i} = 2)")).collect::<Vec<_>>().join(" ^ ");
        let wide = cond(&wide);
        let t = AtomTerms::of(&wide);
        assert_eq!(t.atoms.len(), 14);
        assert_eq!(t.terms, None);
    }

    #[test]
    fn wildcard_requirements_match_any_op() {
        let req: BTreeSet<AtomClass> = [AtomClass::wildcard("price")].into_iter().collect();
        assert!(CapabilityFacts::satisfies(&req, &classes("price < 4")));
        assert!(CapabilityFacts::satisfies(&req, &classes("price > 4")));
        assert!(!CapabilityFacts::satisfies(&req, &classes("make = \"BMW\"")));
    }

    #[test]
    fn facts_agree_between_gate_and_closure_views() {
        use crate::closure::{permutation_closure, DEFAULT_MAX_SEGMENTS};
        let desc = parse_ssdl(
            "source s {\n\
             s1 -> make = $str ^ price < $int ^ year > $int ;\n\
             attributes :: s1 : { make, price, year } ;\n}",
        )
        .unwrap();
        let gate = CapabilityFacts::compile(&CompiledSource::new(desc.clone()));
        let planning = CapabilityFacts::compile(&CompiledSource::new(
            permutation_closure(&desc, DEFAULT_MAX_SEGMENTS).desc,
        ));
        assert_eq!(gate.may, planning.may);
        assert_eq!(gate.exports_union, planning.exports_union);
        assert_eq!(gate.downloadable, planning.downloadable);
        // The closure may add forms (permuted rules under the same NT keep
        // the same name) but requirements per original form are unchanged.
        let find = |f: &CapabilityFacts, n: &str| {
            f.forms.iter().find(|x| x.name == n).unwrap().required.clone()
        };
        assert_eq!(find(&gate, "s1"), find(&planning, "s1"));
    }
}
