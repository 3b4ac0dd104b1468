//! Differential suite for the federation capability index.
//!
//! Two guarantees, checked on random federations × random queries, and run
//! on every CI feature leg (serial, parallel, obs-off — this file is a
//! `csqp-core` test like the chaos suite):
//!
//! 1. **Soundness** — the index's candidate set is a superset of the
//!    members for which full `Check`-based planning is feasible: pruning
//!    never discards an answerable member.
//! 2. **Transparency** — a federation with the index on picks the same
//!    member, the same plan, at the same estimated cost as one with the
//!    index off, and executing both returns byte-identical answers.
//!
//! Both run on two query families: random condition trees, and
//! OR-of-conjunctions built from the pool's conjunctive forms — the shape
//! the per-term entry rule (rule 4) prunes on. A deterministic test checks
//! that the second family really exercises rule 4.

use csqp_core::federation::Federation;
use csqp_core::mediator::Mediator;
use csqp_core::types::TargetQuery;
use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Value, ValueType};
use csqp_plan::attrs;
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::facts::CapabilityFacts;
use csqp_ssdl::{parse_ssdl, templates};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn test_relation() -> Relation {
    let schema = Schema::new(
        "t",
        vec![
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Int),
            ("d", ValueType::Str),
        ],
        &["k"],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..300i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Int(i % 5),
                Value::Int(i % 3),
                Value::str(format!("d{}", i % 4)),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// A pool of capability shapes spanning the index's rule space: full
/// capability, download-only, conjunctive forms, export-limited forms,
/// value lists, disjunctive forms, and recursive required suffixes.
const CAPABILITY_POOL: &[&str] = &[
    // Export-limited conjunctive forms.
    "source s0 {\n\
     f1 -> a = $int ;\n\
     f2 -> a = $int ^ b = $int ;\n\
     attributes :: f1 : { k, a, b } ;\n\
     attributes :: f2 : { k, a, b, c } ;\n}",
    // b^c entry, no d anywhere.
    "source s1 {\n\
     f1 -> b = $int ^ c = $int ;\n\
     attributes :: f1 : { k, b, c } ;\n}",
    // d value-list.
    "source s2 {\n\
     f1 -> dlist ;\n\
     dlist -> d = $str | d = $str _ dlist ;\n\
     attributes :: f1 : { k, d } ;\n}",
    // Narrow exports: c only.
    "source s3 {\n\
     f1 -> c = $int ;\n\
     attributes :: f1 : { k, c } ;\n}",
    // Disjunctive a-form plus a bare d-form.
    "source s4 {\n\
     f1 -> a = $int _ a = $int ;\n\
     f2 -> d = $str ;\n\
     attributes :: f1 : { k, a } ;\n\
     attributes :: f2 : { k, a, d } ;\n}",
    // Required recursive suffix: a with one-or-more b atoms.
    "source s5 {\n\
     f1 -> a = $int ^ brest ;\n\
     brest -> b = $int | b = $int ^ brest ;\n\
     attributes :: f1 : { k, a, b, c } ;\n}",
];

fn member(pool_idx: usize, position: usize) -> Arc<Source> {
    let desc = match pool_idx {
        0 => templates::full_relational(
            "full",
            &[
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
                ("d", ValueType::Str),
            ],
        ),
        1 => templates::download_only(
            "dump",
            &[
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
                ("d", ValueType::Str),
            ],
        ),
        i => parse_ssdl(CAPABILITY_POOL[(i - 2) % CAPABILITY_POOL.len()]).unwrap(),
    };
    // Costs vary by position so the cheapest-member choice is non-trivial.
    let cost = CostParams::new(10.0 + 37.0 * position as f64, 1.0 + position as f64);
    Arc::new(Source::new(test_relation(), desc, cost))
}

fn federation(pool_picks: &[usize], index_on: bool) -> Federation {
    pool_picks
        .iter()
        .enumerate()
        .fold(Federation::new(), |f, (pos, &pick)| f.with_member(member(pick, pos)))
        .with_capability_index(index_on)
}

fn random_condition(seed: u64, n_atoms: usize) -> CondTree {
    let gen_attrs = vec![
        GenAttr::ints("a", 0, 6, 1),
        GenAttr::ints("b", 0, 4, 1),
        GenAttr::ints("c", 0, 2, 1),
        GenAttr::strings("d", &["d0", "d1", "d2", "d3"]),
    ];
    let mut g = CondGen::new(seed, gen_attrs);
    g.tree(&CondGenConfig { n_atoms, max_depth: 3, and_bias: 0.6, eq_bias: 0.8 })
}

/// The pool's conjunctive form shapes, as atom templates over the test
/// relation: `a`, `a ^ b`, `b ^ c`, `c`, `d`, and `a ^ b ^ b`.
const FORM_SHAPES: &[&[&str]] =
    &[&["a"], &["a", "b"], &["b", "c"], &["c"], &["d"], &["a", "b", "b"]];

/// An OR of conjunctions, one per `shapes` entry, each following a pool
/// form with constants drawn from `seed`. Constants span small domains, so
/// disjuncts sometimes repeat an atom.
fn or_of_forms(shapes: &[usize], seed: u64) -> CondTree {
    let mut x = seed;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    let disjuncts: Vec<String> = shapes
        .iter()
        .map(|&s| {
            let atoms: Vec<String> = FORM_SHAPES[s % FORM_SHAPES.len()]
                .iter()
                .map(|&attr| match attr {
                    "a" => format!("a = {}", next(7)),
                    "b" => format!("b = {}", next(5)),
                    "c" => format!("c = {}", next(3)),
                    _ => format!("d = \"d{}\"", next(4)),
                })
                .collect();
            format!("({})", atoms.join(" ^ "))
        })
        .collect();
    csqp_expr::parse::parse_condition(&disjuncts.join(" _ ")).expect("generated condition parses")
}

/// Is the member a candidate under rules 1–3 alone? (The per-source facts
/// oracle with the member treated as not `_`-free, which exempts it from
/// rule 4.)
fn kept_by_rules_one_to_three(m: &Source, query: &TargetQuery) -> bool {
    let facts = CapabilityFacts { conjunctive: false, ..m.capability_facts().clone() };
    facts.may_support(&query.cond, &query.attrs.iter().cloned().collect::<BTreeSet<String>>())
}

fn requested(mask: u8) -> Vec<&'static str> {
    let all = ["k", "a", "b", "c", "d"];
    let picked: Vec<&str> =
        all.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, s)| *s).collect();
    if picked.is_empty() {
        vec!["k"]
    } else {
        picked
    }
}

/// Soundness: every member full planning can serve is an index candidate.
fn candidates_cover_feasible_members(
    picks: &[usize],
    query: &TargetQuery,
) -> Result<(), TestCaseError> {
    let fed = federation(picks, true);
    let decision = fed.capability_index().expect("index enabled").candidates(query);
    for (i, m) in fed.members().iter().enumerate() {
        let feasible = Mediator::new(m.clone()).plan(query).is_ok();
        if feasible {
            prop_assert!(
                decision.is_candidate(i),
                "member {i} ({}) is feasible but was pruned for {query}",
                m.name
            );
        }
    }
    prop_assert_eq!(decision.total, fed.members().len());
    prop_assert_eq!(decision.pruned, decision.total - decision.candidates.len());
    Ok(())
}

/// Transparency: index on/off produce the identical federated decision
/// and, when feasible, byte-identical answers.
fn index_on_off_agree(picks: &[usize], query: &TargetQuery) -> Result<(), TestCaseError> {
    let on = federation(picks, true);
    let off = federation(picks, false);
    match (on.plan(query), off.plan(query)) {
        (Ok(p_on), Ok(p_off)) => {
            prop_assert_eq!(&p_on.source.name, &p_off.source.name);
            prop_assert_eq!(p_on.planned.plan.to_string(), p_off.planned.plan.to_string());
            prop_assert_eq!(p_on.planned.est_cost, p_off.planned.est_cost);
            prop_assert_eq!(p_on.considered.len(), p_off.considered.len());
            let (_, r_on) = on.run(query).expect("plannable query runs");
            let (_, r_off) = off.run(query).expect("plannable query runs");
            prop_assert_eq!(r_on.rows, r_off.rows);
        }
        (Err(_), Err(_)) => {}
        (on_res, off_res) => prop_assert!(
            false,
            "index on/off disagree on feasibility for {}: on={:?} off={:?}",
            query,
            on_res.map(|p| p.source.name.clone()),
            off_res.map(|p| p.source.name.clone())
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Soundness: every member full planning can serve is an index
    /// candidate — pruning only ever removes infeasible members.
    #[test]
    fn index_candidates_superset_of_feasible_members(
        picks in proptest::collection::vec(0usize..8, 1..6),
        seed in 0u64..10_000,
        n_atoms in 1usize..6,
        mask in 0u8..32,
    ) {
        let query = TargetQuery::new(random_condition(seed, n_atoms), attrs(requested(mask)));
        candidates_cover_feasible_members(&picks, &query)?;
    }

    /// Transparency: index on/off produce the identical federated decision
    /// and, when feasible, byte-identical answers.
    #[test]
    fn index_on_off_plans_and_answers_agree(
        picks in proptest::collection::vec(0usize..8, 1..6),
        seed in 0u64..10_000,
        n_atoms in 1usize..6,
        mask in 0u8..32,
    ) {
        let query = TargetQuery::new(random_condition(seed, n_atoms), attrs(requested(mask)));
        index_on_off_agree(&picks, &query)?;
    }

    /// Soundness on OR-of-conjunctions queries over the pool's
    /// conjunctive forms.
    #[test]
    fn index_candidates_superset_of_feasible_members_or_of_forms(
        picks in proptest::collection::vec(0usize..8, 1..6),
        shapes in proptest::collection::vec(0usize..6, 2..5),
        seed in 0u64..10_000,
        mask in 0u8..32,
    ) {
        let query = TargetQuery::new(or_of_forms(&shapes, seed), attrs(requested(mask)));
        candidates_cover_feasible_members(&picks, &query)?;
    }

    /// Transparency on OR-of-conjunctions queries.
    #[test]
    fn index_on_off_plans_and_answers_agree_or_of_forms(
        picks in proptest::collection::vec(0usize..8, 1..6),
        shapes in proptest::collection::vec(0usize..6, 2..5),
        seed in 0u64..10_000,
        mask in 0u8..32,
    ) {
        let query = TargetQuery::new(or_of_forms(&shapes, seed), attrs(requested(mask)));
        index_on_off_agree(&picks, &query)?;
    }
}

/// Rule 4 fires: s0 (forms `a`, `a ^ b`) passes rules 1–3 for a query whose
/// second disjunct is `b ^ c`, but no s0 form fits inside that disjunct, so
/// the per-term rule prunes it — and full planning agrees s0 cannot answer.
#[test]
fn per_term_rule_prunes_a_member_rules_one_to_three_keep() {
    let fed = federation(&[2, 3], true);
    let query = TargetQuery::new(
        csqp_expr::parse::parse_condition("(a = 1 ^ b = 2) _ (b = 3 ^ c = 1)").unwrap(),
        attrs(["k"]),
    );
    let s0 = &fed.members()[0];
    assert!(kept_by_rules_one_to_three(s0, &query));
    assert!(Mediator::new(s0.clone()).plan(&query).is_err());
    let decision = fed.capability_index().expect("index enabled").candidates(&query);
    assert!(!decision.is_candidate(0), "rule 4 must prune s0");
}

/// Rule 4's exemption is needed: a member whose one form is the
/// disjunction `a _ b` answers `a = 1 _ b = 2` with one source query, though
/// neither DNF term holds that form's required classes {a, b}.
#[test]
fn per_term_rule_keeps_members_with_disjunctive_forms() {
    let desc = parse_ssdl(
        "source ab {\n\
         f1 -> a = $int _ b = $int ;\n\
         attributes :: f1 : { k, a, b } ;\n}",
    )
    .unwrap();
    let fed = Federation::new()
        .with_member(Arc::new(Source::new(test_relation(), desc, CostParams::new(10.0, 1.0))))
        .with_capability_index(true);
    let query =
        TargetQuery::new(csqp_expr::parse::parse_condition("a = 1 _ b = 2").unwrap(), attrs(["k"]));
    assert!(Mediator::new(fed.members()[0].clone()).plan(&query).is_ok());
    let decision = fed.capability_index().expect("index enabled").candidates(&query);
    assert!(decision.is_candidate(0), "a `_`-grammar member is exempt from rule 4");
}

/// The OR-of-forms family is not vacuous: over fixed draws of the same
/// generator, rule 4 prunes members rules 1–3 keep, and some of the queries
/// are answerable by some member.
#[test]
fn or_of_forms_family_exercises_the_per_term_rule() {
    let fed = federation(&[0, 1, 2, 3, 4, 5, 6, 7], true);
    let index = fed.capability_index().expect("index enabled");
    let (mut rule_four_prunes, mut feasible) = (0, 0);
    for seed in 0..48u64 {
        let shapes = [seed as usize % 6, (seed as usize / 6) % 6, (seed as usize * 5 + 1) % 6];
        let query = TargetQuery::new(or_of_forms(&shapes, seed), attrs(["k"]));
        let decision = index.candidates(&query);
        for (i, m) in fed.members().iter().enumerate() {
            if !decision.is_candidate(i) && kept_by_rules_one_to_three(m, &query) {
                rule_four_prunes += 1;
            }
        }
        if fed.plan(&query).is_ok() {
            feasible += 1;
        }
    }
    assert!(rule_four_prunes > 0, "rule 4 never fired on the OR-of-forms family");
    assert!(feasible > 0, "no OR-of-forms query was answerable");
}
