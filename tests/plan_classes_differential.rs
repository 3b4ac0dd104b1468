//! Differential suite for planning classes: a federation plans once per
//! class of members with identical planning inputs (original SSDL body,
//! cost constants, estimator input) and hands the outcome to the class's
//! other candidates.
//!
//! The reference is every member planned alone with `Mediator::plan`,
//! reduced "cheapest, earliest member on ties". On random queries over two
//! pools — exact mirror pairs, and near-miss siblings that differ in one
//! planning input — the federation must pick the same winner, plan text,
//! estimated cost and alternatives, report the same cost for every member,
//! and answer exactly like the naive oracle. Deterministic tests pin that
//! sharing fires on the mirror pool and never on the near-miss pool, so the
//! property cannot pass vacuously. Runs on every CI feature leg (this file
//! is a `csqp-core` test like the chaos suite).

use csqp_core::federation::Federation;
use csqp_core::mediator::{CardKind, Mediator};
use csqp_core::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Value, ValueType};
use csqp_obs::names;
use csqp_plan::attrs;
use csqp_relation::ops::{project, select};
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::parse_ssdl;
use proptest::prelude::*;
use std::sync::Arc;

/// 240 rows over `k, a, b, c, d`; `bump` shifts the `a` cell of every
/// tenth row (same row count, other data and statistics).
fn relation(bump: bool) -> Relation {
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
    let rows: Vec<Vec<Value>> = (0..240i64)
        .map(|i| {
            let a = if bump && i % 10 == 0 { (i + 1) % 7 } else { i % 7 };
            vec![
                Value::Int(i),
                Value::Int(a),
                Value::Int(i % 5),
                Value::Int(i % 3),
                Value::str(format!("d{}", i % 4)),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// SSDL bodies (everything inside `source NAME { … }`), covering
/// conjunctive forms, export limits, value lists, disjunctive forms and a
/// download.
const BODIES: &[&str] = &[
    "f1 -> a = $int ;\n\
     f2 -> a = $int ^ b = $int ;\n\
     attributes :: f1 : { k, a, b } ;\n\
     attributes :: f2 : { k, a, b, c } ;",
    "f1 -> b = $int ^ c = $int ;\n\
     f2 -> d = $str ;\n\
     attributes :: f1 : { k, a, b, c } ;\n\
     attributes :: f2 : { k, a, d } ;",
    "f1 -> dlist ;\n\
     dlist -> d = $str | d = $str _ dlist ;\n\
     f2 -> a = $int _ a = $int ;\n\
     attributes :: f1 : { k, a, b, d } ;\n\
     attributes :: f2 : { k, a } ;",
    "f1 -> true ;\n\
     attributes :: f1 : { k, a, b, c, d } ;",
];

fn source(name: &str, body: &str, cost: CostParams, bump: bool) -> Arc<Source> {
    let desc = parse_ssdl(&format!("source {name} {{\n{body}\n}}")).unwrap();
    Arc::new(Source::new(relation(bump), desc, cost))
}

fn cost(shape: usize) -> CostParams {
    CostParams::new(20.0 + 15.0 * shape as f64, 1.0)
}

/// Exact mirror pairs laid out like a real fleet: `m{j}` and `m{j+n}` share
/// body `j`, data and constants, so twins are never adjacent.
fn mirror_pool() -> Federation {
    let n = BODIES.len();
    (0..2 * n).fold(Federation::new(), |f, i| {
        f.with_member(source(&format!("m{i}"), BODIES[i % n], cost(i % n), false))
    })
}

/// Near misses: each body once as-is, then three siblings that differ in
/// one planning input each — another `k1`, other data (same row count),
/// one export dropped from the first form.
fn near_miss_pool() -> Federation {
    let mut f = Federation::new();
    for (j, body) in BODIES.iter().enumerate() {
        let base = cost(j);
        let fewer = drop_one_export(body);
        f = f
            .with_member(source(&format!("base{j}"), body, base, false))
            .with_member(source(
                &format!("k1_{j}"),
                body,
                CostParams::new(base.k1 + 5.0, base.k2),
                false,
            ))
            .with_member(source(&format!("data{j}"), body, base, true))
            .with_member(source(&format!("fewer{j}"), &fewer, base, false));
    }
    f
}

/// The body with the first export list's last attribute removed.
fn drop_one_export(body: &str) -> String {
    let at = body.find(" } ;").expect("an export list");
    let cut = body[..at].rfind(", ").expect("at least two exports");
    format!("{}{}", &body[..cut], &body[at..])
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

/// Every estimator: each reads its own input from a source, so each
/// groups the near-miss pool differently.
const CARD_KINDS: [CardKind; 3] =
    [CardKind::Stats, CardKind::Uniform { atom_selectivity: 0.2 }, CardKind::Oracle];

fn rendered(p: &PlannedQuery) -> (String, f64, Vec<(String, f64)>) {
    let alts = p.alternatives.iter().map(|a| (a.plan.to_string(), a.est_cost)).collect();
    (p.plan.to_string(), p.est_cost, alts)
}

/// The federation's decision equals planning each member alone and
/// reducing "cheapest, earliest on ties"; its answer equals the oracle.
fn shared_planning_matches_solo(
    fed: &Federation,
    card: CardKind,
    query: &TargetQuery,
) -> Result<(), TestCaseError> {
    let solo: Vec<Result<PlannedQuery, PlanError>> = fed
        .members()
        .iter()
        .map(|m| Mediator::new(m.clone()).with_cardinality(card).plan(query))
        .collect();
    let mut best: Option<usize> = None;
    for (i, r) in solo.iter().enumerate() {
        if let Ok(p) = r {
            if best.is_none_or(|b| p.est_cost < solo[b].as_ref().unwrap().est_cost) {
                best = Some(i);
            }
        }
    }
    match (fed.plan(query), best) {
        (Ok(fp), Some(b)) => {
            prop_assert_eq!(&fp.source.name, &fed.members()[b].name);
            prop_assert_eq!(rendered(&fp.planned), rendered(solo[b].as_ref().unwrap()));
            prop_assert_eq!(fp.considered.len(), solo.len());
            for ((name, got), (m, want)) in
                fp.considered.iter().zip(fed.members().iter().zip(&solo))
            {
                prop_assert_eq!(name, &m.name);
                match (got, want) {
                    (Ok(c), Ok(p)) => prop_assert_eq!(*c, p.est_cost, "member {}", name),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "member {} feasibility differs for {}", name, query),
                }
            }
            let (_, out) = fed.run(query).expect("plannable query runs");
            let attr_refs: Vec<&str> = query.attrs.iter().map(String::as_str).collect();
            let want =
                project(&select(fp.source.relation(), Some(&query.cond)), &attr_refs).unwrap();
            prop_assert_eq!(out.rows, want);
        }
        (Err(_), None) => {}
        (got, want) => prop_assert!(
            false,
            "feasibility differs for {}: federation {:?}, solo winner {:?}",
            query,
            got.map(|p| p.source.name.clone()),
            want
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mirror_pool_plans_like_solo_members(
        seed in 0u64..10_000,
        n_atoms in 1usize..5,
        mask in 0u8..32,
        index_on in 0u8..2,
    ) {
        let query = TargetQuery::new(random_condition(seed, n_atoms), attrs(requested(mask)));
        for card in CARD_KINDS {
            let fed = mirror_pool().with_cardinality(card).with_capability_index(index_on == 1);
            shared_planning_matches_solo(&fed, card, &query)?;
        }
    }

    #[test]
    fn near_miss_pool_plans_like_solo_members(
        seed in 0u64..10_000,
        n_atoms in 1usize..5,
        mask in 0u8..32,
        index_on in 0u8..2,
    ) {
        let query = TargetQuery::new(random_condition(seed, n_atoms), attrs(requested(mask)));
        for card in CARD_KINDS {
            let fed = near_miss_pool().with_cardinality(card).with_capability_index(index_on == 1);
            shared_planning_matches_solo(&fed, card, &query)?;
        }
    }
}

/// A query the `a`-form body and the download body answer.
fn answerable_query() -> TargetQuery {
    TargetQuery::new(csqp_expr::parse::parse_condition("a = 3").unwrap(), attrs(["k", "a"]))
}

#[test]
fn mirror_pairs_form_classes_and_share_plans() {
    let n = BODIES.len();
    let fed = mirror_pool();
    let classes = fed.planning_classes();
    let want: Vec<usize> = (0..2 * n).map(|i| i % n).collect();
    assert_eq!(classes, &want[..], "m{{j}} and m{{j+n}} share a class");

    // Index off: every member is a candidate, so each twin is counted.
    let recorder = Arc::new(csqp_obs::FlightRecorder::new());
    let fed = mirror_pool().with_flight_recorder(recorder).with_capability_index(false);
    let fp = fed.plan(&answerable_query()).unwrap();
    let feasible = fp.considered.iter().filter(|(_, r)| r.is_ok()).count();
    assert!(feasible >= 2 * 2, "several twins can answer: {:?}", fp.considered);
    if fed.obs().enabled() {
        let snap = fed.metrics_snapshot();
        assert_eq!(snap.counter(names::FEDERATION_PLANS_SHARED), n as u64, "{}", snap.to_json());
        let why = fed.explain_why();
        assert!(why.contains(&format!("member m{n}: plan shared with m0")), "{why}");
    }
}

#[test]
fn near_misses_never_share() {
    for card in [CardKind::Stats, CardKind::Oracle] {
        let fed = near_miss_pool().with_cardinality(card);
        let classes = fed.planning_classes();
        assert!(classes.iter().enumerate().all(|(i, &c)| c == i), "{card:?}: {classes:?}");
        fed.plan(&answerable_query()).unwrap();
        assert_eq!(fed.metrics_snapshot().counter(names::FEDERATION_PLANS_SHARED), 0);
    }
}

/// The fixed-selectivity estimator reads only the row count, so the sibling
/// over other data (same row count) joins its base's class there — and
/// still plans exactly like it.
#[test]
fn classes_follow_the_estimator() {
    let card = CardKind::Uniform { atom_selectivity: 0.2 };
    let fed = near_miss_pool().with_cardinality(card);
    let classes = fed.planning_classes();
    for j in 0..BODIES.len() {
        let (base, data) = (4 * j, 4 * j + 2);
        assert_eq!(classes[data], base, "data{j} plans like base{j} under Uniform");
        assert_eq!(classes[base + 1], base + 1, "another k1 never shares");
        assert_eq!(classes[base + 3], base + 3, "fewer exports never share");
    }
    let q = answerable_query();
    let solo = |i: usize| {
        rendered(&Mediator::new(fed.members()[i].clone()).with_cardinality(card).plan(&q).unwrap())
    };
    assert_eq!(solo(0), solo(2));
}

#[test]
fn membership_and_estimator_changes_rebuild_the_classes() {
    let fed = near_miss_pool();
    assert_eq!(fed.planning_classes()[2], 2, "data0 has a class of its own under Stats");
    let fed = fed.with_cardinality(CardKind::Uniform { atom_selectivity: 0.2 });
    assert_eq!(fed.planning_classes()[2], 0, "and joins base0's under Uniform");
    let fed = fed.with_member(source("late", BODIES[1], cost(1), false));
    assert_eq!(*fed.planning_classes().last().unwrap(), 4, "a late twin joins base1's class");
}
