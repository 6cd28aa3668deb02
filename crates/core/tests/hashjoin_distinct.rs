//! Non-constant-space query operators (§4.1's noted extension): the
//! `qhashjoin` strategy under the realistic join-cost mode, and streaming
//! duplicate elimination.

use proptest::prelude::*;
use relic_core::{RelRead, SynthRelation};
use relic_decomp::{parse, Decomposition};
use relic_query::JoinCostMode;
use relic_spec::{Catalog, ColSet, RelSpec, Relation, Tuple, Value};

/// The paper's scheduler decomposition (Fig. 2a): a two-path join whose
/// right side cannot be looked up without `state`.
fn scheduler() -> (Catalog, RelSpec, Decomposition) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
    )
    .unwrap();
    let spec = RelSpec::new(cat.all()).with_fd(
        cat.col("ns").unwrap() | cat.col("pid").unwrap(),
        cat.col("state").unwrap() | cat.col("cpu").unwrap(),
    );
    (cat, spec, d)
}

fn populate(cat: &Catalog, r: &mut SynthRelation, m: &mut Relation, n: i64) {
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    for i in 0..n {
        let t = Tuple::from_pairs([
            (ns, Value::from(i % 8)),
            (pid, Value::from(i)),
            (state, Value::from(if i % 3 == 0 { "R" } else { "S" })),
            (cpu, Value::from(i % 5)),
        ]);
        r.insert(t.clone()).unwrap();
        m.insert(t);
    }
}

#[test]
fn optimistic_mode_never_chooses_hashjoin() {
    // The default (paper) cost model charges a hash join strictly more than
    // the nested join, so the paper's constant-space plans are preserved.
    let (cat, spec, d) = scheduler();
    let r = SynthRelation::new(&cat, spec, d).unwrap();
    let ns = cat.col("ns").unwrap();
    let state = cat.col("state").unwrap();
    for avail in [ColSet::EMPTY, ns.set(), state.set(), ns | state] {
        let plan = r.plan_for(avail, cat.all()).unwrap();
        assert!(!plan.contains("qhashjoin"), "{avail:?}: {plan}");
    }
}

/// A "two-panel" decomposition: the relation ⟨id, a, b⟩ (id → a, b) split
/// into an a-keyed panel and a b-keyed panel, each holding only its own
/// attribute. Neither side alone answers a full-row query, and neither
/// side's lookup key is bound by scanning the other — the worst case for
/// nested join execution.
fn two_panel() -> (Catalog, RelSpec, Decomposition) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let wl : {a,id} . {} = unit {} in
         let wr : {b,id} . {} = unit {} in
         let l : {a} . {id} = {id} -[htable]-> wl in
         let r : {b} . {id} = {id} -[htable]-> wr in
         let x : {} . {id,a,b} = ({a} -[htable]-> l) join ({b} -[htable]-> r) in x",
    )
    .unwrap();
    let id = cat.col("id").unwrap();
    let a = cat.col("a").unwrap();
    let b = cat.col("b").unwrap();
    let spec = RelSpec::new(id | a | b).with_fd(id.set(), a | b);
    (cat, spec, d)
}

fn populate_panels(cat: &Catalog, r: &mut SynthRelation, m: &mut Relation, n: i64) {
    let id = cat.col("id").unwrap();
    let a = cat.col("a").unwrap();
    let b = cat.col("b").unwrap();
    for i in 0..n {
        let t = Tuple::from_pairs([
            (id, Value::from(i)),
            (a, Value::from(i % 8)),
            (b, Value::from(i % 10)),
        ]);
        r.insert(t.clone()).unwrap();
        m.insert(t);
    }
}

#[test]
fn realistic_mode_chooses_hashjoin_for_full_enumeration() {
    // Enumerating all (id, a, b) rows needs both panels; nested execution
    // re-scans one panel per outer tuple, so the hash join wins once joins
    // are charged realistically.
    let (cat, spec, d) = two_panel();
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    let mut m = Relation::empty(cat.all());
    populate_panels(&cat, &mut r, &mut m, 100);
    r.set_cost_model(r.observed_cost_model());
    let nested_plan = r.plan_for(ColSet::EMPTY, cat.all()).unwrap();
    assert!(nested_plan.contains("qjoin"), "{nested_plan}");
    r.set_join_cost_mode(JoinCostMode::Realistic);
    let plan = r.plan_for(ColSet::EMPTY, cat.all()).unwrap();
    assert!(plan.contains("qhashjoin"), "{plan}");
    // And the results are exactly the relation.
    let got = r.query(&Tuple::empty(), cat.all()).unwrap();
    let want = m.query(&Tuple::empty(), cat.all());
    assert_eq!(got, want);
}

#[test]
fn realistic_mode_keeps_lookups_for_point_queries() {
    // A point query has a cheap nested plan (lookups only); materializing a
    // hash index would be a loss and the planner must not pick it.
    let (cat, spec, d) = scheduler();
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    let mut m = Relation::empty(cat.all());
    populate(&cat, &mut r, &mut m, 100);
    r.set_join_cost_mode(JoinCostMode::Realistic);
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let cpu = cat.col("cpu").unwrap();
    let plan = r.plan_for(ns | pid, cpu.set()).unwrap();
    assert_eq!(plan, "qlr(qlookup(qlookup(qunit)), left)");
}

#[test]
fn hashjoin_results_agree_with_nested_join() {
    let (cat, spec, d) = two_panel();
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    let mut m = Relation::empty(cat.all());
    populate_panels(&cat, &mut r, &mut m, 60);
    let nested = r.query(&Tuple::empty(), cat.all()).unwrap();
    r.set_cost_model(r.observed_cost_model());
    r.set_join_cost_mode(JoinCostMode::Realistic);
    assert!(r
        .plan_for(ColSet::EMPTY, cat.all())
        .unwrap()
        .contains("qhashjoin"));
    let hashed = r.query(&Tuple::empty(), cat.all()).unwrap();
    assert_eq!(nested, hashed);
    // Pattern queries agree too.
    let a = cat.col("a").unwrap();
    let pat = Tuple::from_pairs([(a, Value::from(3))]);
    let got = r.query(&pat, cat.all()).unwrap();
    let want = m.query(&pat, cat.all());
    assert_eq!(got, want);
}

#[test]
fn constant_space_flag_distinguishes_plans() {
    use relic_query::{Plan, Side};
    let nested = Plan::join(
        Side::Left,
        Plan::scan(Plan::scan(Plan::Unit)),
        Plan::lookup(Plan::lookup(Plan::Unit)),
    );
    assert!(nested.is_constant_space());
    let hashed = Plan::hash_join(
        Side::Left,
        Plan::scan(Plan::scan(Plan::Unit)),
        Plan::scan(Plan::scan(Plan::Unit)),
    );
    assert!(!hashed.is_constant_space());
    assert_eq!(
        hashed.to_string(),
        "qhashjoin(qscan(qscan(qunit)), qscan(qscan(qunit)), left)"
    );
}

#[test]
fn distinct_streams_each_projection_once() {
    let (cat, spec, d) = scheduler();
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    let mut m = Relation::empty(cat.all());
    populate(&cat, &mut r, &mut m, 40);
    let state = cat.col("state").unwrap();
    // Projecting everything onto {state} yields exactly two distinct rows.
    let seen = r.query(&Tuple::empty(), state.set()).unwrap();
    assert_eq!(seen.len(), 2, "{seen:?}");
    assert_eq!(seen, m.query(&Tuple::empty(), state.set()));
    // The plain streaming variant delivers duplicates (one per tuple).
    let mut dups = 0usize;
    r.query_for_each(&Tuple::empty(), state.set(), |_| dups += 1)
        .unwrap();
    assert_eq!(dups, 40);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hash-joined and nested execution agree with the reference under
    /// random contents, patterns, and projections.
    #[test]
    fn hashjoin_matches_reference(
        rows in proptest::collection::vec((0i64..6, 0i64..30, any::<bool>(), 0i64..4), 0..60),
        pat_ns in proptest::option::of(0i64..6),
        out_sel in 0u8..3,
    ) {
        let (cat, spec, d) = scheduler();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let state = cat.col("state").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let mut r = SynthRelation::new(&cat, spec, d).unwrap();
        let mut m = Relation::empty(cat.all());
        for (a, b, s, c) in rows {
            let t = Tuple::from_pairs([
                (ns, Value::from(a)),
                (pid, Value::from(b)),
                (state, Value::from(if s { "R" } else { "S" })),
                (cpu, Value::from(c)),
            ]);
            if r.insert(t.clone()).is_ok() {
                m.insert(t);
            }
        }
        r.set_join_cost_mode(JoinCostMode::Realistic);
        let pat = match pat_ns {
            Some(a) => Tuple::from_pairs([(ns, Value::from(a))]),
            None => Tuple::empty(),
        };
        let out = match out_sel {
            0 => cat.all(),
            1 => ns | pid,
            _ => state | cpu,
        };
        prop_assert_eq!(r.query(&pat, out).unwrap(), m.query(&pat, out));
    }
}
