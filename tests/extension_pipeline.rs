//! End-to-end pipeline test for the paper-named extensions: enumerate
//! decompositions for an event-log relation, rank them under a range-heavy
//! workload signature with the comparison-aware planner, execute
//! `query_where`/`remove_where` on the winner, and compile a range method
//! for it with `relic-codegen`.

use relic_codegen::{generate, ColType, OpSet, Request};
use relic_core::{RelRead, SynthRelation};
use relic_decomp::{enumerate_decompositions, DsKind, EnumerateOptions};
use relic_query::{CostModel, Planner};
use relic_spec::{Catalog, ColSet, Pattern, Pred, RelSpec, Relation, Tuple, Value};

fn event_spec() -> (Catalog, RelSpec) {
    let mut cat = Catalog::new();
    let host = cat.intern("host");
    let ts = cat.intern("ts");
    let bytes = cat.intern("bytes");
    let spec = RelSpec::new(host | ts | bytes).with_fd(host | ts, bytes.into());
    (cat, spec)
}

#[test]
fn enumerated_candidates_ranked_for_range_workload() {
    let (cat, spec) = event_spec();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let bytes = cat.col("bytes").unwrap();
    // Enumerate with an ordered structure in the palette.
    let opts = EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::HashTable, DsKind::AvlTree],
        ..Default::default()
    };
    let candidates = enumerate_decompositions(&spec, &opts);
    assert!(!candidates.is_empty());
    // Rank statically by the cost of the windowed query
    // ⟨host =, ts between⟩ → {bytes}.
    let mut ranked: Vec<(f64, usize)> = Vec::new();
    for (i, d) in candidates.iter().enumerate() {
        let planner = Planner::new(d, &spec, CostModel::uniform(d, 64.0));
        if let Ok(p) = planner.plan_query_where(host.set(), ts.set(), ColSet::EMPTY, bytes.set()) {
            ranked.push((p.cost, i));
        }
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert!(!ranked.is_empty(), "every adequate candidate must plan");
    // The winner must actually seek: its plan contains qrange.
    let best = &candidates[ranked[0].1];
    let planner = Planner::new(best, &spec, CostModel::uniform(best, 64.0));
    let plan = planner
        .plan_query_where(host.set(), ts.set(), ColSet::EMPTY, bytes.set())
        .unwrap();
    assert!(plan.plan.to_string().contains("qrange"), "{}", plan.plan);

    // Execute the workload on the winner and cross-check the reference.
    let mut r = SynthRelation::new(&cat, spec.clone(), best.clone()).unwrap();
    let mut m = Relation::empty(cat.all());
    for h in 0..4i64 {
        for t in 0..30i64 {
            let tup = Tuple::from_pairs([
                (host, Value::from(h)),
                (ts, Value::from(t)),
                (bytes, Value::from((h * 3 + t) % 7)),
            ]);
            r.insert(tup.clone()).unwrap();
            m.insert(tup);
        }
    }
    let window = Pattern::new()
        .with(host, Pred::Eq(Value::from(2)))
        .with(ts, Pred::Between(Value::from(10), Value::from(19)));
    assert_eq!(
        r.query_where(&window, ts | bytes).unwrap(),
        m.query_where(&window, ts | bytes)
    );
    let stale = Pattern::new().with(ts, Pred::Lt(Value::from(5)));
    assert_eq!(r.remove_where(&stale).unwrap(), m.remove_where(&stale));
    assert_eq!(r.to_relation(), m);
    r.validate().unwrap();

    // And the compiler accepts the same decomposition + range signature —
    // the generated module seeks iff the layout is ordered.
    let code = generate(&Request {
        module_name: "eventlog".into(),
        cat: &cat,
        spec: &spec,
        decomposition: best,
        types: vec![ColType::I64, ColType::I64, ColType::I64],
        ops: OpSet::new().query_range(host.into(), ts, bytes.into()),
    })
    .expect("range codegen succeeds");
    assert!(code.contains("query_host_ts_between_to_bytes"), "{code}");
    assert!(code.contains(".range("), "{code}");
}

#[test]
fn scan_only_candidates_still_answer_range_queries() {
    // With a hash-only palette no candidate can seek, but every one still
    // answers comparison queries correctly via scan-and-filter.
    let (cat, spec) = event_spec();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let opts = EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::HashTable],
        ..Default::default()
    };
    let candidates = enumerate_decompositions(&spec, &opts);
    let window = Pattern::new().with(ts, Pred::Ge(Value::from(20)));
    for (i, d) in candidates.iter().enumerate().take(12) {
        let mut r = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
        let mut m = Relation::empty(cat.all());
        for h in 0..3i64 {
            for t in 0..25i64 {
                let tup = Tuple::from_pairs([
                    (host, Value::from(h)),
                    (ts, Value::from(t)),
                    (cat.col("bytes").unwrap(), Value::from(t)),
                ]);
                r.insert(tup.clone()).unwrap();
                m.insert(tup);
            }
        }
        let plan = r.plan_for_where(&window, cat.all()).unwrap();
        assert!(!plan.contains("qrange"), "candidate {i}: {plan}");
        assert_eq!(
            r.query_where(&window, cat.all()).unwrap(),
            m.query_where(&window, cat.all()),
            "candidate {i}"
        );
    }
}
