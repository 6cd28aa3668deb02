//! Comparison/range queries (`query_where`, §2's "comparisons other than
//! equality" extension): plan selection, ordered-seek vs scan-and-filter
//! fallback, and agreement with the reference implementation.

use proptest::prelude::*;
use relic_core::{RelRead, SynthRelation};
use relic_decomp::{parse, Decomposition};
use relic_spec::{Catalog, ColSet, Pattern, Pred, RelSpec, Relation, Tuple, Value};

/// An event-log relation ⟨host, ts, bytes⟩ with host,ts → bytes, in four
/// representations: time-indexed per host (ordered inner edge), flat ordered
/// composite, hash-only (no ordered edge anywhere), and a shared join.
fn event_log() -> (Catalog, RelSpec, Vec<Decomposition>) {
    let mut cat = Catalog::new();
    let sources = [
        // 0: host -> avl(ts) -> unit — the intended shape for time ranges.
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
        // 1: flat sortedvec keyed by the composite {host,ts}.
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let x : {} . {host,ts,bytes} = {host,ts} -[sortedvec]-> u in x",
        // 2: hash tables only — ranges must degrade to scan-and-filter.
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[htable]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
        // 3: join sharing the leaf: by-host (ordered in ts) and by-ts paths.
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let t : {ts} . {host,bytes} = {host} -[htable]-> u in
         let x : {} . {host,ts,bytes} =
           ({host} -[htable]-> h) join ({ts} -[avl]-> t) in x",
    ];
    let ds: Vec<Decomposition> = sources
        .iter()
        .map(|s| parse(&mut cat, s).unwrap())
        .collect();
    let spec = RelSpec::new(cat.all()).with_fd(
        cat.col("host").unwrap() | cat.col("ts").unwrap(),
        cat.col("bytes").unwrap().set(),
    );
    (cat, spec, ds)
}

fn tup(cat: &Catalog, host: i64, ts: i64, bytes: i64) -> Tuple {
    Tuple::from_pairs([
        (cat.col("host").unwrap(), Value::from(host)),
        (cat.col("ts").unwrap(), Value::from(ts)),
        (cat.col("bytes").unwrap(), Value::from(bytes)),
    ])
}

fn populate(cat: &Catalog, r: &mut SynthRelation, m: &mut Relation) {
    for host in 0..4i64 {
        for ts in 0..20i64 {
            let t = tup(cat, host, ts, (host * 7 + ts * 3) % 11);
            r.insert(t.clone()).unwrap();
            m.insert(t);
        }
    }
}

#[test]
fn planner_chooses_qrange_on_ordered_edges() {
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let bytes = cat.col("bytes").unwrap();
    let r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    let p = Pattern::new()
        .with(host, Pred::Eq(Value::from(1)))
        .with(ts, Pred::Between(Value::from(5), Value::from(9)));
    let plan = r.plan_for_where(&p, bytes.set()).unwrap();
    assert_eq!(
        plan, "qlookup(qrange(qunit))",
        "time index should be seeked"
    );
}

#[test]
fn planner_falls_back_to_scan_on_hash_edges() {
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let bytes = cat.col("bytes").unwrap();
    let r = SynthRelation::new(&cat, spec, ds[2].clone()).unwrap();
    let p = Pattern::new()
        .with(host, Pred::Eq(Value::from(1)))
        .with(ts, Pred::Between(Value::from(5), Value::from(9)));
    let plan = r.plan_for_where(&p, bytes.set()).unwrap();
    assert_eq!(plan, "qlookup(qscan(qunit))", "hash edge cannot seek");
}

#[test]
fn composite_key_range_uses_prefix_rule() {
    // Decomposition 1 keys a sortedvec by {host,ts}; with host pinned the
    // final coordinate ts is rangeable.
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let bytes = cat.col("bytes").unwrap();
    let r = SynthRelation::new(&cat, spec, ds[1].clone()).unwrap();
    let p = Pattern::new()
        .with(host, Pred::Eq(Value::from(2)))
        .with(ts, Pred::Ge(Value::from(15)));
    assert_eq!(r.plan_for_where(&p, bytes.set()).unwrap(), "qrange(qunit)");
    // Without the host prefix bound, the composite key cannot seek.
    let p = Pattern::new().with(ts, Pred::Ge(Value::from(15)));
    assert_eq!(r.plan_for_where(&p, bytes.set()).unwrap(), "qscan(qunit)");
}

#[test]
fn range_results_match_reference_on_all_decompositions() {
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let bytes = cat.col("bytes").unwrap();
    for (i, d) in ds.iter().enumerate() {
        let mut r = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
        let mut m = Relation::empty(cat.all());
        populate(&cat, &mut r, &mut m);
        let patterns = [
            Pattern::new()
                .with(host, Pred::Eq(Value::from(1)))
                .with(ts, Pred::Between(Value::from(5), Value::from(9))),
            Pattern::new().with(ts, Pred::Lt(Value::from(3))),
            Pattern::new().with(ts, Pred::Ge(Value::from(18))),
            Pattern::new()
                .with(host, Pred::Ne(Value::from(0)))
                .with(ts, Pred::Le(Value::from(1))),
            Pattern::new().with(bytes, Pred::Gt(Value::from(8))),
            Pattern::new()
                .with(host, Pred::Eq(Value::from(2)))
                .with(ts, Pred::Between(Value::from(9), Value::from(5))), // empty
        ];
        for (j, p) in patterns.iter().enumerate() {
            for out in [cat.all(), ts | bytes, host.set(), ColSet::EMPTY] {
                let got = r.query_where(p, out).unwrap();
                let want = m.query_where(p, out);
                assert_eq!(got, want, "decomposition {i}, pattern {j}, out {out:?}");
            }
        }
    }
}

#[test]
fn all_equality_pattern_agrees_with_plain_query() {
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    let bytes = cat.col("bytes").unwrap();
    let mut r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    let mut m = Relation::empty(cat.all());
    populate(&cat, &mut r, &mut m);
    let t = Tuple::from_pairs([(host, Value::from(1)), (ts, Value::from(7))]);
    let p = Pattern::from_tuple(&t);
    assert_eq!(
        r.query_where(&p, bytes.set()).unwrap(),
        r.query(&t, bytes.set()).unwrap()
    );
}

#[test]
fn foreign_columns_rejected() {
    let (cat, spec, ds) = event_log();
    let mut cat2 = cat.clone();
    let alien = cat2.intern("alien");
    let r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    let p = Pattern::new().with(alien, Pred::Lt(Value::from(0)));
    assert!(r.query_where(&p, ColSet::EMPTY).is_err());
}

#[test]
fn remove_where_evicts_old_entries() {
    // The thttpd idiom: drop everything older than a threshold.
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let ts = cat.col("ts").unwrap();
    for (i, d) in ds.iter().enumerate() {
        let mut r = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
        let mut m = Relation::empty(cat.all());
        populate(&cat, &mut r, &mut m);
        let stale = Pattern::new().with(ts, Pred::Lt(Value::from(15)));
        let got = r.remove_where(&stale).unwrap();
        let want = m.remove_where(&stale);
        assert_eq!(got, want, "decomposition {i}");
        assert_eq!(got, 4 * 15);
        assert_eq!(r.to_relation(), m, "decomposition {i}");
        r.validate()
            .unwrap_or_else(|e| panic!("decomposition {i}: {e}"));
        // Removing again is a no-op.
        assert_eq!(r.remove_where(&stale).unwrap(), 0);
        // A pattern combining equality and comparison.
        let one_host = Pattern::new()
            .with(host, Pred::Eq(Value::from(2)))
            .with(ts, Pred::Ge(Value::from(18)));
        let got = r.remove_where(&one_host).unwrap();
        let want = m.remove_where(&one_host);
        assert_eq!(got, want, "decomposition {i}");
        assert_eq!(r.to_relation(), m, "decomposition {i}");
        r.validate()
            .unwrap_or_else(|e| panic!("decomposition {i}: {e}"));
    }
}

#[test]
fn remove_where_all_equality_matches_remove() {
    let (cat, spec, ds) = event_log();
    let host = cat.col("host").unwrap();
    let mut r1 = SynthRelation::new(&cat, spec.clone(), ds[0].clone()).unwrap();
    let mut r2 = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    let mut m = Relation::empty(cat.all());
    populate(&cat, &mut r1, &mut m);
    let mut m2 = Relation::empty(cat.all());
    populate(&cat, &mut r2, &mut m2);
    let t = Tuple::from_pairs([(host, Value::from(1))]);
    let n1 = r1.remove(&t).unwrap();
    let n2 = r2.remove_where(&Pattern::from_tuple(&t)).unwrap();
    assert_eq!(n1, n2);
    assert_eq!(r1.to_relation(), r2.to_relation());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// remove_where ≡ reference removal under random contents and patterns,
    /// and the instance stays well-formed.
    #[test]
    fn remove_where_matches_reference(
        rows in proptest::collection::vec((0i64..5, 0i64..25, 0i64..8), 0..60),
        kind in 0u8..6,
        a in 0i64..25,
        b in 0i64..25,
        eq_host in proptest::option::of(0i64..5),
        which in 0usize..4,
    ) {
        let (cat, spec, ds) = event_log();
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let mut r = SynthRelation::new(&cat, spec, ds[which].clone()).unwrap();
        let mut m = Relation::empty(cat.all());
        for (h, t, by) in rows {
            let tup = tup(&cat, h, t, by);
            if r.insert(tup.clone()).is_ok() {
                m.insert(tup);
            }
        }
        let mut p = Pattern::new();
        if let Some(h) = eq_host {
            p = p.with(host, Pred::Eq(Value::from(h)));
        }
        p = match kind {
            0 => p.with(ts, Pred::Lt(Value::from(a))),
            1 => p.with(ts, Pred::Le(Value::from(a))),
            2 => p.with(ts, Pred::Gt(Value::from(a))),
            3 => p.with(ts, Pred::Ge(Value::from(a))),
            4 => p.with(ts, Pred::Between(Value::from(a.min(b)), Value::from(a.max(b)))),
            _ => p.with(ts, Pred::Ne(Value::from(a))),
        };
        let got = r.remove_where(&p).unwrap();
        let want = m.remove_where(&p);
        prop_assert_eq!(got, want);
        prop_assert_eq!(r.to_relation(), m);
        r.validate().map_err(TestCaseError::fail)?;
    }

    /// query_where ≡ reference across random contents and random patterns,
    /// on every representation (ordered, composite, hash-only, shared join).
    #[test]
    fn query_where_matches_reference(
        rows in proptest::collection::vec((0i64..5, 0i64..25, 0i64..8), 0..80),
        eq_host in proptest::option::of(0i64..5),
        kind in 0u8..6,
        a in 0i64..25,
        b in 0i64..25,
        which in 0usize..4,
        out_sel in 0u8..3,
    ) {
        let (cat, spec, ds) = event_log();
        let host = cat.col("host").unwrap();
        let ts = cat.col("ts").unwrap();
        let bytes = cat.col("bytes").unwrap();
        let mut r = SynthRelation::new(&cat, spec, ds[which].clone()).unwrap();
        let mut m = Relation::empty(cat.all());
        for (h, t, by) in rows {
            let tup = tup(&cat, h, t, by);
            // Keep FDs satisfied: skip conflicting inserts.
            if r.insert(tup.clone()).is_ok() {
                m.insert(tup);
            }
        }
        let mut p = Pattern::new();
        if let Some(h) = eq_host {
            p = p.with(host, Pred::Eq(Value::from(h)));
        }
        p = match kind {
            0 => p.with(ts, Pred::Lt(Value::from(a))),
            1 => p.with(ts, Pred::Le(Value::from(a))),
            2 => p.with(ts, Pred::Gt(Value::from(a))),
            3 => p.with(ts, Pred::Ge(Value::from(a))),
            4 => p.with(ts, Pred::Between(Value::from(a.min(b)), Value::from(a.max(b)))),
            _ => p.with(ts, Pred::Ne(Value::from(a))),
        };
        let out = match out_sel {
            0 => cat.all(),
            1 => ts | bytes,
            _ => host.set(),
        };
        let got = r.query_where(&p, out).unwrap();
        let want = m.query_where(&p, out);
        prop_assert_eq!(got, want);
    }
}
