//! Soundness of the scratch-accumulator executor: the zero-allocation
//! binding path (`query_for_each_bindings`) must emit exactly the same tuple
//! sets as the collecting `query` path and as the reference [`Relation`]
//! model, across the Fig. 4 process-scheduler decompositions (the paper's
//! running example, covering shared join nodes, intrusive lists, and every
//! container kind).

use proptest::prelude::*;
use relic_core::{Bindings, RelRead, SynthRelation};
use relic_decomp::{parse, Decomposition};
use relic_spec::{Catalog, ColSet, RelSpec, Relation, Tuple, Value};
use std::collections::BTreeSet;

/// The Fig. 4 scheduler decompositions: the paper's Fig. 2(a) shape with an
/// intrusive z-list, a dlist variant, a hash chain, a flat ordered map, and
/// an unshared join.
fn scheduler_setup() -> (Catalog, RelSpec, Vec<Decomposition>) {
    let mut cat = Catalog::new();
    let sources = [
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[avl]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[sortedvec]-> y) join ({state} -[vec]-> z) in x",
        "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
         let y : {ns} . {pid,state,cpu} = {pid} -[htable]-> w in
         let x : {} . {ns,pid,state,cpu} = {ns} -[htable]-> y in x",
        "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
         let x : {} . {ns,pid,state,cpu} = {ns,pid} -[avl]-> w in x",
        "let l : {ns,pid} . {state,cpu} = unit {state,cpu} in
         let r : {state,ns,pid} . {cpu} = unit {cpu} in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> r in
         let x : {} . {ns,pid,state,cpu} =
           ({ns,pid} -[htable]-> l) join ({state} -[vec]-> z) in x",
    ];
    let ds: Vec<Decomposition> = sources
        .iter()
        .map(|s| parse(&mut cat, s).unwrap())
        .collect();
    let spec = RelSpec::new(cat.all()).with_fd(
        cat.col("ns").unwrap() | cat.col("pid").unwrap(),
        cat.col("state").unwrap() | cat.col("cpu").unwrap(),
    );
    (cat, spec, ds)
}

/// Collects the deduplicated projections the raw binding path emits.
fn raw_query(
    r: &SynthRelation,
    scratch: &mut Bindings,
    pattern: &Tuple,
    out: ColSet,
) -> Vec<Tuple> {
    let mut set: BTreeSet<Tuple> = BTreeSet::new();
    r.query_for_each_bindings(scratch, pattern, out, |b| {
        // The emitted domain must cover the requested projection.
        assert!(
            out.is_subset(b.dom()),
            "binding domain {:?} missing requested columns {:?}",
            b.dom(),
            out
        );
        set.insert(b.project(out));
    })
    .unwrap();
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// For random relations and every query signature over {ns,pid,state}:
    /// raw binding path ≡ collecting path ≡ reference model, on all five
    /// scheduler decompositions.
    #[test]
    fn bindings_path_agrees_with_query_and_model(
        rows in proptest::collection::vec((0i64..4, 0i64..6, any::<bool>(), 0i64..4), 0..40),
        which in 0usize..5,
    ) {
        let (cat, spec, ds) = scheduler_setup();
        let ns = cat.col("ns").unwrap();
        let pid = cat.col("pid").unwrap();
        let state = cat.col("state").unwrap();
        let cpu = cat.col("cpu").unwrap();
        let mut synth = SynthRelation::new(&cat, spec, ds[which].clone()).unwrap();
        let mut model = Relation::empty(cat.all());
        for (a, b, s, c) in rows {
            let t = Tuple::from_pairs([
                (ns, Value::from(a)),
                (pid, Value::from(b)),
                (state, Value::from(if s { "R" } else { "S" })),
                (cpu, Value::from(c)),
            ]);
            if synth.insert(t.clone()).unwrap_or(false) {
                model.insert(t);
            }
        }
        // One scratch reused across every query below: stale bindings from a
        // previous query must never leak into the next.
        let mut scratch = Bindings::new();
        let outs = [ns | pid, state | cpu, cat.all(), ColSet::EMPTY, cpu.into()];
        let patterns = [
            Tuple::empty(),
            Tuple::from_pairs([(ns, Value::from(1))]),
            Tuple::from_pairs([(state, Value::from("R"))]),
            Tuple::from_pairs([(ns, Value::from(2)), (pid, Value::from(3))]),
            Tuple::from_pairs([(ns, Value::from(0)), (pid, Value::from(0)), (state, Value::from("S"))]),
        ];
        for pattern in &patterns {
            for &out in &outs {
                let raw = raw_query(&synth, &mut scratch, pattern, out);
                let collected = synth.query(pattern, out).unwrap();
                prop_assert_eq!(&raw, &collected, "raw vs collecting path diverged");
                let want = model.query(pattern, out);
                prop_assert_eq!(&raw, &want, "raw path vs reference model diverged");
            }
        }
    }
}

/// A relation over a *different* catalog — ⟨id, a, b⟩ with a string-valued
/// `a`, so its column ids alias the scheduler's with other types — split
/// into two panels that only a join can reassemble; under realistic join
/// costs a full enumeration is a `qhashjoin`.
fn two_panel(rows: &[(i64, i64, bool, i64)]) -> (Catalog, SynthRelation) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let wl : {a,id} . {} = unit {} in
         let wr : {b,id} . {} = unit {} in
         let l : {a} . {id} = {id} -[htable]-> wl in
         let r : {b} . {id} = {id} -[avl]-> wr in
         let x : {} . {id,a,b} = ({a} -[htable]-> l) join ({b} -[htable]-> r) in x",
    )
    .unwrap();
    let (id, a, b) = (
        cat.col("id").unwrap(),
        cat.col("a").unwrap(),
        cat.col("b").unwrap(),
    );
    let spec = RelSpec::new(id | a | b).with_fd(id.set(), a | b);
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    for (i, (x, y, s, _)) in rows.iter().enumerate() {
        r.insert(Tuple::from_pairs([
            (id, Value::from(i as i64)),
            (
                a,
                Value::from(format!("{}{x}", if *s { "R" } else { "S" }).as_str()),
            ),
            (b, Value::from(*y)),
        ]))
        .unwrap();
    }
    r.set_cost_model(r.observed_cost_model());
    r.set_join_cost_mode(relic_query::JoinCostMode::Realistic);
    (cat, r)
}

/// Everything one query lets a caller see of `scratch`: per emitted row the
/// domain, the full valuation, the projection and `get` of every column id a
/// slot could exist for; then the same once the query is over.
fn observe(
    r: &SynthRelation,
    scratch: &mut Bindings,
    pattern: &Tuple,
    out: ColSet,
) -> Vec<(ColSet, Tuple, Tuple, Vec<Option<Value>>)> {
    let see = |b: &Bindings| {
        let gets = ColSet::from_bits(0xff).iter().map(|c| b.get(c).cloned());
        (b.dom(), b.to_tuple(), b.project(out), gets.collect())
    };
    let mut seen = Vec::new();
    r.query_for_each_bindings(scratch, pattern, out, |b| seen.push(see(b)))
        .unwrap();
    seen.push(see(scratch));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Unbinding only clears bits, so a reused scratch carries stale values
    /// in its slots — from the previous query, from another relation whose
    /// catalog gives the same column ids other types, from the two sides of
    /// a `qhashjoin`. None of that may show: every query answers, row by row
    /// and in the state it leaves behind, exactly as on a fresh
    /// `Bindings::new()`.
    #[test]
    fn reused_scratch_answers_as_a_fresh_one(
        rows in proptest::collection::vec((0i64..4, 0i64..6, any::<bool>(), 0i64..4), 0..40),
        which in 0usize..5,
    ) {
        let (cat, spec, ds) = scheduler_setup();
        let col = |name| cat.col(name).unwrap();
        let (ns, pid, state, cpu) = (col("ns"), col("pid"), col("state"), col("cpu"));
        let mut sched = SynthRelation::new(&cat, spec, ds[which].clone()).unwrap();
        for &(a, b, s, c) in &rows {
            let _ = sched.insert(Tuple::from_pairs([
                (ns, Value::from(a)),
                (pid, Value::from(b)),
                (state, Value::from(if s { "R" } else { "S" })),
                (cpu, Value::from(c)),
            ]));
        }
        let (pcat, panels) = two_panel(&rows);
        let pcol = |name| pcat.col(name).unwrap();
        let (id, a, b) = (pcol("id"), pcol("a"), pcol("b"));
        if rows.len() > 8 {
            let plan = panels.plan_for(ColSet::EMPTY, pcat.all()).unwrap();
            prop_assert!(plan.contains("qhashjoin"), "{}", plan);
        }
        let sched_queries = [
            (Tuple::empty(), cat.all()),
            (Tuple::from_pairs([(state, Value::from("R"))]), ns | pid),
            (Tuple::from_pairs([(ns, Value::from(2)), (pid, Value::from(3))]), cpu.into()),
            (Tuple::from_pairs([(ns, Value::from(1))]), ColSet::EMPTY),
        ];
        let panel_queries = [
            (Tuple::empty(), pcat.all()),
            (Tuple::from_pairs([(a, Value::from("R1"))]), id.into()),
            (Tuple::from_pairs([(id, Value::from(3))]), a | b),
            (Tuple::from_pairs([(b, Value::from(2))]), ColSet::EMPTY),
        ];
        let mut scratch = Bindings::new();
        for _ in 0..2 {
            for ((sp, so), (pp, po)) in sched_queries.iter().zip(&panel_queries) {
                let got = observe(&sched, &mut scratch, sp, *so);
                prop_assert_eq!(got, observe(&sched, &mut Bindings::new(), sp, *so));
                let got = observe(&panels, &mut scratch, pp, *po);
                prop_assert_eq!(got, observe(&panels, &mut Bindings::new(), pp, *po));
            }
        }
    }
}

/// After a scan whose rows bound string columns, the slots still hold the
/// last strings written; `get`, `dom`, `project` and `to_tuple` must show
/// only what the `bound` set covers.
#[test]
fn unbound_slots_are_invisible() {
    let (cat, spec, ds) = scheduler_setup();
    let col = |name| cat.col(name).unwrap();
    let (ns, pid, state, cpu) = (col("ns"), col("pid"), col("state"), col("cpu"));
    let mut r = SynthRelation::new(&cat, spec.clone(), ds[2].clone()).unwrap();
    for i in 0..12i64 {
        r.insert(Tuple::from_pairs([
            (ns, Value::from(i % 2)),
            (pid, Value::from(i)),
            (state, Value::from(if i % 3 == 0 { "R" } else { "S" })),
            (cpu, Value::from(i)),
        ]))
        .unwrap();
    }
    let mut scratch = Bindings::new();
    let pattern = Tuple::from_pairs([(ns, Value::from(1))]);
    let mut rows = 0;
    r.query_for_each_bindings(&mut scratch, &pattern, cat.all(), |b| {
        assert_eq!(b.dom(), cat.all());
        assert!(b.get(state).unwrap().as_str().is_some());
        rows += 1;
    })
    .unwrap();
    assert_eq!(rows, 6);
    // Only the pattern is left bound.
    assert_eq!(scratch.dom(), ns.set());
    for c in [pid, state, cpu] {
        assert_eq!(scratch.get(c), None);
    }
    assert_eq!(scratch.project(cat.all()), pattern);
    assert_eq!(scratch.to_tuple(), pattern);
    assert_eq!(scratch.project(state | cpu), Tuple::empty());
    // A query over an empty relation leaves nothing bound at all.
    let empty = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    empty
        .query_for_each_bindings(&mut scratch, &Tuple::empty(), cat.all(), |_| {
            panic!("no rows")
        })
        .unwrap();
    assert_eq!(scratch.dom(), ColSet::EMPTY);
    assert_eq!(scratch.to_tuple(), Tuple::empty());
    assert_eq!(scratch.get(ns), None);
    // Another catalog's query that binds only two of its three columns sees
    // no third one, although that slot (the scheduler's `state`) holds "S".
    let (pcat, panels) = two_panel(&[(1, 5, true, 0), (2, 6, false, 0)]);
    let pcol = |name| pcat.col(name).unwrap();
    let (id, a, b) = (pcol("id"), pcol("a"), pcol("b"));
    assert_eq!(b.index(), state.index());
    let mut rows = 0;
    let by_a = Tuple::from_pairs([(a, Value::from("R1"))]);
    panels
        .query_for_each_bindings(&mut scratch, &by_a, id.into(), |row| {
            assert_eq!(row.dom(), id | a);
            assert_eq!(row.get(b), None);
            assert_eq!(
                row.to_tuple(),
                by_a.merge(&Tuple::from_pairs([(id, Value::from(0))]))
            );
            assert_eq!(row.project(pcat.all()).dom(), id | a);
            rows += 1;
        })
        .unwrap();
    assert_eq!(rows, 1);
}

/// The paper's Equation 1 example relation, queried through the raw path on
/// the Fig. 2(a) decomposition — a deterministic end-to-end check of the
/// exact emitted bindings (pattern + scan keys + unit payload).
#[test]
fn fig2_bindings_carry_full_valuations() {
    let (cat, spec, ds) = scheduler_setup();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    let mut r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    for (a, b, s, c) in [(1, 1, "S", 7), (1, 2, "R", 4), (2, 1, "S", 5)] {
        r.insert(Tuple::from_pairs([
            (ns, Value::from(a)),
            (pid, Value::from(b)),
            (state, Value::from(s)),
            (cpu, Value::from(c)),
        ]))
        .unwrap();
    }
    let mut scratch = Bindings::new();
    let mut seen = Vec::new();
    r.query_for_each_bindings(
        &mut scratch,
        &Tuple::from_pairs([(state, Value::from("S"))]),
        ns | pid,
        |b| {
            // Full valuation available: every relation column is bound.
            assert_eq!(b.dom(), cat.all());
            seen.push((
                b.get(ns).unwrap().as_int().unwrap(),
                b.get(pid).unwrap().as_int().unwrap(),
                b.get(cpu).unwrap().as_int().unwrap(),
            ));
        },
    )
    .unwrap();
    seen.sort_unstable();
    assert_eq!(seen, vec![(1, 1, 7), (2, 1, 5)]);
    // After execution the scratch is restored to just-the-pattern state and
    // is reusable for an unrelated query.
    let mut count = 0;
    r.query_for_each_bindings(
        &mut scratch,
        &Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(2))]),
        cpu.into(),
        |b| {
            assert_eq!(b.get(cpu).unwrap().as_int(), Some(4));
            count += 1;
        },
    )
    .unwrap();
    assert_eq!(count, 1);
}

/// Plan-cache regression (the seed double-locked get-then-insert and cloned
/// a plan per operation): the cache memoizes per signature, hands out shared
/// plans, is invalidated by `set_cost_model` and `set_join_cost_mode`, and
/// survives `clear`, which changes neither the decomposition nor the cost
/// model.
#[test]
fn plan_cache_memoizes_and_invalidates() {
    let (cat, spec, ds) = scheduler_setup();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let cpu = cat.col("cpu").unwrap();
    let state = cat.col("state").unwrap();
    let mut r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    let task = |a: i64, b: i64, s: &str, c: i64| {
        Tuple::from_pairs([
            (ns, Value::from(a)),
            (pid, Value::from(b)),
            (state, Value::from(s)),
            (cpu, Value::from(c)),
        ])
    };
    for (a, b, s, c) in [(1, 1, "S", 7), (1, 2, "R", 4)] {
        assert!(r.insert(task(a, b, s, c)).unwrap());
    }
    // A new key misses the insert block's guard: nothing is planned.
    assert_eq!(r.plan_cache_len(), 0, "a guarded insert plans nothing");
    // A duplicate hits it and reads the stored tuple through the key plan.
    assert!(!r.insert(task(1, 1, "S", 7)).unwrap());
    let inserted_plans = r.plan_cache_len();
    assert!(inserted_plans > 0, "insert probes should have planned");
    // Same signature twice: one cache entry.
    let pat = Tuple::from_pairs([(ns, Value::from(1)), (pid, Value::from(1))]);
    r.query(&pat, cpu.into()).unwrap();
    let after_first = r.plan_cache_len();
    r.query(&pat, cpu.into()).unwrap();
    assert_eq!(
        r.plan_cache_len(),
        after_first,
        "warm query must not re-plan"
    );
    // set_cost_model invalidates.
    let observed = r.observed_cost_model();
    r.set_cost_model(observed);
    assert_eq!(r.plan_cache_len(), 0, "set_cost_model must clear the cache");
    r.query(&pat, cpu.into()).unwrap();
    assert!(r.plan_cache_len() > 0);
    // set_join_cost_mode invalidates.
    r.set_join_cost_mode(relic_query::JoinCostMode::Realistic);
    assert_eq!(
        r.plan_cache_len(),
        0,
        "set_join_cost_mode must clear the cache"
    );
    r.query(&pat, cpu.into()).unwrap();
    assert!(r.plan_cache_len() > 0);
    // clear() keeps every memoized plan, and they answer the emptied and
    // refilled relation correctly.
    let warm = r.plan_cache_len();
    r.clear();
    assert_eq!(r.plan_cache_len(), warm, "clear must keep memoized plans");
    assert_eq!(r.query(&pat, cpu.into()).unwrap(), Vec::<Tuple>::new());
    let t = Tuple::from_pairs([
        (ns, Value::from(5)),
        (pid, Value::from(5)),
        (state, Value::from("R")),
        (cpu, Value::from(1)),
    ]);
    r.insert(t.clone()).unwrap();
    assert_eq!(r.query_full(&Tuple::empty()).unwrap(), vec![t]);
    let key = Tuple::from_pairs([(ns, Value::from(5)), (pid, Value::from(5))]);
    assert_eq!(
        r.query(&key, cpu.into()).unwrap(),
        vec![Tuple::from_pairs([(cpu, Value::from(1))])]
    );
    assert_eq!(
        r.query(&Tuple::from_pairs([(state, Value::from("R"))]), ns | pid)
            .unwrap(),
        vec![key]
    );
    assert_eq!(r.query(&pat, cpu.into()).unwrap(), Vec::<Tuple>::new());
    assert!(r.plan_cache_len() >= warm);
    r.validate().unwrap();
}

/// Takes a snapshot, then runs `writes` against the relation and a copy of
/// its α alike. The snapshot must still read the tuples it was taken over —
/// by full scan and by key — while the relation and a fresh snapshot read
/// the new ones.
fn assert_snapshot_stays_frozen(
    r: &mut SynthRelation,
    writes: impl FnOnce(&mut SynthRelation, &mut Relation),
) {
    let (all, key) = (r.spec().cols(), r.spec().minimal_key());
    let before = r.to_relation();
    let snap = r.snapshot();
    let mut model = before.clone();
    writes(r, &mut model);
    assert_ne!(model, before, "the writes must change the relation");
    let fresh = r.snapshot();
    let scan = |rel: &Relation| rel.query(&Tuple::empty(), all);
    for (reader, want) in [(&snap, &before), (&fresh, &model)] {
        assert_eq!(&reader.to_relation(), want);
        assert_eq!(reader.len(), want.len());
        assert_eq!(reader.query_full(&Tuple::empty()).unwrap(), scan(want));
        for t in want.iter() {
            assert_eq!(reader.query_full(&t.project(key)).unwrap(), vec![t.clone()]);
        }
    }
    assert_eq!(r.to_relation(), model);
    assert_eq!(r.query_full(&Tuple::empty()).unwrap(), scan(&model));
    r.validate().unwrap();
}

/// Applies one update to the relation and the model; the key must match.
fn update_both(r: &mut SynthRelation, model: &mut Relation, key: &Tuple, changes: &Tuple) {
    assert!(r.update(key, changes).unwrap());
    model.update(key, changes);
}

/// In-place updates overwrite unit values inside the store, so they must
/// path-copy what a snapshot shares first. On the scheduler's Fig. 2(a)
/// decomposition the updated `cpu` unit sits in `w`, shared by both join
/// sides; a `state` update is structural; then a key removal.
#[test]
fn in_place_updates_leave_snapshots_frozen_on_a_shared_node() {
    let (cat, spec, ds) = scheduler_setup();
    let col = |name| cat.col(name).unwrap();
    let (ns, pid, state, cpu) = (col("ns"), col("pid"), col("state"), col("cpu"));
    let mut r = SynthRelation::new(&cat, spec, ds[0].clone()).unwrap();
    for i in 0..12i64 {
        r.insert(Tuple::from_pairs([
            (ns, Value::from(i % 3)),
            (pid, Value::from(i)),
            (state, Value::from(if i % 2 == 0 { "R" } else { "S" })),
            (cpu, Value::from(i % 4)),
        ]))
        .unwrap();
    }
    let key = |a: i64, b: i64| Tuple::from_pairs([(ns, Value::from(a)), (pid, Value::from(b))]);
    assert_snapshot_stays_frozen(&mut r, |r, m| {
        let on = |c: i64| Tuple::from_pairs([(cpu, Value::from(c))]);
        update_both(r, m, &key(1, 1), &on(9));
        update_both(r, m, &key(2, 5), &on(8));
        update_both(r, m, &key(1, 1), &on(7)); // the same, already copied instance
        update_both(
            r,
            m,
            &key(0, 3),
            &Tuple::from_pairs([(state, Value::from("R"))]),
        );
        assert_eq!(r.remove(&key(2, 8)).unwrap(), m.remove(&key(2, 8)));
    });
}

/// The same on IpCap's default decomposition, with FD checking off as the
/// daemon runs it. Its only key covers both structural columns, so no
/// update there is structural: the structural step is an insert that
/// creates a new `local` group.
#[test]
fn in_place_updates_leave_snapshots_frozen_on_ipcap() {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
         let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
         let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x",
    )
    .unwrap();
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
    let spec = RelSpec::new(cat.all()).with_fd(local | remote, bytes | pkts);
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    r.set_fd_checking(false);
    let flow = |l: i64, rm: i64, b: i64, p: i64| {
        Tuple::from_pairs([
            (local, Value::from(l)),
            (remote, Value::from(rm)),
            (bytes, Value::from(b)),
            (pkts, Value::from(p)),
        ])
    };
    for i in 0..64i64 {
        r.insert(flow(i % 4, i, 40 * i, 1)).unwrap();
    }
    let key =
        |l: i64, rm: i64| Tuple::from_pairs([(local, Value::from(l)), (remote, Value::from(rm))]);
    let counters =
        |b: i64, p: i64| Tuple::from_pairs([(bytes, Value::from(b)), (pkts, Value::from(p))]);
    assert_snapshot_stays_frozen(&mut r, |r, m| {
        update_both(r, m, &key(1, 5), &counters(1000, 2));
        update_both(r, m, &key(2, 6), &counters(2000, 2));
        update_both(r, m, &key(1, 5), &counters(1500, 3));
        update_both(
            r,
            m,
            &key(3, 7),
            &Tuple::from_pairs([(pkts, Value::from(9))]),
        );
        assert!(r.insert(flow(9, 1, 60, 1)).unwrap());
        m.insert(flow(9, 1, 60, 1));
        assert_eq!(r.remove(&key(0, 4)).unwrap(), m.remove(&key(0, 4)));
    });
}

/// The read-mostly cache serves concurrent warm readers without exclusive
/// locking; this is a smoke check that shared-reference queries from many
/// threads agree (`SynthRelation` is `Sync` on the query path).
#[test]
fn concurrent_warm_queries_agree() {
    let (cat, spec, ds) = scheduler_setup();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    let mut r = SynthRelation::new(&cat, spec, ds[1].clone()).unwrap();
    for i in 0..40i64 {
        r.insert(Tuple::from_pairs([
            (ns, Value::from(i % 4)),
            (pid, Value::from(i)),
            (state, Value::from(if i % 2 == 0 { "R" } else { "S" })),
            (cpu, Value::from(i % 3)),
        ]))
        .unwrap();
    }
    let r = &r;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(s.spawn(move || {
                let mut scratch = Bindings::new();
                let mut total = 0usize;
                for round in 0..50 {
                    let pat = Tuple::from_pairs([(ns, Value::from((t + round) % 4))]);
                    r.query_for_each_bindings(&mut scratch, &pat, pid.into(), |_| total += 1)
                        .unwrap();
                }
                total
            }));
        }
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread sweeps all four namespaces the same number of times.
        assert!(counts.iter().all(|&c| c == counts[0]));
        assert_eq!(counts[0], 50 * 10);
    });
}
