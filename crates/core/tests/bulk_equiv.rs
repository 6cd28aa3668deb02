//! Property tests: the batch mutation APIs are observably equivalent to
//! folding the per-tuple operations, across every container kind a
//! decomposition edge can use.
//!
//! `bulk_load(ts)` must produce the same tuple set, the same length, the
//! same insertion count, and — when the fold fails — an error of the same
//! variant for the same offending tuple, with everything the fold inserted
//! before the failure still present. (The `existing` witness of an
//! `FdViolation` may be a different conflicting tuple: the batch path finds
//! *a* witness, not necessarily the fold's.)
//!
//! The `migrate_*` tests extend the harness to representation migration:
//! `migrate_to` between every pair of enumerated decompositions must
//! preserve the exact tuple set and answer every query signature
//! identically to the reference model.

use proptest::prelude::*;
use relic_core::{OpError, SynthRelation};
use relic_decomp::{enumerate_decompositions, parse, Decomposition, DsKind, EnumerateOptions};
use relic_spec::{Catalog, ColSet, RelSpec, Relation, Tuple, Value};

/// The five non-intrusive container kinds of the library, as decomposition
/// syntax, plus the intrusive list for good measure.
const KINDS: [&str; 6] = ["htable", "avl", "sortedvec", "vec", "dlist", "ilist"];

/// Builds the two-level test relation `{a,b} → {v}` with both edges using
/// container kind `ds` (intrusive lists are only legal below a shared leaf,
/// so `ilist` pairs with an `htable` root).
fn relation_for(ds: &str, with_fd: bool) -> (Catalog, SynthRelation) {
    let mut cat = Catalog::new();
    // Without the FD `a,b → v` the unit leaf `{v}` would be inadequate, so
    // the FD-free variant carries every column on the key path instead.
    let src = match (ds, with_fd) {
        ("ilist", true) => "let u : {a,b} . {v} = unit {v} in
             let y : {a} . {b,v} = {b} -[ilist]-> u in
             let x : {} . {a,b,v} = {a} -[htable]-> y in x"
            .to_string(),
        ("ilist", false) => "let u : {a,b,v} . {} = unit {} in
             let y : {a} . {b,v} = {b,v} -[ilist]-> u in
             let x : {} . {a,b,v} = {a} -[htable]-> y in x"
            .to_string(),
        (_, true) => format!(
            "let u : {{a,b}} . {{v}} = unit {{v}} in
             let y : {{a}} . {{b,v}} = {{b}} -[{ds}]-> u in
             let x : {{}} . {{a,b,v}} = {{a}} -[{ds}]-> y in x"
        ),
        (_, false) => format!(
            "let u : {{a,b,v}} . {{}} = unit {{}} in
             let y : {{a}} . {{b,v}} = {{b,v}} -[{ds}]-> u in
             let x : {{}} . {{a,b,v}} = {{a}} -[{ds}]-> y in x"
        ),
    };
    let d = parse(&mut cat, &src).unwrap();
    let (a, b, v) = (
        cat.col("a").unwrap(),
        cat.col("b").unwrap(),
        cat.col("v").unwrap(),
    );
    let mut spec = RelSpec::new(cat.all());
    if with_fd {
        spec = spec.with_fd(a | b, v.into());
    }
    let r = SynthRelation::new(&cat, spec, d).unwrap();
    (cat, r)
}

fn tuple(cat: &Catalog, a: i64, b: i64, v: i64) -> Tuple {
    Tuple::from_pairs([
        (cat.col("a").unwrap(), Value::from(a)),
        (cat.col("b").unwrap(), Value::from(b)),
        (cat.col("v").unwrap(), Value::from(v)),
    ])
}

/// Folds `insert` over the batch: `(inserted count, first error)`.
fn fold_insert(r: &mut SynthRelation, tuples: &[Tuple]) -> (usize, Option<OpError>) {
    let mut n = 0;
    for t in tuples {
        match r.insert(t.clone()) {
            Ok(true) => n += 1,
            Ok(false) => {}
            Err(e) => return (n, Some(e)),
        }
    }
    (n, None)
}

/// The two outcomes agree up to the witness tuple of an `FdViolation`.
fn same_error(a: &OpError, b: &OpError) -> bool {
    match (a, b) {
        (OpError::FdViolation { tuple: ta, .. }, OpError::FdViolation { tuple: tb, .. }) => {
            ta == tb
        }
        (
            OpError::ColumnMismatch {
                expected: ea,
                actual: aa,
            },
            OpError::ColumnMismatch {
                expected: eb,
                actual: ab,
            },
        ) => ea == eb && aa == ab,
        _ => false,
    }
}

fn check_equivalence(
    ds: &str,
    with_fd: bool,
    seed_tuples: &[(i64, i64, i64)],
    batch: &[(i64, i64, i64)],
    use_insert_many: bool,
) -> Result<(), TestCaseError> {
    let (cat, mut bulk) = relation_for(ds, with_fd);
    let (_, mut fold) = relation_for(ds, with_fd);
    // Seed both relations identically (pre-existing content exercises the
    // store-probe side of the screening).
    for &(a, b, v) in seed_tuples {
        let t = tuple(&cat, a, b, v);
        let _ = bulk.insert(t.clone());
        let _ = fold.insert(t);
    }
    let batch: Vec<Tuple> = batch
        .iter()
        .map(|&(a, b, v)| tuple(&cat, a, b, v))
        .collect();
    let bulk_res = if use_insert_many {
        bulk.insert_many(batch.clone())
    } else {
        bulk.bulk_load(batch.clone())
    };
    let (fold_n, fold_err) = fold_insert(&mut fold, &batch);
    match (&bulk_res, &fold_err) {
        (Ok(n), None) => prop_assert_eq!(*n, fold_n, "insert counts differ ({ds})"),
        (Err(be), Some(fe)) => {
            prop_assert!(
                same_error(be, fe),
                "different first error ({ds}): bulk {be:?} vs fold {fe:?}"
            );
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "outcome mismatch ({ds}): bulk {bulk_res:?} vs fold {fold_err:?}"
            )))
        }
    }
    prop_assert_eq!(bulk.len(), fold.len(), "lengths differ ({ds})");
    prop_assert_eq!(
        bulk.to_relation(),
        fold.to_relation(),
        "tuple sets differ ({ds})"
    );
    prop_assert_eq!(
        bulk.store_approx_bytes(),
        fold.store_approx_bytes(),
        "byte estimates differ ({ds})"
    );
    bulk.validate().map_err(TestCaseError::fail)?;
    Ok(())
}

/// `store_approx_bytes` follows the stored tuples, not the path that
/// inserted them: on IpCap's default decomposition a fold of `insert` and a
/// `bulk_load` of the same 64 × 64 flows read the same estimate, and
/// removing every flow returns both to the empty store's.
#[test]
fn approx_bytes_follow_the_tuples_on_ipcap() {
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
    let new = || SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
    let empty = new().store_approx_bytes();
    let flows: Vec<Tuple> = (0..64i64)
        .flat_map(|l| {
            (0..64i64).map(move |r| {
                Tuple::from_pairs([
                    (local, Value::from(l)),
                    (remote, Value::from(r << 12)),
                    (bytes, Value::from(40 * r)),
                    (pkts, Value::from(r)),
                ])
            })
        })
        .collect();
    let mut fold = new();
    for t in &flows {
        assert!(fold.insert(t.clone()).unwrap());
    }
    let mut bulk = new();
    assert_eq!(bulk.bulk_load(flows.clone()).unwrap(), flows.len());
    assert!(fold.store_approx_bytes() > empty);
    assert_eq!(bulk.store_approx_bytes(), fold.store_approx_bytes());
    for r in [&mut fold, &mut bulk] {
        for t in &flows {
            assert_eq!(r.remove(&t.project(local | remote)).unwrap(), 1);
        }
        assert!(r.is_empty());
        assert_eq!(r.store_approx_bytes(), empty);
    }
}

/// The enumerated candidate set migrations range over: every adequate
/// decomposition of the `{a,b} → {v}` spec with up to two edges, over the
/// hash-table and AVL palettes.
fn migration_candidates() -> (Catalog, RelSpec, Vec<Decomposition>) {
    let mut cat = Catalog::new();
    let (a, b, v) = (cat.intern("a"), cat.intern("b"), cat.intern("v"));
    let spec = RelSpec::new(a | b | v).with_fd(a | b, v.into());
    let opts = EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::HashTable, DsKind::AvlTree],
        ..Default::default()
    };
    let cs = enumerate_decompositions(&spec, &opts);
    assert!(cs.len() >= 2, "need at least two candidates to migrate");
    (cat, spec, cs)
}

/// Every query signature over `{a, b, v}`: each pattern column subset ×
/// each output subset, with each pattern's values drawn from the tuple set
/// (hits) and from outside it (misses).
fn assert_all_queries_agree(r: &SynthRelation, model: &Relation, cat: &Catalog) {
    let cols = [
        cat.col("a").unwrap(),
        cat.col("b").unwrap(),
        cat.col("v").unwrap(),
    ];
    let subsets: Vec<ColSet> = (0u8..8)
        .map(|m| {
            cols.iter()
                .enumerate()
                .filter(|&(i, _)| m & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect()
        })
        .collect();
    for &pat_cols in &subsets {
        // Every distinct valuation of the pattern columns present in the
        // model, plus one definitely-absent valuation.
        let mut pats: Vec<Tuple> = model.iter().map(|t| t.project(pat_cols)).collect();
        pats.sort();
        pats.dedup();
        pats.push(Tuple::from_pairs(
            pat_cols.iter().map(|c| (c, Value::from(-1))),
        ));
        for pat in &pats {
            for &out in &subsets {
                assert_eq!(
                    r.query(pat, out).unwrap(),
                    model.query(pat, out),
                    "query({pat}, {out:?}) diverged"
                );
            }
        }
    }
}

/// Exhaustive pair coverage on a fixed, collision-rich tuple set: load
/// under candidate `i`, migrate to candidate `j`, and the tuple set and
/// every query answer must match the reference model.
#[test]
fn migrate_between_every_candidate_pair_preserves_everything() {
    let (cat, spec, cs) = migration_candidates();
    let tuples: Vec<Tuple> = (0..12)
        .map(|i| tuple(&cat, i % 3, i % 4, (i % 3) * 10 + (i % 4)))
        .collect();
    let mut model = Relation::empty(cat.all());
    for t in &tuples {
        model.insert(t.clone());
    }
    for i in 0..cs.len() {
        let mut r = SynthRelation::new(&cat, spec.clone(), cs[i].clone()).unwrap();
        r.bulk_load(tuples.clone()).unwrap();
        for (j, target) in cs.iter().enumerate() {
            r.migrate_to(target.clone()).unwrap();
            assert_eq!(r.decomposition(), target);
            assert_eq!(r.to_relation(), model, "tuple set diverged ({i}→{j})");
            r.validate().unwrap();
        }
        // One full answer sweep per source candidate, after the round trip.
        assert_all_queries_agree(&r, &model, &cat);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random batches, random candidate pair: migration preserves the
    /// exact tuple set, the length, and every query signature's answers.
    #[test]
    fn migrate_preserves_tuples_and_answers(
        batch in proptest::collection::vec((0i64..3, 0i64..4, 0i64..3), 0..20),
        from in 0usize..64,
        to in 0usize..64,
    ) {
        let (cat, spec, cs) = migration_candidates();
        let (from, to) = (from % cs.len(), to % cs.len());
        let mut r = SynthRelation::new(&cat, spec.clone(), cs[from].clone()).unwrap();
        let mut model = Relation::empty(cat.all());
        for &(a, b, v) in &batch {
            let t = tuple(&cat, a, b, v);
            // FD conflicts are rejected identically by both; keep the
            // accepted ones in the model.
            if r.insert(t.clone()).is_ok() {
                model.insert(t);
            }
        }
        r.migrate_to(cs[to].clone()).unwrap();
        prop_assert_eq!(r.len(), model.len());
        prop_assert_eq!(r.to_relation(), model.clone());
        r.validate().map_err(TestCaseError::fail)?;
        assert_all_queries_agree(&r, &model, &cat);
        // And back again, for the i → j → i round trip.
        r.migrate_to(cs[from].clone()).unwrap();
        prop_assert_eq!(r.to_relation(), model.clone());
        r.validate().map_err(TestCaseError::fail)?;
    }

    /// `bulk_load` over every container kind, with the FD declared: small
    /// value domains force in-batch duplicates, store duplicates, and FD
    /// conflicts.
    #[test]
    fn bulk_load_equals_insert_fold(
        seed in proptest::collection::vec((0i64..3, 0i64..4, 0i64..3), 0..8),
        batch in proptest::collection::vec((0i64..3, 0i64..4, 0i64..3), 0..24),
        kind in 0usize..KINDS.len(),
    ) {
        check_equivalence(KINDS[kind], true, &seed, &batch, false)?;
    }

    /// `insert_many` (unsorted walk) is equivalent too.
    #[test]
    fn insert_many_equals_insert_fold(
        seed in proptest::collection::vec((0i64..3, 0i64..4, 0i64..3), 0..8),
        batch in proptest::collection::vec((0i64..3, 0i64..4, 0i64..3), 0..24),
        kind in 0usize..KINDS.len(),
    ) {
        check_equivalence(KINDS[kind], true, &seed, &batch, true)?;
    }

    /// Without FDs the minimal key is the full column set: the screening
    /// degenerates to exact-duplicate detection and nothing can conflict.
    #[test]
    fn bulk_load_without_fds_never_errors(
        batch in proptest::collection::vec((0i64..3, 0i64..4, 0i64..3), 0..24),
        kind in 0usize..KINDS.len(),
    ) {
        check_equivalence(KINDS[kind], false, &[], &batch, false)?;
    }

    /// `remove_many` equals folding `remove` over the patterns.
    #[test]
    fn remove_many_equals_remove_fold(
        tuples in proptest::collection::vec((0i64..4, 0i64..4, 0i64..2), 0..20),
        pats in proptest::collection::vec((0u8..3, 0i64..4, 0i64..4), 0..8),
        kind in 0usize..KINDS.len(),
    ) {
        let (cat, mut many) = relation_for(KINDS[kind], false);
        let (_, mut fold) = relation_for(KINDS[kind], false);
        for &(a, b, v) in &tuples {
            let t = tuple(&cat, a, b, v);
            let _ = many.insert(t.clone());
            let _ = fold.insert(t);
        }
        let (ca, cb) = (cat.col("a").unwrap(), cat.col("b").unwrap());
        // Patterns over {a}, {b} or {a,b}, hitting different cuts.
        let pats: Vec<Tuple> = pats
            .iter()
            .map(|&(shape, a, b)| match shape {
                0 => Tuple::from_pairs([(ca, Value::from(a))]),
                1 => Tuple::from_pairs([(cb, Value::from(b))]),
                _ => Tuple::from_pairs([(ca, Value::from(a)), (cb, Value::from(b))]),
            })
            .collect();
        let n_many = many.remove_many(pats.iter()).unwrap();
        let mut n_fold = 0;
        for p in &pats {
            n_fold += fold.remove(p).unwrap();
        }
        prop_assert_eq!(n_many, n_fold);
        prop_assert_eq!(many.to_relation(), fold.to_relation());
        many.validate().map_err(TestCaseError::fail)?;
    }
}
