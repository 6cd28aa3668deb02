//! [`RelRead`] conformance: every reader answers every form of `query`
//! exactly as the reference relation does.
//!
//! [`check_reader`] is generic over the reader and derives all its probes
//! from the model it is handed, so a new reader (or a new *path* to an old
//! one) gets the whole battery by implementing the trait. Here it is held
//! against the four readers of this workspace after **every** mutation of a
//! mixed operation sequence:
//!
//! * a live [`SynthRelation`] and a [`Snapshot`](relic_core::Snapshot) of it,
//! * a detached [`ReadView`](relic_concurrent::ReadView) collected after the
//!   mutation returned — the one read path of a [`ConcurrentRelation`], which
//!   therefore has to **read its own writes** for every mutation kind
//!   (`insert`, `insert_many`, `bulk_load`, `remove`, `remove_where`,
//!   `update`, `with_partition_mut`, `migrate_to`), with `len()` agreeing at
//!   the same points,
//! * a long-lived [`ReadHandle`]'s view, both refreshed for one pinned read
//!   (only the owning shard re-checked) and re-collected whole.

use proptest::prelude::*;
use relic_concurrent::{ConcurrentRelation, ReadHandle};
use relic_core::{Bindings, OpError, RelRead, SynthRelation};
use relic_decomp::{parse, Decomposition};
use relic_spec::{Catalog, ColId, ColSet, Pattern, Pred, RelSpec, Relation, Tuple, Value};
use std::collections::BTreeSet;

/// Holds one reader to the reference relation: `len`, `is_empty`, `query`,
/// `query_full`, `query_for_each`, `query_where`, `contains`,
/// `contains_matching` and the foreign-column error.
///
/// Probe patterns come from the model: its smallest and largest tuple and a
/// splice of the two (usually absent), projected onto every column subset
/// for the equality forms; for the comparison forms every operator on every
/// column around those values, alone and beside an equality on each other
/// column — so whatever columns a reader routes or indexes by, it sees
/// patterns that pin them and patterns that do not.
fn check_reader<R: RelRead>(r: &R, model: &Relation) {
    let cols = model.cols();
    assert_eq!(r.spec().cols(), cols, "spec");
    assert_eq!(r.len(), model.len(), "len");
    assert_eq!(r.is_empty(), model.is_empty(), "is_empty");

    let mut probes: Vec<Tuple> = Vec::new();
    if let (Some(lo), Some(hi)) = (model.iter().next(), model.iter().last()) {
        let c0 = cols.iter().next().expect("a relation has columns").set();
        let splice = lo.project(c0).merge(&hi.project(cols - c0));
        probes = vec![lo.clone(), hi.clone(), splice];
    }

    // Equality patterns (the empty one included, so an empty model is
    // still queried).
    for t in std::iter::once(&Tuple::empty()).chain(&probes) {
        for dom in t.dom().subsets() {
            let pat = t.project(dom);
            for out in cols.subsets() {
                let want = model.query(&pat, out);
                assert_eq!(r.query(&pat, out).unwrap(), want, "query {pat} {out:?}");
                // An all-equality comparison pattern is the same query.
                let as_where = r.query_where(&Pattern::from_tuple(&pat), out).unwrap();
                assert_eq!(as_where, want, "query_where(=) {pat} {out:?}");
                // Streaming delivers a multiset that dedups to `query`.
                let mut seen = Vec::new();
                r.query_for_each(&pat, out, |row| seen.push(row.clone()))
                    .unwrap();
                assert!(seen.iter().all(|row| row.dom() == out), "row domain");
                seen.sort();
                seen.dedup();
                assert_eq!(seen, want, "query_for_each {pat} {out:?}");
            }
            assert_eq!(r.query_full(&pat).unwrap(), model.query(&pat, cols));
            let any = !model.select(&pat).is_empty();
            assert_eq!(r.contains_matching(&pat).unwrap(), any, "matching {pat}");
            assert_eq!(r.contains(&pat).unwrap(), model.contains(&pat), "{pat}");
        }
    }

    // Comparison patterns: interval, `≠`, and each mixed with an equality.
    let check_where = |p: &Pattern| {
        for out in [cols, cols - p.dom(), ColSet::EMPTY] {
            let got = r.query_where(p, out).unwrap();
            assert_eq!(got, model.query_where(p, out), "query_where {p:?} {out:?}");
        }
    };
    for (i, t) in probes.iter().enumerate() {
        let u = &probes[(i + 1) % probes.len()];
        for c in cols.iter() {
            let (v, w) = (t.get(c).unwrap().clone(), u.get(c).unwrap().clone());
            let (lo, hi) = if v <= w {
                (v.clone(), w)
            } else {
                (w, v.clone())
            };
            for p in [
                Pred::Ne(v.clone()),
                Pred::Lt(v.clone()),
                Pred::Le(v.clone()),
                Pred::Gt(v.clone()),
                Pred::Ge(v),
                Pred::Between(lo, hi),
            ] {
                let alone = Pattern::new().with(c, p);
                check_where(&alone);
                for e in (cols - c.set()).iter() {
                    check_where(&alone.clone().with(e, Pred::Eq(t.get(e).unwrap().clone())));
                }
            }
        }
    }

    // A column outside the relation is refused by every form, by name.
    let alien = ColId::from_index(cols.max_col().expect("columns").index() + 1);
    let pat = Tuple::from_pairs([(alien, Value::from(0))]);
    let ranged = Pattern::new().with(alien, Pred::Ge(Value::from(0)));
    for err in [
        r.query(&pat, ColSet::EMPTY).unwrap_err(),
        r.query(&Tuple::empty(), alien.set()).unwrap_err(),
        r.query_full(&pat).unwrap_err(),
        r.query_for_each(&pat, ColSet::EMPTY, |_| {}).unwrap_err(),
        r.query_where(&Pattern::from_tuple(&pat), ColSet::EMPTY)
            .unwrap_err(),
        r.query_where(&ranged, ColSet::EMPTY).unwrap_err(),
        r.contains(&pat).unwrap_err(),
        r.contains_matching(&pat).unwrap_err(),
    ] {
        assert!(
            matches!(err, OpError::ForeignColumns { cols } if cols == alien.set()),
            "{err:?}"
        );
    }
}

struct Cols {
    host: ColId,
    ts: ColId,
    bytes: ColId,
}

/// One mutation of the driven sequence. Keys are `(host, ts)`; `host` is the
/// shard column, so a `None` host makes the operation unpinned.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    InsertMany(Vec<(i64, i64)>),
    BulkLoad(Vec<(i64, i64)>),
    Remove(Option<i64>, Option<i64>),
    /// `ts between lo and hi`, beside `host = h` when pinned.
    RemoveWhere(Option<i64>, i64, i64),
    Update(i64, i64, i64),
    /// `with_partition_mut`: bump the key's payload, or insert it.
    PartitionRmw(i64, i64),
    /// `migrate_to` the other of the two decompositions.
    Migrate,
}

/// The readers under test and the model they are held to, driven in
/// lock-step.
struct Harness<'a> {
    cols: &'a Cols,
    model: Relation,
    solo: SynthRelation,
    rel: &'a ConcurrentRelation,
    handle: ReadHandle<'a>,
    /// The decomposition in use, and the one a `Migrate` swaps it for.
    decomps: [Decomposition; 2],
}

fn schema() -> (Catalog, Cols, RelSpec, [Decomposition; 2]) {
    let mut cat = Catalog::new();
    let nested = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let flat = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
    )
    .unwrap();
    let cols = Cols {
        host: cat.col("host").unwrap(),
        ts: cat.col("ts").unwrap(),
        bytes: cat.col("bytes").unwrap(),
    };
    let spec = RelSpec::new(cat.all()).with_fd(cols.host | cols.ts, cols.bytes.set());
    (cat, cols, spec, [nested, flat])
}

impl Harness<'_> {
    fn key(&self, h: i64, t: i64) -> Tuple {
        Tuple::from_pairs([
            (self.cols.host, Value::from(h)),
            (self.cols.ts, Value::from(t)),
        ])
    }

    /// The tuple an insert of key `(h, t)` carries: the payload the model
    /// already holds for the key (an exact duplicate), or a fresh one — so
    /// no insert ever trips the `host, ts → bytes` dependency.
    fn tuple(&self, h: i64, t: i64) -> Tuple {
        let key = self.key(h, t);
        let payload = self.model.query(&key, self.cols.bytes.set());
        let fresh = Tuple::from_pairs([(self.cols.bytes, Value::from(h * 10 + t))]);
        key.merge(payload.first().unwrap_or(&fresh))
    }

    /// Applies `op` to the model, the solo relation and the concurrent one,
    /// holding their return values to each other.
    fn apply(&mut self, op: &Op) {
        let (cols, rel) = (self.cols, self.rel);
        match op {
            Op::Insert(h, t) => {
                let tu = self.tuple(*h, *t);
                let new = self.model.insert(tu.clone());
                assert_eq!(self.solo.insert(tu.clone()).unwrap(), new);
                assert_eq!(rel.insert(tu).unwrap(), new);
            }
            Op::InsertMany(keys) | Op::BulkLoad(keys) => {
                let batch: Vec<Tuple> = keys.iter().map(|&(h, t)| self.tuple(h, t)).collect();
                let new = batch
                    .iter()
                    .filter(|tu| self.model.insert((*tu).clone()))
                    .count();
                let (solo_n, rel_n) = if matches!(op, Op::BulkLoad(_)) {
                    (self.solo.bulk_load(batch.clone()), rel.bulk_load(batch))
                } else {
                    (
                        self.solo.insert_many(batch.clone()),
                        rel.apply(relic_core::Op::InsertMany(batch)),
                    )
                };
                assert_eq!((solo_n.unwrap(), rel_n.unwrap()), (new, new));
            }
            Op::Remove(h, t) => {
                let pat = Tuple::from_pairs(
                    [(cols.host, *h), (cols.ts, *t)]
                        .into_iter()
                        .filter_map(|(c, v)| Some((c, Value::from(v?)))),
                );
                let n = self.model.remove(&pat);
                assert_eq!(self.solo.remove(&pat).unwrap(), n);
                assert_eq!(rel.remove(&pat).unwrap(), n);
            }
            Op::RemoveWhere(h, lo, hi) => {
                let between = Pred::Between(Value::from(*lo), Value::from(*hi));
                let mut p = Pattern::new().with(cols.ts, between);
                if let Some(h) = h {
                    p = p.with(cols.host, Pred::Eq(Value::from(*h)));
                }
                let n = self.model.remove_where(&p);
                assert_eq!(self.solo.remove_where(&p).unwrap(), n);
                assert_eq!(rel.apply(relic_core::Op::RemoveWhere(p)).unwrap(), n);
            }
            Op::Update(h, t, b) => {
                let key = self.key(*h, *t);
                let chg = Tuple::from_pairs([(cols.bytes, Value::from(*b))]);
                let hit = !self.model.select(&key).is_empty();
                self.model.update(&key, &chg);
                assert_eq!(self.solo.update(&key, &chg).unwrap(), hit);
                let update = relic_core::Op::Update {
                    pattern: key,
                    changes: chg,
                };
                assert_eq!(rel.apply(update).unwrap(), usize::from(hit));
            }
            Op::PartitionRmw(h, t) => {
                let key = self.key(*h, *t);
                let payload = |rows: Vec<Tuple>| {
                    let cur = rows.first()?.get(cols.bytes)?.as_int()?;
                    Some(Tuple::from_pairs([(cols.bytes, Value::from(cur + 1))]))
                };
                let one = Tuple::from_pairs([(cols.bytes, Value::from(1))]);
                let rmw = |shard: &mut SynthRelation| match payload(
                    shard.query(&key, cols.bytes.set()).unwrap(),
                ) {
                    Some(chg) => assert!(shard.update(&key, &chg).unwrap()),
                    None => assert!(shard.insert(key.merge(&one)).unwrap()),
                };
                match payload(self.model.query(&key, cols.bytes.set())) {
                    Some(chg) => self.model.update(&key, &chg),
                    None => assert!(self.model.insert(key.merge(&one))),
                }
                rmw(&mut self.solo);
                rel.with_partition_mut(&key, rmw);
            }
            Op::Migrate => {
                self.decomps.swap(0, 1);
                self.solo.migrate_to(self.decomps[0].clone()).unwrap();
                rel.migrate_to(self.decomps[0].clone()).unwrap();
            }
        }
    }

    /// Every reader, against the model as it stands.
    fn check(&mut self) {
        let (cols, model) = (self.cols, &self.model);
        check_reader(&self.solo, model);
        check_reader(&self.solo.snapshot(), model);
        // The one read path reads its own writes: a view collected now
        // already holds everything the mutation did.
        check_reader(&self.rel.read_view(), model);
        assert_eq!(self.rel.len(), model.len(), "len() of the relation");
        assert_eq!(self.rel.is_empty(), model.is_empty());
        // A pinned refresh re-checks one shard; reads pinned to it are
        // current whatever the other cached shards hold.
        for h in model.query(&Tuple::empty(), cols.host.set()) {
            let got = self
                .handle
                .fresh_for(|c| h.get(c))
                .query(&h, cols.ts | cols.bytes);
            assert_eq!(got.unwrap(), model.query(&h, cols.ts | cols.bytes));
        }
        check_reader(self.handle.view(), model);
    }
}

/// Drives `ops` over `shards` partitions, checking every reader before the
/// first and after every operation.
fn run(shards: usize, ops: &[Op]) {
    let (cat, cols, spec, decomps) = schema();
    let solo = SynthRelation::new(&cat, spec.clone(), decomps[0].clone()).unwrap();
    let rel =
        ConcurrentRelation::new(&cat, spec, decomps[0].clone(), cols.host.set(), shards).unwrap();
    let mut h = Harness {
        cols: &cols,
        model: Relation::empty(cat.all()),
        solo,
        rel: &rel,
        handle: rel.read_handle(),
        decomps,
    };
    h.check();
    for op in ops {
        h.apply(op);
        h.check();
    }
    h.solo.validate().unwrap();
    rel.validate().unwrap();
}

/// Every mutation kind, pinned and unpinned where it has both forms, each
/// followed by the full reader check — deterministic, so a kind that stops
/// republishing before it returns fails here by name.
#[test]
fn every_mutation_kind_is_read_back_by_every_reader() {
    let script = [
        Op::Insert(1, 1),
        Op::Insert(2, 3),
        Op::Insert(1, 1),
        Op::InsertMany(vec![(1, 2), (3, 1), (4, 4), (1, 1), (3, 1)]),
        Op::BulkLoad(vec![(5, 0), (5, 1), (0, 7), (2, 3), (4, 2)]),
        Op::Update(1, 2, 99),
        Op::Update(9, 9, 1),
        Op::PartitionRmw(1, 2),
        Op::PartitionRmw(6, 6),
        Op::Remove(Some(3), None),
        Op::Remove(None, Some(1)),
        Op::RemoveWhere(Some(5), 0, 0),
        Op::RemoveWhere(None, 3, 5),
        Op::Migrate,
        Op::Insert(0, 0),
        Op::InsertMany(vec![(7, 7), (1, 2)]),
        Op::Migrate,
        Op::Remove(None, None),
    ];
    for shards in [1, 4] {
        run(shards, &script);
    }
}

/// Holds the collecting forms to a `BTreeSet`-collected reference (and to
/// the model) on projections that repeat rows far past their compaction
/// floor.
fn check_duplicate_heavy<R: RelRead>(r: &R, cols: &Cols, model: &Relation) {
    let reference = |p: &Pattern, out: ColSet| {
        let mut set = BTreeSet::new();
        r.query_where_for_each_bindings(&mut Bindings::new(), p, out, |b| {
            set.insert(b.project(out));
        })
        .unwrap();
        set.into_iter().collect::<Vec<_>>()
    };
    let ranged = Pattern::new().with(cols.ts, Pred::Ge(Value::from(100)));
    for out in [cols.host.set(), cols.bytes.set(), cols.host | cols.bytes] {
        let want = reference(&Pattern::new(), out);
        assert_eq!(want, model.query(&Tuple::empty(), out), "{out:?}");
        assert_eq!(r.query(&Tuple::empty(), out).unwrap(), want, "{out:?}");
        assert_eq!(r.query_where(&Pattern::new(), out).unwrap(), want);
        let want = reference(&ranged, out);
        assert_eq!(want, model.query_where(&ranged, out), "{out:?}");
        assert_eq!(r.query_where(&ranged, out).unwrap(), want, "{out:?}");
    }
    assert_eq!(r.query(&Tuple::empty(), cols.host.set()).unwrap().len(), 3);
}

/// 6 000 rows projected onto a 3-valued column (and onto a 1 500-valued
/// one) through `query` and `query_where`: the sorted-vector collection
/// compacts many times along the way and still answers as a set.
#[test]
fn duplicate_heavy_projections_collect_as_a_set() {
    let (cat, cols, spec, decomps) = schema();
    let rows: Vec<Tuple> = (0..6000i64)
        .map(|i| {
            Tuple::from_pairs([
                (cols.host, Value::from(i % 3)),
                (cols.ts, Value::from(i)),
                (cols.bytes, Value::from(i % 1500)),
            ])
        })
        .collect();
    let mut model = Relation::empty(cat.all());
    for t in &rows {
        model.insert(t.clone());
    }
    let mut solo = SynthRelation::new(&cat, spec.clone(), decomps[0].clone()).unwrap();
    assert_eq!(solo.bulk_load(rows.clone()).unwrap(), rows.len());
    let rel = ConcurrentRelation::new(&cat, spec, decomps[1].clone(), cols.host.set(), 2).unwrap();
    assert_eq!(rel.bulk_load(rows.clone()).unwrap(), rows.len());
    check_duplicate_heavy(&solo, &cols, &model);
    check_duplicate_heavy(&solo.snapshot(), &cols, &model);
    check_duplicate_heavy(&rel.read_view(), &cols, &model);
}

/// `snapshot_props`' `(host, ts)` seed, widened by an operation selector and
/// one spare operand.
fn op() -> impl Strategy<Value = Op> {
    let keys = || proptest::collection::vec((0i64..6, 0i64..8), 0..6);
    (0u8..10, 0i64..6, 0i64..8, 0i64..4, keys()).prop_map(|(kind, h, t, n, keys)| match kind {
        0 | 1 => Op::Insert(h, t),
        2 => Op::InsertMany(keys),
        3 => Op::BulkLoad(keys),
        4 => Op::Remove((n > 0).then_some(h), (n != 1).then_some(t)),
        5 => Op::RemoveWhere((n > 1).then_some(h), t, t + n),
        6 => Op::Update(h, t, 100 + n),
        7 | 8 => Op::PartitionRmw(h, t),
        _ => Op::Migrate,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn readers_conform_after_every_op_of_a_random_sequence(
        ops in proptest::collection::vec(op(), 1..14),
        shards in 1usize..5,
    ) {
        run(shards, &ops);
    }
}
