//! The checkpoint is a streaming read: `DurableRelation::checkpoint` walks
//! the pinned snapshots with the one linear full scan and encodes each
//! emitted valuation straight into the image. These tests hold that image
//! to the abstraction function α and to an independent model:
//!
//! * across **every adequate decomposition candidate** of a small
//!   specification (up to three edges over hash tables, AVL trees and
//!   intrusive lists — so shared-node DAGs, join bodies and `ilist` edges
//!   all occur), with integer and string values: the image holds each tuple
//!   **exactly once** and `open` rebuilds exactly the model;
//! * for an empty relation and for a relation after `migrate_to`;
//! * while two writer threads keep committing: each shard's image is a
//!   state its own log prefix produces (never a torn batch), and image +
//!   log tail recover the final state exactly;
//! * against a **byte fixture written by the parent commit** (the α-based
//!   writer): it still opens, and for an order-preserving decomposition the
//!   streamed writer reproduces it byte for byte — so files cross the change
//!   in both directions.

use relic_core::Op;
use relic_decomp::{enumerate_decompositions, Decomposition, DsKind, EnumerateOptions};
use relic_persist::checkpoint::CHECKPOINT_FILE;
use relic_persist::{Checkpoint, DurableRelation, GroupCommitPolicy};
use relic_spec::{Catalog, ColId, RelSpec, Relation, Tuple, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relic_streamck_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The decoded `checkpoint.bin` of `dir`.
fn image(dir: &Path) -> Checkpoint {
    Checkpoint::from_bytes(&std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap()).unwrap()
}

/// Asserts the image holds exactly `model`'s tuples, each exactly once.
fn assert_image_is(ck: &Checkpoint, model: &Relation, what: &str) {
    assert_eq!(ck.tuples.len(), model.len(), "{what}: image tuple count");
    let distinct: BTreeSet<&Tuple> = ck.tuples.iter().collect();
    assert_eq!(distinct.len(), ck.tuples.len(), "{what}: a tuple repeats");
    assert!(
        ck.tuples.iter().all(|t| model.contains(t)),
        "{what}: image holds a tuple the model does not"
    );
}

struct Abv {
    cat: Catalog,
    a: ColId,
    b: ColId,
    v: ColId,
    spec: RelSpec,
}

/// `{a, b} → {v}`: `a` an integer (the shard column), `b` a string, `v` an
/// integer.
fn abv() -> Abv {
    let mut cat = Catalog::new();
    let (a, b, v) = (cat.intern("a"), cat.intern("b"), cat.intern("v"));
    let spec = RelSpec::new(a | b | v).with_fd(a | b, v.set());
    Abv { cat, a, b, v, spec }
}

impl Abv {
    fn tuple(&self, a: i64, b: i64, v: i64) -> Tuple {
        Tuple::from_pairs([
            (self.a, Value::from(a)),
            (self.b, Value::from(format!("name-{b}").as_str())),
            (self.v, Value::from(v)),
        ])
    }

    /// Seven `a` values × five `b` values, minus a removed slice.
    fn model(&self) -> Relation {
        let mut m = Relation::empty(self.spec.cols());
        for a in 0..7 {
            for b in 0..5 {
                if (a + b) % 6 != 0 {
                    m.insert(self.tuple(a, b, a * 10 + b));
                }
            }
        }
        m
    }

    fn candidates(&self) -> Vec<Decomposition> {
        let opts = EnumerateOptions {
            max_edges: 3,
            max_branches: 2,
            sharing: true,
            structures: vec![DsKind::HashTable, DsKind::AvlTree, DsKind::IntrusiveList],
        };
        enumerate_decompositions(&self.spec, &opts)
    }

    fn create(&self, dir: &Path, d: Decomposition, shards: usize) -> DurableRelation {
        DurableRelation::create(
            dir,
            &self.cat,
            self.spec.clone(),
            d,
            self.a.set(),
            shards,
            true,
            GroupCommitPolicy::manual(),
        )
        .unwrap()
    }

    /// Drives `rel` to `self.model()` through single inserts, a batch and a
    /// pattern removal (so the image is not just one bulk load's echo).
    fn fill(&self, rel: &DurableRelation) {
        for a in 0..3 {
            for b in 0..5 {
                rel.insert(self.tuple(a, b, a * 10 + b)).unwrap();
            }
        }
        rel.insert_many(
            (3..7)
                .flat_map(|a| (0..5).map(move |b| (a, b)))
                .map(|(a, b)| self.tuple(a, b, a * 10 + b)),
        )
        .unwrap();
        for a in 0..7 {
            for b in 0..5 {
                if (a + b) % 6 == 0 {
                    let key = self.tuple(a, b, 0).project(self.a | self.b);
                    assert_eq!(rel.remove(&key).unwrap(), 1);
                }
            }
        }
    }
}

#[test]
fn every_candidate_checkpoints_each_tuple_exactly_once_and_reopens_as_the_model() {
    let s = abv();
    let model = s.model();
    let candidates = s.candidates();
    let (mut joins, mut shared, mut ilists) = (0, 0, 0);
    for (i, d) in candidates.iter().enumerate() {
        let src = d.to_let_notation(&s.cat);
        joins += usize::from(src.contains(" join "));
        shared += usize::from(d.node_count() <= d.edge_count());
        ilists += usize::from(src.contains("ilist"));
        let dir = tmpdir(&format!("cand{i}"));
        let rel = s.create(&dir, d.clone(), 3);
        s.fill(&rel);
        assert_eq!(rel.to_relation(), model, "candidate {i} live state: {src}");
        rel.checkpoint().unwrap();
        assert_image_is(&image(&dir), &model, &format!("candidate {i}: {src}"));
        drop(rel);
        let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
        assert_eq!(back.to_relation(), model, "candidate {i} reopened: {src}");
        back.relation().validate().unwrap();
        assert_eq!(back.read_view().shard(0).decomposition(), d);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        joins > 0 && shared > 0 && ilists > 0,
        "the candidate set must cover join bodies ({joins}), shared nodes ({shared}) and \
         ilist edges ({ilists}); {} candidates",
        candidates.len()
    );
}

#[test]
fn an_empty_relation_checkpoints_and_reopens_empty() {
    let s = abv();
    let dir = tmpdir("empty");
    let rel = s.create(&dir, s.candidates().remove(0), 2);
    rel.checkpoint().unwrap();
    assert_image_is(&image(&dir), &Relation::empty(s.spec.cols()), "empty");
    drop(rel);
    let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert!(back.is_empty());
    // Emptied by removals, not just never filled.
    s.fill(&back);
    back.remove(&Tuple::empty()).unwrap();
    back.checkpoint().unwrap();
    assert!(image(&dir).tuples.is_empty());
    drop(back);
    let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert!(back.is_empty());
    back.relation().validate().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_migrated_relation_checkpoints_in_its_new_representation() {
    let s = abv();
    let model = s.model();
    let candidates = s.candidates();
    let (first, last) = (
        candidates[0].clone(),
        candidates[candidates.len() - 1].clone(),
    );
    assert_ne!(first, last);
    let dir = tmpdir("migrated");
    let rel = s.create(&dir, first, 3);
    s.fill(&rel);
    rel.apply(Op::Migrate(last.to_let_notation(&s.cat)))
        .unwrap();
    rel.checkpoint().unwrap();
    let ck = image(&dir);
    assert_image_is(&ck, &model, "migrated");
    assert_eq!(ck.schema.decomposition_src, last.to_let_notation(&s.cat));
    drop(rel);
    let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert_eq!(back.to_relation(), model);
    assert_eq!(back.read_view().shard(0).decomposition(), &last);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writer `w`'s deterministic history over its own `a = w` keyspace: step
/// `j` inserts `b = j`, and every third step then removes `b = j - 1`.
/// `apply` replays the first `steps` steps into a set of live `b`s.
fn writer_state(steps: usize) -> BTreeSet<i64> {
    let mut live = BTreeSet::new();
    for j in 0..steps as i64 {
        live.insert(j);
        if j % 3 == 2 {
            live.remove(&(j - 1));
        }
    }
    live
}

/// Checkpoints taken while two writers keep committing. Every writer owns
/// one `a` value (hence one shard) and applies a deterministic history of
/// logged single operations, so the image's slice for that writer must be
/// the state after *some prefix of those operations* — a prefix of that
/// shard's log — and recovery (image + tail past the watermarks) must land
/// on the final state exactly.
#[test]
fn checkpoints_under_two_committing_writers_hold_log_prefixes() {
    const WRITERS: usize = 2;
    const CHECKPOINTS: usize = 4;
    const MAX_STEPS: usize = 6000;
    let s = abv();
    let dir = tmpdir("writers");
    let d = relic_decomp::parse(
        &mut s.cat.clone(),
        "let u : {a,b} . {v} = unit {v} in
         let h : {a} . {b,v} = {b} -[avl]-> u in
         let x : {} . {a,b,v} = {a} -[htable]-> h in x",
    )
    .unwrap();
    let rel = s.create(&dir, d, 4);
    let stop = AtomicBool::new(false);
    let progress: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
    let b_of = |t: &Tuple| {
        t.get(s.b).and_then(|v| match v {
            Value::Str(name) => name.strip_prefix("name-")?.parse::<i64>().ok(),
            _ => None,
        })
    };
    let steps_done: Vec<usize> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (rel, s, stop, progress) = (&rel, &s, &stop, &progress);
                sc.spawn(move || {
                    let mut j = 0usize;
                    while j < MAX_STEPS && !stop.load(Ordering::Acquire) {
                        let b = j as i64;
                        rel.insert(s.tuple(w as i64, b, b * 7 + w as i64)).unwrap();
                        if b % 3 == 2 {
                            let key = s.tuple(w as i64, b - 1, 0).project(s.a | s.b);
                            assert_eq!(rel.remove(&key).unwrap(), 1);
                        }
                        j += 1;
                        if j.is_multiple_of(8) {
                            rel.commit().unwrap();
                        }
                        progress[w].store(j, Ordering::Release);
                    }
                    j
                })
            })
            .collect();
        let mut seen_steps = [0usize; WRITERS];
        for round in 0..CHECKPOINTS {
            // Each checkpoint waits until every writer has moved on since
            // the last one, so the writers are provably mid-history (and
            // still running) when the view is pinned.
            for (done, &seen) in progress.iter().zip(&seen_steps) {
                let behind = |done: usize| done <= seen && done < MAX_STEPS;
                while behind(done.load(Ordering::Acquire)) {
                    std::thread::yield_now();
                }
            }
            rel.checkpoint().unwrap();
            let ck = image(&dir);
            let distinct: BTreeSet<&Tuple> = ck.tuples.iter().collect();
            assert_eq!(
                distinct.len(),
                ck.tuples.len(),
                "round {round}: a tuple repeats"
            );
            for (w, seen) in seen_steps.iter_mut().enumerate() {
                let got: BTreeSet<i64> = ck
                    .tuples
                    .iter()
                    .filter(|t| t.get(s.a) == Some(&Value::from(w as i64)))
                    .map(|t| {
                        let b = b_of(t).expect("writer tuples carry name-<b>");
                        assert_eq!(t.get(s.v), Some(&Value::from(b * 7 + w as i64)));
                        b
                    })
                    .collect();
                // The newest live `b` pins the step: after step j, max = j.
                // A checkpoint may also land between a step's insert and
                // its removal; both are log prefixes.
                let steps = got.iter().next_back().map_or(0, |&m| m as usize + 1);
                let whole = writer_state(steps);
                let mut mid = whole.clone();
                mid.insert(steps as i64 - 2);
                assert!(
                    got == whole || (steps.is_multiple_of(3) && steps > 0 && got == mid),
                    "round {round}, writer {w}: the image is no prefix of its log \
                     ({} tuples, newest b = {})",
                    got.len(),
                    steps as i64 - 1
                );
                assert!(steps >= *seen, "checkpoints never go backwards");
                *seen = steps;
            }
        }
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    rel.commit().unwrap();
    let mut model = Relation::empty(s.spec.cols());
    for (w, &steps) in steps_done.iter().enumerate() {
        for b in writer_state(steps) {
            model.insert(s.tuple(w as i64, b, b * 7 + w as i64));
        }
    }
    assert_eq!(
        rel.to_relation(),
        model,
        "live state is both writers' full histories"
    );
    drop(rel);
    let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert_eq!(
        back.to_relation(),
        model,
        "image + log tail recover the final state"
    );
    back.relation().validate().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `checkpoint.bin` exactly as the parent commit's α-based writer wrote it
/// (format `VERSION` 1): `{k} -[avl]-> unit {s, f, v}` over two shards on
/// `k`; rows `k = 0..7` inserted one by one, `k = 3` removed, committed,
/// checkpointed. It holds a string, a bool and two integer columns.
const PARENT_IMAGE: &[u8] = include_bytes!("fixtures/checkpoint_v1_alpha_order.bin");

/// Replays the fixture's history into a fresh durable relation in `dir`.
fn fixture_history(dir: &Path) -> DurableRelation {
    let mut cat = Catalog::new();
    let (k, s, f, v) = (
        cat.intern("k"),
        cat.intern("s"),
        cat.intern("f"),
        cat.intern("v"),
    );
    let spec = RelSpec::new(k | s | f | v).with_fd(k.set(), s | f | v);
    let d = relic_decomp::parse(
        &mut cat,
        "let u : {k} . {s,f,v} = unit {s,f,v} in
         let x : {} . {k,s,f,v} = {k} -[avl]-> u in x",
    )
    .unwrap();
    let rel = DurableRelation::create(
        dir,
        &cat,
        spec,
        d,
        k.set(),
        2,
        true,
        GroupCommitPolicy::manual(),
    )
    .unwrap();
    for i in 0..7i64 {
        rel.insert(Tuple::from_pairs([
            (k, Value::from(i)),
            (s, Value::from(format!("row-{i}").as_str())),
            (f, Value::from(i % 2 == 0)),
            (v, Value::from(i * i - 3)),
        ]))
        .unwrap();
    }
    rel.remove(&Tuple::from_pairs([(k, Value::from(3))]))
        .unwrap();
    rel.commit().unwrap();
    rel
}

/// Format compatibility in both directions. Parent → change: the parent's
/// file decodes and opens as the relation it was taken from. Change →
/// parent: an AVL root scans in key order, which is α's order, so the
/// streamed writer must reproduce the parent's file **byte for byte** — a
/// file the parent trivially opens.
#[test]
fn the_parent_commits_image_opens_and_is_reproduced_byte_for_byte() {
    let dir = tmpdir("fixture");
    let rel = fixture_history(&dir);
    let live = rel.to_relation();
    rel.checkpoint().unwrap();
    drop(rel);
    assert_eq!(
        std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
        PARENT_IMAGE,
        "the streamed writer changed the bytes of an order-preserving image"
    );
    let parent = Checkpoint::from_bytes(PARENT_IMAGE).unwrap();
    assert_image_is(&parent, &live, "parent image");
    assert_eq!(
        parent.to_bytes(),
        PARENT_IMAGE,
        "decode → encode is the identity"
    );

    // A directory holding only the parent's file and a log that the
    // checkpoint fully covers opens as the same relation.
    std::fs::write(dir.join(CHECKPOINT_FILE), PARENT_IMAGE).unwrap();
    let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert_eq!(back.to_relation(), live);
    back.relation().validate().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
