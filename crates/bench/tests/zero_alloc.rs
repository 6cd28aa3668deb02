//! Allocation accounting for the warm query hot path: with a cached plan and
//! a reused scratch accumulator, `query_for_each_bindings` must perform
//! **zero heap allocations per emitted tuple** — in fact zero per query —
//! on both lookup plans and scan/join plans over every container kind,
//! including intrusive lists.
//!
//! A counting `GlobalAlloc` wraps the system allocator; tests snapshot the
//! global allocation counter around the measured loop. (This file is its own
//! test binary, so installing the global allocator affects only these
//! tests.)

use relic_concurrent::ConcurrentRelation;
use relic_core::{Bindings, RelRead, SynthRelation};
use relic_decomp::parse;
use relic_spec::{Catalog, Pattern, Pred, RelSpec, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation (and reallocation) passed to the system
/// allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is global and the harness runs tests on parallel threads:
/// each test holds this for its whole body, so no other test's set-up
/// allocates inside a measured window.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another test failed; the unit value
    // cannot be left inconsistent.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The Fig. 2(a) scheduler relation with the paper's join decomposition:
/// hash lookup chain on one side, vector + intrusive list on the other.
fn scheduler() -> (Catalog, SynthRelation) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let w : {ns,pid,state} . {cpu} = unit {cpu} in
         let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
         let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
         let x : {} . {ns,pid,state,cpu} =
           ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
    )
    .unwrap();
    let spec = RelSpec::new(cat.all()).with_fd(
        cat.col("ns").unwrap() | cat.col("pid").unwrap(),
        cat.col("state").unwrap() | cat.col("cpu").unwrap(),
    );
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let cpu = cat.col("cpu").unwrap();
    for i in 0..200i64 {
        r.insert(Tuple::from_pairs([
            (ns, Value::from(i % 8)),
            (pid, Value::from(i)),
            (state, Value::from(if i % 3 == 0 { "R" } else { "S" })),
            (cpu, Value::from(i % 5)),
        ]))
        .unwrap();
    }
    (cat, r)
}

/// Point lookups (hash-chain `qlookup` plan): zero allocations per query
/// once the plan cache and scratch pools are warm.
#[test]
fn warm_point_lookup_allocates_nothing() {
    let _serial = serial();
    let (cat, r) = scheduler();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let cpu = cat.col("cpu").unwrap();
    let mut scratch = Bindings::new();
    let patterns: Vec<Tuple> = (0..200i64)
        .map(|i| Tuple::from_pairs([(ns, Value::from(i % 8)), (pid, Value::from(i))]))
        .collect();
    // Warm-up: populates the plan cache, sizes the slot table, fills the
    // key-buffer pool.
    let mut hits = 0usize;
    for p in &patterns {
        r.query_for_each_bindings(&mut scratch, p, cpu.into(), |b| {
            assert!(b.get(cpu).is_some());
            hits += 1;
        })
        .unwrap();
    }
    assert_eq!(hits, 200);
    // Measured pass: every query must stay on the allocation-free path.
    let before = allocs();
    let mut hits = 0usize;
    for p in &patterns {
        r.query_for_each_bindings(&mut scratch, p, cpu.into(), |b| {
            assert!(b.get(cpu).is_some());
            hits += 1;
        })
        .unwrap();
    }
    let delta = allocs() - before;
    assert_eq!(hits, 200);
    assert_eq!(
        delta, 0,
        "warm point-lookup path allocated {delta} times over {hits} emitted tuples"
    );
}

/// Scans through the vector + intrusive-list side (`qlr(qscan(qscan))`-shape
/// plan): zero allocations per emitted tuple when warm, across many emitted
/// bindings per query.
#[test]
fn warm_scan_allocates_nothing() {
    let _serial = serial();
    let (cat, r) = scheduler();
    let ns = cat.col("ns").unwrap();
    let pid = cat.col("pid").unwrap();
    let state = cat.col("state").unwrap();
    let mut scratch = Bindings::new();
    let pat_r = Tuple::from_pairs([(state, Value::from("R"))]);
    let pat_s = Tuple::from_pairs([(state, Value::from("S"))]);
    let count = |scratch: &mut Bindings, pat: &Tuple| {
        let mut n = 0usize;
        r.query_for_each_bindings(scratch, pat, ns | pid, |b| {
            assert!(b.get(ns).is_some() && b.get(pid).is_some());
            n += 1;
        })
        .unwrap();
        n
    };
    // Warm-up.
    let warm_r = count(&mut scratch, &pat_r);
    let warm_s = count(&mut scratch, &pat_s);
    assert_eq!(warm_r + warm_s, 200);
    // Measured: 20 full sweeps, thousands of emitted tuples, no allocation.
    let before = allocs();
    let mut emitted = 0usize;
    for _ in 0..20 {
        emitted += count(&mut scratch, &pat_r);
        emitted += count(&mut scratch, &pat_s);
    }
    let delta = allocs() - before;
    assert_eq!(emitted, 200 * 20);
    assert_eq!(
        delta, 0,
        "warm scan path allocated {delta} times over {emitted} emitted tuples"
    );
}

/// The whole-relation sweep (empty pattern) through the join decomposition:
/// still allocation-free when warm.
#[test]
fn warm_full_sweep_allocates_nothing() {
    let _serial = serial();
    let (cat, r) = scheduler();
    let cpu = cat.col("cpu").unwrap();
    let mut scratch = Bindings::new();
    let empty = Tuple::empty();
    let mut sum = 0i64;
    r.query_for_each_bindings(&mut scratch, &empty, cpu.into(), |b| {
        sum += b.get(cpu).unwrap().as_int().unwrap();
    })
    .unwrap();
    let before = allocs();
    let mut emitted = 0usize;
    for _ in 0..10 {
        r.query_for_each_bindings(&mut scratch, &empty, cpu.into(), |b| {
            assert!(b.get(cpu).is_some());
            emitted += 1;
        })
        .unwrap();
    }
    let delta = allocs() - before;
    assert_eq!(emitted, 200 * 10);
    assert_eq!(
        delta, 0,
        "warm full-sweep path allocated {delta} times over {emitted} emitted tuples"
    );
    assert!(sum >= 0);
}

/// IpCap's default decomposition (`{local} -[avl]-> {remote} -[htable]->
/// unit`) holding 64 locals x 32 remotes.
fn flows() -> (Catalog, SynthRelation) {
    let mut cat = Catalog::new();
    let d = relic_systems::ipcap::default_decomposition(&mut cat);
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
    let spec = RelSpec::new(cat.all()).with_fd(local | remote, bytes | pkts);
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    for i in 0..2048i64 {
        r.insert(Tuple::from_pairs([
            (local, Value::from(i % 64)),
            (remote, Value::from(i << 12)),
            (bytes, Value::from(i * 40)),
            (pkts, Value::from(i)),
        ]))
        .unwrap();
    }
    (cat, r)
}

/// A sweep that leaves `local` free crosses the `avl` edge with the
/// in-order visitor, not `AvlMap::iter`'s heap-allocated stack: the query
/// path with an empty pattern and the `scan_all` of a pinned snapshot (what
/// checkpoints and reports read through) both stay at zero when warm.
#[test]
fn warm_avl_sweep_allocates_nothing() {
    let _serial = serial();
    let (cat, r) = flows();
    let pkts = cat.col("pkts").unwrap();
    let snap = r.snapshot();
    let mut scratch = Bindings::new();
    let sweep = |scratch: &mut Bindings| {
        let (mut n, mut sum) = (0usize, 0i64);
        let mut row = |b: &Bindings| {
            n += 1;
            sum += b.get(pkts).unwrap().as_int().unwrap();
        };
        r.query_for_each_bindings(scratch, &Tuple::empty(), pkts.into(), &mut row)
            .unwrap();
        snap.scan_all(scratch, &mut row).unwrap();
        (n, sum)
    };
    let warm = sweep(&mut scratch);
    assert_eq!(warm, (2 * 2048, 2047 * 2048));
    let before = allocs();
    for _ in 0..5 {
        assert_eq!(sweep(&mut scratch), warm);
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "warm sweep across the avl edge allocated {delta} times"
    );
}

/// Range queries (`query_where`: an equality column, an interval that drives
/// `qrange` on the `avl` edge, a filter on the hashed column) borrow the
/// caller's pattern: no predicate vector, no equality tuple, per query.
#[test]
fn warm_range_query_allocates_nothing() {
    let _serial = serial();
    let (cat, r) = flows();
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes) = (col("local"), col("remote"), col("bytes"));
    let patterns: Vec<Pattern> = (0..64i64)
        .flat_map(|i| {
            let span = Pred::Between(Value::from(i), Value::from(i + 7));
            let far = Pred::Ge(Value::from(1024i64 << 12));
            [
                Pattern::new().with(local, span.clone()),
                Pattern::new().with(local, span).with(remote, far.clone()),
                Pattern::new()
                    .with(local, Pred::Eq(Value::from(i)))
                    .with(remote, far),
            ]
        })
        .collect();
    let mut scratch = Bindings::new();
    let run = |scratch: &mut Bindings| {
        let mut n = 0usize;
        for p in &patterns {
            r.query_where_for_each_bindings(scratch, p, bytes.into(), |b| {
                assert!(b.get(bytes).is_some());
                n += 1;
            })
            .unwrap();
        }
        n
    };
    let warm = run(&mut scratch);
    assert!(warm > 64 * 32, "{warm} rows");
    let before = allocs();
    assert_eq!(run(&mut scratch), warm);
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "warm range-query path allocated {delta} times over {warm} emitted tuples"
    );
}

/// One read of the wait-free path: a point probe or a comparison pattern.
enum Read<'a> {
    Point(&'a Tuple),
    Range(&'a Pattern),
}

/// The [`flows`] tuples over four partitions sharded by `local`.
fn sharded_flows() -> (Catalog, ConcurrentRelation) {
    let (cat, r) = flows();
    let local = cat.col("local").unwrap();
    let d = r.decomposition().clone();
    let rel = ConcurrentRelation::new(&cat, r.spec().clone(), d, local.set(), 4).unwrap();
    rel.bulk_load(r.query_full(&Tuple::empty()).unwrap())
        .unwrap();
    (cat, rel)
}

/// Drives `read` — some way of reading a [`sharded_flows`] relation through
/// its published snapshots — over point probes and range queries, each
/// both pinned to one shard (its equality part binds `local`) and fanned
/// out over all four, and holds the warm pass to zero allocations: routing
/// reads the pattern's own predicates, it builds no equality tuple.
fn warm_sharded_reads_allocate_nothing(
    cat: &Catalog,
    mut read: impl FnMut(&mut Bindings, Read<'_>, &mut dyn FnMut(&Bindings)),
) {
    let col = |name| cat.col(name).unwrap();
    let (local, remote) = (col("local"), col("remote"));
    let points: Vec<Tuple> = (0..64i64)
        .flat_map(|i| {
            let key = [(local, Value::from(i)), (remote, Value::from(i << 12))];
            [
                Tuple::from_pairs(key.clone()),
                Tuple::from_pairs(key.into_iter().skip(1)),
            ]
        })
        .collect();
    let ranges: Vec<Pattern> = (0..64i64)
        .flat_map(|i| {
            let far = Pred::Ge(Value::from(1024i64 << 12));
            [
                Pattern::new()
                    .with(local, Pred::Eq(Value::from(i)))
                    .with(remote, far.clone()),
                Pattern::new()
                    .with(local, Pred::Between(Value::from(i), Value::from(i + 7)))
                    .with(remote, far),
            ]
        })
        .collect();
    let mut scratch = Bindings::new();
    let mut run = |scratch: &mut Bindings| {
        let mut n = 0usize;
        for t in &points {
            read(scratch, Read::Point(t), &mut |_| n += 1);
        }
        for p in &ranges {
            read(scratch, Read::Range(p), &mut |_| n += 1);
        }
        n
    };
    let warm = run(&mut scratch);
    assert!(warm > 2 * 64 + 64 * 16, "{warm} rows");
    let before = allocs();
    assert_eq!(run(&mut scratch), warm);
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "warm wait-free reads allocated {delta} times over {warm} emitted tuples"
    );
}

/// A served query's path: `ReadHandle`'s two streaming primitives, which
/// re-check the owning shard (or the whole view) and then read the view.
#[test]
fn warm_point_and_range_queries_through_a_read_handle_allocate_nothing() {
    let _serial = serial();
    let (cat, rel) = sharded_flows();
    let out = cat.col("bytes").unwrap().set();
    let mut handle = rel.read_handle();
    warm_sharded_reads_allocate_nothing(&cat, |scratch, q, f| {
        match q {
            Read::Point(t) => handle.query_for_each_bindings(scratch, t, out, f),
            Read::Range(p) => handle.query_where_for_each_bindings(scratch, p, out, f),
        }
        .unwrap()
    });
}

/// The same reads against a detached view (what a shell join leg holds).
#[test]
fn warm_point_and_range_queries_through_a_detached_read_view_allocate_nothing() {
    let _serial = serial();
    let (cat, rel) = sharded_flows();
    let out = cat.col("bytes").unwrap().set();
    let view = rel.read_view();
    warm_sharded_reads_allocate_nothing(&cat, |scratch, q, f| {
        match q {
            Read::Point(t) => view.query_for_each_bindings(scratch, t, out, f),
            Read::Range(p) => view.query_where_for_each_bindings(scratch, p, out, f),
        }
        .unwrap()
    });
}

/// Allocations one `checkpoint()` makes over `n` flow-like tuples (an
/// integer key, a string, two integers), loaded as one batch so the log
/// holds the same number of frames whatever `n` is.
fn checkpoint_allocs(n: i64) -> u64 {
    use relic_persist::{DurableRelation, GroupCommitPolicy};
    let dir =
        std::env::temp_dir().join(format!("relic_zero_alloc_ckpt_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let u : {host,peer} . {tag,bytes} = unit {tag,bytes} in
         let h : {host} . {peer,tag,bytes} = {peer} -[avl]-> u in
         let x : {} . {host,peer,tag,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let col = |name| cat.col(name).unwrap();
    let (host, peer, tag, bytes) = (col("host"), col("peer"), col("tag"), col("bytes"));
    let spec = RelSpec::new(cat.all()).with_fd(host | peer, tag | bytes);
    let policy = GroupCommitPolicy::manual();
    let rel = DurableRelation::create(&dir, &cat, spec, d, host.set(), 4, true, policy).unwrap();
    let inserted = rel
        .insert_many((0..n).map(|i| {
            Tuple::from_pairs([
                (host, Value::from(i % 64)),
                (peer, Value::from(i)),
                (tag, Value::from(format!("flow-{i}").as_str())),
                (bytes, Value::from(i * 40)),
            ])
        }))
        .unwrap();
    assert_eq!(inserted as i64, n);
    rel.commit().unwrap();
    let before = allocs();
    rel.checkpoint().unwrap();
    let delta = allocs() - before;
    drop(rel);
    let _ = std::fs::remove_dir_all(&dir);
    delta
}

/// A checkpoint streams the pinned snapshots into one image buffer: ten
/// times the tuples may cost a few more doublings of that buffer (the
/// string column outgrows its all-integer pre-sizing) and nothing else —
/// no allocation per tuple. This is what keeps a later refactor from
/// quietly re-materialising the image (a `Relation`, a `Vec<Tuple>`, a
/// clone per row: each is at least one allocation per tuple).
#[test]
fn checkpoint_allocations_do_not_grow_with_the_tuple_count() {
    let _serial = serial();
    let (small, big) = (checkpoint_allocs(2_000), checkpoint_allocs(20_000));
    assert!(
        big <= small + 16,
        "checkpoint of 20000 tuples allocated {big} times, of 2000 tuples {small}: \
         the difference must be buffer doublings, not a per-tuple term"
    );
    assert!(small < 2_000 / 4, "{small} allocations for 2000 tuples");
}
