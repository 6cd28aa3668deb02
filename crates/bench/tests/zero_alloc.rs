//! Allocation accounting for the warm query hot path: with a cached plan and
//! a reused scratch accumulator, `query_for_each_bindings` must perform
//! **zero heap allocations per emitted tuple** — in fact zero per query —
//! on both lookup plans and scan/join plans over every container kind,
//! including intrusive lists.
//!
//! A counting `GlobalAlloc` wraps the system allocator; tests snapshot the
//! calling thread's allocation counter around the measured loop. (This file
//! is its own test binary, so installing the global allocator affects only
//! these tests.)

use relic_concurrent::ConcurrentRelation;
use relic_core::netmsg::encode_rows_into;
use relic_core::{Bindings, FlatRows, RelRead, SynthRelation};
use relic_decomp::parse;
use relic_spec::{Catalog, ColSet, Pattern, Pred, RelSpec, Tuple, Value};
use relic_systems::ipcap::{default_decomposition, flow_spec, FlowStore, Packet, SynthFlows};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (and reallocation) passed to the system
/// allocator, per thread.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread because the harness runs
    /// tests on parallel threads and spawns the next test's thread while one
    /// is measuring; the code under test allocates only on its caller's
    /// thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // No destructor and a const initializer: usable even while the thread
    // is being torn down, which `try_with` tolerates anyway.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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

/// A whole-relation sweep over `hashjoin_distinct`'s two-panel
/// decomposition: ⟨id, a, b⟩ split into an a-keyed and a b-keyed panel, so
/// the sweep needs both join sides. In the default (optimistic) cost mode
/// its plan is a nested `qjoin`, whose grafted second leg reads the join
/// node's instance from an outer frame: still allocation-free when warm.
#[test]
fn warm_two_panel_join_sweep_allocates_nothing() {
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
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    for i in 0..100i64 {
        r.insert(Tuple::from_pairs([
            (id, Value::from(i)),
            (a, Value::from(i % 8)),
            (b, Value::from(i % 10)),
        ]))
        .unwrap();
    }
    let plan = r.plan_for(ColSet::EMPTY, cat.all()).unwrap();
    assert!(plan.contains("qjoin"), "{plan}");
    let mut scratch = Bindings::new();
    let empty = Tuple::empty();
    let sweep = |scratch: &mut Bindings| {
        let mut n = 0usize;
        r.query_for_each_bindings(scratch, &empty, cat.all(), |bb| {
            assert!(bb.get(a).is_some() && bb.get(b).is_some());
            n += 1;
        })
        .unwrap();
        n
    };
    assert_eq!(sweep(&mut scratch), 100);
    let before = allocs();
    let emitted: usize = (0..10).map(|_| sweep(&mut scratch)).sum();
    let delta = allocs() - before;
    assert_eq!(emitted, 100 * 10);
    assert_eq!(
        delta, 0,
        "warm two-panel join sweep allocated {delta} times over {emitted} emitted tuples"
    );
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

/// A `SynthFlows` table on the default decomposition that has accounted
/// and flushed a 2 048-packet trace over 512 flows once and then accounted
/// it again — every plan, scratch buffer and container warm, every flow
/// live — and the trace.
fn synth_flows() -> (SynthFlows, Vec<Packet>) {
    let (mut cat, cols, spec) = flow_spec();
    let d = default_decomposition(&mut cat);
    let mut flows = SynthFlows::new(&cat, cols, &spec, d).unwrap();
    let trace: Vec<Packet> = (0..2048i64)
        .map(|i| (i % 64, (i / 64) % 8, 40 + i))
        .collect();
    for p in &trace {
        flows.account(*p).unwrap();
    }
    flows.flush().unwrap();
    for p in &trace {
        flows.account(*p).unwrap();
    }
    (flows, trace)
}

/// A sweep that leaves `local` free crosses the `avl` edge with the
/// in-order visitor, not `AvlMap::iter`'s heap-allocated stack: the query
/// path with an empty pattern and the `scan_all` of a pinned snapshot (what
/// checkpoints and reports read through) both stay at zero when warm.
#[test]
fn warm_avl_sweep_allocates_nothing() {
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

/// The IpCap loop's warm in-place `update`: a flow's `(bytes, pkts)` unit
/// rewritten under its `(local, remote)` key, with FD checking off as the
/// daemon runs it. The key locates the flow's inline unit directly — no
/// plan, no projected tuple — and the two values are overwritten where
/// they lie.
#[test]
fn warm_in_place_update_allocates_nothing() {
    let (cat, mut r) = flows();
    r.set_fd_checking(false);
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
    let keys: Vec<Tuple> = (0..2048i64)
        .map(|i| Tuple::from_pairs([(local, Value::from(i % 64)), (remote, Value::from(i << 12))]))
        .collect();
    let counters = |round: i64| -> Vec<Tuple> {
        (0..2048i64)
            .map(|i| {
                Tuple::from_pairs([
                    (bytes, Value::from(i * 40 + round * 1500)),
                    (pkts, Value::from(i + round)),
                ])
            })
            .collect()
    };
    let (warm, measured) = (counters(1), counters(2));
    for (key, changes) in keys.iter().zip(&warm) {
        assert!(r.update(key, changes).unwrap());
    }
    let before = allocs();
    for (key, changes) in keys.iter().zip(&measured) {
        assert!(r.update(key, changes).unwrap());
    }
    let delta = allocs() - before;
    assert_eq!(
        delta,
        0,
        "{delta} allocations over {} warm in-place updates",
        keys.len()
    );
    for (key, changes) in keys.iter().zip(&measured) {
        assert_eq!(r.query(key, bytes | pkts).unwrap(), vec![changes.clone()]);
    }
    r.validate().unwrap();
}

/// The IpCap daemon's packet on a live flow, through `SynthFlows`: a keyed
/// read of the counters streamed through the table's scratch, then the
/// keyed in-place `update` with the table's reused key and change tuples.
#[test]
fn warm_synth_flows_account_allocates_nothing() {
    let (mut flows, trace) = synth_flows();
    let before = allocs();
    for p in &trace {
        flows.account(*p).unwrap();
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "{delta} allocations over {} packets", trace.len());
    assert_eq!(flows.live_flows(), 512);
}

/// A `SynthFlows` flush streams every flow into its output vector, sorts
/// it and empties the table in place: the vector is its only allocation.
#[test]
fn warm_synth_flows_flush_allocates_only_its_output() {
    let (mut table, _) = synth_flows();
    let before = allocs();
    let log = table.flush().unwrap();
    let delta = allocs() - before;
    assert_eq!(log.len(), 512);
    assert!(log.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(delta, 1, "flush: {delta}");
}

/// A warm key `insert` + `remove` pair on the IpCap table, FD checking on:
/// a fresh remote under a standing local, then its removal by key (what
/// the benchmark's `core.allocs_per_write` counts). Both walks reuse the
/// relation's scratch, key buffer and per-node instance buffer, and the
/// removal's cut is memoized. The stored entry holds its one-column key and
/// two-column unit in place, so the insert allocates nothing; what is left
/// is the removal's one matched row, its vector and its tuple.
#[test]
fn warm_insert_remove_pair_allocates_only_the_removed_row() {
    let (cat, mut r) = flows();
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
    let writes = || -> Vec<(Tuple, Tuple)> {
        (0..512i64)
            .map(|i| {
                let key = [
                    (local, Value::from(i % 64)),
                    (remote, Value::from((i << 12) + 1)),
                ];
                let counters = [(bytes, Value::from(40 + i)), (pkts, Value::from(1))];
                (
                    Tuple::from_pairs(key.clone().into_iter().chain(counters)),
                    Tuple::from_pairs(key),
                )
            })
            .collect()
    };
    let pairs = |r: &mut SynthRelation, writes: Vec<(Tuple, Tuple)>| {
        for (tuple, key) in writes {
            assert!(r.insert(tuple).unwrap());
            assert_eq!(r.remove(&key).unwrap(), 1);
        }
    };
    pairs(&mut r, writes());
    let measured = writes();
    let n = measured.len() as u64;
    let before = allocs();
    pairs(&mut r, measured);
    let delta = allocs() - before;
    assert!(
        delta <= 2 * n,
        "{delta} allocations over {n} warm insert + remove pairs ({:.1} per pair)",
        delta as f64 / n as f64
    );
    assert_eq!(r.len(), 2048);
    r.validate().unwrap();
}

/// A warm `insert_many` on the IpCap table, FD checking on: 512 fresh
/// remotes under standing locals, after one insert + remove cycle of a
/// like batch. Each row walks its key guard once and goes in from the
/// guard's miss — no key tuple, no sort — and what it stores, a one-column
/// key and a two-column unit, sits in its container entry: no allocation
/// at all.
#[test]
fn warm_insert_many_allocates_nothing() {
    let (cat, mut r) = flows();
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
    let batch = |tag: i64| -> Vec<Tuple> {
        (0..512i64)
            .map(|i| {
                Tuple::from_pairs([
                    (local, Value::from(i % 64)),
                    (remote, Value::from((i << 12) + tag)),
                    (bytes, Value::from(40 + i)),
                    (pkts, Value::from(1)),
                ])
            })
            .collect()
    };
    let warm = batch(1);
    let keys: Vec<Tuple> = warm.iter().map(|t| t.project(local | remote)).collect();
    assert_eq!(r.insert_many(warm).unwrap(), 512);
    assert_eq!(r.remove_many(&keys).unwrap(), 512);
    let measured = batch(2);
    let n = measured.len() as u64;
    let before = allocs();
    let inserted = r.insert_many(measured).unwrap();
    let delta = allocs() - before;
    assert_eq!(inserted, 512);
    assert_eq!(
        delta,
        0,
        "{delta} allocations over a warm {n}-row insert_many ({:.2} per row)",
        delta as f64 / n as f64
    );
    assert_eq!(r.len(), 2048 + 512);
    r.validate().unwrap();
}

/// A warm insert whose inline unit is wider than an entry holds in place
/// (`{a, b, c}` under a one-column key): the unit's values go into one
/// exact-size box, so each row allocates exactly once — no `realloc`.
#[test]
fn warm_insert_of_a_three_column_unit_allocates_once() {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let w : {k} . {a,b,c} = unit {a,b,c} in
         let x : {} . {k,a,b,c} = {k} -[htable]-> w in x",
    )
    .unwrap();
    let col = |name| cat.col(name).unwrap();
    let (k, a, b, c) = (col("k"), col("a"), col("b"), col("c"));
    let spec = RelSpec::new(cat.all()).with_fd(k.set(), a | b | c);
    let mut r = SynthRelation::new(&cat, spec, d).unwrap();
    let row = |i: i64| {
        Tuple::from_pairs([
            (k, Value::from(i)),
            (a, Value::from(i + 1)),
            (b, Value::from(i + 2)),
            (c, Value::from(i + 3)),
        ])
    };
    let rows = |tag: i64| -> Vec<Tuple> { (0..512i64).map(|i| row(2 * i + tag)).collect() };
    let warm = rows(0);
    let keys: Vec<Tuple> = warm.iter().map(|t| t.project(k.set())).collect();
    assert_eq!(r.insert_many(warm).unwrap(), 512);
    assert_eq!(r.remove_many(&keys).unwrap(), 512);
    let measured = rows(1);
    let n = measured.len() as u64;
    let before = allocs();
    for t in measured {
        assert!(r.insert(t).unwrap());
    }
    let delta = allocs() - before;
    assert_eq!(delta, n, "{delta} allocations over {n} warm inserts");
    r.validate().unwrap();
}

/// The first write to an IpCap parent after a publish path-copies the
/// parent's container. Its entries hold their keys and units in place, so
/// the copy allocates the container's own buffers and nothing per entry:
/// a parent of 512 flows costs what a parent of 32 does. The 9 are the new
/// store version, its arena table and its two chunk tables, the parent's
/// chunk, the parent instance and its leaf slice, and the hash table's two
/// buffers.
#[test]
fn first_write_after_a_publish_allocates_per_container_not_per_entry() {
    let (cat, mut r) = flows();
    r.set_fd_checking(false);
    let col = |name| cat.col(name).unwrap();
    let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
    let flow = |l: i64, m: i64| -> [(relic_spec::ColId, Value); 2] {
        [(local, Value::from(l)), (remote, Value::from(m))]
    };
    // Local 1 000 gets 512 flows; each of locals 0..64 holds 32.
    for m in 0..512i64 {
        let counters = [(bytes, Value::from(m)), (pkts, Value::from(1))];
        r.insert(Tuple::from_pairs(flow(1000, m).into_iter().chain(counters)))
            .unwrap();
    }
    let counters = |v: i64| Tuple::from_pairs([(bytes, Value::from(v)), (pkts, Value::from(v))]);
    let (warm, measured) = (counters(7), counters(8));
    let first_write = |r: &mut SynthRelation, key: Tuple| -> u64 {
        // Warm the update's plan and the parent's path without a snapshot;
        // the measured update then changes a value, so it must copy.
        assert!(r.update(&key, &warm).unwrap());
        let snapshot = r.snapshot();
        let before = allocs();
        assert!(r.update(&key, &measured).unwrap());
        let delta = allocs() - before;
        drop(snapshot);
        delta
    };
    let small = first_write(&mut r, Tuple::from_pairs(flow(3, 3 << 12)));
    let large = first_write(&mut r, Tuple::from_pairs(flow(1000, 100)));
    assert_eq!(
        small, large,
        "32-entry parent: {small}, 512-entry parent: {large}"
    );
    assert!(small <= 9, "{small} allocations for one path copy");
    r.validate().unwrap();
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

/// A served read's whole server-side path: stream through a `ReadHandle`
/// into the reused flat row collector, sort and deduplicate its row index,
/// and encode the `Rows` payload into a reused byte buffer. Warm, a point
/// read and a 512-row scan allocate nothing.
#[test]
fn warm_served_reads_collect_and_encode_without_allocating() {
    let (cat, rel) = sharded_flows();
    let col = |name| cat.col(name).unwrap();
    let (local, remote) = (col("local"), col("remote"));
    let all = cat.all();
    let point = Tuple::from_pairs([(local, Value::from(5)), (remote, Value::from(5i64 << 12))]);
    let scan = Pattern::new().with(local, Pred::Between(Value::from(0), Value::from(15)));
    let mut handle = rel.read_handle();
    let (mut scratch, mut rows, mut bytes) = (Bindings::new(), FlatRows::new(), Vec::new());
    let mut serve = || {
        let mut answered = [0; 2];
        for (i, n) in answered.iter_mut().enumerate() {
            rows.begin(usize::MAX);
            if i == 0 {
                handle.query_for_each_bindings(&mut scratch, &point, all, |b| rows.push(b, all))
            } else {
                handle
                    .query_where_for_each_bindings(&mut scratch, &scan, all, |b| rows.push(b, all))
            }
            .unwrap();
            rows.finish();
            bytes.clear();
            encode_rows_into(&rows, &mut bytes);
            *n = rows.len();
        }
        (answered, bytes.len())
    };
    let warm = serve();
    assert_eq!(warm.0, [1, 512]);
    let before = allocs();
    for _ in 0..5 {
        assert_eq!(serve(), warm);
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "warm served reads allocated {delta} times collecting and encoding"
    );
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
    let (small, big) = (checkpoint_allocs(2_000), checkpoint_allocs(20_000));
    assert!(
        big <= small + 16,
        "checkpoint of 20000 tuples allocated {big} times, of 2000 tuples {small}: \
         the difference must be buffer doublings, not a per-tuple term"
    );
    assert!(small < 2_000 / 4, "{small} allocations for 2000 tuples");
}
