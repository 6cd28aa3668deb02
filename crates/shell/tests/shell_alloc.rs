//! Allocation accounting for warm shell queries: a multi-relation
//! aggregate join streamed through `query_for_each_bindings` must not
//! allocate per emitted row. The test can't demand literally zero
//! allocations per *query* (parsing the line and compiling the plan
//! allocate by design) — instead it runs the same warm query over a 10×
//! larger dataset and requires the allocation count to stay flat, which
//! is only possible if the per-row path is allocation-free. It does so
//! twice: with `flows` as a plain `create relation` makes it (the join
//! probes it on `local`), and with `flows` flat (the join sweeps it, and
//! allocates for its build side only).

use relic_shell::{Outcome, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread because the harness runs
    /// the tests on parallel threads; a session allocates only on its
    /// caller's thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const initializer and no destructor: usable even while the thread
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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const QUERY: &str = "select count(*), sum(bytes), max(bytes) from flows join addrs where tier = 0";

/// `flows` as one hash on its whole key.
const FLAT: &str = " using let u : {local, remote} . {bytes} = unit {bytes} in \
                    let r : {} . {local, remote, bytes} = {local, remote} -[htable]-> u in r";

/// Builds a session with `flows` rows spread over 4 local addresses;
/// `using` is appended to the `create` of `flows`.
fn session(flows: usize, using: &str) -> Session {
    let mut s = Session::new();
    s.eval(&format!(
        "create relation flows(local:16, remote:16, bytes) fd local, remote -> bytes{using}"
    ))
    .unwrap();
    s.eval("create relation addrs(local:16, owner, tier) fd local -> owner, tier")
        .unwrap();
    for h in 0..4 {
        s.eval(&format!(
            "insert addrs local = {h}, owner = \"team-{}\", tier = {}",
            h % 2,
            h % 2
        ))
        .unwrap();
    }
    for i in 0..flows {
        s.eval(&format!(
            "insert flows local = {}, remote = {}, bytes = {}",
            i % 4,
            100 + i,
            i
        ))
        .unwrap();
    }
    s
}

/// Allocation count of one warm run of [`QUERY`].
fn warm_query_allocs(s: &mut Session) -> u64 {
    let expected = match s.eval(QUERY).unwrap() {
        Outcome::Text(t) => t,
        other => panic!("unexpected outcome {other:?}"),
    };
    // Warm again so every lazily-built cache (plans, binding pools) has
    // seen this exact query shape.
    s.eval(QUERY).unwrap();
    let before = allocs();
    let got = s.eval(QUERY).unwrap();
    let delta = allocs() - before;
    assert_eq!(got, Outcome::Text(expected));
    delta
}

/// 10× the rows, same allocation count: nothing allocates per row.
fn assert_flat(using: &str, strategy: &str) {
    let mut small = session(100, using);
    let mut large = session(1000, using);
    let plan = match large.eval(&format!("plan {QUERY}")).unwrap() {
        Outcome::Text(t) => t,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert!(plan.contains(strategy), "{plan}");
    let a_small = warm_query_allocs(&mut small);
    let a_large = warm_query_allocs(&mut large);
    assert_eq!(
        a_small, a_large,
        "warm query allocations scale with data: {a_small} (100 rows) vs {a_large} (1000 rows)"
    );
}

#[test]
fn warm_join_aggregates_do_not_allocate_per_row() {
    assert_flat("", "probe on local");
}

#[test]
fn a_warm_sweep_allocates_for_its_build_side_only() {
    assert_flat(FLAT, "sweep, build on addrs (local)");
}
