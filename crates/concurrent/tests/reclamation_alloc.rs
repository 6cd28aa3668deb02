//! Allocator-level proof that retired stores actually free.
//!
//! The epoch machinery's introspection counters (`limbo_bytes`) are
//! estimates; this harness measures ground truth. A counting
//! [`GlobalAlloc`] wrapper tracks live heap bytes for the whole test
//! binary (which is why this suite lives in its own integration-test
//! binary). The test parks hundreds of retired snapshots behind a stale
//! reader pin, confirms real heap growth while they are parked, then
//! drops the pin, reclaims, and asserts the heap returns to (near) the
//! pre-churn baseline — i.e. the limbo chain was the last owner and its
//! drain physically freed the retired stores, not just forgot them.
//!
//! Run under `RUSTFLAGS="-C debug-assertions"` in CI (the reclamation
//! job) so release-mode codegen keeps the store's internal invariant
//! checks armed while the allocator accounting runs.

use relic_concurrent::ConcurrentRelation;
use relic_core::Op;
use relic_decomp::parse;
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live-byte counting wrapper around the system allocator.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System` unchanged; only the
// accounting is added. The default `realloc`/`alloc_zeroed` impls route
// through `alloc`/`dealloc`, so overriding the pair keeps LIVE exact.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

struct Cols {
    host: ColId,
    ts: ColId,
    bytes: ColId,
}

fn setup(shards: usize) -> (Catalog, Cols, ConcurrentRelation) {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let cols = Cols {
        host: cat.col("host").unwrap(),
        ts: cat.col("ts").unwrap(),
        bytes: cat.col("bytes").unwrap(),
    };
    let spec = RelSpec::new(cat.all()).with_fd(cols.host | cols.ts, cols.bytes.set());
    let r = ConcurrentRelation::new(&cat, spec, d, cols.host.set(), shards).unwrap();
    (cat, cols, r)
}

fn tup(cols: &Cols, h: i64, t: i64, b: i64) -> Tuple {
    Tuple::from_pairs([
        (cols.host, Value::from(h)),
        (cols.ts, Value::from(t)),
        (cols.bytes, Value::from(b)),
    ])
}

/// Retired snapshots parked behind a stale pin hold real heap; dropping
/// the pin and reclaiming returns the heap to the pre-churn baseline.
#[test]
fn retired_stores_physically_free_on_drain() {
    const HOSTS: i64 = 16;
    const TS: i64 = 16;
    const EPOCHS: usize = 400;
    let (_cat, cols, r) = setup(4);
    for h in 0..HOSTS {
        for t in 0..TS {
            r.insert(tup(&cols, h, t, h * t)).unwrap();
        }
    }
    // Warm every lazily-grown structure the churn will exercise (update
    // path-copies, snapshot publication, handle registration), so the
    // baseline includes their steady-state capacity.
    {
        let mut warm = r.read_handle();
        for e in 0..8usize {
            let key = Tuple::from_pairs([
                (cols.host, Value::from((e as i64) % HOSTS)),
                (cols.ts, Value::from(0i64)),
            ]);
            let chg = Tuple::from_pairs([(cols.bytes, Value::from(-1i64))]);
            r.apply(Op::Update {
                pattern: key,
                changes: chg,
            })
            .unwrap();
            warm.view();
        }
    }
    r.reclaim();
    assert_eq!(r.limbo_len(), 0);
    let base = live();

    // The churn: a stale pin parks every epoch's retired snapshot while
    // an active reader keeps each replaced snapshot referenced at
    // retirement time (so it must park, not drop inline).
    let hoarder = r.read_handle();
    let mut active = r.read_handle();
    for e in 0..EPOCHS {
        let key = Tuple::from_pairs([
            (cols.host, Value::from((e as i64) % HOSTS)),
            (cols.ts, Value::from((e as i64 / HOSTS) % TS)),
        ]);
        let chg = Tuple::from_pairs([(cols.bytes, Value::from(e as i64))]);
        r.apply(Op::Update {
            pattern: key,
            changes: chg,
        })
        .unwrap();
        active.view();
    }
    let parked = r.limbo_len();
    assert!(parked > EPOCHS / 2, "the stale pin must park the churn");
    let held = live();
    assert!(
        held > base,
        "parked retired snapshots must hold real heap (held {held} vs base {base})"
    );
    let retained = held - base;

    // Drop the pins, drain, and the retired stores must physically free:
    // at least 80% of the heap the churn retained comes back.
    drop(hoarder);
    drop(active);
    let freed = r.reclaim();
    assert!(freed >= parked, "the whole chain must drain");
    assert_eq!(r.limbo_len(), 0);
    assert_eq!(r.limbo_bytes(), 0);
    let end = live();
    let leaked = end.saturating_sub(base);
    assert!(
        leaked < retained / 5,
        "retired stores must free on drain: base {base}, held {held}, end {end}"
    );
    r.validate().unwrap();
}
