//! Reclamation under a stale pin, deterministically: a long-held read
//! handle parks the retired snapshot chain on limbo, `reclaim` cannot free
//! past the pin, and dropping the handle lets the whole chain drain. What a
//! held view may answer under concurrent writes is checked by
//! `relic_oracle`'s `concurrent_history` rows.

use relic_concurrent::ConcurrentRelation;
use relic_core::{Op, RelRead};
use relic_decomp::parse;
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};

fn tup<const N: usize>(vals: [(ColId, i64); N]) -> Tuple {
    Tuple::from_pairs(vals.map(|(c, v)| (c, Value::from(v))))
}

#[test]
fn dropped_handle_lets_the_retired_chain_drain() {
    let mut cat = Catalog::new();
    let d = parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let [host, ts, bytes] = ["host", "ts", "bytes"].map(|c| cat.col(c).unwrap());
    let spec = RelSpec::new(cat.all()).with_fd(host | ts, bytes.set());
    let r = ConcurrentRelation::new(&cat, spec, d, host.set(), 4).unwrap();
    for h in 0..8 {
        for t in 0..4 {
            r.insert(tup([(host, h), (ts, t), (bytes, h + t)])).unwrap();
        }
    }
    // Settle: nothing pinned yet, limbo must be drainable to empty.
    r.reclaim();

    // A stale pin: `hoarder` collects once and never refreshes. Its model
    // is the committed state right now.
    let frozen = r.to_relation();
    let hoarder = r.read_handle();
    // An active reader: refreshes after every epoch, so each mutation
    // replaces a still-referenced published snapshot (which must then be
    // retired, not torn down).
    let mut active = r.read_handle();

    const EPOCHS: usize = 300;
    for e in 0..EPOCHS as i64 {
        let pattern = tup([(host, e % 8), (ts, e % 4)]);
        let changes = tup([(bytes, e)]);
        r.apply(Op::Update { pattern, changes }).unwrap();
        assert_eq!(active.view().len(), frozen.len());
    }

    // The chain is parked: retired snapshots accumulated behind the
    // hoarder's pin, and the writer-side drains could not free them.
    assert!(r.limbo_len() > 0, "stale pin must park retired snapshots");
    assert!(r.limbo_bytes() > 0, "parked snapshots must be accounted");
    // Pigeonhole: the heaviest of the 4 shards absorbed ≥ EPOCHS/4
    // publishes, all behind the hoarder's pin.
    assert!(r.pinned_epoch_lag() >= EPOCHS as u64 / 4, "no epoch lag");
    assert_eq!(r.reclaim(), 0, "reclaim freed past a pin");
    let parked = r.limbo_len();

    // The hoarder still answers exactly from its pin-time state.
    for h in 0..8 {
        let pat = tup([(host, h)]);
        assert_eq!(
            hoarder.cached().query(&pat, ts | bytes).unwrap(),
            frozen.query(&pat, ts | bytes),
            "a pinned view diverged from its pin-time state"
        );
    }

    // Dropping the pin lets the whole chain drain.
    drop(hoarder);
    let freed = r.reclaim();
    assert!(freed >= parked.saturating_sub(1), "the chain must drain");
    assert_eq!(r.limbo_len(), 0, "limbo must be empty after the drain");
    assert_eq!(r.limbo_bytes(), 0, "limbo bytes must return to zero");

    // The active handle is pinned at the current epochs: no lag left.
    active.view();
    assert_eq!(r.pinned_epoch_lag(), 0, "a fresh pin has no lag");
    drop(active);
    r.validate().unwrap();
}
