//! End-to-end serving: real sockets, real workers, real WAL.
//!
//! Covers the protocol surface (catalog/insert/query/query-where/commit/
//! stats), the coalesced-ack counting convention under deep pipelining,
//! read-your-writes ordering, cross-connection visibility after commit,
//! admission-control shedding under a pinned reader, and durability of
//! served writes across a reopen.

use relic_core::netmsg::{NetRequest, NetResponse};
use relic_core::Op;
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_server::{Client, ServeHandle, ServerConfig, ServerError};
use relic_spec::{Catalog, ColSet, RelSpec, Tuple, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("relic_serve_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kv_relation(dir: &Path) -> Arc<DurableRelation> {
    let mut cat = Catalog::new();
    let k = cat.intern("k");
    let v = cat.intern("v");
    let spec = RelSpec::new(k | v).with_fd(k.set(), v.set());
    let d = relic_decomp::parse(
        &mut cat,
        "let u : {k} . {v} = unit {v} in
         let x : {} . {k,v} = {k} -[htable]-> u in x",
    )
    .unwrap();
    Arc::new(
        DurableRelation::create(
            dir,
            &cat,
            spec,
            d,
            k.set(),
            2,
            true,
            GroupCommitPolicy::manual(),
        )
        .unwrap(),
    )
}

fn kv(cat: &Catalog, k: i64, v: i64) -> Tuple {
    let (ck, cv) = (cat.col("k").unwrap(), cat.col("v").unwrap());
    Tuple::from_pairs([(ck, Value::from(k)), (cv, Value::from(v))])
}

#[test]
fn protocol_round_trip_and_read_your_writes() {
    let dir = case_dir("roundtrip");
    let rel = kv_relation(&dir);
    let server = ServeHandle::spawn(Arc::clone(&rel), ServerConfig::default()).unwrap();

    let mut c = Client::connect(server.addr()).unwrap();
    let (cat, spec) = c.catalog().unwrap();
    assert_eq!(spec.cols().len(), 2);
    let ck = cat.col("k").unwrap();

    // Insert then immediately query on the same connection: the queued
    // mutation must be visible (read-your-writes forces the batch flush).
    assert_eq!(c.insert(kv(&cat, 1, 10)).unwrap(), 1);
    let rows = c.query(Tuple::empty(), ColSet::empty()).unwrap();
    assert_eq!(rows.len(), 1);

    // Pattern query and predicate query agree.
    for i in 2..=9i64 {
        c.insert(kv(&cat, i, i * 10)).unwrap();
    }
    let by_pat = c
        .query(
            Tuple::from_pairs([(ck, Value::from(3i64))]),
            ColSet::empty(),
        )
        .unwrap();
    assert_eq!(by_pat.len(), 1);
    let by_pred = c.query_where("k between 3 and 5", ColSet::empty()).unwrap();
    assert_eq!(by_pred.len(), 3);
    // A bad predicate is a typed remote error, not a hang or close.
    match c.query_where("nonsense ][", ColSet::empty()) {
        Err(ServerError::Remote(_)) => {}
        other => panic!("expected remote parse error, got {other:?}"),
    }

    // Commit returns a nonzero durable frontier; stats see a flushed WAL.
    let seq = c.commit().unwrap();
    assert!(seq > 0);
    let stats = c.stats().unwrap();
    assert_eq!(stats.len, 9);
    assert_eq!(stats.wal_pending_bytes, 0);

    // Remove round-trips too.
    assert_eq!(
        c.apply(Op::Remove(Tuple::from_pairs([(ck, Value::from(9i64))])))
            .unwrap(),
        1
    );

    // Cross-connection visibility: a second client sees committed state.
    let mut c2 = Client::connect(server.addr()).unwrap();
    let rows = c2.query(Tuple::empty(), ColSet::empty()).unwrap();
    assert_eq!(rows.len(), 8);

    let stats = server.stop().unwrap();
    assert_eq!(stats.connections, 2);
    assert!(stats.requests >= 16);
    assert!(stats.batch_flushes >= 1);

    // Served writes were group-committed: they survive a reopen.
    drop(c);
    drop(c2);
    drop(rel);
    let reopened = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert_eq!(reopened.len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A migration arrives as text from an untrusted peer. Text naming 65
/// columns and an inadequate decomposition are each refused with a typed
/// error while the worker keeps serving; an adequate one is applied,
/// logged, and comes back on reopen.
#[test]
fn served_migrations_are_refused_or_made_durable() {
    let dir = case_dir("migrate");
    let rel = kv_relation(&dir);
    let server = ServeHandle::spawn(Arc::clone(&rel), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (cat, _) = c.catalog().unwrap();
    c.insert(kv(&cat, 1, 10)).unwrap();
    let wide: Vec<String> = (0..65).map(|i| format!("c{i}")).collect();
    let wide = format!("let u : {{}} . {{{0}}} = unit {{{0}}} in u", wide.join(","));
    let inadequate = "let u : {} . {k} = unit {k} in u".to_string();
    for bad in [wide, inadequate] {
        match c.apply(Op::Migrate(bad)) {
            Err(ServerError::Remote(_)) => {}
            other => panic!("expected a refusal, got {other:?}"),
        }
        let all = c.query(Tuple::empty(), ColSet::EMPTY).unwrap();
        assert_eq!(all, vec![kv(&cat, 1, 10)], "the worker still serves");
    }
    let avl = "let u : {k} . {v} = unit {v} in let x : {} . {k,v} = {k} -[avl]-> u in x";
    assert_eq!(c.apply(Op::Migrate(avl.to_string())).unwrap(), 0);
    c.commit().unwrap();
    drop(c);
    server.stop().unwrap();
    let live = rel.to_relation();
    drop(rel);
    let back = DurableRelation::open(&dir, GroupCommitPolicy::manual()).unwrap();
    assert_eq!(back.to_relation(), live);
    let d = relic_decomp::parse(&mut back.catalog().clone(), avl).unwrap();
    assert_eq!(back.read_view().shard(0).decomposition(), &d);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_acks_sum_exactly_under_coalescing() {
    let dir = case_dir("pipeline");
    let rel = kv_relation(&dir);
    let server = ServeHandle::spawn(Arc::clone(&rel), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (cat, _) = c.catalog().unwrap();

    // Fire a deep pipeline of inserts without reading a single response:
    // the server is free to coalesce them into arbitrary runs.
    const N: i64 = 500;
    for i in 0..N {
        c.send(&NetRequest::Insert {
            tuple: kv(&cat, i, i),
        })
        .unwrap();
    }
    // Plus a duplicate run that must count zero.
    for i in 0..50 {
        c.send(&NetRequest::Insert {
            tuple: kv(&cat, i, i),
        })
        .unwrap();
    }
    let mut total = 0u64;
    for _ in 0..(N + 50) {
        match c.recv().unwrap() {
            NetResponse::Ack { n } => total += n,
            other => panic!("expected ack, got {other:?}"),
        }
    }
    // However the server batched, the sum over acks is exact.
    assert_eq!(total, N as u64);
    assert_eq!(c.in_flight(), 0);

    let stats = server.stop().unwrap();
    // Coalescing must actually have happened: far fewer flushes (each one
    // group commit) than mutations.
    assert!(
        stats.batch_flushes < stats.mutations / 2,
        "expected coalescing: {} flushes for {} mutations",
        stats.batch_flushes,
        stats.mutations
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_sheds_under_pinned_reader_pressure() {
    let dir = case_dir("shed");
    let rel = kv_relation(&dir);
    let mut config = ServerConfig::default();
    // Zero tolerance: any pinned-reader lag sheds.
    config.admission.shed_epoch_lag = 0;
    config.admission.retry_ms = 11;
    let server = ServeHandle::spawn(Arc::clone(&rel), config).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (cat, _) = c.catalog().unwrap();

    // No pressure yet: accepted (workers refresh their own pins, so only
    // a genuinely stale external reader counts as lag). Retry through
    // the brief window where an idle worker's pins trail a publish.
    let insert_retrying = |c: &mut Client, k: i64| loop {
        match c.insert(kv(&cat, k, k)) {
            Ok(n) => return n,
            Err(ServerError::Busy { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    };
    assert_eq!(insert_retrying(&mut c, 1), 1);

    // Pin a reader, then mutate so the pin starts lagging: the pinned
    // handle holds pre-mutation epochs, pressure builds, and the server
    // starts shedding.
    let pinned = rel.read_handle();
    insert_retrying(&mut c, 2);
    let mut shed = None;
    for i in 3..40i64 {
        match c.insert(kv(&cat, i, i)) {
            Ok(_) => {}
            Err(ServerError::Busy { retry_ms }) => {
                shed = Some(retry_ms);
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(shed, Some(11), "expected a Busy shed under pinned pressure");

    // Releasing the reader drains the pressure; the server recovers.
    drop(pinned);
    let mut recovered = false;
    for i in 100..140i64 {
        if c.insert(kv(&cat, i, i)).is_ok() {
            recovered = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(recovered, "server must accept again once pressure drains");

    let stats = server.stop().unwrap();
    assert!(stats.sheds >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_connections_each_read_their_own_writes() {
    let dir = case_dir("many_conns");
    let rel = kv_relation(&dir);
    let server = ServeHandle::spawn(Arc::clone(&rel), ServerConfig::default()).unwrap();
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (cat, _) = c.catalog().unwrap();
                let ck = cat.col("k").unwrap();
                for i in 0..50i64 {
                    let key = t * 1000 + i;
                    c.insert(kv(&cat, key, i)).unwrap();
                    // Immediately visible on this connection.
                    let rows = c
                        .query(Tuple::from_pairs([(ck, Value::from(key))]), ColSet::empty())
                        .unwrap();
                    assert_eq!(rows.len(), 1, "thread {t} lost its own write {i}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(rel.len(), 8 * 50);
    server.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
