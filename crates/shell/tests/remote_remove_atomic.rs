//! A shell `remove … where` against a served relation is one atomic write.
//!
//! One thread runs the shell's range removal over the wire while another,
//! in the serving process, keeps rewriting the payload of tuples that
//! already exist (a `with_partition_mut` read-modify-write that never adds
//! a key). Whatever the interleaving, once the removal returns no tuple
//! may match its predicate: the rewrites only replace tuples the removal
//! either removed whole or never saw. A removal spelled as "query the
//! matches, then remove each exact tuple" breaks this — a tuple rewritten
//! between the two steps no longer equals the one it was told to remove,
//! and survives, a state no serial order of the two writers produces.

use relic_core::RelRead;
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_server::{ServeHandle, ServerConfig};
use relic_shell::Session;
use relic_spec::{parse_pattern, Catalog, RelSpec, Tuple, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOSTS: i64 = 4;
const TS: i64 = 8;
const WHERE: &str = "ts between 2 and 5";

#[test]
fn remote_remove_where_leaves_no_match_under_concurrent_rewrites() {
    let dir = std::env::temp_dir().join(format!("relic_remote_rw_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cat = Catalog::new();
    let d = relic_decomp::parse(
        &mut cat,
        "let u : {host,ts} . {bytes} = unit {bytes} in
         let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
         let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
    )
    .unwrap();
    let [host, ts, bytes] = ["host", "ts", "bytes"].map(|c| cat.col(c).unwrap());
    let spec = RelSpec::new(cat.all()).with_fd(host | ts, bytes.set());
    let policy = GroupCommitPolicy::manual();
    let rel = DurableRelation::create(&dir, &cat, spec, d, host.set(), 2, true, policy).unwrap();
    let rel = Arc::new(rel);
    let server = ServeHandle::spawn(Arc::clone(&rel), ServerConfig::default()).unwrap();
    let mut shell = Session::new();
    shell
        .eval(&format!("connect r to \"{}\"", server.addr()))
        .unwrap();
    let pattern = parse_pattern(&cat, WHERE).unwrap();
    let key = |h: i64, t: i64| Tuple::from_pairs([(host, Value::from(h)), (ts, Value::from(t))]);
    let fill = || {
        let rows = (0..HOSTS).flat_map(|h| (0..TS).map(move |t| (h, t)));
        let rows =
            rows.map(|(h, t)| key(h, t).merge(&Tuple::from_pairs([(bytes, Value::from(0))])));
        // Keys still present keep their (bumped) rows: only absent keys
        // are inserted, so the refill adds no FD conflict.
        let view = rel.read_view();
        let absent: Vec<Tuple> = rows
            .filter(|t| !view.contains_matching(&t.project(host | ts)).unwrap())
            .collect();
        rel.insert_many(absent).unwrap();
    };

    let stop = AtomicBool::new(false);
    let violation = std::thread::scope(|s| {
        s.spawn(|| {
            // Bump the payload of every existing key, round after round.
            while !stop.load(Ordering::Relaxed) {
                for (h, t) in (0..HOSTS).flat_map(|h| (0..TS).map(move |t| (h, t))) {
                    let k = key(h, t);
                    rel.with_partition_mut(&k, |p| {
                        let Some(row) = p.query(&k, host | ts | bytes).unwrap().pop() else {
                            return;
                        };
                        let b = row.get(bytes).and_then(Value::as_int).unwrap();
                        p.remove(&k).unwrap();
                        let bumped = Tuple::from_pairs([(bytes, Value::from(b + 1))]);
                        p.insert(row.merge(&bumped)).unwrap();
                    })
                    .unwrap();
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut violation = None;
        while violation.is_none() && Instant::now() < deadline {
            fill();
            shell.eval(&format!("remove r where {WHERE}")).unwrap();
            let left = rel.read_view().query_where(&pattern, cat.all()).unwrap();
            if !left.is_empty() {
                violation = Some(left);
            }
        }
        stop.store(true, Ordering::Relaxed);
        violation
    });
    assert_eq!(
        violation, None,
        "tuples matching `{WHERE}` survived its removal"
    );
    drop(shell);
    server.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
