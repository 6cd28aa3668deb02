//! The replicated flow daemon, end to end across **two OS processes**: a
//! child process runs a durable IpCap-style primary and serves its log
//! over TCP; this (parent) process runs a follower that bootstraps, tails
//! the stream, and survives the child being killed with SIGKILL
//! mid-stream.
//!
//! Proven here:
//!
//! * **Kill-safety** — after the hard kill, reopening the child's data
//!   directory recovers every commit up to (at least) the last frame it
//!   shipped: the dead primary lost nothing the follower ever saw.
//! * **Exact prefix** — the follower's frozen state equals the
//!   deterministic reference model at exactly its applied sequence
//!   number: no torn, reordered, or invented operation.
//! * **Reads never regress** — the follower's applied watermark is
//!   monotone across every poll of the catch-up loop.
//! * **Failover** — the follower promotes into a term-1 primary that
//!   accepts writes, while the stale primary resurrected from the child's
//!   directory is fenced by the term check on first contact.
//!
//! Process choreography: the parent re-execs its own test binary filtered
//! to [`child_primary_process`], which is a no-op unless
//! `RELIC_REPLICA_CHILD` names a scratch directory; the child publishes
//! its ephemeral port through a port file (write + atomic rename).

use relic_core::Op;
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_replica::{Follower, InProcTransport, Primary, ReplicaError, TcpTransport};
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Cols {
    local: ColId,
    remote: ColId,
    bytes: ColId,
}

fn flow_parts() -> (Catalog, Cols, RelSpec, relic_decomp::Decomposition) {
    let mut cat = Catalog::new();
    let d = relic_decomp::parse(
        &mut cat,
        "let u : {local,remote} . {bytes} = unit {bytes} in
         let y : {local} . {remote,bytes} = {remote} -[htable]-> u in
         let x : {} . {local,remote,bytes} = {local} -[avl]-> y in x",
    )
    .unwrap();
    let cols = Cols {
        local: cat.col("local").unwrap(),
        remote: cat.col("remote").unwrap(),
        bytes: cat.col("bytes").unwrap(),
    };
    let spec = RelSpec::new(cat.all()).with_fd(cols.local | cols.remote, cols.bytes.set());
    (cat, cols, spec, d)
}

fn make_primary(dir: &Path) -> (Cols, Primary) {
    let (cat, cols, spec, d) = flow_parts();
    let rel = DurableRelation::create(
        dir,
        &cat,
        spec,
        d,
        cols.local.set(),
        4,
        true,
        GroupCommitPolicy::manual(),
    )
    .unwrap();
    // A small batch so catch-up spans many TCP round trips.
    (cols, Primary::with_max_batch_bytes(rel, 256))
}

const N_OPS: u64 = 240;

/// The deterministic packet workload both processes can derive: op `i`
/// accounts `bytes = i` against flow `(i % 7, i % 3)` — upserts included,
/// so the stream exercises remove+insert record pairs, not just inserts.
fn op_tuple(cols: &Cols, i: u64, prev_bytes: i64) -> (Tuple, Option<Tuple>) {
    let key = Tuple::from_pairs([
        (cols.local, Value::from((i % 7) as i64)),
        (cols.remote, Value::from((i % 3) as i64)),
    ]);
    let full = key.merge(&Tuple::from_pairs([(
        cols.bytes,
        Value::from(prev_bytes + i as i64),
    )]));
    (full, if prev_bytes > 0 { Some(key) } else { None })
}

/// Applies op `i` to `p` (the child's side), one commit per op.
fn apply_op(
    p: &Primary,
    cols: &Cols,
    i: u64,
    acc: &mut std::collections::HashMap<(u64, u64), i64>,
) {
    let slot = acc.entry((i % 7, i % 3)).or_insert(0);
    let (full, remove_key) = op_tuple(cols, i, *slot);
    if let Some(key) = remove_key {
        p.apply(Op::Remove(key)).unwrap();
    }
    p.apply(Op::Insert(full)).unwrap();
    *slot += i as i64;
    p.commit().unwrap();
}

/// The reference model at **record** sequence number `k`, rebuilt in
/// memory by the parent without any I/O. The child's workload logs one
/// insert record for a flow's first packet and a remove+insert *pair* for
/// every later one, so the parent replays that exact record stream (meta
/// frame at seq 0) — a replica may legitimately freeze between a pair's
/// remove and insert, and the model captures that state too.
fn reference_at(k: u64) -> Vec<(i64, i64, i64)> {
    fn to_rows(acc: &std::collections::HashMap<(u64, u64), i64>) -> Vec<(i64, i64, i64)> {
        let mut rows: Vec<(i64, i64, i64)> = acc
            .iter()
            .map(|(&(l, r), &b)| (l as i64, r as i64, b))
            .collect();
        rows.sort();
        rows
    }
    let mut acc: std::collections::HashMap<(u64, u64), i64> = std::collections::HashMap::new();
    if k == 0 {
        return vec![];
    }
    let mut seq = 0u64;
    for i in 1..=N_OPS {
        let key = (i % 7, i % 3);
        if acc.contains_key(&key) {
            seq += 1; // the pair's remove record
            if seq == k {
                acc.remove(&key);
                return to_rows(&acc);
            }
        }
        seq += 1; // the insert record
        *acc.entry(key).or_insert(0) += i as i64;
        if seq == k {
            return to_rows(&acc);
        }
    }
    to_rows(&acc)
}

/// Extracts sorted `(local, remote, bytes)` rows from a follower/relation
/// snapshot for comparison with [`reference_at`].
fn rows_of(rel: &relic_spec::Relation, cols: &Cols) -> Vec<(i64, i64, i64)> {
    let mut rows: Vec<(i64, i64, i64)> = rel
        .iter()
        .map(|t| {
            (
                t.get(cols.local).and_then(Value::as_int).unwrap(),
                t.get(cols.remote).and_then(Value::as_int).unwrap(),
                t.get(cols.bytes).and_then(Value::as_int).unwrap(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// The child half: only active when re-exec'd with `RELIC_REPLICA_CHILD`.
/// Creates the primary, publishes its port, then commits the deterministic
/// workload one op at a time while serving the log — until SIGKILLed.
#[test]
fn child_primary_process() {
    let Ok(dir) = std::env::var("RELIC_REPLICA_CHILD") else {
        return; // normal test runs: nothing to do
    };
    let dir = PathBuf::from(dir);
    let (cols, p) = make_primary(&dir);
    let p = Arc::new(p);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let port_file = PathBuf::from(std::env::var("RELIC_REPLICA_PORTFILE").unwrap());
    let tmp = port_file.with_extension("tmp");
    std::fs::write(&tmp, port.to_string()).unwrap();
    std::fs::rename(&tmp, &port_file).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let p = Arc::clone(&p);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_tcp_entry(p, listener, stop))
    };

    let mut acc = std::collections::HashMap::new();
    for i in 1..=N_OPS {
        apply_op(&p, &cols, i, &mut acc);
        std::thread::sleep(Duration::from_millis(2));
    }
    // Keep serving until the parent kills us.
    server.join().unwrap();
}

fn serve_tcp_entry(p: Arc<Primary>, listener: TcpListener, stop: Arc<AtomicBool>) {
    relic_replica::serve_tcp(p, listener, stop).unwrap();
}

#[test]
fn replicated_flow_daemon_survives_primary_kill() {
    if std::env::var("RELIC_REPLICA_CHILD").is_ok() {
        return; // we *are* the child; only `child_primary_process` runs
    }
    let scratch = std::env::temp_dir().join(format!("relic_repl_ipcap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let child_dir = scratch.join("primary");
    let follower_dir = scratch.join("follower");
    let port_file = scratch.join("port");

    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["child_primary_process", "--exact", "--nocapture"])
        .env("RELIC_REPLICA_CHILD", &child_dir)
        .env("RELIC_REPLICA_PORTFILE", &port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Port-file handshake.
    let deadline = Instant::now() + Duration::from_secs(20);
    let port: u16 = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            break s.trim().parse().unwrap();
        }
        assert!(Instant::now() < deadline, "child never published its port");
        std::thread::sleep(Duration::from_millis(10));
    };
    let addr = format!("127.0.0.1:{port}").parse().unwrap();
    let (_, cols, _, _) = {
        let (cat, cols, spec, d) = flow_parts();
        (cat, cols, spec, d)
    };

    // Follower: bootstrap over TCP, then tail the live stream. The applied
    // watermark must be monotone across every poll — reads never regress.
    let mut t = TcpTransport::connect(addr);
    let mut f = Follower::bootstrap(&follower_dir, &mut t).unwrap();
    let mut watermark = f.applied_seq();
    let kill_threshold = N_OPS / 3;
    loop {
        match f.sync_once(&mut t) {
            Ok(prog) => {
                assert!(
                    f.applied_seq() >= watermark,
                    "applied watermark regressed: {} -> {}",
                    watermark,
                    f.applied_seq()
                );
                watermark = f.applied_seq();
                if prog.applied == 0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Err(e) => panic!("live tailing failed before the kill: {e}"),
        }
        if watermark >= kill_threshold {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never reached the kill threshold"
        );
    }

    // SIGKILL the primary mid-stream — no shutdown hooks, no flush.
    child.kill().unwrap();
    child.wait().unwrap();

    // Drain whatever the transport still yields, then verify the freeze.
    let mut dead = TcpTransport::connect(addr);
    dead.max_retries = 2;
    dead.backoff = Duration::from_millis(5);
    loop {
        match f.sync_once(&mut dead) {
            Ok(_) => continue,
            Err(ReplicaError::Disconnected) => break,
            Err(e) => panic!("unexpected error draining after kill: {e}"),
        }
    }
    let frozen_seq = f.applied_seq();
    assert!(frozen_seq >= kill_threshold);

    // Exact prefix: the follower's rows equal the deterministic reference
    // model at exactly `frozen_seq` ops (seq k == op k: one commit each,
    // meta frame at seq 0).
    assert_eq!(
        rows_of(&f.to_relation(), &cols),
        reference_at(frozen_seq),
        "follower froze on a non-prefix state"
    );

    // Kill-safety: the child's directory — fsynced WAL — recovers at
    // least everything it ever shipped.
    let recovered = DurableRelation::open(&child_dir, GroupCommitPolicy::manual()).unwrap();
    assert!(
        recovered.durable_seq() >= frozen_seq,
        "the killed primary lost shipped commits: recovered {} < shipped {}",
        recovered.durable_seq(),
        frozen_seq
    );
    assert_eq!(
        rows_of(&recovered.to_relation(), &cols),
        reference_at(recovered.durable_seq()),
        "the recovered primary is itself a non-prefix state"
    );

    // Failover: the follower promotes under term 1 and accepts writes.
    let promoted = f.promote(GroupCommitPolicy::manual()).unwrap();
    assert_eq!(promoted.term(), 1);
    promoted
        .apply(Op::Insert(Tuple::from_pairs([
            (cols.local, Value::from(99i64)),
            (cols.remote, Value::from(99i64)),
            (cols.bytes, Value::from(1i64)),
        ])))
        .unwrap();
    promoted.commit().unwrap();

    // The stale primary, resurrected from the child's directory at term 0,
    // is fenced on first contact with the new regime.
    let stale = Arc::new(Primary::new(recovered));
    let mut f2 = {
        let promoted = Arc::new(promoted);
        let mut tp = InProcTransport::new(Arc::clone(&promoted));
        let dir2 = scratch.join("follower2");
        let mut f2 = Follower::bootstrap(&dir2, &mut tp).unwrap();
        f2.catch_up(&mut tp, 2, Duration::from_millis(1)).unwrap();
        assert_eq!(f2.term(), 1);
        f2
    };
    let mut t_stale = InProcTransport::new(Arc::clone(&stale));
    match f2.sync_once(&mut t_stale) {
        Err(ReplicaError::Fenced { ours: 1, theirs: 0 }) => {}
        other => panic!("stale primary was not fenced: {other:?}"),
    }
    assert!(stale.is_fenced());

    let _ = std::fs::remove_dir_all(&scratch);
}
