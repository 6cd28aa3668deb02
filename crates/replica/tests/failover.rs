//! Crash-driven failover: promotion, term fencing, and exact
//! committed-history replay.
//!
//! The scenario family: a primary dies mid-stream; the most-caught-up
//! follower promotes itself under a bumped durable term; the promoted
//! primary accepts writes; the stale primary — resurrected from its own
//! directory — is fenced on first contact and its frames are refused by
//! term check; surviving followers adopt the new term in-band and
//! converge on the promoted primary's exact committed history.

mod common;

use common::*;
use relic_core::Op;
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_replica::{
    Follower, InProcTransport, Primary, ReplicaError, Request, Response, Transport,
};
use relic_spec::{Pattern, Tuple, Value};
use std::sync::Arc;
use std::time::Duration;

const BATCH: usize = 200;

fn catch_up(f: &mut Follower, t: &mut InProcTransport) {
    f.catch_up(t, 2, Duration::from_millis(1)).unwrap();
}

#[test]
fn promotion_bumps_a_durable_term_and_accepts_writes() {
    let pdir = tmpdir("promo_primary");
    let fdir = tmpdir("promo_follower");
    let (cols, p) = fresh_primary(&pdir, BATCH);
    apply_with_snapshots(&p, &random_ops(&cols, 25, 7));
    let before_crash = p.relation().to_relation();
    let p = Arc::new(p);

    let mut t = InProcTransport::new(Arc::clone(&p));
    let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
    catch_up(&mut f, &mut t);
    assert_eq!(f.term(), 0);

    // The primary "crashes": the transport goes dead, and the follower
    // promotes itself from exactly what it durably holds.
    t.plan_mut().kill_now();
    let promoted = f.promote(GroupCommitPolicy::manual()).unwrap();
    assert_eq!(promoted.term(), 1, "promotion seals the log under term+1");
    assert_eq!(promoted.relation().to_relation(), before_crash);

    // The promoted primary accepts writes, and they are durable: a
    // crash-reopen of its directory replays the identical history.
    promoted.apply(Op::Insert(tup(&cols, 77, 1, 1))).unwrap();
    promoted.commit().unwrap();
    let after = promoted.relation().to_relation();
    drop(promoted);
    let reopened = DurableRelation::open(&fdir, GroupCommitPolicy::manual()).unwrap();
    assert_eq!(reopened.to_relation(), after);
    assert_eq!(reopened.term(), 1, "the bumped term is durable");
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn stale_primary_is_fenced_and_its_frames_are_refused() {
    let pdir = tmpdir("fence_primary");
    let fdir = tmpdir("fence_follower");
    let (cols, p) = fresh_primary(&pdir, BATCH);
    apply_with_snapshots(&p, &random_ops(&cols, 20, 17));
    let p = Arc::new(p);

    let mut t = InProcTransport::new(Arc::clone(&p));
    let f = {
        let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
        catch_up(&mut f, &mut t);
        f
    };

    // Failover: the old primary process is gone; the follower promotes.
    drop(t);
    let new_primary = Arc::new(Primary::with_max_batch_bytes(
        f.promote(GroupCommitPolicy::manual())
            .unwrap()
            .into_relation(),
        BATCH,
    ));
    assert_eq!(new_primary.term(), 1);
    new_primary.apply(Op::Insert(tup(&cols, 90, 9, 9))).unwrap();
    new_primary.commit().unwrap();

    // A follower of the *new* primary has durably adopted term 1.
    let f2dir = tmpdir("fence_follower2");
    let mut t_new = InProcTransport::new(Arc::clone(&new_primary));
    let mut f2 = Follower::bootstrap(&f2dir, &mut t_new).unwrap();
    catch_up(&mut f2, &mut t_new);
    assert_eq!(f2.term(), 1);
    assert_eq!(f2.to_relation(), new_primary.relation().to_relation());

    // The stale primary resurrects from its old directory, still at term
    // 0, happily serving its stale log...
    let stale = Arc::new(Primary::with_max_batch_bytes(
        DurableRelation::open(&pdir, GroupCommitPolicy::manual()).unwrap(),
        BATCH,
    ));
    assert_eq!(stale.term(), 0);
    assert!(!stale.is_fenced());

    // ...but the first contact from a term-1 follower fences it: the
    // response is a refusal, and the stale primary now refuses writes.
    let mut t_stale = InProcTransport::new(Arc::clone(&stale));
    match f2.sync_once(&mut t_stale) {
        Err(ReplicaError::Fenced { ours: 1, theirs: 0 }) => {}
        other => panic!("stale frames accepted: {other:?}"),
    }
    assert!(stale.is_fenced(), "contact from a newer term fences");
    assert!(matches!(
        stale.apply(Op::Insert(tup(&cols, 1, 2, 3))),
        Err(ReplicaError::Fenced { .. })
    ));
    assert!(matches!(stale.commit(), Err(ReplicaError::Fenced { .. })));

    // The follower state is untouched by the brush with the stale
    // primary, and it still syncs cleanly from the real one.
    catch_up(&mut f2, &mut t_new);
    assert_eq!(f2.to_relation(), new_primary.relation().to_relation());
    for d in [&pdir, &fdir, &f2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A fenced primary refuses every kind of write — batch loads and
/// migrations included, which once reached the log only through the
/// unfenced `relation()` — and its relation and log stay as they were.
#[test]
fn a_fenced_primary_refuses_every_op() {
    let pdir = tmpdir("fence_every_op");
    let (cols, p) = fresh_primary(&pdir, BATCH);
    p.apply(Op::Insert(tup(&cols, 1, 1, 1))).unwrap();
    p.commit().unwrap();
    let fence = Request::Fetch { term: 1, after: 0 };
    assert!(matches!(p.handle(&fence), Ok(Response::Fenced { term: 0 })));
    let (before, seq) = (p.relation().to_relation(), p.relation().durable_seq());
    let key = Tuple::from_pairs([(cols.host, Value::from(1)), (cols.ts, Value::from(1))]);
    let cat = p.relation().catalog().clone();
    let d = p
        .relation()
        .read_view()
        .shard(0)
        .decomposition()
        .to_let_notation(&cat);
    for op in [
        Op::Insert(tup(&cols, 2, 2, 2)),
        Op::InsertMany(vec![tup(&cols, 3, 3, 3)]),
        Op::BulkLoad(vec![tup(&cols, 4, 4, 4)]),
        Op::Remove(key.clone()),
        Op::RemoveMany(vec![key.clone()]),
        Op::RemoveWhere(Pattern::from_tuple(&key)),
        Op::Update {
            pattern: key.clone(),
            changes: Tuple::from_pairs([(cols.bytes, Value::from(9))]),
        },
        Op::Migrate(d),
    ] {
        assert!(
            matches!(p.apply(op.clone()), Err(ReplicaError::Fenced { .. })),
            "{op:?} got past the fence"
        );
    }
    assert_eq!(p.relation().to_relation(), before);
    assert_eq!(p.relation().commit().unwrap(), seq, "nothing was logged");
    let _ = std::fs::remove_dir_all(&pdir);
}

/// A transport that forges responses — the adversarial peer.
struct Forged(Response);
impl Transport for Forged {
    fn request(&mut self, _req: &Request) -> Result<Response, ReplicaError> {
        Ok(self.0.clone())
    }
}

#[test]
fn frames_bearing_an_older_term_are_rejected_at_apply_time() {
    let pdir = tmpdir("older_term_primary");
    let fdir = tmpdir("older_term_follower");
    let (cols, p) = fresh_primary(&pdir, BATCH);
    apply_with_snapshots(&p, &random_ops(&cols, 10, 23));
    let p = Arc::new(p);

    let mut t = InProcTransport::new(Arc::clone(&p));
    let f = {
        let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
        catch_up(&mut f, &mut t);
        f
    };
    let promoted = Arc::new(Primary::new(
        f.promote(GroupCommitPolicy::manual())
            .unwrap()
            .into_relation(),
    ));

    // Re-follow the promoted primary, durably adopting term 1.
    let f2dir = tmpdir("older_term_follower2");
    let mut t2 = InProcTransport::new(Arc::clone(&promoted));
    let mut f2 = Follower::bootstrap(&f2dir, &mut t2).unwrap();
    catch_up(&mut f2, &mut t2);
    assert_eq!(f2.term(), 1);
    let state = f2.to_relation();
    let cursor = f2.applied_seq();

    // An adversarial (or just very stale) peer ships well-formed frames
    // under term 0. The follower must refuse them before applying a
    // single one.
    let stale_frames = match p.relation().committed_frames_after(0, 1 << 20).unwrap() {
        relic_persist::TailRead::Frames(frames) => frames,
        other => panic!("expected frames, got {other:?}"),
    };
    let mut forged = Forged(Response::Frames {
        term: 0,
        frontier: 1_000_000,
        frames: stale_frames,
    });
    match f2.sync_once(&mut forged) {
        Err(ReplicaError::Fenced { ours: 1, theirs: 0 }) => {}
        other => panic!("stale-term frames not rejected: {other:?}"),
    }
    assert_eq!(f2.to_relation(), state, "no stale frame was applied");
    assert_eq!(f2.applied_seq(), cursor);
    for d in [&pdir, &fdir, &f2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn surviving_follower_adopts_the_new_term_in_band() {
    let pdir = tmpdir("adopt_primary");
    let f1dir = tmpdir("adopt_follower1");
    let f2dir = tmpdir("adopt_follower2");
    let (cols, p) = fresh_primary(&pdir, BATCH);
    apply_with_snapshots(&p, &random_ops(&cols, 30, 29));
    let p = Arc::new(p);

    // Two followers; f2 lags (it syncs less).
    let mut t1 = InProcTransport::new(Arc::clone(&p));
    let mut f1 = Follower::bootstrap(&f1dir, &mut t1).unwrap();
    catch_up(&mut f1, &mut t1);
    let mut t2 = InProcTransport::new(Arc::clone(&p));
    let mut f2 = Follower::bootstrap(&f2dir, &mut t2).unwrap();
    let _ = f2.sync_once(&mut t2).unwrap(); // partial catch-up only
    assert!(f2.applied_seq() <= f1.applied_seq());

    // Primary dies; the most-caught-up follower (f1) promotes.
    drop((t1, t2));
    let promoted = Arc::new(Primary::with_max_batch_bytes(
        f1.promote(GroupCommitPolicy::manual())
            .unwrap()
            .into_relation(),
        BATCH,
    ));
    promoted.apply(Op::Insert(tup(&cols, 55, 5, 5))).unwrap();
    promoted.commit().unwrap();

    // The lagging follower re-points at the promoted primary: the shared
    // sequence space lets it resume from its own cursor, and the in-band
    // TermBump record carries it to term 1.
    let mut t_new = InProcTransport::new(Arc::clone(&promoted));
    catch_up(&mut f2, &mut t_new);
    assert_eq!(f2.term(), 1, "term adopted from the in-band TermBump");
    assert_eq!(f2.to_relation(), promoted.relation().to_relation());

    // And its adoption is durable: a local restart still knows term 1.
    drop(f2);
    let f2b = Follower::open_or_bootstrap(&f2dir, &mut t_new).unwrap();
    assert_eq!(f2b.term(), 1);
    assert_eq!(f2b.to_relation(), promoted.relation().to_relation());
    for d in [&pdir, &f1dir, &f2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
