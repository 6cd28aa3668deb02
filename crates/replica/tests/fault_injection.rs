//! The replication fault-injection suite.
//!
//! For randomized op mixes, every single scripted transport fault —
//! dropping, duplicating, reordering, or truncating a shipped frame (the
//! truncation swept across **every byte boundary** of the final shipped
//! frame), and killing the primary at **every commit sequence number** —
//! must leave the follower's committed state exactly equal to the
//! reference model at the last shipped commit. Healable faults must heal
//! (final state equals the primary's); the kill fault must freeze the
//! follower at a committed prefix, never a torn or reordered one.

mod common;

use common::*;
use relic_core::Op;
use relic_replica::{Fault, FaultPlan, Follower, InProcTransport, ReplicaError};
use std::sync::Arc;
use std::time::Duration;

const BATCH_BYTES: usize = 160; // a handful of frames per fetch round

fn catch_up(f: &mut Follower, t: &mut InProcTransport) -> Result<(), ReplicaError> {
    f.catch_up(t, 2, Duration::from_millis(1))
}

#[test]
fn clean_catch_up_then_streaming() {
    let dir = tmpdir("clean_primary");
    let fdir = tmpdir("clean_follower");
    let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
    let ops = random_ops(&cols, 40, 11);
    apply_with_snapshots(&p, &ops);
    let p = Arc::new(p);

    let mut t = InProcTransport::new(Arc::clone(&p));
    let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
    catch_up(&mut f, &mut t).unwrap();
    assert_eq!(f.to_relation(), p.relation().to_relation());
    assert_eq!(f.applied_seq(), p.relation().durable_seq());

    // Streaming: new commits arrive on the next poll.
    for op in random_ops(&cols, 15, 12) {
        if let Op::Insert(_) = op {
            let _ = p.apply(op);
        }
    }
    p.commit().unwrap();
    catch_up(&mut f, &mut t).unwrap();
    assert_eq!(f.to_relation(), p.relation().to_relation());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn drop_dup_reorder_heal_at_every_seq() {
    let dir = tmpdir("ddr_primary");
    let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
    let ops = random_ops(&cols, 24, 21);
    apply_with_snapshots(&p, &ops);
    let p = Arc::new(p);
    let last = p.relation().durable_seq();
    let reference = p.relation().to_relation();

    for seq in 1..=last {
        let faults: Vec<Fault> = vec![
            Fault::DropFrame(seq),
            Fault::DupFrame(seq),
            // Reordering needs a successor frame in some batch.
            Fault::ReorderFrames(seq.min(last.saturating_sub(1)).max(1)),
        ];
        for (fi, fault) in faults.into_iter().enumerate() {
            let fdir = tmpdir(&format!("ddr_f_{seq}_{fi}"));
            let mut t =
                InProcTransport::with_faults(Arc::clone(&p), FaultPlan::with([fault.clone()]));
            let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
            catch_up(&mut f, &mut t).unwrap();
            assert_eq!(
                f.to_relation(),
                reference,
                "fault {fault:?} did not heal to the primary's state"
            );
            assert_eq!(f.applied_seq(), last);
            let _ = std::fs::remove_dir_all(&fdir);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_of_final_frame_heals() {
    let dir = tmpdir("trunc_primary");
    let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
    let ops = random_ops(&cols, 12, 31);
    apply_with_snapshots(&p, &ops);
    let p = Arc::new(p);
    let last = p.relation().durable_seq();
    let reference = p.relation().to_relation();

    // The final shipped frame's full byte length, via a clean fetch.
    let final_frame_len = match p.relation().committed_frames_after(last - 1, 1 << 20) {
        Ok(relic_persist::TailRead::Frames(frames)) => frames[0].len(),
        other => panic!("expected the final frame, got {other:?}"),
    };

    for at in 0..=final_frame_len {
        let fdir = tmpdir(&format!("trunc_f_{at}"));
        let mut t = InProcTransport::with_faults(
            Arc::clone(&p),
            FaultPlan::with([Fault::TruncateFrame { seq: last, at }]),
        );
        let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
        catch_up(&mut f, &mut t).unwrap();
        assert_eq!(
            f.to_relation(),
            reference,
            "truncation at byte {at}/{final_frame_len} did not heal"
        );
        let _ = std::fs::remove_dir_all(&fdir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_every_commit_seq_freezes_an_exact_prefix() {
    let dir = tmpdir("kill_primary");
    let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
    let ops = random_ops(&cols, 20, 41);
    let snaps = apply_with_snapshots(&p, &ops);
    let p = Arc::new(p);
    let last = p.relation().durable_seq();

    for seq in 1..=last {
        let fdir = tmpdir(&format!("kill_f_{seq}"));
        let mut t = InProcTransport::with_faults(
            Arc::clone(&p),
            FaultPlan::with([Fault::KillPrimaryAfter(seq)]),
        );
        let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
        match catch_up(&mut f, &mut t) {
            Err(ReplicaError::Disconnected) => {}
            // The batch carrying `seq` may also be the final one: the
            // follower reaches the frontier and never has to issue the
            // request that would observe the dead primary.
            Ok(()) => assert_eq!(f.applied_seq(), last),
            other => panic!("expected disconnection after the kill, got {other:?}"),
        }
        let applied = f.applied_seq();
        assert!(
            applied >= seq,
            "the batch carrying seq {seq} was shipped before the kill"
        );
        assert_eq!(
            &f.to_relation(),
            snapshot_at(&snaps, applied),
            "follower state after kill at {seq} is not the exact committed prefix at {applied}"
        );
        // The frozen replica must survive its own restart from local
        // state alone and resume at the same prefix.
        drop(f);
        let mut dead = InProcTransport::with_faults(Arc::clone(&p), {
            let mut plan = FaultPlan::none();
            plan.kill_now();
            plan
        });
        let f2 = Follower::open_or_bootstrap(&fdir, &mut dead).unwrap();
        assert_eq!(f2.applied_seq(), applied);
        assert_eq!(&f2.to_relation(), snapshot_at(&snaps, applied));
        let _ = std::fs::remove_dir_all(&fdir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn randomized_mixes_with_mixed_fault_plans_heal() {
    for seed in 0..6u64 {
        let dir = tmpdir(&format!("mix_primary_{seed}"));
        let fdir = tmpdir(&format!("mix_follower_{seed}"));
        let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
        let ops = random_ops(&cols, 30 + seed as usize * 7, 100 + seed);
        apply_with_snapshots(&p, &ops);
        let p = Arc::new(p);
        let last = p.relation().durable_seq();

        // Several healable faults at once, spread across the stream.
        let plan = FaultPlan::with([
            Fault::DropFrame(1 + seed % last),
            Fault::DupFrame(1 + (seed * 3) % last),
            Fault::ReorderFrames(1 + (seed * 5) % last.saturating_sub(1).max(1)),
            Fault::TruncateFrame {
                seq: 1 + (seed * 7) % last,
                at: (seed as usize * 13) % 40,
            },
        ]);
        let mut t = InProcTransport::with_faults(Arc::clone(&p), plan);
        let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
        catch_up(&mut f, &mut t).unwrap();
        assert_eq!(f.to_relation(), p.relation().to_relation(), "seed {seed}");
        assert_eq!(f.applied_seq(), last);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
}

#[test]
fn log_rotation_mid_stream_forces_checkpoint_resync() {
    let dir = tmpdir("rotate_primary");
    let fdir = tmpdir("rotate_follower");
    let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
    apply_with_snapshots(&p, &random_ops(&cols, 10, 51));
    let p = Arc::new(p);

    let mut t = InProcTransport::new(Arc::clone(&p));
    let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
    catch_up(&mut f, &mut t).unwrap();

    // The primary advances far and checkpoints: its log rotates past the
    // follower's cursor, so the next fetch reports truncation.
    apply_with_snapshots(&p, &random_ops(&cols, 25, 52));
    p.checkpoint().unwrap();
    apply_with_snapshots(&p, &random_ops(&cols, 5, 53));

    catch_up(&mut f, &mut t).unwrap();
    assert_eq!(f.to_relation(), p.relation().to_relation());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn corrupt_local_log_is_quarantined_and_resynced() {
    let dir = tmpdir("quarantine_primary");
    let fdir = tmpdir("quarantine_follower");
    let (cols, p) = fresh_primary(&dir, BATCH_BYTES);
    apply_with_snapshots(&p, &random_ops(&cols, 20, 61));
    let p = Arc::new(p);

    let mut t = InProcTransport::new(Arc::clone(&p));
    let mut f = Follower::bootstrap(&fdir, &mut t).unwrap();
    catch_up(&mut f, &mut t).unwrap();
    drop(f);

    // Corrupt the local log's leading meta frame: the whole file fails
    // verification, so the reopen must quarantine it and refetch from
    // the primary rather than panic or serve bad data.
    let wal = fdir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[9] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();

    let mut f2 = Follower::open_or_bootstrap(&fdir, &mut t).unwrap();
    assert!(
        fdir.join("wal.log.quarantine").exists(),
        "the damaged log is preserved for inspection"
    );
    catch_up(&mut f2, &mut t).unwrap();
    assert_eq!(f2.to_relation(), p.relation().to_relation());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fdir);
}
