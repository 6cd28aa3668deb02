//! Cross-connection mutation coalescing.
//!
//! A worker does not apply mutations as it decodes them. It queues them —
//! tagged with the connection that sent them — and flushes the whole queue
//! at scan boundaries (or earlier, when a queued connection issues a read,
//! or when admission control demands a flush). The flush walks the queue
//! in arrival order and merges **consecutive inserts** into one
//! [`insert_many`](relic_persist::DurableRelation::insert_many) — one WAL
//! record, one lock hold and one publish per touched shard, regardless of
//! how many connections contributed — then commits once for the whole
//! batch: a single fsync, amortized over every queued request.
//!
//! Acknowledgement follows the protocol's coalesced-counting convention
//! (`relic_core::netmsg`): the first request of a merged insert run is
//! acked with the run's whole inserted count, the rest with zero, so the
//! per-connection response order is undisturbed and the sum over acks is
//! exact. Removes punctuate runs and are applied (and counted)
//! individually.

use relic_core::netmsg::NetResponse;
use relic_persist::DurableRelation;
use relic_spec::Tuple;

/// One queued mutation.
#[derive(Debug, Clone)]
pub(crate) enum BatchOp {
    /// Insert one tuple.
    Insert(Tuple),
    /// Remove every tuple matching the pattern.
    Remove(Tuple),
}

/// The worker's pending-mutation queue: `(connection index, op)` in
/// arrival order.
#[derive(Debug, Default)]
pub(crate) struct MutationBatch {
    ops: Vec<(usize, BatchOp)>,
}

impl MutationBatch {
    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queued ops.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Queues an op from connection `conn`.
    pub(crate) fn push(&mut self, conn: usize, op: BatchOp) {
        self.ops.push((conn, op));
    }

    /// Whether connection `conn` has queued, unapplied mutations — the
    /// read-your-writes trigger: a query from such a connection must
    /// flush first.
    pub(crate) fn conn_has_pending(&self, conn: usize) -> bool {
        self.ops.iter().any(|(c, _)| *c == conn)
    }

    /// Applies every queued op in order and returns the per-op
    /// acknowledgements as `(connection index, response)`, also in order.
    ///
    /// The batch commits once at the end. A failed commit is reported on
    /// the *last* op's ack slot (earlier acks only ever promise
    /// application, not durability).
    pub(crate) fn flush(&mut self, rel: &DurableRelation) -> Vec<(usize, NetResponse)> {
        let ops = std::mem::take(&mut self.ops);
        let mut acks: Vec<(usize, NetResponse)> = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            match &ops[i].1 {
                BatchOp::Insert(_) => {
                    // Extend the run over every consecutive insert.
                    let mut j = i;
                    while j < ops.len() && matches!(ops[j].1, BatchOp::Insert(_)) {
                        j += 1;
                    }
                    let run = &ops[i..j];
                    let tuples = run.iter().map(|(_, op)| {
                        let BatchOp::Insert(t) = op else {
                            unreachable!()
                        };
                        t.clone()
                    });
                    match rel.insert_many(tuples) {
                        Ok(n) => {
                            // First ack carries the run's count.
                            acks.push((run[0].0, NetResponse::Ack { n: n as u64 }));
                            for (conn, _) in &run[1..] {
                                acks.push((*conn, NetResponse::Ack { n: 0 }));
                            }
                        }
                        Err(e) => {
                            // The batch insert is all-or-nothing on
                            // refusal, so every contributor hears it.
                            let msg = e.to_string();
                            for (conn, _) in run {
                                acks.push((
                                    *conn,
                                    NetResponse::Err {
                                        message: msg.clone(),
                                    },
                                ));
                            }
                        }
                    }
                    i = j;
                }
                BatchOp::Remove(pattern) => {
                    let resp = match rel.remove(pattern) {
                        Ok(n) => NetResponse::Ack { n: n as u64 },
                        Err(e) => NetResponse::Err {
                            message: e.to_string(),
                        },
                    };
                    acks.push((ops[i].0, resp));
                    i += 1;
                }
            }
        }
        if !acks.is_empty() {
            if let Err(e) = rel.commit() {
                if let Some(last) = acks.last_mut() {
                    last.1 = NetResponse::Err {
                        message: format!("group commit failed: {e}"),
                    };
                }
            }
        }
        acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_persist::GroupCommitPolicy;
    use relic_spec::{Catalog, RelSpec, Value};

    fn tmp_rel(name: &str) -> DurableRelation {
        let dir = std::env::temp_dir().join(format!("relic_batch_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        DurableRelation::create(
            &dir,
            &cat,
            spec,
            d,
            k.set(),
            2,
            true,
            GroupCommitPolicy::manual(),
        )
        .unwrap()
    }

    fn kv(cat: &Catalog, k: i64, v: i64) -> Tuple {
        let (ck, cv) = (cat.col("k").unwrap(), cat.col("v").unwrap());
        Tuple::from_pairs([(ck, Value::from(k)), (cv, Value::from(v))])
    }

    #[test]
    fn coalesced_runs_ack_first_with_run_count() {
        let rel = tmp_rel("runs");
        let cat = rel.catalog().clone();
        let mut b = MutationBatch::default();
        // conns 0,1,2 insert; conn 1 removes; conns 0,1 insert again.
        b.push(0, BatchOp::Insert(kv(&cat, 1, 10)));
        b.push(1, BatchOp::Insert(kv(&cat, 2, 20)));
        b.push(2, BatchOp::Insert(kv(&cat, 3, 30)));
        let ck = cat.col("k").unwrap();
        b.push(
            1,
            BatchOp::Remove(Tuple::from_pairs([(ck, Value::from(2i64))])),
        );
        b.push(0, BatchOp::Insert(kv(&cat, 4, 40)));
        b.push(1, BatchOp::Insert(kv(&cat, 5, 50)));
        assert!(b.conn_has_pending(1));
        assert!(!b.conn_has_pending(7));
        assert_eq!(b.len(), 6);
        let acks = b.flush(&rel);
        assert!(b.is_empty());
        let expect = [
            (0usize, 3u64), // first of run 1 carries the run count
            (1, 0),
            (2, 0),
            (1, 1), // the remove, counted individually
            (0, 2), // first of run 2
            (1, 0),
        ];
        assert_eq!(acks.len(), expect.len());
        for ((conn, resp), (want_conn, want_n)) in acks.iter().zip(expect) {
            assert_eq!(*conn, want_conn);
            assert_eq!(resp, &NetResponse::Ack { n: want_n });
        }
        assert_eq!(rel.len(), 4);
        // Committed (exactly once) for the whole batch.
        assert_eq!(rel.wal_pending_bytes(), 0);
        let _ = std::fs::remove_dir_all(rel.dir());
    }
}
