//! Cross-connection mutation batching.
//!
//! A worker does not apply mutations as it decodes them. It queues them —
//! each an [`Op`], tagged with the connection that sent it — and flushes
//! the whole queue at scan boundaries (or earlier, when a queued
//! connection issues a read, or when admission control demands a flush).
//! The flush applies every queued op on its own, in arrival order, and
//! acknowledges each with its own count or its own refusal — then commits
//! once for the whole batch: a single fsync, amortized over every queued
//! request.

use relic_core::netmsg::NetResponse;
use relic_core::Op;
use relic_persist::DurableRelation;

/// The worker's pending-mutation queue: `(connection index, op)` in
/// arrival order.
#[derive(Debug, Default)]
pub(crate) struct MutationBatch {
    ops: Vec<(usize, Op)>,
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
    pub(crate) fn push(&mut self, conn: usize, op: Op) {
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
        let mut acks: Vec<(usize, NetResponse)> = self
            .ops
            .drain(..)
            .map(|(conn, op)| (conn, ack(rel.apply(op))))
            .collect();
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

/// An op's acknowledgement: its count, or its error.
fn ack<E: std::fmt::Display>(res: Result<usize, E>) -> NetResponse {
    match res {
        Ok(n) => NetResponse::Ack { n: n as u64 },
        Err(e) => NetResponse::Err {
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_persist::GroupCommitPolicy;
    use relic_spec::{Catalog, RelSpec, Tuple, Value};

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
    fn each_queued_op_is_acked_with_its_own_count() {
        let rel = tmp_rel("acks");
        let cat = rel.catalog().clone();
        rel.insert(kv(&cat, 0, 0)).unwrap();
        let mut b = MutationBatch::default();
        // Consecutive inserts from three connections, the second one
        // refused (its key is stored with another value), then a remove.
        b.push(0, Op::Insert(kv(&cat, 1, 10)));
        b.push(1, Op::Insert(kv(&cat, 0, 99)));
        b.push(2, Op::Insert(kv(&cat, 3, 30)));
        let ck = cat.col("k").unwrap();
        b.push(1, Op::Remove(Tuple::from_pairs([(ck, Value::from(1i64))])));
        assert!(b.conn_has_pending(1));
        assert!(!b.conn_has_pending(7));
        assert_eq!(b.len(), 4);
        let acks = b.flush(&rel);
        assert!(b.is_empty());
        let conns: Vec<usize> = acks.iter().map(|(c, _)| *c).collect();
        assert_eq!(conns, [0, 1, 2, 1]);
        assert_eq!(acks[0].1, NetResponse::Ack { n: 1 });
        assert!(
            matches!(acks[1].1, NetResponse::Err { .. }),
            "{:?}",
            acks[1]
        );
        assert_eq!(acks[2].1, NetResponse::Ack { n: 1 });
        assert_eq!(acks[3].1, NetResponse::Ack { n: 1 });
        // k=0 kept its value, k=3 went in, k=1 went in and out again.
        assert_eq!(rel.len(), 2);
        // Committed (exactly once) for the whole batch.
        assert_eq!(rel.wal_pending_bytes(), 0);
        let _ = std::fs::remove_dir_all(rel.dir());
    }
}
