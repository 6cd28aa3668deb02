//! The reference semantics of one [`Op`], shared by the persistence
//! suites: `crash_recovery` replays log records through it, and
//! `recovery_props` replays the ops it drove.

use relic_core::Op;
use relic_spec::{ColSet, Relation, Tuple};

/// Applies `op` to the reference model with the engine's semantics (`key`
/// is the relation's minimal key, for FD screening): an exact-duplicate
/// insert is a no-op, an FD-conflicting insert is rejected, a batch stops
/// at its first rejection with the fold prefix applied, removals match
/// patterns, and a migration leaves the tuple set unchanged.
pub fn model_apply(model: &mut Relation, key: ColSet, op: &Op) {
    let insert_one = |model: &mut Relation, t: &Tuple| {
        if model.contains(t) {
            return true;
        }
        if !model.query(&t.project(key), ColSet::EMPTY).is_empty() {
            return false;
        }
        model.insert(t.clone());
        true
    };
    match op {
        Op::Insert(t) => {
            insert_one(model, t);
        }
        Op::InsertMany(ts) | Op::BulkLoad(ts) => {
            for t in ts {
                if !insert_one(model, t) {
                    break;
                }
            }
        }
        Op::Remove(p) => {
            model.remove(p);
        }
        Op::RemoveMany(ps) => {
            for p in ps {
                model.remove(p);
            }
        }
        Op::RemoveWhere(p) => {
            model.remove_where(p);
        }
        Op::Update { pattern, changes } => model.update(pattern, changes),
        Op::Migrate(_) => {}
    }
}
