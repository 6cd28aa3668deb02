//! The reference model: `relic_spec::Relation` with the engine's write
//! semantics, and the states a crash may recover to.

use crate::{State, Universe};
use relic_core::Op;
use relic_decomp::{parse, Decomposition};
use relic_persist::WalRecord;
use relic_spec::{Catalog, ColSet, Relation, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// The model of one driven relation.
#[derive(Debug, Clone)]
pub struct Model {
    /// The state every reader must show now.
    pub(crate) now: State,
    /// The minimal key: an insert that meets a stored tuple on it and
    /// differs elsewhere is refused.
    pub(crate) key: ColSet,
    cat: Catalog,
    /// The state after every unit since the last checkpoint or reopen: the
    /// states a cut of the log written since may recover. A unit is a step,
    /// except that a batch spanning shards is one unit per shard.
    trail: Vec<State>,
    /// The trail index of the last commit point.
    durable: usize,
}

impl Model {
    /// The empty relation of `u`, represented by `d`.
    pub fn new(u: &Universe, d: &Decomposition) -> Model {
        let now = State {
            rel: Relation::empty(u.spec.cols()),
            decomp: d.clone(),
        };
        Model {
            trail: vec![now.clone()],
            now,
            key: u.spec.minimal_key(),
            cat: u.cat.clone(),
            durable: 0,
        }
    }

    /// Applies `op` as the engine must, and returns what the engine must
    /// return: the count [`SynthRelation::apply`](relic_core::SynthRelation::apply)
    /// documents, or the tuple a refused insert names. An insert is refused
    /// when a stored tuple has its key and differs. `shard` routes a tuple
    /// to its shard: a batch is grouped by shard, each group is folded in
    /// index order up to its first refusal, and the batch stops at the first
    /// shard that refuses.
    pub(crate) fn apply(
        &mut self,
        op: &Op,
        shard: &dyn Fn(&Tuple) -> usize,
    ) -> Result<usize, Tuple> {
        let out = match op {
            Op::Insert(t) => self.fold(&[t]),
            Op::InsertMany(ts) | Op::BulkLoad(ts) => {
                let mut groups: BTreeMap<usize, Vec<&Tuple>> = BTreeMap::new();
                for t in ts {
                    groups.entry(shard(t)).or_default().push(t);
                }
                groups.values().try_fold(0, |n, g| Ok(n + self.fold(g)?))
            }
            Op::Remove(p) => Ok(self.now.rel.remove(p)),
            Op::RemoveMany(ps) => Ok(ps.iter().map(|p| self.now.rel.remove(p)).sum()),
            Op::RemoveWhere(p) => Ok(self.now.rel.remove_where(p)),
            Op::Update { pattern, changes } => {
                let hit = !self.now.rel.select(pattern).is_empty();
                self.now.rel.update(pattern, changes);
                Ok(usize::from(hit))
            }
            Op::Migrate(src) => {
                self.now.decomp = parse(&mut self.cat.clone(), src).expect("a candidate");
                Ok(0)
            }
        };
        self.unit();
        out
    }

    /// Inserts `ts` in order up to the first refusal, as one unit; returns
    /// how many were new, or the refused tuple.
    fn fold(&mut self, ts: &[&Tuple]) -> Result<usize, Tuple> {
        let (rel, key) = (&mut self.now.rel, self.key);
        let mut keys: BTreeSet<Tuple> = rel.iter().map(|t| t.project(key)).collect();
        let mut n = 0;
        let out = ts.iter().try_for_each(|&t| {
            if !rel.contains(t) && !keys.insert(t.project(key)) {
                return Err(t.clone());
            }
            n += usize::from(rel.insert(t.clone()));
            Ok(())
        });
        self.unit();
        out.map(|()| n)
    }

    /// [`Step::Rmw`](crate::Step::Rmw): `t` replaces the row of its key.
    pub(crate) fn upsert(&mut self, t: &Tuple) {
        self.now.rel.remove(&t.project(self.key));
        self.now.rel.insert(t.clone());
        self.unit();
    }

    fn unit(&mut self) {
        if self.trail.last() != Some(&self.now) {
            self.trail.push(self.now.clone());
        }
    }

    /// A copy rewound to the last checkpoint or reopen, where a replay of
    /// the log written since starts.
    pub(crate) fn rewound(&self) -> Model {
        let mut m = self.clone();
        m.now = self.trail[0].clone();
        m
    }

    /// Applies one log record as recovery replays it: a refused tuple ends
    /// its group, as it did when the group was first applied.
    pub(crate) fn replay(&mut self, rec: &WalRecord) {
        let ops = match rec {
            WalRecord::Op(op) => std::slice::from_ref(op),
            WalRecord::Txn(ops) => ops,
            WalRecord::Meta { .. } | WalRecord::TermBump(_) => &[],
        };
        for op in ops {
            let _ = self.apply(op, &|_| 0);
        }
    }

    /// Marks a commit point: a crash keeps at least this state.
    pub(crate) fn committed(&mut self) {
        self.durable = self.trail.len() - 1;
    }

    /// Marks a checkpoint or reopen: later cuts of the log start here.
    pub(crate) fn rebase(&mut self) {
        self.trail = vec![self.now.clone()];
        self.durable = 0;
    }

    /// `s` for a human: its tuples by column name, then its decomposition.
    pub(crate) fn show(&self, s: &State) -> String {
        let row = |t: &Tuple| format!("  {}\n", t.display(&self.cat));
        s.rel.iter().map(row).collect::<String>() + &s.decomp.to_let_notation(&self.cat)
    }

    /// The first trail index at or past `from` whose state is `s`, the
    /// state `what` recovered.
    ///
    /// # Panics
    ///
    /// If no unit there left the relation in state `s`.
    pub(crate) fn reached(&self, s: &State, from: usize, what: &str) -> usize {
        match (from..self.trail.len()).find(|&k| self.trail[k] == *s) {
            Some(k) => k,
            None => panic!(
                "{what} recovered a state no step prefix reaches:\n{}",
                self.show(s)
            ),
        }
    }

    /// Takes a crash's recovered state `s`, which must be the state after a
    /// unit at or past the last commit point (see [`Model::reached`]).
    pub(crate) fn recovered(&mut self, s: State) {
        self.reached(&s, self.durable, "a crash");
        self.now = s;
        self.rebase();
    }
}
