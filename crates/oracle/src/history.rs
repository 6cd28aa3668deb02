//! Histories of concurrent runs, and the one linearizability checker.
//!
//! A threaded run keeps one [`Log`] per thread. Each [`Event`] is a call
//! between two ticks of a clock every thread shares, and what it did: a
//! [`Step`] with its [`Outcome`], or a read with its rows. [`check_history`]
//! then asks for an order of the events that respects real time (an event
//! that returned before another was invoked comes first) and that [`Model`]
//! agrees with, event by event.
//!
//! The unit of the check is the shard: the concurrent paths promise
//! per-shard consistent views, and by Herlihy & Wing's locality a history
//! is linearizable when each object's sub-history is. So:
//!
//! * a batch spanning shards, or a write whose pattern does not pin the
//!   shard columns, is one unit per shard, as the model folds it;
//! * a read that does not pin the shard columns is one read per shard, of
//!   the rows that shard owns;
//! * within a shard, Wing & Gong's search with Lowe's memo over (the set
//!   linearized, the model's state) looks for the order, and a shard whose
//!   every event pins one key splits further by key.
//!
//! Given the states recovered from crash images taken in turn, one
//! linearization of each shard must also pass through its part of each of
//! them, after a prefix that holds every write that returned before the
//! image's commit point was invoked: the log keeps a prefix of each shard's
//! linearization, and a later image keeps a longer one.

use crate::{Model, State, Step, Universe};
use relic_concurrent::ConcurrentRelation;
use relic_core::{Op, OpError};
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColSet, Pattern, Relation, Tuple};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a write returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// This count, as the model returns it.
    Count(usize),
    /// Success with a count that is not checked: one shard's part of a
    /// write counted over several, a partition read-modify-write, a commit.
    Done,
    /// A refused insert, naming the tuple when the path does.
    Refused(Option<Tuple>),
    /// Applied with any outcome, or not at all: one shard's part of a batch
    /// refused on a shard the path does not name.
    Unknown,
}

impl Outcome {
    /// What an in-process write returned; panics on an error other than a
    /// refused insert.
    pub fn of(res: Result<usize, OpError>) -> Outcome {
        match res {
            Ok(n) => Outcome::Count(n),
            Err(OpError::FdViolation { tuple, .. }) => Outcome::Refused(Some(tuple)),
            Err(e) => panic!("{e}"),
        }
    }

    fn admits(&self, got: &Result<usize, Tuple>) -> bool {
        match (self, got) {
            (Outcome::Count(n), Ok(k)) => n == k,
            (Outcome::Done, Ok(_)) | (Outcome::Unknown, _) => true,
            (Outcome::Refused(t), Err(u)) => t.as_ref().is_none_or(|t| t == u),
            _ => false,
        }
    }
}

/// What one event did.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// A write, and what it returned.
    Step(Step, Outcome),
    /// A read of the rows extending a pattern, every column out.
    Read(Tuple, Vec<Tuple>),
}

impl Call {
    fn show(&self, cat: &Catalog) -> String {
        let rows = |ts: &[Tuple]| ts.iter().map(|t| t.display(cat)).collect::<Vec<_>>();
        match self {
            Call::Step(s, Outcome::Refused(Some(t))) => {
                format!("{} -> refused {}", s.show(cat), t.display(cat))
            }
            Call::Step(s, o) => format!("{} -> {o:?}", s.show(cat)),
            Call::Read(p, ts) => format!("read {} -> [{}]", p.display(cat), rows(ts).join(" ")),
        }
    }
}

/// One call of one thread, between two ticks of the run's clock.
#[derive(Debug, Clone)]
pub struct Event {
    /// The thread that made the call.
    pub thread: usize,
    /// The tick before the call.
    pub inv: u64,
    /// The tick after it.
    pub ret: u64,
    /// What it did.
    pub call: Call,
}

/// One thread's events, timed by a clock every thread of the run shares.
#[derive(Debug)]
pub struct Log<'c> {
    clock: &'c AtomicU64,
    thread: usize,
    /// The events, in the order the thread made them.
    pub events: Vec<Event>,
}

impl<'c> Log<'c> {
    /// An empty log for `thread`.
    pub fn new(clock: &'c AtomicU64, thread: usize) -> Self {
        Log {
            clock,
            thread,
            events: Vec::new(),
        }
    }

    /// The clock's next tick.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Runs `f`; returns what it returned and the ticks before and after.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, [u64; 2]) {
        let inv = self.tick();
        let out = f();
        (out, [inv, self.tick()])
    }

    /// Records `call`, made between the ticks `span`.
    pub fn push(&mut self, [inv, ret]: [u64; 2], call: Call) {
        let thread = self.thread;
        self.events.push(Event {
            thread,
            inv,
            ret,
            call,
        });
    }

    /// Records the call `f` makes.
    pub fn record(&mut self, f: impl FnOnce() -> Call) {
        let (call, span) = self.timed(f);
        self.push(span, call);
    }
}

/// Checks the events of a run of `u`, started empty under `d`, on `rel`
/// (which routes tuples to shards): shard by shard, as the module docs
/// describe. `crashes` are the states recovered from crash images taken in
/// turn, each with the invoke tick of the last commit point before it: one
/// linearization of each shard must pass through its part of each of them
/// in turn, after a prefix that holds every write that returned before
/// that tick.
///
/// # Errors
///
/// A report of the first shard with no linearization: its sub-history by
/// column name.
pub fn check_history(
    u: &Universe,
    d: &Decomposition,
    rel: &ConcurrentRelation,
    events: &[Event],
    crashes: &[(State, u64)],
) -> Result<(), String> {
    let mut subs: Vec<Vec<Event>> = vec![Vec::new(); rel.shard_count()];
    for e in events {
        for (s, call) in units(u, rel, &e.call) {
            subs[s].push(Event { call, ..e.clone() });
        }
    }
    let key = u.spec.minimal_key();
    for (s, sub) in subs.into_iter().enumerate() {
        let mut parts: BTreeMap<Option<Tuple>, Vec<Event>> = BTreeMap::new();
        for e in &sub {
            let k = key_of(&e.call, key);
            parts.entry(k).or_default().push(e.clone());
        }
        if !crashes.is_empty() || parts.contains_key(&None) {
            parts = BTreeMap::from([(None, sub)]);
        }
        let goals: Vec<(State, u64)> = (crashes.iter())
            .map(|(c, tick)| {
                let mine = c.rel.iter().filter(|t| rel.owning_shard(t) == s).cloned();
                let rel = Relation::from_tuples(c.rel.cols(), mine);
                let decomp = c.decomp.clone();
                (State { rel, decomp }, *tick)
            })
            .collect();
        for (k, mut part) in parts {
            part.sort_by_key(|e| e.inv);
            let Err((best, met)) = Search::run(&part, &goals, Model::new(u, d)) else {
                continue;
            };
            let k = k.map_or(String::new(), |k| format!(", key {}", k.display(&u.cat)));
            let goal = goals.get(met).map_or(String::new(), |(g, _)| {
                let rows: Vec<String> = g.rel.iter().map(|t| t.display(&u.cat)).collect();
                format!(" through recovered state {met} [{}]", rows.join(" "))
            });
            let shown = part.iter().map(|e| {
                let (t, inv, ret) = (e.thread, e.inv, e.ret);
                format!("\n  t{t} [{inv}, {ret}] {}", e.call.show(&u.cat))
            });
            return Err(format!(
                "shard {s}{k}: no order of its {} events respects real time and the model{goal}; \
                 the longest linearizable prefix holds {best}:{}",
                part.len(),
                shown.collect::<String>()
            ));
        }
    }
    Ok(())
}

/// `call`'s units, each with its shard.
fn units(u: &Universe, rel: &ConcurrentRelation, call: &Call) -> Vec<(usize, Call)> {
    let (n, shard) = (rel.shard_count(), |t: &Tuple| rel.owning_shard(t));
    let pin = |t: &Tuple| u.shard_cols.is_subset(t.dom()).then(|| shard(t));
    let every = |f: &dyn Fn(usize) -> Call| (0..n).map(|s| (s, f(s))).collect();
    let (step, out) = match call {
        Call::Step(step, out) => (step, out),
        Call::Read(p, rows) => {
            let rows: BTreeSet<&Tuple> = rows.iter().collect();
            let mine = |s: usize| rows.iter().filter(move |t| s == n || shard(t) == s);
            let mine = |s| mine(s).map(|&t| t.clone());
            return match pin(p) {
                Some(s) => vec![(s, Call::Read(p.clone(), mine(n).collect()))],
                None => every(&|s| Call::Read(p.clone(), mine(s).collect())),
            };
        }
    };
    let op = match step {
        Step::Rmw(t) => return vec![(shard(t), call.clone())],
        Step::Op(op) => op,
        _ => return Vec::new(),
    };
    let pinned = match op {
        Op::Insert(t) => Some(shard(t)),
        Op::Remove(p) | Op::Update { pattern: p, .. } => pin(p),
        Op::RemoveWhere(p) => pin(&p.eq_tuple()),
        Op::InsertMany(ts) | Op::BulkLoad(ts) => {
            // One unit per shard's group. With the refusing shard named,
            // the groups before it applied whole and those after it not at
            // all; without, any of them may have refused.
            let mut groups: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
            for t in ts {
                groups.entry(shard(t)).or_default().push(t.clone());
            }
            let refused = match out {
                Outcome::Refused(Some(t)) => Some(shard(t)),
                _ => None,
            };
            let part = |s: usize| match (out, refused) {
                _ if groups.len() == 1 => Some(out.clone()),
                (Outcome::Count(_) | Outcome::Done, _) => Some(Outcome::Done),
                (_, Some(r)) if s < r => Some(Outcome::Done),
                (_, Some(r)) => (s == r).then(|| out.clone()),
                _ => Some(Outcome::Unknown),
            };
            let unit = |g| match op {
                Op::BulkLoad(_) => Op::BulkLoad(g),
                _ => Op::InsertMany(g),
            };
            let units = groups
                .iter()
                .filter_map(|(&s, g)| Some((s, Call::Step(Step::Op(unit(g.clone())), part(s)?))));
            return units.collect();
        }
        Op::RemoveMany(_) | Op::Migrate(_) => None,
    };
    match pinned {
        Some(s) => vec![(s, call.clone())],
        None if n == 1 => vec![(0, call.clone())],
        None => every(&|_| Call::Step(step.clone(), Outcome::Done)),
    }
}

/// The one key `call` touches, if it touches one.
fn key_of(call: &Call, key: ColSet) -> Option<Tuple> {
    let of = |t: &Tuple| key.is_subset(t.dom()).then(|| t.project(key));
    match call {
        Call::Read(t, _) | Call::Step(Step::Rmw(t), _) => of(t),
        Call::Step(Step::Op(op), _) => match op {
            Op::Insert(t) | Op::Remove(t) | Op::Update { pattern: t, .. } => of(t),
            Op::RemoveWhere(p) => of(&Pattern::eq_tuple(p)),
            Op::InsertMany(ts) | Op::BulkLoad(ts) => {
                let k = of(ts.first()?)?;
                ts.iter().all(|t| of(t).as_ref() == Some(&k)).then_some(k)
            }
            Op::RemoveMany(_) | Op::Migrate(_) => None,
        },
        Call::Step(..) => None,
    }
}

/// A node of the search: the events linearized, the model after them,
/// how many recovered states were passed on the way, and the writes to try
/// next.
struct Node {
    done: Vec<u64>,
    m: Model,
    hit: usize,
    next: Vec<usize>,
}

/// Wing & Gong's depth-first search for a linearization of `ev` (sorted by
/// invoke), with Lowe's memo of the (linearized set, state, goals passed)
/// triples already explored. The goals are recovered states to pass
/// through in turn, each once every write that returned before its tick is
/// linearized.
struct Search<'a> {
    ev: &'a [Event],
    goals: &'a [(State, u64)],
    seen: HashMap<Vec<u64>, Vec<(State, usize)>>,
    stack: Vec<Node>,
    best: (usize, usize),
}

fn has(done: &[u64], i: usize) -> bool {
    done[i / 64] >> (i % 64) & 1 == 1
}

impl<'a> Search<'a> {
    /// The events no unlinearized event precedes in real time.
    fn minimal(&self, done: &[u64]) -> Vec<usize> {
        let first = done.iter().position(|&w| w != u64::MAX);
        let first = first.unwrap_or(done.len()) * 64;
        let (mut min_ret, mut out) = (u64::MAX, Vec::new());
        for (i, x) in self.ev.iter().enumerate().skip(first) {
            if has(done, i) {
                continue;
            }
            if x.inv > min_ret {
                break;
            }
            min_ret = min_ret.min(x.ret);
            out.push(i);
        }
        out.retain(|&i| self.ev[i].inv < min_ret);
        out
    }

    /// Enters a node: linearizes every minimal read that `m` answers the
    /// same (reads change nothing, so a matching minimal read can always go
    /// first), and pushes the node unless the memo has it. Returns whether
    /// every event is linearized with every goal passed.
    fn enter(&mut self, mut done: Vec<u64>, m: Model, mut hit: usize) -> bool {
        let cols = m.now.rel.cols();
        let mut next = loop {
            let min = self.minimal(&done);
            let read = min.iter().find(|&&i| match &self.ev[i].call {
                Call::Read(p, rows) => m.now.rel.query(p, cols) == *rows,
                Call::Step(..) => false,
            });
            match read {
                Some(&i) => done[i / 64] |= 1 << (i % 64),
                None => break min,
            }
        };
        let covered = |tick: u64| {
            let mut ev = self.ev.iter().enumerate();
            ev.all(|(i, e)| matches!(e.call, Call::Read(..)) || e.ret >= tick || has(&done, i))
        };
        while (self.goals.get(hit)).is_some_and(|(g, tick)| *g == m.now && covered(*tick)) {
            hit += 1;
        }
        let n = done.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        self.best = self.best.max((n, hit));
        if n == self.ev.len() && hit == self.goals.len() {
            return true;
        }
        let states = self.seen.entry(done.clone()).or_default();
        if states.iter().any(|(s, h)| *h == hit && *s == m.now) {
            return false;
        }
        states.push((m.now.clone(), hit));
        // Popped from the back: the earliest to return is tried first.
        next.retain(|&i| matches!(self.ev[i].call, Call::Step(..)));
        next.sort_by_key(|&i| std::cmp::Reverse(self.ev[i].ret));
        self.stack.push(Node { done, m, hit, next });
        false
    }

    /// Searches `ev` from the empty prefix on `m`; on failure, returns the
    /// longest linearizable prefix and the most goals passed.
    fn run(ev: &'a [Event], goals: &'a [(State, u64)], m: Model) -> Result<(), (usize, usize)> {
        let (seen, stack, best) = (HashMap::new(), Vec::new(), (0, 0));
        let mut search = Search {
            ev,
            goals,
            seen,
            stack,
            best,
        };
        if search.enter(vec![0; ev.len().div_ceil(64).max(1)], m, 0) {
            return Ok(());
        }
        while let Some(top) = search.stack.last_mut() {
            let Some(i) = top.next.pop() else {
                search.stack.pop();
                continue;
            };
            let (mut done, hit) = (top.done.clone(), top.hit);
            done[i / 64] |= 1 << (i % 64);
            let next = successors(&top.m, &search.ev[i].call);
            for m in next {
                if search.enter(done.clone(), m, hit) {
                    return Ok(());
                }
            }
        }
        Err(search.best)
    }
}

/// The states the model may be in after `call`: none when it disagrees
/// with the outcome, and also the unchanged one when the unit may not have
/// applied.
fn successors(m: &Model, call: &Call) -> Vec<Model> {
    let Call::Step(step, out) = call else {
        return Vec::new();
    };
    let mut next = m.clone();
    let agrees = match step {
        Step::Op(op) => out.admits(&next.apply(op, &|_| 0)),
        Step::Rmw(t) => {
            next.upsert(t);
            true
        }
        _ => true,
    };
    next.rebase();
    let skip = (*out == Outcome::Unknown).then(|| m.clone());
    agrees.then_some(next).into_iter().chain(skip).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mix;
    use proptest::test_runner::TestRng;
    use std::time::Instant;

    fn ev(inv: u64, ret: u64, call: Call) -> Event {
        let thread = 0;
        Event {
            thread,
            inv,
            ret,
            call,
        }
    }

    fn insert(ts: Vec<Tuple>) -> Call {
        let n = ts.len();
        Call::Step(Step::Op(Op::InsertMany(ts)), Outcome::Count(n))
    }

    /// `flows` on `shards` shards.
    fn flows(shards: usize) -> (Universe, ConcurrentRelation) {
        let u = Universe::flows();
        let (spec, d) = (u.spec.clone(), u.candidates[0].clone());
        let rel = ConcurrentRelation::new(&u.cat, spec, d, u.shard_cols, shards);
        (u, rel.unwrap())
    }

    fn check(u: &Universe, rel: &ConcurrentRelation, events: &[Event]) -> Result<(), String> {
        check_history(u, &u.candidates[0], rel, events, &[])
    }

    #[test]
    fn a_read_must_see_an_insert_that_returned_before_it() {
        // Every event pins one key, so the shard splits by key.
        let (u, rel) = flows(2);
        let put = insert(vec![u.tuple(&["host", "ts", "bytes"], &[1, 2, 0])]);
        let read = Call::Read(u.tuple(&["host", "ts"], &[1, 2]), Vec::new());
        let err = check(&u, &rel, &[ev(0, 1, put.clone()), ev(2, 3, read.clone())]).unwrap_err();
        let shown = [
            "key ⟨host: 1, ts: 2⟩: no order",
            "insert_many ⟨host: 1, ts: 2, bytes: 0⟩",
        ];
        assert!(shown.iter().all(|s| err.contains(s)), "{err}");
        check(&u, &rel, &[ev(1, 2, put), ev(0, 3, read)]).unwrap();
    }

    #[test]
    fn a_batch_is_atomic_per_shard_not_across_shards() {
        let (u, rel) = flows(2);
        let t = |h, ts| u.tuple(&["host", "ts", "bytes"], &[h, ts, 0]);
        let on = |s| (0..).find(|&h| rel.owning_shard(&t(h, 0)) == s).unwrap();
        let (h0, h1) = (on(0), on(1));
        let half = |ts| ev(1, 2, Call::Read(Tuple::empty(), ts));
        let across = insert(vec![t(h0, 0), t(h1, 0)]);
        check(&u, &rel, &[ev(0, 5, across), half(vec![t(h0, 0)])]).unwrap();
        let within = insert(vec![t(h0, 0), t(h0, 1)]);
        check(&u, &rel, &[ev(0, 5, within), half(vec![t(h0, 0)])]).unwrap_err();
    }

    #[test]
    fn a_two_thousand_event_history_checks_in_under_a_second() {
        let ((u, rel), mut rng) = (flows(1), TestRng::from_name("long"));
        let mut m = Model::new(&u, &u.candidates[0]);
        let mut events = Vec::new();
        let steps = u.steps(&mut rng, &Mix::new(1500..1501, [0; 3]));
        for (i, step) in steps.into_iter().enumerate() {
            let out = match &step {
                Step::Op(op) => m
                    .apply(op, &|_| 0)
                    .map_or_else(|t| Outcome::Refused(Some(t)), Outcome::Count),
                _ => Outcome::Done,
            };
            if let Step::Rmw(t) = &step {
                m.upsert(t);
            }
            m.rebase();
            // Each call spans its point by up to 30 ticks either way, so it
            // overlaps its neighbours; every third is followed by a read.
            let at = 100 * i as u64 + 100;
            let (inv, ret) = (at - rng.below(30), at + 1 + rng.below(30));
            events.push(ev(inv, ret, Call::Step(step, out)));
            if i % 3 == 0 {
                let rows = m.now.rel.query(&Tuple::empty(), u.spec.cols());
                events.push(ev(at + 31, at + 50, Call::Read(Tuple::empty(), rows)));
            }
        }
        assert_eq!(events.len(), 2000);
        let started = Instant::now();
        check(&u, &rel, &events).unwrap();
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 1.0, "{took:?}");
    }
}
