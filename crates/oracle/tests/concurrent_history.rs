//! The concurrent rows: threads drive one relation over shared keys, each
//! keeping a [`Log`], and [`check_history`] holds the merged history to the
//! model shard by shard — sharded in process, durable through crashes, and
//! served over the wire.

use proptest::test_runner::TestRng;
use relic_concurrent::ConcurrentRelation;
use relic_core::netmsg::{NetRequest, NetResponse};
use relic_core::{Op, RelRead};
use relic_oracle::{check_history, Call, Durable, Event, Log, Mix, Outcome, Path, State, Step};
use relic_oracle::{TempDir, Universe};
use relic_persist::{frame_message, DurableRelation, FrameReader, GroupCommitPolicy};
use relic_persist::{PersistError, MAX_FRAME_PAYLOAD};
use relic_server::{Client, ServeHandle, ServerConfig};
use relic_shell::{Outcome as Shown, Session};
use relic_spec::{parse_pattern, ColSet, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::slice;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::thread::ScopedJoinHandle;

/// A relation the threads share, driven one [`Step`] at a time.
trait Shared: Sync {
    fn step(&self, s: &Step, key: ColSet) -> Outcome;
}

impl Shared for ConcurrentRelation {
    fn step(&self, s: &Step, key: ColSet) -> Outcome {
        match s {
            Step::Op(op) => Outcome::of(self.apply(op.clone())),
            Step::Rmw(t) => self.with_partition_mut(&t.project(key), |p| {
                p.remove(&t.project(key)).unwrap();
                assert!(p.insert(t.clone()).unwrap());
                Outcome::Done
            }),
            s => panic!("{s:?}"),
        }
    }
}

impl Shared for DurableRelation {
    fn step(&self, s: &Step, key: ColSet) -> Outcome {
        let res = match s {
            Step::Op(op) => {
                return Outcome::of(self.apply(op.clone()).map_err(|e| match e {
                    PersistError::Op(e) => e,
                    e => panic!("{e}"),
                }))
            }
            Step::Rmw(t) => self.with_partition_mut(&t.project(key), |p| {
                p.remove(&t.project(key)).unwrap();
                assert!(p.insert(t.clone()).unwrap());
            }),
            Step::Commit => self.commit().map(drop),
            Step::Checkpoint => self.checkpoint().map(drop),
            s => panic!("{s:?}"),
        };
        res.map(|()| Outcome::Done).unwrap()
    }
}

/// One threaded run over `u`: the clock its logs share, how many of the
/// `total` writer steps are done, and the count the writers wait at.
struct Run {
    u: Universe,
    clock: AtomicU64,
    done: AtomicUsize,
    total: usize,
    gate: AtomicUsize,
}

impl Run {
    fn new(u: Universe, total: usize) -> Run {
        Run {
            u,
            clock: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            total,
            gate: AtomicUsize::new(total),
        }
    }

    fn log(&self, thread: usize) -> Log<'_> {
        Log::new(&self.clock, thread)
    }

    /// Writer `w` of row `row`: `ops` writes drawn over the whole palette,
    /// so it hits the keys the other writers hit, with a yield after each
    /// so that the writers interleave.
    fn writer(&self, rel: &impl Shared, row: &str, w: usize, ops: usize) -> Vec<Event> {
        let (mut log, key) = (self.log(w), self.u.spec.minimal_key());
        let mut rng = TestRng::from_name(&format!("{row} {w}"));
        for step in self.u.steps(&mut rng, &Mix::new(ops..ops + 1, [0; 3])) {
            while self.done.load(Relaxed) >= self.gate.load(Relaxed) {
                std::thread::yield_now();
            }
            log.record(|| Call::Step(step.clone(), rel.step(&step, key)));
            self.done.fetch_add(1, Relaxed);
            std::thread::yield_now();
        }
        log.events
    }

    /// Waits until the writers made `stride` more steps since `seen`;
    /// false once they made all of them.
    fn paced(&self, seen: &mut usize, stride: usize) -> bool {
        loop {
            let done = self.done.load(Relaxed);
            if done >= self.total || done >= *seen + stride {
                *seen = done;
                return done < self.total;
            }
            std::thread::yield_now();
        }
    }

    /// Checks that the history has at most 2 000 events and that at least
    /// half its writes touch a key another thread also writes; then checks
    /// the history.
    fn check(&self, rel: &ConcurrentRelation, events: &[Event], crashes: &[(State, u64)]) {
        let key = self.u.spec.minimal_key();
        let writes: Vec<&Event> = (events.iter())
            .filter(|e| matches!(e.call, Call::Step(Step::Op(_) | Step::Rmw(_), _)))
            .collect();
        let mut writers: BTreeMap<Tuple, BTreeSet<usize>> = BTreeMap::new();
        for e in &writes {
            for k in keys(&e.call, key) {
                writers.entry(k).or_default().insert(e.thread);
            }
        }
        let shared = |e: &&&Event| keys(&e.call, key).iter().any(|k| writers[k].len() > 1);
        let shared = writes.iter().filter(shared).count();
        assert!(
            2 * shared >= writes.len(),
            "{shared} of {} writes on shared keys",
            writes.len()
        );
        assert!(events.len() <= 2000, "{} events", events.len());
        let d = &self.u.candidates[0];
        check_history(&self.u, d, rel, events, crashes).unwrap_or_else(|report| panic!("{report}"));
    }
}

/// The keys of the tuples a write names.
fn keys(call: &Call, key: ColSet) -> Vec<Tuple> {
    let ts: &[Tuple] = match call {
        Call::Step(Step::Op(Op::InsertMany(ts) | Op::BulkLoad(ts)), _) => ts,
        Call::Step(Step::Op(Op::Insert(t) | Op::Remove(t)) | Step::Rmw(t), _) => slice::from_ref(t),
        Call::Step(Step::Op(Op::Update { pattern, .. }), _) => slice::from_ref(pattern),
        _ => &[],
    };
    let bound = ts.iter().filter(|t| key.is_subset(t.dom()));
    bound.map(|t| t.project(key)).collect()
}

/// A read of every row.
fn scan(r: &impl RelRead) -> Call {
    Call::Read(Tuple::empty(), r.query_full(&Tuple::empty()).unwrap())
}

fn joined(threads: Vec<ScopedJoinHandle<'_, Vec<Event>>>) -> Vec<Event> {
    let events = threads.into_iter().flat_map(|t| t.join().unwrap());
    events.collect()
}

/// Reader `r` of the sharded row: fresh views (0), reads pinned to a host
/// through a handle's `fresh_for` (1), or a handle held across many writes
/// (2 and 3), whose cached reads linearize inside the interval of the call
/// that pinned it and which stays on one decomposition however often the
/// relation migrates.
fn reader(run: &Run, rel: &ConcurrentRelation, r: usize) -> Vec<Event> {
    let (mut log, mut seen) = (run.log(r), 0);
    let mut rng = TestRng::from_name(&format!("reader {r}"));
    let mut handle = rel.read_handle();
    while log.events.len() < 150 && run.paced(&mut seen, 6) {
        let host = run.u.random_tuple(&mut rng).project(run.u.shard_cols);
        match r % 4 {
            0 => log.record(|| {
                let view = rel.read_view();
                let d = view.shard(0).decomposition();
                let mixed = (0..view.shard_count()).any(|i| view.shard(i).decomposition() != d);
                assert!(!mixed, "a view mixed decompositions");
                scan(&view)
            }),
            1 => log.record(|| {
                let rows = handle.fresh_for(|c| host.get(c)).query_full(&host);
                Call::Read(host.clone(), rows.unwrap())
            }),
            _ => {
                let (held, pin) = log.timed(|| rel.read_handle());
                let d = held.cached().shard(0).decomposition().clone();
                for p in [Tuple::empty(), host].iter().cycle().take(20) {
                    let rows = held.cached().query_full(p).unwrap();
                    log.push(pin, Call::Read(p.clone(), rows));
                    run.paced(&mut seen, 2);
                }
                let view = held.cached();
                assert!((0..view.shard_count()).all(|i| view.shard(i).decomposition() == &d));
            }
        }
    }
    log.events
}

/// Four writers on shared keys, a migrator, and the four readers.
#[test]
fn sharded() {
    let run = Run::new(Universe::flows(), 4 * 300);
    let (u, d) = (&run.u, &run.u.candidates[0]);
    let rel = ConcurrentRelation::new(&u.cat, u.spec.clone(), d.clone(), u.shard_cols, 4).unwrap();
    let (run, rel) = (&run, &rel);
    let mut events = std::thread::scope(|s| {
        let mut threads: Vec<_> = (0..4)
            .map(|w| s.spawn(move || run.writer(rel, "sharded", w, 300)))
            .collect();
        threads.extend((4..8).map(|r| s.spawn(move || reader(run, rel, r))));
        let (mut log, mut seen) = (run.log(8), 0);
        for i in 0..10 {
            run.paced(&mut seen, run.total / 12);
            let step = Step::Op(Op::Migrate(u.candidates[1 - i % 2].to_let_notation(&u.cat)));
            log.record(|| Call::Step(step.clone(), rel.step(&step, ColSet::EMPTY)));
        }
        [joined(threads), log.events].concat()
    });
    let mut log = run.log(9);
    log.record(|| scan(&rel.read_view()));
    events.extend(log.events);
    rel.validate().unwrap();
    rel.reclaim();
    assert_eq!((rel.limbo_len(), rel.limbo_bytes()), (0, 0), "limbo drains");
    run.check(rel, &events, &[]);
}

/// Twelve cases of one writer applying batches over three hosts while a
/// reader collects fresh views: no view may show part of a shard's group.
#[test]
fn batches_are_atomic_per_shard() {
    for case in 0..12i64 {
        let run = Run::new(Universe::flows(), 8);
        let (u, d) = (&run.u, &run.u.candidates[0]);
        let shards = 1 + case as usize % 4;
        let rel = ConcurrentRelation::new(&u.cat, u.spec.clone(), d.clone(), u.shard_cols, shards);
        let (run, rel) = (&run, &rel.unwrap());
        let per = 2 + case % 6;
        let batch = |b: i64| -> Vec<Tuple> {
            let keys = (0..3).flat_map(|h| (0..per).map(move |i| (h + case % 3, b * per + i)));
            keys.map(|(h, t)| u.tuple(&["host", "ts", "bytes"], &[h, t, b]))
                .collect()
        };
        // After each read the reader lets the writer start one more batch,
        // so that every batch lands while the reader is reading.
        run.gate.store(0, Relaxed);
        let events = std::thread::scope(|s| {
            let reader = s.spawn(move || {
                let mut log = run.log(1);
                while run.done.load(Relaxed) < run.total && log.events.len() < 1000 {
                    log.record(|| scan(&rel.read_view()));
                    run.gate.store(run.done.load(Relaxed) + 1, Relaxed);
                }
                run.gate.store(run.total, Relaxed);
                log.events
            });
            let mut log = run.log(0);
            for b in 0..8 {
                while run.done.load(Relaxed) >= run.gate.load(Relaxed) {
                    std::thread::yield_now();
                }
                let step = Step::Op([Op::InsertMany, Op::BulkLoad][b as usize % 2](batch(b)));
                log.record(|| Call::Step(step.clone(), rel.step(&step, ColSet::EMPTY)));
                run.done.fetch_add(1, Relaxed);
            }
            [log.events, reader.join().unwrap()].concat()
        });
        check_history(u, d, rel, &events, &[]).unwrap_or_else(|r| panic!("case {case}: {r}"));
    }
}

/// Four durable writers on shared keys and a committer that commits and
/// checkpoints mid-churn, taking an image of the directory after each
/// round; then a crash that keeps a random part of the uncommitted log.
/// The images in turn, then the crash, recover in each shard longer and
/// longer prefixes of one linearization, each holding every write that
/// returned before its commit point.
#[test]
fn durable() {
    let run = Run::new(Universe::abv(true), 4 * 220);
    let mut p = Durable::create(&run.u, &run.u.candidates[0], 8);
    let (run, rel, durable) = (&run, p.r(), &p);
    run.gate.store(20, Relaxed);
    let (mut events, images) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..4)
            .map(|w| s.spawn(move || run.writer(rel, "durable", w, 220)))
            .collect();
        let (mut log, mut seen, mut images) = (run.log(4), 0, Vec::new());
        while run.paced(&mut seen, 10) {
            for step in [Step::Commit, Step::Checkpoint] {
                log.record(|| Call::Step(step.clone(), rel.step(&step, ColSet::EMPTY)));
            }
            images.push((log.events.last().unwrap().inv, durable.image()));
            // The writers wait for the next round after 20 more steps.
            run.gate.store(seen + 20, Relaxed);
        }
        ([joined(writers), log.events].concat(), images)
    });
    assert!(images.len() >= 10, "{} images", images.len());
    let mut log = run.log(5);
    log.record(|| scan(&rel.read_view()));
    events.extend(log.events);
    let mut crashes: Vec<_> = images
        .iter()
        .map(|(t, i)| (Durable::recover(i), *t))
        .collect();
    p.crash(TestRng::from_name("durable crash").below(2048));
    crashes.push((p.state(), crashes.last().unwrap().1));
    run.check(p.r().relation(), &events, &crashes);
}

/// Sends `reqs` in one write on a fresh connection; returns each response
/// with the tick it arrived at.
fn pipelined(addr: SocketAddr, reqs: &[NetRequest], log: &Log) -> Vec<(NetResponse, u64)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    for r in reqs {
        frame_message(&mut buf, &r.encode(), MAX_FRAME_PAYLOAD).unwrap();
    }
    stream.write_all(&buf).unwrap();
    let (mut reader, mut out) = (FrameReader::new(), Vec::new());
    while out.len() < reqs.len() {
        match reader.next_frame().unwrap() {
            Some(f) => out.push((NetResponse::decode(&f).unwrap(), log.tick())),
            None => assert!(reader.fill(&mut stream).unwrap() > 0, "server closed"),
        }
    }
    out
}

/// What a served request did, from its response; `None` for a shed
/// request, which applied nothing.
fn answered(sent: Result<Tuple, Step>, resp: NetResponse) -> Option<Call> {
    Some(match (sent, resp) {
        (Ok(p), NetResponse::Rows { tuples }) => Call::Read(p, tuples),
        (Err(s), NetResponse::Ack { n }) => Call::Step(s, Outcome::Count(n as usize)),
        (Err(s), NetResponse::Err { .. }) => Call::Step(s, Outcome::Refused(None)),
        (_, NetResponse::Busy { .. }) => return None,
        (_, other) => panic!("{other:?}"),
    })
}

/// Client `c` of the served row: writes two at a time in flight on one
/// connection, every fourth step replaced by a read of a host or of
/// everything.
fn client(run: &Run, addr: SocketAddr, c: usize) -> Vec<Event> {
    let (mut log, mut client) = (run.log(c), Client::connect(addr).unwrap());
    let mut rng = TestRng::from_name(&format!("served {c}"));
    let steps = run.u.steps(&mut rng, &Mix::new(150..151, [0; 3]));
    for (i, pair) in steps.chunks(2).enumerate() {
        let mut sent = Vec::new();
        for (j, step) in pair.iter().enumerate() {
            let (req, what) = match step {
                Step::Rmw(_) | Step::Op(Op::Migrate(_)) => continue,
                Step::Op(op) if (2 * i + j) % 4 != 3 => {
                    (NetRequest::Apply(op.clone()), Err(step.clone()))
                }
                _ => {
                    let host = run.u.random_tuple(&mut rng).project(run.u.shard_cols);
                    let p = [host, Tuple::empty()][i % 4 / 3].clone();
                    (
                        NetRequest::Query {
                            pattern: p.clone(),
                            out: ColSet::EMPTY,
                        },
                        Ok(p),
                    )
                }
            };
            sent.push((log.timed(|| client.send(&req).unwrap()).1[0], what));
        }
        for (inv, what) in sent {
            let (resp, [_, ret]) = log.timed(|| client.recv().unwrap());
            if let Some(call) = answered(what, resp) {
                log.push([inv, ret], call);
            }
        }
        run.done.fetch_add(pair.len(), Relaxed);
    }
    log.events
}

/// The served path on `shards` shards. First a script: one connection
/// pipelines a fresh insert, one refused on its key and another fresh
/// insert in one write, and each must hear its own ack. Then three
/// pipelined clients on shared keys, an in-process partition
/// read-modify-write thread, and `remove … where` typed into a shell.
fn served(shards: usize) {
    let run = Run::new(Universe::flows(), 3 * 150);
    let (u, d, dir) = (&run.u, &run.u.candidates[0], TempDir::new("served"));
    let (spec, d2, policy) = (u.spec.clone(), d.clone(), GroupCommitPolicy::manual());
    let (path, cols) = (dir.path(), u.shard_cols);
    let rel = DurableRelation::create(path, &u.cat, spec, d2, cols, shards, true, policy);
    let rel = std::sync::Arc::new(rel.unwrap());
    let server = ServeHandle::spawn(rel.clone(), ServerConfig::default()).unwrap();
    let (run, rel, addr) = (&run, &*rel, server.addr());

    let mut log = run.log(0);
    let t = |h, b| u.tuple(&["host", "ts", "bytes"], &[h, 0, b]);
    for ts in [vec![t(0, 0)], vec![t(1, 0), t(0, 1), t(3, 0)]] {
        let apply = |t: &Tuple| NetRequest::Apply(Op::Insert(t.clone()));
        let (reqs, inv): (Vec<_>, _) = (ts.iter().map(apply).collect(), log.tick());
        for (t, (resp, ret)) in ts.into_iter().zip(pipelined(addr, &reqs, &log)) {
            let call = answered(Err(Step::Op(Op::Insert(t))), resp).unwrap();
            log.push([inv, ret], call);
        }
    }
    let mut events = std::thread::scope(|s| {
        let mut threads: Vec<_> = (1..4)
            .map(|c| s.spawn(move || client(run, addr, c)))
            .collect();
        threads.push(s.spawn(move || {
            let (mut log, mut rng) = (run.log(4), TestRng::from_name("served rmw"));
            let (mut seen, key) = (0, u.spec.minimal_key());
            while log.events.len() < 400 && run.paced(&mut seen, 1) {
                let step = Step::Rmw(u.random_tuple(&mut rng));
                log.record(|| Call::Step(step.clone(), rel.step(&step, key)));
            }
            log.events
        }));
        let (mut shell, mut rng, mut seen) = (Session::new(), TestRng::from_name("shell"), 0);
        shell.eval(&format!("connect r to \"{addr}\"")).unwrap();
        let mut log = run.log(5);
        while log.events.len() < 60 && run.paced(&mut seen, 4) {
            let (h, lo) = (rng.below(6), rng.below(6));
            let text = format!("host = {h}, ts between {lo} and {}", lo + 2);
            let op = Op::RemoveWhere(parse_pattern(&u.cat, &text).unwrap());
            log.record(|| {
                let Ok(Shown::Text(out)) = shell.eval(&format!("remove r where {text}")) else {
                    panic!("remove r where {text}")
                };
                let n = out.split(' ').nth(1).and_then(|n| n.parse().ok());
                Call::Step(Step::Op(op), Outcome::Count(n.expect(&out)))
            });
        }
        [joined(threads), log.events].concat()
    });
    events.extend(log.events);
    let mut log = run.log(6);
    log.record(|| scan(&rel.read_view()));
    events.extend(log.events);
    server.stop().unwrap();
    run.check(rel.relation(), &events, &[]);
}

#[test]
fn served_one_shard() {
    served(1);
}

#[test]
fn served_two_shards() {
    served(2);
}
