//! The layer ladder: one dataset (256 x 512 dense flows under the default
//! decomposition), four operations, seven rungs from the raw containers up to
//! a shell line. Each rung's *tax* is its time minus that of the rung it
//! stands on — the outside-measured stand-in for the layer's self time.
//!
//! Every rung answers the same generated operations, and every answer is
//! checked against what the generator knows the stored counters to be.

use crate::gen::{dense_flows, expected_fold, fold, Flow, Rng};
use crate::metrics::{LADDER_OPS, RUNGS};
use crate::stats::Summary;
use crate::workloads::durable_ingest::{create, SHARDS};
use crate::workloads::query_embed::{
    compile_queries, fold_query, Kind, RawQuery, Reads, RANGE_ROWS,
};
use crate::workloads::served_mix::fold_rows;
use crate::workloads::{Cfg, FlowSchema};
use relic_concurrent::ConcurrentRelation;
use relic_containers::{AvlMap, HashTable};
use relic_core::netmsg::{NetRequest, NetResponse};
use relic_core::{Bindings, SynthRelation};
use relic_persist::DurableRelation;
use relic_server::{Client, CommitMode, ServeHandle, ServerConfig};
use relic_shell::{Outcome as Evaluated, Session};
use relic_spec::{ColSet, Tuple};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// The module `build.rs` generated from the flow relation.
#[allow(dead_code, clippy::all)]
pub mod flows_gen {
    include!(concat!(env!("OUT_DIR"), "/flows_gen.rs"));
}
pub mod flows_gen_consts {
    include!(concat!(env!("OUT_DIR"), "/flows_gen_consts.rs"));
}

pub const REMOTES: usize = 512;
/// Writes insert (and remove again) under remotes nobody reads.
const FRESH_REMOTE: i64 = 1_000;
/// How often each cell is timed; the median is reported.
const ROUNDS: usize = 3;
/// Durable writes between commits on the `persist` rung.
const COMMIT_EVERY: usize = 1024;
/// Pipelining window of the `server` rung's writes.
const WRITE_WINDOW: usize = 64;

/// The generated operations. Each rung runs a prefix of each list.
pub struct Ops {
    pub point: Vec<(i64, i64)>,
    /// `(local, lo)`: the rows `lo..lo + 64`.
    pub range: Vec<(i64, i64)>,
    pub scan: Vec<i64>,
    pub write: Vec<Flow>,
}

pub fn generate_ops(locals: usize, n: usize, seed: u64) -> Ops {
    let mut rng = Rng::new(seed ^ 0x1A_DD_E2);
    let local = |rng: &mut Rng| rng.below(locals as u64) as i64;
    Ops {
        point: (0..n)
            .map(|_| (local(&mut rng), rng.below(REMOTES as u64) as i64))
            .collect(),
        range: (0..n)
            .map(|_| {
                (
                    local(&mut rng),
                    rng.below(REMOTES as u64 - RANGE_ROWS as u64 + 1) as i64,
                )
            })
            .collect(),
        scan: (0..n).map(|_| local(&mut rng)).collect(),
        write: (0..n)
            .map(|i| {
                (
                    local(&mut rng),
                    FRESH_REMOTE + i as i64,
                    40 + rng.below(1461) as i64,
                    1,
                )
            })
            .collect(),
    }
}

/// One rung: the four operations, each over a list, each returning the time
/// the list took and what every operation answered (reads: the fold of the
/// rows; writes: whether the insert and the remove both took effect).
pub trait Rung {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>);
    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>);
    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>);
    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>);
}

/// How many of each operation a rung runs per round.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub point: usize,
    pub range: usize,
    pub scan: usize,
    pub write: usize,
}

/// A measured rung: ns per operation for the four operations, in
/// `LADDER_OPS` order, and how many answers were wrong.
pub struct Measured {
    pub ns: [Summary; 4],
    pub attempted: u64,
    pub wrong: u64,
}

pub fn measure(rung: &mut dyn Rung, ops: &Ops, n: Counts, seed: u64) -> Measured {
    let mut wrong = 0u64;
    let mut attempted = 0u64;
    let mut cell = |run: &mut dyn FnMut() -> (u64, Vec<u64>), want: &dyn Fn(usize) -> u64| {
        let mut per_op = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let (ns, answers) = run();
            attempted += answers.len() as u64;
            wrong += answers
                .iter()
                .enumerate()
                .filter(|(i, a)| **a != want(*i))
                .count() as u64;
            per_op.push(ns as f64 / answers.len().max(1) as f64);
        }
        Summary::of(&per_op)
    };
    let point = cell(&mut || rung.point(&ops.point[..n.point]), &|i| {
        let (l, r) = ops.point[i];
        expected_fold(l, r..r + 1, seed)
    });
    let range = cell(&mut || rung.range(&ops.range[..n.range]), &|i| {
        let (l, lo) = ops.range[i];
        expected_fold(l, lo..lo + RANGE_ROWS, seed)
    });
    let scan = cell(&mut || rung.scan(&ops.scan[..n.scan]), &|i| {
        expected_fold(ops.scan[i], 0..REMOTES as i64, seed)
    });
    let write = cell(&mut || rung.write(&ops.write[..n.write]), &|_| 1);
    Measured {
        ns: [point, range, scan, write],
        attempted,
        wrong,
    }
}

// ---------------------------------------------------------------- containers

/// The raw containers the default decomposition names: an AVL map from
/// `local` to a hash table from `remote` to the counters.
pub struct Containers(pub AvlMap<i64, HashTable<i64, (i64, i64)>>);

impl Containers {
    pub fn build(flows: &[Flow]) -> Containers {
        let mut m: AvlMap<i64, HashTable<i64, (i64, i64)>> = AvlMap::new();
        for &(l, r, b, p) in flows {
            if m.get(&l).is_none() {
                m.insert(l, HashTable::new());
            }
            m.get_mut(&l).expect("just inserted").insert(r, (b, p));
        }
        Containers(m)
    }
}

impl Rung for Containers {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(keys.len());
        let t = Instant::now();
        for (l, r) in keys {
            let hit = self.0.get(l).and_then(|inner| inner.get(r));
            out.push(hit.map_or(0, |&(b, p)| fold(0, b, p)));
        }
        (t.elapsed().as_nanos() as u64, out)
    }

    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(ranges.len());
        let t = Instant::now();
        for &(l, lo) in ranges {
            // The inner level is a hash table: a range on it is a scan with
            // a filter, as it is in the plan the relation runs.
            let mut acc = 0;
            if let Some(inner) = self.0.get(&l) {
                for (&r, &(b, p)) in inner.iter() {
                    if (lo..lo + RANGE_ROWS).contains(&r) {
                        acc = fold(acc, b, p);
                    }
                }
            }
            out.push(acc);
        }
        (t.elapsed().as_nanos() as u64, out)
    }

    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(locals.len());
        let t = Instant::now();
        for l in locals {
            let mut acc = 0;
            self.0
                .for_each_range(Bound::Included(l), Bound::Included(l), |_, inner| {
                    for (_, &(b, p)) in inner.iter() {
                        acc = fold(acc, b, p);
                    }
                });
            out.push(acc);
        }
        (t.elapsed().as_nanos() as u64, out)
    }

    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(flows.len());
        let t = Instant::now();
        for &(l, r, b, p) in flows {
            let inner = self.0.get_mut(&l).expect("writes go under existing locals");
            let fresh = inner.insert(r, (b, p)).is_none();
            let gone = inner.remove(&r).is_some();
            out.push(u64::from(fresh && gone));
        }
        (t.elapsed().as_nanos() as u64, out)
    }
}

// ------------------------------------------------------------------- codegen

pub struct Compiled(pub flows_gen::Relation);

impl Compiled {
    pub fn build(flows: &[Flow]) -> Compiled {
        let mut rel = flows_gen::Relation::new();
        for &(l, r, b, p) in flows {
            rel.insert(l, r, b, p);
        }
        Compiled(rel)
    }
}

impl Rung for Compiled {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(keys.len());
        let t = Instant::now();
        for (l, r) in keys {
            let mut acc = 0;
            self.0
                .query_local_remote_to_bytes_pkts(l, r, |&b, &p| acc = fold(acc, b, p));
            out.push(acc);
        }
        (t.elapsed().as_nanos() as u64, out)
    }

    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(ranges.len());
        let t = Instant::now();
        for &(l, lo) in ranges {
            let mut acc = 0;
            self.0.query_local_remote_between_to_bytes_pkts(
                &l,
                &lo,
                &(lo + RANGE_ROWS - 1),
                |&b, &p| {
                    acc = fold(acc, b, p);
                },
            );
            out.push(acc);
        }
        (t.elapsed().as_nanos() as u64, out)
    }

    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(locals.len());
        let t = Instant::now();
        for l in locals {
            let mut acc = 0;
            self.0
                .query_local_to_remote_bytes_pkts(l, |_, &b, &p| acc = fold(acc, b, p));
            out.push(acc);
        }
        (t.elapsed().as_nanos() as u64, out)
    }

    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(flows.len());
        let t = Instant::now();
        for &(l, r, b, p) in flows {
            let fresh = self.0.insert(l, r, b, p);
            let gone = self.0.remove_by_local_remote(&l, &r);
            out.push(u64::from(fresh && gone));
        }
        (t.elapsed().as_nanos() as u64, out)
    }
}

// ------------------------------------------- core, concurrent, persist reads

/// Runs prebuilt queries through `reader`, folding each one's rows.
fn timed_reads<R: Reads>(reader: &mut R, s: &FlowSchema, raw: Vec<RawQuery>) -> (u64, Vec<u64>) {
    let queries = compile_queries(s, &raw);
    let mut scratch = Bindings::new();
    let mut out = Vec::with_capacity(queries.len());
    let t = Instant::now();
    for q in &queries {
        out.push(fold_query(reader, &mut scratch, s, q).map_or(u64::MAX, |(fold, _)| fold));
    }
    (t.elapsed().as_nanos() as u64, out)
}

fn points(keys: &[(i64, i64)]) -> Vec<RawQuery> {
    keys.iter().map(|&(l, r)| (Kind::Point, l, r)).collect()
}

fn ranges(ranges: &[(i64, i64)]) -> Vec<RawQuery> {
    ranges.iter().map(|&(l, lo)| (Kind::Range, l, lo)).collect()
}

fn scans(locals: &[i64]) -> Vec<RawQuery> {
    locals.iter().map(|&l| (Kind::Scan, l, 0)).collect()
}

/// Insert and remove each flow through `insert` / `remove`, which report
/// whether the tuple went in and how many came out.
fn timed_writes(
    s: &FlowSchema,
    flows: &[Flow],
    mut insert: impl FnMut(Tuple) -> bool,
    mut remove: impl FnMut(&Tuple) -> usize,
    mut after_each: impl FnMut(usize),
) -> (u64, Vec<u64>) {
    let tuples: Vec<(Tuple, Tuple)> = flows
        .iter()
        .map(|&f| (s.tuple(f), s.key(f.0, f.1)))
        .collect();
    let mut out = Vec::with_capacity(flows.len());
    let t = Instant::now();
    for (i, (tuple, key)) in tuples.into_iter().enumerate() {
        let fresh = insert(tuple);
        let gone = remove(&key);
        out.push(u64::from(fresh && gone == 1));
        after_each(i);
    }
    (t.elapsed().as_nanos() as u64, out)
}

// ---------------------------------------------------------------------- core

pub struct Core<'a> {
    pub rel: SynthRelation,
    pub s: &'a FlowSchema,
}

impl<'a> Core<'a> {
    pub fn build(s: &'a FlowSchema, flows: &[Flow]) -> Core<'a> {
        Core {
            rel: crate::workloads::query_embed::build_relation(s, flows),
            s,
        }
    }
}

impl Rung for Core<'_> {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        timed_reads(&mut &self.rel, self.s, points(keys))
    }
    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        timed_reads(&mut &self.rel, self.s, self::ranges(ranges))
    }
    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        timed_reads(&mut &self.rel, self.s, scans(locals))
    }
    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        let rel = std::cell::RefCell::new(&mut self.rel);
        timed_writes(
            self.s,
            flows,
            |t| rel.borrow_mut().insert(t).unwrap_or(false),
            |k| rel.borrow_mut().remove(k).unwrap_or(0),
            |_| {},
        )
    }
}

// ---------------------------------------------------------------- concurrent

pub struct Concurrent<'a> {
    pub rel: ConcurrentRelation,
    pub s: &'a FlowSchema,
}

impl<'a> Concurrent<'a> {
    pub fn build(s: &'a FlowSchema, flows: &[Flow]) -> Concurrent<'a> {
        let rel = ConcurrentRelation::new(
            &s.cat,
            s.spec.clone(),
            s.d.clone(),
            s.cols.local.set(),
            SHARDS,
        )
        .expect("sharding by local is valid");
        rel.bulk_load(flows.iter().map(|&f| s.tuple(f)))
            .expect("bulk load");
        Concurrent { rel, s }
    }
}

impl Rung for Concurrent<'_> {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        timed_reads(&mut self.rel.read_handle(), self.s, points(keys))
    }
    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        timed_reads(&mut self.rel.read_handle(), self.s, self::ranges(ranges))
    }
    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        timed_reads(&mut self.rel.read_handle(), self.s, scans(locals))
    }
    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        timed_writes(
            self.s,
            flows,
            |t| self.rel.insert(t).unwrap_or(false),
            |k| self.rel.remove(k).unwrap_or(0),
            |_| {},
        )
    }
}

// ------------------------------------------------------------------- persist

pub struct Persist<'a> {
    pub rel: Arc<DurableRelation>,
    pub s: &'a FlowSchema,
}

impl<'a> Persist<'a> {
    pub fn build(s: &'a FlowSchema, flows: &[Flow], dir: &std::path::Path) -> Persist<'a> {
        let rel = create(s, dir).expect("create durable relation");
        rel.bulk_load(flows.iter().map(|&f| s.tuple(f)))
            .expect("bulk load");
        rel.commit().expect("commit the load");
        Persist {
            rel: Arc::new(rel),
            s,
        }
    }
}

impl Rung for Persist<'_> {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        timed_reads(&mut self.rel.read_handle(), self.s, points(keys))
    }
    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        timed_reads(&mut self.rel.read_handle(), self.s, self::ranges(ranges))
    }
    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        timed_reads(&mut self.rel.read_handle(), self.s, scans(locals))
    }
    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        let last = flows.len() - 1;
        timed_writes(
            self.s,
            flows,
            |t| self.rel.insert(t).unwrap_or(false),
            |k| self.rel.remove(k).unwrap_or(0),
            // Two log records per op: commit every 1024 writes, and at the end.
            |i| {
                if (i + 1) % (COMMIT_EVERY / 2) == 0 || i == last {
                    let _ = self.rel.commit();
                }
            },
        )
    }
}

// -------------------------------------------------------------------- server

/// A blocking client against a served copy of the `persist` rung's relation.
pub struct Server<'a> {
    pub handle: Option<ServeHandle>,
    pub client: Client,
    pub s: &'a FlowSchema,
    /// Send-to-receive times of the last `point` round (window 1).
    pub rtt_ns: Vec<f64>,
}

impl<'a> Server<'a> {
    pub fn build(s: &'a FlowSchema, rel: Arc<DurableRelation>) -> Server<'a> {
        let config = ServerConfig {
            workers: 1,
            commit: CommitMode::Coalesced,
            ..ServerConfig::default()
        };
        let handle = ServeHandle::spawn(rel, config).expect("spawn server");
        let client = Client::connect(handle.addr()).expect("connect");
        Server {
            handle: Some(handle),
            client,
            s,
            rtt_ns: Vec::new(),
        }
    }

    fn reads(&mut self, reqs: Vec<NetRequest>, keep_rtt: bool) -> (u64, Vec<u64>) {
        let mut out = Vec::with_capacity(reqs.len());
        let mut rtt = Vec::with_capacity(reqs.len());
        let t = Instant::now();
        for req in &reqs {
            let sent = Instant::now();
            let resp = self.client.request(req);
            rtt.push(sent.elapsed().as_nanos() as f64);
            out.push(match resp {
                Ok(NetResponse::Rows { tuples }) => fold_rows(&tuples),
                _ => u64::MAX,
            });
        }
        let ns = t.elapsed().as_nanos() as u64;
        if keep_rtt {
            self.rtt_ns = rtt;
        }
        (ns, out)
    }

    fn out_cols(&self) -> ColSet {
        self.s.cols.remote | self.s.cols.bytes | self.s.cols.pkts
    }
}

impl Rung for Server<'_> {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        let out = self.out_cols();
        let reqs = keys
            .iter()
            .map(|&(l, r)| NetRequest::Query {
                pattern: self.s.key(l, r),
                out,
            })
            .collect();
        self.reads(reqs, true)
    }

    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        let out = self.out_cols();
        let reqs = ranges
            .iter()
            .map(|&(l, lo)| NetRequest::QueryWhere {
                pattern: format!(
                    "local = {l}, remote between {lo} and {}",
                    lo + RANGE_ROWS - 1
                ),
                out,
            })
            .collect();
        self.reads(reqs, false)
    }

    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        let out = self.out_cols();
        let reqs = locals
            .iter()
            .map(|&l| NetRequest::Query {
                pattern: self.s.local(l),
                out,
            })
            .collect();
        self.reads(reqs, false)
    }

    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        let reqs: Vec<NetRequest> = flows
            .iter()
            .flat_map(|&f| {
                [
                    NetRequest::Insert {
                        tuple: self.s.tuple(f),
                    },
                    NetRequest::Remove {
                        pattern: self.s.key(f.0, f.1),
                    },
                ]
            })
            .collect();
        // Pipelined: up to WRITE_WINDOW requests in flight. A coalesced run
        // reports its count on its first ack, so only the total is exact.
        let (mut next, mut acked) = (0, 0u64);
        let t = Instant::now();
        for done in 0..reqs.len() {
            while next < reqs.len() && next - done < WRITE_WINDOW {
                if self.client.send(&reqs[next]).is_err() {
                    return (t.elapsed().as_nanos() as u64, vec![0; flows.len()]);
                }
                next += 1;
            }
            if let Ok(NetResponse::Ack { n }) = self.client.recv() {
                acked += n;
            }
        }
        let ns = t.elapsed().as_nanos() as u64;
        let all = u64::from(acked == reqs.len() as u64);
        (ns, vec![all; flows.len()])
    }
}

// --------------------------------------------------------------------- shell

/// `Session::eval` on a relation created `using` the default decomposition.
pub struct Shell(pub Session);

impl Shell {
    pub fn build(s: &FlowSchema, flows: &[Flow], dir: &std::path::Path) -> Shell {
        let path = dir.join("ladder_flows.tsv");
        let mut tsv = String::from("local\tremote\tbytes\tpkts\n");
        for (l, r, b, p) in flows {
            tsv.push_str(&format!("{l}\t{r}\t{b}\t{p}\n"));
        }
        std::fs::write(&path, tsv).expect("write ladder_flows.tsv");
        let mut session = Session::new();
        for line in [
            format!(
                "create relation flows(local, remote, bytes, pkts) fd local, remote -> bytes, pkts using {}",
                s.d.to_let_notation(&s.cat).replace('\n', " ")
            ),
            format!("load flows from \"{}\"", path.display()),
        ] {
            if let Err(d) = session.eval(&line) {
                panic!("ladder shell set-up failed:\n{}", d.render(&line));
            }
        }
        Shell(session)
    }

    /// Evaluates `select remote, bytes, pkts from flows where <pred>` for each
    /// predicate; a select's answer is the fold of its rows. `remote` is
    /// selected too because a projection is a set, and two remotes of one
    /// local may carry the same counters.
    fn selects(&mut self, predicates: impl Iterator<Item = String>) -> (u64, Vec<u64>) {
        let lines: Vec<String> = predicates
            .map(|p| format!("select remote, bytes, pkts from flows where {p}"))
            .collect();
        let mut texts = Vec::with_capacity(lines.len());
        let t = Instant::now();
        for line in &lines {
            texts.push(self.0.eval(line));
        }
        let ns = t.elapsed().as_nanos() as u64;
        let out = texts
            .into_iter()
            .map(|res| match res {
                Ok(Evaluated::Text(text)) => text
                    .lines()
                    .skip(1)
                    .filter_map(|row| {
                        let mut cells = row.split('\t').skip(1).map(str::parse::<i64>);
                        Some((cells.next()?.ok()?, cells.next()?.ok()?))
                    })
                    .fold(0, |acc, (b, p)| fold(acc, b, p)),
                _ => u64::MAX,
            })
            .collect();
        (ns, out)
    }
}

impl Rung for Shell {
    fn point(&mut self, keys: &[(i64, i64)]) -> (u64, Vec<u64>) {
        self.selects(
            keys.iter()
                .map(|(l, r)| format!("local = {l}, remote = {r}")),
        )
    }

    fn range(&mut self, ranges: &[(i64, i64)]) -> (u64, Vec<u64>) {
        self.selects(ranges.iter().map(|(l, lo)| {
            format!(
                "local = {l}, remote between {lo} and {}",
                lo + RANGE_ROWS - 1
            )
        }))
    }

    fn scan(&mut self, locals: &[i64]) -> (u64, Vec<u64>) {
        self.selects(locals.iter().map(|l| format!("local = {l}")))
    }

    fn write(&mut self, flows: &[Flow]) -> (u64, Vec<u64>) {
        let lines: Vec<(String, String)> = flows
            .iter()
            .map(|(l, r, b, p)| {
                (
                    format!("insert flows local = {l}, remote = {r}, bytes = {b}, pkts = {p}"),
                    format!("remove flows where local = {l}, remote = {r}"),
                )
            })
            .collect();
        let mut out = Vec::with_capacity(lines.len());
        let t = Instant::now();
        for (insert, remove) in &lines {
            let a = self.0.eval(insert);
            let b = self.0.eval(remove);
            out.push((a, b));
        }
        let ns = t.elapsed().as_nanos() as u64;
        let said = |res: &Result<Evaluated, relic_shell::Diag>, want: &str| matches!(res, Ok(Evaluated::Text(t)) if t == want);
        let out = out
            .iter()
            .map(|(a, b)| {
                u64::from(said(a, "inserted 1 into flows") && said(b, "removed 1 from flows"))
            })
            .collect();
        (ns, out)
    }
}

// ---------------------------------------------------------------- the ladder

/// The measured ladder, and what building it told us on the way.
pub struct Ladder {
    /// Per rung, in `RUNGS` order.
    pub rungs: Vec<Measured>,
    pub locals: usize,
    /// `SynthRelation::bulk_load` of the dataset, ns per tuple.
    pub bulk_load_ns_per_tuple: f64,
    /// Heap bytes the loaded `SynthRelation` holds, per tuple.
    pub live_bytes_per_tuple: f64,
    pub allocs_per_point: f64,
    pub allocs_per_write: f64,
    /// Round-trip times of the `server` rung's point reads (window 1).
    pub rtt_ns: Vec<f64>,
}

pub fn run(cfg: &Cfg) -> Ladder {
    let locals = cfg.size(256, 16);
    let s = FlowSchema::new();
    let flows = dense_flows(locals, REMOTES, cfg.seed);
    let ops = generate_ops(locals, cfg.size(20_000, 200), cfg.seed);
    let q = |full: usize| cfg.size(full, (full / 100).max(8));
    let fast = Counts {
        point: q(20_000),
        range: q(2_000),
        scan: q(1_000),
        write: q(10_000),
    };
    let interpreted = Counts {
        point: q(10_000),
        range: q(1_000),
        scan: q(500),
        write: q(2_000),
    };
    let remote = Counts {
        point: q(2_000),
        range: q(500),
        scan: q(200),
        write: q(2_000),
    };
    let mut rungs = Vec::with_capacity(RUNGS.len());

    rungs.push(measure(
        &mut Containers::build(&flows),
        &ops,
        fast,
        cfg.seed,
    ));
    rungs.push(measure(&mut Compiled::build(&flows), &ops, fast, cfg.seed));

    // The core rung is also where the allocation metrics come from: the
    // window holds the tuples' construction, the load, and nothing else.
    let window = crate::alloc::Window::open();
    let t = Instant::now();
    let mut core = Core::build(&s, &flows);
    let load_ns = t.elapsed().as_nanos() as f64;
    let (_, live) = window.close();
    rungs.push(measure(&mut core, &ops, interpreted, cfg.seed));
    // Allocator calls per warm point lookup through the bindings API (the
    // claim is none) and per insert + remove.
    let lookups_list = compile_queries(&s, &points(&ops.point[..interpreted.point]));
    let mut scratch = Bindings::new();
    let mut rows = 0u64;
    let mut lookups = |mut rel: &SynthRelation| {
        for q in &lookups_list {
            rows += fold_query(&mut rel, &mut scratch, &s, q).map_or(0, |(_, n)| u64::from(n));
        }
    };
    lookups(&core.rel);
    let window = crate::alloc::Window::open();
    lookups(&core.rel);
    let point_allocs = window.close().0;
    std::hint::black_box(rows);
    let writes: Vec<(Tuple, Tuple)> = ops.write[..interpreted.write]
        .iter()
        .map(|&f| (s.tuple(f), s.key(f.0, f.1)))
        .collect();
    let window = crate::alloc::Window::open();
    for (tuple, key) in writes {
        let _ = core.rel.insert(tuple);
        let _ = core.rel.remove(&key);
    }
    let write_allocs = window.close().0;
    drop(core);

    rungs.push(measure(
        &mut Concurrent::build(&s, &flows),
        &ops,
        interpreted,
        cfg.seed,
    ));

    let dir = cfg.work_dir.join("ladder");
    let mut persist = Persist::build(&s, &flows, &dir);
    rungs.push(measure(&mut persist, &ops, interpreted, cfg.seed));
    let mut server = Server::build(&s, Arc::clone(&persist.rel));
    rungs.push(measure(&mut server, &ops, remote, cfg.seed));
    let rtt_ns = std::mem::take(&mut server.rtt_ns);
    if let Some(h) = server.handle.take() {
        let _ = h.stop();
    }
    drop(server);
    drop(persist);
    let _ = std::fs::remove_dir_all(&dir);

    rungs.push(measure(
        &mut Shell::build(&s, &flows, &cfg.work_dir),
        &ops,
        remote,
        cfg.seed,
    ));

    Ladder {
        rungs,
        locals,
        bulk_load_ns_per_tuple: load_ns / flows.len() as f64,
        live_bytes_per_tuple: live as f64 / flows.len() as f64,
        allocs_per_point: point_allocs as f64 / interpreted.point as f64,
        allocs_per_write: write_allocs as f64 / interpreted.write as f64,
        rtt_ns,
    }
}

/// The rung each rung stands on, by index into `RUNGS`. The rungs are not
/// one chain: generated code and the interpreter both sit on the raw
/// containers, and the shell rung evaluates against a memory relation, not
/// through the server.
const STANDS_ON: [Option<usize>; 7] = [None, Some(0), Some(0), Some(2), Some(3), Some(4), Some(2)];

/// The ladder as a table: per rung and operation the time, and the tax over
/// the rung it stands on.
pub fn render(l: &Ladder) -> String {
    let mut out = format!(
        "ladder: {} flows ({} locals x {REMOTES} remotes), ns per operation, median of {ROUNDS} rounds; tax = rung minus the rung it stands on\n  {:<11} {:<11}",
        l.locals * REMOTES,
        l.locals,
        "rung",
        "stands on"
    );
    for op in LADDER_OPS {
        out.push_str(&format!(" {:>10} {:>10}", op, "tax"));
    }
    out.push('\n');
    for (i, (rung, m)) in RUNGS.iter().zip(&l.rungs).enumerate() {
        out.push_str(&format!(
            "  {rung:<11} {:<11}",
            STANDS_ON[i].map_or("-", |b| RUNGS[b])
        ));
        for (j, s) in m.ns.iter().enumerate() {
            let tax = STANDS_ON[i].map_or("-".to_string(), |b| {
                format!("{:+.0}", s.value - l.rungs[b].ns[j].value)
            });
            out.push_str(&format!(" {:>10.0} {:>10}", s.value, tax));
        }
        out.push('\n');
    }
    out
}

/// The ladder's per-layer metrics, by name.
pub fn metrics(l: &Ladder) -> BTreeMap<String, Summary> {
    let mut m = BTreeMap::new();
    for (rung, measured) in RUNGS.iter().zip(&l.rungs) {
        for (op, s) in LADDER_OPS.iter().zip(measured.ns) {
            m.insert(format!("{rung}.{op}_ns"), s);
        }
    }
    m
}
