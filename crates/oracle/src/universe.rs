//! The relations the rows drive, and the one generator over them.

use crate::Step;
use proptest::test_runner::TestRng;
use relic_core::Op;
use relic_decomp::{enumerate_decompositions, parse, Decomposition, DsKind, EnumerateOptions};
use relic_spec::{Catalog, ColId, ColSet, Pattern, Pred, RelSpec, Tuple, Value};
use std::ops::Range;

/// A relation to drive: its catalog and specification, the candidate
/// decompositions a row starts from and a `Migrate` moves between, the
/// shard columns of the sharded paths, and each column's value palette.
/// Small palettes make duplicates, key conflicts and hits likely.
#[derive(Debug, Clone)]
pub struct Universe {
    /// The catalog every candidate is parsed against.
    pub cat: Catalog,
    /// The specification; its only dependency, if any, is key → the rest.
    pub spec: RelSpec,
    /// The candidate decompositions.
    pub candidates: Vec<Decomposition>,
    /// The shard columns, a subset of the minimal key.
    pub shard_cols: ColSet,
    palette: Vec<(ColId, Vec<Value>)>,
}

/// The length of a generated sequence and the weights of the fault steps
/// [`Step::Commit`], [`Step::Checkpoint`] and [`Step::CrashAt`] against the
/// hundred of the write kinds (0 never draws the step).
#[derive(Debug, Clone)]
pub struct Mix {
    len: Range<usize>,
    weights: [u32; 3],
}

impl Mix {
    /// A number of steps drawn from `len`, with the fault steps' `weights`.
    pub fn new(len: Range<usize>, weights: [u32; 3]) -> Mix {
        Mix { len, weights }
    }
}

fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::from).collect()
}

impl Universe {
    /// Columns with their palettes, interned in order; `key` → every other
    /// column when `key` is not empty; sharded by `shard`; candidates in
    /// let-notation.
    fn new(cols: &[(&str, Vec<Value>)], key: &[&str], shard: &str, srcs: &[String]) -> Self {
        let mut cat = Catalog::new();
        let palette: Vec<_> = cols
            .iter()
            .map(|(c, vs)| (cat.intern(c), vs.clone()))
            .collect();
        let key: ColSet = key.iter().map(|c| cat.intern(c)).collect();
        let mut spec = RelSpec::new(cat.all());
        if !key.is_empty() {
            spec = spec.with_fd(key, cat.all() - key);
        }
        let candidates = srcs.iter().map(|s| parse(&mut cat, s).unwrap()).collect();
        let shard_cols = cat.intern(shard).set();
        Universe {
            cat,
            spec,
            candidates,
            shard_cols,
            palette,
        }
    }

    /// Adds every `step`-th enumerated decomposition up to `max_edges` edges
    /// over `structures`.
    fn enumerated(mut self, max_edges: usize, structures: Vec<DsKind>, step: usize) -> Self {
        let opts = EnumerateOptions {
            max_edges,
            structures,
            ..Default::default()
        };
        let all = enumerate_decompositions(&self.spec, &opts);
        self.candidates.extend(all.into_iter().step_by(step));
        self
    }

    /// The paper's scheduler relation, `ns, pid → state, cpu`, sharded by
    /// `ns`, over five hand-picked decompositions: Fig. 2(a) with an
    /// intrusive list, the same shape over `avl` / `dlist` / `sortedvec`, a
    /// chain, one flat map, and an unshared join.
    pub fn scheduler() -> Self {
        let srcs = [
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
             let x : {} . {ns,pid,state,cpu} = ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[avl]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
             let x : {} . {ns,pid,state,cpu} = ({ns} -[sortedvec]-> y) join ({state} -[vec]-> z) in x",
            "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
             let y : {ns} . {pid,state,cpu} = {pid} -[htable]-> w in
             let x : {} . {ns,pid,state,cpu} = {ns} -[htable]-> y in x",
            "let w : {ns,pid} . {state,cpu} = unit {state,cpu} in
             let x : {} . {ns,pid,state,cpu} = {ns,pid} -[avl]-> w in x",
            "let l : {ns,pid} . {state,cpu} = unit {state,cpu} in
             let r : {state,ns,pid} . {cpu} = unit {cpu} in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> r in
             let x : {} . {ns,pid,state,cpu} = ({ns,pid} -[htable]-> l) join ({state} -[vec]-> z) in x",
        ];
        let states = vec![Value::from("R"), Value::from("S")];
        let cols = [
            ("ns", ints(4)),
            ("pid", ints(6)),
            ("state", states),
            ("cpu", ints(4)),
        ];
        Universe::new(&cols, &["ns", "pid"], "ns", &srcs.map(String::from))
    }

    /// `a, b → v`, sharded by `a`, two levels over each container kind
    /// (an intrusive list pairs with an `htable` root). With `fd` the
    /// enumerated decompositions up to two edges over `htable` and `avl`
    /// join them; without it the spec has no dependency, so the key path
    /// carries every column.
    pub fn abv(fd: bool) -> Self {
        let (leaf, key) = if fd {
            ("let u : {a,b} . {v} = unit {v} in", "{b}")
        } else {
            ("let u : {a,b,v} . {} = unit {} in", "{b,v}")
        };
        let srcs: Vec<String> = ["htable", "avl", "sortedvec", "vec", "dlist", "ilist"]
            .iter()
            .map(|ds| {
                let root = if *ds == "ilist" { "htable" } else { ds };
                format!(
                    "{leaf} let y : {{a}} . {{b,v}} = {key} -[{ds}]-> u in
                     let x : {{}} . {{a,b,v}} = {{a}} -[{root}]-> y in x"
                )
            })
            .collect();
        let cols = [("a", ints(3)), ("b", ints(4)), ("v", ints(3))];
        let u = Universe::new(&cols, if fd { &["a", "b"] } else { &[] }, "a", &srcs);
        if fd {
            u.enumerated(2, vec![DsKind::HashTable, DsKind::AvlTree], 1)
        } else {
            u
        }
    }

    /// IpCap's accounting shape, `host, ts → bytes`, sharded by `host`:
    /// nested (`htable` of `avl`) and flat (`avl` on the pair).
    pub fn flows() -> Self {
        let srcs = [
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let h : {host} . {ts,bytes} = {ts} -[avl]-> u in
             let x : {} . {host,ts,bytes} = {host} -[htable]-> h in x",
            "let u : {host,ts} . {bytes} = unit {bytes} in
             let x : {} . {host,ts,bytes} = {host,ts} -[avl]-> u in x",
        ];
        let cols = [("host", ints(6)), ("ts", ints(8)), ("bytes", ints(4))];
        Universe::new(&cols, &["host", "ts"], "host", &srcs.map(String::from))
    }

    /// `k → a, b, c`, sharded by `k`, over container entries of every
    /// width: inline units of three (boxed), two, one and no columns under
    /// keys of one, two, three and four columns, and a two-column unit
    /// under a one-column key one level down. `k` and `c` are strings, so
    /// a one-column key and an inline unit hold a shared string.
    pub fn widths() -> Self {
        let srcs = [
            "let w : {k} . {a,b,c} = unit {a,b,c} in
             let x : {} . {k,a,b,c} = {k} -[htable]-> w in x",
            "let w : {k} . {a,b,c} = unit {a,b,c} in
             let x : {} . {k,a,b,c} = {k} -[avl]-> w in x",
            "let w : {k,a} . {b,c} = unit {b,c} in
             let x : {} . {k,a,b,c} = {k,a} -[avl]-> w in x",
            "let w : {k,a} . {b,c} = unit {b,c} in
             let y : {a} . {k,b,c} = {k} -[htable]-> w in
             let x : {} . {k,a,b,c} = {a} -[sortedvec]-> y in x",
            "let w : {k,a,b} . {c} = unit {c} in
             let x : {} . {k,a,b,c} = {k,a,b} -[dlist]-> w in x",
            "let w : {k,a,b,c} . {} = unit {} in
             let x : {} . {k,a,b,c} = {k,a,b,c} -[htable]-> w in x",
        ];
        let strs = |xs: &[&str]| xs.iter().map(|&x| Value::from(x)).collect();
        let cols = [
            ("k", strs(&["p", "q", "r", "s"])),
            ("a", ints(3)),
            ("b", ints(3)),
            ("c", strs(&["x", "y"])),
        ];
        Universe::new(&cols, &["k"], "k", &srcs.map(String::from))
    }

    /// A weighted graph, `src, dst → weight`, sharded by `src`: every 7th
    /// enumerated decomposition up to three edges over `htable` and
    /// `dlist`.
    pub fn graph() -> Self {
        let cols = [("src", ints(5)), ("dst", ints(5)), ("weight", ints(3))];
        let u = Universe::new(&cols, &["src", "dst"], "src", &[]);
        u.enumerated(3, vec![DsKind::HashTable, DsKind::DList], 7)
    }

    /// The tuple over `cols` (names, in order) with integer values `vals`.
    pub fn tuple(&self, cols: &[&str], vals: &[i64]) -> Tuple {
        let col = |c: &&str| self.cat.col(c).expect("a column of the universe");
        let vals = vals.iter().map(|&v| Value::from(v));
        Tuple::from_pairs(cols.iter().map(col).zip(vals))
    }

    /// A random sequence drawn from `mix`.
    pub fn steps(&self, rng: &mut TestRng, mix: &Mix) -> Vec<Step> {
        let span = (mix.len.end - mix.len.start).max(1) as u64;
        let n = mix.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.step(rng, mix)).collect()
    }

    fn step(&self, rng: &mut TestRng, mix: &Mix) -> Step {
        let [commit, checkpoint, crash] = mix.weights;
        let faults = commit + checkpoint + crash;
        let op = match rng.below(u64::from(100 + faults)) as u32 {
            0..=29 => Op::Insert(self.random_tuple(rng)),
            30..=39 => Op::InsertMany(self.batch(rng)),
            40..=49 => Op::BulkLoad(self.batch(rng)),
            50..=59 => Op::Remove(self.pattern(rng)),
            60..=64 => Op::RemoveMany((0..1 + rng.below(3)).map(|_| self.pattern(rng)).collect()),
            65..=69 => Op::RemoveWhere(self.range(rng)),
            70..=79 => self.update(rng),
            80..=84 if self.candidates.len() > 1 => return self.migrate(rng),
            80..=99 => return Step::Rmw(self.random_tuple(rng)),
            w if w < 100 + commit => return Step::Commit,
            w if w < 100 + commit + checkpoint => return Step::Checkpoint,
            _ if rng.next_bool() => return Step::CrashAt(u64::MAX),
            _ => return Step::CrashAt(rng.below(256)),
        };
        Step::Op(op)
    }

    /// A `Migrate` to a random candidate.
    pub fn migrate(&self, rng: &mut TestRng) -> Step {
        let d = Self::pick(rng, &self.candidates);
        Step::Op(Op::Migrate(d.to_let_notation(&self.cat)))
    }

    fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
        &xs[rng.below(xs.len() as u64) as usize]
    }

    /// A tuple with every column drawn from its palette.
    pub fn random_tuple(&self, rng: &mut TestRng) -> Tuple {
        Tuple::from_pairs(
            self.palette
                .iter()
                .map(|(c, vs)| (*c, Self::pick(rng, vs).clone())),
        )
    }

    /// One to eight tuples; half the time all on the first one's shard.
    fn batch(&self, rng: &mut TestRng) -> Vec<Tuple> {
        let n = 1 + rng.below(8);
        let mut ts: Vec<Tuple> = (0..n).map(|_| self.random_tuple(rng)).collect();
        if rng.next_bool() {
            let pin = ts[0].project(self.shard_cols);
            ts.iter_mut().for_each(|t| *t = t.merge(&pin));
        }
        ts
    }

    /// A random tuple projected onto a random column subset.
    pub fn pattern(&self, rng: &mut TestRng) -> Tuple {
        let subsets: Vec<ColSet> = self.spec.cols().subsets().collect();
        self.random_tuple(rng).project(*Self::pick(rng, &subsets))
    }

    /// `c between lo and hi` on a random column, half the time beside an
    /// equality on the shard columns.
    fn range(&self, rng: &mut TestRng) -> Pattern {
        let (c, vs) = Self::pick(rng, &self.palette);
        let (x, y) = (Self::pick(rng, vs).clone(), Self::pick(rng, vs).clone());
        let mut p = Pattern::new().with(*c, Pred::Between(x.clone().min(y.clone()), x.max(y)));
        if rng.next_bool() {
            for (s, v) in self.random_tuple(rng).project(self.shard_cols).iter() {
                p = p.with(s, Pred::Eq(v.clone()));
            }
        }
        p
    }

    /// A key pattern and new values for a random non-empty subset of the
    /// other columns; an insert when the key is every column.
    fn update(&self, rng: &mut TestRng) -> Op {
        let (key, cols) = (self.spec.minimal_key(), self.spec.cols());
        let rest: Vec<ColSet> = (cols - key).subsets().filter(|s| !s.is_empty()).collect();
        if rest.is_empty() {
            return Op::Insert(self.random_tuple(rng));
        }
        let pattern = self.random_tuple(rng).project(key);
        let changes = self.random_tuple(rng).project(*Self::pick(rng, &rest));
        Op::Update { pattern, changes }
    }
}
