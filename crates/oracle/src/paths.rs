//! The in-process paths a row drives: a [`SynthRelation`] with its
//! [`Snapshot`](relic_core::Snapshot), a [`ConcurrentRelation`] through its
//! views and a [`ReadHandle`], and a [`DurableRelation`] that checkpoints,
//! crashes and reopens.

use crate::{check_cases, check_reader, run, Model, Path, State, Step, TempDir, Universe};
use proptest::test_runner::TestRng;
use relic_concurrent::{ConcurrentRelation, ReadHandle};
use relic_core::{Op, OpError, RelRead, Snapshot, SynthRelation};
use relic_decomp::Decomposition;
use relic_persist::durable::WAL_FILE;
use relic_persist::{read_wal, DurableRelation, GroupCommitPolicy, PersistError};
use relic_spec::{ColSet, Relation, Tuple};
use std::fs;

/// [`Step::Rmw`] on one partition `p` — a [`SynthRelation`] or a durable
/// partition, whose writes have the same names: read `t`'s key, remove its
/// row if there is one, insert `t`.
macro_rules! upsert {
    ($p:expr, $t:expr, $key:expr) => {{
        let k = $t.project($key);
        if !$p.query(&k, ColSet::EMPTY).unwrap().is_empty() {
            $p.remove(&k).unwrap();
        }
        assert!($p.insert($t.clone()).unwrap());
    }};
}

/// A [`SynthRelation`], read live and through a snapshot taken at the
/// check. A check also validates it and holds its byte estimate (see
/// [`Synth::check_bytes`]), and pins a snapshot that the next check holds
/// to the model as it was: every write in between, in-place updates
/// included, runs while a reader holds the old version.
#[derive(Debug)]
pub struct Synth {
    /// The relation.
    pub rel: SynthRelation,
    /// Validate after every step, not only at a check.
    pub validate_steps: bool,
    /// The readers a check holds to the model: the relation, its snapshot.
    pub readers: [bool; 2],
    /// The snapshot the last check pinned, and the model's tuples then.
    pinned: Option<(Snapshot, Relation)>,
}

impl Synth {
    /// An empty relation of `u` represented by `d`, checking its functional
    /// dependency or not.
    pub fn new(u: &Universe, d: &Decomposition, fd_checking: bool) -> Synth {
        let mut r = SynthRelation::new(&u.cat, u.spec.clone(), d.clone()).unwrap();
        r.set_fd_checking(fd_checking);
        Synth {
            rel: r,
            validate_steps: false,
            readers: [true; 2],
            pinned: None,
        }
    }

    /// Holds the store's byte estimate to that of one `bulk_load` of the
    /// same tuples under the same decomposition.
    pub fn check_bytes(&self) {
        let r = &self.rel;
        let s = State::read(r, r.decomposition());
        let mut bulk = SynthRelation::new(r.catalog(), r.spec().clone(), s.decomp).unwrap();
        bulk.bulk_load(s.rel.iter().cloned()).unwrap();
        assert_eq!(r.store_approx_bytes(), bulk.store_approx_bytes());
    }

    /// Runs `cases` cases of row `row` on the steps `draw` makes (see
    /// [`check_cases`]), each followed by a commit point: case `i` starts on
    /// candidate `i % n` with FD checking on in the first `n` cases, off in
    /// the next `n`, and so on. Its checks hold the relation when `i + i / n`
    /// is even and its snapshot when it is odd, so the readers alternate
    /// between cases and between a candidate's two FD modes.
    pub fn cases(row: &str, u: &Universe, cases: u32, draw: impl Fn(&mut TestRng) -> Vec<Step>) {
        check_cases(row, u, cases, draw, |i, d, steps| {
            let n = u.candidates.len() as u32;
            let mut p = Synth::new(u, d, (i / n).is_multiple_of(2));
            let live = (i + i / n).is_multiple_of(2);
            p.readers = [live, !live];
            let steps = [steps, &[Step::Commit]].concat();
            run(&mut p, &mut Model::new(u, d), &steps);
        });
    }
}

impl Path for Synth {
    fn apply(&mut self, op: Op) -> Result<usize, OpError> {
        self.rel.apply(op)
    }

    fn rmw(&mut self, t: &Tuple, key: ColSet) {
        upsert!(self.rel, t, key);
    }

    fn state(&self) -> State {
        if self.validate_steps {
            self.rel.validate().unwrap();
        }
        State::read(&self.rel, self.rel.decomposition())
    }

    fn check(&mut self, m: &State) {
        self.rel.validate().unwrap();
        self.check_bytes();
        let [live, snapshot] = self.readers;
        if live {
            check_reader(&self.rel, &m.rel);
        }
        if snapshot {
            check_reader(&self.rel.snapshot(), &m.rel);
        }
        if let Some((old, then)) = &self.pinned {
            check_reader(old, then);
        }
        self.pinned = Some((self.rel.snapshot(), m.rel.clone()));
    }
}

/// Holds a sharded relation to the model: every shard's decomposition in a
/// fresh [`read_view`], a read pinned to each stored shard valuation
/// through `handle`'s [`fresh_for`] — which re-checks only the owning
/// shard — and the battery on the fresh view (read-your-writes) and on
/// `handle`'s whole refreshed view.
///
/// [`read_view`]: ConcurrentRelation::read_view
/// [`fresh_for`]: ReadHandle::fresh_for
fn check_sharded(rel: &ConcurrentRelation, handle: &mut ReadHandle<'_>, m: &State) {
    let view = rel.read_view();
    for i in 0..view.shard_count() {
        assert_eq!(view.shard(i).decomposition(), &m.decomp, "shard {i}");
    }
    assert_eq!(rel.len(), m.rel.len(), "len");
    let (pin, rest) = (rel.shard_cols(), m.rel.cols() - rel.shard_cols());
    for h in m.rel.query(&Tuple::empty(), pin) {
        let got = handle.fresh_for(|c| h.get(c)).query(&h, rest).unwrap();
        assert_eq!(got, m.rel.query(&h, rest), "pinned read {h}");
    }
    check_reader(&view, &m.rel);
    check_reader(handle.view(), &m.rel);
}

fn view_state(rel: &ConcurrentRelation) -> State {
    rel.validate().unwrap();
    let view = rel.read_view();
    State::read(&view, view.shard(0).decomposition())
}

/// A [`ConcurrentRelation`], read through `check_sharded` with one
/// long-lived [`ReadHandle`].
pub struct Sharded<'a> {
    rel: &'a ConcurrentRelation,
    handle: ReadHandle<'a>,
}

impl<'a> Sharded<'a> {
    /// Drives `rel`.
    pub fn new(rel: &'a ConcurrentRelation) -> Self {
        Sharded {
            rel,
            handle: rel.read_handle(),
        }
    }
}

impl Path for Sharded<'_> {
    fn apply(&mut self, op: Op) -> Result<usize, OpError> {
        self.rel.apply(op)
    }

    fn rmw(&mut self, t: &Tuple, key: ColSet) {
        self.rel
            .with_partition_mut(&t.project(key), |s| upsert!(s, t, key));
    }

    fn shard_of(&self, t: &Tuple) -> usize {
        self.rel.owning_shard(t)
    }

    fn state(&self) -> State {
        view_state(self.rel)
    }

    fn check(&mut self, m: &State) {
        check_sharded(self.rel, &mut self.handle, m);
    }
}

/// A [`DurableRelation`] under the manual group-commit policy, in its own
/// temp directory (removed on drop). Under that policy the log file holds
/// exactly what the last commit made durable, which a crash keeps; `base`
/// is its length at the last checkpoint or reopen, where the cuts of
/// [`crash_scan`](Durable::crash_scan) start.
#[derive(Debug)]
pub struct Durable {
    rel: Option<DurableRelation>,
    dir: TempDir,
    base: u64,
}

impl Durable {
    /// A fresh durable relation of `d` with `shards` shards on `shard_cols`.
    pub fn create(u: &Universe, d: &Decomposition, shards: usize) -> Durable {
        let dir = TempDir::new("durable");
        let policy = GroupCommitPolicy::manual();
        let (spec, d) = (u.spec.clone(), d.clone());
        let r = DurableRelation::create(
            dir.path(),
            &u.cat,
            spec,
            d,
            u.shard_cols,
            shards,
            true,
            policy,
        );
        let mut p = Durable {
            rel: Some(r.unwrap()),
            dir,
            base: 0,
        };
        p.rebase();
        p
    }

    /// Starts the cuts at the log's end: after a create, a checkpoint or a
    /// reopen.
    fn rebase(&mut self) {
        self.base = self.log_len();
    }

    /// The open relation, for threads that drive it concurrently.
    pub fn r(&self) -> &DurableRelation {
        self.rel.as_ref().expect("open")
    }

    fn log_len(&self) -> u64 {
        fs::metadata(self.dir.path().join(WAL_FILE)).unwrap().len()
    }

    /// The directory's files: under the manual policy, the disk a crash
    /// now would leave behind.
    pub fn image(&self) -> Vec<(String, Vec<u8>)> {
        let file = |f: fs::DirEntry| (f.file_name().into_string().unwrap(), fs::read(f.path()));
        let files = fs::read_dir(self.dir.path())
            .unwrap()
            .map(|f| file(f.unwrap()));
        files.map(|(name, bytes)| (name, bytes.unwrap())).collect()
    }

    /// Recovers the directory `image` in a scratch copy.
    pub fn recover(image: &[(String, Vec<u8>)]) -> State {
        let scratch = TempDir::new("cut");
        for (name, bytes) in image {
            fs::write(scratch.path().join(name), bytes).unwrap();
        }
        let r = DurableRelation::open(scratch.path(), GroupCommitPolicy::manual()).unwrap();
        view_state(r.relation())
    }

    /// Recovers the directory with its log replaced by `log`.
    fn recover_log(&self, log: &[u8]) -> State {
        let mut image = self.image();
        image.retain(|(name, _)| name != WAL_FILE);
        image.push((WAL_FILE.to_string(), log.to_vec()));
        Durable::recover(&image)
    }

    /// Commits, then recovers the log cut at every record boundary since the
    /// last checkpoint or reopen and at every byte of the final record. Each
    /// cut must recover exactly what the model replays from the records
    /// before it, and that must be the model's state after some unit of the
    /// steps since then, a unit that only moves forward as the cut grows —
    /// so a step torn into two records fails. The whole log replays to the
    /// model's state now. A byte of the final record flipped in three places
    /// recovers what the cut before it does.
    pub fn crash_scan(&mut self, m: &Model) {
        self.commit();
        let path = self.dir.path().join(WAL_FILE);
        let (full, scanned) = (fs::read(&path).unwrap(), read_wal(&path).unwrap());
        assert_eq!(scanned.valid_len, full.len() as u64, "a clean log");
        let mut tail = scanned.entries;
        tail.retain(|e| e.start >= self.base);
        let Some(last) = tail.last() else { return };
        let mut cuts: Vec<u64> = tail.iter().map(|e| e.end).collect();
        cuts.extend((last.start..last.end).chain([self.base]));
        cuts.sort_unstable();
        cuts.dedup();
        let (mut replay, mut records) = (m.rewound(), tail.iter().peekable());
        let (mut k, mut before_last) = (0, None);
        for cut in cuts {
            while let Some(e) = records.next_if(|e| e.end <= cut) {
                replay.replay(&e.record);
            }
            let got = self.recover_log(&full[..cut as usize]);
            assert_eq!(got, replay.now, "cut {cut} against its records");
            k = m.reached(&got, k, &format!("the log cut at byte {cut}"));
            if cut == last.start {
                before_last = Some(got);
            }
        }
        assert_eq!(replay.now, m.now, "the whole log replays to the model");
        let len = last.end - last.start;
        for at in [last.start, last.start + len / 2, last.end - 1] {
            let mut bad = full.clone();
            bad[at as usize] ^= 0x5A;
            assert_eq!(
                Some(self.recover_log(&bad)),
                before_last,
                "byte {at} flipped"
            );
        }
    }
}

impl Path for Durable {
    fn apply(&mut self, op: Op) -> Result<usize, OpError> {
        self.r().apply(op).map_err(|e| match e {
            PersistError::Op(e) => e,
            e => panic!("{e}"),
        })
    }

    fn rmw(&mut self, t: &Tuple, key: ColSet) {
        let r = self.r();
        r.with_partition_mut(&t.project(key), |p| upsert!(p, t, key))
            .unwrap();
    }

    fn shard_of(&self, t: &Tuple) -> usize {
        self.r().relation().owning_shard(t)
    }

    fn state(&self) -> State {
        view_state(self.r().relation())
    }

    fn check(&mut self, m: &State) {
        let r = self.r();
        check_sharded(r.relation(), &mut r.read_handle(), m);
    }

    fn commit(&mut self) {
        self.r().commit().unwrap();
    }

    fn checkpoint(&mut self) {
        self.r().checkpoint().unwrap();
        self.rebase();
    }

    fn crash(&mut self, keep: u64) {
        let durable = self.log_len();
        self.commit();
        drop(self.rel.take());
        let path = self.dir.path().join(WAL_FILE);
        let full = fs::read(&path).unwrap();
        let cut = durable.saturating_add(keep).min(full.len() as u64);
        fs::write(&path, &full[..cut as usize]).unwrap();
        let r = DurableRelation::open(self.dir.path(), GroupCommitPolicy::manual());
        self.rel = Some(r.unwrap());
        self.rebase();
    }
}
