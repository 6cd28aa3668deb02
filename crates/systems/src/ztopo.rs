//! The ZTopo map-tile cache (§6.2).
//!
//! ZTopo keeps recently viewed map tiles in a two-level cache: in-memory
//! tiles and on-disk tiles. The original kept a hash table of tiles *plus*
//! per-state linked lists for eviction, with "fairly subtle dynamic
//! assertions" checking the two structures stayed in agreement — exactly the
//! overlapping-structure invariant the paper synthesizes away.
//!
//! The tile cache is the relation `tiles⟨tile, state, stamp⟩` with
//! `tile → state, stamp` and `state ∈ {M, D}` (memory/disk) — the same shape
//! as the running scheduler example.
//!
//! [`BaselineTileCache`] is the hand-coded double structure (map + per-state
//! ordered index, invariants maintained by hand, checked by
//! `debug_assert!`s); [`SynthTileCache`] delegates to a [`SynthRelation`]
//! whose decomposition *is* that double structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relic_core::{RelRead, SynthRelation};
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};
use std::collections::{BTreeSet, HashMap};

/// A viewer request for one tile id at a logical time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRequest {
    /// Tile id (encodes x, y, zoom).
    pub tile: i64,
    /// Logical timestamp.
    pub now: i64,
}

/// Generates a panning random walk over a `w × h` tile grid: each step
/// requests the 2×2 block around the cursor, then the cursor drifts.
/// Deterministic in `seed`.
pub fn pan_workload(steps: usize, w: i64, h: i64, seed: u64) -> Vec<TileRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut x, mut y) = (w / 2, h / 2);
    let mut out = Vec::with_capacity(steps * 4);
    let mut now = 0i64;
    for _ in 0..steps {
        for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let tx = (x + dx).clamp(0, w - 1);
            let ty = (y + dy).clamp(0, h - 1);
            out.push(TileRequest {
                tile: ty * w + tx,
                now,
            });
            now += 1;
        }
        x = (x + rng.gen_range(-1..=1)).clamp(0, w - 1);
        y = (y + rng.gen_range(-1..=1)).clamp(0, h - 1);
    }
    out
}

/// Where a requested tile was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileOutcome {
    /// In memory.
    Memory,
    /// On disk (promoted to memory by the request).
    Disk,
    /// Not cached (fetched from the network into memory).
    Network,
}

/// The tile-cache interface both implementations provide.
pub trait TileCache {
    /// Serves one request, returning where the tile was found. The tile ends
    /// up in memory; if memory exceeds its budget the oldest in-memory tile
    /// is demoted to disk; if disk exceeds its budget the oldest on-disk
    /// tile is dropped.
    fn request(&mut self, req: TileRequest) -> TileOutcome;
    /// `(in-memory tiles, on-disk tiles)`.
    fn sizes(&self) -> (usize, usize);
}

/// Replays a workload, returning outcomes and final sizes.
pub fn run_tiles<C: TileCache>(
    cache: &mut C,
    reqs: &[TileRequest],
) -> (Vec<TileOutcome>, (usize, usize)) {
    let outcomes = reqs.iter().map(|r| cache.request(*r)).collect();
    (outcomes, cache.sizes())
}

// [baseline:begin]
/// Hand-coded tile cache: a hash map of tiles plus one ordered eviction
/// index per state. Every mutation must keep the three structures in
/// agreement — the invariant checked by `debug_assert_consistent`.
#[derive(Debug)]
pub struct BaselineTileCache {
    tiles: HashMap<i64, (u8, i64)>,    // tile -> (state M=0/D=1, stamp)
    by_age_mem: BTreeSet<(i64, i64)>,  // (stamp, tile) for state M
    by_age_disk: BTreeSet<(i64, i64)>, // (stamp, tile) for state D
    mem_budget: usize,
    disk_budget: usize,
}

impl BaselineTileCache {
    /// Creates a cache with the given per-level budgets.
    pub fn new(mem_budget: usize, disk_budget: usize) -> Self {
        BaselineTileCache {
            tiles: HashMap::new(),
            by_age_mem: BTreeSet::new(),
            by_age_disk: BTreeSet::new(),
            mem_budget,
            disk_budget,
        }
    }

    fn debug_assert_consistent(&self) {
        debug_assert_eq!(
            self.tiles.len(),
            self.by_age_mem.len() + self.by_age_disk.len(),
            "tile map and eviction indexes out of sync"
        );
        debug_assert!(self
            .by_age_mem
            .iter()
            .all(|&(st, t)| self.tiles.get(&t) == Some(&(0, st))));
        debug_assert!(self
            .by_age_disk
            .iter()
            .all(|&(st, t)| self.tiles.get(&t) == Some(&(1, st))));
    }

    fn set(&mut self, tile: i64, state: u8, stamp: i64) {
        if let Some((old_state, old_stamp)) = self.tiles.insert(tile, (state, stamp)) {
            let idx = if old_state == 0 {
                &mut self.by_age_mem
            } else {
                &mut self.by_age_disk
            };
            idx.remove(&(old_stamp, tile));
        }
        let idx = if state == 0 {
            &mut self.by_age_mem
        } else {
            &mut self.by_age_disk
        };
        idx.insert((stamp, tile));
    }

    fn enforce_budgets(&mut self) {
        while self.by_age_mem.len() > self.mem_budget {
            let &(stamp, tile) = self.by_age_mem.iter().next().expect("nonempty");
            // Demote to disk, keeping its stamp.
            self.by_age_mem.remove(&(stamp, tile));
            self.tiles.insert(tile, (1, stamp));
            self.by_age_disk.insert((stamp, tile));
        }
        while self.by_age_disk.len() > self.disk_budget {
            let &(stamp, tile) = self.by_age_disk.iter().next().expect("nonempty");
            self.by_age_disk.remove(&(stamp, tile));
            self.tiles.remove(&tile);
        }
        self.debug_assert_consistent();
    }
}

impl TileCache for BaselineTileCache {
    fn request(&mut self, req: TileRequest) -> TileOutcome {
        let outcome = match self.tiles.get(&req.tile) {
            Some(&(0, _)) => TileOutcome::Memory,
            Some(&(1, _)) => TileOutcome::Disk,
            Some(_) => unreachable!("two states"),
            None => TileOutcome::Network,
        };
        self.set(req.tile, 0, req.now);
        self.enforce_budgets();
        outcome
    }

    fn sizes(&self) -> (usize, usize) {
        (self.by_age_mem.len(), self.by_age_disk.len())
    }
}
// [baseline:end]

/// Column handles for the tile relation.
#[derive(Debug, Clone, Copy)]
pub struct TileCols {
    /// Tile id.
    pub tile: ColId,
    /// Cache level: `"M"` or `"D"`.
    pub state: ColId,
    /// Last-access timestamp.
    pub stamp: ColId,
}

/// Creates the tile relation's catalog, columns and specification.
pub fn tile_spec() -> (Catalog, TileCols, RelSpec) {
    let mut cat = Catalog::new();
    let cols = TileCols {
        tile: cat.intern("tile"),
        state: cat.intern("state"),
        stamp: cat.intern("stamp"),
    };
    let spec = RelSpec::new(cols.tile | cols.state | cols.stamp)
        .with_fd(cols.tile.into(), cols.state | cols.stamp);
    (cat, cols, spec)
}

/// The default decomposition: tiles hashed by id, sharing their leaf with a
/// per-state index — the scheduler shape of Fig. 2 applied to tiles. The
/// whole "keep the hash table and the per-state lists consistent" problem
/// disappears into adequacy + soundness.
pub fn default_decomposition(cat: &mut Catalog) -> Decomposition {
    relic_decomp::parse(
        cat,
        "let w : {tile,state} . {stamp} = unit {stamp} in
         let y : {tile} . {state,stamp} = {state} -[vec]-> w in
         let z : {state} . {tile,stamp} = {tile} -[htable]-> w in
         let x : {} . {tile,state,stamp} =
           ({tile} -[htable]-> y) join ({state} -[vec]-> z) in x",
    )
    .expect("default decomposition parses")
}

// [synth:begin]
/// The synthesized tile cache.
#[derive(Debug)]
pub struct SynthTileCache {
    rel: SynthRelation,
    cols: TileCols,
    mem_budget: usize,
    disk_budget: usize,
    mem_count: usize,
    disk_count: usize,
}

impl SynthTileCache {
    /// Creates a cache over any adequate decomposition of the tile relation.
    ///
    /// # Errors
    ///
    /// Propagates adequacy failures.
    pub fn new(
        cat: &Catalog,
        cols: TileCols,
        spec: &RelSpec,
        d: Decomposition,
        mem_budget: usize,
        disk_budget: usize,
    ) -> Result<Self, relic_core::BuildError> {
        let mut rel = SynthRelation::new(cat, spec.clone(), d)?;
        rel.set_fd_checking(false);
        Ok(SynthTileCache {
            rel,
            cols,
            mem_budget,
            disk_budget,
            mem_count: 0,
            disk_count: 0,
        })
    }

    /// Access to the underlying relation (for validation in tests).
    pub fn relation(&self) -> &SynthRelation {
        &self.rel
    }

    /// Warm-starts the cache from saved `(tile, state, stamp)` entries
    /// (`state` is `"M"` or `"D"`) — the restart path — as one bulk load,
    /// then enforces the budgets once for the whole batch. Returns the
    /// number of tiles loaded.
    ///
    /// # Errors
    ///
    /// As for [`SynthRelation::bulk_load`] (e.g. two states for one tile).
    pub fn preload<I: IntoIterator<Item = (i64, &'static str, i64)>>(
        &mut self,
        tiles: I,
    ) -> Result<usize, relic_core::OpError> {
        let cols = self.cols;
        let batch: Vec<Tuple> = tiles
            .into_iter()
            .map(|(tile, state, stamp)| {
                Tuple::from_pairs([
                    (cols.tile, Value::from(tile)),
                    (cols.state, Value::from(state)),
                    (cols.stamp, Value::from(stamp)),
                ])
            })
            .collect();
        let res = self.rel.bulk_load(batch);
        // Recount from the relation — duplicate inputs (and the accepted
        // prefix of a failed load) must not skew the cached sizes — and
        // re-establish the budget invariant before propagating any error,
        // so a partial load never leaves the cache over budget.
        self.mem_count = self.count_state("M");
        self.disk_count = self.count_state("D");
        self.enforce_budgets();
        res
    }

    /// Number of tiles currently in `state`.
    fn count_state(&self, state: &str) -> usize {
        let pat = Tuple::from_pairs([(self.cols.state, Value::from(state))]);
        let mut n = 0;
        self.rel
            .query_for_each(&pat, self.cols.tile.into(), |_| n += 1)
            .expect("in-relation query");
        n
    }

    /// The oldest `(stamp, tile)` in a state, if any.
    fn oldest(&self, state: &str) -> Option<(i64, i64)> {
        let pat = Tuple::from_pairs([(self.cols.state, Value::from(state))]);
        let mut best: Option<(i64, i64)> = None;
        self.rel
            .query_for_each(&pat, self.cols.tile | self.cols.stamp, |t| {
                let tile = t.get(self.cols.tile).and_then(Value::as_int).unwrap();
                let stamp = t.get(self.cols.stamp).and_then(Value::as_int).unwrap();
                if best.map(|b| (stamp, tile) < b).unwrap_or(true) {
                    best = Some((stamp, tile));
                }
            })
            .expect("in-relation query");
        best
    }

    fn enforce_budgets(&mut self) {
        while self.mem_count > self.mem_budget {
            let (_, tile) = self.oldest("M").expect("nonempty");
            self.rel
                .update(
                    &Tuple::from_pairs([(self.cols.tile, Value::from(tile))]),
                    &Tuple::from_pairs([(self.cols.state, Value::from("D"))]),
                )
                .expect("demote to disk");
            self.mem_count -= 1;
            self.disk_count += 1;
        }
        while self.disk_count > self.disk_budget {
            let (_, tile) = self.oldest("D").expect("nonempty");
            self.rel
                .remove(&Tuple::from_pairs([(self.cols.tile, Value::from(tile))]))
                .expect("drop from disk");
            self.disk_count -= 1;
        }
    }
}

impl TileCache for SynthTileCache {
    fn request(&mut self, req: TileRequest) -> TileOutcome {
        let key = Tuple::from_pairs([(self.cols.tile, Value::from(req.tile))]);
        let existing = self.rel.query(&key, self.cols.state.into()).expect("query");
        let outcome = match existing.first() {
            Some(t) => match t.get(self.cols.state).and_then(Value::as_str) {
                Some("M") => TileOutcome::Memory,
                Some("D") => TileOutcome::Disk,
                _ => unreachable!("two states"),
            },
            None => TileOutcome::Network,
        };
        match outcome {
            TileOutcome::Network => {
                self.rel
                    .insert(key.merge(&Tuple::from_pairs([
                        (self.cols.state, Value::from("M")),
                        (self.cols.stamp, Value::from(req.now)),
                    ])))
                    .expect("new tile");
                self.mem_count += 1;
            }
            TileOutcome::Disk => {
                self.rel
                    .update(
                        &key,
                        &Tuple::from_pairs([
                            (self.cols.state, Value::from("M")),
                            (self.cols.stamp, Value::from(req.now)),
                        ]),
                    )
                    .expect("promote");
                self.disk_count -= 1;
                self.mem_count += 1;
            }
            TileOutcome::Memory => {
                self.rel
                    .update(
                        &key,
                        &Tuple::from_pairs([(self.cols.stamp, Value::from(req.now))]),
                    )
                    .expect("touch");
            }
        }
        self.enforce_budgets();
        outcome
    }

    fn sizes(&self) -> (usize, usize) {
        (self.mem_count, self.disk_count)
    }
}
// [synth:end]

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pan_workload_deterministic() {
        let a = pan_workload(50, 16, 16, 4);
        let b = pan_workload(50, 16, 16, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|r| (0..256).contains(&r.tile)));
    }

    #[test]
    fn baseline_and_synth_agree() {
        let reqs = pan_workload(120, 12, 12, 8);
        let mut base = BaselineTileCache::new(16, 32);
        let (mut cat, cols, spec) = tile_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthTileCache::new(&cat, cols, &spec, d, 16, 32).unwrap();
        let (o1, s1) = run_tiles(&mut base, &reqs);
        let (o2, s2) = run_tiles(&mut synth, &reqs);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        synth.relation().validate().unwrap();
    }

    #[test]
    fn budgets_are_enforced() {
        let (mut cat, cols, spec) = tile_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthTileCache::new(&cat, cols, &spec, d, 4, 6).unwrap();
        for i in 0..40 {
            synth.request(TileRequest { tile: i, now: i });
        }
        let (mem, disk) = synth.sizes();
        assert!(mem <= 4 && disk <= 6, "mem {mem} disk {disk}");
        synth.relation().validate().unwrap();
    }

    #[test]
    fn preload_warm_start_agrees_with_served_state() {
        let (mut cat, cols, spec) = tile_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthTileCache::new(&cat, cols, &spec, d, 8, 16).unwrap();
        let n = synth
            .preload((0..20).map(|i| (i, if i < 6 { "M" } else { "D" }, i)))
            .unwrap();
        assert_eq!(n, 20);
        assert_eq!(synth.sizes(), (6, 14));
        synth.relation().validate().unwrap();
        // Preloaded tiles behave exactly like served ones.
        assert_eq!(
            synth.request(TileRequest { tile: 0, now: 100 }),
            TileOutcome::Memory
        );
        assert_eq!(
            synth.request(TileRequest { tile: 15, now: 101 }),
            TileOutcome::Disk
        );
        // Over-budget preloads are trimmed by the same eviction rules.
        let mut over = {
            let (mut cat, cols, spec) = tile_spec();
            let d = default_decomposition(&mut cat);
            SynthTileCache::new(&cat, cols, &spec, d, 4, 6).unwrap()
        };
        over.preload((0..40).map(|i| (i, "M", i))).unwrap();
        let (mem, disk) = over.sizes();
        assert!(mem <= 4 && disk <= 6, "mem {mem} disk {disk}");
        over.relation().validate().unwrap();
    }

    #[test]
    fn promotion_from_disk() {
        let (mut cat, cols, spec) = tile_spec();
        let d = default_decomposition(&mut cat);
        let mut synth = SynthTileCache::new(&cat, cols, &spec, d, 2, 8).unwrap();
        // Fill memory past the budget so tile 0 lands on disk.
        for i in 0..4 {
            assert_eq!(
                synth.request(TileRequest { tile: i, now: i }),
                TileOutcome::Network
            );
        }
        // Tile 0 must now be on disk; requesting it promotes it.
        assert_eq!(
            synth.request(TileRequest { tile: 0, now: 100 }),
            TileOutcome::Disk
        );
        assert_eq!(
            synth.request(TileRequest { tile: 0, now: 101 }),
            TileOutcome::Memory
        );
        synth.relation().validate().unwrap();
    }
}
