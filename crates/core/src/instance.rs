//! Decomposition instances: arena-backed node instances, per-edge containers
//! and intrusive link slots.
//!
//! A decomposition instance (paper §3.1, Fig. 4) is a DAG of *node
//! instances*: node `v : B ▷ C` has one instance `v_t` per valuation `t` of
//! `B` present in the relation. Instances live in per-node slot arenas and
//! are addressed by copyable [`InstanceRef`] handles — the safe-Rust encoding
//! of the paper's shared pointer structures: a node shared by two parents is
//! one slot named by two handles, with no aliasing for the borrow checker to
//! object to.
//!
//! Each instance stores one *primitive instance* per leaf of its node's body:
//! a unit tuple for `unit C` leaves, or an [`EdgeContainer`] for map leaves.
//! Intrusive lists keep their prev/next links inside the *child* instances
//! (field `links`), one slot per incoming intrusive edge of the child's node,
//! exactly like `boost::intrusive::list` hooks.
//!
//! # Structural sharing
//!
//! [`Store`] is a persistent (versioned) structure: arenas hold their
//! instances behind `Arc` in fixed-size chunks (`Vec<Arc<Chunk>>`, 64 slots
//! per chunk), so `Store::clone` is *shallow* — it bumps one `Arc` per chunk
//! (`O(live / 64)`) instead of deep-cloning every instance. Mutation
//! path-copies: [`Store::get_mut`] clones the addressed chunk (64 `Arc`
//! bumps) and the addressed instance only when they are shared with an older
//! store version. A published snapshot therefore freezes its version at the
//! cost of re-cloning only the instances the writer subsequently touches —
//! this is what lets `relic_concurrent` retire whole snapshots onto epoch
//! limbo lists instead of paying a full store copy per mutation epoch.

use relic_containers::{AssocVec, AvlMap, DListMap, HashTable, SortedVecMap};
use relic_decomp::{Body, Decomposition, DsKind, EdgeId, NodeId};
use relic_spec::{ColSet, Tuple, Value};
use std::sync::Arc;

/// A composite container key: the values of an edge's key columns in
/// ascending column order.
pub type Key = Box<[Value]>;

/// A handle to a node instance: `(decomposition node, arena slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceRef {
    /// The decomposition node this instance belongs to.
    pub node: u16,
    /// The slot within the node's arena.
    pub slot: u32,
}

/// An intrusive-list link slot stored inside a child instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Link {
    /// The previous list element, if any.
    pub prev: Option<InstanceRef>,
    /// The next list element, if any.
    pub next: Option<InstanceRef>,
    /// Whether this slot is currently linked into a list.
    pub in_list: bool,
}

/// A primitive instance: one per leaf of the node body.
#[derive(Debug, Clone)]
pub enum PrimInst {
    /// The single tuple of a `unit C` leaf.
    Unit(Tuple),
    /// The container of a map leaf.
    Map(EdgeContainer),
}

/// The physical container implementing one map edge of one node instance.
#[derive(Debug, Clone)]
pub enum EdgeContainer {
    /// A hash table (`htable`).
    Hash(HashTable<Key, InstanceRef>),
    /// An AVL tree (`avl`).
    Avl(AvlMap<Key, InstanceRef>),
    /// A sorted vector (`sortedvec`).
    Sorted(SortedVecMap<Key, InstanceRef>),
    /// An association vector (`vec`).
    Assoc(AssocVec<Key, InstanceRef>),
    /// A non-intrusive doubly-linked list (`dlist`).
    DList(DListMap<Key, InstanceRef>),
    /// Intrusive doubly-linked list (`ilist`): only the head and length live
    /// here; the links live in the child instances at `slot`. `kpos` maps
    /// each key column to its position within the child's stored bound
    /// valuation, so entry keys are recovered from the children themselves.
    Intrusive {
        /// First element of the list.
        head: Option<InstanceRef>,
        /// Number of linked elements.
        len: usize,
        /// Which link slot of the child instances this list threads through.
        slot: u8,
        /// Key-column positions within the child's bound valuation, shared
        /// with the [`Layout`] (an `Arc` bump per container build, not a
        /// slice clone).
        kpos: Arc<[u16]>,
    },
}

impl EdgeContainer {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            EdgeContainer::Hash(c) => c.len(),
            EdgeContainer::Avl(c) => c.len(),
            EdgeContainer::Sorted(c) => c.len(),
            EdgeContainer::Assoc(c) => c.len(),
            EdgeContainer::DList(c) => c.len(),
            EdgeContainer::Intrusive { len, .. } => *len,
        }
    }

    /// Is the container empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A node instance `v_t`.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The valuation of the node's bound columns `B`, in ascending column
    /// order (the `t` subscript of `v_t`).
    pub key: Key,
    /// One primitive instance per body leaf, in left-to-right leaf order.
    pub prims: Box<[PrimInst]>,
    /// Intrusive link slots, one per incoming intrusive edge of the node.
    pub links: Box<[Link]>,
    /// Number of container entries referencing this instance.
    pub refs: u32,
}

/// Log₂ of the arena chunk size.
const CHUNK_BITS: u32 = 6;
/// Slots per arena chunk. Small enough that path-copying a shared chunk (64
/// `Arc` bumps) is cheap; large enough that a shallow store clone touches
/// `live / 64` chunk `Arc`s rather than one per instance.
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u32 = (CHUNK as u32) - 1;

/// Flat per-container-entry byte estimate used by [`Store::approx_bytes`]:
/// roughly a boxed key slice header + a couple of values + the `InstanceRef`
/// payload and container-node overhead. Deliberately key-size-independent so
/// insert/remove/free keep the running counter consistent in O(1).
const ENTRY_BYTES: usize = 48;

/// One fixed-size block of arena slots, shared between store versions until
/// a writer path-copies it.
#[derive(Debug, Clone)]
struct Chunk {
    slots: [Option<Arc<Instance>>; CHUNK],
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            slots: std::array::from_fn(|_| None),
        }
    }
}

/// A slot arena holding all instances of one decomposition node.
///
/// Slots are grouped into `Arc`-shared chunks of `CHUNK` entries; cloning
/// an arena bumps one `Arc` per chunk and copies only the free-list.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    chunks: Vec<Arc<Chunk>>,
    free: Vec<u32>,
    live: usize,
    /// High-water slot count (slots ever created, free or live).
    len: u32,
}

impl Arena {
    /// Number of live instances.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Reserves chunk capacity for at least `additional` more instances.
    pub fn reserve(&mut self, additional: usize) {
        let fresh = additional.saturating_sub(self.free.len());
        self.chunks.reserve(fresh.div_ceil(CHUNK));
    }

    fn slot(&self, s: u32) -> Option<&Arc<Instance>> {
        self.chunks
            .get((s >> CHUNK_BITS) as usize)?
            .slots
            .get((s & CHUNK_MASK) as usize)?
            .as_ref()
    }

    /// Iterates `(slot, instance)` for all live instances.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Instance)> {
        self.chunks.iter().enumerate().flat_map(|(ci, chunk)| {
            chunk.slots.iter().enumerate().filter_map(move |(si, s)| {
                s.as_ref().map(|inst| ((ci * CHUNK + si) as u32, &**inst))
            })
        })
    }
}

/// A body leaf, flattened for allocation-free iteration (computing
/// [`Body::leaves`] walks the body tree into a fresh `Vec` each call).
#[derive(Debug, Clone, Copy)]
pub enum LeafSpec {
    /// A `unit C` leaf.
    Unit(ColSet),
    /// A map leaf for an edge.
    Map(EdgeId),
}

/// Static, per-decomposition layout information computed once at build time.
#[derive(Debug, Clone)]
pub struct Layout {
    /// For each edge: the index of its leaf within the source node's body.
    pub leaf_of_edge: Vec<usize>,
    /// For each edge: the intrusive link slot in the target node's instances
    /// (only meaningful when the edge is intrusive).
    pub islot_of_edge: Vec<u8>,
    /// For each node: how many intrusive link slots its instances carry.
    pub islots_of_node: Vec<u8>,
    /// For each edge: for each key column (ascending), its position within
    /// the target node's bound valuation. `Arc`-shared with every intrusive
    /// container built for the edge, so per-container builds never copy it.
    pub kpos_of_edge: Vec<Arc<[u16]>>,
    /// For each node: a canonical path of edges from the root, used to locate
    /// instances given a full tuple.
    pub path_of_node: Vec<Vec<EdgeId>>,
    /// For each node: `(leaf index, unit columns)` of each unit leaf.
    pub unit_leaves: Vec<Vec<(usize, ColSet)>>,
    /// For each node: its body's leaves in left-to-right order, flattened so
    /// per-instance construction never re-walks the body tree.
    pub leaves_of_node: Vec<Box<[LeafSpec]>>,
}

impl Layout {
    /// Computes the layout of a decomposition.
    pub fn new(d: &Decomposition) -> Self {
        let ne = d.edge_count();
        let nn = d.node_count();
        let mut leaf_of_edge = vec![0usize; ne];
        let mut unit_leaves = vec![Vec::new(); nn];
        let mut leaves_of_node: Vec<Box<[LeafSpec]>> = Vec::with_capacity(nn);
        for (id, node) in d.nodes() {
            let mut specs = Vec::new();
            for (i, leaf) in node.body.leaves().iter().enumerate() {
                match leaf {
                    Body::Map(e) => {
                        leaf_of_edge[e.index()] = i;
                        specs.push(LeafSpec::Map(*e));
                    }
                    Body::Unit(c) => {
                        unit_leaves[id.index()].push((i, *c));
                        specs.push(LeafSpec::Unit(*c));
                    }
                    Body::Join(..) => unreachable!("leaves are not joins"),
                }
            }
            leaves_of_node.push(specs.into_boxed_slice());
        }
        let mut islot_of_edge = vec![0u8; ne];
        let mut islots_of_node = vec![0u8; nn];
        for (id, e) in d.edges() {
            if e.ds.is_intrusive() {
                let slot = islots_of_node[e.to.index()];
                islot_of_edge[id.index()] = slot;
                islots_of_node[e.to.index()] = slot + 1;
            }
        }
        let mut kpos_of_edge = Vec::with_capacity(ne);
        for (_, e) in d.edges() {
            let target_bound = d.node(e.to).bound;
            let kpos: Arc<[u16]> = e
                .key
                .iter()
                .map(|c| {
                    target_bound
                        .rank(c)
                        .expect("edge key ⊆ target bound (binding consistency)")
                        as u16
                })
                .collect();
            kpos_of_edge.push(kpos);
        }
        // Canonical root paths: nodes in reverse let order are reached from
        // already-pathed parents (root first).
        let mut path_of_node: Vec<Option<Vec<EdgeId>>> = vec![None; nn];
        path_of_node[d.root().index()] = Some(Vec::new());
        for id in d.topo_root_first() {
            if path_of_node[id.index()].is_none() {
                let e = d.incoming_edges(id)[0];
                let parent = d.edge(e).from;
                let mut p = path_of_node[parent.index()]
                    .clone()
                    .expect("parents are pathed before children (topological order)");
                p.push(e);
                path_of_node[id.index()] = Some(p);
            }
        }
        Layout {
            leaf_of_edge,
            islot_of_edge,
            islots_of_node,
            kpos_of_edge,
            path_of_node: path_of_node.into_iter().map(Option::unwrap).collect(),
            unit_leaves,
            leaves_of_node,
        }
    }

    /// Creates a fresh, empty container for an edge.
    pub fn new_container(&self, d: &Decomposition, e: EdgeId) -> EdgeContainer {
        match d.edge(e).ds {
            DsKind::HashTable => EdgeContainer::Hash(HashTable::new()),
            DsKind::AvlTree => EdgeContainer::Avl(AvlMap::new()),
            DsKind::SortedVec => EdgeContainer::Sorted(SortedVecMap::new()),
            DsKind::AssocVec => EdgeContainer::Assoc(AssocVec::new()),
            DsKind::DList => EdgeContainer::DList(DListMap::new()),
            DsKind::IntrusiveList => EdgeContainer::Intrusive {
                head: None,
                len: 0,
                slot: self.islot_of_edge[e.index()],
                kpos: Arc::clone(&self.kpos_of_edge[e.index()]),
            },
        }
    }

    /// Creates a fresh instance of `node` for bound valuation `key`, with
    /// unit leaves initialized from `t` and empty containers elsewhere.
    pub fn new_instance(&self, d: &Decomposition, node: NodeId, key: Key, t: &Tuple) -> Instance {
        let prims: Vec<PrimInst> = self.leaves_of_node[node.index()]
            .iter()
            .map(|leaf| match leaf {
                LeafSpec::Unit(c) => PrimInst::Unit(t.project(*c)),
                LeafSpec::Map(e) => PrimInst::Map(self.new_container(d, *e)),
            })
            .collect();
        Instance {
            key,
            prims: prims.into_boxed_slice(),
            links: vec![Link::default(); self.islots_of_node[node.index()] as usize]
                .into_boxed_slice(),
            refs: 0,
        }
    }
}

/// All instance arenas of a synthesized relation, one per decomposition node.
///
/// `Store` is a *persistent* structure: `clone` is shallow (chunk `Arc`
/// bumps) and mutation path-copies shared chunks/instances.
#[derive(Debug, Clone)]
pub struct Store {
    arenas: Vec<Arena>,
    /// Running estimate of this version's logical heap footprint. Shared
    /// structure is counted in full by every version holding it (each
    /// snapshot reports its own complete logical size).
    approx_bytes: usize,
}

/// Estimated heap bytes attributable to one instance in its current shape:
/// fixed struct overhead plus key/prim/link slots plus a flat
/// [`ENTRY_BYTES`] per non-intrusive container entry (intrusive entries live
/// in the child instances and are counted there). Value heap payloads
/// (strings) are deliberately ignored — the counter is an O(1)-maintainable
/// estimate, not an accounting of every byte.
fn est_instance_bytes(inst: &Instance) -> usize {
    use std::mem::size_of;
    let entries: usize = inst
        .prims
        .iter()
        .map(|p| match p {
            PrimInst::Map(EdgeContainer::Intrusive { .. }) | PrimInst::Unit(_) => 0,
            PrimInst::Map(c) => c.len() * ENTRY_BYTES,
        })
        .sum();
    size_of::<Instance>()
        + size_of::<Arc<Instance>>()
        + inst.key.len() * size_of::<Value>()
        + inst.prims.len() * size_of::<PrimInst>()
        + inst.links.len() * size_of::<Link>()
        + entries
}

impl Store {
    /// Creates an empty store for a decomposition.
    pub fn new(d: &Decomposition) -> Self {
        Store {
            arenas: (0..d.node_count()).map(|_| Arena::default()).collect(),
            approx_bytes: 0,
        }
    }

    /// Estimated heap bytes of this store version (struct overheads, key and
    /// container-entry slots; value payloads excluded). Maintained as a
    /// running counter — O(1) to read — so `relic_concurrent` can report
    /// `limbo_bytes()` without walking retired stores. Versions sharing
    /// structure each report their full logical size.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The arena of a node.
    pub fn arena(&self, node: NodeId) -> &Arena {
        &self.arenas[node.index()]
    }

    /// Allocates an instance, returning its handle.
    pub fn alloc(&mut self, node: NodeId, inst: Instance) -> InstanceRef {
        self.approx_bytes = self.approx_bytes.saturating_add(est_instance_bytes(&inst));
        let arena = &mut self.arenas[node.index()];
        arena.live += 1;
        let slot = if let Some(s) = arena.free.pop() {
            s
        } else {
            let s = arena.len;
            arena.len += 1;
            if (s >> CHUNK_BITS) as usize == arena.chunks.len() {
                arena.chunks.push(Arc::new(Chunk::default()));
            }
            s
        };
        let chunk = Arc::make_mut(&mut arena.chunks[(slot >> CHUNK_BITS) as usize]);
        chunk.slots[(slot & CHUNK_MASK) as usize] = Some(Arc::new(inst));
        InstanceRef { node: node.0, slot }
    }

    /// Shared access to an instance.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dangling.
    pub fn get(&self, r: InstanceRef) -> &Instance {
        self.arenas[r.node as usize]
            .slot(r.slot)
            .expect("live instance")
    }

    /// Is the handle live?
    pub fn is_live(&self, r: InstanceRef) -> bool {
        self.arenas
            .get(r.node as usize)
            .and_then(|a| a.slot(r.slot))
            .is_some()
    }

    /// Mutable access to an instance.
    ///
    /// Path-copies: if the addressed chunk or instance is shared with
    /// another store version (a published snapshot), it is cloned first —
    /// the chunk shallowly (64 `Arc` bumps), the instance deeply (its key,
    /// units and containers). Subsequent mutations in the same epoch find
    /// both unique and mutate in place.
    pub fn get_mut(&mut self, r: InstanceRef) -> &mut Instance {
        let arena = &mut self.arenas[r.node as usize];
        let chunk = Arc::make_mut(&mut arena.chunks[(r.slot >> CHUNK_BITS) as usize]);
        let inst = chunk.slots[(r.slot & CHUNK_MASK) as usize]
            .as_mut()
            .expect("live instance");
        Arc::make_mut(inst)
    }

    /// Frees an instance slot, returning the (possibly still snapshot-shared)
    /// instance. The final deep drop happens when the last store version
    /// holding it is reclaimed.
    pub fn free(&mut self, r: InstanceRef) -> Arc<Instance> {
        let arena = &mut self.arenas[r.node as usize];
        let chunk = Arc::make_mut(&mut arena.chunks[(r.slot >> CHUNK_BITS) as usize]);
        let inst = chunk.slots[(r.slot & CHUNK_MASK) as usize]
            .take()
            .expect("live instance");
        arena.free.push(r.slot);
        arena.live -= 1;
        self.approx_bytes = self.approx_bytes.saturating_sub(est_instance_bytes(&inst));
        inst
    }

    /// Total live instances across all nodes.
    pub fn total_live(&self) -> usize {
        self.arenas.iter().map(|a| a.live).sum()
    }

    /// Reserves arena capacity for at least `additional` more instances of
    /// `node` (a bulk-load pre-sizing hint).
    pub fn reserve_node(&mut self, node: NodeId, additional: usize) {
        self.arenas[node.index()].reserve(additional);
    }

    /// Reserves capacity for at least `additional` more entries in the
    /// container at `(parent, leaf)`, so batch insertion triggers at most
    /// one growth/rehash. A no-op for intrusive lists, whose entries live in
    /// the child instances.
    pub fn cont_reserve(&mut self, parent: InstanceRef, leaf: usize, additional: usize) {
        match &mut self.get_mut(parent).prims[leaf] {
            PrimInst::Map(EdgeContainer::Hash(c)) => c.reserve(additional),
            PrimInst::Map(EdgeContainer::Avl(c)) => c.reserve(additional),
            PrimInst::Map(EdgeContainer::Sorted(c)) => c.reserve(additional),
            PrimInst::Map(EdgeContainer::Assoc(c)) => c.reserve(additional),
            PrimInst::Map(EdgeContainer::DList(c)) => c.reserve(additional),
            PrimInst::Map(EdgeContainer::Intrusive { .. }) => {}
            PrimInst::Unit(_) => panic!("cont_reserve on a unit leaf"),
        }
    }

    // -- container operations ------------------------------------------------
    //
    // All operations address a container as (parent instance, leaf index).
    // Intrusive lists additionally thread link updates through the store.

    /// Looks up `key` in the container at `(parent, leaf)`.
    ///
    /// The probe is *borrowed*: `Box<[Value]>`-keyed containers are searched
    /// through `&[Value]` directly (`Borrow`-based lookup), so no key is
    /// allocated — the heart of the zero-allocation query hot path.
    pub fn cont_get(&self, parent: InstanceRef, leaf: usize, key: &[Value]) -> Option<InstanceRef> {
        match &self.get(parent).prims[leaf] {
            PrimInst::Map(EdgeContainer::Hash(c)) => c.get(key).copied(),
            PrimInst::Map(EdgeContainer::Avl(c)) => c.get(key).copied(),
            PrimInst::Map(EdgeContainer::Sorted(c)) => c.get(key).copied(),
            PrimInst::Map(EdgeContainer::Assoc(c)) => c.get(key).copied(),
            PrimInst::Map(EdgeContainer::DList(c)) => c.get(key).copied(),
            PrimInst::Map(EdgeContainer::Intrusive {
                head, slot, kpos, ..
            }) => {
                let slot = *slot;
                let mut cur = *head;
                while let Some(r) = cur {
                    let child = self.get(r);
                    if kpos
                        .iter()
                        .zip(key.iter())
                        .all(|(p, v)| &child.key[*p as usize] == v)
                    {
                        return Some(r);
                    }
                    cur = child.links[slot as usize].next;
                }
                None
            }
            PrimInst::Unit(_) => panic!("cont_get on a unit leaf"),
        }
    }

    /// Inserts `key → child` into the container at `(parent, leaf)`.
    /// The caller must ensure the key is absent (dinsert looks up first).
    pub fn cont_insert(&mut self, parent: InstanceRef, leaf: usize, key: Key, child: InstanceRef) {
        // Intrusive insertion needs link surgery on instances other than the
        // parent, so handle it without holding a borrow of the parent.
        let intrusive = matches!(
            &self.get(parent).prims[leaf],
            PrimInst::Map(EdgeContainer::Intrusive { .. })
        );
        if intrusive {
            let (old_head, slot) = match &self.get(parent).prims[leaf] {
                PrimInst::Map(EdgeContainer::Intrusive { head, slot, .. }) => (*head, *slot),
                _ => unreachable!(),
            };
            {
                let link = &mut self.get_mut(child).links[slot as usize];
                debug_assert!(!link.in_list, "child already linked in this slot");
                *link = Link {
                    prev: None,
                    next: old_head,
                    in_list: true,
                };
            }
            if let Some(h) = old_head {
                self.get_mut(h).links[slot as usize].prev = Some(child);
            }
            match &mut self.get_mut(parent).prims[leaf] {
                PrimInst::Map(EdgeContainer::Intrusive { head, len, .. }) => {
                    *head = Some(child);
                    *len += 1;
                }
                _ => unreachable!(),
            }
        } else {
            let prev = match &mut self.get_mut(parent).prims[leaf] {
                PrimInst::Map(EdgeContainer::Hash(c)) => c.insert(key, child),
                PrimInst::Map(EdgeContainer::Avl(c)) => c.insert(key, child),
                PrimInst::Map(EdgeContainer::Sorted(c)) => c.insert(key, child),
                PrimInst::Map(EdgeContainer::Assoc(c)) => c.insert(key, child),
                PrimInst::Map(EdgeContainer::DList(c)) => c.insert(key, child),
                _ => unreachable!("unit leaf or intrusive handled above"),
            };
            debug_assert!(prev.is_none(), "caller must check key absence first");
            self.approx_bytes = self.approx_bytes.saturating_add(ENTRY_BYTES);
        }
        self.get_mut(child).refs += 1;
    }

    /// Removes `key` from the container at `(parent, leaf)`, returning the
    /// unlinked child (reference count **not** yet decremented).
    pub fn cont_remove(
        &mut self,
        parent: InstanceRef,
        leaf: usize,
        key: &[Value],
    ) -> Option<InstanceRef> {
        let intrusive = matches!(
            &self.get(parent).prims[leaf],
            PrimInst::Map(EdgeContainer::Intrusive { .. })
        );
        if intrusive {
            let child = self.cont_get(parent, leaf, key)?;
            self.intrusive_unlink(parent, leaf, child);
            Some(child)
        } else {
            let removed = match &mut self.get_mut(parent).prims[leaf] {
                PrimInst::Map(EdgeContainer::Hash(c)) => c.remove(key),
                PrimInst::Map(EdgeContainer::Avl(c)) => c.remove(key),
                PrimInst::Map(EdgeContainer::Sorted(c)) => c.remove(key),
                PrimInst::Map(EdgeContainer::Assoc(c)) => c.remove(key),
                PrimInst::Map(EdgeContainer::DList(c)) => c.remove(key),
                _ => unreachable!("unit leaf or intrusive handled above"),
            };
            if removed.is_some() {
                self.approx_bytes = self.approx_bytes.saturating_sub(ENTRY_BYTES);
            }
            removed
        }
    }

    /// Unlinks `child` from the intrusive list at `(parent, leaf)` in O(1).
    pub fn intrusive_unlink(&mut self, parent: InstanceRef, leaf: usize, child: InstanceRef) {
        let slot = match &self.get(parent).prims[leaf] {
            PrimInst::Map(EdgeContainer::Intrusive { slot, .. }) => *slot,
            _ => panic!("intrusive_unlink on a non-intrusive container"),
        };
        let link = self.get(child).links[slot as usize];
        assert!(link.in_list, "child not linked");
        if let Some(p) = link.prev {
            self.get_mut(p).links[slot as usize].next = link.next;
        }
        if let Some(n) = link.next {
            self.get_mut(n).links[slot as usize].prev = link.prev;
        }
        match &mut self.get_mut(parent).prims[leaf] {
            PrimInst::Map(EdgeContainer::Intrusive { head, len, .. }) => {
                if *head == Some(child) {
                    *head = link.next;
                }
                *len -= 1;
            }
            _ => unreachable!(),
        }
        self.get_mut(child).links[slot as usize] = Link::default();
    }

    /// Number of entries in the container at `(parent, leaf)`.
    pub fn cont_len(&self, parent: InstanceRef, leaf: usize) -> usize {
        match &self.get(parent).prims[leaf] {
            PrimInst::Map(c) => c.len(),
            PrimInst::Unit(_) => panic!("cont_len on a unit leaf"),
        }
    }

    /// Calls `f(entry key values, child)` for every entry of the container at
    /// `(parent, leaf)`. Iteration order is the container's own.
    pub fn cont_for_each(
        &self,
        parent: InstanceRef,
        leaf: usize,
        f: impl FnMut(&[Value], InstanceRef),
    ) {
        let mut keybuf = Vec::new();
        self.cont_for_each_kbuf(parent, leaf, &mut keybuf, f);
    }

    /// [`cont_for_each`](Store::cont_for_each) with a caller-supplied scratch
    /// buffer for reconstructing intrusive-list entry keys, so a warm query
    /// path performs no allocation even when it scans `ilist` edges. The
    /// buffer is cleared per entry; non-intrusive containers never touch it.
    pub fn cont_for_each_kbuf(
        &self,
        parent: InstanceRef,
        leaf: usize,
        keybuf: &mut Vec<Value>,
        mut f: impl FnMut(&[Value], InstanceRef),
    ) {
        match &self.get(parent).prims[leaf] {
            PrimInst::Map(EdgeContainer::Hash(c)) => {
                for (k, v) in c.iter() {
                    f(k, *v);
                }
            }
            PrimInst::Map(EdgeContainer::Avl(c)) => {
                // The recursive in-order visitor: `AvlMap::iter` would
                // allocate its explicit stack once per container visited.
                c.for_each_classified(|_| std::cmp::Ordering::Equal, |k, v| f(k, *v));
            }
            PrimInst::Map(EdgeContainer::Sorted(c)) => {
                for (k, v) in c.iter() {
                    f(k, *v);
                }
            }
            PrimInst::Map(EdgeContainer::Assoc(c)) => {
                for (k, v) in c.iter() {
                    f(k, *v);
                }
            }
            PrimInst::Map(EdgeContainer::DList(c)) => {
                for (k, v) in c.iter() {
                    f(k, *v);
                }
            }
            PrimInst::Map(EdgeContainer::Intrusive {
                head, slot, kpos, ..
            }) => {
                let mut cur = *head;
                while let Some(r) = cur {
                    let child = self.get(r);
                    keybuf.clear();
                    keybuf.extend(kpos.iter().map(|p| child.key[*p as usize].clone()));
                    f(keybuf, r);
                    cur = child.links[*slot as usize].next;
                }
            }
            PrimInst::Unit(_) => panic!("cont_for_each on a unit leaf"),
        }
    }

    /// Calls `f(entry key values, child)` — in ascending key order — for
    /// every entry of the *ordered* container at `(parent, leaf)` whose key
    /// equals `prefix` on its leading coordinates and whose final coordinate
    /// lies within `(lo, hi)`. Backs the `qrange` query operator.
    ///
    /// # Panics
    ///
    /// Panics on a unit leaf or on an unordered container (`htable`, `vec`,
    /// `dlist`, `ilist`) — the (QRANGE) validity rule rules both out.
    pub fn cont_for_each_range(
        &self,
        parent: InstanceRef,
        leaf: usize,
        prefix: &[Value],
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
        mut f: impl FnMut(&[Value], InstanceRef),
    ) {
        use std::cmp::Ordering;
        use std::ops::Bound;
        let m = prefix.len();
        let classify = |k: &Key| -> Ordering {
            debug_assert!(k.len() == m + 1, "range key arity mismatch");
            match k[..m].cmp(prefix) {
                Ordering::Equal => {
                    let x = &k[m];
                    let above_lo = match lo {
                        Bound::Unbounded => true,
                        Bound::Included(l) => x >= l,
                        Bound::Excluded(l) => x > l,
                    };
                    if !above_lo {
                        return Ordering::Less;
                    }
                    let below_hi = match hi {
                        Bound::Unbounded => true,
                        Bound::Included(h) => x <= h,
                        Bound::Excluded(h) => x < h,
                    };
                    if !below_hi {
                        return Ordering::Greater;
                    }
                    Ordering::Equal
                }
                o => o,
            }
        };
        match &self.get(parent).prims[leaf] {
            PrimInst::Map(EdgeContainer::Avl(c)) => {
                c.for_each_classified(classify, |k, v| f(k, *v));
            }
            PrimInst::Map(EdgeContainer::Sorted(c)) => {
                c.for_each_classified(classify, |k, v| f(k, *v));
            }
            PrimInst::Map(_) => panic!("cont_for_each_range on an unordered container"),
            PrimInst::Unit(_) => panic!("cont_for_each_range on a unit leaf"),
        }
    }
}
