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
//! # Inline leaves
//!
//! A non-root node whose body is exactly `unit C` and which has exactly one
//! incoming edge, not an intrusive one, gets no instances at all: its unit
//! tuple is stored in the parent's container entry ([`Child::Unit`]) instead
//! of behind an [`InstanceRef`]. Binding consistency (`B_child = B_parent ∪
//! K` for a single incoming edge) makes everything else an instance would
//! hold — the bound valuation, the prim and link slots, the reference count
//! and the `Arc` — redundant with the path that reaches the entry.
//! [`Layout::inline_unit`] holds the rule; shared leaves, intrusive-list
//! targets and a unit root keep their instances.
//!
//! The entry holds the row itself, not pointers to it: a one-column
//! [`Key`] keeps its value in place, and an [`InlineUnit`] of up to two
//! columns keeps its values in place (a wider one boxes them once). The
//! unit's columns are not stored: every entry of an edge has the same
//! ones, and the [`Layout`] names them. A [`Value`] is two words, so a
//! stored row of a one-column key and a two-column unit is one 48 B entry
//! with no heap box of its own, a scanned row reads one entry, and a built
//! row allocates nothing but what its container grows. A two-column key
//! boxes its pair once; a wider key takes two boxes, a thin one and its
//! slice.
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
//! limbo lists instead of paying a full store copy per mutation epoch. An
//! instance's copy includes its containers, and with them their entries:
//! the first write to a parent after a publish copies each entry's values
//! in place (a string is an `Arc` bump), allocating only the containers'
//! own buffers — plus one box per entry whose key has two or more columns
//! (two for three or more) or whose inline unit is wider than two.

use relic_containers::{AssocVec, AvlMap, DListMap, HashTable, SortedVecMap};
use relic_decomp::{Body, Decomposition, DsKind, EdgeId, NodeId};
use relic_query::{inline_units, lower_insert, path_key, structural_cols, PlanError, WriteBlock};
use relic_spec::{ColId, ColSet, Tuple, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A composite container key: the values of an edge's key columns (or a
/// node's bound columns) in ascending column order. A one-column key holds
/// its value in place, a two-column key its pair in one box, a wider key
/// one thin box of its slice, and the root's empty key nothing. All of
/// them compare, hash and borrow as that slice, so containers are probed
/// with a borrowed `&[Value]` and never with an owned key.
#[derive(Debug, Clone)]
pub(crate) enum Key {
    /// The zero-column key of the root instance.
    Zero,
    /// A one-column key.
    One(Value),
    /// A two-column key: one box, as a key of two columns took before
    /// `Key` became one value wide. No benchmark workload keys an edge on
    /// two columns (they nest one column a level); a flat layout such as
    /// `{local,remote} -[htable]-> unit {bytes,pkts}` does, and
    /// `zero_alloc` pins its one allocation a row.
    Two(Box<[Value; 2]>),
    /// A key of three or more columns: two boxes, the thin one and its
    /// slice.
    Many(Box<Box<[Value]>>),
}

// A key costs one value: the boxed variants live in the value's spare tags.
const _: () = assert!(std::mem::size_of::<Key>() == std::mem::size_of::<Value>());

impl std::ops::Deref for Key {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            Key::Zero => &[],
            Key::One(v) => std::slice::from_ref(v),
            Key::Two(vs) => &vs[..],
            Key::Many(vs) => vs,
        }
    }
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        self
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl From<&[Value]> for Key {
    fn from(vs: &[Value]) -> Self {
        match vs {
            [] => Key::Zero,
            [v] => Key::One(v.clone()),
            [a, b] => Key::Two(Box::new([a.clone(), b.clone()])),
            _ => Key::Many(Box::new(vs.into())),
        }
    }
}

/// A handle to a node instance: `(decomposition node, arena slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct InstanceRef {
    /// The decomposition node this instance belongs to.
    pub node: u16,
    /// The slot within the node's arena.
    pub slot: u32,
}

/// The widest unit an inline entry holds in place. Two covers the flow
/// counters every workload stores (`{bytes, pkts}`); each further value
/// would add 16 B to every entry of every container, node children
/// included.
const UNIT_IN_PLACE: usize = 2;

/// A unit tuple as the store holds it — in an inline leaf's container
/// entry, or in an instance's unit leaf: the values of the unit's columns
/// in ascending column order, in place up to [`UNIT_IN_PLACE`] columns and
/// boxed once beyond. The columns themselves are the [`Layout`]'s
/// (`inline_unit` for an entry, `leaves_of_node` for a unit leaf), so
/// every accessor takes them.
#[derive(Debug, Clone)]
pub(crate) enum InlineUnit {
    /// Up to [`UNIT_IN_PLACE`] values, then fillers.
    Here([Value; UNIT_IN_PLACE]),
    /// A wider unit's values.
    Boxed(Box<[Value]>),
}

impl InlineUnit {
    /// The unit of columns `cols` whose values, in ascending column order,
    /// `vals` yields. A wide unit's values are collected into one
    /// exact-size allocation. The columns are not kept: only their count
    /// is checked, in debug builds.
    pub(crate) fn new(cols: ColSet, mut vals: impl ExactSizeIterator<Item = Value>) -> Self {
        debug_assert_eq!(cols.len(), vals.len(), "unit arity");
        if vals.len() <= UNIT_IN_PLACE {
            InlineUnit::Here(std::array::from_fn(|_| {
                vals.next().unwrap_or(Value::Bool(false))
            }))
        } else {
            InlineUnit::Boxed(vals.collect())
        }
    }

    /// Whether the unit holds values for exactly the columns `cols`: in
    /// place when they fit, else boxed at their count.
    pub(crate) fn fits(&self, cols: ColSet) -> bool {
        match self {
            InlineUnit::Here(_) => cols.len() <= UNIT_IN_PLACE,
            InlineUnit::Boxed(vs) => cols.len() > UNIT_IN_PLACE && vs.len() == cols.len(),
        }
    }

    /// The unit's values in ascending order of its columns `cols`.
    #[inline]
    pub(crate) fn values(&self, cols: ColSet) -> &[Value] {
        match self {
            InlineUnit::Here(vs) => &vs[..cols.len()],
            InlineUnit::Boxed(vs) => vs,
        }
    }

    /// The value of column `c`, if it is one of the unit's columns `cols`.
    pub(crate) fn get(&self, cols: ColSet, c: ColId) -> Option<&Value> {
        cols.rank(c).map(|i| &self.values(cols)[i])
    }

    /// Overwrites the value of column `c`, one of the unit's columns `cols`.
    pub(crate) fn set(&mut self, cols: ColSet, c: ColId, v: Value) {
        let i = cols.rank(c).expect("a unit column");
        match self {
            InlineUnit::Here(vs) => vs[i] = v,
            InlineUnit::Boxed(vs) => vs[i] = v,
        }
    }

    /// The unit of columns `cols` as a fresh [`Tuple`] (allocates: for α
    /// and error paths).
    pub(crate) fn to_tuple(&self, cols: ColSet) -> Tuple {
        Tuple::from_parts(cols, self.values(cols).to_vec())
    }

    /// Heap bytes beyond the entry itself: a wide unit's boxed values.
    fn heap_bytes(&self) -> usize {
        match self {
            InlineUnit::Here(_) => 0,
            InlineUnit::Boxed(vs) => vs.len() * std::mem::size_of::<Value>(),
        }
    }
}

/// The value of a container entry: the child node's instance, or the unit
/// tuple of an inline leaf.
#[derive(Debug, Clone)]
pub(crate) enum Child {
    /// A child instance, reference-counted by its incoming entries.
    Node(InstanceRef),
    /// An inline leaf's unit tuple, owned by the entry.
    Unit(InlineUnit),
}

// An entry's child costs its inline unit: the handle and the boxed variant
// live in the unit values' spare tags.
const _: () = assert!(std::mem::size_of::<Child>() == UNIT_IN_PLACE * std::mem::size_of::<Value>());

/// A borrowed [`Child`], as containers hand out their entries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChildRef<'a> {
    /// A child instance.
    Node(InstanceRef),
    /// An inline leaf's unit tuple.
    Unit(&'a InlineUnit),
}

impl Child {
    /// The borrowed form.
    pub(crate) fn as_ref(&self) -> ChildRef<'_> {
        match self {
            Child::Node(r) => ChildRef::Node(*r),
            Child::Unit(u) => ChildRef::Unit(u),
        }
    }
}

impl ChildRef<'_> {
    /// The child instance, or `None` for an inline unit.
    pub(crate) fn node(self) -> Option<InstanceRef> {
        match self {
            ChildRef::Node(r) => Some(r),
            ChildRef::Unit(_) => None,
        }
    }
}

/// An intrusive-list link slot stored inside a child instance.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Link {
    /// The previous list element, if any.
    pub prev: Option<InstanceRef>,
    /// The next list element, if any.
    pub next: Option<InstanceRef>,
    /// Whether this slot is currently linked into a list.
    pub in_list: bool,
}

/// A primitive instance: one per leaf of the node body.
#[derive(Debug, Clone)]
pub(crate) enum PrimInst {
    /// The single tuple of a `unit C` leaf, held as an inline entry holds
    /// its unit.
    Unit(InlineUnit),
    /// The container of a map leaf.
    Map(EdgeContainer),
}

/// The physical container implementing one map edge of one node instance.
#[derive(Debug, Clone)]
pub(crate) enum EdgeContainer {
    /// A hash table (`htable`).
    Hash(HashTable<Key, Child>),
    /// An AVL tree (`avl`).
    Avl(AvlMap<Key, Child>),
    /// A sorted vector (`sortedvec`).
    Sorted(SortedVecMap<Key, Child>),
    /// An association vector (`vec`).
    Assoc(AssocVec<Key, Child>),
    /// A non-intrusive doubly-linked list (`dlist`).
    DList(DListMap<Key, Child>),
    /// Intrusive doubly-linked list (`ilist`): only the head and length live
    /// here; the links live in the child instances at `slot`. `kpos` maps
    /// each key column to its position within the child's stored bound
    /// valuation, so entry keys are recovered from the children themselves.
    /// Its children are always instances: an `ilist` target is never inline.
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
    pub(crate) fn len(&self) -> usize {
        match self {
            EdgeContainer::Hash(c) => c.len(),
            EdgeContainer::Avl(c) => c.len(),
            EdgeContainer::Sorted(c) => c.len(),
            EdgeContainer::Assoc(c) => c.len(),
            EdgeContainer::DList(c) => c.len(),
            EdgeContainer::Intrusive { len, .. } => *len,
        }
    }

    /// Calls `f(key, child)` for every entry of a non-intrusive container,
    /// in the container's own order.
    ///
    /// # Panics
    ///
    /// Panics on an intrusive list, whose entries live in the children.
    fn for_each_entry(&self, mut f: impl FnMut(&[Value], &Child)) {
        match self {
            EdgeContainer::Hash(c) => c.iter().for_each(|(k, v)| f(k, v)),
            // The recursive in-order visitor: `AvlMap::iter` would allocate
            // its explicit stack once per container visited.
            EdgeContainer::Avl(c) => c.for_each_classified(|_| Ordering::Equal, |k, v| f(k, v)),
            EdgeContainer::Sorted(c) => c.iter().for_each(|(k, v)| f(k, v)),
            EdgeContainer::Assoc(c) => c.iter().for_each(|(k, v)| f(k, v)),
            EdgeContainer::DList(c) => c.iter().for_each(|(k, v)| f(k, v)),
            EdgeContainer::Intrusive { .. } => {
                unreachable!("intrusive entries live in the children")
            }
        }
    }

    /// Drops every entry, keeping the container's capacity. An intrusive
    /// list only forgets its head: its children's links go with them.
    fn clear(&mut self) {
        match self {
            EdgeContainer::Hash(c) => c.clear(),
            EdgeContainer::Avl(c) => c.clear(),
            EdgeContainer::Sorted(c) => c.clear(),
            EdgeContainer::Assoc(c) => c.clear(),
            EdgeContainer::DList(c) => c.clear(),
            EdgeContainer::Intrusive { head, len, .. } => {
                *head = None;
                *len = 0;
            }
        }
    }

    /// The [`entry_bytes`] of every entry (0 for an intrusive list, whose
    /// entries are counted with the child instances).
    fn entries_bytes(&self) -> usize {
        if matches!(self, EdgeContainer::Intrusive { .. }) {
            return 0;
        }
        let mut n = 0;
        self.for_each_entry(|k, c| n += entry_bytes(k, c));
        n
    }
}

/// A node instance `v_t`.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
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

/// Estimated bytes of one non-intrusive container entry with key `k`: the
/// entry as it sits in its container, plus the heap a key of two or more
/// columns or a wide inline unit boxes. Depends on the entry alone, so
/// insert, remove and free keep the running counter consistent in O(1).
fn entry_bytes(k: &[Value], c: &Child) -> usize {
    std::mem::size_of::<(Key, Child)>()
        + key_heap_bytes(k)
        + match c {
            Child::Node(_) => 0,
            Child::Unit(u) => u.heap_bytes(),
        }
}

/// Heap bytes of the [`Key`] holding `k`: none for a key of at most one
/// column, the pair's box for two, and for more the slice's box behind its
/// thin one.
fn key_heap_bytes(k: &[Value]) -> usize {
    use std::mem::size_of;
    match k.len() {
        0 | 1 => 0,
        2 => 2 * size_of::<Value>(),
        n => size_of::<Box<[Value]>>() + n * size_of::<Value>(),
    }
}

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
pub(crate) struct Arena {
    chunks: Vec<Arc<Chunk>>,
    free: Vec<u32>,
    live: usize,
    /// High-water slot count (slots ever created, free or live).
    len: u32,
}

impl Arena {
    /// Reserves chunk capacity for at least `additional` more instances.
    fn reserve(&mut self, additional: usize) {
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
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &Instance)> {
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
pub(crate) enum LeafSpec {
    /// A `unit C` leaf.
    Unit(ColSet),
    /// A map leaf for an edge.
    Map(EdgeId),
}

/// Static, per-decomposition layout information computed once at build time.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
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
    /// For each node: [`relic_query::path_key`] — what a tuple must bind
    /// to locate the node's instance.
    pub path_key_of_node: Vec<ColSet>,
    /// Every column of an edge key or a node binding
    /// ([`relic_query::structural_cols`]).
    pub structural_cols: ColSet,
    /// For each node: `(leaf index, unit columns)` of each unit leaf.
    pub unit_leaves: Vec<Vec<(usize, ColSet)>>,
    /// For each node: its body's leaves in left-to-right order, flattened so
    /// per-instance construction never re-walks the body tree.
    pub leaves_of_node: Vec<Box<[LeafSpec]>>,
    /// For each node: its unit columns `C` if it is an *inline leaf* —
    /// non-root, body exactly `unit C`, one incoming edge, not intrusive.
    /// Its unit tuples live in that edge's container entries and it has no
    /// instances ([`relic_query::inline_units`]).
    pub inline_unit: Vec<Option<ColSet>>,
    /// The decomposition's lowered §4.4 insert ([`relic_query::lower_insert`]),
    /// its identity path first and ending in the key guard when it has one.
    pub insert: WriteBlock,
}

impl Layout {
    /// Computes the layout of a decomposition for a relation whose minimal
    /// key is `key`.
    ///
    /// # Errors
    ///
    /// The insert lowering's [`PlanError`] (none for a decomposition that
    /// passed the adequacy check).
    pub(crate) fn new(d: &Decomposition, key: ColSet) -> Result<Self, PlanError> {
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
        Ok(Layout {
            leaf_of_edge,
            islot_of_edge,
            islots_of_node,
            kpos_of_edge,
            path_key_of_node: d.nodes().map(|(id, _)| path_key(d, id)).collect(),
            structural_cols: structural_cols(d),
            unit_leaves,
            leaves_of_node,
            inline_unit: inline_units(d),
            insert: lower_insert(d, key)?,
        })
    }

    /// Creates a fresh, empty container for an edge.
    pub(crate) fn new_container(&self, d: &Decomposition, e: EdgeId) -> EdgeContainer {
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
    /// each unit leaf `unit(i, C)` (leaf index, columns) and empty
    /// containers elsewhere.
    pub(crate) fn new_instance(
        &self,
        d: &Decomposition,
        node: NodeId,
        key: Key,
        mut unit: impl FnMut(usize, ColSet) -> InlineUnit,
    ) -> Instance {
        debug_assert!(
            self.inline_unit[node.index()].is_none(),
            "inline leaves have no instances"
        );
        let prims: Vec<PrimInst> = self.leaves_of_node[node.index()]
            .iter()
            .enumerate()
            .map(|(i, leaf)| match leaf {
                LeafSpec::Unit(c) => PrimInst::Unit(unit(i, *c)),
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
pub(crate) struct Store {
    arenas: Vec<Arena>,
    /// Running estimate of this version's logical heap footprint. Shared
    /// structure is counted in full by every version holding it (each
    /// snapshot reports its own complete logical size).
    approx_bytes: usize,
}

/// Estimated heap bytes attributable to one instance in its current shape:
/// fixed struct overhead, key/prim/link slots and the boxes of a wide key
/// or unit, plus the [`entry_bytes`] of every non-intrusive container
/// entry (intrusive entries live in the child instances and are counted
/// there). Value heap payloads (strings)
/// are deliberately ignored — the counter is an estimate, not an accounting
/// of every byte. Walks the entries of non-empty containers, which only a
/// freed parent still holding children has.
fn est_instance_bytes(inst: &Instance) -> usize {
    use std::mem::size_of;
    let leaves: usize = inst
        .prims
        .iter()
        .map(|p| match p {
            PrimInst::Map(c) => c.entries_bytes(),
            PrimInst::Unit(u) => u.heap_bytes(),
        })
        .sum();
    size_of::<Instance>()
        + size_of::<Arc<Instance>>()
        + key_heap_bytes(&inst.key)
        + inst.prims.len() * size_of::<PrimInst>()
        + inst.links.len() * size_of::<Link>()
        + leaves
}

impl Store {
    /// Creates an empty store for a decomposition.
    pub(crate) fn new(d: &Decomposition) -> Self {
        Store {
            arenas: (0..d.node_count()).map(|_| Arena::default()).collect(),
            approx_bytes: 0,
        }
    }

    /// Estimated heap bytes of this store version (struct overheads, key and
    /// container-entry slots, inline unit values; value payloads excluded).
    /// Maintained as a running counter — O(1) to read — so
    /// `relic_concurrent` can report `limbo_bytes()` without walking retired
    /// stores. Versions sharing structure each report their full logical
    /// size.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The arena of a node.
    pub(crate) fn arena(&self, node: NodeId) -> &Arena {
        &self.arenas[node.index()]
    }

    /// Allocates an instance, returning its handle.
    pub(crate) fn alloc(&mut self, node: NodeId, inst: Instance) -> InstanceRef {
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
    pub(crate) fn get(&self, r: InstanceRef) -> &Instance {
        self.arenas[r.node as usize]
            .slot(r.slot)
            .expect("live instance")
    }

    /// Is the handle live?
    pub(crate) fn is_live(&self, r: InstanceRef) -> bool {
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
    /// units and containers, their entries included). Subsequent mutations
    /// in the same epoch find both unique and mutate in place.
    pub(crate) fn get_mut(&mut self, r: InstanceRef) -> &mut Instance {
        let arena = &mut self.arenas[r.node as usize];
        let chunk = Arc::make_mut(&mut arena.chunks[(r.slot >> CHUNK_BITS) as usize]);
        let inst = chunk.slots[(r.slot & CHUNK_MASK) as usize]
            .as_mut()
            .expect("live instance");
        Arc::make_mut(inst)
    }

    /// Frees an instance slot. The instance itself is dropped when the last
    /// store version holding it is reclaimed.
    pub(crate) fn free(&mut self, r: InstanceRef) {
        let arena = &mut self.arenas[r.node as usize];
        let chunk = Arc::make_mut(&mut arena.chunks[(r.slot >> CHUNK_BITS) as usize]);
        let inst = chunk.slots[(r.slot & CHUNK_MASK) as usize]
            .take()
            .expect("live instance");
        arena.free.push(r.slot);
        arena.live -= 1;
        self.approx_bytes = self.approx_bytes.saturating_sub(est_instance_bytes(&inst));
    }

    /// Empties this version in place down to `root`, the root instance:
    /// every other instance is freed and the root's containers are
    /// emptied, keeping their capacity. Allocates nothing unless the root
    /// instance is shared with another version.
    pub(crate) fn clear_to_root(&mut self, root: InstanceRef) {
        for (i, arena) in self.arenas.iter_mut().enumerate() {
            if i != usize::from(root.node) {
                arena.chunks.clear();
                arena.free.clear();
                arena.live = 0;
                arena.len = 0;
            }
        }
        let inst = self.get_mut(root);
        for p in inst.prims.iter_mut() {
            if let PrimInst::Map(c) = p {
                c.clear();
            }
        }
        self.approx_bytes = est_instance_bytes(self.get(root));
    }

    /// Total live instances across all nodes.
    pub(crate) fn total_live(&self) -> usize {
        self.arenas.iter().map(|a| a.live).sum()
    }

    /// Reserves arena capacity for at least `additional` more instances of
    /// `node` (a bulk-load pre-sizing hint).
    pub(crate) fn reserve_node(&mut self, node: NodeId, additional: usize) {
        self.arenas[node.index()].reserve(additional);
    }

    /// The container at `(parent, leaf)`.
    fn cont(&self, parent: InstanceRef, leaf: usize) -> &EdgeContainer {
        match &self.get(parent).prims[leaf] {
            PrimInst::Map(c) => c,
            PrimInst::Unit(_) => panic!("container access on a unit leaf"),
        }
    }

    /// The container at `(parent, leaf)`, path-copied for mutation.
    fn cont_mut(&mut self, parent: InstanceRef, leaf: usize) -> &mut EdgeContainer {
        match &mut self.get_mut(parent).prims[leaf] {
            PrimInst::Map(c) => c,
            PrimInst::Unit(_) => panic!("container access on a unit leaf"),
        }
    }

    /// Replaces the (empty) container at `(parent, leaf)` with `cont`, a
    /// container built wholesale from a batch of entries whose child
    /// reference counts the batch walk already bumped.
    pub(crate) fn cont_install(&mut self, parent: InstanceRef, leaf: usize, cont: EdgeContainer) {
        let added = cont.entries_bytes();
        let old = std::mem::replace(self.cont_mut(parent, leaf), cont);
        debug_assert!(
            old.len() == 0,
            "a bulk-built container replaces an empty one"
        );
        self.approx_bytes = self.approx_bytes.saturating_add(added);
    }

    // -- container operations ------------------------------------------------
    //
    // All operations address a container as (parent instance, leaf index).
    // Intrusive lists additionally thread link updates through the store.

    /// Looks up `key` in the container at `(parent, leaf)`.
    ///
    /// The probe is *borrowed*: [`Key`]-keyed containers are searched
    /// through `&[Value]` directly (`Borrow`-based lookup), so no key is
    /// built — the heart of the zero-allocation query hot path.
    pub(crate) fn cont_get(
        &self,
        parent: InstanceRef,
        leaf: usize,
        key: &[Value],
    ) -> Option<ChildRef<'_>> {
        let child = match self.cont(parent, leaf) {
            EdgeContainer::Hash(c) => c.get(key),
            EdgeContainer::Avl(c) => c.get(key),
            EdgeContainer::Sorted(c) => c.get(key),
            EdgeContainer::Assoc(c) => c.get(key),
            EdgeContainer::DList(c) => c.get(key),
            EdgeContainer::Intrusive {
                head, slot, kpos, ..
            } => {
                let slot = *slot;
                let mut cur = *head;
                while let Some(r) = cur {
                    let child = self.get(r);
                    if kpos
                        .iter()
                        .zip(key.iter())
                        .all(|(p, v)| &child.key[*p as usize] == v)
                    {
                        return Some(ChildRef::Node(r));
                    }
                    cur = child.links[slot as usize].next;
                }
                return None;
            }
        };
        child.map(Child::as_ref)
    }

    /// Mutable access to the entry for `key` in the non-intrusive container
    /// at `(parent, leaf)`, path-copying the parent — how an in-place update
    /// rewrites an inline unit.
    ///
    /// # Panics
    ///
    /// Panics on an intrusive list, which stores no entries of its own.
    pub(crate) fn cont_get_mut(
        &mut self,
        parent: InstanceRef,
        leaf: usize,
        key: &[Value],
    ) -> Option<&mut Child> {
        match self.cont_mut(parent, leaf) {
            EdgeContainer::Hash(c) => c.get_mut(key),
            EdgeContainer::Avl(c) => c.get_mut(key),
            EdgeContainer::Sorted(c) => c.get_mut(key),
            EdgeContainer::Assoc(c) => c.get_mut(key),
            EdgeContainer::DList(c) => c.get_mut(key),
            EdgeContainer::Intrusive { .. } => panic!("cont_get_mut on an intrusive list"),
        }
    }

    /// Inserts `key → child` into the container at `(parent, leaf)`,
    /// counting the reference of a child instance.
    /// The caller must ensure the key is absent (the insert runner looks up
    /// first).
    pub(crate) fn cont_insert(&mut self, parent: InstanceRef, leaf: usize, key: Key, child: Child) {
        // Intrusive insertion needs link surgery on instances other than the
        // parent, so handle it without holding a borrow of the parent.
        if let EdgeContainer::Intrusive { head, slot, .. } = self.cont(parent, leaf) {
            let (old_head, slot) = (*head, *slot as usize);
            let Child::Node(child) = child else {
                unreachable!("an intrusive list links instances, never inline units")
            };
            {
                let link = &mut self.get_mut(child).links[slot];
                debug_assert!(!link.in_list, "child already linked in this slot");
                *link = Link {
                    prev: None,
                    next: old_head,
                    in_list: true,
                };
            }
            if let Some(h) = old_head {
                self.get_mut(h).links[slot].prev = Some(child);
            }
            if let EdgeContainer::Intrusive { head, len, .. } = self.cont_mut(parent, leaf) {
                *head = Some(child);
                *len += 1;
            }
            self.get_mut(child).refs += 1;
            return;
        }
        self.approx_bytes = self.approx_bytes.saturating_add(entry_bytes(&key, &child));
        if let Child::Node(r) = child {
            self.get_mut(r).refs += 1;
        }
        let prev = match self.cont_mut(parent, leaf) {
            EdgeContainer::Hash(c) => c.insert(key, child),
            EdgeContainer::Avl(c) => c.insert(key, child),
            EdgeContainer::Sorted(c) => c.insert(key, child),
            EdgeContainer::Assoc(c) => c.insert(key, child),
            EdgeContainer::DList(c) => c.insert(key, child),
            EdgeContainer::Intrusive { .. } => unreachable!("handled above"),
        };
        debug_assert!(prev.is_none(), "caller must check key absence first");
    }

    /// Removes `key` from the container at `(parent, leaf)`, returning the
    /// removed child: an inline unit, dropped with its entry, or an unlinked
    /// instance whose reference count is **not** yet decremented.
    pub(crate) fn cont_remove(
        &mut self,
        parent: InstanceRef,
        leaf: usize,
        key: &[Value],
    ) -> Option<Child> {
        if let EdgeContainer::Intrusive { .. } = self.cont(parent, leaf) {
            let child = self.cont_get(parent, leaf, key)?.node()?;
            self.intrusive_unlink(parent, leaf, child);
            return Some(Child::Node(child));
        }
        let removed = match self.cont_mut(parent, leaf) {
            EdgeContainer::Hash(c) => c.remove(key),
            EdgeContainer::Avl(c) => c.remove(key),
            EdgeContainer::Sorted(c) => c.remove(key),
            EdgeContainer::Assoc(c) => c.remove(key),
            EdgeContainer::DList(c) => c.remove(key),
            EdgeContainer::Intrusive { .. } => unreachable!("handled above"),
        };
        if let Some(c) = &removed {
            self.approx_bytes = self.approx_bytes.saturating_sub(entry_bytes(key, c));
        }
        removed
    }

    /// Unlinks `child` from the intrusive list at `(parent, leaf)` in O(1).
    fn intrusive_unlink(&mut self, parent: InstanceRef, leaf: usize, child: InstanceRef) {
        let EdgeContainer::Intrusive { slot, .. } = self.cont(parent, leaf) else {
            panic!("intrusive_unlink on a non-intrusive container");
        };
        let slot = *slot as usize;
        let link = self.get(child).links[slot];
        assert!(link.in_list, "child not linked");
        if let Some(p) = link.prev {
            self.get_mut(p).links[slot].next = link.next;
        }
        if let Some(n) = link.next {
            self.get_mut(n).links[slot].prev = link.prev;
        }
        if let EdgeContainer::Intrusive { head, len, .. } = self.cont_mut(parent, leaf) {
            if *head == Some(child) {
                *head = link.next;
            }
            *len -= 1;
        }
        self.get_mut(child).links[slot] = Link::default();
    }

    /// Number of entries in the container at `(parent, leaf)`.
    pub(crate) fn cont_len(&self, parent: InstanceRef, leaf: usize) -> usize {
        self.cont(parent, leaf).len()
    }

    /// Calls `f(entry key values, child)` for every entry of the container at
    /// `(parent, leaf)`. Iteration order is the container's own.
    pub(crate) fn cont_for_each(
        &self,
        parent: InstanceRef,
        leaf: usize,
        f: impl FnMut(&[Value], ChildRef<'_>),
    ) {
        let mut keybuf = Vec::new();
        self.cont_for_each_kbuf(parent, leaf, &mut keybuf, f);
    }

    /// [`cont_for_each`](Store::cont_for_each) with a caller-supplied scratch
    /// buffer for reconstructing intrusive-list entry keys, so a warm query
    /// path performs no allocation even when it scans `ilist` edges. The
    /// buffer is cleared per entry; non-intrusive containers never touch it.
    pub(crate) fn cont_for_each_kbuf(
        &self,
        parent: InstanceRef,
        leaf: usize,
        keybuf: &mut Vec<Value>,
        mut f: impl FnMut(&[Value], ChildRef<'_>),
    ) {
        match self.cont(parent, leaf) {
            EdgeContainer::Intrusive {
                head, slot, kpos, ..
            } => {
                let mut cur = *head;
                while let Some(r) = cur {
                    let child = self.get(r);
                    keybuf.clear();
                    keybuf.extend(kpos.iter().map(|p| child.key[*p as usize].clone()));
                    f(keybuf, ChildRef::Node(r));
                    cur = child.links[*slot as usize].next;
                }
            }
            c => c.for_each_entry(|k, v| f(k, v.as_ref())),
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
    pub(crate) fn cont_for_each_range(
        &self,
        parent: InstanceRef,
        leaf: usize,
        prefix: &[Value],
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
        mut f: impl FnMut(&[Value], ChildRef<'_>),
    ) {
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
        match self.cont(parent, leaf) {
            EdgeContainer::Avl(c) => c.for_each_classified(classify, |k, v| f(k, v.as_ref())),
            EdgeContainer::Sorted(c) => c.for_each_classified(classify, |k, v| f(k, v.as_ref())),
            _ => panic!("cont_for_each_range on an unordered container"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Child, InlineUnit, Instance, Key, Layout, PrimInst};
    use crate::SynthRelation;
    use relic_containers::{AvlMap, FxHasher, HashTable};
    use relic_decomp::parse;
    use relic_spec::{Catalog, ColSet, RelSpec, Tuple, Value};
    use std::hash::{Hash, Hasher};
    use std::mem::size_of;
    use std::sync::Arc;

    /// The inline-leaf verdict of the node called `name` in `src`.
    fn inline(src: &str, name: &str) -> bool {
        let d = parse(&mut Catalog::new(), src).unwrap();
        let node = d.node_by_name(name).unwrap();
        Layout::new(&d, ColSet::EMPTY).unwrap().inline_unit[node.index()].is_some()
    }

    #[test]
    fn a_unit_leaf_under_one_plain_edge_is_inline() {
        // IpCap's default decomposition.
        assert!(inline(
            "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
             let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
             let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x",
            "w"
        ));
        // A flat one-edge hash on the same relation.
        assert!(inline(
            "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
             let x : {} . {local,remote,bytes,pkts} = {local,remote} -[htable]-> w in x",
            "w"
        ));
    }

    #[test]
    fn shared_intrusive_and_root_units_keep_their_instances() {
        // The scheduler's `w`, shared by both join sides.
        assert!(!inline(
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[ilist]-> w in
             let x : {} . {ns,pid,state,cpu} =
               ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
            "w"
        ));
        // A unit leaf threaded on an intrusive list.
        assert!(!inline(
            "let u : {a,b} . {v} = unit {v} in
             let y : {a} . {b,v} = {b} -[ilist]-> u in
             let x : {} . {a,b,v} = {a} -[htable]-> y in x",
            "u"
        ));
        // A unit root.
        assert!(!inline("let x : {} . {v} = unit {v} in x", "x"));
    }

    /// 8 locals x 16 remotes of `local, remote → bytes, pkts` under `src`.
    fn flows_bytes(src: &str) -> usize {
        let mut cat = Catalog::new();
        let d = parse(&mut cat, src).unwrap();
        let col = |name| cat.col(name).unwrap();
        let (local, remote, bytes, pkts) = (col("local"), col("remote"), col("bytes"), col("pkts"));
        let spec = RelSpec::new(cat.all()).with_fd(local | remote, bytes | pkts);
        let mut r = SynthRelation::new(&cat, spec, d).unwrap();
        for i in 0..128i64 {
            let t = Tuple::from_pairs([
                (local, Value::from(i % 8)),
                (remote, Value::from(i)),
                (bytes, Value::from(40 * i)),
                (pkts, Value::from(1)),
            ]);
            assert!(r.insert(t).unwrap());
        }
        r.store_approx_bytes()
    }

    /// The store's byte estimate (what `limbo_bytes` and admission control
    /// read) is the layout's: an entry is its 48 B in the container, plus
    /// only the heap a key of two or more columns boxes.
    #[test]
    fn the_byte_estimate_is_the_entry_layout() {
        let entry = size_of::<(Key, Child)>();
        assert_eq!(entry, 48, "a 16 B key beside a 32 B inline unit");
        // An instance with one map leaf, no links and a key of at most one
        // column: its struct, its `Arc` slot and its leaf.
        let instance = size_of::<Instance>() + size_of::<Arc<Instance>>() + size_of::<PrimInst>();
        // IpCap's default decomposition: the root and 8 `{remote}` tables,
        // one root entry per local, one entry per flow, no heap beyond.
        let nested = flows_bytes(
            "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
             let y : {local} . {remote,bytes,pkts} = {remote} -[htable]-> w in
             let x : {} . {local,remote,bytes,pkts} = {local} -[avl]-> y in x",
        );
        assert_eq!(nested, 9 * instance + (8 + 128) * entry);
        // One flat table: each two-column key's thin pointer names one box
        // of its two values.
        let flat = flows_bytes(
            "let w : {local,remote} . {bytes,pkts} = unit {bytes,pkts} in
             let x : {} . {local,remote,bytes,pkts} = {local,remote} -[htable]-> w in x",
        );
        assert_eq!(flat, instance + 128 * (entry + size_of::<[Value; 2]>()));
    }

    /// A unit stores no columns, so `validate` holds its arity to the
    /// layout's: three columns in place, or a box of four, is no valuation
    /// of a three-column unit.
    #[test]
    fn validate_rejects_a_unit_of_the_wrong_arity() {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "let w : {k} . {a,b,c} = unit {a,b,c} in
             let x : {} . {k,a,b,c} = {k} -[htable]-> w in x",
        )
        .unwrap();
        let k = cat.col("k").unwrap();
        let spec = RelSpec::new(cat.all()).with_fd(k.set(), cat.all() - k.set());
        for vals in [&[2, 3][..], &[2, 3, 4, 5]] {
            let mut r = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
            let row = cat.all().iter().zip([1, 2, 3, 4].map(Value::from));
            assert!(r.insert(Tuple::from_pairs(row)).unwrap());
            r.validate().unwrap();
            let root = r.root;
            let store = Arc::make_mut(&mut r.store);
            let entry = store.cont_get_mut(root, 0, &[Value::from(1)]).unwrap();
            let wrong: ColSet = cat.all().iter().take(vals.len()).collect();
            *entry = Child::Unit(InlineUnit::new(wrong, vals.iter().map(|&v| Value::from(v))));
            let err = r.validate().unwrap_err();
            assert!(err.contains("no valuation of its 3 columns"), "{err}");
        }
    }

    /// A stored key of any width is its slice: it compares, orders and
    /// Fx-hashes as the slice, and containers find it by a borrowed one.
    #[test]
    fn a_key_is_its_slice() {
        fn fx(x: &impl Hash) -> u64 {
            let mut h = FxHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        let vals = [
            Value::from(3),
            Value::from("ab"),
            Value::from(-1),
            Value::from(""),
            Value::from("b"),
        ];
        // The leading and trailing 0–4 values: mixed `Int`s and `Str`s.
        let mut slices: Vec<&[Value]> =
            (0..=4).flat_map(|n| [&vals[..n], &vals[5 - n..]]).collect();
        slices.dedup();
        let mut hash: HashTable<Key, usize> = HashTable::new();
        let mut avl: AvlMap<Key, usize> = AvlMap::new();
        for (i, &x) in slices.iter().enumerate() {
            let k = Key::from(x);
            assert_eq!(&*k, x);
            assert_eq!(fx(&k), fx(&x), "{x:?}");
            for &y in &slices {
                let ky = Key::from(y);
                assert_eq!(k == ky, x == y, "{x:?} = {y:?}");
                assert_eq!(k.cmp(&ky), x.cmp(y), "{x:?} <> {y:?}");
            }
            hash.insert(k.clone(), i);
            avl.insert(k, i);
        }
        for (i, &x) in slices.iter().enumerate() {
            assert_eq!(hash.get(x).copied(), Some(i), "{x:?}");
            assert_eq!(avl.get(x).copied(), Some(i), "{x:?}");
        }
    }
}
