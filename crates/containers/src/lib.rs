//! From-scratch associative containers used as decomposition primitives.
//!
//! The paper assembles physical representations from "a library of primitive
//! data structures" implementing "a common associative container API" (§3,
//! §6). This crate is that library, built from scratch so the runtime's
//! complexity profile is fully under our control:
//!
//! * [`HashTable`] — dense hash table (one entry array in insertion order
//!   behind an open-addressed index of `u32` positions) with a deterministic
//!   FxHash-style hasher (the paper's `htable`); expected O(1) lookup,
//!   iteration is a slice walk.
//! * [`AvlMap`] — arena-backed AVL tree (the paper's `btree` stand-in);
//!   O(log n) lookup, ordered iteration.
//! * [`SortedVecMap`] — binary-searched sorted vector; O(log n) lookup,
//!   O(n) insert/remove.
//! * [`AssocVec`] — unsorted association vector, linear scans (the paper's
//!   `vector` of key/value entries).
//! * [`DListMap`] — arena-backed doubly-linked list of key/value pairs (the
//!   paper's non-intrusive `dlist`); O(n) lookup, O(1) insert.
//!
//! Intrusive lists (whose links live inside the *child* objects, as with
//! `boost::intrusive::list`) depend on the instance layout and therefore live
//! in `relic-core`, not here.
//!
//! All containers share the same core surface: `insert`, `get`, `remove`,
//! `iter`, `len` — enough for the map decomposition primitive
//! `C -[ψ]-> v`. Insert uses *replace* semantics and returns the previous
//! value, mirroring `std` maps.
//!
//! # Example
//!
//! ```
//! use relic_containers::HashTable;
//!
//! let mut t = HashTable::new();
//! t.insert("x", 1);
//! t.insert("y", 2);
//! assert_eq!(t.insert("x", 3), Some(1));
//! assert_eq!(t.get(&"x"), Some(&3));
//! assert_eq!(t.remove(&"y"), Some(2));
//! assert_eq!(t.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc_vec;
mod avl;
mod dlist;
mod hash;
mod sorted_vec;

pub use assoc_vec::AssocVec;
pub use avl::AvlMap;
pub use dlist::DListMap;
pub use hash::{FxHasher, HashTable};
pub use sorted_vec::SortedVecMap;
