//! The three storage backends a session name can be bound to.
//!
//! A shell relation is either in-memory ([`SynthRelation`]), durable
//! ([`DurableRelation`] over a WAL directory), or remote (a
//! [`Client`] speaking the PR 9 wire protocol to a `relic_server`).
//! The compiler and executor see one [`Backend`] surface: catalog, spec,
//! cardinality, mutation, and (in the executor) per-backend streaming.

use relic_core::{OpError, RelRead, SynthRelation};
use relic_persist::DurableRelation;
use relic_server::{Client, ServerError};
use relic_spec::{Catalog, ColSet, Pattern, RelSpec, Tuple, Value};
use std::cell::RefCell;
use std::fmt::Display;

use crate::diag::Diag;

/// A served relation reached over TCP: the cached schema plus the live
/// connection. The client sits in a `RefCell` so the read-only executor
/// can issue queries through a shared borrow of the backend.
pub struct RemoteRel {
    /// The wire connection.
    pub client: RefCell<Client>,
    /// Schema fetched at connect time.
    pub cat: Catalog,
    /// Specification fetched at connect time.
    pub spec: RelSpec,
    /// The address we connected to (for `show relations`).
    pub addr: String,
}

/// One session binding: a name → storage.
pub enum Backend {
    /// In-memory synthesized relation.
    Mem(SynthRelation),
    /// Durable relation over a WAL directory.
    Durable(DurableRelation),
    /// Remote relation served over TCP.
    Remote(RemoteRel),
}

/// Converts any backend error into a spanless [`Diag`].
pub fn backend_err(e: impl Display) -> Diag {
    Diag::new(e.to_string())
}

impl Backend {
    /// The column catalog.
    pub fn catalog(&self) -> &Catalog {
        match self {
            Backend::Mem(r) => r.catalog(),
            Backend::Durable(r) => r.catalog(),
            Backend::Remote(r) => &r.cat,
        }
    }

    /// The relational specification.
    pub fn spec(&self) -> &RelSpec {
        match self {
            Backend::Mem(r) => r.spec(),
            Backend::Durable(r) => r.spec(),
            Backend::Remote(r) => &r.spec,
        }
    }

    /// A one-word storage kind for listings and plans (no addresses or
    /// directories, so output stays reproducible).
    pub fn kind(&self) -> &'static str {
        match self {
            Backend::Mem(_) => "memory",
            Backend::Durable(_) => "durable",
            Backend::Remote(_) => "remote",
        }
    }

    /// Current tuple count (a round trip for remote relations).
    ///
    /// No `is_empty` twin: the count is fallible and a round trip, so
    /// callers always want the number itself.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> Result<usize, Diag> {
        match self {
            Backend::Mem(r) => Ok(r.len()),
            Backend::Durable(r) => Ok(r.len()),
            Backend::Remote(r) => {
                let mut c = r
                    .client
                    .try_borrow_mut()
                    .map_err(|_| Diag::new("remote connection is busy"))?;
                Ok(c.stats().map_err(backend_err)?.len as usize)
            }
        }
    }

    /// Inserts one tuple; `true` if it was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, Diag> {
        match self {
            Backend::Mem(r) => r.insert(t).map_err(backend_err),
            Backend::Durable(r) => r.insert(t).map_err(backend_err),
            Backend::Remote(r) => Ok(r.client.get_mut().insert(t).map_err(backend_err)? > 0),
        }
    }

    /// Bulk-loads tuples; returns how many were new.
    pub fn load(&mut self, tuples: Vec<Tuple>) -> Result<usize, Diag> {
        match self {
            Backend::Mem(r) => r.insert_many(tuples).map_err(backend_err),
            Backend::Durable(r) => r.bulk_load(tuples).map_err(backend_err),
            Backend::Remote(r) => {
                let c = r.client.get_mut();
                let mut n = 0u64;
                for t in tuples {
                    n += c.insert(t).map_err(backend_err)?;
                }
                Ok(n as usize)
            }
        }
    }

    /// Removes every tuple matching `pattern` (`raw` is the predicate text
    /// for the remote wire). An empty pattern clears the relation.
    pub fn remove_where(&mut self, pattern: &Pattern, raw: &str) -> Result<usize, Diag> {
        match self {
            Backend::Mem(r) => r.remove_where(pattern).map_err(backend_err),
            Backend::Durable(r) => {
                // No remove_where on the durable surface: enumerate the
                // matches and remove them as exact tuples, which the WAL
                // logs as one RemoveMany record.
                let hits = r
                    .read_view()
                    .query_where(pattern, r.spec().cols())
                    .map_err(backend_err)?;
                if hits.is_empty() {
                    return Ok(0);
                }
                r.remove_many(&hits).map_err(backend_err)
            }
            Backend::Remote(r) => {
                let c = r.client.get_mut();
                if pattern.dom() == pattern.eq_cols() {
                    // Pure-equality predicates map onto the wire's
                    // pattern-remove directly.
                    return Ok(c.remove(pattern.eq_tuple()).map_err(backend_err)? as usize);
                }
                let hits = if raw.is_empty() {
                    c.query(Tuple::empty(), ColSet::EMPTY)
                        .map_err(backend_err)?
                } else {
                    c.query_where(raw, ColSet::EMPTY).map_err(backend_err)?
                };
                let mut n = 0u64;
                for t in hits {
                    n += c.remove(t).map_err(backend_err)?;
                }
                Ok(n as usize)
            }
        }
    }

    /// Forces a durable commit; `None` when the backend has nothing to
    /// make durable (memory relations).
    pub fn commit(&mut self) -> Result<Option<u64>, Diag> {
        match self {
            Backend::Mem(_) => Ok(None),
            Backend::Durable(r) => Ok(Some(r.commit().map_err(backend_err)?)),
            Backend::Remote(r) => Ok(Some(r.client.get_mut().commit().map_err(backend_err)?)),
        }
    }
}

/// Renders a value in the concrete syntax `parse_pattern` reads back, so
/// the shell can ship join probes to a remote server as predicate text.
pub fn value_literal(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Str(s) => format!("{:?}", &**s),
    }
}

/// Maps library errors that carry no span into diagnostics (used by the
/// executor's query paths).
pub fn op_err(e: OpError) -> Diag {
    backend_err(e)
}

/// As [`op_err`], for the wire layer.
pub fn server_err(e: ServerError) -> Diag {
    backend_err(e)
}
