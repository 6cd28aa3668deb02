//! The three storage backends a session name can be bound to.
//!
//! A shell relation is either in-memory ([`SynthRelation`]), durable
//! ([`DurableRelation`] over a WAL directory), or remote (a
//! [`Client`] speaking the PR 9 wire protocol to a `relic_server`).
//! The compiler and executor see one [`Backend`] surface: catalog, spec,
//! cardinality, mutation, and (in the executor) per-backend streaming.

use relic_core::{Op, SynthRelation};
use relic_decomp::Decomposition;
use relic_persist::DurableRelation;
use relic_server::Client;
use relic_spec::{Catalog, RelSpec, Value};
use std::borrow::Cow;
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

    /// The decomposition a local relation stores its tuples in; `None` for
    /// a remote relation, which its server plans.
    pub fn decomposition(&self) -> Result<Option<Cow<'_, Decomposition>>, Diag> {
        match self {
            Backend::Mem(r) => Ok(Some(Cow::Borrowed(r.decomposition()))),
            Backend::Durable(r) => Ok(Some(Cow::Owned(
                r.durable_schema()
                    .build_decomposition()
                    .map_err(backend_err)?,
            ))),
            Backend::Remote(_) => Ok(None),
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

    /// Applies one write; returns its count (tuples inserted or removed).
    /// Each backend applies the op whole: a remote relation ships it to
    /// the server as one request.
    pub fn apply(&mut self, op: Op) -> Result<usize, Diag> {
        match self {
            Backend::Mem(r) => r.apply(op).map_err(backend_err),
            Backend::Durable(r) => r.apply(op).map_err(backend_err),
            Backend::Remote(r) => Ok(r.client.get_mut().apply(op).map_err(backend_err)? as usize),
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
