//! Wire serialization for durable relations: a small, explicit byte format
//! for [`Value`]s, [`Tuple`]s, [`Pattern`]s, [`Op`]s, [`RelSpec`]s,
//! [`Catalog`]s and decomposition identities, used by `relic_persist`'s
//! write-ahead log and checkpoint files and by the served protocol
//! ([`netmsg`](crate::netmsg)).
//!
//! The format is deliberately boring — fixed-width little-endian integers,
//! length-prefixed strings, one tag byte per variant — so a torn or
//! corrupted byte is caught either by the framing layer's checksum or by a
//! decode error here, never by a panic. Decoding is total: every reader
//! returns [`WireError`] instead of slicing out of bounds.
//!
//! A *decomposition identity* is serialized as the catalog-relative
//! let-notation produced by [`Decomposition::to_let_notation`]; decoding
//! re-parses it against the decoded catalog, which reproduces an equal
//! [`Decomposition`] (node names, bounds, edge keys and data-structure
//! kinds all round-trip). A recovered relation therefore re-synthesizes the
//! *same representation* it crashed with — and, since the autotuner's
//! inputs are all derived from the live spec and profile, it can re-migrate
//! afterwards exactly as a never-restarted relation would.

use crate::exec::Bindings;
use crate::Op;
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColId, ColSet, Pattern, Pred, RelSpec, Tuple, Value};
use std::fmt;

/// Errors surfaced while decoding wire-format bytes.
#[derive(Debug)]
pub enum WireError {
    /// The buffer ended before the value being decoded did.
    Truncated,
    /// An unknown tag byte for the expected type.
    BadTag(u8),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A tuple's value count disagreed with its column-set arity.
    Arity {
        /// Columns in the decoded domain.
        cols: usize,
        /// Values that followed.
        vals: usize,
    },
    /// A serialized decomposition failed to re-parse.
    Decomposition(String),
    /// A serialized pattern is not one [`Pattern`] can hold: its columns
    /// are unsorted, repeated, or past the 64-column catalog.
    BadPattern,
    /// A serialized catalog names more than 64 columns.
    CatalogFull,
    /// A complete value decoded but bytes were left over. Trailing garbage
    /// is a framing bug (or a newer writer) — silently ignoring it would
    /// mask both, so readers that own a whole buffer call
    /// [`Reader::expect_end`] and surface this instead.
    Trailing {
        /// Unconsumed bytes after the decoded value.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire data truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "wire string is not valid UTF-8"),
            WireError::Arity { cols, vals } => {
                write!(f, "tuple arity mismatch: {cols} columns vs {vals} values")
            }
            WireError::Decomposition(e) => write!(f, "decomposition failed to re-parse: {e}"),
            WireError::BadPattern => {
                write!(f, "pattern columns are unsorted, repeated or out of range")
            }
            WireError::CatalogFull => write!(f, "catalog names more than 64 columns"),
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over wire-format bytes; every `take_*` checks bounds.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, WireError> {
        let n = self.take_u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::BadUtf8)
    }

    /// A `u32`-length-prefixed opaque byte blob.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.take_u32()? as usize;
        self.take(n)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] if any bytes remain — a decoded-but-longer
    /// buffer is treated as corruption, never silently truncated.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                remaining: self.remaining(),
            })
        }
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32`-length-prefixed opaque byte blob.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

// -- values -----------------------------------------------------------------

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;

/// Appends one [`Value`]: a tag byte plus the payload.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            put_i64(out, *i);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
    }
}

/// Decodes one [`Value`].
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::BadTag`] / [`WireError::BadUtf8`].
pub fn take_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    match r.take_u8()? {
        TAG_BOOL => Ok(Value::Bool(r.take_u8()? != 0)),
        TAG_INT => Ok(Value::Int(r.take_i64()?)),
        TAG_STR => Ok(Value::from(r.take_str()?)),
        t => Err(WireError::BadTag(t)),
    }
}

// -- tuples -----------------------------------------------------------------

/// Appends one row — a tuple over `dom` whose values, in ascending column
/// order, are `values` — as its domain bits followed by the values. This is
/// the one writer of the row format: [`put_tuple`], [`put_bindings`] and
/// the served `Rows` payload all go through it, and [`take_tuple`] reads it
/// back.
pub fn put_row<'v>(out: &mut Vec<u8>, dom: ColSet, values: impl IntoIterator<Item = &'v Value>) {
    put_u64(out, dom.bits());
    for v in values {
        put_value(out, v);
    }
}

/// The bytes [`put_row`] writes for `values`.
pub(crate) fn row_len<'v>(values: impl IntoIterator<Item = &'v Value>) -> usize {
    values
        .into_iter()
        .fold(ROW_HEADER_LEN, |n, v| n + value_len(v))
}

/// The bytes [`put_row`] writes before a row's values: its domain bits.
pub(crate) const ROW_HEADER_LEN: usize = 8;

/// The bytes [`put_value`] writes for `v`.
pub(crate) fn value_len(v: &Value) -> usize {
    match v {
        Value::Bool(_) => 2,
        Value::Int(_) => 9,
        Value::Str(s) => 5 + s.len(),
    }
}

/// Appends one [`Tuple`] in [`put_row`]'s format.
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_row(out, t.dom(), t.values());
}

/// Appends `b`'s valuation of `cols` in [`put_row`]'s format — byte for
/// byte what `put_tuple(out, &b.project(cols))` writes, without building
/// the tuple. This is how a streaming scan serializes the tuples it emits
/// ([`take_tuple`] reads them back).
pub fn put_bindings(out: &mut Vec<u8>, b: &Bindings, cols: ColSet) {
    let keep = b.dom() & cols;
    put_row(out, keep, keep.iter().filter_map(|c| b.get(c)));
}

/// Decodes one [`Tuple`].
///
/// # Errors
///
/// As for [`take_value`], plus [`WireError::Arity`] if the value list
/// cannot be paired with the decoded domain — decoders never panic on
/// untrusted bytes, so the tuple is rebuilt through the fallible
/// constructor rather than the asserting one.
pub fn take_tuple(r: &mut Reader<'_>) -> Result<Tuple, WireError> {
    let cols = ColSet::from_bits(r.take_u64()?);
    let mut vals = Vec::with_capacity(cols.len());
    for _ in 0..cols.len() {
        vals.push(take_value(r)?);
    }
    let vals_len = vals.len();
    Tuple::try_from_parts(cols, vals).map_err(|_| WireError::Arity {
        cols: cols.len(),
        vals: vals_len,
    })
}

/// Appends a `u32`-count-prefixed tuple batch.
pub fn put_tuples(out: &mut Vec<u8>, ts: &[Tuple]) {
    put_u32(out, ts.len() as u32);
    for t in ts {
        put_tuple(out, t);
    }
}

/// Decodes a tuple batch written by [`put_tuples`].
///
/// # Errors
///
/// As for [`take_tuple`].
pub fn take_tuples(r: &mut Reader<'_>) -> Result<Vec<Tuple>, WireError> {
    let n = r.take_u32()? as usize;
    let mut ts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ts.push(take_tuple(r)?);
    }
    Ok(ts)
}

// -- patterns and ops -------------------------------------------------------

const PRED_EQ: u8 = 0;
const PRED_NE: u8 = 1;
const PRED_LT: u8 = 2;
const PRED_LE: u8 = 3;
const PRED_GT: u8 = 4;
const PRED_GE: u8 = 5;
const PRED_BETWEEN: u8 = 6;
const PRED_IN: u8 = 7;

/// Appends one [`Pred`]: a tag byte, then its value(s) — an `In` set
/// `u32`-count-prefixed.
fn put_pred(out: &mut Vec<u8>, p: &Pred) {
    let (tag, v) = match p {
        Pred::Eq(v) => (PRED_EQ, v),
        Pred::Ne(v) => (PRED_NE, v),
        Pred::Lt(v) => (PRED_LT, v),
        Pred::Le(v) => (PRED_LE, v),
        Pred::Gt(v) => (PRED_GT, v),
        Pred::Ge(v) => (PRED_GE, v),
        Pred::Between(lo, hi) => {
            out.push(PRED_BETWEEN);
            put_value(out, lo);
            put_value(out, hi);
            return;
        }
        Pred::In(vs) => {
            out.push(PRED_IN);
            put_u32(out, vs.len() as u32);
            for v in vs.iter() {
                put_value(out, v);
            }
            return;
        }
    };
    out.push(tag);
    put_value(out, v);
}

/// Decodes one [`Pred`]. An `In` set is normalised through
/// [`Pred::in_set`], whatever order the sender wrote.
fn take_pred(r: &mut Reader<'_>) -> Result<Pred, WireError> {
    Ok(match r.take_u8()? {
        PRED_EQ => Pred::Eq(take_value(r)?),
        PRED_NE => Pred::Ne(take_value(r)?),
        PRED_LT => Pred::Lt(take_value(r)?),
        PRED_LE => Pred::Le(take_value(r)?),
        PRED_GT => Pred::Gt(take_value(r)?),
        PRED_GE => Pred::Ge(take_value(r)?),
        PRED_BETWEEN => Pred::Between(take_value(r)?, take_value(r)?),
        PRED_IN => {
            let vs: Result<Vec<_>, _> = (0..r.take_u32()?).map(|_| take_value(r)).collect();
            Pred::in_set(vs?)
        }
        t => return Err(WireError::BadTag(t)),
    })
}

/// Appends a [`Pattern`]: the predicate count, then each column index and
/// predicate in ascending column order.
pub fn put_pattern(out: &mut Vec<u8>, p: &Pattern) {
    put_u32(out, p.len() as u32);
    for (c, pred) in p.iter() {
        out.push(c.index() as u8);
        put_pred(out, pred);
    }
}

/// Decodes a [`Pattern`] written by [`put_pattern`].
///
/// # Errors
///
/// [`WireError::BadPattern`] if the columns are not strictly ascending or
/// an index is 64 or more; otherwise as for [`take_value`].
pub fn take_pattern(r: &mut Reader<'_>) -> Result<Pattern, WireError> {
    let mut p = Pattern::new();
    let mut next = 0;
    for _ in 0..r.take_u32()? {
        let c = r.take_u8()?;
        if c < next || c >= 64 {
            return Err(WireError::BadPattern);
        }
        next = c + 1;
        p = p.with(ColId::from_index(c.into()), take_pred(r)?);
    }
    Ok(p)
}

// Op tags 1–6 are also the write-ahead log's record kinds for the same ops.
const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_INSERT_MANY: u8 = 3;
const OP_BULK_LOAD: u8 = 4;
const OP_REMOVE_MANY: u8 = 5;
const OP_MIGRATE: u8 = 6;
const OP_REMOVE_WHERE: u8 = 9;
const OP_UPDATE: u8 = 10;

/// Appends one [`Op`]: a tag byte, then its body — a tuple, a tuple batch
/// ([`put_tuples`]), a pattern, an update's pattern and change tuples, or
/// a migration's let-notation.
pub fn put_op(out: &mut Vec<u8>, op: &Op) {
    out.push(match op {
        Op::Insert(_) => OP_INSERT,
        Op::Remove(_) => OP_REMOVE,
        Op::InsertMany(_) => OP_INSERT_MANY,
        Op::BulkLoad(_) => OP_BULK_LOAD,
        Op::RemoveMany(_) => OP_REMOVE_MANY,
        Op::Migrate(_) => OP_MIGRATE,
        Op::RemoveWhere(_) => OP_REMOVE_WHERE,
        Op::Update { .. } => OP_UPDATE,
    });
    match op {
        Op::Insert(t) | Op::Remove(t) => put_tuple(out, t),
        Op::InsertMany(ts) | Op::BulkLoad(ts) | Op::RemoveMany(ts) => put_tuples(out, ts),
        Op::Migrate(src) => put_str(out, src),
        Op::RemoveWhere(p) => put_pattern(out, p),
        Op::Update { pattern, changes } => {
            put_tuple(out, pattern);
            put_tuple(out, changes);
        }
    }
}

/// Decodes one [`Op`] written by [`put_op`].
///
/// # Errors
///
/// [`WireError::BadTag`] for an unknown tag; otherwise as for the body's
/// decoder.
pub fn take_op(r: &mut Reader<'_>) -> Result<Op, WireError> {
    match r.take_u8()? {
        OP_REMOVE_WHERE => Ok(Op::RemoveWhere(take_pattern(r)?)),
        OP_UPDATE => Ok(Op::Update {
            pattern: take_tuple(r)?,
            changes: take_tuple(r)?,
        }),
        tag => take_logged_op(tag, r),
    }
}

/// Decodes the body of an op tagged `tag`, one of the six the write-ahead
/// log holds (their tags are its record kinds).
///
/// # Errors
///
/// [`WireError::BadTag`] for any other tag — [`Op::RemoveWhere`] and
/// [`Op::Update`]'s included, since the log holds them only lowered.
pub fn take_logged_op(tag: u8, r: &mut Reader<'_>) -> Result<Op, WireError> {
    Ok(match tag {
        OP_INSERT => Op::Insert(take_tuple(r)?),
        OP_REMOVE => Op::Remove(take_tuple(r)?),
        OP_INSERT_MANY => Op::InsertMany(take_tuples(r)?),
        OP_BULK_LOAD => Op::BulkLoad(take_tuples(r)?),
        OP_REMOVE_MANY => Op::RemoveMany(take_tuples(r)?),
        OP_MIGRATE => Op::Migrate(r.take_str()?.to_string()),
        t => return Err(WireError::BadTag(t)),
    })
}

// -- catalog and specification ----------------------------------------------

/// Appends a [`Catalog`]: the column names in id order, so decoding
/// re-interns them to the same [`relic_spec::ColId`]s.
pub fn put_catalog(out: &mut Vec<u8>, cat: &Catalog) {
    put_u32(out, cat.len() as u32);
    for c in cat.all().iter() {
        put_str(out, cat.name(c));
    }
}

/// Decodes a [`Catalog`] written by [`put_catalog`].
///
/// # Errors
///
/// As for [`Reader::take_str`].
pub fn take_catalog(r: &mut Reader<'_>) -> Result<Catalog, WireError> {
    let n = r.take_u32()? as usize;
    let mut cat = Catalog::new();
    for _ in 0..n {
        let name = r.take_str()?;
        cat.try_intern(name).ok_or(WireError::CatalogFull)?;
    }
    Ok(cat)
}

/// Appends a [`RelSpec`]: the column-set bits, then each dependency's
/// determinant and dependent bits.
pub fn put_spec(out: &mut Vec<u8>, spec: &RelSpec) {
    put_u64(out, spec.cols().bits());
    put_u32(out, spec.fds().len() as u32);
    for fd in spec.fds().iter() {
        put_u64(out, fd.lhs.bits());
        put_u64(out, fd.rhs.bits());
    }
}

/// Decodes a [`RelSpec`] written by [`put_spec`].
///
/// # Errors
///
/// [`WireError::Truncated`] on short input.
pub fn take_spec(r: &mut Reader<'_>) -> Result<RelSpec, WireError> {
    let cols = ColSet::from_bits(r.take_u64()?);
    let nfds = r.take_u32()? as usize;
    let mut spec = RelSpec::new(cols);
    for _ in 0..nfds {
        let lhs = ColSet::from_bits(r.take_u64()?) & cols;
        let rhs = ColSet::from_bits(r.take_u64()?) & cols;
        spec = spec.with_fd(lhs, rhs);
    }
    Ok(spec)
}

// -- decomposition identity -------------------------------------------------

/// Appends a decomposition identity: the let-notation rendered against
/// `cat`, which [`take_decomposition`] re-parses.
pub fn put_decomposition(out: &mut Vec<u8>, cat: &Catalog, d: &Decomposition) {
    put_str(out, &d.to_let_notation(cat));
}

/// Decodes a decomposition identity, re-parsing the let-notation against
/// `cat` (whose columns must already be interned — use [`take_catalog`]
/// first).
///
/// # Errors
///
/// [`WireError::Decomposition`] if the notation fails to re-parse.
pub fn take_decomposition(
    r: &mut Reader<'_>,
    cat: &mut Catalog,
) -> Result<Decomposition, WireError> {
    let src = r.take_str()?;
    relic_decomp::parse(cat, src).map_err(|e| WireError::Decomposition(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relic_spec::Catalog;

    #[test]
    fn values_round_trip() {
        let vs = [
            Value::from(true),
            Value::from(false),
            Value::from(0i64),
            Value::from(i64::MIN),
            Value::from(i64::MAX),
            Value::from(""),
            Value::from("héllo ⟨world⟩"),
        ];
        let mut buf = Vec::new();
        for v in &vs {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vs {
            assert_eq!(&take_value(&mut r).unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn tuples_round_trip() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let t = Tuple::from_pairs([(a, Value::from(3)), (b, Value::from("x"))]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        put_tuple(&mut buf, &Tuple::empty());
        let mut r = Reader::new(&buf);
        assert_eq!(take_tuple(&mut r).unwrap(), t);
        assert_eq!(take_tuple(&mut r).unwrap(), Tuple::empty());
        assert!(r.is_empty());
        let mut buf = Vec::new();
        put_tuples(&mut buf, &[t.clone(), t.clone()]);
        let mut r = Reader::new(&buf);
        assert_eq!(take_tuples(&mut r).unwrap(), vec![t.clone(), t]);
    }

    #[test]
    fn bindings_encode_as_the_tuple_they_project_to() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let b = cat.intern("b");
        let c = cat.intern("c");
        let t = Tuple::from_pairs([
            (a, Value::from(3)),
            (b, Value::from("x")),
            (c, Value::from(true)),
        ]);
        let mut scratch = Bindings::new();
        scratch.load(t.iter());
        for cols in [a | b | c, a | c, b.set(), ColSet::EMPTY] {
            let (mut streamed, mut built) = (Vec::new(), Vec::new());
            put_bindings(&mut streamed, &scratch, cols);
            put_tuple(&mut built, &scratch.project(cols));
            assert_eq!(streamed, built);
            assert_eq!(streamed.len(), row_len(t.project(cols).values()));
            assert_eq!(
                take_tuple(&mut Reader::new(&streamed)).unwrap(),
                t.project(cols)
            );
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut cat = Catalog::new();
        let a = cat.intern("a");
        let t = Tuple::from_pairs([(a, Value::from("payload"))]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                take_tuple(&mut r).is_err(),
                "decoding a {cut}-byte prefix must fail cleanly"
            );
        }
        assert!(matches!(
            take_value(&mut Reader::new(&[9])),
            Err(WireError::BadTag(9))
        ));
    }

    #[test]
    fn bytes_round_trip_and_trailing_is_typed() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"frame");
        put_bytes(&mut buf, b"");
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_bytes().unwrap(), b"frame");
        assert_eq!(r.take_bytes().unwrap(), b"");
        assert!(r.expect_end().is_ok());
        buf.push(0xEE);
        let mut r = Reader::new(&buf);
        r.take_bytes().unwrap();
        r.take_bytes().unwrap();
        assert!(matches!(
            r.expect_end(),
            Err(WireError::Trailing { remaining: 1 })
        ));
        assert!(matches!(
            Reader::new(&[3, 0, 0, 0, b'a']).take_bytes(),
            Err(WireError::Truncated)
        ));
    }

    fn sample_ops(cat: &mut Catalog) -> Vec<Op> {
        let a = cat.intern("a");
        let b = cat.intern("b");
        let t = |x: i64| Tuple::from_pairs([(a, Value::from(x)), (b, Value::from("y"))]);
        vec![
            Op::Insert(t(1)),
            Op::InsertMany(vec![t(1), t(2)]),
            Op::BulkLoad(vec![]),
            Op::Remove(Tuple::from_pairs([(a, Value::from(1))])),
            Op::RemoveMany(vec![t(3), Tuple::empty()]),
            Op::RemoveWhere(
                Pattern::new()
                    .with(a, Pred::Between(Value::from(1), Value::from(9)))
                    .with(b, Pred::Ne(Value::from("z"))),
            ),
            Op::RemoveWhere(Pattern::new()),
            Op::Update {
                pattern: Tuple::from_pairs([(a, Value::from(1))]),
                changes: Tuple::from_pairs([(b, Value::from("w"))]),
            },
            Op::Migrate("let u : {a} . {b} = unit {b} in u".to_string()),
        ]
    }

    #[test]
    fn every_op_and_pred_round_trips() {
        let mut cat = Catalog::new();
        let ops = sample_ops(&mut cat);
        for op in &ops {
            let mut buf = Vec::new();
            put_op(&mut buf, op);
            let mut r = Reader::new(&buf);
            assert_eq!(&take_op(&mut r).unwrap(), op);
            assert!(r.is_empty());
            for cut in 0..buf.len() {
                assert!(take_op(&mut Reader::new(&buf[..cut])).is_err());
            }
        }
        let preds = [
            Pred::Eq(Value::from(1)),
            Pred::Ne(Value::from("x")),
            Pred::Lt(Value::from(true)),
            Pred::Le(Value::from(-3)),
            Pred::Gt(Value::from(i64::MAX)),
            Pred::Ge(Value::from("")),
            Pred::Between(Value::from(2), Value::from(5)),
            Pred::in_set([Value::from(3), Value::from(1)]),
            Pred::in_set([]),
        ];
        for p in &preds {
            let mut buf = Vec::new();
            put_pred(&mut buf, p);
            assert_eq!(&take_pred(&mut Reader::new(&buf)).unwrap(), p);
        }
        assert!(matches!(
            take_op(&mut Reader::new(&[7])),
            Err(WireError::BadTag(7))
        ));
        assert!(matches!(
            take_pred(&mut Reader::new(&[8])),
            Err(WireError::BadTag(8))
        ));
    }

    #[test]
    fn pattern_decode_checks_columns_and_normalises_in_sets() {
        let eq = |c: u8| {
            let mut b = vec![c, PRED_EQ];
            put_value(&mut b, &Value::from(1));
            b
        };
        let pattern = |cols: &[u8]| {
            let mut buf = Vec::new();
            put_u32(&mut buf, cols.len() as u32);
            for &c in cols {
                buf.extend(eq(c));
            }
            buf
        };
        assert_eq!(
            take_pattern(&mut Reader::new(&pattern(&[0, 5, 63])))
                .unwrap()
                .len(),
            3
        );
        for bad in [&[3u8, 1][..], &[2, 2], &[64], &[0, 200]] {
            assert!(
                matches!(
                    take_pattern(&mut Reader::new(&pattern(bad))),
                    Err(WireError::BadPattern)
                ),
                "{bad:?}"
            );
        }
        // An unsorted, repeated `In` set decodes as the set `in_set` builds.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        buf.extend([4, PRED_IN]);
        put_u32(&mut buf, 3);
        for v in [9, 2, 9] {
            put_value(&mut buf, &Value::from(v));
        }
        let p = take_pattern(&mut Reader::new(&buf)).unwrap();
        assert_eq!(
            p.pred(ColId::from_index(4)),
            Some(&Pred::in_set([Value::from(2), Value::from(9)]))
        );
    }

    #[test]
    fn catalog_and_spec_round_trip() {
        let mut cat = Catalog::new();
        let a = cat.intern("alpha");
        let b = cat.intern("beta");
        let v = cat.intern("val");
        let spec = RelSpec::new(a | b | v).with_fd(a | b, v.set());
        let mut buf = Vec::new();
        put_catalog(&mut buf, &cat);
        put_spec(&mut buf, &spec);
        let mut r = Reader::new(&buf);
        let cat2 = take_catalog(&mut r).unwrap();
        let spec2 = take_spec(&mut r).unwrap();
        assert_eq!(cat2.col("alpha"), Some(a));
        assert_eq!(cat2.col("beta"), Some(b));
        assert_eq!(cat2.col("val"), Some(v));
        assert_eq!(spec2, spec);
    }

    #[test]
    fn decomposition_identity_round_trips_through_let_notation() {
        // The paper's Fig. 2 join shape: shared leaf, two paths, four edge
        // kinds — the hardest identity to reproduce.
        let mut cat = Catalog::new();
        let d = relic_decomp::parse(
            &mut cat,
            "let w : {ns,pid,state} . {cpu} = unit {cpu} in
             let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
             let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
             let x : {} . {ns,pid,state,cpu} =
               ({ns} -[htable]-> y) join ({state} -[vec]-> z) in x",
        )
        .unwrap();
        let mut buf = Vec::new();
        put_catalog(&mut buf, &cat);
        put_decomposition(&mut buf, &cat, &d);
        let mut r = Reader::new(&buf);
        let mut cat2 = take_catalog(&mut r).unwrap();
        let d2 = take_decomposition(&mut r, &mut cat2).unwrap();
        assert_eq!(d2, d, "decomposition identity must round-trip exactly");
        assert_eq!(cat2.all(), cat.all());
    }
}
