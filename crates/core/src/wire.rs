//! Wire serialization for durable relations: a small, explicit byte format
//! for [`Value`]s, [`Tuple`]s, [`RelSpec`]s, [`Catalog`]s and decomposition
//! identities, used by `relic_persist`'s write-ahead log and checkpoint
//! files.
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
use relic_decomp::Decomposition;
use relic_spec::{Catalog, ColSet, RelSpec, Tuple, Value};
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

/// Appends one [`Tuple`]: its domain bits, then the values in ascending
/// column order.
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u64(out, t.dom().bits());
    for v in t.values() {
        put_value(out, v);
    }
}

/// Appends `b`'s valuation of `cols` in [`put_tuple`]'s format — byte for
/// byte what `put_tuple(out, &b.project(cols))` writes, without building
/// the tuple. This is how a streaming scan serializes the tuples it emits
/// ([`take_tuple`] reads them back).
pub fn put_bindings(out: &mut Vec<u8>, b: &Bindings, cols: ColSet) {
    let keep = b.dom() & cols;
    put_u64(out, keep.bits());
    for v in keep.iter().filter_map(|c| b.get(c)) {
        put_value(out, v);
    }
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
        cat.intern(name);
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
