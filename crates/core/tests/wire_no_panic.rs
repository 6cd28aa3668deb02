//! Wire decoders on arbitrary bytes: every outcome is `Ok` or a typed
//! [`WireError`] — never a panic. The network path (`relic_server`,
//! replication) hands checksummed-but-untrusted payloads to these
//! decoders, so "no panic on garbage" is a load-bearing property, not a
//! nicety.

use proptest::prelude::*;
use relic_core::netmsg::NetRequest;
use relic_core::wire::{
    take_catalog, take_decomposition, take_op, take_pattern, take_spec, take_tuple, take_tuples,
    take_value, Reader,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every decoder consumes arbitrary bytes without panicking.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
    ) {
        let _ = take_value(&mut Reader::new(&bytes));
        let _ = take_tuple(&mut Reader::new(&bytes));
        let _ = take_tuples(&mut Reader::new(&bytes));
        let _ = take_catalog(&mut Reader::new(&bytes));
        let _ = take_spec(&mut Reader::new(&bytes));
        let mut cat = relic_spec::Catalog::new();
        let _ = take_decomposition(&mut Reader::new(&bytes), &mut cat);
        let _ = take_pattern(&mut Reader::new(&bytes));
        let _ = take_op(&mut Reader::new(&bytes));
    }

    /// A served `Apply` request (tag 8) with an arbitrary op body decodes
    /// or fails typed; so does every op tag with an arbitrary body.
    #[test]
    fn apply_requests_never_panic(
        tag in 0u8..12,
        body in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
    ) {
        let mut req = vec![8, tag];
        req.extend_from_slice(&body);
        let _ = NetRequest::decode(&req);
        let _ = take_op(&mut Reader::new(&req[1..]));
    }

    /// Truncating a valid tuple encoding at any point yields a typed
    /// error, not a panic — decoders on prefixes of real data are how a
    /// torn frame actually looks.
    #[test]
    fn truncated_tuple_encodings_fail_typed(
        vals in proptest::collection::vec(proptest::arbitrary::any::<i64>(), 1..5),
        cut_seed in proptest::arbitrary::any::<usize>(),
    ) {
        use relic_spec::{ColSet, Tuple, Value};
        let cols = ColSet::from_bits((1u64 << vals.len()) - 1);
        let t = Tuple::from_parts(cols, vals.into_iter().map(Value::from).collect());
        let mut buf = Vec::new();
        relic_core::wire::put_tuple(&mut buf, &t);
        let cut = cut_seed % buf.len();
        prop_assert!(take_tuple(&mut Reader::new(&buf[..cut])).is_err());
    }
}
