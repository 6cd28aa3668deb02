//! The slicing-by-8 `crc32` is the same function as the bytewise IEEE
//! CRC-32 it replaced: every digest written to a log, checkpoint, replica
//! or socket frame before the change still verifies after it. The bytewise
//! loop lives on only here, as the reference.

use relic_persist::{crc32, Crc32};

/// The bytewise IEEE CRC-32 (reflected, polynomial `0xEDB88320`), one
/// table lookup per byte — the implementation `crc32` used to be.
fn reference(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Deterministic pseudo-random bytes (xorshift64*).
fn noise(len: usize, mut seed: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn the_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn every_short_length_at_every_alignment_matches_the_reference() {
    let buf = noise(64 + 8, 7);
    for start in 0..8 {
        for len in 0..=64 {
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), reference(s), "start {start}, len {len}");
        }
    }
}

#[test]
fn a_random_mebibyte_matches_the_reference() {
    let buf = noise(1 << 20, 0x9E37_79B9_7F4A_7C15);
    assert_eq!(crc32(&buf), reference(&buf));
    // Constant runs exercise the tables at their extremes.
    for fill in [0x00, 0xFF] {
        let buf = vec![fill; (1 << 20) + 5];
        assert_eq!(crc32(&buf), reference(&buf), "fill {fill:#x}");
    }
}

#[test]
fn an_incremental_digest_split_anywhere_equals_the_one_shot() {
    let buf = noise(100, 23);
    let whole = crc32(&buf);
    assert_eq!(whole, reference(&buf));
    for split in 0..=buf.len() {
        let mut c = Crc32::new();
        c.update(&buf[..split]);
        c.update(&buf[split..]);
        assert_eq!(c.finish(), whole, "split at {split}");
    }
    // And fed a byte at a time (all tail, no eight-byte step).
    let mut c = Crc32::default();
    for b in &buf {
        c.update(std::slice::from_ref(b));
    }
    assert_eq!(c.finish(), whole);
}
