//! Seeded input generators. `--seed` reaches the program only through what
//! these produce; none of them reads a clock or any other ambient state, so
//! the same seed gives the same inputs.

/// SplitMix64: small, fast, and good enough to draw benchmark keys from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below what a benchmark
    /// key distribution can notice).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` (rank 0 most popular): a precomputed CDF
/// searched by bisection.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// A packet: `(local host, remote host, length in bytes)`, the shape of
/// `relic_systems::ipcap::Packet`.
pub type Packet = (i64, i64, i64);

/// A Zipf(1.1)-skewed packet trace over `locals x remotes` host pairs with
/// lengths in `40..=1500`.
pub fn packet_trace(packets: usize, locals: usize, remotes: usize, seed: u64) -> Vec<Packet> {
    let mut rng = Rng::new(seed);
    let (zl, zr) = (Zipf::new(locals, 1.1), Zipf::new(remotes, 1.1));
    (0..packets)
        .map(|_| {
            (
                zl.sample(&mut rng) as i64,
                zr.sample(&mut rng) as i64,
                40 + rng.below(1461) as i64,
            )
        })
        .collect()
}

/// One stored flow: `(local, remote, bytes, pkts)`.
pub type Flow = (i64, i64, i64, i64);

/// The dense flow table `locals x remotes` with seed-dependent counters:
/// every `(local, remote)` pair is present exactly once, so a point lookup
/// always hits, a `remote between a and a+63` range returns 64 rows and a
/// per-`local` scan returns `remotes` rows, whatever the seed.
pub fn dense_flows(locals: usize, remotes: usize, seed: u64) -> Vec<Flow> {
    let mut out = Vec::with_capacity(locals * remotes);
    for l in 0..locals as i64 {
        for r in 0..remotes as i64 {
            out.push(flow_at(l, r, seed));
        }
    }
    out
}

/// The counters [`dense_flows`] stores for one pair.
pub fn flow_at(l: i64, r: i64, seed: u64) -> Flow {
    let h = Rng::new(seed ^ ((l as u64) << 32) ^ r as u64).next_u64();
    (
        l,
        r,
        40 + (h % 1_000_000) as i64,
        1 + ((h >> 32) % 1_000) as i64,
    )
}

/// What a query's rows fold into, one row at a time: a count plus the two
/// counters. The fold is a wrapping sum, so the order of the rows does not
/// matter and the folds of several queries add up; equal folds mean equal row
/// multisets for all practical purposes.
#[inline]
pub fn fold(acc: u64, bytes: i64, pkts: i64) -> u64 {
    acc.wrapping_add(1 + bytes as u64 + (pkts as u64).wrapping_mul(1_000_003))
}

/// What the rows `remotes` of `local` in [`dense_flows`] fold to, from the
/// generator alone.
pub fn expected_fold(local: i64, remotes: std::ops::Range<i64>, seed: u64) -> u64 {
    remotes.fold(0, |acc, r| {
        let (_, _, b, p) = flow_at(local, r, seed);
        fold(acc, b, p)
    })
}

/// FNV-1a over a stream of words; the unit tests use it to pin generator
/// determinism.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    #[cfg(test)]
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn push_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(512, 1.1);
        let mut rng = Rng::new(7);
        let mut counts = vec![0usize; 512];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[200]);
        assert_eq!(counts.iter().sum::<usize>(), 50_000);
    }

    #[test]
    fn packet_trace_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(
            packet_trace(1000, 64, 512, 11),
            packet_trace(1000, 64, 512, 11)
        );
        assert_ne!(
            packet_trace(1000, 64, 512, 11),
            packet_trace(1000, 64, 512, 12)
        );
        assert!(packet_trace(1000, 64, 512, 11)
            .iter()
            .all(|&(l, r, len)| (0..64).contains(&l)
                && (0..512).contains(&r)
                && (40..=1500).contains(&len)));
    }

    #[test]
    fn dense_flows_hold_every_pair_once() {
        let f = dense_flows(4, 8, 3);
        assert_eq!(f.len(), 32);
        assert_eq!(f[9], flow_at(1, 1, 3));
        assert_ne!(flow_at(1, 1, 3), flow_at(1, 1, 4));
    }
}
