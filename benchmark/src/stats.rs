//! Order statistics for timing samples: median, spread, and tail
//! percentiles chosen by how many samples support them.

/// Sorts in place and returns the median (mean of the two middle values for
/// an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample — both are bugs in the caller.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    sort(xs);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let m = median(&mut v);
    let mut dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&mut dev)
}

pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Nearest-rank percentile of an ascending slice, `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it, or `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in how many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n / one_in >= 10)
    .map(|(p, _)| p)
}

/// What one metric's repeated samples boil down to: the value reported
/// (their median, unless built by [`Summary::fast`]) and their spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        let value = median(&mut v);
        Summary {
            value,
            min: v[0],
            max: v[v.len() - 1],
            mad: mad(&v),
            n: v.len(),
        }
    }

    /// The quartile on the fast side of timing samples: the 25th percentile
    /// of durations, the 75th of rates (`higher_is_faster`).
    ///
    /// What a neighbour on the machine takes away only ever slows a sample
    /// down, so the fast quartile sits closer to the program's own speed than
    /// the median does and repeats better from run to run; unlike the minimum
    /// it still needs a quarter of the samples to agree.
    ///
    /// The fast quartile is, near enough, the median of the faster half of
    /// the samples, so the MAD recorded beside it is that half's: the slow
    /// half's scatter says how busy the machine was, not how well the value
    /// is known. min, max and n are those of all the samples.
    pub fn fast(samples: &[f64], higher_is_faster: bool) -> Summary {
        let mut v = samples.to_vec();
        sort(&mut v);
        let n = v.len();
        let (value, fast_half) = if higher_is_faster {
            (percentile(&v, 75.0), &v[n / 2..])
        } else {
            (percentile(&v, 25.0), &v[..n.div_ceil(2)])
        };
        Summary {
            value,
            min: v[0],
            max: v[n - 1],
            mad: mad(fast_half),
            n,
        }
    }

    /// A value that was measured once (a count, a size).
    pub fn single(x: f64) -> Summary {
        Summary {
            value: x,
            min: x,
            max: x,
            mad: 0.0,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn mad_is_the_median_distance_from_the_median() {
        // median 3; distances 2,1,0,1,97 -> sorted 0,1,1,2,97 -> 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_records_the_range_and_the_mad() {
        let s = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!(
            (s.value, s.min, s.max, s.mad, s.n),
            (11.0, 10.0, 12.0, 1.0, 3)
        );
        assert_eq!(Summary::single(3.0).mad, 0.0);
    }

    #[test]
    fn the_fast_quartile_is_low_for_durations_and_high_for_rates() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(Summary::fast(&v, false).value, 2.0);
        assert_eq!(Summary::fast(&v, true).value, 6.0);
        assert_eq!(Summary::fast(&[5.0], true).value, 5.0);
        // The MAD is the fast half's: 1..=4 and 5..=8 both scatter by 1.
        assert_eq!(Summary::fast(&v, false).mad, 1.0);
        assert_eq!(Summary::fast(&v, true).mad, 1.0);
        assert_eq!(Summary::of(&v).mad, 2.0);
        let with_outliers = [1.0, 1.1, 0.9, 1.0, 9.0, 30.0];
        assert!(Summary::fast(&with_outliers, false).mad < 0.11);
        assert_eq!(Summary::fast(&with_outliers, false).max, 30.0);
    }
}
