//! Order statistics the benchmark reports: medians, the tail percentile
//! chosen by sample count, and FNV-1a fingerprints of output bytes.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` (`p` in 0..=100). `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The highest of [`TAIL_CANDIDATES`] that leaves at least
/// [`MIN_BEYOND`] samples strictly above its rank, for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        n >= rank + MIN_BEYOND
    })
}

/// A tail figure: the value, the percentile it was read at (`None`
/// means too few samples for any candidate, so the maximum is reported)
/// and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: Option<f64>,
    pub samples: usize,
}

impl Tail {
    /// Reads the tail of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Tail> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let last = *sorted.last()?;
        let percentile = tail_percentile(sorted.len());
        Some(Tail {
            value: percentile.map_or(last, |p| percentile_sorted(&sorted, p)),
            percentile,
            samples: sorted.len(),
        })
    }

    /// `p99`, `p75`, … or `max` for the label printed beside the value.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p}"),
            None => "max".to_owned(),
        }
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fingerprint of one byte string.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a(FNV_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 1000 samples: rank of p99 is 990, leaving exactly 10 above.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples leave only 9 above p99's rank (990), but p95
        // (rank 950) leaves 49.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        // Fewer than 20 samples: no candidate qualifies.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_reads_the_chosen_rank_or_falls_back_to_the_maximum() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = Tail::of(&values).unwrap();
        assert_eq!(tail.percentile, Some(99.0));
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.label(), "p99");
        assert_eq!(values.iter().filter(|&&v| v > tail.value).count(), 10);

        let few = [3.0, 1.0, 2.0];
        let tail = Tail::of(&few).unwrap();
        assert_eq!((tail.percentile, tail.value, tail.samples), (None, 3.0, 3));
        assert_eq!(tail.label(), "max");
        assert!(Tail::of(&[]).is_none());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fingerprints_are_fnv1a() {
        assert_eq!(fingerprint(b""), FNV_BASIS);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fingerprint(b"ab"), b"c"), fingerprint(b"abc"));
    }
}
