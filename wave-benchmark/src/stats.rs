//! Order statistics for the benchmark: per-run percentiles, the
//! across-run medians and quartiles, and the parent-versus-change
//! comparison the `compare` subcommand prints.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice;
/// `0.0` for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank `q`-quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Blocks a window of samples is cut into by [`quiet_block`]: at 20 s
/// a block lasts under half a second, shorter than most bursts of host
/// noise seen on the 2-vCPU guest the bounds were calibrated on.
const BLOCKS: usize = 50;
/// Fewest samples in a block; shorter windows get fewer blocks.
const MIN_BLOCK: usize = 10;
/// Share of the blocks, the quietest, that [`quiet_block`] reads.
const QUIET: f64 = 0.1;

/// A statistic of a window of samples, taken in order, read in the
/// quietest tenth of the window: the window is cut into up to
/// [`BLOCKS`] consecutive blocks of at least [`MIN_BLOCK`] samples, and
/// the result is the block value that a tenth of the blocks match or
/// beat (`higher_is_better` says which way). Host noise only ever
/// slows a block, so noise over up to nine tenths of the window moves
/// none of it, while a change to the program moves every block.
pub fn quiet_block(samples: &[f64], stat: impl Fn(&[f64]) -> f64, higher_is_better: bool) -> f64 {
    let blocks = (samples.len() / MIN_BLOCK).clamp(1, BLOCKS);
    let size = samples.len() / blocks;
    let mut values: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * size
            };
            stat(&samples[b * size..end])
        })
        .collect();
    values.sort_by(|a, b| {
        if higher_is_better {
            b.total_cmp(a)
        } else {
            a.total_cmp(b)
        }
    });
    percentile(&values, QUIET)
}

/// The [`quiet_block`] of the `q`-quantile: how the end-to-end latency
/// metrics read a window.
pub fn quiet_quantile(samples: &[f64], q: f64) -> f64 {
    quiet_block(samples, |b| quantile(b, q), false)
}

/// The median of unsorted values (mean of the middle pair for an even
/// count); `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of unsorted values, by the same
/// "exclusive" interpolation as Python's `statistics.quantiles(values,
/// n=4)`, so spreads printed here match a check done in Python. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The run-to-run spread of a metric: interquartile distance as a share
/// of the median (`None` below two values or at a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The percentiles a report may name, highest first.
const REPORTABLE: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest reportable percentile that leaves at least ten samples
/// beyond it: a tail percentile resting on fewer is a single outlier.
pub fn highest_supported(samples: usize) -> Option<f64> {
    REPORTABLE
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Whether a metric regressed: `better` is `"lower"` or `"higher"`,
/// `bound` the tolerated share of the base median.
pub fn within_bound(base: f64, change: f64, better: &str, bound: f64) -> bool {
    let slack = base.abs() * bound;
    match better {
        "higher" => change >= base - slack,
        _ => change <= base + slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_block_ignores_a_slowdown_over_most_of_the_window() {
        // 80% of the window three times slower: the whole-window median
        // reads the slow phase, the quietest tenth of the blocks does not.
        let v: Vec<f64> = (0..5000)
            .map(|i| if i < 1000 { 100.0 } else { 300.0 })
            .collect();
        assert_eq!(quantile(&v, 0.5), 300.0);
        assert_eq!(quiet_quantile(&v, 0.9), 100.0);
        let rate = |b: &[f64]| 1e6 * b.len() as f64 / b.iter().sum::<f64>();
        assert_eq!(quiet_block(&v, rate, true), 1e4);
        // 25 samples make two blocks, of 12 and 13.
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(quiet_block(&v, |b| b.len() as f64, false), 12.0);
        assert_eq!(quiet_block(&v, |b| b.len() as f64, true), 13.0);
        assert_eq!(quiet_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn bounds_respect_the_direction() {
        assert!(within_bound(100.0, 109.0, "lower", 0.1));
        assert!(!within_bound(100.0, 111.0, "lower", 0.1));
        assert!(within_bound(100.0, 50.0, "lower", 0.1));
        assert!(within_bound(100.0, 91.0, "higher", 0.1));
        assert!(!within_bound(100.0, 89.0, "higher", 0.1));
        assert!(within_bound(100.0, 100.0, "lower", 0.0));
    }
}
