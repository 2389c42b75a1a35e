//! Order statistics the end-to-end metrics are built from.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail latency: the value at the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile the rank stands for, `100 * (n - 10) / n`.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the `(n - 10)`-th smallest sample, so exactly ten samples rank above
/// it. `None` when there are too few samples for any such percentile.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// Geometric mean of positive values; `None` if empty or any is not > 0.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Where a sample sits for the drift comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fifth {
    First,
    Middle,
    Last,
}

/// The drift window of cycle `c` (0-based) of `total`: the first and last
/// fifth of the cycles, each rounded up to at least one whole cycle, so
/// both windows hold whole cycles of the statement mix.
pub fn fifth(c: u64, total: u64) -> Fifth {
    let k = total.div_ceil(5).max(1);
    if c < k {
        Fifth::First
    } else if c + k >= total {
        Fifth::Last
    } else {
        Fifth::Middle
    }
}

/// Latency drift of one statement class: the median latency of samples
/// in the last fifth over the median of those in the first fifth. `None`
/// when either window is empty.
pub fn drift(samples: &[(Fifth, f64)]) -> Option<f64> {
    let window =
        |f: Fifth| -> Vec<f64> { samples.iter().filter(|s| s.0 == f).map(|s| s.1).collect() };
    Some(median(&window(Fifth::Last))? / median(&window(Fifth::First))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Too few: no percentile has ten samples above it.
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: the smallest one has exactly ten above it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        // 100 samples 1..=100: p90 with 91..=100 beyond.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let beyond = hundred.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // 1000 samples: p99 with ten beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        // Scaling one class by k scales the geomean by k^(1/n).
        let g = geomean(&[1.0, 1.0, 1.0, 16.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn drift_compares_last_fifth_to_first() {
        let s: Vec<(Fifth, f64)> = (0..100)
            .map(|i| (fifth(i, 100), if i < 50 { 5.0 } else { 15.0 }))
            .collect();
        assert_eq!(drift(&s), Some(3.0));
        assert_eq!(drift(&[(Fifth::Middle, 1.0)]), None);
    }

    #[test]
    fn fifths_hold_whole_cycles() {
        // 100 cycles: 20 in each outer window.
        let n = |f| (0..100).filter(|&c| fifth(c, 100) == f).count();
        assert_eq!((n(Fifth::First), n(Fifth::Last)), (20, 20));
        // Too few cycles for fifths: one whole cycle per window.
        assert_eq!(fifth(0, 2), Fifth::First);
        assert_eq!(fifth(1, 2), Fifth::Last);
        assert_eq!(fifth(0, 6), Fifth::First);
        assert_eq!(fifth(1, 6), Fifth::First);
        assert_eq!(fifth(4, 6), Fifth::Last);
        assert_eq!(fifth(3, 6), Fifth::Middle);
        // One cycle cannot show drift.
        assert_eq!(fifth(0, 1), Fifth::First);
    }
}
