//! Summaries of repeated host measurements and exact sample percentiles.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Spread {
    /// Quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, so the numbers printed here
    /// match the ones a Python script computes from the same values.
    /// An empty sample yields zeros; a single value is its own quartiles.
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Spread { q1: x, median: x, q3: x, n };
        }
        let m = n as i64 + 1;
        let cut = |i: i64| {
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Spread { q1: cut(1), median, q3: cut(3), n }
    }
}

/// The `k` largest of `values` (all of them if there are fewer), in no
/// particular order. Reorders `values`.
pub fn largest(values: &mut [u32], k: usize) -> &[u32] {
    let n = values.len();
    if k == 0 || k >= n {
        return &values[n - k.min(n)..];
    }
    values.select_nth_unstable(n - k);
    &values[n - k..]
}

/// Exact nearest-rank percentile `p` (0..=100), by the repository's single
/// rank definition ([`rolp_metrics::rank_of`]), of a sample of `n` values
/// known only by its largest ones, `top`, in descending order. `None` when
/// the rank falls below the values given; 0 when `n` is 0.
pub fn percentile_of_top(n: u64, top: &[u32], p: f64) -> Option<u32> {
    if n == 0 {
        return Some(0);
    }
    let from_top = n - rolp_metrics::rank_of(p / 100.0, n);
    top.get(from_top as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_of_pooled_tops_is_nearest_rank() {
        // Values 1..=1000 dealt into three samples, so the value at a
        // pooled rank is the rank itself.
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for v in 1..=1000u32 {
            parts[(v * 7 % 3) as usize].push(v);
        }
        let mut top: Vec<u32> = parts.iter_mut().flat_map(|p| largest(p, 40).to_vec()).collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(top.len(), 120);
        for p in [90.0, 95.0, 99.9, 99.99, 100.0] {
            let rank = rolp_metrics::rank_of(p / 100.0, 1000);
            assert_eq!(percentile_of_top(1000, &top, p).map(u64::from), Some(rank), "p{p}");
        }
        assert_eq!(percentile_of_top(1000, &top, 50.0), None);
        assert_eq!(percentile_of_top(0, &[], 50.0), Some(0));
        assert_eq!(largest(&mut [3, 1, 2], 5).len(), 3);
        assert!(largest(&mut [3, 1, 2], 0).is_empty());
    }
}
