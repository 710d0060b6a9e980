//! Exact order statistics over raw samples.
//!
//! Every reported percentile is a nearest-rank percentile of the samples
//! the run actually collected — never a histogram bucket edge — so no
//! quantile can exceed the observed maximum.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`: the
/// smallest sample such that at least `q` of all samples are at or below
/// it, i.e. element `ceil(q * n)` in 1-based rank.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (nearest rank), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(nearest_rank(&v, 0.5))
}

/// Summary of one timing: sample count, extremes and the two reported
/// percentiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    ///
    /// # Panics
    ///
    /// Panics if the order `min <= p50 <= p90 <= max` fails, which would
    /// mean a broken percentile, or if a sample is NaN.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let s = Summary {
            n: v.len(),
            min: v[0],
            p50: nearest_rank(&v, 0.5),
            p90: nearest_rank(&v, 0.9),
            max: v[v.len() - 1],
        };
        assert!(
            s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.max,
            "percentile order broken: {s:?}"
        );
        Some(s)
    }

    /// Samples strictly above the p90 rank: the support behind the p90.
    pub fn beyond_p90(&self) -> usize {
        self.n - (0.9 * self.n as f64).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.01), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        // 100 samples: the p90 is the 90th, with exactly 10 beyond it.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 0.9), 90.0);
        assert_eq!(Summary::of(&w).unwrap().beyond_p90(), 10);
    }

    #[test]
    fn summary_is_ordered_and_exact() {
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!((s.min, s.p50, s.p90, s.max), (1.0, 3.0, 9.0, 9.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[2.0, 9.0, 1.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
