//! Sample summaries: median, quartiles, extremes and the sample count.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads printed here match
//! the ones computed over a set of benchmark runs.

/// Order statistics of one metric's per-repetition samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest percentile with at least ten samples above it, as
    /// `(percent, value)`; `None` below eleven samples.
    pub tail: Option<(usize, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        let n = sorted.len();
        let tail = n
            .checked_sub(10)
            .filter(|&rank| rank > 0)
            .map(|rank| (100 * rank / n, sorted[rank - 1]));
        Some(Summary {
            n,
            min,
            q1,
            median,
            q3,
            max,
            tail,
        })
    }

    /// One-line rendering: `n=.. min=.. q1=.. median=.. q3=.. [pNN=..] max=..`.
    pub fn line(&self) -> String {
        let tail = self.tail.map_or(String::new(), |(percent, value)| {
            format!(" p{percent}={value}")
        });
        format!(
            "n={} min={} q1={} median={} q3={}{tail} max={}",
            self.n, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// Python's exclusive-method quartiles of an ascending, non-empty slice.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max, s.tail), (10, 1.0, 10.0, None));
        // 40 samples: rank 30 has ten samples above it, the 75th percentile.
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.tail, Some((75, 30.0)));
        assert!(s.line().contains(" p75=30 "));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (2, 0.75, 1.5, 2.25));
    }

    #[test]
    fn single_and_empty_samples() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 4.0, 4.0, 4.0, 4.0, 4.0)
        );
        assert!(Summary::of(&[]).is_none());
        assert!(s.line().starts_with("n=1 "));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
