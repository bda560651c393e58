//! Order statistics over raw timing samples.
//!
//! Every percentile the benchmark reports comes from sorted raw
//! samples, never from the program's power-of-two histogram buckets. A
//! tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, the tail is noise and the helper refuses.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorted samples of one timed quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration or size).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` (0 < p < 100): the value at 1-based
    /// rank `ceil(p/100 · n)`. Refuses (`None`) when fewer than
    /// [`MIN_BEYOND`] samples lie beyond that rank, or there are none.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || !(0.0..100.0).contains(&p) {
            return None;
        }
        // The epsilon absorbs binary rounding of p·n (99.9 · 10 000).
        let rank = ((p * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize;
        if n - rank < MIN_BEYOND && p > 50.0 {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// The median (nearest rank). A median always has half the samples
    /// beyond it, so only an empty set is refused.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0).then(|| self.sorted[n.div_ceil(2) - 1])
    }

    /// The highest of 99.9, 99, 90 that has at least [`MIN_BEYOND`]
    /// samples beyond it, with its value.
    pub fn highest_tail(&self) -> Option<(f64, f64)> {
        [99.9, 99.0, 90.0]
            .into_iter()
            .find_map(|p| self.percentile(p).map(|v| (p, v)))
    }

    /// [`Samples::median`], or an error naming `what`.
    pub fn need_median(&self, what: &str) -> Result<f64, String> {
        self.median().ok_or_else(|| format!("{what}: no samples"))
    }

    /// [`Samples::percentile`], or an error naming `what` when refused.
    pub fn need_percentile(&self, p: f64, what: &str) -> Result<f64, String> {
        self.percentile(p).ok_or_else(|| {
            format!(
                "{what}: {} samples are too few for a p{p} with {MIN_BEYOND} beyond",
                self.len()
            )
        })
    }

    /// Arithmetic mean (0 for no samples).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// One-line summary for the run log: median, highest tail, count.
    pub fn describe(&self, unit: &str) -> String {
        match (self.median(), self.highest_tail()) {
            (Some(m), Some((p, v))) => {
                format!("p50 {m:.4} {unit}, p{p} {v:.4} {unit}, n={}", self.len())
            }
            (Some(m), None) => format!("p50 {m:.4} {unit}, no tail, n={}", self.len()),
            _ => "no samples".to_string(),
        }
    }
}

/// Median of a small set of repeated measurements (set-up times).
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

/// The median of each run of `slice` consecutive samples (the last run
/// may be shorter), in order.
pub fn slice_medians(values: &[f64], slice: usize) -> Vec<f64> {
    values
        .chunks(slice.max(1))
        .filter_map(|c| Samples::new(c.to_vec()).median())
        .collect()
}

/// A typical sample's value over a whole run on a shared host: the
/// mean over slices of each slice's median.
///
/// The host alternates between a quiet and a contended state that
/// lasts seconds to minutes (a neighbour's memory traffic moves a
/// simulator epoch between about 2.4 and 4 ms). A median pooled over
/// the run lands in whichever state held more than half of its
/// samples, so it jumps between the two from run to run. Each slice's
/// median is still robust to single outliers, and the mean over slices
/// weighs every stretch of the run alike.
pub fn mean_of_slice_medians(slice_medians: &[f64]) -> Result<f64, String> {
    if slice_medians.is_empty() {
        return Err("no slices".into());
    }
    Ok(slice_medians.iter().sum::<f64>() / slice_medians.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn median_is_the_nearest_rank() {
        assert_eq!(ramp(1).median(), Some(1.0));
        assert_eq!(ramp(4).median(), Some(2.0));
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(Samples::new(vec![]).median(), None);
    }

    #[test]
    fn percentiles_use_exact_ranks() {
        let s = ramp(1000);
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.percentile(90.0), Some(900.0));
        assert_eq!(s.percentile(50.0), Some(500.0));
        assert_eq!(s.percentile(25.0), Some(250.0));
        let s = ramp(20);
        // rank ceil(0.5 · 20) = 10: exactly ten samples beyond.
        assert_eq!(s.percentile(50.0), Some(10.0));
    }

    #[test]
    fn a_tail_with_too_few_samples_beyond_is_refused() {
        // 1000 samples: p99 has 10 beyond (reported), p99.9 has 1.
        let s = ramp(1000);
        assert_eq!(s.percentile(99.9), None);
        assert_eq!(s.highest_tail(), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 with 9 beyond — refused.
        let s = ramp(999);
        assert_eq!(s.percentile(99.0), None);
        assert_eq!(s.highest_tail(), Some((90.0, 900.0)));
        // 10 000 samples reach p99.9 (rank 9990, 10 beyond).
        assert_eq!(ramp(10_000).highest_tail(), Some((99.9, 9990.0)));
        // Too few for any tail at all.
        assert_eq!(ramp(19).highest_tail(), None);
        assert_eq!(ramp(19).percentile(90.0), None);
    }

    #[test]
    fn slices_are_consecutive_runs_with_a_short_tail() {
        let v = [5.0, 1.0, 3.0, 10.0, 30.0, 20.0, 7.0];
        assert_eq!(slice_medians(&v, 3), vec![3.0, 20.0, 7.0]);
        assert_eq!(slice_medians(&v, 100), vec![7.0]);
        assert!(slice_medians(&[], 3).is_empty());
        let m = mean_of_slice_medians(&slice_medians(&v, 3)).expect("slices");
        assert!((m - 10.0).abs() < 1e-12);
        assert!(mean_of_slice_medians(&[]).is_err());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let a = Samples::new(vec![3.0, 1.0, 2.0]);
        let b = Samples::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.median(), b.median());
        assert_eq!(median_of(&[5.0, 1.0, 3.0]), 3.0);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }
}
