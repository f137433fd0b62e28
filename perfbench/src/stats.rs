//! Order statistics over latency samples.

/// Sorts `v` ascending (samples are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q` (0–100) of ascending `sorted`; 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly above percentile `q` — the support behind a tail
/// figure.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|x| *x <= p)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(beyond(&v, 99.0), 1);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
