//! Order statistics over measured samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (sorted in place).
/// Returns 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile `q` of `(value, weight)` pairs: the smallest value at which
/// the cumulative weight reaches `q` of the total. Returns 0 for no weight.
pub fn weighted_quantile(xs: &mut [(f64, f64)], q: f64) -> f64 {
    xs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = q * xs.iter().map(|x| x.1).sum::<f64>();
    let mut acc = 0.0;
    for &(v, w) in xs.iter() {
        acc += w;
        if acc >= target && acc > 0.0 {
            return v;
        }
    }
    0.0
}

/// The highest of p99, p98, ... that leaves at least ten samples above
/// it, as a fraction; `None` when even the median does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    (50..=99)
        .rev()
        .map(|p| f64::from(p) / 100.0)
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&mut xs), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(
            weighted_quantile(&mut [(5.0, 1.0), (1.0, 1.0), (9.0, 3.0)], 0.5),
            9.0
        );
        assert_eq!(
            weighted_quantile(&mut [(5.0, 2.0), (1.0, 1.0), (9.0, 1.0)], 0.5),
            5.0
        );
        assert_eq!(weighted_quantile(&mut [], 0.5), 0.0);
        assert_eq!(
            weighted_quantile(&mut [(5.0, 98.0), (1.0, 1.0), (9.0, 1.0)], 0.99),
            5.0
        );
        assert_eq!(
            weighted_quantile(&mut [(5.0, 97.0), (1.0, 1.0), (9.0, 2.0)], 0.99),
            9.0
        );
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(500), Some(0.98));
        assert_eq!(tail_quantile(15), None);
    }
}
