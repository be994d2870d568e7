//! Order statistics and paired-difference layer attribution.

use std::collections::HashMap;

/// The fewest samples a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank — a tail
/// figure resting on a handful of samples is not reported at all.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 1.0) || samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Plain median (mean of the middle pair for even counts) — for the few
/// repeated set-up, rebuild and restore timings of one run, where the
/// median of a handful of repeats is the figure, not a tail percentile.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean, `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Per-key differences `outer − inner` over the keys both sides timed.
///
/// `outer` is a path that wraps `inner` (TCP around `answer_line`,
/// `answer_line` around the engine, the engine around `solve`); both replay
/// the same schedule, keyed by operation index. The differences are the
/// wrapping layer's self time, one per shared key, in key order.
pub fn paired_differences(outer: &[(usize, f64)], inner: &[(usize, f64)]) -> Vec<f64> {
    let inner: HashMap<usize, f64> = inner.iter().copied().collect();
    let mut pairs: Vec<(usize, f64)> = outer
        .iter()
        .filter_map(|&(key, t)| inner.get(&key).map(|&u| (key, t - u)))
        .collect();
    pairs.sort_by_key(|&(key, _)| key);
    pairs.into_iter().map(|(_, d)| d).collect()
}

/// Self time of the layer between `outer` and `inner`: the median of the
/// paired per-key differences.
pub fn layer_self_time(outer: &[(usize, f64)], inner: &[(usize, f64)]) -> Option<f64> {
    median(&paired_differences(outer, inner))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        // p99 of 100 samples leaves one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // The median needs ten samples above it, so twenty in all.
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&hundred, 1.0), None);
        assert_eq!(percentile(&hundred, 0.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=200).map(f64::from).collect();
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(percentile(&shuffled, 0.9), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn paired_differences_match_keys() {
        // Key 3 is missing on the inner path, key 9 on the outer one.
        let outer = [(1, 10.0), (2, 12.0), (3, 50.0), (0, 7.0)];
        let inner = [(0, 5.0), (1, 9.0), (2, 9.0), (9, 1.0)];
        assert_eq!(paired_differences(&outer, &inner), vec![2.0, 1.0, 3.0]);
        assert_eq!(layer_self_time(&outer, &inner), Some(2.0));
    }

    #[test]
    fn layered_self_times_telescope() {
        // Four nested paths, each adding a fixed cost per key on top of a
        // key-dependent core: every layer's self time is exactly its cost.
        let core: Vec<(usize, f64)> = (0..50).map(|k| (k, 100.0 + (k * k) as f64)).collect();
        let add = |base: &[(usize, f64)], c: f64| -> Vec<(usize, f64)> {
            base.iter().map(|&(k, t)| (k, t + c)).collect()
        };
        let engine = add(&core, 7.0);
        let protocol = add(&engine, 3.0);
        let wire = add(&protocol, 40.0);
        assert_eq!(layer_self_time(&engine, &core), Some(7.0));
        assert_eq!(layer_self_time(&protocol, &engine), Some(3.0));
        assert_eq!(layer_self_time(&wire, &protocol), Some(40.0));
        assert_eq!(layer_self_time(&wire, &core), Some(50.0));
    }
}
