//! Sample statistics with an honest-tail rule, and the open-loop
//! arithmetic built on `bench::serve::replay_open_loop`.
//!
//! Every percentile here takes the rank the library's open-loop replay
//! takes — the 0-based `round((n - 1) q)` of `n` ascending samples — so
//! service-time and open-loop percentiles count their support alike.

use bench::serve::replay_open_loop;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with its support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    /// The value at the rank.
    pub value: u64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// Samples strictly beyond percentile `q` (0 < q < 1) of `n` samples:
/// `n - 1 - round((n - 1) q)`.
pub fn beyond(n: usize, q: f64) -> usize {
    match n {
        0 => 0,
        _ => n - 1 - ((n - 1) as f64 * q).round() as usize,
    }
}

/// `value` as percentile `q` of `n` samples, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(value: u64, n: usize, q: f64) -> Option<Pct> {
    let beyond = beyond(n, q);
    (beyond >= MIN_BEYOND).then_some(Pct { value, beyond, n })
}

/// Percentile `q` of ascending `sorted`, when it has the support.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    supported(0, n, q).map(|p| Pct {
        value: sorted[n - 1 - p.beyond],
        ..p
    })
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Highest integer offered rate (per second, up to `ceiling`) at which
/// the open-loop p99 of `service_ns` stays within `limit_ns`; 0 if even
/// 1/s misses or the p99 lacks support. Latency never falls as the
/// offered rate rises, so a bisection finds the edge.
pub fn max_rate_within(service_ns: &[u64], limit_ns: u64, ceiling: u64) -> u64 {
    let meets = |rate: u64| replay_open_loop(service_ns, rate as f64, limit_ns).p99_ns <= limit_ns;
    if supported(0, service_ns.len(), 0.99).is_none() || !meets(1) {
        return 0;
    }
    let (mut lo, mut hi) = (1u64, ceiling);
    if meets(hi) {
        return hi;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=101).collect();
        // Rank round(100 * 0.5) = 50 (0-based): value 51, 50 beyond.
        assert_eq!(
            percentile(&v, 0.5),
            Some(Pct {
                value: 51,
                beyond: 50,
                n: 101
            })
        );
        // Rank 90 leaves exactly 10 beyond: reported.
        assert_eq!(
            percentile(&v, 0.9).map(|p| (p.value, p.beyond)),
            Some((91, 10))
        );
        // Rank 91 leaves 9 beyond: withheld.
        assert_eq!(percentile(&v, 0.91), None);
        assert_eq!(percentile(&v, 0.99), None);
        // p99 needs about 1 000 samples, p99.9 about 10 000.
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(beyond(1_000, 0.999), 1);
        assert_eq!(beyond(10_000, 0.999), 10);
        assert_eq!(beyond(200_000, 0.999), 200);
        assert_eq!(supported(7, 10_000, 0.999).map(|p| p.value), Some(7));
        assert_eq!(supported(7, 9_000, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_without_queueing_returns_service_times() {
        // 10/s offered: 100 ms gaps, every request finds the server idle.
        // Latencies 1, 2, 1 ms; sorted 1, 1, 2; the last ends at 201 ms.
        let r = replay_open_loop(&[1_000_000, 2_000_000, 1_000_000], 10.0, 1_500_000);
        assert_eq!(
            (r.p50_ns, r.p99_ns, r.max_ns),
            (1_000_000, 2_000_000, 2_000_000)
        );
        assert_eq!(r.budget_violations, 1);
        assert!((r.achieved - 3.0 / 0.201).abs() < 1e-9);
    }

    #[test]
    fn open_loop_charges_queueing_from_the_due_instant() {
        // 1 000/s offered: arrivals at 0, 1, 2, 3 ms. The first request
        // stalls 5 ms; the others take 0.5 ms each.
        //   #0: 0 -> 5.0 ms                       latency 5.0 ms
        //   #1: arrives 1, starts 5.0, ends 5.5   latency 4.5 ms
        //   #2: arrives 2, starts 5.5, ends 6.0   latency 4.0 ms
        //   #3: arrives 3, starts 6.0, ends 6.5   latency 3.5 ms
        // Sorted 3.5, 4.0, 4.5, 5.0: p50 at rank round(1.5) = 2, p99 and
        // p99.9 at rank round(2.97) = 3. Two exceed a 4.2 ms budget.
        let r = replay_open_loop(&[5_000_000, 500_000, 500_000, 500_000], 1_000.0, 4_200_000);
        assert_eq!(r.p50_ns, 4_500_000);
        assert_eq!(
            (r.p99_ns, r.p999_ns, r.max_ns),
            (5_000_000, 5_000_000, 5_000_000)
        );
        assert_eq!(r.budget_violations, 2);
        assert!((r.achieved - 4.0 / 0.0065).abs() < 1e-6);
        // Four samples support no percentile.
        assert_eq!(supported(r.p50_ns, 4, 0.5), None);
    }

    #[test]
    fn max_rate_finds_the_latency_edge() {
        // Constant 100 µs service: the server saturates at 10 000/s, and
        // below that every request finds it idle (latency 100 µs).
        let service = vec![100_000u64; 2_000];
        assert_eq!(max_rate_within(&service, 100_000, 1_000_000), 10_000);
        // Nothing meets a limit below the bare service time.
        assert_eq!(max_rate_within(&service, 99_999, 1_000_000), 0);
        // Too few samples to support a p99.
        assert_eq!(max_rate_within(&service[..500], 100_000, 1_000_000), 0);
    }
}
