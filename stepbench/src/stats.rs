//! Small numeric helpers: minima, medians, quartiles, tail percentiles, span self
//! time, and the `VmHWM` figure the kernel reports in `/proc`.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Smallest of `xs`, `None` for an empty slice.
pub fn minimum(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        // j = i·(n+1)/4 clamped to 1..n-1; delta may then fall outside
        // 0..4, which extrapolates exactly as Python does.
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile `p` (0–100] of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    Some(s[nearest_rank(s.len(), p).clamp(1, s.len()) - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n`, ⌈p·n/100⌉,
/// robust to the rounding of `p / 100` in binary.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Percentiles tried for the tail metric, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least `min_beyond`
/// samples above its nearest-rank position in a sample of `n`. `None` when
/// even the median has fewer than `min_beyond` samples beyond it.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= min_beyond)
}

/// Length of the union of half-open intervals `[start, end)`, clipped to
/// `within`.
pub fn union_len(intervals: &[(u64, u64)], within: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(within.0), b.min(within.1)))
        .filter(|&(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of a span: its duration minus the part of it that the union
/// of its children's intervals covers.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0).saturating_sub(union_len(children, span))
}

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`
/// (the `VmHWM:` line).
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn minimum_of_values() {
        assert_eq!(minimum(&[]), None);
        assert_eq!(minimum(&[3.0, -1.0, 2.0]), Some(-1.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(39, 10), Some(50.0));
        assert_eq!(tail_percentile(40, 10), Some(75.0));
        assert_eq!(tail_percentile(99, 10), Some(75.0));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(200, 10), Some(95.0));
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
        // The chosen percentile really leaves ten samples above it.
        for n in 20..400 {
            let p = tail_percentile(n, 10).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&xs, p).unwrap();
            assert!(xs.iter().filter(|&&x| x > v).count() >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Overlapping and nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40), (25, 35)]), 70);
        // Disjoint children add up.
        assert_eq!(self_time((0, 100), &[(0, 10), (50, 60)]), 80);
        // Children are clipped to the span.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Children outside the span do not count.
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        // Fully covered span.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
        assert_eq!(union_len(&[], (0, 10)), 0);
    }

    #[test]
    fn vmhwm_is_parsed_in_kib() {
        let status =
            "Name:\tstepbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(51234));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
    }
}
