//! Order statistics, seed derivation and process measurements shared by
//! the workloads.

use simkit::Histogram;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Which sample [`p50_tail`] reports as the tail of `n`, e.g. `p84 of
/// 64`: the highest percentile that still has at least ten samples
/// beyond it, or the maximum when there are ten or fewer.
pub fn tail_label(n: usize) -> String {
    if n <= 10 {
        return format!("max of {n}");
    }
    let pct = ((n - 10) as f64 / n as f64 * 100.0).floor();
    format!("p{pct} of {n}")
}

/// Median and tail (see [`tail_label`]) of an exact-sample histogram.
pub fn p50_tail(h: &mut Histogram) -> (f64, f64) {
    let n = h.len();
    let p50 = h.percentile(50.0);
    if n <= 10 {
        return (p50, h.percentile(100.0));
    }
    // Nearest rank n - 10 (ten samples beyond it); the half-rank margin
    // keeps float rounding from tipping the rank up by one.
    (
        p50,
        h.percentile(((n - 10) as f64 - 0.5) * 100.0 / n as f64),
    )
}

/// Derives an input seed from the workload seed. Seed 0 is the
/// repository's reference configuration — the exact constants behind
/// the committed `BENCH_*.json` artifacts — so `base` comes back
/// unchanged; every other seed perturbs it through SplitMix64, with
/// `salt` keeping the streams of different inputs apart.
pub fn derive(base: u64, seed: u64, salt: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    base ^ (z ^ (z >> 31))
}

/// A `/proc/self/status` field in MiB (`VmHWM` for the peak resident
/// set, `VmRSS` for the current one); 0 when unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(n: u32) -> Histogram {
        let mut h = Histogram::new();
        for v in 1..=n {
            h.record(f64::from(v));
        }
        h
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(p50_tail(&mut hist(64)), (32.0, 54.0));
        assert_eq!(tail_label(64), "p84 of 64");
        assert_eq!(p50_tail(&mut hist(32)), (16.0, 22.0));
        assert_eq!(tail_label(32), "p68 of 32");
        assert_eq!(p50_tail(&mut hist(2)), (1.0, 2.0));
        assert_eq!(tail_label(2), "max of 2");
    }

    #[test]
    fn seed_zero_is_the_reference() {
        assert_eq!(derive(0xF1EE7, 0, 2), 0xF1EE7);
        assert_ne!(derive(0xF1EE7, 1, 2), 0xF1EE7);
        assert_ne!(derive(7, 1, 2), derive(7, 1, 3));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
