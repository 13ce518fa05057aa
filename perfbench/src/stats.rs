//! Order statistics, the output fingerprint and the process high-water RSS.

use granii_matrix::DenseMatrix;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank quantile; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[(q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize]
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Process high-water resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) jiffies of all cpus from `/proc/stat`; zeros when unreadable.
pub fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Steal time between two [`cpu_times`] readings, in percent of cpu time.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// A 64-bit FNV-1a hash over the shape and the exact bits of every element:
/// equal hashes stand for bitwise-equal outputs.
pub fn output_hash(m: &DenseMatrix) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (rows, cols) = m.shape();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for word in [rows as u64, cols as u64]
        .into_iter()
        .chain(m.as_slice().iter().map(|v| u64::from(v.to_bits())))
    {
        h = (h ^ word).wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
