//! Order statistics and the named-metric records every workload reports.

/// One reported number: name, value as measured, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, which percentile, which
    /// phase) — printed beside it, never parsed.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric { name: name.into(), value, unit, note: note.into() }
    }
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count). Zero samples give 0.0 — callers report the count beside it.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// Nearest-rank percentile `p` (0 < p < 100) of unsorted samples, or
/// `None` when fewer than ten samples lie beyond it: a tail read off a
/// handful of points is not a measurement.
pub fn percentile_ns(samples: &[u64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(v[rank.max(1) - 1] as f64)
}

/// The highest of p99 / p95 / p90 that has ten samples beyond it, with
/// the percentile it is. The timed loops run until p99 is supported, so a
/// lower one only shows when a run was cut short.
pub fn tail_ns(samples: &[u64]) -> (f64, &'static str) {
    for (p, label) in [(99.0, "p99"), (95.0, "p95"), (90.0, "p90")] {
        if let Some(v) = percentile_ns(samples, p) {
            return (v, label);
        }
    }
    (samples.iter().copied().max().unwrap_or(0) as f64, "max")
}

/// Renders a float for JSON with all the digits it was measured with.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_ns(&v, 99.0), Some(990.0));
        assert_eq!(percentile_ns(&v[..999], 99.0), None);
        assert_eq!(tail_ns(&v[..999]).1, "p95");
    }
}
