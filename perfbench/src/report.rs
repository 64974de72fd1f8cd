//! Turning samples and counter deltas into named metrics, and printing
//! them: a readable table on stderr, the result object as the last line
//! of stdout.

use minuet_obs::ObsSnapshot;

/// Exact nearest-rank percentile of `v` (sorted in place); 0 if empty.
pub fn pct(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// Median of `v` as f64 (nearest rank).
pub fn median(v: &mut [u64]) -> f64 {
    pct(v, 50.0)
}

/// Nearest-rank `q`-quantile of `v`; 0 if empty.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A counter of `s`, 0 when absent.
pub fn counter(s: &ObsSnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

/// Delta of counter `name` summed over several registries.
pub fn delta(before: &[ObsSnapshot], after: &[ObsSnapshot], name: &str) -> u64 {
    let sum = |v: &[ObsSnapshot]| v.iter().map(|s| counter(s, name)).sum::<u64>();
    sum(after).saturating_sub(sum(before))
}

/// Socket requests the wire client sent: the sample count of its per-RPC
/// latency series.
pub fn wire_requests(s: &ObsSnapshot) -> u64 {
    s.hists
        .iter()
        .filter(|(n, _)| n.starts_with("wire.lat."))
        .map(|(_, h)| h.count)
        .sum()
}

/// One named metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Writes the metrics as a table to stderr.
    pub fn print_table(&self, title: &str) {
        eprintln!("\n{title}");
        let w = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.0 {
            eprintln!("  {:w$}  {:>14.4}  {}", m.name, m.value, m.unit);
        }
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(pct(&mut v, 50.0), 50.0);
        assert_eq!(pct(&mut v, 99.0), 99.0);
        assert_eq!(pct(&mut v, 100.0), 100.0);
        assert_eq!(pct(&mut [], 50.0), 0.0);
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(quantile(v.clone(), 0.25), 4.0);
        assert_eq!(quantile(v, 0.75), 12.0);
    }

    #[test]
    fn result_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("ops_s", 12.5, "1/s");
        m.put("nan", f64::NAN, "x");
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"nan\": {\"value\": 0, \"unit\": \"x\"}}}"
        );
    }
}
