//! Metric collection, order statistics and the JSON the benchmark prints.

use std::fmt::Write;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed: a wrong answer, an error reply or a
    /// refused request.
    pub failed: u64,
    /// Set-level checks that are not per operation: the recall floor and,
    /// in traced runs, span nesting and coverage.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// The resolved configuration, as JSON members.
    pub config: Vec<(&'static str, String)>,
    /// Per-layer metrics whose layer does not run on this workload; they
    /// read 0.
    pub not_run: Vec<&'static str>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn config(&mut self, key: &'static str, json_value: impl Into<String>) {
        self.config.push((key, json_value.into()));
    }

    /// Reports 0 for a layer this workload does not exercise.
    pub fn not_run(&mut self, name: &'static str, unit: &'static str) {
        self.metric(name, 0.0, unit);
        self.not_run.push(name);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            write!(m, "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", x.name, num(x.value), x.unit)
                .expect("writing to a String");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A number as JSON, with all its digits. A measurement that is not
/// finite is a defect of the benchmark, never reported as a value.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite measurement {v}");
    format!("{v}")
}

/// A string as a JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank quantile of unsorted samples (`q` in `0..=1`).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of a few values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut s, 0.5), 50);
        assert_eq!(quantile(&mut s, 0.99), 99);
        assert_eq!(quantile(&mut s, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("qps", 1.5, "1/s");
        o.check("floor", true);
        assert_eq!(
            o.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"qps\":{\"value\":1.5,\"unit\":\"1/s\"}}}"
        );
        o.check("floor2", false);
        assert!(o.result_json().starts_with("{\"correct\":false"));
        assert_eq!(jstr("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
