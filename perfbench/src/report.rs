//! The result of one benchmark run and its one-line JSON form.

use std::fmt::Write as _;

/// `true` for a metric name: 1–64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One workload run: its metrics, and the outcome of its output checks.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric. A malformed name or unit, a repeated name or a
    /// non-finite value is a benchmark bug and fails the run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !valid_name(name) || !valid_unit(unit) {
            self.problem(format!("malformed metric {name:?} [{unit}]"));
        } else if self.metrics.iter().any(|(n, _, _)| n == name) {
            self.problem(format!("metric {name} reported twice"));
        } else if !value.is_finite() {
            self.problem(format!("metric {name} is not finite: {value}"));
        } else {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// Records a count metric.
    pub fn count(&mut self, name: &str, value: usize) {
        self.metric(name, value as f64, "count");
    }

    /// Counts one attempted operation, failed unless `ok`; `what`
    /// describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records a problem that makes the whole run incorrect without
    /// being one of its operations (a broken set-up, a benchmark bug).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Descriptions of every failed check and problem.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// `failed / attempted`, the `error_ratio` of the run.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. Values print in Rust's shortest round-trip form, so
    /// no digit is lost.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` is the shortest exact form (`3.0`, `1.25e-7`), valid JSON.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in ["wall_s", "linalg.factor_ms", "a-b.c_d", "0x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "ms!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn malformed_repeated_or_non_finite_metrics_fail_the_run() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("wall_s", 1.5, "s");
        assert!(r.problems().is_empty());
        r.metric("wall_s", 2.0, "s");
        r.metric("bad name", 1.0, "s");
        r.metric("nan", f64::NAN, "s");
        assert_eq!(r.problems().len(), 3);
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "wrong".into());
        r.metric("wall_s", 0.1 + 0.2, "s");
        r.count("n", 3);
        r.metric("tiny", 1.25e-7, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"wall_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"tiny\": {\"value\": 1.25e-7, \"unit\": \"s\"}}}"
        );
        assert_eq!(r.error_ratio(), 0.5);
    }
}
