//! Parser for the Prometheus text exposition `gsnp call --metrics` writes.
//!
//! Only what the harness reads is supported: `name{label="v",...} value`
//! sample lines (histogram `_bucket`/`_sum`/`_count` lines are ordinary
//! samples), `#` comment lines skipped. Label values are taken verbatim
//! between the quotes; the CLI never emits escapes.

/// One sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed exposition.
#[derive(Debug, Default)]
pub struct Exposition {
    pub samples: Vec<Sample>,
}

impl Exposition {
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let mut samples = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line).map_err(|e| format!("metrics line {}: {e}", i + 1))?);
        }
        Ok(Exposition { samples })
    }

    /// Samples of `name` whose labels include every `(key, value)` of `want`.
    fn matching<'a>(
        &'a self,
        name: &'a str,
        want: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| {
            s.name == name
                && want
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }

    /// Sum over the matching samples; `None` when the CLI emits none (the
    /// series was renamed or removed), which the harness reports as missing.
    pub fn sum(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        let mut it = self.matching(name, want).peekable();
        it.peek()?;
        Some(it.map(|s| s.value).sum())
    }

    /// Largest matching sample.
    pub fn max(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        self.matching(name, want).map(|s| s.value).reduce(f64::max)
    }
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value in {line:?}"))?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().map_err(|_| format!("bad value {v:?}"))?,
    };
    let Some((name, rest)) = head.split_once('{') else {
        return Ok(Sample {
            name: head.to_string(),
            labels: Vec::new(),
            value,
        });
    };
    let body = rest
        .strip_suffix('}')
        .ok_or_else(|| format!("unterminated labels in {line:?}"))?;
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, after) = rest
            .split_once("=\"")
            .ok_or_else(|| format!("bad label in {line:?}"))?;
        let (val, after) = after
            .split_once('"')
            .ok_or_else(|| format!("unterminated label value in {line:?}"))?;
        labels.push((key.to_string(), val.to_string()));
        rest = after.strip_prefix(',').unwrap_or(after);
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gsnp call --backend sim --window 8000 --metrics` on a 20 000-site
    /// synthetic set, captured at the commit that added this benchmark.
    const FIXTURE: &str = include_str!("../tests/fixtures/call_sim.prom");

    #[test]
    fn parses_every_line_of_the_captured_exposition() {
        let e = Exposition::parse(FIXTURE).unwrap();
        let data_lines = FIXTURE
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count();
        assert_eq!(e.samples.len(), data_lines);
    }

    #[test]
    fn reads_plain_labelled_and_histogram_series() {
        let e = Exposition::parse(FIXTURE).unwrap();
        assert_eq!(e.sum("gsnp_sites_total", &[]), Some(20000.0));
        assert_eq!(e.sum("gsnp_windows_total", &[]), Some(3.0));
        let busy = e
            .sum(
                "gsnp_stage_seconds",
                &[("stage", "read"), ("state", "busy")],
            )
            .unwrap();
        assert!(busy > 0.0);
        // Label order in the query does not matter.
        assert_eq!(
            e.sum(
                "gsnp_stage_seconds",
                &[("state", "busy"), ("stage", "read")]
            ),
            Some(busy)
        );
        // Histogram _sum/_count lines are ordinary samples.
        let count = e
            .sum(
                "gsnp_kernel_launch_wall_seconds_count",
                &[("kernel", "likelihood_comp_fused")],
            )
            .unwrap();
        assert!(count >= 1.0);
        assert!(e
            .sum(
                "gsnp_kernel_launch_wall_seconds_sum",
                &[("kernel", "likelihood_comp_fused")]
            )
            .is_some());
        // +Inf bucket bound and +Inf class label both parse.
        assert!(e
            .sum("gsnp_sort_class_elements_total", &[("class", "+Inf")])
            .is_some());
        assert!(e
            .matching("gsnp_window_seconds_bucket", &[("le", "+Inf")])
            .next()
            .is_some());
    }

    #[test]
    fn sums_across_devices_and_reports_absent_series_as_none() {
        let e = Exposition::parse(
            "x_total{device=\"0\",counter=\"a\"} 2\nx_total{device=\"1\",counter=\"a\"} 3\n\
             x_total{device=\"1\",counter=\"b\"} 10\n",
        )
        .unwrap();
        assert_eq!(e.sum("x_total", &[("counter", "a")]), Some(5.0));
        assert_eq!(e.max("x_total", &[]), Some(10.0));
        assert_eq!(e.sum("y_total", &[]), None);
        assert_eq!(e.sum("x_total", &[("counter", "c")]), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Exposition::parse("name_without_value\n").is_err());
        assert!(Exposition::parse("a{b=\"c\" 1\n").is_err());
        assert!(Exposition::parse("a{b=c} 1\n").is_err());
        assert!(Exposition::parse("a 1x\n").is_err());
    }
}
