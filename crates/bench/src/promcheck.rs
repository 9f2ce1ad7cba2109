//! A small validating parser for Prometheus text exposition, used by
//! `ssr stats --check` to gate the telemetry endpoint in CI without pulling
//! in a real Prometheus client.
//!
//! The checker is deliberately stricter than Prometheus itself where the
//! strictness catches exporter bugs:
//!
//! * every sample must belong to a family announced by a `# TYPE` line,
//! * histogram `_bucket` series must be cumulative (monotone in `le`) and
//!   end with an `+Inf` bucket equal to the family's `_count`,
//! * values must parse as finite non-negative numbers (nothing in this
//!   workspace legitimately exports NaN or negative counters).

use std::collections::BTreeMap;
use std::fmt;

/// What a `# TYPE` line declared for a family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FamilyKind {
    /// `# TYPE name counter`
    Counter,
    /// `# TYPE name gauge`
    Gauge,
    /// `# TYPE name histogram`
    Histogram,
}

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The full series name as written (`ssr_request_duration_us_bucket`,
    /// not the family name).
    pub name: String,
    /// Label pairs in written order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed, validated exposition.
#[derive(Debug, Default)]
pub struct Exposition {
    /// Family name -> declared kind.
    pub families: BTreeMap<String, FamilyKind>,
    /// Every sample line, in document order.
    pub samples: Vec<Sample>,
}

/// Why an exposition failed validation, with the offending line.
#[derive(Debug)]
pub struct PromError {
    /// 1-based line number (0 for document-level failures).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "exposition invalid: {}", self.message)
        } else {
            write!(f, "exposition line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for PromError {}

fn err(line: usize, message: impl Into<String>) -> PromError {
    PromError {
        line,
        message: message.into(),
    }
}

/// Splits a sample's label block `key="value",key="value"` into pairs.
fn parse_labels(line_no: usize, block: &str) -> Result<Vec<(String, String)>, PromError> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| err(line_no, format!("label without '=': {rest:?}")))?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(err(line_no, format!("unquoted label value after {key}")));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| err(line_no, format!("unterminated label value for {key}")))?;
        let value = after[1..1 + close].to_string();
        labels.push((key, value));
        rest = after[close + 2..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

/// The family a series name belongs to: `_bucket`/`_sum`/`_count` suffixes
/// fold into their histogram family when one is declared under that name.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, FamilyKind>) -> Option<&'a str> {
    if families.contains_key(name) {
        return Some(name);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if families.get(stem) == Some(&FamilyKind::Histogram) {
                return Some(stem);
            }
        }
    }
    None
}

/// Parses and validates a text exposition. Returns the parsed document or
/// the first validation failure.
pub fn parse(text: &str) -> Result<Exposition, PromError> {
    let mut doc = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| err(line_no, "TYPE line without a name"))?;
            let kind = match parts.next() {
                Some("counter") => FamilyKind::Counter,
                Some("gauge") => FamilyKind::Gauge,
                Some("histogram") => FamilyKind::Histogram,
                other => return Err(err(line_no, format!("unsupported TYPE {other:?}"))),
            };
            if doc.families.insert(name.to_string(), kind).is_some() {
                return Err(err(line_no, format!("family {name} declared twice")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and other comments.
        }
        let (series, value_text) = match line.rfind(' ') {
            Some(space) => (&line[..space], line[space + 1..].trim()),
            None => return Err(err(line_no, "sample line without a value")),
        };
        let value: f64 = if value_text == "+Inf" {
            f64::INFINITY
        } else {
            value_text
                .parse()
                .map_err(|_| err(line_no, format!("unparsable value {value_text:?}")))?
        };
        if !value.is_finite() || value < 0.0 {
            return Err(err(
                line_no,
                format!("value {value} is not a finite non-negative number"),
            ));
        }
        let (name, labels) = match series.find('{') {
            Some(open) => {
                if !series.ends_with('}') {
                    return Err(err(line_no, "unterminated label block"));
                }
                (
                    series[..open].to_string(),
                    parse_labels(line_no, &series[open + 1..series.len() - 1])?,
                )
            }
            None => (series.to_string(), Vec::new()),
        };
        if name.is_empty() {
            return Err(err(line_no, "sample line without a name"));
        }
        if family_of(&name, &doc.families).is_none() {
            return Err(err(line_no, format!("sample {name} has no # TYPE line")));
        }
        doc.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    validate_histograms(&doc)?;
    Ok(doc)
}

/// Groups histogram samples by (family, non-`le` labels) and checks each
/// series: buckets cumulative, `+Inf` present and equal to `_count`.
fn validate_histograms(doc: &Exposition) -> Result<(), PromError> {
    #[derive(Default)]
    struct SeriesCheck {
        buckets: Vec<(f64, f64)>, // (le, cumulative count); le = inf for +Inf
        count: Option<f64>,
    }
    let mut series: BTreeMap<String, SeriesCheck> = BTreeMap::new();
    for family in doc
        .families
        .iter()
        .filter(|(_, &k)| k == FamilyKind::Histogram)
        .map(|(name, _)| name)
    {
        for sample in &doc.samples {
            let own_labels: Vec<&(String, String)> =
                sample.labels.iter().filter(|(k, _)| k != "le").collect();
            let key = format!("{family}{own_labels:?}");
            if sample.name == format!("{family}_bucket") {
                let le = match sample.label("le") {
                    Some("+Inf") => f64::INFINITY,
                    Some(text) => text
                        .parse()
                        .map_err(|_| err(0, format!("{family}: bad le {text:?}")))?,
                    None => return Err(err(0, format!("{family}: bucket without le"))),
                };
                series
                    .entry(key)
                    .or_default()
                    .buckets
                    .push((le, sample.value));
            } else if sample.name == format!("{family}_count") {
                series.entry(key).or_default().count = Some(sample.value);
            }
        }
    }
    for (key, check) in &series {
        let count = check
            .count
            .ok_or_else(|| err(0, format!("{key}: histogram without _count")))?;
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for &(le, cum) in &check.buckets {
            if le <= prev_le {
                return Err(err(0, format!("{key}: le not increasing at {le}")));
            }
            if cum < prev_cum {
                return Err(err(0, format!("{key}: buckets not cumulative at le={le}")));
            }
            prev_le = le;
            prev_cum = cum;
        }
        match check.buckets.last() {
            Some(&(le, cum)) if le == f64::INFINITY => {
                if cum != count {
                    return Err(err(
                        0,
                        format!("{key}: +Inf bucket {cum} != _count {count}"),
                    ));
                }
            }
            _ => return Err(err(0, format!("{key}: histogram missing +Inf bucket"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_registry_render() {
        let registry = ssr_obs::Registry::new();
        registry.counter("ssr_t_total", "a counter").add(3);
        registry.gauge("ssr_t_depth", "a gauge").set(7);
        let h = registry.histogram("ssr_t_us", "a histogram");
        for v in [1u64, 3, 3, 100] {
            h.observe(v);
        }
        let doc = parse(&registry.render()).expect("own render must validate");
        assert_eq!(doc.families["ssr_t_total"], FamilyKind::Counter);
        assert_eq!(doc.families["ssr_t_depth"], FamilyKind::Gauge);
        assert_eq!(doc.families["ssr_t_us"], FamilyKind::Histogram);
        let value = |name: &str| doc.samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(value("ssr_t_total"), Some(3.0));
        assert_eq!(value("ssr_t_depth"), Some(7.0));
        assert_eq!(value("ssr_t_us_count"), Some(4.0));
        assert_eq!(value("ssr_t_us_sum"), Some(107.0));
    }

    #[test]
    fn rejects_samples_without_a_type_line() {
        let text = "ssr_orphan_total 1\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn rejects_non_cumulative_buckets() {
        let text = "\
# TYPE ssr_h histogram
ssr_h_bucket{le=\"1\"} 5
ssr_h_bucket{le=\"2\"} 3
ssr_h_bucket{le=\"+Inf\"} 5
ssr_h_sum 9
ssr_h_count 5
";
        let error = parse(text).expect_err("buckets decrease");
        assert!(error.message.contains("cumulative"), "{error}");
    }

    #[test]
    fn rejects_inf_bucket_count_mismatch() {
        let text = "\
# TYPE ssr_h histogram
ssr_h_bucket{le=\"1\"} 5
ssr_h_bucket{le=\"+Inf\"} 5
ssr_h_sum 9
ssr_h_count 6
";
        let error = parse(text).expect_err("+Inf != count");
        assert!(error.message.contains("_count"), "{error}");
    }

    #[test]
    fn rejects_negative_and_nan_values() {
        assert!(parse("# TYPE ssr_g gauge\nssr_g -1\n").is_err());
        assert!(parse("# TYPE ssr_g gauge\nssr_g NaN\n").is_err());
    }
}
