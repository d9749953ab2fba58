//! Snapshot exporters: Prometheus text exposition format and JSONL, plus a
//! deliberately small Prometheus parser so CI can assert an export is
//! well-formed without a network scraper.

use crate::registry::{bucket_upper_bound, HistogramSnapshot, SeriesSnapshot, Snapshot};

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn push_histogram(out: &mut String, s: &SeriesSnapshot, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative = cumulative.saturating_add(c);
        let le = bucket_upper_bound(i).to_string();
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            s.name,
            render_labels(&s.labels, Some(("le", &le))),
            cumulative
        ));
    }
    out.push_str(&format!(
        "{}_bucket{} {}\n",
        s.name,
        render_labels(&s.labels, Some(("le", "+Inf"))),
        h.count
    ));
    let plain = render_labels(&s.labels, None);
    out.push_str(&format!("{}_sum{} {}\n", s.name, plain, h.sum));
    out.push_str(&format!("{}_count{} {}\n", s.name, plain, h.count));
}

/// Render a snapshot in the Prometheus text exposition format (v0.0.4):
/// `# TYPE` headers, one `name{labels} value` sample per line, histograms
/// expanded into cumulative `_bucket{le=...}` plus `_sum`/`_count`.
/// Integer-valued samples print as integers so nothing is lost to `f64`.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snap.series {
        if last_name != Some(s.name.as_str()) {
            out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind));
            last_name = Some(s.name.as_str());
        }
        match (&s.counter, &s.gauge, &s.histogram) {
            (Some(v), _, _) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    render_labels(&s.labels, None),
                    v
                ));
            }
            (_, Some(v), _) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    render_labels(&s.labels, None),
                    v
                ));
            }
            (_, _, Some(h)) => push_histogram(&mut out, s, h),
            _ => {}
        }
    }
    out
}

/// One JSON object per series per line — trivially ingestible with jq or
/// pandas, and the shape `repro all` aggregates.
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for s in &snap.series {
        out.push_str(&serde_json::to_string(s).expect("series serializes"));
        out.push('\n');
    }
    out
}

/// One parsed sample line: metric name, labels as written, numeric value.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

/// Parsed label pairs plus the byte offset just past the closing `}`.
type ParsedLabels = (Vec<(String, String)>, usize);

/// Scan `k="v"` pairs in `s` (which starts just past the opening `{`),
/// handling `\\`/`\"`/`\n` escapes. Returns the labels and the byte offset
/// just past the closing `}`.
fn parse_labels(s: &str) -> Result<ParsedLabels, &'static str> {
    let mut labels = Vec::new();
    let mut pos = 0usize;
    loop {
        while s[pos..].starts_with(' ') {
            pos += 1;
        }
        if s[pos..].starts_with('}') {
            return Ok((labels, pos + 1));
        }
        let key_start = pos;
        while let Some(c) = s[pos..].chars().next() {
            if is_name_char(c) {
                pos += c.len_utf8();
            } else {
                break;
            }
        }
        if pos == key_start {
            return Err("bad label key");
        }
        let key = s[key_start..pos].to_string();
        if !s[pos..].starts_with('=') {
            return Err("expected '=' after label key");
        }
        pos += 1;
        if !s[pos..].starts_with('"') {
            return Err("label value must be quoted");
        }
        pos += 1;
        let mut val = String::new();
        let mut escaped = false;
        let mut closed = false;
        for c in s[pos..].chars() {
            pos += c.len_utf8();
            if escaped {
                val.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else {
                match c {
                    '\\' => escaped = true,
                    '"' => {
                        closed = true;
                        break;
                    }
                    other => val.push(other),
                }
            }
        }
        if !closed {
            return Err("unterminated label value");
        }
        labels.push((key, val));
        if s[pos..].starts_with(',') {
            pos += 1;
        } else if !s[pos..].starts_with('}') {
            return Err("expected ',' or '}' after label value");
        }
    }
}

fn parse_line(line: &str, lineno: usize) -> Result<PromSample, String> {
    let err = |msg: &str| format!("line {}: {} in {:?}", lineno, msg, line);
    if !line.chars().next().map(is_name_start).unwrap_or(false) {
        return Err(err("expected metric name"));
    }
    let mut name_end = 0;
    for (i, c) in line.char_indices() {
        if is_name_char(c) {
            name_end = i + c.len_utf8();
        } else {
            break;
        }
    }
    let name = line[..name_end].to_string();
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(stripped) = rest.strip_prefix('{') {
        let (labels, consumed) = parse_labels(stripped).map_err(err)?;
        (labels, &stripped[consumed..])
    } else {
        (Vec::new(), rest)
    };
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err(err("missing sample value"));
    }
    // Timestamps (a second numeric field) are not produced by our exporter;
    // reject them rather than silently misparse.
    if value_str.split_whitespace().count() != 1 {
        return Err(err("unexpected extra field after value"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse::<f64>()
            .map_err(|_| err("sample value is not a number"))?,
    };
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

/// Parse Prometheus text exposition: comment/blank lines are skipped, every
/// other line must be a well-formed `name{labels} value` sample. Returns
/// every sample, or the first syntax error with its line number.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_line(line, idx + 1)?);
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("amem_req_total", &[("outcome", "hit")]).add(3);
        r.counter("amem_req_total", &[("outcome", "miss")]).add(1);
        r.gauge("amem_depth", &[]).set(-2);
        let h = r.histogram("amem_wait_ns", &[("kind", "dedup")]);
        h.record(0);
        h.record(1);
        h.record(1000);
        r.snapshot()
    }

    #[test]
    fn text_format_shape() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE amem_req_total counter"));
        assert!(text.contains("amem_req_total{outcome=\"hit\"} 3"));
        assert!(text.contains("amem_req_total{outcome=\"miss\"} 1"));
        assert!(text.contains("amem_depth -2"));
        assert!(text.contains("amem_wait_ns_bucket{kind=\"dedup\",le=\"0\"} 1"));
        assert!(text.contains("amem_wait_ns_bucket{kind=\"dedup\",le=\"1\"} 2"));
        assert!(text.contains("amem_wait_ns_bucket{kind=\"dedup\",le=\"1023\"} 3"));
        assert!(text.contains("amem_wait_ns_bucket{kind=\"dedup\",le=\"+Inf\"} 3"));
        assert!(text.contains("amem_wait_ns_sum{kind=\"dedup\"} 1001"));
        assert!(text.contains("amem_wait_ns_count{kind=\"dedup\"} 3"));
    }

    #[test]
    fn export_parses_back() {
        let snap = sample_snapshot();
        let samples = parse_prometheus_text(&prometheus_text(&snap)).unwrap();
        // 2 counters + 1 gauge + (3 buckets + Inf + sum + count) = 9.
        assert_eq!(samples.len(), 9);
        let hit = samples
            .iter()
            .find(|s| s.name == "amem_req_total" && s.labels == [("outcome".into(), "hit".into())])
            .unwrap();
        assert_eq!(hit.value, 3.0);
        let inf = samples
            .iter()
            .find(|s| s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .unwrap();
        assert_eq!(inf.name, "amem_wait_ns_bucket");
        assert_eq!(inf.value, 3.0);
    }

    #[test]
    fn label_escaping_roundtrips() {
        let r = Registry::new();
        r.counter("c_total", &[("path", "a\\b \"q\"\nend")]).inc();
        let text = prometheus_text(&r.snapshot());
        let samples = parse_prometheus_text(&text).unwrap();
        assert_eq!(samples[0].labels[0].1, "a\\b \"q\"\nend");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus_text("123bad 1").is_err());
        assert!(parse_prometheus_text("name{k=unquoted} 1").is_err());
        assert!(parse_prometheus_text("name{k=\"v\"").is_err());
        assert!(parse_prometheus_text("name ").is_err());
        assert!(parse_prometheus_text("name 1 2 3").is_err());
        assert!(parse_prometheus_text("name notanumber").is_err());
        let err = parse_prometheus_text("ok 1\nbroken{").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let text = "# HELP x y\n\n# TYPE c counter\nc 4\n";
        let samples = parse_prometheus_text(text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "c");
        assert_eq!(samples[0].value, 4.0);
    }

    #[test]
    fn jsonl_one_line_per_series() {
        let snap = sample_snapshot();
        let jsonl = to_jsonl(&snap);
        assert_eq!(jsonl.lines().count(), snap.series.len());
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("name").is_some());
            assert!(v.get("kind").is_some());
        }
    }
}
