//! Metric values and their JSON and text renderings.

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the figure rests on, where that is meaningful.
    pub samples: Option<usize>,
}

/// JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// A finite number as JSON (`null` otherwise).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"k": v, …}` from already-rendered values.
pub fn object(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `metrics` object of the result line: `{"name": {"value", "unit"}}`.
pub fn metrics_object(metrics: &[Metric], with_samples: bool) -> String {
    let members: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), number(m.value)),
                ("unit".to_string(), quote(m.unit)),
            ];
            if let (true, Some(n)) = (with_samples, m.samples) {
                fields.push(("samples".to_string(), n.to_string()));
            }
            (m.name.clone(), object(&fields))
        })
        .collect();
    object(&members)
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    object(&[
        ("correct".into(), correct.to_string()),
        ("attempted".into(), attempted.max(1).to_string()),
        ("failed".into(), failed.to_string()),
        ("metrics".into(), metrics_object(metrics, false)),
    ])
}

/// Human-readable table of `metrics`, one per line.
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            format!("  {:<34} {:>16.4} {}{n}", m.name, m.value, m.unit)
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [Metric {
            name: "query_p50_ms".into(),
            value: 1.25,
            unit: "ms",
            samples: Some(30),
        }];
        assert_eq!(
            result_line(true, 30, 0, &metrics),
            r#"{"correct": true, "attempted": 30, "failed": 0, "metrics": {"query_p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert_eq!(number(f64::NAN), "null");
    }
}
