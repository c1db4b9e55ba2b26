//! Prometheus-style text exposition of a [`Registry`].
//!
//! The serving layer's `/metrics` endpoint speaks the de-facto scrape
//! format: one `# TYPE` line per family, `name value` samples, histograms
//! as cumulative `_bucket{le="…"}` series plus `_sum`/`_count`. Hand-rolled
//! like the rest of the crate — no client library, no allocation beyond the
//! output string.
//!
//! Registry names use dots (`serve.recommend.latency_ms`); the exposition
//! format only allows `[a-zA-Z0-9_:]`, so dots (and any other illegal byte)
//! become underscores: `serve_recommend_latency_ms`. Label *values* (the
//! `le` bounds and exemplar trace ids we emit) pass through
//! [`escape_label_value`], which applies the format's escaping rules
//! (backslash, double-quote, newline) so arbitrary strings can never break
//! a sample line.
//!
//! Buckets that saw a traced observation additionally carry an
//! OpenMetrics-style exemplar — `# {trace_id="…"} value` appended to the
//! `_bucket` sample — linking the tail bucket straight to the trace that
//! landed there (scrapable by OpenMetrics parsers, ignored as a comment by
//! strict 0.0.4 parsers).

use crate::registry::Registry;
use std::fmt::Write;

/// Sanitizes a registry name into a legal exposition metric name.
fn metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, the double
/// quote and newline must be escaped; everything else (including unicode)
/// passes through.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` the way Prometheus expects (`+Inf`, `-Inf`, `NaN`
/// spelled out; everything else via Rust's shortest round-trip `{:?}`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v:?}")
    }
}

impl Registry {
    /// Renders every registered metric in the Prometheus text exposition
    /// format (version 0.0.4): counters and gauges as single samples,
    /// histograms as cumulative buckets with the implicit `+Inf` bucket,
    /// `_sum` and `_count`. Buckets with a traced observation append an
    /// OpenMetrics exemplar. Families are emitted in name order, so the
    /// output is deterministic for a fixed registry state.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().expect("registry lock").iter() {
            let n = metric_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {}", c.get());
        }
        for (name, g) in self.gauges.lock().expect("registry lock").iter() {
            let n = metric_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", fmt_f64(g.get()));
        }
        for (name, h) in self.histograms.lock().expect("registry lock").iter() {
            let n = metric_name(name);
            let snap = h.snapshot();
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (bucket, (bound, count)) in snap.bounds.iter().zip(&snap.counts).enumerate() {
                cum += count;
                let le = escape_label_value(&fmt_f64(*bound));
                let _ = write!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
                let _ = match snap.exemplars.get(bucket).and_then(|e| *e) {
                    Some(e) => writeln!(
                        out,
                        " # {{trace_id=\"{}\"}} {}",
                        escape_label_value(&format!("{:016x}", e.trace_id)),
                        fmt_f64(e.value)
                    ),
                    None => writeln!(out),
                };
            }
            let _ = write!(out, "{n}_bucket{{le=\"+Inf\"}} {}", snap.count);
            let _ = match snap.exemplars.get(snap.bounds.len()).and_then(|e| *e) {
                Some(e) => writeln!(
                    out,
                    " # {{trace_id=\"{}\"}} {}",
                    escape_label_value(&format!("{:016x}", e.trace_id)),
                    fmt_f64(e.value)
                ),
                None => writeln!(out),
            };
            let _ = writeln!(out, "{n}_sum {}", fmt_f64(snap.sum));
            let _ = writeln!(out, "{n}_count {}", snap.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(metric_name("serve.recommend.latency_ms"), "serve_recommend_latency_ms");
        assert_eq!(metric_name("a-b c"), "a_b_c");
        assert_eq!(metric_name("2fast"), "_2fast");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn unicode_names_are_flattened_to_legal_ascii() {
        assert_eq!(metric_name("latência.méxico"), "lat_ncia_m_xico");
        assert_eq!(metric_name("延迟ms"), "__ms");
        // Flattened names stay legal: first char non-digit, charset ok.
        for name in ["λ", "9λ", "a λ b"] {
            let n = metric_name(name);
            assert!(!n.is_empty());
            assert!(!n.as_bytes()[0].is_ascii_digit(), "{n}");
            assert!(
                n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{n}"
            );
        }
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("ünïcödé"), "ünïcödé");
    }

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        r.counter("serve.requests").add(7);
        r.gauge("serve.generation").set(3.0);
        let text = r.render_text();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 7\n"), "{text}");
        assert!(text.contains("# TYPE serve_generation gauge\nserve_generation 3.0\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat", || Histogram::new(vec![1.0, 2.0, 4.0]));
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.record(v);
        }
        let text = r.render_text();
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1.0\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"2.0\"} 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"4.0\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_count 4"), "{text}");
        assert!(text.contains("lat_sum 105.0"), "{text}");
    }

    #[test]
    fn histogram_conformance_shape_holds_line_by_line() {
        // Every _bucket line must carry an le label, cumulative counts
        // must be non-decreasing, and _sum/_count close the family.
        let r = Registry::new();
        let h = r.histogram("shape", || Histogram::new(vec![1.0, 2.0]));
        for v in [0.5, 0.6, 1.5, 9.0] {
            h.record(v);
        }
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# TYPE shape histogram");
        let mut last = 0u64;
        let mut buckets = 0;
        for l in &lines[1..] {
            if let Some(rest) = l.strip_prefix("shape_bucket{le=\"") {
                let (_le, count) = rest.split_once("\"} ").expect("le label closes");
                let c: u64 = count.split(' ').next().unwrap().parse().expect("count parses");
                assert!(c >= last, "cumulative counts must not decrease: {l}");
                last = c;
                buckets += 1;
            }
        }
        assert_eq!(buckets, 3, "{text}"); // 2 bounds + +Inf
        assert!(lines.contains(&"shape_sum 11.6"), "{text}");
        assert!(lines.contains(&"shape_count 4"), "{text}");
    }

    #[test]
    fn traced_buckets_render_openmetrics_exemplars() {
        let r = Registry::new();
        let h = r.histogram("lat", || Histogram::new(vec![1.0, 4.0]));
        h.record(0.5); // untraced: plain bucket line
        h.record_exemplar(3.0, 0xbeef);
        h.record_exemplar(50.0, 0xcafe); // overflow bucket exemplar
        let text = r.render_text();
        assert!(text.contains("lat_bucket{le=\"1.0\"} 1\n"), "{text}");
        assert!(
            text.contains("lat_bucket{le=\"4.0\"} 2 # {trace_id=\"000000000000beef\"} 3.0"),
            "{text}"
        );
        assert!(
            text.contains("lat_bucket{le=\"+Inf\"} 3 # {trace_id=\"000000000000cafe\"} 50.0"),
            "{text}"
        );
    }

    #[test]
    fn non_finite_gauges_spell_out() {
        let r = Registry::new();
        r.gauge("nan").set(f64::NAN);
        r.gauge("inf").set(f64::INFINITY);
        let text = r.render_text();
        assert!(text.contains("nan NaN"), "{text}");
        assert!(text.contains("inf +Inf"), "{text}");
    }

    #[test]
    fn nan_gauge_line_stays_parseable() {
        let r = Registry::new();
        r.gauge("weird").set(f64::NAN);
        let text = r.render_text();
        let sample = text.lines().find(|l| l.starts_with("weird ")).expect("sample line");
        let mut parts = sample.split(' ');
        assert_eq!(parts.next(), Some("weird"));
        assert_eq!(parts.next(), Some("NaN"));
        assert_eq!(parts.next(), None);
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(Registry::new().render_text(), "");
    }
}
