//! Output checks: recommendation bodies and the layer-sum rule.

use serde::Value;

/// Looks a key up in a parsed JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Checks one `/recommend/{user}?k=K` body against the offline list:
/// same user, same `k`, generation 0, and exactly the expected raw item ids
/// in order. The `cached` flag is not compared — it only says which path
/// answered.
pub fn check_recommend_body(
    body: &[u8],
    user: &str,
    k: usize,
    expected: &[String],
) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not JSON ({e:?}): {text}"))?;
    match field(&v, "user") {
        Some(Value::Str(u)) if u == user => {}
        other => return Err(format!("user {other:?}, expected {user:?}")),
    }
    if field(&v, "k").and_then(number) != Some(k as f64) {
        return Err(format!("k mismatch in {text}"));
    }
    if field(&v, "generation").and_then(number) != Some(0.0) {
        return Err(format!("generation mismatch in {text}"));
    }
    let items: Vec<&str> = match field(&v, "items") {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|i| match i {
                Value::Str(s) => Ok(s.as_str()),
                other => Err(format!("item {other:?} is not a string")),
            })
            .collect::<Result<_, _>>()?,
        other => return Err(format!("items {other:?}")),
    };
    if items != expected.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!("items {items:?}, expected {expected:?}"));
    }
    Ok(())
}

/// One row of a per-layer time breakdown, in seconds of the same unit as
/// the total it must add up to.
#[derive(Clone, Debug)]
pub struct Row {
    pub layer: String,
    pub secs: f64,
}

impl Row {
    pub fn new(layer: &str, secs: f64) -> Row {
        Row {
            layer: layer.to_string(),
            secs,
        }
    }
}

/// The layer-sum rule: the layers' self times plus the explicitly measured
/// residual row must equal the independently measured end-to-end time
/// within `tolerance` (a share of the total).
pub fn check_layer_sum(
    rows: &[Row],
    residual: &Row,
    total: f64,
    tolerance: f64,
) -> Result<f64, String> {
    let sum: f64 = rows.iter().map(|r| r.secs).sum::<f64>() + residual.secs;
    let gap = (sum - total) / total;
    if total > 0.0 && gap.abs() <= tolerance && rows.iter().all(|r| r.secs.is_finite()) {
        return Ok(gap);
    }
    let breakdown: Vec<String> = rows
        .iter()
        .chain(std::iter::once(residual))
        .map(|r| format!("{}={:.6}", r.layer, r.secs))
        .collect();
    Err(format!(
        "layer rows add up to {sum:.6} but the end-to-end time is {total:.6} ({:+.1}%, allowed ±{:.0}%): {}",
        gap * 100.0,
        tolerance * 100.0,
        breakdown.join(" + ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str =
        r#"{"user":"u7","k":3,"generation":0,"cached":false,"items":["i4","i1","i9"]}"#;

    fn expected() -> Vec<String> {
        vec!["i4".into(), "i1".into(), "i9".into()]
    }

    #[test]
    fn body_checker_accepts_the_offline_list() {
        assert_eq!(
            check_recommend_body(BODY.as_bytes(), "u7", 3, &expected()),
            Ok(())
        );
        let cached = BODY.replace("false", "true");
        assert_eq!(
            check_recommend_body(cached.as_bytes(), "u7", 3, &expected()),
            Ok(())
        );
    }

    #[test]
    fn body_checker_rejects_corrupted_responses() {
        let corrupt = [
            BODY.replace("\"i1\"", "\"i2\""),
            BODY.replace(r#","i9""#, ""),
            BODY.replace("u7", "u8"),
            BODY.replace(r#""k":3"#, r#""k":4"#),
            BODY.replace(r#""generation":0"#, r#""generation":1"#),
            BODY[..BODY.len() - 1].to_string(),
            "<html>".to_string(),
        ];
        for body in corrupt {
            assert!(
                check_recommend_body(body.as_bytes(), "u7", 3, &expected()).is_err(),
                "accepted {body}"
            );
        }
    }

    #[test]
    fn layer_sum_passes_when_rows_cover_the_total() {
        let rows = vec![Row::new("a", 6.0), Row::new("b", 3.5)];
        let gap = check_layer_sum(&rows, &Row::new("residual", 0.4), 10.0, 0.10).unwrap();
        assert!((gap + 0.01).abs() < 1e-12);
    }

    #[test]
    fn layer_sum_fails_when_a_layer_is_dropped() {
        let rows = vec![Row::new("a", 6.0), Row::new("b", 3.5)];
        let residual = Row::new("residual", 0.4);
        assert!(check_layer_sum(&rows, &residual, 10.0, 0.10).is_ok());
        let err = check_layer_sum(&rows[..1], &residual, 10.0, 0.10).unwrap_err();
        assert!(err.contains("-36.0%"), "{err}");
        assert!(check_layer_sum(&rows, &residual, 0.0, 0.10).is_err());
    }
}
