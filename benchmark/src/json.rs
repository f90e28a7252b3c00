//! Writing JSON. The value tree and the parser are the engine's
//! (`sbgt_engine::obs::{JsonValue, parse_json}`); what it lacks, and the
//! benchmark needs, is a renderer that keeps every digit of a measured
//! number.

use std::fmt::Write as _;

pub use sbgt_engine::obs::{parse_json as parse, JsonValue as Json};

/// An object whose keys keep the order given: the result line reads as
/// the contract writes it.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// A count. Every count the benchmark writes is far below 2^53.
pub fn count(v: u64) -> Json {
    Json::Num(v as f64)
}

/// The members of an object, in source order; none for anything else.
pub fn entries(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(pairs) => pairs,
        _ => &[],
    }
}

pub fn as_bool(value: &Json) -> Option<bool> {
    match value {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// One line, separators as the contract's example shows (`": "`, `", "`).
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Whole numbers print without a fraction (counts stay counts);
        // anything else prints with Rust's shortest round-trip digits, so
        // a measured time keeps all of them.
        Json::Num(v) if !v.is_finite() => out.push_str("null"),
        Json::Num(v) if v.fract() == 0.0 && v.abs() < 9e15 => {
            let _ = write!(out, "{}", *v as i64);
        }
        Json::Num(v) => {
            let _ = write!(out, "{v}");
        }
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(out, key);
                out.push_str(": ");
                write(value, out);
            }
            out.push('}');
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_rendered_parses_back_with_every_digit() {
        let doc = obj([
            ("correct", Json::Bool(true)),
            ("attempted", count(1000)),
            ("time", num(0.1 + 0.2)),
            ("tiny", num(1e-9)),
            ("text", str("a \"quoted\"\\\n\tline\u{1}")),
            ("list", Json::Arr(vec![Json::Null, num(-2.5)])),
        ]);
        let line = render(&doc);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1000, \"time\": 0.30000000000000004, "
        ));
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), doc);
        assert_eq!(render(&num(f64::NAN)), "null");
    }
}
