//! A small JSON value and writer (the harness is std-only).

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Num`, or `Null` for an absent value.
    pub fn opt(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().copied().map(Json::Num).collect())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Everything on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // JSON has no NaN or infinities.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty.
                let flat = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat && indent.is_some() { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
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
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_is_exact() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(7)),
            ("none", Json::Null),
            (
                "metrics",
                Json::obj([(
                    "wall_s",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Num(0.25)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"correct":true,"attempted":7,"none":null,"metrics":{"wall_s":{"value":1.2034,"unit":"s"}},"list":[1,0.25],"empty":[]}"#
        );
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_become_null() {
        let bell = char::from(7u8);
        assert_eq!(
            Json::Str(format!("a\"b\\c\nd\te{bell}")).compact(),
            r#""a\"b\\c\nd\te\u0007""#
        );
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
        assert_eq!(Json::opt(None).compact(), "null");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(Json::Num(0.291250580595366).compact(), "0.291250580595366");
        assert_eq!(Json::Num(1e-7).compact(), "0.0000001");
        assert_eq!(Json::Int(-3).compact(), "-3");
    }

    #[test]
    fn pretty_output_indents_objects_and_keeps_scalar_arrays_flat() {
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("b", Json::Arr(vec![Json::obj([("c", Json::Null)])])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [1, 2],\n  \"b\": [\n    {\n      \"c\": null\n    }\n  ]\n}\n"
        );
    }
}
