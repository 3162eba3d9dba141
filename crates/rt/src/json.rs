//! Hand-rolled JSON emission with a stable field order.
//!
//! It renders the proving service's metrics and the Chrome trace-event
//! dumps, without a `serde` dependency. [`JsonValue`] is an owned JSON tree
//! whose objects preserve insertion order, so the same struct always
//! serializes to the same byte string; [`ToJson`] converts report types
//! into it, usually via the
//! [`impl_to_json_struct!`](crate::impl_to_json_struct) macro.

use std::fmt;

/// An owned JSON value. Object keys keep insertion order so emission is
/// byte-stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number (non-finite values emit as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the value as pretty-printed JSON with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::UInt(u) => out.push_str(&u.to_string()),
            JsonValue::Float(f) => write_f64(*f, out),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is stable and valid JSON.
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`JsonValue`], the workspace's `serde::Serialize`
/// replacement.
pub trait ToJson {
    /// Converts `self` into a JSON tree.
    fn to_json(&self) -> JsonValue;
}

macro_rules! impl_to_json_uint {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        }
    )*};
}

impl_to_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Implements [`ToJson`] for a struct by listing its fields; emission order
/// is the listed order.
///
/// ```
/// struct Report { runs: usize, seconds: f64 }
/// zkspeed_rt::impl_to_json_struct!(Report { runs, seconds });
///
/// let json = zkspeed_rt::ToJson::to_json(&Report { runs: 3, seconds: 0.5 });
/// assert_eq!(json.render(), r#"{"runs":3,"seconds":0.5}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::JsonValue {
                $crate::JsonValue::Object(::std::vec![
                    $((
                        ::std::string::ToString::to_string(stringify!($field)),
                        $crate::ToJson::to_json(&self.$field),
                    )),*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Int(-5).render(), "-5");
        assert_eq!(JsonValue::UInt(7).render(), "7");
        assert_eq!(JsonValue::Float(1.5).render(), "1.5");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let v = JsonValue::Object(vec![
            ("zebra".into(), JsonValue::UInt(1)),
            ("apple".into(), JsonValue::UInt(2)),
        ]);
        assert_eq!(v.render(), r#"{"zebra":1,"apple":2}"#);
        // Emission is byte-stable.
        assert_eq!(v.render(), v.render());
    }

    #[test]
    fn arrays_and_nesting() {
        let v = JsonValue::Array(vec![
            JsonValue::UInt(1),
            JsonValue::Object(vec![("k".into(), JsonValue::Bool(false))]),
        ]);
        assert_eq!(v.render(), r#"[1,{"k":false}]"#);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable_shape() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::Array(vec![JsonValue::UInt(1)])),
            ("b".into(), JsonValue::Object(vec![])),
        ]);
        let pretty = v.pretty();
        assert!(pretty.contains("\"a\": ["));
        assert!(pretty.contains("\"b\": {}"));
    }

    #[test]
    fn derived_struct_impl() {
        struct S {
            x: u64,
            y: f64,
            name: String,
        }
        crate::impl_to_json_struct!(S { x, y, name });

        let s = S {
            x: 3,
            y: 0.25,
            name: "zk".into(),
        };
        assert_eq!(s.to_json().render(), r#"{"x":3,"y":0.25,"name":"zk"}"#);
    }
}
