//! The one JSON object writer: every JSON line, dump and report row in
//! the workspace is written through [`JsonObject`].

/// A JSON object under construction, one key at a time (builder style).
///
/// Keys and string values go through the crate's one string escape;
/// floats take their decimal count from the caller and a non-finite one
/// is written `null`; the writer places the commas itself. A nested
/// object or an array is written by its own writer (or `join`) and
/// embedded with [`raw`](JsonObject::raw).
///
/// ```
/// use logdiam_obs::JsonObject;
///
/// let inner = JsonObject::new().u64("count", 2).finish();
/// let line = JsonObject::new()
///     .str("name", "a\"b")
///     .f64("ratio", 0.5, 3)
///     .f64("rate", f64::NAN, 1)
///     .bool("ok", true)
///     .raw("hist", &inner)
///     .finish();
/// assert_eq!(
///     line,
///     r#"{"name":"a\"b","ratio":0.500,"rate":null,"ok":true,"hist":{"count":2}}"#
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    /// The fields written so far, without the braces.
    out: String,
    /// Written before each key: empty for one line, `"\n  "` for
    /// [`pretty`](JsonObject::pretty).
    indent: &'static str,
}

impl JsonObject {
    /// An empty object written on one line: `{"a":1,"b":2}`.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty object written one key per line, indented by two spaces,
    /// with a space after each colon: the layout of a report document's
    /// envelope (`docs/bench-schema.md`).
    pub fn pretty() -> Self {
        JsonObject {
            indent: "\n  ",
            ..Self::default()
        }
    }

    /// `key` with a value already rendered as JSON: a number, `true`, a
    /// nested object, an array. Every other field is written through it.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        let comma = if self.out.is_empty() { "" } else { "," };
        let colon = if self.indent.is_empty() { ":" } else { ": " };
        self.out += &format!("{comma}{}\"{}\"{colon}{json}", self.indent, escape(key));
        self
    }

    /// An unsigned integer field.
    pub fn u64(self, key: &str, v: u64) -> Self {
        self.raw(key, &v.to_string())
    }

    /// A signed integer field.
    pub fn i64(self, key: &str, v: i64) -> Self {
        self.raw(key, &v.to_string())
    }

    /// A float field with `decimals` digits after the point; `null` when
    /// `v` is NaN or infinite.
    pub fn f64(self, key: &str, v: f64, decimals: usize) -> Self {
        self.raw(key, &fixed(v, decimals))
    }

    /// A boolean field (`true` / `false`).
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// A string field, escaped.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, &format!("\"{}\"", escape(v)))
    }

    /// Close the object and return its text.
    pub fn finish(self) -> String {
        let end = if self.indent.is_empty() { "" } else { "\n" };
        format!("{{{}{end}}}", self.out)
    }
}

/// `v` with `decimals` digits after the point, or `null` when it is not
/// finite (JSON has no NaN or infinity).
pub(crate) fn fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// `s` JSON-escaped, without the quotes: `"`, `\` and every control
/// character.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_strings_are_escaped() {
        let line = JsonObject::new()
            .str("q\"k\\\u{1f}", "a\"b\\c\nd\te\r\u{0}")
            .finish();
        assert_eq!(line, r#"{"q\"k\\\u001f":"a\"b\\c\nd\te\r\u0000"}"#);
    }

    #[test]
    fn non_finite_floats_are_null_and_decimals_come_from_the_caller() {
        let line = JsonObject::new()
            .f64("nan", f64::NAN, 3)
            .f64("inf", f64::INFINITY, 1)
            .f64("ninf", f64::NEG_INFINITY, 0)
            .f64("one", 2.26, 1)
            .f64("three", 2.26, 3)
            .f64("none", 2.6, 0)
            .finish();
        assert_eq!(
            line,
            r#"{"nan":null,"inf":null,"ninf":null,"one":2.3,"three":2.260,"none":3}"#
        );
    }

    #[test]
    fn nested_raw_objects_and_commas() {
        assert_eq!(JsonObject::new().finish(), "{}");
        let inner = JsonObject::new()
            .u64("count", 2)
            .raw("buckets", "[0,1]")
            .finish();
        let outer = JsonObject::new()
            .i64("g", -2)
            .raw("h", &inner)
            .bool("ok", false)
            .finish();
        assert_eq!(
            outer,
            r#"{"g":-2,"h":{"count":2,"buckets":[0,1]},"ok":false}"#
        );
    }

    #[test]
    fn pretty_writes_one_key_per_line() {
        let doc = JsonObject::pretty()
            .str("report", "r")
            .bool("smoke", true)
            .raw("rows", "[\n    {}\n  ]")
            .finish();
        assert_eq!(
            doc,
            "{\n  \"report\": \"r\",\n  \"smoke\": true,\n  \"rows\": [\n    {}\n  ]\n}"
        );
    }
}
