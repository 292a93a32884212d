//! Minimal hand-rolled JSON writer.
//!
//! The build environment is offline, so instead of `serde` the exporters
//! use a tiny flat-object writer (strings, unsigned integers, floats,
//! bools, arrays of unsigned integers, and pre-rendered nested values).
//! This is all the event log and run-summary formats need; no Rust code
//! here reads them back.

/// Escapes `s` into `out` as JSON string contents (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Incremental writer for one JSON object.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an array of unsigned integers.
    pub fn u64_array(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
        self
    }

    /// Adds a field whose value is pre-rendered JSON (nested object/array).
    pub fn raw(&mut self, key: &str, rendered: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(rendered);
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_all_field_kinds() {
        let mut obj = JsonObject::new();
        obj.str("name", "a \"quoted\"\nvalue")
            .u64("count", u64::MAX)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .u64_array("xs", &[1, 2, 3])
            .raw("nested", "{\"k\":1}");
        let s = obj.finish();
        assert_eq!(
            s,
            "{\"name\":\"a \\\"quoted\\\"\\nvalue\",\"count\":18446744073709551615,\
             \"ratio\":0.5,\"ok\":true,\"xs\":[1,2,3],\"nested\":{\"k\":1}}"
        );
    }
}
