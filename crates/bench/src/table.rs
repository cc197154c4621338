//! Tabular result container shared by all figure generators.

/// A named table of labeled numeric rows (one row per benchmark or series
/// point, one column per configuration).
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table identifier, e.g. `"fig19"`.
    pub id: String,
    /// Human-readable caption.
    pub title: String,
    /// Column headers (excluding the leading label column).
    pub columns: Vec<String>,
    /// Rows: `(label, values)`, one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// An empty table with headers.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Look up a row by label.
    pub fn row(&self, label: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }

    /// The values in one column across all rows.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, v)| v[idx]).collect())
    }

    /// Serialize as pretty JSON (hand-rolled: the build environment has no
    /// registry access for serde, and the format is this one fixed shape).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 64);
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(c));
        }
        out.push_str("],\n  \"rows\": [");
        for (i, (label, values)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    [");
            out.push_str(&json_string(label));
            out.push_str(", [");
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_number(*v));
            }
            out.push_str("]]");
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Serialize as compact single-line JSON — same structure and number
    /// formatting as [`Table::to_json`], no whitespace. The serving layer's
    /// line-delimited protocol embeds figure results with this.
    pub fn to_compact_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.rows.len() * 48);
        out.push_str(&format!(
            "{{\"id\":{},\"title\":{},\"columns\":[",
            json_string(&self.id),
            json_string(&self.title)
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(c));
        }
        out.push_str("],\"rows\":[");
        for (i, (label, values)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&json_string(label));
            out.push_str(",[");
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_number(*v));
            }
            out.push_str("]]");
        }
        out.push_str("]}");
        out
    }
}

/// JSON-escape a string into a quoted literal: the serve crate's
/// [`turnpike_serve::json::escape`], so every writer escapes alike.
pub use turnpike_serve::json::escape as json_string;

/// Render a finite double as a JSON number (non-finite values have no JSON
/// representation; emit null like serde_json does).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // `{}` on f64 prints the shortest representation that round-trips,
    // which is valid JSON; force a decimal point for integral values so
    // consumers see a float.
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([9])
            .max()
            .unwrap_or(9);
        write!(f, "{:<label_w$}", "benchmark")?;
        for c in &self.columns {
            write!(f, " {c:>14}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for v in values {
                if v.abs() >= 1000.0 {
                    write!(f, " {v:>14.1}")?;
                } else {
                    write!(f, " {v:>14.4}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Table::new("figX", "demo", &["a", "b"]);
        t.push("k1", vec![1.0, 2.0]);
        t.push("k2", vec![3.0, 4.0]);
        assert_eq!(t.row("k1"), Some(&[1.0, 2.0][..]));
        assert_eq!(t.row("nope"), None);
        assert_eq!(t.column("b"), Some(vec![2.0, 4.0]));
        assert_eq!(t.column("c"), None);
        let s = t.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("k2"));
        let j = t.to_json();
        assert!(j.contains("\"columns\""));
    }

    #[test]
    fn compact_json_is_one_line_with_the_same_content() {
        let mut t = Table::new("figX", "demo", &["a", "b"]);
        t.push("k1", vec![1.0, 2.5]);
        let c = t.to_compact_json();
        assert!(!c.contains('\n'));
        assert_eq!(
            c,
            "{\"id\":\"figX\",\"title\":\"demo\",\"columns\":[\"a\",\"b\"],\
             \"rows\":[[\"k1\",[1.0,2.5]]]}"
        );
        // Same bytes as the pretty renderer modulo whitespace.
        let pretty: String = t.to_json().split_whitespace().collect();
        assert_eq!(pretty, c);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("f", "t", &["a"]);
        t.push("x", vec![1.0, 2.0]);
    }
}
