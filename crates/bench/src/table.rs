//! Plain-text result tables, printed and saved.

use std::io::Write;
use std::path::Path;

/// A titled table of experiment output, printable as aligned text and
/// savable as CSV under `results/`.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table identifier and description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Save as CSV. A field holding `,` or `"` is quoted (RFC 4180).
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "# {}", self.title)?;
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            let fields: Vec<String> = line.iter().map(|c| csv_field(c)).collect();
            writeln!(f, "{}", fields.join(","))?;
        }
        Ok(())
    }
}

/// `cell` as one CSV field: in double quotes, its own quotes doubled,
/// when it holds a comma or a quote; as it is otherwise.
fn csv_field(cell: &str) -> String {
    if cell.contains([',', '"']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Format a float with 4 significant-ish digits for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("cloudconst_table_test");
        let path = dir.join("t.csv");
        let cases: [(&[&str], [&str; 2], &str); 2] = [
            (&["a", "b"], ["1", "2"], "a,b\n1,2\n"),
            // A comma or a quote makes the field quoted, so every line
            // still splits into two fields.
            (
                &["edges (p->c, 1-indexed)", "b"],
                ["1-2 2-3", "say \"hi\""],
                "\"edges (p->c, 1-indexed)\",b\n1-2 2-3,\"say \"\"hi\"\"\"\n",
            ),
        ];
        for (headers, row, body) in cases {
            let mut t = Table::new("csv", headers);
            t.row(row.iter().map(|c| c.to_string()).collect());
            t.save_csv(&path).unwrap();
            let content = std::fs::read_to_string(&path).unwrap();
            assert_eq!(content, format!("# csv\n{body}"));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.12345), "0.1235");
        assert_eq!(fmt(3.24159), "3.242");
        assert_eq!(fmt(123.456), "123.5");
    }
}
