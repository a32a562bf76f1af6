//! The one output format of the experiments: fixed-width tables, notes
//! and `TS:`-prefixed NDJSON time-series rows, rendered in the order
//! they were added.

use std::fmt;

/// One figure's output, built up as text.
#[derive(Debug, Default)]
pub struct Report(String);

impl Report {
    /// A blank line, `=== title ===`, then `headers` and `rows` as
    /// right-aligned columns as wide as their widest cell.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) -> &mut Self {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        self.0.push_str(&format!("\n=== {title} ===\n"));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        for cells in [&header, &dashes].into_iter().chain(rows) {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(&widths) {
                line.push_str(&format!("{cell:>w$}  "));
            }
            self.line(line.trim_end());
        }
        self
    }

    /// A blank line, then `text`.
    pub(crate) fn note(&mut self, text: &str) -> &mut Self {
        self.0.push('\n');
        self.line(text)
    }

    /// `text` on the line(s) right after what came before.
    pub(crate) fn line(&mut self, text: &str) -> &mut Self {
        self.0.push_str(text);
        self.0.push('\n');
        self
    }

    /// A blank line, then one `TS:`-prefixed line per NDJSON row.
    pub(crate) fn series<'a>(&mut self, rows: impl IntoIterator<Item = &'a str>) -> &mut Self {
        self.0.push('\n');
        for row in rows {
            self.0.push_str("TS:");
            self.line(row);
        }
        self
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}
