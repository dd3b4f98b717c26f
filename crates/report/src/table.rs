//! A simple column-aligned ASCII table with CSV export.

/// A rectangular table: a header row plus data rows.
///
/// ```
/// use cc_report::Table;
///
/// let mut t = Table::new(["Source", "g CO2e/kWh"]);
/// t.row(["Coal", "820"]);
/// t.row(["Wind", "11"]);
/// let text = t.render();
/// assert!(text.contains("Coal"));
/// assert!(t.to_csv().starts_with("Source,g CO2e/kWh\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// The header cells.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a GitHub-flavoured Markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let emit = |row: &[String], out: &mut String| {
            out.push('|');
            for cell in row {
                out.push(' ');
                out.push_str(&cell.replace('|', "\\|"));
                out.push_str(" |");
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        out.push('|');
        for _ in &self.header {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Emits RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let emit = |row: &[String], out: &mut String| {
            let line: Vec<String> = row.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.header, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Formats a float with the given number of decimals (helper for table
/// cells).
#[must_use]
pub fn num(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["A", "Long header"]);
        t.row(["very long cell", "x"]);
        t.row(["y", "z"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("A "));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        assert_eq!(t.rows()[0], vec!["1".to_string(), String::new()]);
        assert_eq!(t.rows()[1].len(), 2);
        assert_eq!(t.rows().len(), 2);
        assert!(!t.rows().is_empty());
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "x|y"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n"));
        assert!(md.contains("x\\|y"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(["name", "note"]);
        t.row(["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn num_helper() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(2.0, 0), "2");
    }
}
