//! Plain-text table rendering for the benchmark binaries.
//!
//! The `bench_suite` binaries print paper-style tables; this module keeps
//! the column alignment logic in one place.

/// A simple fixed-width text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push(' ');
                line.push_str(cell);
                line.push_str(&" ".repeat(w - cell.len() + 1));
                line.push('|');
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a float with 3 decimals (the paper's table precision).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in milliseconds with adaptive precision.
pub fn ms(v: f64) -> String {
    if v < 0.01 {
        format!("{:.4}ms", v)
    } else if v < 1.0 {
        format!("{:.3}ms", v)
    } else {
        format!("{:.2}ms", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["method", "F1"]);
        t.row(["RL4OASD", "0.854"]);
        t.row(["CTSS", "0.706"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all lines same width
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("RL4OASD"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(0.8541), "0.854");
        assert_eq!(ms(0.0042), "0.0042ms");
        assert_eq!(ms(0.42), "0.420ms");
        assert_eq!(ms(42.0), "42.00ms");
    }
}
