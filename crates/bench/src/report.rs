//! Plain-text table output for the figure harness.
//!
//! The harness prints every figure as an aligned text table so results can be
//! diffed and grepped without extra dependencies.

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have the same arity as the header).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity {} does not match header arity {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats one row with two-space separated, right-padded columns.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:<w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a section header for a figure.
pub fn print_header(figure: &str, description: &str) {
    println!();
    println!("################################################################");
    println!("# {figure}: {description}");
    println!("################################################################");
}

/// Renders and prints a table.
pub fn print_table(table: &Table) {
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "12345".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("alpha  1"));
        assert!(rendered.contains("b      12345"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_row_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }
}
