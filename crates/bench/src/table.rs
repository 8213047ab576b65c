//! Plain-text aligned table printer for experiment output.

/// Column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Append a row of `&str` cells.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(display_width(h));
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(display_width(c));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(c);
                let pad = width[i].saturating_sub(display_width(c));
                line.push_str(&" ".repeat(pad));
                if i + 1 < cells.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Character-count width (monospace approximation; the glyphs used in the
/// propagation tables — ∞, Θ, ε — are single-width).
fn display_width(s: &str) -> usize {
    s.chars().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["model", "ratio"]);
        t.row_str(&["Bert", "99.7%"]);
        t.row_str(&["GPT-2-long-name", "99.5%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // The ratio column starts at the same offset on both data lines.
        let off2 = lines[2].find("99.7%").unwrap();
        let off3 = lines[3].find("99.5%").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn rows_padded_to_header() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row_str(&["1"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn unicode_glyphs_count_as_one() {
        assert_eq!(display_width("1R-∞*"), 5);
        assert_eq!(display_width("2D-Θ"), 4);
    }
}
