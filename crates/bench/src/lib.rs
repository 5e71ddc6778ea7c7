//! Experiment harness utilities shared by the `exp_*` binaries.
//!
//! Each binary under `src/bin/` regenerates one paper artifact (figure or
//! argued tradeoff); see DESIGN.md §4 for the index and EXPERIMENTS.md
//! for recorded paper-vs-measured outcomes. The wall-clock ones share
//! one load driver, [`load`].

#![warn(missing_docs)]

pub mod load;

pub use load::{computers, drive, median, percentile, warm, Args, Json, ProbeFleet, Run};

/// A simple fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringify each cell yourself).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Render the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("paper artifact: {paper_ref}");
    println!("==================================================================");
}

/// Print a labelled section heading.
pub fn section(s: &str) {
    println!("\n--- {s} ---");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panic() {
        let mut t = Table::new(&["n", "latency"]);
        t.row(vec!["10".into(), f2(1.234)]);
        t.row(vec!["100".into(), f3(0.5)]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
