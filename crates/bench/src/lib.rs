//! Shared utilities for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index).

use std::fmt::Write as _;
use std::path::PathBuf;

/// Render an aligned text table (the experiment binaries' output format).
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let header: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:w$}"))
        .collect();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:w$}"))
            .collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    out
}

/// The experiment-output directory, relative to the workspace root.
const RESULTS_SUBDIR: &str = "target/experiments";

/// Where experiment outputs are persisted (JSON per experiment).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(RESULTS_SUBDIR);
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Persist an experiment's structured results as JSON. The printed path is
/// relative to the workspace root, so two checkouts print the same line.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let file = format!("{name}.json");
    let path = results_dir().join(&file);
    std::fs::write(&path, serde_json::to_string_pretty(value).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[saved {RESULTS_SUBDIR}/{file}]");
}

/// Render a simple horizontal-bar "figure" for terminal output.
pub fn ascii_bars(title: &str, labels: &[String], values: &[f64]) -> String {
    let mut out = format!("{title}\n");
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    let label_w = labels.iter().map(|l| l.chars().count()).max().unwrap_or(1);
    for (label, &v) in labels.iter().zip(values) {
        let len = ((v / max) * 40.0).round().max(0.0) as usize;
        let _ = writeln!(out, "{label:label_w$} | {} {v:.3}", "█".repeat(len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["model", "acc"],
            &[vec!["BERT".into(), "79.8%".into()], vec!["XLM-R".into(), "82.1%".into()]],
        );
        assert!(t.contains("| BERT "));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn bars_render() {
        let s = ascii_bars("t", &["a".into(), "b".into()], &[1.0, 2.0]);
        assert!(s.contains('█'));
    }
}
