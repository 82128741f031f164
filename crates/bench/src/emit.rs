//! Result emission: aligned text tables on stdout, JSON on disk.

use serde::Serialize;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;

/// A printable result table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, "{h:>w$}  ", w = w)?;
        }
        writeln!(f)?;
        for w in &widths {
            write!(f, "{:->w$}  ", "")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, "{cell:>w$}  ", w = w)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Directory JSON results land in (`TG_RESULTS_DIR`, default `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("TG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Write `value` as pretty JSON to `results/<name>.json` and return the
/// path written, or the error naming the path that could not be.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> io::Result<PathBuf> {
    let dir = results_dir();
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, json))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22222".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        Table::new("x", &["a", "b"]).row(vec!["1".into()]);
    }

    // One test, so no other test of this binary sees `TG_RESULTS_DIR` change.
    #[test]
    fn save_json_respects_env_dir_and_reports_failure() {
        let dir = std::env::temp_dir().join(format!("tgbench-{}", std::process::id()));
        std::env::set_var("TG_RESULTS_DIR", &dir);
        let path = save_json("unit-test", &serde_json::json!({"k": 1})).unwrap();
        assert_eq!(path, dir.join("unit-test.json"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"k\""));
        // A results dir below a regular file cannot be created.
        std::env::set_var("TG_RESULTS_DIR", path.join("sub"));
        let err = save_json("unit-test", &serde_json::json!({})).unwrap_err();
        assert!(err.to_string().contains("cannot write"), "{err}");
        std::env::remove_var("TG_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
