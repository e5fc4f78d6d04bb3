//! Aligned table printing and benchmark-record emission for experiment
//! reports.
//!
//! [`BenchRecord`] is the cross-commit perf trail the ROADMAP asks for:
//! each tracked benchmark serializes one record to `BENCH_<name>.json`
//! at the workspace root, so `git log -p BENCH_*.json` (and the CI
//! artifact of the bench-smoke job) shows how solver performance moves
//! over time.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One benchmark measurement, serialized to `BENCH_<name>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (also names the output file; keep it
    /// `[a-z0-9_]+`).
    pub name: String,
    /// Mean wall-clock time per iteration, in milliseconds.
    pub wall_ms: f64,
    /// Solver conflicts for one iteration (0 for encode-only benches).
    pub conflicts: u64,
    /// Solver propagations for one iteration (0 for encode-only benches).
    pub propagations: u64,
    /// `Some(true)` when every UNSAT answer behind this record also
    /// passed the in-tree DRAT checker (in a separate, untimed
    /// certified run — the timed numbers above are measured with proof
    /// logging off). `None` for benches that do not certify (encode
    /// only, or SAT-only instances); omitted from the JSON so their
    /// committed records are unchanged.
    pub proof_checked: Option<bool>,
}

impl BenchRecord {
    /// Renders the record as a single JSON object. Keys are emitted in
    /// a fixed order so committed records diff cleanly.
    pub fn to_json(&self) -> String {
        // Names are restricted to `[a-z0-9_]+`, but quote them as JSON
        // anyway so the output is always valid JSON.
        let name = serde_json::to_string(&self.name).unwrap_or_default();
        let proof_checked = match self.proof_checked {
            Some(b) => format!(",\n  \"proof_checked\": {b}"),
            None => String::new(),
        };
        format!(
            "{{\n  \"name\": {},\n  \"wall_ms\": {:.3},\n  \"conflicts\": {},\n  \"propagations\": {}{}\n}}\n",
            name, self.wall_ms, self.conflicts, self.propagations, proof_checked
        )
    }

    /// Parses a record previously written by [`BenchRecord::to_json`]
    /// (what the CI trend check compares).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let bad = |key: &str| format!("field {key:?} has the wrong type");
        Ok(BenchRecord {
            name: field("name")?
                .as_str()
                .ok_or_else(|| bad("name"))?
                .to_string(),
            wall_ms: field("wall_ms")?.as_f64().ok_or_else(|| bad("wall_ms"))?,
            conflicts: field("conflicts")?
                .as_u64()
                .ok_or_else(|| bad("conflicts"))?,
            propagations: field("propagations")?
                .as_u64()
                .ok_or_else(|| bad("propagations"))?,
            // Optional: records predating proof certification (and
            // benches that never certify) simply lack the key.
            proof_checked: match value.get("proof_checked") {
                None => None,
                Some(v) => Some(v.as_bool().ok_or_else(|| bad("proof_checked"))?),
            },
        })
    }

    /// Writes the record to `BENCH_<name>.json` in `dir`, returning the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the record at the workspace root (the directory
    /// benchmarks and CI agree on), or in `$BENCH_OUT_DIR` when set,
    /// and reports the path on stdout, or the failure on stderr.
    pub fn emit(&self) {
        match self.write_to(&bench_out_dir()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write bench record: {e}"),
        }
    }
}

/// The directory benchmark records are written to: `$BENCH_OUT_DIR` if
/// set, else the workspace root (two levels above this crate).
#[expect(clippy::expect_used, reason = "crates/bench is two levels deep")]
pub fn bench_out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BENCH_OUT_DIR") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Mean and (population) standard deviation of durations, in seconds.
pub fn mean_sd(times: &[Duration]) -> (f64, f64) {
    if times.is_empty() {
        return (0.0, 0.0);
    }
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    let var = secs.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / secs.len() as f64;
    (mean, var.sqrt())
}

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table.
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
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_record_json_shape() {
        let r = BenchRecord {
            name: "solve_majority_3x3x5".into(),
            wall_ms: 12.3456,
            conflicts: 164,
            propagations: 36698,
            proof_checked: None,
        };
        let json = r.to_json();
        assert!(json.contains("\"name\": \"solve_majority_3x3x5\""));
        assert!(json.contains("\"wall_ms\": 12.346"));
        assert!(json.contains("\"conflicts\": 164"));
        assert!(json.contains("\"propagations\": 36698"));
        assert!(
            !json.contains("proof_checked"),
            "uncertified records keep the legacy shape"
        );
        // Valid JSON according to the vendored parser.
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["conflicts"], serde_json::json!(164));
    }

    #[test]
    fn bench_record_parse_round_trips() {
        let r = BenchRecord {
            name: "min_depth_majority_3x3x5_incremental".into(),
            wall_ms: 42.125,
            conflicts: 1234,
            propagations: 567890,
            proof_checked: None,
        };
        let back = BenchRecord::parse(&r.to_json()).expect("parse own output");
        assert_eq!(back, r);
        assert!(BenchRecord::parse("{}").is_err());
        assert!(BenchRecord::parse("{\"name\": \"x\"").is_err());
    }

    #[test]
    fn bench_record_proof_checked_round_trips() {
        let r = BenchRecord {
            name: "min_depth_majority_3x3x5_incremental".into(),
            wall_ms: 42.125,
            conflicts: 1234,
            propagations: 567890,
            proof_checked: Some(true),
        };
        let json = r.to_json();
        assert!(json.contains("\"proof_checked\": true"));
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["proof_checked"], serde_json::json!(true));
        assert_eq!(BenchRecord::parse(&json).expect("parse"), r);
        // A wrong type is a parse error, not a silent None.
        assert!(BenchRecord::parse(
            "{\"name\": \"x\", \"wall_ms\": 1.0, \"conflicts\": 0, \
             \"propagations\": 0, \"proof_checked\": \"yes\"}"
        )
        .is_err());
    }

    #[test]
    fn bench_record_writes_named_file() {
        let dir = std::env::temp_dir().join(format!("lassynth-bench-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let r = BenchRecord {
            name: "unit_test".into(),
            wall_ms: 1.0,
            conflicts: 0,
            propagations: 0,
            proof_checked: None,
        };
        let path = r.write_to(&dir).expect("write record");
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"wall_ms\": 1.000"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mean_sd_of_constant_is_zero_sd() {
        let times = vec![Duration::from_millis(100); 4];
        let (mean, sd) = mean_sd(&times);
        assert!((mean - 0.1).abs() < 1e-9);
        assert!(sd.abs() < 1e-12);
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["name", "volume"]);
        t.row(["cnot", "8"]);
        t.row(["t-factory", "162"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("volume"));
        assert!(lines[3].trim_start().starts_with("t-factory"));
    }
}
