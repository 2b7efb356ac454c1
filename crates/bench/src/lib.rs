#![warn(missing_docs)]

//! Shared helpers for the benchmark/experiment harness.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — closed forms vs. step-accurate measurement |
//! | `table2` | Table 2 — proposed vs. \[13\] vs. \[9\] on `2^d × 2^d` |
//! | `figure1` | Figure 1 — 2D algorithm trace on a 12×12 torus |
//! | `figure2` | Figure 2 — communication patterns in a 12×12×12 torus |
//! | `figure3` | Figure 3 — blocks sent per step, phases 1–3, 12×12×12 |
//! | `sweep` | §5 prose — completion time vs. size and parameters |
//! | `ablation_rearrange` | per-phase vs. per-step rearrangement ablation |

use std::fmt::Display;

/// Minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        Self {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders with aligned columns.
    pub(crate) fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..ncols {
                if i > 0 {
                    s.push_str(" | ");
                }
                s.push_str(&format!("{:>w$}", cells[i], w = widths[i]));
            }
            s
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 3 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with engineering-friendly precision.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e6 {
        format!("{:.3e}", x)
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Writes one experiment's JSON export twice: the full form to
/// `results/<name>.json` under the current directory (gitignored,
/// per-run), and the same content to `BENCH_<name>.json` at the repo
/// root — the committed headline snapshot the perf trajectory tracks.
///
/// The value is a [`torus_serviced::json::Json`], the workspace's one
/// JSON serializer, written compact with one trailing newline.
///
/// Returns the paths written (for the "(wrote …)" trailer lines).
pub fn export_json(name: &str, value: &torus_serviced::json::Json) -> Vec<std::path::PathBuf> {
    let mut written = Vec::new();
    let payload = {
        let mut s = value.dump();
        s.push('\n');
        s
    };
    let results = std::path::Path::new("results");
    if std::fs::create_dir_all(results).is_ok() {
        let path = results.join(format!("{name}.json"));
        if std::fs::write(&path, &payload).is_ok() {
            written.push(path);
        }
    }
    // `CARGO_MANIFEST_DIR` is crates/bench at compile time; the repo
    // root is two levels up regardless of the invocation cwd.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    if std::fs::write(&root, &payload).is_ok() {
        written.push(root);
    }
    written
}

/// The two facts about the host a wall-time snapshot needs before its
/// rows can be compared with another machine's: logical CPUs, and which
/// wide CRC32 kernel `torus-runtime` runs here. It selects on the same
/// CPU features: `vpclmul512` (4x512-bit folding) needs `avx512f` +
/// `vpclmulqdq` on top of `clmul`'s `pclmulqdq` + `sse4.1`; `slice16`
/// is the portable fallback.
pub fn host_json() -> [(&'static str, torus_serviced::json::Json); 2] {
    use torus_serviced::json::Json;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let kernel = {
        use std::arch::is_x86_feature_detected as has;
        if !(has!("pclmulqdq") && has!("sse4.1")) {
            "slice16"
        } else if has!("avx512f") && has!("vpclmulqdq") {
            "vpclmul512"
        } else {
            "clmul"
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let kernel = "slice16";
    [
        ("nproc", Json::u64(nproc as u64)),
        ("crc32_kernel", Json::str(kernel)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["short", "1"]);
        t.row(&["a-much-longer-name", "23456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // all rows same width
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(42.0), "42");
        assert_eq!(fnum(1.5), "1.50");
        assert_eq!(fnum(2.5e7), "2.500e7");
    }
}
