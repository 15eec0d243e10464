//! Loaders for the real King data set (p2psim distribution formats).
//!
//! Two on-disk formats are supported, auto-detected per line:
//!
//! * **Triple format** — whitespace-separated `i j rtt` records, one pair per
//!   line. Indices may be 0- or 1-based (auto-detected from the minimum seen)
//!   and RTTs may be in microseconds (the p2psim `king.matrix` convention) or
//!   milliseconds — chosen by [`RttUnit`].
//! * **Matrix format** — `n` lines of `n` whitespace-separated RTTs.
//!
//! Lines starting with `#` or `%` are comments. Missing pairs default to the
//! average of present pairs.

use crate::matrix::{upper_index, RttMatrix};
use std::io::BufRead;
use std::path::Path;

/// Unit of the RTT values in a triple-format file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RttUnit {
    /// Values are microseconds (p2psim `king.matrix` convention).
    Micros,
    /// Values are milliseconds.
    Millis,
}

impl RttUnit {
    fn to_ms(self, v: f64) -> f64 {
        match self {
            RttUnit::Micros => v / 1000.0,
            RttUnit::Millis => v,
        }
    }
}

/// Errors produced by the King loaders.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed; payload is `(line_number, content)`.
    Parse(usize, String),
    /// The file described no usable pairs.
    Empty,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse(n, l) => write!(f, "parse error on line {n}: {l:?}"),
            LoadError::Empty => write!(f, "no usable RTT records in file"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Load a triple-format file (`i j rtt` per line) from a reader.
fn load_triples<R: BufRead>(reader: R, unit: RttUnit) -> Result<RttMatrix, LoadError> {
    let mut records: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_id = 0usize;
    let mut min_id = usize::MAX;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let parse = |s: Option<&str>| -> Option<f64> { s.and_then(|x| x.parse::<f64>().ok()) };
        let (i, j, v) = match (
            parse(parts.next()),
            parse(parts.next()),
            parse(parts.next()),
        ) {
            (Some(i), Some(j), Some(v)) if i >= 0.0 && j >= 0.0 && v >= 0.0 => {
                (i as usize, j as usize, v)
            }
            _ => return Err(LoadError::Parse(lineno + 1, t.to_string())),
        };
        max_id = max_id.max(i).max(j);
        min_id = min_id.min(i).min(j);
        records.push((i, j, unit.to_ms(v)));
    }
    if records.is_empty() {
        return Err(LoadError::Empty);
    }
    let base = if min_id >= 1 { 1 } else { 0 }; // 1-based files auto-detected
    let n = max_id - base + 1;
    let mut m = RttMatrix::zeros(n);
    // One flag per pair, packed like the matrix's cells.
    let mut seen = vec![false; n * (n - 1) / 2];
    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, j, v) in records {
        let (i, j) = (i - base, j - base);
        if i == j {
            continue;
        }
        m.set(i, j, v);
        seen[upper_index(n, i.min(j), i.max(j))] = true;
        sum += v;
        count += 1;
    }
    // Fill gaps with the mean; real King files have a few unmeasured pairs.
    let mean = sum / count.max(1) as f64;
    m.map_in_place(|i, j, v| if seen[upper_index(n, i, j)] { v } else { mean });
    Ok(m)
}

/// Load a dense matrix-format file (one row per line) from a reader.
fn load_matrix<R: BufRead>(reader: R, unit: RttUnit) -> Result<RttMatrix, LoadError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let row: Result<Vec<f64>, _> = t.split_whitespace().map(|s| s.parse::<f64>()).collect();
        match row {
            Ok(r) => rows.push(r),
            Err(_) => return Err(LoadError::Parse(lineno + 1, t.to_string())),
        }
    }
    let n = rows.len();
    if n < 2 || rows.iter().any(|r| r.len() != n) {
        return Err(LoadError::Empty);
    }
    let mut m = RttMatrix::zeros(n);
    // Symmetrize by averaging, as p2psim does for King forward/back.
    m.map_in_place(|i, j, _| unit.to_ms((rows[i][j] + rows[j][i]) / 2.0));
    Ok(m)
}

/// Load a King file from disk, auto-detecting triple vs matrix format from
/// the first data line (3 columns ⇒ triples unless the file is 3×3 square).
pub fn load_file<P: AsRef<Path>>(path: P, unit: RttUnit) -> Result<RttMatrix, LoadError> {
    let text = std::fs::read_to_string(path)?;
    let data_lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('%'))
        .collect();
    if data_lines.is_empty() {
        return Err(LoadError::Empty);
    }
    let cols = data_lines[0].split_whitespace().count();
    let looks_like_matrix = cols == data_lines.len() && cols > 3;
    if cols == 3 && !looks_like_matrix {
        load_triples(std::io::Cursor::new(text), unit)
    } else {
        load_matrix(std::io::Cursor::new(text), unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn loads_zero_based_triples() {
        let data = "# comment\n0 1 10.0\n0 2 20\n1 2 15\n";
        let m = load_triples(Cursor::new(data), RttUnit::Millis).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.rtt(0, 1), 10.0);
        assert_eq!(m.rtt(2, 1), 15.0);
    }

    #[test]
    fn loads_one_based_triples_in_micros() {
        let data = "1 2 10000\n1 3 20000\n2 3 15000\n";
        let m = load_triples(Cursor::new(data), RttUnit::Micros).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.rtt(0, 1), 10.0);
    }

    #[test]
    fn fills_missing_pairs_with_mean() {
        let data = "0 1 10\n0 2 30\n"; // pair (1,2) missing
        let m = load_triples(Cursor::new(data), RttUnit::Millis).unwrap();
        assert_eq!(m.rtt(1, 2), 20.0);
    }

    #[test]
    fn rejects_garbage() {
        let data = "0 1 ten\n";
        assert!(matches!(
            load_triples(Cursor::new(data), RttUnit::Millis),
            Err(LoadError::Parse(1, _))
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            load_triples(Cursor::new("# nothing\n"), RttUnit::Millis),
            Err(LoadError::Empty)
        ));
    }

    #[test]
    fn loads_matrix_format_and_symmetrizes() {
        let data = "0 10 20\n12 0 30\n20 30 0\n";
        let m = load_matrix(Cursor::new(data), RttUnit::Millis).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.rtt(0, 1), 11.0); // (10+12)/2
        assert!(m.validate().is_ok());
    }

    #[test]
    fn rejects_ragged_matrix() {
        let data = "0 10\n10 0 5\n";
        assert!(load_matrix(Cursor::new(data), RttUnit::Millis).is_err());
    }
}
